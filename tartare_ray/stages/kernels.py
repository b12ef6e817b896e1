"""Vectorized Arrow kernels shared by the CDC stages and the
driver-oracle query pipelines.  No per-row Python anywhere here —
these run inside ``map_batches`` on the hot path.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# Fixed key => deterministic across processes/runs (required: a retried
# task must route every doc_id to the same partition).
_HASH_KEY = "tartare_ray.p.v1"  # exactly 16 bytes (pandas hash_array requirement)


def key_hash(keys: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Deterministic uint64 hash of a string key column."""
    arr = keys.to_numpy(zero_copy_only=False)
    return pd.util.hash_array(
        np.asarray(arr, dtype=object), hash_key=_HASH_KEY, categorize=False
    )


def hash_partition_ids(keys: pa.ChunkedArray | pa.Array, num_partitions: int) -> np.ndarray:
    """Deterministic uint64 hash of a string column -> partition id."""
    return (key_hash(keys) % np.uint64(num_partitions)).astype(np.int32)


def add_hash_partition_column(
    tbl: pa.Table,
    key: str,
    num_partitions: int,
    col_name: str = "part",
    hash_col: str | None = None,
) -> pa.Table:
    """Append the partition-id column and (optionally) the raw 64-bit
    key hash as ``hash_col`` — the hash doubles as an integer sort
    surrogate for the key downstream (sorting 64-bit ints is several
    times faster than sorting the doc_id strings, and the hot sorts
    dominate applier CPU)."""
    h = key_hash(tbl[key])
    tbl = tbl.append_column(
        col_name, pa.array((h % np.uint64(num_partitions)).astype(np.int32))
    )
    if hash_col is not None:
        tbl = tbl.append_column(hash_col, pa.array(h.view(np.int64)))
    return tbl


def part_ids(tbl: pa.Table, keys: list[str], n_parts: int) -> np.ndarray:
    """Partition id of every row: the hash of the ``keys`` columns mod
    ``n_parts``.  Integer columns hash through mix64 (raw ``k % n``
    collapses structured id spaces — all-even or stride-allocated ids —
    into a few giant parts); any other column through ``key_hash``, so
    one string key gives exactly ``hash_partition_ids``, the table's
    persisted routing.  Further keys fold in as ``mix64(h ^ v)``."""
    from ..functions.hashing import mix64

    h = None
    for k in keys:
        col = tbl[k]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_integer(col.type):
            v = mix64(col.to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64))
        else:
            v = key_hash(col)
        h = v if h is None else mix64(h ^ v)
    return (h % np.uint64(n_parts)).astype(np.int32)


def fold_by_part(ds, keys: str | list[str], fn, n_parts: int | None = None):
    """The one hash-partition fold: tag every row with ``part`` =
    ``part_ids(keys, n_parts)``, then call ``fn(part_rows)`` once per
    non-empty part, ``part`` column included.  Every row of a key
    reaches the same call, so ``fn`` folds all of a part's keys in one
    vectorized pass — O(parts) Python calls, not O(keys), and no single
    key's history must fit a group of its own."""
    import ray

    keys = [keys] if isinstance(keys, str) else list(keys)
    # default: two parts per CPU, floor 4 — enough that one hot part
    # does not serialize the fold, few enough that each call folds a
    # vectorized batch of keys
    n_parts = n_parts or max(4, 2 * int(ray.cluster_resources().get("CPU", 4)))

    def tag(b: pa.Table) -> pa.Table:
        return b.append_column("part", pa.array(part_ids(b, keys, n_parts)))

    return (
        ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("part")
        .map_groups(fn, batch_format="pyarrow")
    )


def _first_occurrence_mask(arr: pa.Array) -> pa.BooleanArray:
    """True at the first row of each run of equal values (arr must be
    sorted so equal values are adjacent)."""
    n = len(arr)
    if n <= 1:
        return pa.array([True] * n, type=pa.bool_())
    neq = pc.not_equal(arr.slice(1), arr.slice(0, n - 1))
    # not_equal yields null when either side is null; keys are non-null
    return pa.concat_arrays([pa.array([True]), neq.combine_chunks() if isinstance(neq, pa.ChunkedArray) else neq])


def argmax_per_key(
    tbl: pa.Table, key: str, order_cols: list[str]
) -> pa.Table:
    """Keep, per key, the row maximizing ``order_cols`` lexicographically
    (later columns break ties).  Same associative-reduce shape as
    ``latest_per_key`` — safe as a per-batch partial followed by a
    per-group final."""
    if len(tbl) == 0:
        return tbl
    sort_keys = [(key, "ascending")] + [(c, "descending") for c in order_cols]
    t = tbl.sort_by(sort_keys).combine_chunks()
    mask = _first_occurrence_mask(t[key].combine_chunks())
    return t.filter(mask)


def latest_per_key(
    tbl: pa.Table, key: str = "doc_id", order_col: str = "lsn", hash_col: str | None = None
) -> pa.Table:
    """argmax(order_col) per key — the core CDC reduce (latest-LSN-wins,
    SURVEY.md §2A A2).  Associative: applying this per batch, then again
    over the concatenation of the partial results, equals applying it
    once globally — which is what makes per-batch pre-reduction (and
    salted/sharded pre-reduction generally) correct.  Deletes survive as
    rows (op="D" is data, not dropped), satisfying the "deletes must
    carry through the partial reduce" rule.
    """
    if len(tbl) == 0:
        return tbl
    if hash_col is not None and hash_col in tbl.schema.names:
        sort_keys = [(hash_col, "ascending"), (key, "ascending"), (order_col, "descending")]
    else:
        sort_keys = [(key, "ascending"), (order_col, "descending")]
    t = tbl.sort_by(sort_keys).combine_chunks()
    mask = _first_occurrence_mask(t[key].combine_chunks())
    return t.filter(mask)


def run_segments(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, counts) of the runs of equal values in an already
    sorted key array — the segment skeleton every bucket-shuffled
    multi-key window fold shares (one ``np.lexsort`` per bucket, then
    run masks, never one Python call per key)."""
    n = len(sorted_keys)
    if n == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    return starts, np.diff(np.append(starts, n))


def grouped_ref_positions(
    r_key: np.ndarray,
    r_val: np.ndarray,
    p_key: np.ndarray,
    p_val: np.ndarray,
    inclusive: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-key searchsorted over MANY keys at once — the
    primitive behind asof/range joins without per-key Python dispatch.

    For each probe i returns:
      cnt[i]  = #{j : r_key[j] == p_key[i] and r_val[j] <= p_val[i]}
                (strict ``<`` when ``inclusive=False``)
      gidx[i] = index INTO THE REF ARRAYS AS PASSED of the last such
                ref (-1 when cnt == 0).

    Refs must be pre-sorted by (key, val, tiebreak); ``np.lexsort``'s
    stability preserves their relative order, so ``gidx`` points at
    the ref with the HIGHEST tiebreak among equal (key, val) — the
    as-of "latest wins" convention.  One O((R+P) log(R+P)) lexsort +
    cumsum per call, shared by every key in the batch."""
    n_r, n_p = len(r_key), len(p_key)
    key = np.concatenate([r_key, p_key])
    val = np.concatenate([r_val, p_val])
    is_ref = np.zeros(n_r + n_p, bool)
    is_ref[:n_r] = True
    # tie order at equal (key, val): inclusive counts equal refs →
    # refs sort before probes; strict excludes them → probes first
    tie = np.where(is_ref, 0 if inclusive else 1, 1 if inclusive else 0).astype(
        np.int8
    )
    order = np.lexsort((tie, val, key))
    ref_s = is_ref[order]
    refs_before = np.cumsum(ref_s) - ref_s  # refs strictly before each pos
    starts, counts = run_segments(key[order])
    seg_base = np.repeat(refs_before[starts], counts)
    probe_pos = np.flatnonzero(~ref_s)
    cnt_sorted = (refs_before - seg_base)[probe_pos]
    orig = order[probe_pos] - n_r
    cnt = np.empty(n_p, np.int64)
    cnt[orig] = cnt_sorted
    gidx = np.full(n_p, -1, np.int64)
    gidx[orig] = np.where(cnt_sorted > 0, refs_before[probe_pos] - 1, -1)
    return cnt, gidx
