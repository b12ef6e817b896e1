"""LSM-style delta-chain merge + compaction.

Every epoch the applier writes each touched partition's winners
(including op="D" tombstones) as a per-partition DELTA file — write
amplification O(epoch_winners), not O(table_size).  A partition's
state is then the ordered chain

    [base (optional), delta e_i, delta e_j, ...]   (i < j)

and the merged view is "last writer wins per doc_id, tombstones
drop" — evaluated vectorized here.  When a chain reaches its fold
threshold (every epoch in ``write_mode="cow"``, ``compact_chain_len``
in ``"delta"``) the applier folds it back into a fresh base, which is
also where tombstones are physically removed (north_star: "tombstone
compaction"); the epoch's winners file then stays beside the base as
its change feed.

Reference analogue `[UNVERIFIED — empty checkout, SURVEY.md §0]`:
tartare keeps every export as an immutable GridFS artifact and
rebuilds from the latest — the delta chain is the incremental
refinement of that model.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..schema import conform
from ..state.storage import publish
from .kernels import key_hash, latest_per_key

# Delta files carry the snapshot payload plus these envelope columns.
DELTA_ENVELOPE = ("op", "lsn")

# Row groups per data file: a file of n rows is written in groups of
# max(MIN_ROW_GROUP, ceil(n / MAX_ROW_GROUPS)) rows.  Files are written
# hash-sorted, so each group's doc_hash min/max statistics are a tight
# range and a point read decodes only the small group holding its key;
# the cap keeps the per-footer loop of ``_read_pruned`` bounded on
# multi-million-row bases.
MIN_ROW_GROUP = 1024
MAX_ROW_GROUPS = 64


def write_data_file(path: str, tbl: pa.Table, compression: str = "zstd") -> None:
    """Write one data file under its final name through
    ``state/storage.publish`` — a retried task overwrites it with
    identical bytes (exactly-once) and no reader ever sees a partial
    file.  Not fsynced: only the JSON records (``write_atomic``) are."""
    rows = max(MIN_ROW_GROUP, -(-len(tbl) // MAX_ROW_GROUPS))
    with publish(path) as tmp:
        pq.write_table(tbl, tmp, compression=compression, row_group_size=rows)


def merge_chain(
    tables: list[pa.Table], snapshot_schema: pa.Schema, keep_hash: bool = False
) -> pa.Table:
    """Fold an ordered chain (base first, newest delta last) into the
    live table: per doc_id the row with the highest LSN wins (base
    rows carry no LSN and lose every conflict by the watermark
    invariant — every delta LSN > any LSN reflected in the base);
    winning tombstones (op="D") are dropped.  LSN ordering — not chain
    position — makes the fold correct when one epoch contributes
    SEVERAL delta files for a partition (the split-tolerant hash
    exchange, still referenced by tables it wrote), since the splits
    carry disjoint LSN sets per doc.
    Output sorted by (hash, doc_id) — same deterministic order the
    applier writes."""
    if not tables:
        return snapshot_schema.empty_table()
    parts = []
    for t in tables:
        n = len(t)
        op = (
            t["op"].combine_chunks()
            if "op" in t.schema.names
            else pa.nulls(n, pa.string())
        )
        # base rows: no lsn column -> ordinal -1, lose all conflicts
        if "lsn" in t.schema.names:
            ord_col = t["lsn"].combine_chunks().cast(pa.int64())
        else:
            ord_col = pa.array(np.full(n, -1, dtype=np.int64))
        # reuse the stored cluster hash when the file carries it
        # (post-round-2 format) — re-hashing strings is the expensive
        # part of the fold
        hash_arr = (
            t["doc_hash"].combine_chunks()
            if "doc_hash" in t.schema.names
            else pa.array(key_hash(t["doc_id"]).view(np.int64))
        )
        body = conform(t, snapshot_schema)
        body = body.append_column("__op", op)
        body = body.append_column("__ord", ord_col)
        body = body.append_column("doc_hash", hash_arr)
        parts.append(body)
    allt = pa.concat_tables(parts)
    win = latest_per_key(allt, key="doc_id", order_col="__ord", hash_col="doc_hash")
    live = win.filter(
        pc.fill_null(pc.not_equal(win["__op"], "D"), True)  # base rows: op null
    )
    live = live.sort_by([("doc_hash", "ascending"), ("doc_id", "ascending")])
    drop = ["__op", "__ord"] if keep_hash else ["__op", "__ord", "doc_hash"]
    return live.drop_columns(drop)


def read_chain(
    table_root: str,
    chain: list[dict],
    snapshot_schema: pa.Schema,
    keep_hash: bool = False,
) -> pa.Table:
    """Read + merge one partition's file chain (entries in epoch
    order: ``[{"file": ..., "kind": ...}, ...]``)."""
    import os

    tables = [pq.read_table(os.path.join(table_root, e["file"])) for e in chain]
    return merge_chain(tables, snapshot_schema, keep_hash=keep_hash)


_EPOCH_RE = None


def _chain_entry_epoch(entry: dict) -> int:
    """Epoch of a chain entry — from the manifest when present, else
    parsed from the deterministic file name (``part-P-eE.parquet`` /
    ``delta-P-eE-sHASH.parquet``)."""
    if "epoch" in entry:
        return int(entry["epoch"])
    global _EPOCH_RE
    if _EPOCH_RE is None:
        import re

        _EPOCH_RE = re.compile(r"-e(\d+)")
    m = _EPOCH_RE.search(entry["file"])
    if m is None:  # pre-naming-scheme file: treat as oldest
        return -1
    return int(m.group(1))


def _read_pruned(pf: pq.ParquetFile, want: list[str], khs: np.ndarray) -> pa.Table:
    """Read ``want`` columns of ``pf``, pruned to the row groups whose
    footer min/max doc_hash statistics intersect the SORTED key-hash
    array ``khs``.  Files without the stored cluster column (pre-
    round-2 format) fall back to a full column read.  O(row_groups ×
    log(len(khs))) footer work, zero data read for non-matching
    groups."""
    meta = pf.metadata
    # physical column index of doc_hash in the parquet schema (nested
    # columns flatten, so locate by path, computed from row group 0)
    col_idx = None
    if "doc_hash" in pf.schema_arrow.names and meta.num_row_groups:
        rg0 = meta.row_group(0)
        for i in range(rg0.num_columns):
            if rg0.column(i).path_in_schema == "doc_hash":
                col_idx = i
                break
    if col_idx is None:
        return pf.read(columns=want)
    groups = []
    for g in range(meta.num_row_groups):
        st = meta.row_group(g).column(col_idx).statistics
        if st is None or not st.has_min_max:
            groups.append(g)
            continue
        i = int(np.searchsorted(khs, st.min, side="left"))
        if i < len(khs) and khs[i] <= st.max:
            groups.append(g)
    if not groups:
        return pf.schema_arrow.empty_table().select(want)
    return pf.read_row_groups(groups, columns=want)


def lookup_keys_in_chain(
    table_root: str,
    chain: list[dict],
    snapshot_schema: pa.Schema,
    keys: pa.Array,
    columns: list[str],
) -> pa.Table:
    """Resolve the CURRENT state of ``keys`` (doc_ids) by scanning the
    chain suffix NEWEST-first with column pruning, instead of merging
    the whole chain (``read_chain``) and filtering.

    Per key the winner is its max-LSN occurrence; epochs consume the
    log in LSN order, so a key found in epoch E cannot be outranked by
    any older epoch — once every key is resolved the scan STOPS, never
    touching the base file when the keys all live in recent deltas
    (the hot-key common case under zipf traffic).  Tables written by the
    earlier hash exchange may hold several split delta files of ONE
    epoch per partition, whose LSN sets per doc are disjoint, so files
    of the same epoch are read together and reduced by LSN before
    resolution.

    Only ``columns`` (+ the op/lsn envelope) are read from each file —
    the retraction path of an incremental view needs 3 columns of a
    maybe-50-column snapshot, and parquet reads are columnar.

    Files carrying the stored ``doc_hash`` cluster column (post-round-2
    format) additionally get row-group pruning: data files are
    hash-sorted in at most ``MAX_ROW_GROUPS`` groups of at least
    ``MIN_ROW_GROUP`` rows (``write_data_file``), so each row group's
    footer min/max statistics on doc_hash are tight ranges — the
    sorted key hashes are binary-searched against them and only
    intersecting row groups are read and decoded (~1 small group per
    key instead of the whole file).  Done via footer stats +
    ``read_row_groups`` rather than a ``filters=`` expression because
    pyarrow's stats pruning handles or-of-equalities but not ``isin``
    (and an or-chain over thousands of retraction keys is quadratic to
    build).

    Returns live winner rows conformed to ``columns`` of the snapshot
    schema; keys that are absent or whose winner is a tombstone
    (op="D") are simply missing from the output.
    """
    import os
    from collections import defaultdict

    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    keys = pc.unique(keys)
    # doc_id is required internally (hit filter + per-key resolution);
    # honor a projection without it by dropping it again at the end
    drop_key = "doc_id" not in columns
    if drop_key:
        columns = ["doc_id", *columns]
    pruned_schema = pa.schema([f for f in snapshot_schema if f.name in set(columns)])
    if len(keys) == 0 or not chain:
        out_schema = (
            pa.schema([f for f in pruned_schema if f.name != "doc_id"])
            if drop_key
            else pruned_schema
        )
        return out_schema.empty_table()

    by_epoch: dict[int, list[dict]] = defaultdict(list)
    for e in chain:
        by_epoch[_chain_entry_epoch(e)].append(e)

    unresolved = keys
    out: list[pa.Table] = []
    for ep in sorted(by_epoch, reverse=True):
        # sorted int64 hashes of the still-unresolved keys, for
        # row-group pruning on hash-clustered files (recomputed per
        # epoch as the unresolved set shrinks — hashing is ~free)
        khs = np.sort(key_hash(unresolved).view(np.int64))
        hits = []
        for entry in by_epoch[ep]:
            path = os.path.join(table_root, entry["file"])
            pf = pq.ParquetFile(path)
            avail = set(pf.schema_arrow.names)
            want = [c for c in columns if c in avail]
            want += [c for c in DELTA_ENVELOPE if c in avail and c not in want]
            t = _read_pruned(pf, want, khs)
            # hash collisions possible: re-filter on the string key
            hit = t.filter(pc.is_in(t["doc_id"], value_set=unresolved))
            if len(hit):
                hits.append(hit)
        if not hits:
            continue
        ord_cols, bodies = [], []
        for t in hits:
            n = len(t)
            op = (
                t["op"].combine_chunks()
                if "op" in t.schema.names
                else pa.nulls(n, pa.string())
            )
            lsn = (
                t["lsn"].combine_chunks().cast(pa.int64())
                if "lsn" in t.schema.names
                else pa.array(np.full(n, -1, dtype=np.int64))
            )
            body = conform(t, pruned_schema)
            body = body.append_column("__op", op)
            body = body.append_column("__ord", lsn)
            bodies.append(body)
        ep_all = pa.concat_tables(bodies)
        win = latest_per_key(ep_all, key="doc_id", order_col="__ord")
        live = win.filter(pc.fill_null(pc.not_equal(win["__op"], "D"), True))
        if len(live):
            out.append(live.drop_columns(["__op", "__ord"]))
        unresolved = unresolved.filter(
            pc.invert(pc.is_in(unresolved, value_set=win["doc_id"].combine_chunks()))
        )
        if len(unresolved) == 0:
            break
    result = pa.concat_tables(out) if out else pruned_schema.empty_table()
    return result.drop_columns(["doc_id"]) if drop_key else result


class PartitionMergeReader:
    """map_batches stage over partition-descriptor rows (p, files json)
    → merged live rows.  One partition per call (``batch_size=1``);
    runs as tasks — each reads only its own chain (no shuffle)."""

    def __init__(self, table_root: str, schema_b64: str):
        self.table_root = table_root
        self.schema = pa.ipc.read_schema(
            pa.py_buffer(__import__("base64").b64decode(schema_b64))
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        import json

        out = []
        for row in batch.to_pylist():
            chain = json.loads(row["chain_json"])
            out.append(read_chain(self.table_root, chain, self.schema))
        return pa.concat_tables(out) if out else self.schema.empty_table()


class PartitionCompactor:
    """map_batches stage over partition-descriptor rows → one fresh
    BASE file per partition (``CdcEngine.compact``: fold every live
    delta chain, drop tombstones, no new events).  Write is
    tmp+rename so a retried task is harmless; output name is the
    deterministic ``part-{p}-e{epoch}`` of the compaction epoch."""

    def __init__(self, table_root: str, schema_b64: str, epoch: int, compression: str = "zstd"):
        self.table_root = table_root
        self.schema = pa.ipc.read_schema(
            pa.py_buffer(__import__("base64").b64decode(schema_b64))
        )
        self.epoch = epoch
        self.compression = compression

    def __call__(self, batch: pa.Table) -> pa.Table:
        import json
        import os

        rows = []
        for row in batch.to_pylist():
            p = int(row["p"])
            chain = json.loads(row["chain_json"])
            merged = read_chain(self.table_root, chain, self.schema, keep_hash=True)
            fname = f"part-{p:05d}-e{self.epoch:06d}.parquet"
            path = os.path.join(self.table_root, "data", fname)
            write_data_file(path, merged, self.compression)
            rows.append(
                {
                    "p": p,
                    "file": os.path.join("data", fname),
                    "kind": "base",
                    "rows": len(merged),
                    "lsn_lo": int(row["lsn_lo"]),
                    "lsn_hi": int(row["lsn_hi"]),
                    "events_applied": 0,
                    "bytes": os.path.getsize(path),
                }
            )
        return pa.Table.from_pylist(rows)


class PartitionRewriter:
    """map_groups stage for ``CdcEngine.repartition_table``: one group
    = one NEW partition's live rows (already re-hashed to the new
    count, carrying ``part`` + ``doc_hash``), written as a fresh base
    in the house (doc_hash, doc_id) order.  Deterministic name +
    tmp/rename → a retried group task rewrites identical bytes
    (exactly-once)."""

    def __init__(self, table_root: str, schema_b64: str, epoch: int, compression: str = "zstd"):
        self.table_root = table_root
        self.schema = pa.ipc.read_schema(
            pa.py_buffer(__import__("base64").b64decode(schema_b64))
        )
        self.epoch = epoch
        self.compression = compression

    def __call__(self, group: pa.Table) -> pa.Table:
        import os

        if len(group) == 0:
            return pa.table(
                {
                    "p": pa.array([], pa.int64()),
                    "file": pa.array([], pa.string()),
                    "kind": pa.array([], pa.string()),
                    "rows": pa.array([], pa.int64()),
                    "bytes": pa.array([], pa.int64()),
                }
            )
        p = int(group["part"][0].as_py())
        body = group.sort_by([("doc_hash", "ascending"), ("doc_id", "ascending")])
        hash_col = body["doc_hash"].combine_chunks()
        body = conform(body, self.schema).append_column("doc_hash", hash_col)
        fname = f"part-{p:05d}-e{self.epoch:06d}.parquet"
        path = os.path.join(self.table_root, "data", fname)
        write_data_file(path, body, self.compression)
        return pa.Table.from_pylist(
            [
                {
                    "p": p,
                    "file": os.path.join("data", fname),
                    "kind": "base",
                    "rows": len(body),
                    "bytes": os.path.getsize(path),
                }
            ]
        )


class PartitionBackfiller:
    """map_batches stage over partition descriptors → fresh BASE with a
    null-backfilled column computed (``CdcEngine.backfill``).  ``fn``
    receives the merged live rows (pa.Table) and returns the full
    column array; only null positions are replaced, so rows written
    since the evolution keep their stored values bit-for-bit."""

    def __init__(self, table_root: str, schema_b64: str, epoch: int, column: str, fn, compression: str = "zstd"):
        self.table_root = table_root
        self.schema = pa.ipc.read_schema(
            pa.py_buffer(__import__("base64").b64decode(schema_b64))
        )
        self.epoch = epoch
        self.column = column
        self.fn = fn
        self.compression = compression

    def __call__(self, batch: pa.Table) -> pa.Table:
        import json
        import os

        rows = []
        for row in batch.to_pylist():
            p = int(row["p"])
            merged = read_chain(
                self.table_root, json.loads(row["chain_json"]), self.schema, keep_hash=True
            )
            col = merged[self.column]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if col.null_count:
                computed = self.fn(merged)
                if isinstance(computed, pa.ChunkedArray):
                    computed = computed.combine_chunks()
                filled = pc.if_else(pc.is_valid(col), col, computed.cast(col.type))
                merged = merged.set_column(
                    merged.schema.get_field_index(self.column), self.column, filled
                )
            fname = f"part-{p:05d}-e{self.epoch:06d}.parquet"
            path = os.path.join(self.table_root, "data", fname)
            write_data_file(path, merged, self.compression)
            rows.append(
                {
                    "p": p,
                    "file": os.path.join("data", fname),
                    "kind": "base",
                    "rows": len(merged),
                    "lsn_lo": int(row["lsn_lo"]),
                    "lsn_hi": int(row["lsn_hi"]),
                    "events_applied": 0,
                    "bytes": os.path.getsize(path),
                }
            )
        return pa.Table.from_pylist(rows)
