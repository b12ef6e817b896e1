"""Near-duplicate detection stages: MinHash+LSH, SimHash, n-gram
Jaccard verification — the training-data dedup suite.

Reference analogue: tartare's dedup-by-md5-checksum of fetched archives
(`tartare/tasks.py::automatic_update` `[UNVERIFIED — empty checkout,
SURVEY.md §0 / §2A A4]`), generalized from whole-file identity to
content near-duplication.

Shape of every pipeline (see ``pipelines/queries.py``):

    documents ──map_batches(SignatureStage)──▶ (doc_id, sig…)
        ──map_batches(explode bands/blocks)──▶ (bucket, doc_id)
        ──fold_by_part(bucket, bucket_pairs_partition)──▶ candidate (doc_a, doc_b)
        ──groupby(pair).count──▶ distinct pairs
        ──map_batches(VerifyStage, broadcast signatures)──▶ confirmed

Scale notes (100 TB): the candidate-pair groupby is the only
corpus-sized shuffle and it moves (doc_id, 8-byte bucket) rows, never
text.  Verification is a hash-partitioned JOIN of the candidate pairs
against the materialized signature dataset (``Dataset.join`` on
doc_a then doc_b, signatures carried as fixed-width binary — Acero
joins reject list payloads) — no driver-side or broadcast whole-corpus
structure anywhere; the data moved is O(candidates × sig_width).
Buckets larger than ``max_bucket`` are skipped and counted (a bucket
that collects thousands of docs is a degenerate band — all-pairs there
is O(n²) and its members are caught by their other bands).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import text as T
from ..functions.hashing import (
    band_keys,
    hamming_distance_u64,
    minhash_signatures,
    shingle_hashes,
    simhash_signatures,
)

SHINGLE_K = 3


class MinHashBandStage:
    """documents → LSH band rows (band, band_key, doc_id).

    Callable class (actor pool): the permutation family and band layout
    are fixed in ``__init__`` once per actor; ``__call__`` is pure
    vectorized numpy per zero-copy Arrow batch.
    """

    def __init__(self, num_perms: int = 64, bands: int = 16, seed: int = 42):
        self.num_perms = num_perms
        self.bands = bands
        self.seed = seed

    def signatures(self, batch: pa.Table) -> np.ndarray:
        wh, offsets = T.word_hash_lists(batch["text"])
        sh, sho = shingle_hashes(wh, offsets, k=SHINGLE_K)
        return minhash_signatures(sh, sho, num_perms=self.num_perms, seed=self.seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sig = self.signatures(batch)
        bk = band_keys(sig, bands=self.bands)  # (n_docs, bands)
        n = len(batch)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "band": pa.array(np.tile(np.arange(self.bands, dtype=np.int32), n)),
                "band_key": pa.array(bk.reshape(-1).view(np.int64)),
                "doc_id": pa.array(np.repeat(doc_ids, self.bands)),
            }
        )


class MinHashSignatureStage(MinHashBandStage):
    """documents → (doc_id, sig list<int64>) — the raw signature rows
    used for broadcast verification / est-Jaccard."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        sig = self.signatures(batch).view(np.int64)
        n, p = sig.shape
        arr = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * p, p, dtype=np.int32)),
            pa.array(sig.reshape(-1)),
        )
        return pa.table({"doc_id": batch["doc_id"], "sig": arr})


class SimHashBlockStage:
    """documents → (block, block_val, doc_id) rows for Hamming-LSH.

    Splitting the 64-bit simhash into ``blocks`` equal blocks
    guarantees (pigeonhole) that any pair within Hamming distance
    ``blocks - 1`` collides on at least one block.
    """

    def __init__(self, blocks: int = 4):
        assert 64 % blocks == 0
        self.blocks = blocks
        self.width = 64 // blocks

    def signatures(self, batch: pa.Table) -> np.ndarray:
        wh, offsets = T.word_hash_lists(batch["text"])
        return simhash_signatures(wh, offsets)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sig = self.signatures(batch)
        n = len(sig)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        shifts = (np.arange(self.blocks, dtype=np.uint64) * np.uint64(self.width))[None, :]
        mask = np.uint64((1 << self.width) - 1)
        vals = ((sig[:, None] >> shifts) & mask).astype(np.int64)
        return pa.table(
            {
                "block": pa.array(np.tile(np.arange(self.blocks, dtype=np.int32), n)),
                "block_val": pa.array(vals.reshape(-1)),
                "doc_id": pa.array(np.repeat(doc_ids, self.blocks)),
            }
        )


class SimHashSignatureStage(SimHashBlockStage):
    def __call__(self, batch: pa.Table) -> pa.Table:
        sig = self.signatures(batch).view(np.int64)
        return pa.table({"doc_id": batch["doc_id"], "sig": pa.array(sig)})


def minhash_bands_from_sigs_batch(batch: pa.Table, bands: int) -> pa.Table:
    """(doc_id, sig list<int64>) → exploded LSH band rows — derived
    from the materialized signature dataset so the text is read and
    hashed exactly ONCE per pipeline."""
    sig_col = batch["sig"]
    if isinstance(sig_col, pa.ChunkedArray):
        sig_col = sig_col.combine_chunks()
    n = len(batch)
    if n == 0:
        return pa.table(
            {
                "band": pa.array([], pa.int32()),
                "band_key": pa.array([], pa.int64()),
                "doc_id": pa.array([], batch["doc_id"].type),
            }
        )
    flat = sig_col.values.to_numpy(zero_copy_only=False).view(np.uint64)
    sig = flat.reshape(n, -1)
    bk = band_keys(sig, bands=bands)
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
            "band_key": pa.array(bk.reshape(-1).view(np.int64)),
            "doc_id": pa.array(np.repeat(doc_ids, bands)),
        }
    )


def simhash_blocks_from_sigs_batch(batch: pa.Table, blocks: int) -> pa.Table:
    """(doc_id, sig int64) → exploded Hamming-LSH block rows."""
    width = 64 // blocks
    sig_col = batch["sig"]
    if isinstance(sig_col, pa.ChunkedArray):
        sig_col = sig_col.combine_chunks()
    n = len(batch)
    if n == 0:
        return pa.table(
            {
                "block": pa.array([], pa.int32()),
                "block_val": pa.array([], pa.int64()),
                "doc_id": pa.array([], batch["doc_id"].type),
            }
        )
    sig = sig_col.to_numpy(zero_copy_only=False).view(np.uint64)
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    shifts = (np.arange(blocks, dtype=np.uint64) * np.uint64(width))[None, :]
    mask = np.uint64((1 << width) - 1)
    vals = ((sig[:, None] >> shifts) & mask).astype(np.int64)
    return pa.table(
        {
            "block": pa.array(np.tile(np.arange(blocks, dtype=np.int32), n)),
            "block_val": pa.array(vals.reshape(-1)),
            "doc_id": pa.array(np.repeat(doc_ids, blocks)),
        }
    )


def bucket_pair_counts(bucketed, keys: list[str], alias: str, max_bucket: int = 256):
    """Bucket rows (``keys`` + doc_id) → (doc_a, doc_b, ``alias``):
    every doc pair that shares a bucket, with the number of buckets it
    shares (for gram buckets, |A∩B|).  One ``fold_by_part`` on the
    bucket key co-locates each bucket, so pair expansion runs as P
    vectorized part folds (``bucket_pairs_partition``) instead of one
    Python call per bucket."""
    from ray.data.aggregate import Count

    from .kernels import fold_by_part

    return fold_by_part(
        bucketed, keys, lambda g: bucket_pairs_partition(g, keys, max_bucket=max_bucket)
    ).groupby(["doc_a", "doc_b"]).aggregate(Count(alias_name=alias))


def bucket_pairs_partition(
    part: pa.Table, keys: list[str], max_bucket: int = 256
) -> pa.Table:
    """All (doc_a < doc_b) pairs within EVERY LSH bucket of one
    ``fold_by_part`` part — the vectorized replacement for one Python
    call per bucket (millions of buckets → millions of invocations;
    measured 718 s cumulative at 10^6 docs).  One lexsort + run detection per partition, pair
    expansion batched by distinct run length (≤ max_bucket distinct
    lengths, each fully vectorized).  Semantics identical to the
    per-group path: duplicate (bucket, doc) rows collapse, buckets
    larger than ``max_bucket`` are dropped as degenerate bands.
    """
    doc = part["doc_id"]
    if isinstance(doc, pa.ChunkedArray):
        doc = doc.combine_chunks()
    empty = pa.table(
        {"doc_a": pa.array([], doc.type), "doc_b": pa.array([], doc.type)}
    )
    d = doc.to_numpy(zero_copy_only=False)
    n = len(d)
    if n < 2:
        return empty
    kc = [
        part[k].to_numpy(zero_copy_only=False)
        if not isinstance(part[k], pa.ChunkedArray)
        else part[k].combine_chunks().to_numpy(zero_copy_only=False)
        for k in keys
    ]
    order = np.lexsort(tuple([d] + kc[::-1]))
    d = d[order]
    kc = [c[order] for c in kc]
    same_key = np.ones(n, bool)
    same_key[0] = False
    for c in kc:
        same_key[1:] &= c[1:] == c[:-1]
    dup = same_key.copy()
    dup[1:] &= d[1:] == d[:-1]
    keep = ~dup
    # a dropped duplicate is never a run boundary (same_key is True
    # there), so the kept rows' flags still mark bucket starts exactly
    d, same_key = d[keep], same_key[keep]
    starts = np.flatnonzero(~same_key)
    lens = np.diff(np.append(starts, len(d)))
    ok = (lens >= 2) & (lens <= max_bucket)
    starts, lens = starts[ok], lens[ok]
    if len(starts) == 0:
        return empty
    outs_a, outs_b = [], []
    for length in np.unique(lens):
        ia, ib = np.triu_indices(int(length), 1)
        s = starts[lens == length]
        outs_a.append(d[(s[:, None] + ia[None, :]).ravel()])
        outs_b.append(d[(s[:, None] + ib[None, :]).ravel()])
    return pa.table(
        {
            "doc_a": pa.array(np.concatenate(outs_a), doc.type),
            "doc_b": pa.array(np.concatenate(outs_b), doc.type),
        }
    )


def bucket_pairs_group(group: pa.Table, max_bucket: int = 256) -> pa.Table:
    """All (doc_a < doc_b) pairs within one LSH bucket; oversized
    buckets are dropped (degenerate bands — see module docstring)."""
    ids = np.unique(group["doc_id"].to_numpy(zero_copy_only=False))
    n = len(ids)
    if n < 2 or n > max_bucket:
        return pa.table(
            {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())}
        )
    ia, ib = np.triu_indices(n, k=1)
    return pa.table({"doc_a": pa.array(ids[ia]), "doc_b": pa.array(ids[ib])})


# --------------------------------------------------------------------------
# Partitioned verification (pairs ⋈ signatures) — no broadcast, no driver
# state.  Signatures travel as binary payload columns because Acero joins
# reject list-typed non-key fields.
# --------------------------------------------------------------------------

def _as_binary_u64_rows(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """list<int64> signature column → one binary cell per row (the
    row's uint64 words, little-endian) — a join-safe payload."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    lens = pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = col.flatten().to_numpy(zero_copy_only=False)
    byte_off = np.concatenate([[0], np.cumsum(lens * 8)]).astype(np.int32)
    return pa.Array.from_buffers(
        pa.binary(),
        n,
        [None, pa.py_buffer(byte_off.tobytes()), pa.py_buffer(flat.tobytes())],
    )


def _u64_rows_from_binary(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """binary signature column → (flat uint64 array, row offsets)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    rows = col.to_numpy(zero_copy_only=False)
    flat = np.frombuffer(b"".join(rows), dtype=np.uint64)
    lens = np.fromiter((len(r) // 8 for r in rows), dtype=np.int64, count=len(rows))
    return flat, np.concatenate([[0], np.cumsum(lens)])


def sig_binary_batch(batch: pa.Table, key: str, sig: str) -> pa.Table:
    """(doc_id, sig list<int64>) → (key, sig binary) join-side table."""
    return pa.table({key: batch["doc_id"], sig: _as_binary_u64_rows(batch["sig"])})


def shingle_binary_batch(batch: pa.Table, key: str = "doc_id", out: str = "sig") -> pa.Table:
    """documents batch → (doc_id, sorted-unique shingle hashes as
    binary) — the exact-Jaccard join side."""
    wh, offsets = T.word_hash_lists(batch["text"])
    sh, sho = shingle_hashes(wh, offsets, k=SHINGLE_K)
    ids = batch["doc_id"]
    cells = [
        np.unique(sh[sho[i] : sho[i + 1]]).tobytes() for i in range(len(ids))
    ]
    return pa.table({key: ids, out: pa.array(cells, pa.binary())})


def gram_doc_batch(batch: pa.Table, k: int = 8) -> pa.Table:
    """documents batch → DISTINCT (gram, doc_id) rows over word-``k``-
    gram shingle hashes — the inverted-index explode feeding the
    shared-shingle dedup graph (``queries.dedup_clusters``).

    Docs shorter than ``k`` words emit NOTHING: ``shingle_hashes``
    backfills their word hashes as pseudo-shingles (right for MinHash,
    where no doc may be shingle-less), but the SQL oracle's gram list
    is empty there, so we mask those rows out for exact parity.
    """
    wh, offsets = T.word_hash_lists(batch["text"])
    sh, sho = shingle_hashes(wh, offsets, k=k)
    lengths = np.diff(np.asarray(offsets, dtype=np.int64))
    counts = np.diff(sho)
    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    g = sh[np.repeat(lengths >= k, counts)].view(np.int64)
    d = np.repeat(ids, counts)[np.repeat(lengths >= k, counts)]
    order = np.lexsort((g, d))
    g, d = g[order], d[order]
    keep = np.ones(len(g), bool)
    if len(g):
        keep[1:] = (g[1:] != g[:-1]) | (d[1:] != d[:-1])
    return pa.table({"gram": pa.array(g[keep]), "doc_id": pa.array(d[keep])})


def eval_shingles(texts: pa.ChunkedArray | pa.Array, k: int) -> np.ndarray:
    """Sorted unique word-``k``-gram hashes of a benchmark/eval corpus
    — the broadcast side of decontamination."""
    wh, offsets = T.word_hash_lists(texts)
    sh, _ = shingle_hashes(wh, offsets, k=k)
    return np.unique(sh)


def contamination_batch(batch: pa.Table, eval_sh: np.ndarray, k: int) -> pa.Table:
    """documents batch → docs sharing ≥1 ``k``-gram shingle with the
    eval set, with the overlap count.  Vectorized: one sorted-array
    membership test (searchsorted) over the batch's flattened
    shingles, then a per-doc segment sum."""
    wh, offsets = T.word_hash_lists(batch["text"])
    sh, sho = shingle_hashes(wh, offsets, k=k)
    if len(sh) == 0 or len(eval_sh) == 0:
        return pa.table(
            {
                "doc_id": batch["doc_id"].slice(0, 0),
                "n_overlap": pa.array([], pa.int64()),
            }
        )
    pos = np.searchsorted(eval_sh, sh)
    hit = (pos < len(eval_sh)) & (eval_sh[np.minimum(pos, len(eval_sh) - 1)] == sh)
    # reduceat quirks: an index == len(hit) raises and an empty segment
    # returns the next segment's head — clip, then zero empty segments
    seg = np.minimum(sho[:-1], len(hit) - 1)
    per_doc = np.add.reduceat(hit, seg)
    per_doc = np.where(np.diff(sho) > 0, per_doc, 0)
    keep = per_doc > 0
    ids = batch["doc_id"]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    return pa.table(
        {
            "doc_id": ids.filter(pa.array(keep)),
            "n_overlap": pa.array(per_doc[keep].astype(np.int64)),
        }
    )


def verify_minhash_pairs_batch(batch: pa.Table, threshold: float) -> pa.Table:
    """(doc_a, doc_b, sig_a, sig_b binary) → pairs with signature-
    estimated Jaccard ≥ threshold.  Fully vectorized: fixed-width
    signatures decode to one (n, perms) matrix per side."""
    a = batch["doc_a"].to_numpy(zero_copy_only=False)
    b = batch["doc_b"].to_numpy(zero_copy_only=False)
    if len(a) == 0:
        return pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "est_jaccard": pa.array([], pa.float64()),
            }
        )
    fa, oa = _u64_rows_from_binary(batch["sig_a"])
    fb, _ = _u64_rows_from_binary(batch["sig_b"])
    p = int(oa[1] - oa[0])
    est = (fa.reshape(-1, p) == fb.reshape(-1, p)).mean(axis=1)
    keep = est >= threshold
    return pa.table(
        {
            "doc_a": pa.array(a[keep]),
            "doc_b": pa.array(b[keep]),
            "est_jaccard": pa.array(np.round(est[keep], 6)),
        }
    )


def verify_simhash_pairs_batch(batch: pa.Table, max_hamming: int) -> pa.Table:
    """(doc_a, doc_b, sig_a, sig_b int64) → pairs within Hamming
    distance ``max_hamming``."""
    a = batch["doc_a"].to_numpy(zero_copy_only=False)
    b = batch["doc_b"].to_numpy(zero_copy_only=False)
    sa = batch["sig_a"].to_numpy(zero_copy_only=False).view(np.uint64)
    sb = batch["sig_b"].to_numpy(zero_copy_only=False).view(np.uint64)
    ham = hamming_distance_u64(sa, sb)
    keep = ham <= max_hamming
    return pa.table(
        {
            "doc_a": pa.array(a[keep]),
            "doc_b": pa.array(b[keep]),
            "hamming": pa.array(ham[keep].astype(np.int64)),
        }
    )


def verify_jaccard_pairs_batch(batch: pa.Table, threshold: float) -> pa.Table:
    """(doc_a, doc_b, sh_a, sh_b binary) → EXACT shingle-set Jaccard.
    Per-PAIR loop over the (small) candidate batch; the set math per
    pair is vectorized numpy."""
    a = batch["doc_a"].to_numpy(zero_copy_only=False)
    b = batch["doc_b"].to_numpy(zero_copy_only=False)
    out_a, out_b, out_j = [], [], []
    if len(a):
        fa, oa = _u64_rows_from_binary(batch["sh_a"])
        fb, ob = _u64_rows_from_binary(batch["sh_b"])
        for i in range(len(a)):
            sx = fa[oa[i] : oa[i + 1]]
            sy = fb[ob[i] : ob[i + 1]]
            inter = len(np.intersect1d(sx, sy, assume_unique=True))
            union = len(sx) + len(sy) - inter
            j = inter / union if union else 1.0
            if j >= threshold:
                out_a.append(int(a[i]))
                out_b.append(int(b[i]))
                out_j.append(round(j, 6))
    return pa.table(
        {
            "doc_a": pa.array(out_a, pa.int64()),
            "doc_b": pa.array(out_b, pa.int64()),
            "jaccard": pa.array(out_j, pa.float64()),
        }
    )
