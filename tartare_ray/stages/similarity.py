"""Similarity search over an embedding column (list<float>):
brute-force cosine top-k (exact baseline) and a random-hyperplane
LSH-bucketed variant (the scale path), plus embedding-cosine
near-duplicate pairs.

No reference analogue (tartare has no vector ops `[UNVERIFIED — empty
checkout, SURVEY.md §0]`); these are the training-data-pipeline
operators the build brief requires as first-class components.

Pattern: the query matrix / comparison matrix is broadcast ONCE via
``ray.put`` and resolved per actor in ``__init__`` (never re-shipped
per batch); each ``__call__`` is one numpy matmul over a zero-copy
batch.  At 100 TB the broadcast side must stay small (queries,
centroids, or one bucket) — all-pairs near-dup switches from
"broadcast the full matrix" to LSH bucketing + within-bucket matmul,
which is exactly ``HyperplaneBucketStage`` + a groupby.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray


def embedding_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    """(n, d) float64 matrix from a list<float> column, zero-ish-copy:
    flat values reshaped (fixed dim assumed, asserted)."""
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    offsets = arr.offsets.to_numpy(zero_copy_only=False)
    d = int(offsets[1] - offsets[0]) if n else 0
    lo, hi = int(offsets[0]), int(offsets[-1])
    m = flat[lo:hi].reshape(n, d)
    return m


def l2_normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, 1e-12)


class BruteForceTopKStage:
    """Per-batch partial top-k: emits (q_id, vec_id, cos) candidate
    rows — ≤ k per query per batch — for a final per-query reduce
    (``groupby(q_id).map_groups(topk_group)``: a natural-key fold over
    the few queries, one call each — not a hash-part fold, so it stays
    off ``fold_by_part``).  Exact, streaming, and the per-query
    candidate volume is k × n_batches regardless of N."""

    def __init__(self, queries_ref, k: int):
        self.q_ids, q = ray.get(queries_ref)  # (m,), (m, d) L2-normalized
        self.q = q
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = l2_normalize(embedding_matrix(batch))
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        sims = self.q @ x.T  # (m, n)
        # exclude self-matches (query set ⊆ corpus)
        sims[self.q_ids[:, None] == vec_ids[None, :]] = -np.inf
        k = min(self.k, sims.shape[1])
        part = np.argpartition(-sims, kth=k - 1, axis=1)[:, :k]
        m = len(self.q_ids)
        rows_q = np.repeat(self.q_ids, k)
        rows_v = vec_ids[part.reshape(-1)]
        rows_c = sims[np.repeat(np.arange(m), k), part.reshape(-1)]
        keep = np.isfinite(rows_c)
        return pa.table(
            {
                "q_id": pa.array(rows_q[keep]),
                "vec_id": pa.array(rows_v[keep]),
                "cos": pa.array(rows_c[keep]),
            }
        )


def topk_group(group: pa.Table, k: int) -> pa.Table:
    """Final reduce for one query: keep top-k by (cos desc, vec_id asc)
    with a deterministic rank column."""
    t = group.sort_by([("cos", "descending"), ("vec_id", "ascending")]).slice(0, k)
    return t.append_column("rank", pa.array(np.arange(1, len(t) + 1, dtype=np.int64)))


class CosinePairsStage:
    """All-pairs near-dup (cos ≥ threshold): each batch matmuls against
    the broadcast full corpus; (a < b) dedupes pair direction.  Exact;
    O(N·batch) per batch — the brute-force baseline.  Scale path:
    ``HyperplaneBucketStage`` below."""

    def __init__(self, corpus_ref, threshold: float):
        self.ids, self.m = ray.get(corpus_ref)  # (N,), (N, d) normalized
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = l2_normalize(embedding_matrix(batch))
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        sims = x @ self.m.T  # (b, N)
        mask = (sims >= self.threshold) & (vec_ids[:, None] < self.ids[None, :])
        bi, ci = np.nonzero(mask)
        return pa.table(
            {
                "id_a": pa.array(vec_ids[bi]),
                "id_b": pa.array(self.ids[ci]),
                "cos": pa.array(np.round(sims[bi, ci], 6)),
            }
        )


class HyperplaneBucketStage:
    """Random-hyperplane LSH bucketing: sign-bit sketch of each
    embedding → ``n_tables`` bucket keys per vector.  Vectors are then
    co-grouped by (table, bucket) and compared within buckets only —
    the all-to-all matmul becomes a bucket-local one.  Approximate:
    recall is tested against the brute-force baseline.

    The NORMALIZED embedding rides through the bucket shuffle as a
    payload column (``emb``), duplicated ``n_tables``× — the standard
    LSH space/shuffle trade — so the verify stage touches only its own
    group's rows and no stage ever materializes the whole corpus
    (round-2 verdict fix: the old design broadcast the full matrix to
    every verify actor)."""

    def __init__(self, dim: int, bits: int = 12, n_tables: int = 4, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((n_tables, bits, dim))
        self.n_tables = n_tables

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = l2_normalize(embedding_matrix(batch))
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        n, d = x.shape if len(vec_ids) else (0, self.planes.shape[2])
        keys = np.empty((self.n_tables, n), dtype=np.int64)
        weights = np.int64(1) << np.arange(self.planes.shape[1], dtype=np.int64)
        for t in range(self.n_tables):
            bits = (x @ self.planes[t].T) > 0  # (n, bits)
            keys[t] = bits @ weights
        # one emb row per (table, vec): tiled flat buffer + fixed-size list
        tiled = np.tile(x.reshape(-1), self.n_tables)
        emb = pa.FixedSizeListArray.from_arrays(pa.array(tiled, pa.float64()), d)
        return pa.table(
            {
                "table": pa.array(np.repeat(np.arange(self.n_tables, dtype=np.int32), n)),
                "bucket": pa.array(keys.reshape(-1)),
                "vec_id": pa.array(np.tile(vec_ids, self.n_tables)),
                "emb": emb,
            }
        )


def bucket_pairs_verify(group: pa.Table, threshold: float, max_bucket: int = 1024) -> pa.Table:
    """(table, bucket) group → exact-cosine pairs within the bucket.
    GROUP-LOCAL: the embeddings arrive with the group (carried through
    the bucket shuffle by ``HyperplaneBucketStage``), so memory per
    call is O(bucket), never O(corpus) — the 100 TB shape.  STATELESS
    since the corpus broadcast was removed, so it runs as plain tasks
    (no actor-pool spin-up on the query's critical path)."""
    empty = pa.table(
        {
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "cos": pa.array([], pa.float64()),
        }
    )
    n = len(group)
    if n < 2 or n > max_bucket:
        return empty
    ids = group["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    emb = group["emb"]
    if isinstance(emb, pa.ChunkedArray):
        emb = emb.combine_chunks()
    d = emb.type.list_size
    sub = emb.values.to_numpy(zero_copy_only=False).reshape(n, d)
    # deterministic output order regardless of shuffle arrival order
    order = np.argsort(ids, kind="stable")
    ids, sub = ids[order], sub[order]
    sims = sub @ sub.T
    ia, ib = np.triu_indices(n, k=1)
    keep = sims[ia, ib] >= threshold
    return pa.table(
        {
            "id_a": pa.array(ids[ia[keep]]),
            "id_b": pa.array(ids[ib[keep]]),
            "cos": pa.array(np.round(sims[ia[keep], ib[keep]], 6)),
        }
    )


# -- IVF (inverted-file) ANN — the coarse-quantizer scale path ------------

def spherical_kmeans(train: np.ndarray, k: int, iters: int = 10, seed: int = 42) -> np.ndarray:
    """Driver-side Lloyd iterations on a SAMPLE (train is already
    l2-normalized; assignment by max dot = min cosine distance).
    Deterministic; k × dim floats broadcast to every task."""
    rng = np.random.default_rng(seed)
    c = train[rng.choice(len(train), size=min(k, len(train)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(train @ c.T, axis=1)
        for j in range(len(c)):
            sel = train[assign == j]
            if len(sel):
                c[j] = sel.sum(axis=0)
        c = l2_normalize(c)
    return c


def _probe_cells(ids, m, assign, q_ids, q, probe_map, k) -> pa.Table:
    """Partial top-k of each probing query against its probed cells'
    vectors in this batch."""
    out_q, out_v, out_c = [], [], []
    for cl in np.unique(assign):
        q_rows = probe_map.get(int(cl))
        if q_rows is None or not len(q_rows):
            continue
        sel = assign == cl
        sims = q[q_rows] @ m[sel].T  # (nq, ncl)
        vids = ids[sel]
        for qi, row in zip(q_rows, sims):
            nk = min(k + 1, len(row))
            top = np.argpartition(-row, nk - 1)[:nk]
            for t in top:
                if vids[t] != q_ids[qi]:
                    out_q.append(q_ids[qi])
                    out_v.append(vids[t])
                    out_c.append(row[t])
    return pa.table(
        {
            "q_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "cos": pa.array(out_c, pa.float64()),
        }
    )


# -- stored-assignment IVF index (SURVEY.md §8.3) --------------------------
#
# Build once: one corpus pass assigns every vector to its nearest
# centroid and writes the rows CLUSTER-PARTITIONED —
# ``index_dir/cell=N/part-<hash>.parquet`` with ``cell`` kept as a
# column — plus ``centroids.npy``.  A probe is then a PRUNED READ: only
# the nprobe probed cells' directories are listed and scanned
# (~nprobe/k of the corpus bytes), instead of rescanning and
# re-assigning the full corpus per query run.  At larger scale the
# build would add a ``repartition(keys=["cell"])`` before the write to
# get one file run per cell; file-per-(batch,cell) is already a
# correct pruned layout and keeps the build a single streaming pass.


class IVFIndexWriter:
    """Assign + write stage for ``build_ivf_index`` (runs as tasks).
    Content-hash file names: a retried task rewrites the same file
    with the same bytes (exactly-once)."""

    def __init__(self, index_dir: str, centroids_ref):
        self.index_dir = index_dir
        self.centroids = ray.get(centroids_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib
        import os

        import pyarrow.parquet as pq

        from ..state.storage import publish

        if len(batch) == 0:
            return pa.table({"cell": pa.array([], pa.int32()), "rows": pa.array([], pa.int64())})
        m = l2_normalize(embedding_matrix(batch))
        cells = np.argmax(m @ self.centroids.T, axis=1).astype(np.int32)
        batch = batch.append_column("cell", pa.array(cells))
        order = np.argsort(cells, kind="stable")
        batch = batch.take(pa.array(order))
        cs = cells[order]
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        bounds = np.flatnonzero(np.diff(cs)) + 1
        starts = np.concatenate([[0], bounds])
        stops = np.concatenate([bounds, [len(cs)]])
        out_c, out_n = [], []
        for s, e in zip(starts, stops):
            c = int(cs[s])
            d = os.path.join(self.index_dir, f"cell={c}")
            os.makedirs(d, exist_ok=True)
            sid = hashlib.blake2b(ids[s:e].tobytes(), digest_size=8).hexdigest()
            path = os.path.join(d, f"part-{sid}.parquet")
            with publish(path) as tmp:
                pq.write_table(batch.slice(s, e - s), tmp, compression="zstd")
            out_c.append(c)
            out_n.append(e - s)
        return pa.table({"cell": pa.array(out_c, pa.int32()), "rows": pa.array(out_n, pa.int64())})


def build_ivf_index(ds, index_dir: str, centroids: np.ndarray, concurrency=None) -> dict:
    """One streaming corpus pass → cluster-partitioned assignment table
    + ``centroids.npy``.  Returns {cell: rows} written."""
    import os

    import shutil

    # a fresh build owns the dir: leftovers of an interrupted build
    # would otherwise double-count rows next to the new cell files
    shutil.rmtree(index_dir, ignore_errors=True)
    os.makedirs(index_dir, exist_ok=True)
    cref = ray.put(centroids)
    if not concurrency:  # callable-class stages require a pool size
        concurrency = max(2, int(ray.cluster_resources().get("CPU", 4)) // 2)
    kw = dict(batch_format="pyarrow", zero_copy_batch=True, concurrency=concurrency)
    lineage = ds.map_batches(
        IVFIndexWriter, fn_constructor_kwargs=dict(index_dir=index_dir, centroids_ref=cref), **kw
    ).take_all()  # O(batches × cells-touched) rows — small
    out: dict[int, int] = {}
    for r in lineage:
        out[int(r["cell"])] = out.get(int(r["cell"]), 0) + int(r["rows"])
    # completeness marker LAST: probes treat the index as built only
    # once centroids.npy exists, so a build killed mid-pass (cell dirs
    # partially written) is rebuilt, never silently probed
    np.save(os.path.join(index_dir, "centroids.npy"), centroids)
    return out


def ivf_pruned_paths(index_dir: str, cells: np.ndarray) -> list[str]:
    """The probed cells' files — the ONLY paths a probe reads
    (expanded to files: Ray's read_parquet wants files when given a
    path LIST)."""
    import os

    out = []
    for c in sorted({int(c) for c in cells}):
        d = os.path.join(index_dir, f"cell={c}")
        if os.path.isdir(d):
            out.extend(
                os.path.join(d, n) for n in sorted(os.listdir(d)) if n.endswith(".parquet")
            )
    return out


class IVFStoredProbeStage:
    """Probe over the stored-assignment table: ``cell`` comes from the
    column the build wrote — no centroid matmul, no full-corpus scan
    (the read is already pruned to probed cells)."""

    def __init__(self, queries_ref, probe_map, k: int):
        self.q_ids, self.q = ray.get(queries_ref)
        self.probe_map = probe_map
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = l2_normalize(embedding_matrix(batch))
        assign = batch["cell"].to_numpy(zero_copy_only=False)
        return _probe_cells(ids, m, assign, self.q_ids, self.q, self.probe_map, self.k)


# -- text → embedding "model inference" stage -----------------------------

# -- Product quantization (PQ) — compressed-domain ANN --------------------
#
# At 100 TB of embeddings the vectors themselves are the cost: a
# 64-dim float32 vector is 256 B; its PQ code (m=8 subspaces × 1 byte)
# is 8 B — a 32× storage/scan compression.  Queries score codes via
# ADC (asymmetric distance computation): per query, one (m, k_codes)
# lookup table of subspace dot products, then a score is m table
# lookups — no float vector is ever touched at query time.

def train_pq(
    train: np.ndarray, m: int = 8, k_codes: int = 64, iters: int = 10, seed: int = 42
) -> np.ndarray:
    """(m, k_codes, d/m) PQ codebooks via per-subspace Lloyd kmeans on
    a driver-side SAMPLE (the same sampling contract as
    ``spherical_kmeans``).  ``d % m == 0`` required.  k_codes=256 is
    the standard byte-code setting at real scale; the default 64 keeps
    centroids meaningful at test-corpus sizes."""
    n, d = train.shape
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    rng = np.random.default_rng(seed)
    k = min(k_codes, n)
    books = np.empty((m, k, dsub), dtype=np.float64)
    for s in range(m):
        sub = train[:, s * dsub : (s + 1) * dsub]
        c = sub[rng.choice(n, size=k, replace=False)].copy()
        for _ in range(iters):
            # min euclidean distance == max (x·c - |c|²/2), vectorized
            scores = sub @ c.T - 0.5 * (c * c).sum(axis=1)
            assign = np.argmax(scores, axis=1)
            for j in range(k):
                sel = sub[assign == j]
                if len(sel):
                    c[j] = sel.mean(axis=0)
        books[s] = c
    return books


def pq_encode(matrix: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, m) uint8 codes: per subspace, index of the nearest codeword."""
    n, d = matrix.shape
    m, k, dsub = books.shape
    codes = np.empty((n, m), dtype=np.uint8)
    for s in range(m):
        sub = matrix[:, s * dsub : (s + 1) * dsub]
        c = books[s]
        scores = sub @ c.T - 0.5 * (c * c).sum(axis=1)
        codes[:, s] = np.argmax(scores, axis=1).astype(np.uint8)
    return codes


def pq_adc_tables(q: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n_queries, m, k) dot-product lookup tables: approximate
    cos(q, x) ≈ Σ_s table[q, s, code[x, s]] for l2-normalized inputs."""
    m, k, dsub = books.shape
    nq = len(q)
    t = np.empty((nq, m, k), dtype=np.float64)
    for s in range(m):
        t[:, s, :] = q[:, s * dsub : (s + 1) * dsub] @ books[s].T
    return t


class PQTopKStage:
    """Corpus pass for PQ top-k with exact re-rank: encode each batch
    to byte codes, ADC-score every query (O(n·m) table lookups — no
    d-dim matmul over the batch), take a per-query SHORTLIST of
    ``rerank``×k candidates, and score only those exactly (O(R·d)
    flops) — the standard compressed-scan + refine shape; the exact
    shortlist scores make the final reduce's ranking exact within the
    union of shortlists.  Codebooks + query tables load once per
    actor; emits partial top-k rows."""

    def __init__(self, books_ref, queries_ref, k: int, rerank: int = 4):
        self.books = ray.get(books_ref)
        self.q_ids, self.q = ray.get(queries_ref)
        self.tables = pq_adc_tables(self.q, self.books)
        self.k = k
        self.shortlist = max(k, rerank * k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = l2_normalize(embedding_matrix(batch))
        codes = pq_encode(m, self.books)
        n = len(ids)
        r = min(self.shortlist, n)
        out_q, out_v, out_c = [], [], []
        cols = np.arange(self.books.shape[0])
        for qi in range(len(self.q_ids)):
            adc = self.tables[qi][cols, codes].sum(axis=1)
            cand = np.argpartition(-adc, r - 1)[:r]
            exact = m[cand] @ self.q[qi]
            top = cand[np.argpartition(-exact, min(self.k, r) - 1)[: self.k]]
            out_q.append(np.full(len(top), self.q_ids[qi], dtype=np.int64))
            out_v.append(ids[top])
            out_c.append(m[top] @ self.q[qi])
        return pa.table(
            {
                "q_id": pa.array(np.concatenate(out_q)),
                "vec_id": pa.array(np.concatenate(out_v)),
                "cos": pa.array(np.concatenate(out_c)),
            }
        )


class TextEmbedStage:
    """Batched model inference shape: a deterministic hashed-ngram +
    random-projection text encoder.  The "model" (a seeded projection
    matrix) is built ONCE per actor in ``__init__`` — the canonical
    place for a real checkpoint load — and ``__call__`` is one matmul
    per batch.  Deterministic across processes (fixed seed + fixed
    hash), so outputs are reproducible and testable."""

    def __init__(self, dim: int = 64, vocab_hash: int = 4096, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.proj = rng.standard_normal((vocab_hash, dim)).astype(np.float64)
        self.vocab_hash = vocab_hash
        self.dim = dim

    def _bow(self, texts) -> np.ndarray:
        """Hashed bag-of-words counts, vectorized over the flat char
        buffer via token hashing (pandas hash of the split words)."""
        import pandas as pd

        out = np.zeros((len(texts), self.vocab_hash), dtype=np.float64)
        for i, t in enumerate(texts):
            words = t.split()
            if not words:
                continue
            h = pd.util.hash_array(
                np.asarray(words, dtype=object),
                hash_key="tartare_ray.emb0",
                categorize=False,
            )
            idx, cnt = np.unique((h % np.uint64(self.vocab_hash)).astype(np.int64),
                                 return_counts=True)
            out[i, idx] = cnt
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        emb = self._bow(texts) @ self.proj
        emb = l2_normalize(emb + 1e-12)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "embedding": pa.array(emb.tolist(), pa.list_(pa.float64())),
            }
        )


# --- distributed Lloyd k-means ----------------------------------------------


def assign_clusters(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared-L2 argmin assignment, float64, ties to the lowest
    cluster id (numpy argmin semantics == the SQL oracle's
    ``ORDER BY dist ASC, cid ASC`` row_number pick).  Distances via the
    explicit diff-square-sum so both engines fold the same dim-order
    float64 stream (matches DuckDB ``list_distance`` on DOUBLE[] up to
    summation-order ulps — sub-rounding for non-degenerate data)."""
    d = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
    return d.argmin(axis=1).astype(np.int64)


class KMeansAssignStage:
    """Nearest-centroid labeling against a broadcast centroid matrix —
    the 'apply a small model per batch' stage: centroids fetched ONCE
    per actor in ``__init__``, each ``__call__`` one vectorized
    distance computation.  k × dim floats is the only shared state; at
    100 TB nothing else moves besides the (vec_id, cluster) labels."""

    def __init__(self, centroids_ref):
        self.c = ray.get(centroids_ref).astype(np.float64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = embedding_matrix(batch)
        a = assign_clusters(x, self.c)
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "cluster": pa.array(a, pa.int64()),
            }
        )


def kmeans_lloyd(
    ds_factory,
    centroids: np.ndarray,
    iters: int = 2,
    quantize: int = 6,
) -> np.ndarray:
    """Distributed Lloyd iterations: each pass is ONE ``map_batches``
    emitting per-batch per-cluster partial sums/counts (≤ k rows per
    block — the combiner shape; no shuffle, no corpus materialization),
    folded on the driver into new means.  Centroids are re-broadcast
    per iteration (k × dim floats).  Means are quantized to ``quantize``
    decimals so the next iteration's argmin sees IDENTICAL inputs on
    both engines (the SQL oracle rounds the same way) — the float64
    fold itself differs only in summation order, absorbed by rounding.
    Empty clusters keep their previous centroid (mirrored in the SQL
    oracle via a left join back to the seed)."""
    c = centroids.astype(np.float64)
    k, dim = c.shape
    for _ in range(iters):
        c_ref = ray.put(c)

        def partial(batch: pa.Table) -> pa.Table:
            cc = ray.get(c_ref)
            x = embedding_matrix(batch)
            a = assign_clusters(x, cc)
            ids = np.unique(a)
            sums = np.zeros((len(ids), x.shape[1]), dtype=np.float64)
            cnts = np.zeros(len(ids), dtype=np.int64)
            for j, cid in enumerate(ids):  # ≤ k iterations, not per row
                sel = a == cid
                sums[j] = x[sel].sum(axis=0)
                cnts[j] = int(sel.sum())
            return pa.table(
                {
                    "cluster": pa.array(ids, pa.int64()),
                    "n": pa.array(cnts, pa.int64()),
                    "vec_sum": pa.array(sums.tolist(), pa.list_(pa.float64())),
                }
            )

        parts = ds_factory().map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True
        ).take_all()  # O(k × n_blocks) combiner rows — never the corpus
        sums = np.zeros((k, dim), dtype=np.float64)
        cnts = np.zeros(k, dtype=np.int64)
        for r in parts:
            sums[int(r["cluster"])] += np.asarray(r["vec_sum"], dtype=np.float64)
            cnts[int(r["cluster"])] += int(r["n"])
        nonempty = cnts > 0
        c = c.copy()
        c[nonempty] = sums[nonempty] / cnts[nonempty, None]
        c = np.round(c, quantize)
    return c


# -- SemDeDup-shaped clustered embedding near-dup (the scale path) --------

class SemDedupAssignStage:
    """SemDeDup bucketing (cluster-then-verify, after Abbas et al.'s
    SemDeDup shape, public arXiv:2303.09540): each vector is emitted
    into its ``nprobe`` nearest coarse clusters — probing beyond the
    1st centroid handles pairs straddling a cluster boundary —
    carrying its l2-normalized embedding so the within-cluster exact
    verify runs GROUP-LOCAL (memory O(cluster), never O(corpus)).
    Centroids fetched once per actor in ``__init__``; the shuffle
    moves each embedding ≤ max_probe times (vs n_tables× for LSH).

    ``eps`` adds ADAPTIVE boundary probing: beyond the always-probed
    top-``nprobe``, clusters whose similarity is within ``eps`` of the
    row's best are probed too (capped at ``max_probe``).  Guarantee:
    for unit vectors, |sim_a(c) − sim_b(c)| ≤ ‖a−b‖ for every
    centroid c, so a pair with ‖a−b‖ ≤ eps/2 (cosine ≥ 1 − eps²/8;
    0.99875 at the default eps=0.1) always shares at least one probed
    cluster — near-identical pairs co-locate DETERMINISTICALLY, not
    w.h.p., unless the cap truncates an unusually crowded window."""

    def __init__(
        self,
        centroids_ref,
        nprobe: int = 2,
        eps: float = 0.1,
        max_probe: int = 8,
    ):
        self.c = ray.get(centroids_ref)  # spherical (unit-norm) centroids
        self.nprobe = nprobe
        self.eps = eps
        self.max_probe = max(max_probe, nprobe)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = l2_normalize(embedding_matrix(batch))
        n, d = m.shape
        k = self.c.shape[0]
        cap = min(self.max_probe, k)
        p = min(self.nprobe, k)
        sims = m @ self.c.T
        # top-cap candidates per row (order within the cap by sim desc)
        cand = np.argpartition(-sims, cap - 1, axis=1)[:, :cap]
        rows = np.arange(n)[:, None]
        cs = sims[rows, cand]
        order = np.argsort(-cs, axis=1, kind="stable")
        cand = cand[rows, order]
        cs = cs[rows, order]
        # emit: always the top-p, plus ranks p..cap within eps of best
        keep = np.ones((n, cap), bool)
        if cap > p:
            keep[:, p:] = cs[:, p:] >= (cs[:, :1] - self.eps)
        counts = keep.sum(axis=1)
        flat_cl = cand[keep]
        tiled = np.repeat(m, counts, axis=0)
        emb = pa.FixedSizeListArray.from_arrays(
            pa.array(tiled.reshape(-1), pa.float64()), d
        )
        return pa.table(
            {
                "cluster": pa.array(flat_cl.astype(np.int64)),
                "vec_id": pa.array(np.repeat(ids, counts)),
                "emb": emb,
            }
        )


def cluster_pairs_verify(
    group: pa.Table, threshold: float, chunk: int = 2048
) -> pa.Table:
    """Cluster group → exact-cosine pairs within the cluster, BLOCKED
    matmul: sims computed ``chunk`` rows at a time against the
    cluster's own matrix, so memory is O(chunk × cluster) no matter
    how fat the cluster — unlike ``bucket_pairs_verify``'s drop cap,
    a skewed cluster costs wall-time, not recall."""
    empty = pa.table(
        {
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "cos": pa.array([], pa.float64()),
        }
    )
    n = len(group)
    if n < 2:
        return empty
    ids = group["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    emb = group["emb"]
    if isinstance(emb, pa.ChunkedArray):
        emb = emb.combine_chunks()
    d = emb.type.list_size
    sub = emb.values.to_numpy(zero_copy_only=False).reshape(n, d)
    order = np.argsort(ids, kind="stable")
    ids, sub = ids[order], sub[order]
    # nprobe emission can land the same vector in this cluster once
    # per probe only when clusters collide — ids are unique per
    # cluster by construction (top-p of one row is distinct)
    out_a, out_b, out_c = [], [], []
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        sims = sub[s:e] @ sub.T
        ra, cb = np.nonzero(sims >= threshold)
        ga = ra + s
        keep = cb > ga  # strict upper triangle in global index space
        if keep.any():
            out_a.append(ids[ga[keep]])
            out_b.append(ids[cb[keep]])
            out_c.append(np.round(sims[ra[keep], cb[keep]], 6))
    if not out_a:
        return empty
    return pa.table(
        {
            "id_a": pa.array(np.concatenate(out_a)),
            "id_b": pa.array(np.concatenate(out_b)),
            "cos": pa.array(np.concatenate(out_c)),
        }
    )


def part_pairs_verify(part: pa.Table, keys: list[str], verify) -> pa.Table:
    """One ``fold_by_part`` part → ``verify(group)`` for each of its
    groups (runs of equal ``keys``: a cluster, or an LSH (table,
    bucket)) — one sort per part, so a query makes O(parts) Ray groups
    instead of one per cluster or bucket (~n/512 of them)."""
    t = part.sort_by([(k, "ascending") for k in keys])
    new = np.zeros(len(t), bool)
    new[:1] = True
    for k in keys:
        a = t[k].combine_chunks().to_numpy()
        new[1:] |= a[1:] != a[:-1]
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(t)))
    out = [verify(t.slice(s, c)) for s, c in zip(starts, counts) if c >= 2]
    return pa.concat_tables(out) if out else verify(t.slice(0, 0))
