"""Deterministic synthetic change-event generator (build-plan M0).

Writes an append-only Parquet change log ``log/events-{fileno:06d}.parquet``
matching FIXTURES.md §2: strictly-increasing ``lsn`` across the whole
log (file order == LSN order), zipf-hot ``doc_id``s, an I/U/D op mix,
and a schema-evolution schedule (``tokens`` int32→int64 widening, a
``quality: float64`` column added) applied at file granularity.

Everything is vectorized numpy + Arrow array construction — the
generator is also used at bench scale (10^6–10^8 events), so no
per-row Python. Per-file RNG streams (``seed + fileno``) make each
file independently reproducible.

Reference analogue: tartare's fixture GTFS zips under ``tests/fixtures``
`[UNVERIFIED — empty checkout, SURVEY.md §0]`; same pattern (small
deterministic golden inputs), different data model.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .state.storage import publish

VOCAB = 50257  # GPT-2-ish vocab size per FIXTURES.md
OPS = np.array(["I", "U", "D"])


@dataclass(frozen=True)
class GenConfig:
    n_events: int
    n_docs: int
    seed: int = 42
    zipf_s: float = 1.1
    op_mix: tuple[float, float, float] = (0.2, 0.7, 0.1)  # I : U : D
    events_per_file: int = 100_000
    max_len: int = 64  # token sequence length drawn from [1, max_len]
    n_sources: int = 10
    # Schema-evolution schedule: fraction of the log (by file index) at
    # which the change applies; None disables.
    widen_frac: float | None = None  # tokens int32 -> int64 (values > 2^31)
    add_col_frac: float | None = None  # + quality: float64

    @property
    def n_files(self) -> int:
        return max(1, -(-self.n_events // self.events_per_file))


@dataclass
class GenResult:
    files: list[str] = field(default_factory=list)
    n_events: int = 0
    max_lsn: int = -1


def _doc_id_pool(n_docs: int) -> np.ndarray:
    return np.array([f"doc-{i:08d}" for i in range(n_docs)], dtype=object)


def _token_list_array(
    rng: np.random.Generator,
    n: int,
    max_len: int,
    wide: bool,
    null_mask: np.ndarray,
) -> tuple[pa.ListArray, np.ndarray]:
    """Build a list<int32|int64> column of random token sequences.

    Rows where ``null_mask`` is True (deletes) become null lists.
    Returns (list_array, lengths) — lengths valid only on non-null rows.
    """
    lengths = rng.integers(1, max_len + 1, size=n)
    lengths_eff = np.where(null_mask, 0, lengths)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths_eff, out=offsets[1:])
    total = int(offsets[-1])
    if wide:
        values = rng.integers(0, VOCAB, size=total, dtype=np.int64)
        # force genuine widening: ~1% of values exceed int32 range
        big = rng.random(total) < 0.01
        values[big] += 2**32
        value_arr = pa.array(values, type=pa.int64())
        list_type = pa.list_(pa.int64())
    else:
        values = rng.integers(0, VOCAB, size=total, dtype=np.int32)
        value_arr = pa.array(values, type=pa.int32())
        list_type = pa.list_(pa.int32())
    arr = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()) if total < 2**31 else pa.array(offsets),
        value_arr,
    ).cast(list_type)
    if null_mask.any():
        # null-out delete rows (take with null indices yields nulls;
        # mask= keeps this fully vectorized — no object/tolist churn)
        arr = arr.take(pa.array(np.arange(n, dtype=np.int64), mask=null_mask))
    return arr, lengths


def generate_log(log_dir: str, cfg: GenConfig) -> GenResult:
    """Write the full change log under ``log_dir``; returns file list.

    Idempotent: an existing complete log for the same config (marker
    file) is reused — bench runs at two parallelism levels share one
    input.
    """
    if cfg.n_events <= 0:
        raise ValueError(f"n_events must be positive, got {cfg.n_events}")
    os.makedirs(log_dir, exist_ok=True)
    marker = os.path.join(log_dir, "_COMPLETE")
    expected = [
        os.path.join(log_dir, f"events-{i:06d}.parquet") for i in range(cfg.n_files)
    ]
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read().strip() == repr(cfg) and all(os.path.exists(p) for p in expected):
                return GenResult(files=expected, n_events=cfg.n_events, max_lsn=cfg.n_events - 1)
        os.remove(marker)
    # stale files from a previous (different) config would corrupt a tail
    expected_set = set(expected)
    for name in os.listdir(log_dir):
        p = os.path.join(log_dir, name)
        if name.startswith("events-") and p not in expected_set:
            os.remove(p)
    pool = _doc_id_pool(cfg.n_docs)
    src_pool = np.array([f"src{k}" for k in range(cfg.n_sources)], dtype=object)
    res = GenResult()
    for fileno in range(cfg.n_files):
        lo = fileno * cfg.events_per_file
        hi = min(cfg.n_events, lo + cfg.events_per_file)
        n = hi - lo
        frac = fileno / cfg.n_files
        wide = cfg.widen_frac is not None and frac >= cfg.widen_frac
        with_quality = cfg.add_col_frac is not None and frac >= cfg.add_col_frac
        sv = 1 + int(wide) + int(with_quality)
        rng = np.random.default_rng(cfg.seed + fileno)

        lsn = np.arange(lo, hi, dtype=np.int64)
        op_idx = rng.choice(3, size=n, p=list(cfg.op_mix))
        is_d = op_idx == 2
        doc_idx = (rng.zipf(cfg.zipf_s, size=n) - 1) % cfg.n_docs
        tokens, lengths = _token_list_array(rng, n, cfg.max_len, wide, is_d)
        n_tok = pa.array(
            np.where(is_d, 0, lengths).astype(np.int32), type=pa.int32()
        )
        if is_d.any():
            take_idx = pa.array(np.arange(n, dtype=np.int64), mask=is_d)
            n_tok = n_tok.take(take_idx)
            source = pa.array(src_pool[rng.integers(0, cfg.n_sources, n)]).take(take_idx)
        else:
            source = pa.array(src_pool[rng.integers(0, cfg.n_sources, n)])

        cols = {
            "lsn": pa.array(lsn),
            "op": pa.array(OPS[op_idx]),
            "doc_id": pa.array(pool[doc_idx]),
            "tokens": tokens,
            "n_tok": n_tok,
            "source": source,
            "schema_version": pa.array(np.full(n, sv, dtype=np.int32)),
        }
        if with_quality:
            q = rng.random(n)
            qarr = pa.array(q, type=pa.float64())
            if is_d.any():
                qarr = qarr.take(take_idx)
            cols["quality"] = qarr
        tbl = pa.table(cols)
        path = expected[fileno]
        with publish(path) as tmp:
            pq.write_table(tbl, tmp)
        res.files.append(path)
        res.n_events += n
        res.max_lsn = int(lsn[-1])
    with open(marker, "w") as f:
        f.write(repr(cfg))
    return res


# ---------------------------------------------------------------------------
# Synthetic DOCUMENTS corpus at bench scale (round-4 dedup/ANN campaign)
# ---------------------------------------------------------------------------

_DOC_WORDS = np.array(
    [f"w{i:04d}" for i in range(2000)] + ["data", "batch", "spark", "line",
     "column", "order", "sort", "value", "scan", "shuffle", "merge", "token"]
)


def generate_documents(
    out_dir: str,
    n_docs: int,
    docs_per_file: int = 250_000,
    words_per_doc: int = 40,
    seed: int = 7,
) -> list[str]:
    """Deterministic documents corpus shaped exactly like
    ``testdata/sf*/documents.parquet`` (doc_id:int64, text, lang,
    source, n_chars), written as ``documents.parquet/part-*.parquet``
    so the existing ``_read`` helper and every dedup query run on it
    unchanged — the 10^7-doc campaign input (BASELINE.md).

    PLANTED dedup structure, exactly countable for at-scale
    correctness checks:

    * ``doc_id % 10 == 9`` → EXACT copy of ``doc_id - 9``'s text
      (n_docs // 10 planted exact duplicates, cluster size 2);
    * ``doc_id % 10 == 8`` → NEAR-dup of ``doc_id - 8``: same words
      with the last one replaced (high-Jaccard planted pair);
    * everything else unique by construction (zipf word draws seeded
      per doc from a 2k-word vocab — 40 draws collide with negligible
      probability, and doc-id salting makes each base doc distinct).

    Generation is a Ray pipeline: one task per part file, vectorized
    numpy word draws, tmp+rename idempotent writes (re-running with the
    same config reuses finished parts)."""
    import ray

    d = os.path.join(out_dir, "documents.parquet")
    os.makedirs(d, exist_ok=True)
    n_files = -(-n_docs // docs_per_file)
    words = _DOC_WORDS

    @ray.remote
    def gen_part(fileno: int) -> str:
        path = os.path.join(d, f"part-{fileno:06d}.parquet")
        if os.path.exists(path):
            return path
        lo = fileno * docs_per_file
        hi = min(lo + docs_per_file, n_docs)
        n = hi - lo
        rng = np.random.default_rng(seed + fileno)
        ids = np.arange(lo, hi, dtype=np.int64)
        # zipf-ish word indexes: (n, words_per_doc) draws
        idx = rng.zipf(1.3, size=(n, words_per_doc)).astype(np.int64) % len(words)
        # salt word 0 with the doc id so base docs are unique
        salt = (ids * 2654435761 % len(words)).astype(np.int64)
        idx[:, 0] = salt
        mat = words[idx]
        texts = [" ".join(row) for row in mat]
        # planted structure: copies reference docs in the SAME file
        # (doc_id-9 / doc_id-8 share the file at docs_per_file % 10 == 0)
        for i in range(n):
            m = ids[i] % 10
            if m == 9 and i >= 9:
                texts[i] = texts[i - 9]
            elif m == 8 and i >= 8:
                texts[i] = texts[i - 8].rsplit(" ", 1)[0] + " neardup"
        t = pa.table(
            {
                "doc_id": pa.array(ids),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(np.where(ids % 3 == 0, "en", np.where(ids % 3 == 1, "zh", "fr"))),
                "source": pa.array(np.char.add("src", (ids % 20).astype(str))),
                "n_chars": pa.array(np.array([len(s) for s in texts], dtype=np.int64)),
            }
        )
        with publish(path) as tmp:
            pq.write_table(t, tmp)
        return path

    assert docs_per_file % 10 == 0, "planted copies must stay within one file"
    return ray.get([gen_part.remote(f) for f in range(n_files)])


def generate_embeddings(
    out_dir: str,
    n_vecs: int,
    dim: int = 64,
    vecs_per_file: int = 250_000,
    seed: int = 11,
) -> list[str]:
    """Deterministic embeddings corpus shaped exactly like
    ``testdata/sf*/embeddings.parquet`` (vec_id:int64,
    embedding:list<float>, label:int32), written as
    ``embeddings.parquet/part-*.parquet`` — the 10^6-vector ANN
    campaign input (BASELINE.md round 4).

    PLANTED neighbor structure, exactly countable at scale:

    * ``vec_id % 10 == 9`` → NEAR-dup of ``vec_id - 9``'s vector
      (unit vector + 0.05·noise, renormalized ⇒ cosine ≈ 0.9988),
      one planted high-cosine pair per decade of ids;
    * everything else an independent standard-normal unit vector —
      at dim ≥ 64 random cosines concentrate near 0, so the planted
      pairs are unambiguous (verified distributed by the campaign).

    Same idempotent tmp+rename one-task-per-part pattern as
    ``generate_documents``."""
    import ray

    d = os.path.join(out_dir, "embeddings.parquet")
    os.makedirs(d, exist_ok=True)
    n_files = -(-n_vecs // vecs_per_file)

    @ray.remote
    def gen_part(fileno: int) -> str:
        path = os.path.join(d, f"part-{fileno:06d}.parquet")
        if os.path.exists(path):
            return path
        lo = fileno * vecs_per_file
        hi = min(lo + vecs_per_file, n_vecs)
        n = hi - lo
        rng = np.random.default_rng(seed + fileno)
        ids = np.arange(lo, hi, dtype=np.int64)
        x = rng.standard_normal((n, dim)).astype(np.float32)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        nine = np.flatnonzero(ids % 10 == 9)
        nine = nine[nine >= 9]  # base (vec_id-9) lives in the same file
        if len(nine):
            base = x[nine - 9]
            pert = base + 0.05 * rng.standard_normal((len(nine), dim)).astype(np.float32)
            x[nine] = pert / np.linalg.norm(pert, axis=1, keepdims=True)
        t = pa.table(
            {
                "vec_id": pa.array(ids),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(x.reshape(-1), pa.float32()), dim
                ).cast(pa.list_(pa.float32())),
                "label": pa.array((ids % 16).astype(np.int32)),
            }
        )
        with publish(path) as tmp:
            pq.write_table(t, tmp)
        return path

    assert vecs_per_file % 10 == 0, "planted pairs must stay within one file"
    return ray.get([gen_part.remote(f) for f in range(n_files)])
