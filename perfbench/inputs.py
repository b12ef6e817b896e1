"""Seeded benchmark inputs.

Everything here is a pure function of the seed: the same seed gives
byte-identical logs and tables.  All of it comes from the engine's own
generators in ``tartare_ray.gen``.  The engine receives only these files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from tartare_ray.gen import GenConfig, generate_documents, generate_embeddings, generate_log


@dataclass(frozen=True)
class BulkShape:
    """bulk_replay: one log replayed in several epochs."""

    n_events: int = 400_000
    events_per_file: int = 100_000
    files_per_epoch: int = 2
    n_lookups: int = 1000


@dataclass(frozen=True)
class TailShape:
    """tail_feed: a bulk-loaded base, then one small file per epoch."""

    base_files: int = 20
    tail_files: int = 8  # most tail epochs one run can take
    events_per_file: int = 1000


@dataclass(frozen=True)
class QueryShape:
    """query_suite: the documents and embeddings corpora of
    ``tartare_ray.gen``."""

    n_documents: int = 1000
    n_vectors: int = 500


# PERFBENCH_SCALE=tiny shrinks every input for the self-test
TINY = os.environ.get("PERFBENCH_SCALE") == "tiny"


def shapes() -> tuple[BulkShape, TailShape, QueryShape]:
    if TINY:
        return (
            BulkShape(n_events=20_000, events_per_file=5000, n_lookups=20),
            TailShape(base_files=5, tail_files=3, events_per_file=500),
            QueryShape(n_documents=200, n_vectors=200),
        )
    return BulkShape(), TailShape(), QueryShape()


def bulk_log(log_dir: str, seed: int, shape: BulkShape) -> list[str]:
    """Zipf-hot keys, ~10 events per doc_id; tokens widen int32→int64
    half-way through and ``quality`` is added at three quarters."""
    cfg = GenConfig(
        n_events=shape.n_events,
        n_docs=shape.n_events // 10,
        seed=seed,
        events_per_file=shape.events_per_file,
        widen_frac=0.5,
        add_col_frac=0.75,
    )
    return generate_log(log_dir, cfg).files


def tail_log(log_dir: str, seed: int, shape: TailShape) -> list[str]:
    """Base files first, then the small tail files; both schema changes
    fall inside the base so every tail epoch has the same shape."""
    n_files = shape.base_files + shape.tail_files
    cfg = GenConfig(
        n_events=n_files * shape.events_per_file,
        n_docs=shape.base_files * shape.events_per_file // 10,
        seed=seed,
        events_per_file=shape.events_per_file,
        widen_frac=0.3,
        add_col_frac=0.6,
    )
    return generate_log(log_dir, cfg).files


def query_tables(out_dir: str, seed: int, shape: QueryShape) -> dict[str, int]:
    """Write ``documents.parquet/`` and ``embeddings.parquet/`` with the
    engine's own corpus generators, shaped like the test tables and
    with their planted exact, near-duplicate and near-neighbour
    structure.  Returns the row count of each table."""
    generate_documents(out_dir, shape.n_documents, seed=seed)
    generate_embeddings(out_dir, shape.n_vectors, seed=seed)
    return {"documents": shape.n_documents, "embeddings": shape.n_vectors}
