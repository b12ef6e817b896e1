"""Synthetic-feed snapshot diff: all four classification outcomes —
added / changed / removed, plus the insert-then-delete no-op drop —
which the flagship's three-wave feed can't produce (it has no
post-base inserts)."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
from tartare_ray.pipelines.queries import snapshot_diff


def _write(log_dir: str, fileno: int, rows: list[tuple[int, str, str, list[int]]]):
    lsn, op, doc, toks = zip(*rows)
    tbl = pa.table(
        {
            "lsn": pa.array(lsn, pa.int64()),
            "op": pa.array(op, pa.string()),
            "doc_id": pa.array(doc, pa.string()),
            "tokens": pa.array(
                [t if o != "D" else None for o, t in zip(op, toks)],
                pa.list_(pa.int32()),
            ),
            "n_tok": pa.array(
                [len(t) if o != "D" else None for o, t in zip(op, toks)],
                pa.int32(),
            ),
            "source": pa.array(["s"] * len(rows), pa.string()),
            "schema_version": pa.array([1] * len(rows), pa.int32()),
        }
    )
    pq.write_table(tbl, os.path.join(log_dir, f"events-{fileno:06d}.parquet"))


def test_snapshot_diff_all_classes(tmp_path, ray_session):
    log_dir = str(tmp_path / "log")
    os.makedirs(log_dir)
    # epoch 1 (base): insert A, B
    _write(log_dir, 0, [(1, "I", "A", [1]), (2, "I", "B", [2])])
    # epoch 2: C added, A changed, B removed, D inserted+deleted (no-op)
    _write(
        log_dir,
        1,
        [
            (10, "I", "C", [7]),
            (11, "U", "A", [1, 5]),
            (12, "D", "B", []),
            (13, "I", "D", [9]),
            (14, "D", "D", []),
        ],
    )
    eng = CdcEngine(
        log_dir,
        str(tmp_path / "table"),
        EngineConfig(num_partitions=2, epoch_max_files=1),
    )
    eng.replay()
    got = {
        r["doc_id"]: (r["change"], r["n_tok_after"])
        for r in snapshot_diff(eng, base_epoch=1).take_all()
    }
    assert got == {
        "C": ("added", 1),
        "A": ("changed", 2),
        "B": ("removed", None),
    }


def test_snapshot_diff_multi_epoch_folds_to_final_op(tmp_path, ray_session):
    """A key touched in SEVERAL epochs past the base classifies by its
    FINAL state: update then delete -> removed; insert then update ->
    added (with the last n_tok)."""
    log_dir = str(tmp_path / "log")
    os.makedirs(log_dir)
    _write(log_dir, 0, [(1, "I", "A", [1]), (2, "I", "B", [2])])
    _write(log_dir, 1, [(10, "U", "A", [1, 5]), (11, "I", "C", [7])])
    _write(log_dir, 2, [(20, "D", "A", []), (21, "U", "C", [7, 8, 9])])
    eng = CdcEngine(
        log_dir,
        str(tmp_path / "table"),
        EngineConfig(num_partitions=2, epoch_max_files=1),
    )
    eng.replay()
    got = {
        r["doc_id"]: (r["change"], r["n_tok_after"])
        for r in snapshot_diff(eng, base_epoch=1).take_all()
    }
    assert got == {"A": ("removed", None), "C": ("added", 3)}


def test_snapshot_diff_empty_range_returns_empty_schema(tmp_path, ray_session):
    """base == head is a valid call for a reusable diff surface: it
    must return an EMPTY diff with the full diff schema."""
    log_dir = str(tmp_path / "log")
    os.makedirs(log_dir)
    _write(log_dir, 0, [(1, "I", "A", [1]), (2, "I", "B", [2])])
    eng = CdcEngine(
        log_dir,
        str(tmp_path / "table"),
        EngineConfig(num_partitions=2, epoch_max_files=1),
    )
    m = eng.replay()
    t = snapshot_diff(eng, base_epoch=m.epoch)
    assert t.count() == 0
    assert t.schema().names == ["doc_id", "change", "n_tok_after"]
