"""The three incremental views over one epoch-delta pass
(pipelines/views.py::EpochDeltaView): each equals a direct recompute
from the snapshot at every epoch, on cow and delta tables, and none
ships the engine to Ray."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import tartare_ray.pipelines.cdc as cdc
from tartare_ray.gen import GenConfig, generate_log
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
from tartare_ray.pipelines.views import (
    IncrementalAggView,
    IncrementalMinMaxView,
    IncrementalQuantileView,
)
from tartare_ray.schema import CHANGE_SCHEMA
from tartare_ray.state.manifest import gc_epochs, list_committed_epochs
from tartare_ray.stages.sketch import dd_bucket, dd_value

NULL = "\x00null"  # the views' key for a null group


def _write_rows(path: str, rows: list[tuple]) -> None:
    """rows: (lsn, op, doc_id, n_tok or None, source)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    toks = [None if r[3] is None else [1] * r[3] for r in rows]
    pq.write_table(
        pa.table(
            {
                "lsn": pa.array([r[0] for r in rows], pa.int64()),
                "op": pa.array([r[1] for r in rows], pa.string()),
                "doc_id": pa.array([r[2] for r in rows], pa.string()),
                "tokens": pa.array(toks, pa.list_(pa.int32())),
                "n_tok": pa.array([r[3] for r in rows], pa.int32()),
                "source": pa.array([r[4] for r in rows], pa.string()),
                "schema_version": pa.array([1] * len(rows), pa.int32()),
            },
            schema=CHANGE_SCHEMA,
        ),
        path,
    )


# One file per epoch.  "hot" changes in every epoch (several times in
# some); d2 moves between groups; tombstones empty group c and send d1
# away and back; d4 moves into the null group and out again.
EPOCHS = [
    [(1, "I", "d1", 3, "a"), (2, "I", "d2", 5, "a"), (3, "I", "d3", 7, "b"),
     (4, "I", "d4", 2, "b"), (5, "I", "hot", 4, "a"), (6, "I", "d5", 6, None)],
    [(7, "U", "hot", 9, "a"), (8, "U", "d2", 1, "b"), (9, "D", "d1", None, None),
     (10, "U", "hot", 2, "a"), (11, "I", "d6", 8, "c")],
    [(12, "D", "d3", None, None), (13, "U", "hot", 11, "b"), (14, "U", "d2", 6, "a"),
     (15, "I", "d1", 3, "c"), (16, "D", "d6", None, None), (17, "U", "hot", 1, "b")],
    [(18, "U", "d4", 5, None), (19, "U", "hot", 7, "a"), (20, "D", "d5", None, None),
     (21, "D", "d1", None, None)],
    [(22, "U", "d4", 4, "b"), (23, "U", "hot", 3, "c"), (24, "I", "d7", 12, "a")],
]


def _direct(snap: pa.Table) -> tuple[dict, dict, dict]:
    """(agg, min, quantile buckets) per group from a snapshot."""
    agg: dict = {}
    mins: dict = {}
    buckets: dict = {}
    for g, v in zip(snap["source"].to_pylist(), snap["n_tok"].to_pylist()):
        k = NULL if g is None else g
        acc = agg.setdefault(k, [0, 0.0])
        acc[0] += 1
        acc[1] += v
        mins[k] = min(mins.get(k, v), float(v))
        b = str(int(dd_bucket(np.array([float(v)]), 0.01)[0]))
        bk = buckets.setdefault(k, {})
        bk[b] = bk.get(b, 0) + 1
    return agg, mins, buckets


@pytest.mark.parametrize("mode", ["cow", "delta"])
def test_three_views_equal_snapshot_every_epoch(ray_session, tmp_path, mode):
    log = str(tmp_path / "log")
    for i, rows in enumerate(EPOCHS):
        _write_rows(f"{log}/events-{i:06d}.parquet", rows)
    eng = CdcEngine(
        log,
        str(tmp_path / "tbl"),
        EngineConfig(num_partitions=3, epoch_max_files=1, write_mode=mode,
                     compact_chain_len=3),
    )
    agg = IncrementalAggView(eng, "agg", "source", "n_tok")
    mn = IncrementalMinMaxView(eng, "min", "source", "n_tok", buffer_n=2)
    qv = IncrementalQuantileView(eng, "q", "source", "n_tok")
    for e in range(1, len(EPOCHS) + 1):
        assert eng.run_epoch().epoch == e
        want_agg, want_min, want_q = _direct(eng.snapshot_table(epoch=e))
        assert agg.update_to() == want_agg, e
        assert {k: ent["buf"][0][0] for k, ent in mn.update_to().items()} == want_min, e
        assert qv.update_to() == want_q, e
    assert eng.run_epoch() is None
    # a fresh view resumes from the persisted files
    assert IncrementalAggView(eng, "agg", "source", "n_tok").update_to() == want_agg


def test_views_update_on_engine_with_pending_prefetch(ray_session, tmp_path, monkeypatch):
    """A late-materialization engine holds epoch E+1's envelope prefetch
    (a thread) after epoch E; every view's Ray callables must be built
    from plain values, or pickling the thread's lock fails the update."""
    monkeypatch.setattr(cdc, "LATE_MAT_MAX_RATIO", 1.01)  # force two phases
    res = generate_log(
        str(tmp_path / "log"),
        GenConfig(n_events=3000, n_docs=300, events_per_file=1000),
    )
    eng = CdcEngine(
        os.path.dirname(res.files[0]),
        str(tmp_path / "tbl"),
        EngineConfig(num_partitions=4, epoch_max_files=1, write_mode="delta",
                     late_materialization=True),
    )
    eng.run_epoch()
    eng.run_epoch()
    assert eng._prefetch is not None  # epoch 3's envelope scan is pending
    want_agg, want_min, want_q = _direct(eng.snapshot_table())
    assert IncrementalAggView(eng, "agg", "source", "n_tok").update_to() == want_agg
    got_min = IncrementalMinMaxView(eng, "min", "source", "n_tok").update_to()
    assert {k: ent["buf"][0][0] for k, ent in got_min.items()} == want_min
    assert IncrementalQuantileView(eng, "q", "source", "n_tok").update_to() == want_q


def _direct_tables(snap: pa.Table) -> tuple[pa.Table, pa.Table, pa.Table]:
    """The three views' ``as_table()`` recomputed from a snapshot: the
    quantile of a group is the DDSketch value of the bucket holding its
    rank-th smallest value."""
    vals: dict = {}
    for g, v in zip(snap["source"].to_pylist(), snap["n_tok"].to_pylist()):
        vals.setdefault(NULL if g is None else g, []).append(float(v))
    ks = sorted(vals)

    def quantile(vs: list, q: float) -> float:
        x = sorted(vs)[max(1, int(np.ceil(q * len(vs)))) - 1]
        return float(dd_value(dd_bucket(np.array([x]), 0.01), 0.01)[0])

    agg = pa.table(
        {
            "source": pa.array(ks, pa.string()),
            "n_docs": pa.array([len(vals[k]) for k in ks], pa.int64()),
            "sum_n_tok": pa.array([sum(vals[k]) for k in ks], pa.float64()),
        }
    )
    mins = pa.table(
        {
            "source": pa.array(ks, pa.string()),
            "min_n_tok": pa.array([min(vals[k]) for k in ks], pa.float64()),
        }
    )
    qs = {f"q{int(q * 100)}": [quantile(vals[k], q) for k in ks] for q in (0.5, 0.9, 0.99)}
    quant = pa.table({"source": pa.array(ks, pa.string()), **qs})
    return agg, mins, quant


@pytest.mark.parametrize("mode", ["cow", "delta"])
def test_views_first_built_on_aged_table(ray_session, tmp_path, mode):
    """Views first built after ``gc_epochs`` start from the snapshot at
    the oldest retained epoch, then follow the feed after it."""
    log = str(tmp_path / "log")
    for i, rows in enumerate(EPOCHS):
        _write_rows(f"{log}/events-{i:06d}.parquet", rows)
    eng = CdcEngine(
        log,
        str(tmp_path / "tbl"),
        EngineConfig(num_partitions=3, epoch_max_files=1, write_mode=mode),
    )
    for _ in range(3):
        eng.run_epoch()
    gc_epochs(eng.table_root, keep_last=1)
    assert list_committed_epochs(eng.table_root) == [3]
    views = [
        IncrementalAggView(eng, "agg", "source", "n_tok"),
        IncrementalMinMaxView(eng, "min", "source", "n_tok", buffer_n=2),
        IncrementalQuantileView(eng, "q", "source", "n_tok"),
    ]
    for head in (3, 4):
        if head == 4:
            assert eng.run_epoch().epoch == 4
        want = _direct_tables(eng.snapshot_table())
        for v, w in zip(views, want):
            got = v.as_table()
            assert got.equals(w), (head, v.name, got.to_pylist(), w.to_pylist())
        assert eng.consumers() == {"view.agg": head, "view.min": head, "view.q": head}
