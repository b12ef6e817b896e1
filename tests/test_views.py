"""Incremental aggregate view == direct aggregate over the snapshot,
at every epoch, under inserts/updates/deletes and schema evolution."""

from __future__ import annotations

import os

import pyarrow as pa
import pytest

from tartare_ray.gen import GenConfig, generate_log
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
from tartare_ray.pipelines.views import IncrementalAggView


def direct_agg(snap: pa.Table, group_col: str, sum_col: str) -> dict:
    g = snap.group_by(group_col).aggregate([([sum_col], "sum"), ([group_col], "count")])
    # column names vary by pyarrow version; map by content
    out = {}
    for row in g.to_pylist():
        k = row[group_col]
        out[str(k)] = [
            int(row[f"{group_col}_count"]),
            float(row[f"{sum_col}_sum"]),
        ]
    return out


@pytest.mark.parametrize("mode", ["cow", "delta"])
@pytest.mark.slow
def test_view_tracks_snapshot_every_epoch(tmp_path, ray_session, mode):
    res = generate_log(
        str(tmp_path / "log"),
        GenConfig(n_events=5000, n_docs=400, events_per_file=1000, widen_frac=0.6, add_col_frac=0.8),
    )
    eng = CdcEngine(
        os.path.dirname(res.files[0]),
        str(tmp_path / "table"),
        EngineConfig(num_partitions=4, epoch_max_files=1, write_mode=mode),
    )
    view = IncrementalAggView(eng, "by_source", "source", "n_tok")
    while eng.run_epoch() is not None:
        pass
    state = view.update_to()
    snap = eng.snapshot_table()
    expect = direct_agg(snap, "source", "n_tok")
    assert set(state) == set(expect)
    for k in expect:
        assert state[k][0] == expect[k][0], (k, state[k], expect[k])
        assert abs(state[k][1] - expect[k][1]) < 1e-6, k
    # intermediate epochs were persisted and each matches its snapshot
    for e in (1, 3):
        ve = IncrementalAggView(eng, "by_source", "source", "n_tok")
        se = ve.update_to(e)
        exp_e = direct_agg(eng.snapshot_table(epoch=e), "source", "n_tok")
        assert {k: v[0] for k, v in se.items()} == {k: v[0] for k, v in exp_e.items()}


def test_view_resumes_from_persisted_state(tmp_path, ray_session):
    res = generate_log(
        str(tmp_path / "log"), GenConfig(n_events=3000, n_docs=300, events_per_file=1000)
    )
    eng = CdcEngine(
        os.path.dirname(res.files[0]),
        str(tmp_path / "table"),
        EngineConfig(num_partitions=4, epoch_max_files=1),
    )
    eng.run_epoch()
    v1 = IncrementalAggView(eng, "v", "source", "n_tok")
    v1.update_to(1)
    eng.run_epoch()
    eng.run_epoch()
    # a fresh maintainer resumes from e1's persisted file, folding only e2+e3
    v2 = IncrementalAggView(eng, "v", "source", "n_tok")
    state = v2.update_to()
    expect = direct_agg(eng.snapshot_table(), "source", "n_tok")
    assert {k: v[0] for k, v in state.items()} == {k: v[0] for k, v in expect.items()}
    assert os.path.exists(os.path.join(eng.table_root, "_views", "v", "e000003.json"))


def test_view_without_cursor_resumes_from_checkpoint(tmp_path, ray_session, monkeypatch):
    """A view holding checkpoints but no consumer cursor (as tables
    written before views held cursors are) subscribes at its latest
    checkpoint and folds only the later epochs."""
    from tartare_ray.state.consumers import drop_consumer

    res = generate_log(
        str(tmp_path / "log"), GenConfig(n_events=3000, n_docs=300, events_per_file=1000)
    )
    eng = CdcEngine(
        os.path.dirname(res.files[0]),
        str(tmp_path / "table"),
        EngineConfig(num_partitions=4, epoch_max_files=1),
    )
    eng.run_epoch()
    IncrementalAggView(eng, "v", "source", "n_tok").update_to(1)
    assert drop_consumer(eng.table_root, "view.v")
    eng.run_epoch()
    eng.run_epoch()
    folded = []
    epoch_rows = IncrementalAggView._epoch_rows

    def spy(self, epoch, *args):
        folded.append(epoch)
        return epoch_rows(self, epoch, *args)

    monkeypatch.setattr(IncrementalAggView, "_epoch_rows", spy)
    state = IncrementalAggView(eng, "v", "source", "n_tok").update_to()
    assert folded == [2, 3]
    expect = direct_agg(eng.snapshot_table(), "source", "n_tok")
    assert {k: v[0] for k, v in state.items()} == {k: v[0] for k, v in expect.items()}
    assert eng.consumers() == {"view.v": 3}


def _write_rows(path, rows):
    """rows: (lsn, op, doc_id, tokens) — the minhash-index test helper
    shape, local copy (module independence)."""
    import pyarrow.parquet as pq

    from tartare_ray.schema import CHANGE_SCHEMA

    os.makedirs(os.path.dirname(path), exist_ok=True)
    tbl = pa.table(
        {
            "lsn": pa.array([r[0] for r in rows], pa.int64()),
            "op": pa.array([r[1] for r in rows], pa.string()),
            "doc_id": pa.array([r[2] for r in rows], pa.string()),
            "tokens": pa.array([r[3] for r in rows], pa.list_(pa.int32())),
            "n_tok": pa.array(
                [len(r[3]) if r[3] is not None else None for r in rows], pa.int32()
            ),
            "source": pa.array(
                [r[4] if len(r) > 4 else ("s" if r[3] is not None else None) for r in rows],
                pa.string(),
            ),
            "schema_version": pa.array([1] * len(rows), pa.int32()),
        },
        schema=CHANGE_SCHEMA,
    )
    import pyarrow.parquet as pq

    pq.write_table(tbl, path)


def _direct_min(snap: pa.Table, group_col: str, val_col: str) -> dict:
    out = {}
    for row in snap.to_pylist():
        k = str(row[group_col])
        v = float(row[val_col])
        out[k] = min(out.get(k, v), v)
    return out


def test_minmax_view_tracks_snapshot_and_rescans(tmp_path, ray_session):
    """MIN view with a TINY buffer (N=2): epoch 2 deletes/updates away
    every buffered minimum of group 'a' — forcing the rescan path —
    and the view still equals the direct fold at every epoch."""
    from tartare_ray.pipelines.views import IncrementalMinMaxView

    log = str(tmp_path / "log")
    # group = source; value = n_tok (len of tokens)
    _write_rows(
        f"{log}/events-000000.parquet",
        [
            (1, "I", "d1", [1] * 3, "a"),     # a: 3
            (2, "I", "d2", [1] * 5, "a"),     # a: 5
            (3, "I", "d3", [1] * 9, "a"),     # a: 9  (outside N=2 buffer)
            (4, "I", "d4", [1] * 7, "b"),     # b: 7
        ],
    )
    eng = CdcEngine(
        log, str(tmp_path / "tbl"), EngineConfig(num_partitions=2, epoch_max_files=1)
    )
    eng.replay()
    view = IncrementalMinMaxView(eng, "min_ntok", "source", "n_tok", buffer_n=2)
    state = view.update_to()
    snap = eng.snapshot_table()
    assert _direct_min(snap, "source", "n_tok") == {
        k: e["buf"][0][0] for k, e in state.items()
    }
    assert state["a"]["complete"] is False  # d3 was trimmed from the buffer

    # epoch 2: delete d1, move d2 to group b — group a's buffer empties
    # while incomplete (d3 is untracked) → rescan must recover a: 9
    _write_rows(
        f"{log}/events-000001.parquet",
        [(5, "D", "d1", None), (6, "U", "d2", [1] * 4, "b")],
    )
    eng.replay()
    state = view.update_to()
    snap = eng.snapshot_table()
    expect = _direct_min(snap, "source", "n_tok")
    got = {k: e["buf"][0][0] for k, e in state.items()}
    assert got == expect == {"a": 9.0, "b": 4.0}
    assert state["a"]["complete"] is True  # rebuilt exactly by the rescan

    # epoch 3: delete the LAST doc of group a → the group must vanish
    _write_rows(f"{log}/events-000002.parquet", [(7, "D", "d3", None)])
    eng.replay()
    t = view.as_table()
    assert t.to_pydict() == {"source": ["b"], "min_n_tok": [4.0]}


def test_max_view_mode(tmp_path, ray_session):
    from tartare_ray.pipelines.views import IncrementalMinMaxView

    log = str(tmp_path / "log")
    _write_rows(
        f"{log}/events-000000.parquet",
        [(1, "I", "x", [1] * 2, "g"), (2, "I", "y", [1] * 11, "g")],
    )
    eng = CdcEngine(
        log, str(tmp_path / "tbl"), EngineConfig(num_partitions=2, epoch_max_files=1)
    )
    eng.replay()
    view = IncrementalMinMaxView(eng, "max_ntok", "source", "n_tok", mode="max")
    t = view.as_table()
    assert t.to_pydict() == {"source": ["g"], "max_n_tok": [11.0]}
    # retract the max — the buffer (complete) repairs without rescan
    _write_rows(f"{log}/events-000001.parquet", [(3, "D", "y", None)])
    eng.replay()
    assert view.as_table().to_pydict() == {"source": ["g"], "max_n_tok": [2.0]}


def test_quantile_view_equals_direct_sketch_every_epoch(tmp_path, ray_session):
    """The incrementally-maintained DDSketch view's bucket state equals
    a from-scratch sketch of each epoch's snapshot — retractions
    decrement buckets exactly (the invertibility property)."""
    import numpy as np
    import ray.data

    from tartare_ray.pipelines.views import IncrementalQuantileView
    from tartare_ray.stages.sketch import grouped_quantile_sketch

    res = generate_log(
        str(tmp_path / "log"),
        GenConfig(n_events=3000, n_docs=250, events_per_file=1000),
    )
    eng = CdcEngine(
        os.path.dirname(res.files[0]),
        str(tmp_path / "table"),
        EngineConfig(num_partitions=4, epoch_max_files=1),
    )
    view = IncrementalQuantileView(eng, "q_ntok", "source", "n_tok")
    epochs = []
    while eng.run_epoch() is not None:
        epochs.append(True)
    assert len(epochs) >= 2
    got = view.as_table().to_pandas().sort_values("source", ignore_index=True)
    direct = (
        grouped_quantile_sketch(
            eng.snapshot_dataset(columns=["source", "n_tok"]), "source", "n_tok"
        )
        .to_pandas()
        .sort_values("source", ignore_index=True)
    )
    assert got.equals(direct), (got, direct)
    # an INTERMEDIATE epoch replays identically from scratch
    v2 = IncrementalQuantileView(eng, "q_ntok", "source", "n_tok")
    mid = v2.update_to(1)
    d2 = (
        grouped_quantile_sketch(
            eng.snapshot_dataset(epoch=1, columns=["source", "n_tok"]),
            "source",
            "n_tok",
        )
        .to_pandas()
        .sort_values("source", ignore_index=True)
    )
    t2 = IncrementalQuantileView(eng, "q_ntok", "source", "n_tok").as_table(1)
    assert t2.to_pandas().sort_values("source", ignore_index=True).equals(d2)
