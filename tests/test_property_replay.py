"""Property-based acceptance (SURVEY.md §5.2 item 5): for random op
sequences, the distributed engine's final state equals the sequential
fold of ops in LSN order — per doc, token arrays compared exactly."""

from __future__ import annotations

import pytest

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tartare_ray.oracle import replay_oracle
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig

ops = st.sampled_from(["I", "U", "D"])
doc_ids = st.integers(min_value=0, max_value=9).map(lambda i: f"d{i}")


@st.composite
def event_logs(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    events = []
    for lsn in range(n):
        op = draw(ops)
        did = draw(doc_ids)
        toks = draw(st.lists(st.integers(0, 100), min_size=0, max_size=5))
        events.append((lsn, op, did, toks))
    return events


def _write_log(events, log_dir):
    os.makedirs(log_dir, exist_ok=True)
    per_file = max(1, len(events) // 2)
    files = []
    for fi, lo in enumerate(range(0, len(events), per_file)):
        chunk = events[lo : lo + per_file]
        is_d = [op == "D" for _, op, _, _ in chunk]
        tbl = pa.table(
            {
                "lsn": pa.array([e[0] for e in chunk], pa.int64()),
                "op": pa.array([e[1] for e in chunk]),
                "doc_id": pa.array([e[2] for e in chunk]),
                "tokens": pa.array(
                    [None if d else e[3] for d, e in zip(is_d, chunk)],
                    pa.list_(pa.int32()),
                ),
                "n_tok": pa.array(
                    [None if d else len(e[3]) for d, e in zip(is_d, chunk)], pa.int32()
                ),
                "source": pa.array([None if d else "s" for d in is_d], pa.string()),
                "schema_version": pa.array([1] * len(chunk), pa.int32()),
            }
        )
        p = os.path.join(log_dir, f"events-{fi:06d}.parquet")
        pq.write_table(tbl, p)
        files.append(p)
    return files


@settings(max_examples=12, deadline=None, suppress_health_check=list(HealthCheck))
@given(event_logs(), st.sampled_from(["cow", "delta"]), st.booleans())
@pytest.mark.slow
def test_engine_equals_sequential_fold(ray_session, tmp_path_factory, events, mode, late):
    base = str(tmp_path_factory.mktemp("prop"))
    files = _write_log(events, os.path.join(base, "log"))
    expected = replay_oracle(files)
    eng = CdcEngine(
        os.path.join(base, "log"),
        os.path.join(base, "table"),
        EngineConfig(num_partitions=3, epoch_max_files=1, write_mode=mode,
                     late_materialization=late, late_mat_max_ratio=1.01),
    )
    eng.replay()
    actual = eng.snapshot_table()
    assert actual.num_rows == expected.num_rows
    for col in expected.schema.names:
        assert actual[col].to_pylist() == expected[col].to_pylist(), col


@settings(max_examples=8, deadline=None, suppress_health_check=list(HealthCheck))
@given(event_logs(), st.lists(st.integers(0, 2), min_size=2, max_size=12))
@pytest.mark.slow
def test_multi_source_split_equals_single_log(
    ray_session, tmp_path_factory, events, assignment
):
    """Any split of the log's files across up to 3 source dirs replays
    to the same table as the single-dir layout (union + LSN-complete
    epoch cuts), under per-file epochs."""
    import shutil

    base = str(tmp_path_factory.mktemp("prop_ms"))
    files = _write_log(events, os.path.join(base, "log"))
    expected = replay_oracle(files)
    dirs = [os.path.join(base, f"src{k}") for k in range(3)]
    for d in dirs:
        os.makedirs(d)
    for i, f in enumerate(files):
        shutil.copy(f, dirs[assignment[i % len(assignment)]])
    eng = CdcEngine(
        dirs,
        os.path.join(base, "table"),
        EngineConfig(num_partitions=3, epoch_max_files=1),
    )
    eng.replay()
    actual = eng.snapshot_table()
    assert actual.num_rows == expected.num_rows
    for col in expected.schema.names:
        assert actual[col].to_pylist() == expected[col].to_pylist(), col
