"""Online partition-count migration (CdcEngine.repartition_table).

The partition count is a TABLE property recorded in the manifest:
the migration rewrites the key→part mapping atomically with a
manifest commit, and both readers and subsequent epochs adopt the
new count from the manifest regardless of engine config.
"""

from __future__ import annotations

import pytest

import os

import pyarrow as pa
import pyarrow.parquet as pq

from tartare_ray.gen import GenConfig, generate_log
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
from tartare_ray.state.manifest import load_current

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _setup(tmp_path, **cfg):
    res = generate_log(
        str(tmp_path / "log"),
        GenConfig(n_events=4000, n_docs=300, events_per_file=1000),
    )
    log = os.path.dirname(res.files[0])
    eng = CdcEngine(
        log, str(tmp_path / "t"), EngineConfig(num_partitions=4, **cfg)
    )
    eng.replay()
    return res, log, eng


def test_repartition_preserves_state_delta(ray_session, tmp_path):
    res, log, eng = _setup(tmp_path, write_mode="delta", epoch_max_files=2)
    before = eng.snapshot_table()
    m = eng.repartition_table(16)
    assert m is not None and m.num_partitions == 16
    assert m.watermark_lsn == res.max_lsn
    assert eng.snapshot_table().to_pylist() == before.to_pylist()
    # migration output is all-base, at most 16 partitions, one file each
    assert all(pl.kind == "base" for pl in m.partitions)
    ps = [pl.p for pl in m.partitions]
    assert len(ps) == len(set(ps)) and all(0 <= p < 16 for p in ps)
    # no-op when the count is unchanged
    assert eng.repartition_table(16) is None


def test_repartition_is_consistent_for_stale_readers_and_writers(
    ray_session, tmp_path
):
    res, log, eng = _setup(tmp_path)
    before = eng.snapshot_table()
    eng.repartition_table(8)

    # point reads through an engine still configured with the OLD count
    stale = CdcEngine(log, eng.table_root, EngineConfig(num_partitions=4))
    ids = before["doc_id"].to_pylist()[:10]
    got = stale.lookup(ids)
    assert sorted(got["doc_id"].to_pylist()) == sorted(ids)

    # continue ingesting through the stale-config engine: new events
    # must land in the NEW mapping (manifest wins over config)
    lsn0 = res.max_lsn + 1
    upd = pa.table(
        {
            "lsn": pa.array([lsn0, lsn0 + 1], pa.int64()),
            "op": pa.array(["U", "D"]),
            "doc_id": pa.array(ids[:2]),
            "tokens": pa.array([[7, 7, 7], None], pa.list_(pa.int32())),
            "n_tok": pa.array([3, None], pa.int32()),
            "source": pa.array(["s", "s"]),
        }
    )
    log2 = tmp_path / "log2"
    log2.mkdir()
    pq.write_table(upd, str(log2 / "events-000000.parquet"))
    w = CdcEngine(str(log2), eng.table_root, EngineConfig(num_partitions=4))
    m2 = w.replay()
    assert m2 is not None and m2.num_partitions == 8
    after = w.snapshot_table()
    by_id = {r["doc_id"]: r for r in after.to_pylist()}
    assert by_id[ids[0]]["tokens"] == [7, 7, 7]
    assert ids[1] not in by_id  # delete applied
    # untouched rows carried forward bit-for-bit
    rest_before = [r for r in before.to_pylist() if r["doc_id"] not in ids[:2]]
    rest_after = [r for r in after.to_pylist() if r["doc_id"] not in ids[:2]]
    assert rest_after == rest_before
    # the new-mapping lookup resolves the updated doc
    assert w.lookup([ids[0]])["tokens"].to_pylist() == [[7, 7, 7]]


@pytest.mark.slow
def test_repartition_cli(ray_session, tmp_path):
    import json
    import subprocess
    import sys

    res, log, eng = _setup(tmp_path)
    env = dict(os.environ, PYTHONPATH=REPO, RAY_ADDRESS="local")
    r = subprocess.run(
        [
            sys.executable, "-m", "tartare_ray", "repartition",
            "--table-root", eng.table_root, "--num-partitions", "2",
        ],
        capture_output=True, text=True, timeout=300, env=env, cwd=REPO,
    )
    assert r.returncode == 0, r.stderr[-1500:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["repartitioned"] is True and out["num_partitions"] == 2
    m = load_current(eng.table_root)
    assert m.num_partitions == 2 and len({pl.p for pl in m.partitions}) <= 2
    assert out["rows"] == sum(pl.rows for pl in m.partitions)


def test_view_correct_across_repartition_with_stale_config(ray_session, tmp_path):
    """A view whose engine handle still carries the OLD partition
    count must read retraction chains with the manifest's count after
    an online migration (the manifest, not the config, owns the
    key->part mapping)."""
    import shutil

    from tartare_ray.oracle import replay_oracle
    from tartare_ray.pipelines.views import IncrementalAggView

    staging = str(tmp_path / "staging")
    res = generate_log(
        staging, GenConfig(n_events=6000, n_docs=300, events_per_file=2000)
    )
    log = str(tmp_path / "log")
    os.makedirs(log)
    for f in res.files[:2]:
        shutil.copy(f, log)
    eng = CdcEngine(
        log,
        str(tmp_path / "t"),
        EngineConfig(num_partitions=4, write_mode="delta", epoch_max_files=1),
    )
    eng.replay()
    view = IncrementalAggView(eng, "by_source", "source", "n_tok")
    view.update_to()

    assert eng.repartition_table(8) is not None
    shutil.copy(res.files[2], log)  # one more epoch AFTER the migration
    eng.replay()

    # eng.cfg still says 4; the chains are keyed by 8 — the view must
    # use the manifest count for its retraction lookups
    state = view.update_to()
    want = replay_oracle(res.files)
    import collections

    exp_cnt: dict = collections.defaultdict(int)
    exp_sum: dict = collections.defaultdict(float)
    for s, n in zip(want["source"].to_pylist(), want["n_tok"].to_pylist()):
        exp_cnt[str(s)] += 1
        exp_sum[str(s)] += n
    assert {k: int(v[0]) for k, v in state.items()} == dict(exp_cnt)
    assert {k: round(v[1], 6) for k, v in state.items()} == {
        k: round(v, 6) for k, v in exp_sum.items()
    }
