"""Extreme hot-key skew on the exchange-free write path, one-CPU Ray
sessions, snapshot publication, epoch GC, CSV source, CLI smoke."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tartare_ray.oracle import replay_oracle
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
from tartare_ray.state.manifest import gc_epochs, load_current, load_epoch
from tartare_ray.state.publish import publish_environments, publish_snapshot

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _hot_key_log(log_dir: str, n_events: int = 6000, hot_share: float = 0.5) -> list[str]:
    """A change log where ONE doc_id receives ``hot_share`` of all
    events — the adversarial case for any one task holding a key."""
    os.makedirs(log_dir, exist_ok=True)
    rng = np.random.default_rng(11)
    files = []
    per_file = n_events // 3
    for fi in range(3):
        lo = fi * per_file
        lsn = np.arange(lo, lo + per_file, dtype=np.int64)
        hot = rng.random(per_file) < hot_share
        ids = np.where(hot, "doc-HOT", np.char.add("doc-", rng.integers(0, 500, per_file).astype(str)))
        n_tok = rng.integers(1, 5, per_file).astype(np.int32)
        offsets = np.zeros(per_file + 1, dtype=np.int32)
        np.cumsum(n_tok, out=offsets[1:])
        toks = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(rng.integers(0, 1000, int(offsets[-1]), dtype=np.int32))
        )
        tbl = pa.table(
            {
                "lsn": pa.array(lsn),
                "op": pa.array(rng.choice(["I", "U", "U", "D"], per_file)),
                "doc_id": pa.array(ids.astype(object)),
                "tokens": toks,
                "n_tok": pa.array(n_tok),
                "source": pa.array(["s"] * per_file),
                "schema_version": pa.array(np.ones(per_file, dtype=np.int32)),
            }
        )
        path = os.path.join(log_dir, f"events-{fi:06d}.parquet")
        pq.write_table(tbl, path)
        files.append(path)
    return files


@pytest.fixture()
def hot_log(tmp_path):
    d = str(tmp_path / "log")
    return _hot_key_log(d), d, tmp_path


def _feed_oracle(files: list[str], lo: int, hi: int) -> list[tuple]:
    """(doc_id, lsn, op) of the latest event per doc_id with
    lo < lsn <= hi — one epoch's change feed, tombstones kept."""
    latest: dict[str, tuple] = {}
    for f in files:
        t = pq.read_table(f, columns=["lsn", "op", "doc_id"])
        for lsn, op, did in zip(*(t[c].to_pylist() for c in ("lsn", "op", "doc_id"))):
            if lo < lsn <= hi and (did not in latest or latest[did][0] < lsn):
                latest[did] = (lsn, op)
    return sorted((d, lsn, op) for d, (lsn, op) in latest.items())


@pytest.mark.parametrize("mode", ["cow", "delta"])
def test_hot_key_replay_matches_oracle(hot_log, ray_session, mode):
    """One doc_id carries half of every epoch's events.  Each block
    reduces only its own rows before it writes, so every split file
    holds at most one row per doc_id and the hot key reaches its
    partition's fold as one row from each of several blocks — no task
    ever holds the hot key's whole epoch.  The snapshot and every
    epoch's change feed equal the oracle."""
    files, log_dir, tmp_path = hot_log
    splits: dict[int, list[list[str]]] = {}

    class SplitWatch(CdcEngine):
        def _commit(self, m):
            # the split files live until the commit; read them first
            data = os.path.join(self.table_root, "data")
            splits[m.epoch] = [
                pq.read_table(os.path.join(data, n), columns=["doc_id"])["doc_id"].to_pylist()
                for n in sorted(os.listdir(data))
                if f"-e{m.epoch:06d}-s" in n
            ]
            super()._commit(m)

    root = str(tmp_path / f"table-{mode}")
    eng = SplitWatch(
        log_dir, root, EngineConfig(num_partitions=8, write_mode=mode, epoch_max_files=1)
    )
    m = eng.replay()
    assert m.epoch == 3
    expected = replay_oracle(files)
    actual = eng.snapshot_table()
    assert len(actual) == len(expected)
    for col in actual.schema.names:
        assert actual[col].to_pylist() == expected[col].to_pylist(), col
    for e in range(1, m.epoch + 1):
        me = load_epoch(root, e)
        feed = sorted(
            (r["doc_id"], r["lsn"], r["op"]) for r in eng.changes_dataset(e).take_all()
        )
        assert feed == _feed_oracle(files, me.parent_watermark_lsn, me.watermark_lsn), e
        assert splits[e]
        for ids in splits[e]:
            assert len(ids) == len(set(ids))
        assert sum("doc-HOT" in ids for ids in splits[e]) >= 2, e


def test_one_cpu_session_replays(tmp_path):
    """The write path runs plain tasks only (no actor pool), so a Ray
    session of ONE CPU replays cow and delta + late-materialization
    tables to the oracle instead of deadlocking."""
    script = """
import os, sys
import ray
ray.init(address="local", num_cpus=1, object_store_memory=200 << 20,
         include_dashboard=False, logging_level="ERROR")
from tartare_ray.gen import GenConfig, generate_log
from tartare_ray.oracle import replay_oracle
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
base = sys.argv[1]
res = generate_log(os.path.join(base, "log"),
                   GenConfig(n_events=3000, n_docs=300, events_per_file=1000))
want = replay_oracle(res.files)
for name, cfg in (
    ("cow", EngineConfig(num_partitions=4, epoch_max_files=1)),
    ("delta", EngineConfig(num_partitions=4, epoch_max_files=1, write_mode="delta",
                           late_materialization=True, late_mat_max_ratio=1.01)),
):
    eng = CdcEngine(os.path.dirname(res.files[0]), os.path.join(base, name), cfg)
    assert eng.replay().epoch == 3, name
    got = eng.snapshot_table()
    for col in want.schema.names:
        assert got[col].to_pylist() == want[col].to_pylist(), (name, col)
ray.shutdown()
print("ok")
"""
    r = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=REPO), cwd=REPO,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    assert r.stdout.strip().splitlines()[-1] == "ok"


def test_publish_atomic_and_idempotent(hot_log, ray_session, tmp_path):
    files, log_dir, base = hot_log
    root = str(base / "table-pub")
    eng = CdcEngine(log_dir, root, EngineConfig(num_partitions=4))
    m = eng.replay()
    envs = [str(tmp_path / e) for e in ("integration", "preprod", "prod")]
    ms = publish_environments(root, envs)
    assert all(x.epoch == m.epoch for x in ms)
    for e in envs:
        pm = load_current(e)
        assert pm is not None and pm.epoch == m.epoch
        # chain files and the head epoch's feed files (cow folds)
        assert any(pl.feed_file for pl in pm.partitions)
        for rel in pm.referenced_files():
            assert os.path.exists(os.path.join(e, rel))
    # the published head epoch serves its change feed
    feed_n = eng.changes_dataset(m.epoch).count()
    assert feed_n > 0
    assert CdcEngine(log_dir, envs[-1]).changes_dataset(m.epoch).count() == feed_n
    # idempotent re-publish
    again = publish_snapshot(root, envs[0])
    assert again.epoch == m.epoch


def test_gc_epochs_keeps_reachable_files(hot_log, ray_session):
    files, log_dir, tmp_path = hot_log
    root = str(tmp_path / "table-gc")
    # 3 epochs (one per file)
    eng = CdcEngine(log_dir, root, EngineConfig(num_partitions=4, epoch_max_files=1))
    m = eng.replay()
    assert m.epoch == 3
    data_before = set(os.listdir(os.path.join(root, "data")))
    removed = gc_epochs(root, keep_last=1)
    assert removed > 0
    cur = load_current(root)
    for pl in cur.partitions:  # everything reachable from CURRENT survives
        assert os.path.exists(os.path.join(root, pl.file))
    assert set(os.listdir(os.path.join(root, "data"))) < data_before
    # snapshot still reads fine
    assert len(eng.snapshot_table()) > 0


def test_csv_source_roundtrip(tmp_path, ray_session):
    import pyarrow.csv as pacsv

    from tartare_ray.sources.csvsrc import csv_log_to_parquet, read_change_csv

    csv_dir = str(tmp_path / "csv")
    os.makedirs(csv_dir)
    rows = pa.table(
        {
            "lsn": pa.array([0, 1, 2], pa.int64()),
            "op": pa.array(["I", "U", "D"]),
            "doc_id": pa.array(["a", "a", "b"]),
            "tokens": pa.array(["1 2 3", "4 5", ""]),
            "n_tok": pa.array([3, 2, 0], pa.int32()),
            "source": pa.array(["s", "s", "s"]),
            "schema_version": pa.array([1, 1, 1], pa.int32()),
        }
    )
    pacsv.write_csv(rows, os.path.join(csv_dir, "chunk0.csv"))
    out = csv_log_to_parquet(csv_dir, str(tmp_path / "plog"))
    assert len(out) == 1
    t = pq.read_table(out[0])
    assert t["tokens"].to_pylist()[:2] == [[1, 2, 3], [4, 5]]
    ds = read_change_csv(os.path.join(csv_dir, "chunk0.csv"))
    assert ds.count() == 3


@pytest.mark.slow
def test_cli_gen_replay_publish(tmp_path):
    env = dict(os.environ, PYTHONPATH=REPO, RAY_ADDRESS="local")

    def cli(*args):
        r = subprocess.run(
            [sys.executable, "-m", "tartare_ray", *args],
            capture_output=True, text=True, timeout=300, env=env, cwd=REPO,
        )
        assert r.returncode == 0, r.stderr[-1500:]
        return json.loads(r.stdout.strip().splitlines()[-1])

    log = str(tmp_path / "log")
    table = str(tmp_path / "table")
    out = cli("gen", "--log-dir", log, "--n-events", "3000")
    assert out["n_events"] == 3000
    out = cli("replay", "--log-dir", log, "--table-root", table, "--num-partitions", "4")
    assert out["status"] == "committed"
    dest = str(tmp_path / "prod")
    out = cli("publish", "--table-root", table, "--dest", dest)
    assert out["published_epoch"] >= 1
    out = cli("gc", "--table-root", table, "--keep-last", "1")
    assert out["files_removed"] >= 0
    out = cli("compact", "--log-dir", log, "--table-root", table)
    assert out["status"] == "noop"  # cow replay leaves no delta chains
    out = cli("status", "--table-root", table)
    assert out["status"] == "committed" and out["watermark_lsn"] == 2999
    assert out["files"] == {"base": out["partitions"]}
    # straggler + phase walls from the last epoch's metrics (§8.6)
    assert out["last_epoch_straggler"]["apply_tasks"] >= 1
    assert out["last_epoch_phases"]["split_s"] > 0


@pytest.mark.slow
def test_cli_tail_follows_appends(tmp_path, ray_session):
    """Live tail: files fed into the log dir one wave at a time; each
    wave commits its own epoch, and the final table equals the full-log
    oracle (continuous-ingest mode of __main__.py)."""
    import shutil
    import time

    from tartare_ray.gen import GenConfig, generate_log

    staging = str(tmp_path / "staging")
    res = generate_log(staging, GenConfig(n_events=4000, n_docs=400, events_per_file=2000))
    assert len(res.files) == 2
    log = str(tmp_path / "log")
    table = str(tmp_path / "table")
    os.makedirs(log)
    shutil.copy(res.files[0], log)

    env = dict(os.environ, PYTHONPATH=REPO, RAY_ADDRESS="local")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "tartare_ray", "tail",
            "--log-dir", log, "--table-root", table,
            "--num-partitions", "4", "--poll-interval", "0.5", "--max-polls", "4",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=REPO,
    )
    try:
        line1 = json.loads(proc.stdout.readline())
        assert line1["epoch"] == 1 and line1["watermark"] == 1999
        shutil.copy(res.files[1], log)
        line2 = json.loads(proc.stdout.readline())
        assert line2["epoch"] == 2 and line2["watermark"] == 3999
        assert proc.wait(timeout=120) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    eng = CdcEngine(log, table, EngineConfig(num_partitions=4))
    from tests.test_cdc_engine import assert_tables_equal

    assert_tables_equal(eng.snapshot_table(), replay_oracle(res.files))


def test_unknown_extra_columns_become_evolution(ray_session, tmp_path):
    """A producer adding an unexpected payload column is the
    add-column evolution case: absorbed into the snapshot schema
    (null-backfilled on rows that lack it); ``drop_columns`` is the
    opt-out for columns the table should never carry."""
    import pyarrow as pa

    t = pa.table(
        {
            "lsn": pa.array([0, 1], pa.int64()),
            "op": ["I", "I"],
            "doc_id": ["a", "b"],
            "tokens": pa.array([[1], [2, 3]], pa.list_(pa.int32())),
            "n_tok": pa.array([1, 2], pa.int32()),
            "source": ["s", "s"],
            "schema_version": pa.array([1, 1], pa.int32()),
            "junk_debug_field": ["x", "y"],  # unknown extra
        }
    )
    log = tmp_path / "log"
    log.mkdir()
    pq.write_table(t, str(log / "events-000000.parquet"))
    eng = CdcEngine(str(log), str(tmp_path / "t"), EngineConfig(num_partitions=2))
    eng.replay()
    snap = eng.snapshot_table()
    assert snap["doc_id"].to_pylist() == ["a", "b"]
    assert snap["junk_debug_field"].to_pylist() == ["x", "y"]  # absorbed
    eng2 = CdcEngine(
        str(log), str(tmp_path / "t2"),
        EngineConfig(num_partitions=2, drop_columns=("junk_debug_field",)),
    )
    eng2.replay()
    assert "junk_debug_field" not in eng2.snapshot_table().schema.names


def test_publish_replaces_bytes_after_rollback(ray_session, tmp_path):
    """Epoch number alone is not snapshot identity: after a rollback +
    value-only log fix + replay (same epoch, different bytes), a
    re-publish must replace the destination's data, not no-op."""
    import shutil

    from tartare_ray.gen import GenConfig, generate_log
    from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
    from tartare_ray.state.publish import publish_snapshot

    res = generate_log(
        str(tmp_path / "log"), GenConfig(n_events=4000, n_docs=300, events_per_file=2000)
    )
    log = os.path.dirname(res.files[0])
    eng = CdcEngine(log, str(tmp_path / "t"), EngineConfig(num_partitions=2, epoch_max_files=1))
    eng.replay()
    dest = str(tmp_path / "dest")
    publish_snapshot(eng.table_root, dest)

    eng.rollback(1)
    t = pq.read_table(res.files[1])
    pq.write_table(
        t.set_column(t.schema.get_field_index("source"), "source",
                     pa.array(["fixed"] * len(t))),
        res.files[1],
    )
    eng.replay()  # re-commits epoch 2 with different bytes
    publish_snapshot(eng.table_root, dest)

    # the destination serves the corrected data
    dest_eng = CdcEngine("/nonexistent", dest, EngineConfig(num_partitions=2))
    assert "fixed" in set(dest_eng.snapshot_table()["source"].to_pylist())
