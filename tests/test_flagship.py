"""Flagship (documents-derived CDC replay): engine state row-for-row
equals the single-process oracle, incl. token-array equality; re-runs
are watermark no-ops."""

from __future__ import annotations

import os
import shutil

import pytest

from tartare_ray.oracle import replay_oracle
from tartare_ray.pipelines.flagship import derive_change_log, flagship_workdir, run_flagship

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def fresh_flagship(ray_session):
    shutil.rmtree(flagship_workdir(SF), ignore_errors=True)
    eng = run_flagship(SF)
    return eng


def test_flagship_matches_oracle(fresh_flagship):
    eng = fresh_flagship
    log_dir = os.path.join(flagship_workdir(SF), "log")
    files = [os.path.join(log_dir, f) for f in sorted(os.listdir(log_dir)) if f.endswith(".parquet")]
    expected = replay_oracle(files)
    actual = eng.snapshot_table()
    assert actual.schema.names == expected.schema.names
    assert len(actual) == len(expected)
    for col in actual.schema.names:  # includes element-wise tokens equality
        assert actual[col].to_pylist() == expected[col].to_pylist(), col


def test_flagship_schema_evolved(fresh_flagship):
    schema = fresh_flagship.snapshot_table().schema
    assert "quality" in schema.names  # added column survived
    assert schema.field("tokens").type.value_type == __import__("pyarrow").int64()  # widened


def test_flagship_rerun_is_noop(fresh_flagship):
    from tartare_ray.state.manifest import load_current

    before = load_current(fresh_flagship.table_root)
    eng2 = run_flagship(SF)  # same workdir; pending log already committed
    after = load_current(eng2.table_root)
    assert after.epoch == before.epoch and after.watermark_lsn == before.watermark_lsn


def test_derive_log_idempotent(tmp_path):
    d = str(tmp_path / "log")
    derive_change_log(SF, d)
    first = sorted(os.listdir(d))
    derive_change_log(SF, d)  # marker hit: no rewrite
    assert sorted(os.listdir(d)) == first


@pytest.mark.slow
def test_bench_emits_valid_json_line(tmp_path):
    """Guard the driver's per-round bench: tiny config end-to-end, one
    parseable JSON line with the contract keys."""
    import json
    import os
    import subprocess
    import sys

    env = dict(
        os.environ,
        PYTHONPATH=REPO,
        RAY_ADDRESS="local",
        GRAFT_BENCH_EVENTS="50000",
        RAY_GRAFT_CPUS="4",
        GRAFT_SF_DIR="/root/testdata/sf0.001",
    )
    r = subprocess.run(
        [sys.executable, "bench.py"],
        capture_output=True, text=True, timeout=420, env=env, cwd=REPO,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    for key in ("metric", "value", "unit", "queries", "sf", "num_cpus", "cdc"):
        assert key in out, key
    assert out["unit"] == "sec" and out["value"] > 0
    assert out["cdc"]["events_per_sec"] > 0
    assert len(out["queries"]) >= 10


def test_cdc_backfill_reclaims_stale_head_copies(ray_session):
    """cdc_backfill leaves exactly ONE hardlinked table copy (the
    current head's) in the shared flagship workdir — copies from older
    heads are reclaimed on the next call (r3 advice fix)."""
    import os

    from tartare_ray.pipelines.flagship import flagship_workdir
    from tartare_ray.pipelines.queries import cdc_backfill

    sf = "/root/testdata/sf0.001"
    cdc_backfill(sf)
    work = flagship_workdir(sf)
    # plant a fake stale copy from an older head
    stale_dir = os.path.join(work, "table_backfill_e0")
    os.makedirs(os.path.join(stale_dir, "data"), exist_ok=True)
    with open(stale_dir + ".copied", "w") as f:
        f.write("0")
    cdc_backfill(sf)
    left = sorted(
        n for n in os.listdir(work) if n.startswith("table_backfill_e")
    )
    assert not any(n.startswith("table_backfill_e0") for n in left), left
    assert any(n.endswith(".copied") for n in left), left  # current head kept
