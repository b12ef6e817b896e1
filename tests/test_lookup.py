"""CdcEngine.lookup — point reads of committed state via partition-
pruned, chain-suffix scans (newest delta first, early stop)."""

from __future__ import annotations

import os

import pyarrow.compute as pc
import pytest

from tartare_ray.gen import GenConfig, generate_log
from tartare_ray.oracle import replay_oracle
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _oracle_rows(files, ids, cols):
    t = replay_oracle(files)
    hit = t.filter(pc.is_in(t["doc_id"], value_set=__import__("pyarrow").array(ids)))
    return hit.select(cols).sort_by("doc_id").to_pylist()


@pytest.mark.slow
def test_lookup_matches_oracle_across_modes(ray_session, tmp_path):
    res = generate_log(
        str(tmp_path / "log"),
        GenConfig(n_events=8000, n_docs=600, events_per_file=2000, widen_frac=0.5, add_col_frac=0.5),
    )
    log = os.path.dirname(res.files[0])
    for name, cfg in (
        ("delta", EngineConfig(num_partitions=4, write_mode="delta", epoch_max_files=2)),
        ("late", EngineConfig(num_partitions=4, write_mode="delta",
                              epoch_max_files=2, late_materialization=True)),
        ("cow", EngineConfig(num_partitions=4, epoch_max_files=2)),
    ):
        eng = CdcEngine(log, str(tmp_path / f"t-{name}"), cfg)
        eng.replay()
        snap = eng.snapshot_table()
        live = snap["doc_id"].to_pylist()
        probe = live[:5] + live[-5:] + ["no-such-doc"]
        got = eng.lookup(probe)
        assert got.schema.names == snap.schema.names
        want = _oracle_rows(res.files, probe, got.schema.names)
        assert got.sort_by("doc_id").to_pylist() == want
        # column pruning + implicit doc_id
        got2 = eng.lookup(probe, columns=["n_tok"])
        assert got2.schema.names == ["doc_id", "n_tok"]
        assert len(got2) == len(got)


def test_lookup_time_travel_and_deletes(ray_session, tmp_path):
    res = generate_log(
        str(tmp_path / "log"), GenConfig(n_events=6000, n_docs=400, events_per_file=2000)
    )
    log = os.path.dirname(res.files[0])
    eng = CdcEngine(log, str(tmp_path / "t"), EngineConfig(num_partitions=4, write_mode="delta", epoch_max_files=1))
    eng.replay()
    e1 = eng.snapshot_table(epoch=1)
    final = eng.snapshot_table()
    e1_ids, final_ids = set(e1["doc_id"].to_pylist()), set(final["doc_id"].to_pylist())
    # a doc deleted after epoch 1: visible at epoch=1, absent at HEAD
    gone = sorted(e1_ids - final_ids)
    if gone:
        probe = gone[:3]
        assert len(eng.lookup(probe, epoch=1)) == len(probe)
        assert len(eng.lookup(probe)) == 0
    # values at epoch 1 equal that epoch's snapshot, not HEAD's
    some = sorted(e1_ids)[:8]
    got = eng.lookup(some, epoch=1)
    want = e1.filter(pc.is_in(e1["doc_id"], value_set=__import__("pyarrow").array(some)))
    assert got.sort_by("doc_id").to_pylist() == want.select(got.schema.names).sort_by("doc_id").to_pylist()


def test_lookup_uses_manifest_partition_count(ray_session, tmp_path):
    """The key→partition mapping comes from the manifest, so a reader
    configured with the WRONG num_partitions still resolves correctly
    (and the lookup CLI needs no matching flag)."""
    res = generate_log(
        str(tmp_path / "log"), GenConfig(n_events=3000, n_docs=200, events_per_file=1000)
    )
    log = os.path.dirname(res.files[0])
    eng = CdcEngine(log, str(tmp_path / "t"), EngineConfig(num_partitions=4, write_mode="delta"))
    eng.replay()
    ids = eng.snapshot_table()["doc_id"].to_pylist()[:10]
    misconfigured = CdcEngine(log, str(tmp_path / "t"), EngineConfig(num_partitions=64))
    assert len(misconfigured.lookup(ids)) == len(ids)


def test_lookup_cli(ray_session, tmp_path):
    import json
    import subprocess
    import sys

    res = generate_log(
        str(tmp_path / "log"), GenConfig(n_events=2000, n_docs=150, events_per_file=1000)
    )
    log = os.path.dirname(res.files[0])
    table = str(tmp_path / "t")
    eng = CdcEngine(log, table, EngineConfig(num_partitions=4))
    eng.replay()
    doc = eng.snapshot_table()["doc_id"].to_pylist()[0]
    env = dict(os.environ, PYTHONPATH=REPO, RAY_ADDRESS="local")
    r = subprocess.run(
        [sys.executable, "-m", "tartare_ray", "lookup", "--table-root", table,
         "--doc-id", doc, "--doc-id", "no-such-doc", "--columns", "n_tok"],
        capture_output=True, text=True, timeout=300, env=env, cwd=REPO,
    )
    assert r.returncode == 0, r.stderr[-1500:]
    rows = json.loads(r.stdout.strip().splitlines()[-1])["rows"]
    assert len(rows) == 1 and rows[0]["doc_id"] == doc and "n_tok" in rows[0]


def test_as_of_lsn_time_travel(ray_session, tmp_path):
    """epoch_for_lsn + as_of_lsn= on snapshot_table/lookup: an LSN maps
    to the newest epoch whose watermark does not exceed it; mid-epoch
    LSNs resolve to the epoch before; pre-history LSNs raise."""
    import pytest

    from tartare_ray.oracle import replay_oracle

    res = generate_log(
        str(tmp_path / "log"),
        GenConfig(n_events=5000, n_docs=400, events_per_file=1000),
    )
    log = os.path.dirname(res.files[0])
    eng = CdcEngine(
        log, str(tmp_path / "t"),
        EngineConfig(num_partitions=4, write_mode="delta", epoch_max_files=2),
    )
    eng.replay()  # 5 files / 2 per epoch -> epochs at watermark 1999, 3999, 4999

    from tartare_ray.state.manifest import load_epoch

    for probe, want_files in ((1999, 2), (2500, 2), (3999, 4), (4999, 5)):
        e = eng.epoch_for_lsn(probe)
        m = load_epoch(eng.table_root, e)
        assert m.watermark_lsn <= probe
        snap = eng.snapshot_table(as_of_lsn=probe)
        want = replay_oracle(res.files[:want_files])
        assert snap["doc_id"].to_pylist() == want["doc_id"].to_pylist()
        assert snap["tokens"].to_pylist() == want["tokens"].to_pylist()
        # lookup agrees at the same point in time
        ids = snap["doc_id"].to_pylist()[:5]
        got = eng.lookup(ids, as_of_lsn=probe)
        hit = snap.filter(
            pc.is_in(snap["doc_id"], value_set=__import__("pyarrow").array(ids))
        )
        assert got.sort_by("doc_id").to_pylist() == hit.select(got.schema.names).to_pylist()

    with pytest.raises(LookupError):
        eng.epoch_for_lsn(5)  # pre-first-watermark
    with pytest.raises(ValueError):
        eng.snapshot_table(epoch=1, as_of_lsn=1999)  # mutually exclusive
