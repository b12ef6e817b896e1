"""LSM delta write mode: chain growth, compaction, oracle equality,
resume, schema evolution across deltas."""

from __future__ import annotations

import os

import pytest

from tartare_ray.oracle import replay_oracle
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
from tartare_ray.state.manifest import load_current


@pytest.fixture()
def delta_engine(tmp_log, ray_session):
    res, cfg, tmp_path = tmp_log  # 5 files x 1000 events, widen@0.6 add@0.8
    root = str(tmp_path / "table-delta")
    eng = CdcEngine(
        os.path.dirname(res.files[0]),
        root,
        EngineConfig(
            num_partitions=4,
            epoch_max_files=1,  # 5 epochs -> chains form
            write_mode="delta",
            compact_chain_len=3,  # compaction triggers mid-replay
        ),
    )
    return eng, res


def test_delta_replay_matches_oracle(delta_engine):
    eng, res = delta_engine
    m = eng.replay()
    assert m.epoch == 5
    expected = replay_oracle(res.files)
    actual = eng.snapshot_table()
    assert actual.schema.names == expected.schema.names
    assert len(actual) == len(expected)
    for col in actual.schema.names:  # token-array equality included
        assert actual[col].to_pylist() == expected[col].to_pylist(), col


def test_delta_chains_and_compaction(delta_engine):
    eng, res = delta_engine
    m = eng.replay()
    kinds = {}
    for pl in m.partitions:
        kinds.setdefault(pl.p, []).append(pl.kind)
    # compaction (chain_len 3) must have fired: no chain may exceed it
    for p, ks in kinds.items():
        assert len(ks) <= 3, (p, ks)
        assert ks[0] in ("base", "delta")
        # at most one base, and only at the head of the chain
        assert ks.count("base") <= 1
        if "base" in ks:
            assert ks[0] == "base"
    # some delta files should exist on disk after 5 epochs w/ chain 3
    data = os.listdir(os.path.join(eng.table_root, "data"))
    assert any(f.startswith("delta-") for f in data)


def test_delta_snapshot_dataset_merges(delta_engine):
    eng, res = delta_engine
    eng.replay()
    expected = replay_oracle(res.files)
    ds = eng.snapshot_dataset()
    got = ds.to_pandas().sort_values("doc_id", ignore_index=True)
    assert len(got) == len(expected)
    assert got["doc_id"].tolist() == expected["doc_id"].to_pylist()
    assert [list(x) for x in got["tokens"]] == expected["tokens"].to_pylist()


def test_delta_resume_mid_replay(delta_engine):
    eng, res = delta_engine
    for _ in range(2):
        eng.run_epoch()
    mid = load_current(eng.table_root)
    assert mid.epoch == 2
    eng2 = CdcEngine(eng.log_dir, eng.table_root, eng.cfg)  # fresh handle
    m = eng2.replay()
    assert m.epoch == 5
    expected = replay_oracle(res.files)
    actual = eng2.snapshot_table()
    for col in actual.schema.names:
        assert actual[col].to_pylist() == expected[col].to_pylist(), col


def test_delta_rerun_noop(delta_engine):
    eng, res = delta_engine
    m = eng.replay()
    m2 = eng.replay()
    assert m2.epoch == m.epoch and m2.watermark_lsn == m.watermark_lsn


def test_time_travel_and_change_feed(delta_engine):
    """snapshot_table(epoch=k) must equal the oracle over the log
    prefix committed by epoch k; changes_dataset(k) must be the
    latest-per-key winners of epoch k's LSN range (delta fast path
    and log-derived path agree)."""
    from tartare_ray.state.manifest import load_epoch

    eng, res = delta_engine
    eng.replay()
    for k in (1, 3, 5):
        mk = load_epoch(eng.table_root, k)
        prefix = [f for f in res.files]  # files are LSN-ordered, 1000 rows each
        snap = eng.snapshot_table(epoch=k)
        exp = replay_oracle(prefix[:k])
        assert snap["doc_id"].to_pylist() == exp["doc_id"].to_pylist()
        for col in set(snap.schema.names) & set(exp.schema.names):
            assert snap[col].to_pylist() == exp[col].to_pylist(), (k, col)
        import pyarrow as pa

        feed = pa.concat_tables(
            eng.changes_dataset(k).iter_batches(batch_format="pyarrow", batch_size=None)
        )
        lo = load_epoch(eng.table_root, k - 1).watermark_lsn if k > 1 else -1
        lsns = feed["lsn"].to_pylist()
        assert all(lo < x <= mk.watermark_lsn for x in lsns)
        ids = feed["doc_id"].to_pylist()
        assert len(ids) == len(set(ids))
        assert set(feed["op"].to_pylist()) <= {"I", "U", "D"}
        # feed carries the full snapshot payload schema + envelope
        assert set(mk.schema.names) <= set(feed.schema.names)


def test_change_feed_paths_agree(tmp_log, ray_session):
    """cow (log-derived) and delta (file-served) change feeds for the
    same epoch are identical."""
    res, cfg, tmp_path = tmp_log
    log = os.path.dirname(res.files[0])
    feeds = {}
    for mode in ("cow", "delta"):
        eng = CdcEngine(
            log, str(tmp_path / f"t-{mode}"),
            EngineConfig(num_partitions=4, epoch_max_files=1, write_mode=mode),
        )
        import pyarrow as pa

        eng.run_epoch(); eng.run_epoch()
        t = pa.concat_tables(
            eng.changes_dataset(2).iter_batches(batch_format="pyarrow", batch_size=None)
        )
        feeds[mode] = t.select(sorted(t.schema.names)).sort_by([("doc_id", "ascending")])
    a, b = feeds["cow"], feeds["delta"]
    assert a.schema.names == b.schema.names
    assert len(a) == len(b)
    for c in a.schema.names:
        assert a[c].to_pylist() == b[c].to_pylist(), c


def test_explicit_compact_folds_all_chains(tmp_log, ray_session):
    res, cfg, tmp_path = tmp_log
    eng = CdcEngine(
        os.path.dirname(res.files[0]),
        str(tmp_path / "table-compact"),
        EngineConfig(
            num_partitions=4, epoch_max_files=1, write_mode="delta",
            compact_chain_len=100,  # never auto-compacts: chains stay live
        ),
    )
    eng.replay()
    cur = load_current(eng.table_root)
    assert any(pl.kind == "delta" for pl in cur.partitions)
    snap_before = eng.snapshot_table()
    m = eng.compact()
    assert m is not None and all(pl.kind == "base" for pl in m.partitions)
    assert m.watermark_lsn == 4999
    snap_after = eng.snapshot_table()
    assert snap_before["doc_id"].to_pylist() == snap_after["doc_id"].to_pylist()
    for col in snap_before.schema.names:
        assert snap_before[col].to_pylist() == snap_after[col].to_pylist(), col
    # idempotent: second compact is a no-op
    assert eng.compact() is None


def test_targeted_compact_folds_only_selected(tmp_log, ray_session):
    """compact(partitions=[...]) rewrites only the selected chains —
    the operational lever for one hot partition."""
    res, cfg, tmp_path = tmp_log
    eng = CdcEngine(
        os.path.dirname(res.files[0]),
        str(tmp_path / "table-target"),
        EngineConfig(
            num_partitions=4, epoch_max_files=1, write_mode="delta",
            compact_chain_len=100,
        ),
    )
    eng.replay()
    snap_before = eng.snapshot_table()
    m = eng.compact(partitions=[0, 2])
    kinds = {}
    for pl in m.partitions:
        kinds.setdefault(pl.p, []).append(pl.kind)
    assert kinds[0] == ["base"] and kinds[2] == ["base"]
    assert any(k == "delta" for k in kinds[1]) and any(k == "delta" for k in kinds[3])
    snap_after = eng.snapshot_table()
    for col in snap_before.schema.names:
        assert snap_before[col].to_pylist() == snap_after[col].to_pylist(), col
    # selecting already-compacted partitions is a no-op
    assert eng.compact(partitions=[0, 2]) is None
    # the rest folds on the full pass
    m2 = eng.compact()
    assert m2 is not None and all(pl.kind == "base" for pl in m2.partitions)
