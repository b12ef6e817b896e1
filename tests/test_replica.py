"""sync_replica: a downstream table kept row-for-row identical to the
source through the change feed, incrementally and exactly-once."""

from __future__ import annotations

import os
import shutil

from tartare_ray.gen import GenConfig, generate_log
from tartare_ray.oracle import replay_oracle
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
from tartare_ray.pipelines.replica import sync_replica


def _assert_eq(a, b):
    a, b = a.sort_by("doc_id"), b.sort_by("doc_id")
    assert a.schema.names == b.schema.names
    for col in a.schema.names:
        assert a[col].to_pylist() == b[col].to_pylist(), col


def test_replica_tracks_source_incrementally(ray_session, tmp_path):
    staging = str(tmp_path / "staging")
    res = generate_log(
        staging,
        GenConfig(n_events=8000, n_docs=400, events_per_file=2000, add_col_frac=0.3),
    )
    log = str(tmp_path / "log")
    os.makedirs(log)
    for f in res.files[:2]:
        shutil.copy(f, log)
    src = CdcEngine(
        log,
        str(tmp_path / "src"),
        EngineConfig(num_partitions=4, write_mode="delta", epoch_max_files=1),
    )
    src.replay()

    dest_work = str(tmp_path / "replica")
    dest = sync_replica(src, dest_work)
    _assert_eq(dest.snapshot_table(), src.snapshot_table())
    _assert_eq(dest.snapshot_table(), replay_oracle(res.files[:2]))

    # source advances (incl. the evolved quality column) -> incremental sync
    for f in res.files[2:]:
        shutil.copy(f, log)
    src.replay()
    dest = sync_replica(src, dest_work)
    _assert_eq(dest.snapshot_table(), src.snapshot_table())
    _assert_eq(dest.snapshot_table(), replay_oracle(res.files))
    # consumer fully acked; re-sync is a no-op that returns the engine
    assert src.consumers()["replica-sync"] == 4
    dest2 = sync_replica(src, dest_work)
    _assert_eq(dest2.snapshot_table(), dest.snapshot_table())


def test_replica_first_synced_after_gc_matches_source(ray_session, tmp_path):
    """A replica first synced after ``gc_epochs`` dropped epochs it
    never consumed must still hold the whole source table: it is seeded
    from the snapshot at the oldest retained epoch, then follows the
    feed from there."""
    from tartare_ray.state.manifest import gc_epochs, list_committed_epochs

    staging = str(tmp_path / "staging")
    res = generate_log(
        staging, GenConfig(n_events=8000, n_docs=400, events_per_file=2000)
    )
    log = str(tmp_path / "log")
    os.makedirs(log)
    for f in res.files[:3]:
        shutil.copy(f, log)
    src = CdcEngine(
        log,
        str(tmp_path / "src"),
        EngineConfig(num_partitions=4, write_mode="delta", epoch_max_files=1),
    )
    src.replay()
    gc_epochs(src.table_root, keep_last=1)
    assert list_committed_epochs(src.table_root) == [3]

    dest_work = str(tmp_path / "replica")
    dest = sync_replica(src, dest_work)
    _assert_eq(dest.snapshot_table(), src.snapshot_table())

    shutil.copy(res.files[3], log)
    src.replay()
    dest = sync_replica(src, dest_work)
    _assert_eq(dest.snapshot_table(), replay_oracle(res.files))
    assert src.consumers()["replica-sync"] == 4


def test_replica_redelivery_is_idempotent(ray_session, tmp_path):
    """A crash before ack re-delivers the epoch: force it by resetting
    the cursor — the feed dirs already exist, the replica replay is
    watermark-guarded, and the result is unchanged."""
    from tartare_ray.state.consumers import clamp_all

    res = generate_log(
        str(tmp_path / "log"),
        GenConfig(n_events=6000, n_docs=300, events_per_file=2000),
    )
    src = CdcEngine(
        os.path.dirname(res.files[0]),
        str(tmp_path / "src"),
        EngineConfig(num_partitions=4, write_mode="delta", epoch_max_files=1),
    )
    src.replay()
    dest_work = str(tmp_path / "replica")
    dest = sync_replica(src, dest_work)
    want = dest.snapshot_table()

    clamp_all(src.table_root, 0)  # simulate: every ack lost
    dest2 = sync_replica(src, dest_work)
    _assert_eq(dest2.snapshot_table(), want)
    assert src.consumers()["replica-sync"] == 3


def test_cdc_replica_sync_query_matches_source(ray_session):
    from tartare_ray.pipelines.queries import QUERIES

    src = QUERIES["cdc_apply_small"]("/root/testdata/sf0.001").to_pandas()
    rep = QUERIES["cdc_replica_sync"]("/root/testdata/sf0.001").to_pandas()
    cols = sorted(src.columns)
    a = src[cols].sort_values(by=cols, ignore_index=True)
    b = rep[cols].sort_values(by=cols, ignore_index=True)
    assert a.equals(b) and len(a) > 0


def test_replica_follows_source_rollback(ray_session, tmp_path):
    """A source rollback + changed-log replay re-commits epochs under
    the same numbers; the replica must detect the divergence (feed
    identity markers), roll itself back, and converge on the corrected
    history instead of silently keeping discarded data."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    staging = str(tmp_path / "staging")
    res = generate_log(
        staging, GenConfig(n_events=6000, n_docs=300, events_per_file=2000)
    )
    log = str(tmp_path / "log")
    os.makedirs(log)
    for f in res.files:
        shutil.copy(f, log)
    src = CdcEngine(
        log,
        str(tmp_path / "src"),
        EngineConfig(num_partitions=4, write_mode="delta", epoch_max_files=1),
    )
    src.replay()
    dest_work = str(tmp_path / "replica")
    dest = sync_replica(src, dest_work)
    _assert_eq(dest.snapshot_table(), src.snapshot_table())

    # incident: epochs 2-3 were bad — roll back, FIX the log (drop the
    # last file, rewrite file 2 with shuffled values), replay
    src.rollback(1)
    third = sorted(
        os.path.join(log, n) for n in os.listdir(log) if n.endswith(".parquet")
    )
    os.remove(third[2])  # the last wave is withdrawn entirely
    t = pq.read_table(third[1])
    fixed = t.set_column(
        t.schema.get_field_index("source"),
        "source",
        pa.array(["fixed"] * len(t)),
    )
    pq.write_table(fixed, third[1])
    src.replay()

    dest = sync_replica(src, dest_work)
    _assert_eq(dest.snapshot_table(), src.snapshot_table())
    # the corrected rows really arrived
    assert "fixed" in set(dest.snapshot_table()["source"].to_pylist())
    # no feed dir beyond the source head survives
    feeds = sorted(os.listdir(os.path.join(dest_work, "log")))
    assert feeds == ["feed-e000001", "feed-e000002"]


def test_replica_of_replica_chains(ray_session, tmp_path):
    """The replica is an ordinary engine, so a second-level replica
    syncs from the first's change feed — multi-hop distribution by
    composition."""
    res = generate_log(
        str(tmp_path / "log"),
        GenConfig(n_events=4000, n_docs=300, events_per_file=2000),
    )
    src = CdcEngine(
        os.path.dirname(res.files[0]),
        str(tmp_path / "src"),
        EngineConfig(num_partitions=4, write_mode="delta", epoch_max_files=1),
    )
    src.replay()
    hop1 = sync_replica(src, str(tmp_path / "r1"))
    hop2 = sync_replica(hop1, str(tmp_path / "r2"))
    _assert_eq(hop2.snapshot_table(), src.snapshot_table())
    _assert_eq(hop2.snapshot_table(), replay_oracle(res.files))
