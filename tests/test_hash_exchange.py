"""The exchange-free write path (stages/apply.py): every validated
block writes its own per-part split files (SplitApplier tasks), and
one task per touched partition merges them by LSN into the epoch's
one winners file (MergeApplier.fold_splits).  One partition's rows
always span several blocks, so correctness rests on the split files
carrying disjoint LSN sets that the fold resolves by LSN.  The test
names keep the hash exchange this path replaced."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tartare_ray.gen import GenConfig, generate_log
from tartare_ray.oracle import replay_oracle
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig


def _assert_table_equals(actual: pa.Table, expected: pa.Table):
    assert actual.num_rows == expected.num_rows
    assert actual.schema.names == expected.schema.names
    for col in expected.schema.names:
        assert actual[col].to_pylist() == expected[col].to_pylist(), col


@pytest.fixture()
def gen_dir(tmp_path):
    log = str(tmp_path / "log")
    res = generate_log(
        log,
        GenConfig(
            n_events=60_000,
            n_docs=5_000,
            events_per_file=15_000,
            widen_frac=0.5,
            add_col_frac=0.75,
            zipf_s=1.3,
        ),
    )
    return log, res


def test_hash_exchange_replay_matches_oracle(ray_session, gen_dir, tmp_path):
    from tartare_ray.state.manifest import load_epoch

    log, res = gen_dir
    root = str(tmp_path / "table")
    eng = CdcEngine(
        log,
        root,
        EngineConfig(num_partitions=8, write_mode="delta", epoch_max_files=2),
    )
    m = eng.replay()
    _assert_table_equals(eng.snapshot_table(), replay_oracle(res.files))
    # every epoch keeps exactly one winners file per touched partition,
    # and no split file outlives its epoch's commit
    for e in range(1, m.epoch + 1):
        mine = [pl for pl in load_epoch(root, e).partitions if pl.epoch == e]
        assert len({pl.p for pl in mine}) == len(mine) > 0
        assert all(os.path.basename(pl.file) == f"delta-{pl.p:05d}-e{e:06d}.parquet" for pl in mine)
    assert not [f for f in os.listdir(os.path.join(root, "data")) if "-s" in f]


@pytest.mark.slow
def test_hash_exchange_with_late_materialization_matches_oracle(
    ray_session, gen_dir, tmp_path
):
    """The flagship bench combination (BASELINE.md): phase-1 winner
    envelope prunes the split writers' input to winners only.  Must
    equal the oracle exactly across multi-epoch replay."""
    log, res = gen_dir
    eng = CdcEngine(
        log,
        str(tmp_path / "table"),
        EngineConfig(
            num_partitions=8,
            write_mode="delta",
            epoch_max_files=2,
            late_materialization=True,
            late_mat_max_ratio=1.01,  # force the two-phase path
        ),
    )
    eng.replay()
    _assert_table_equals(eng.snapshot_table(), replay_oracle(res.files))


def test_split_applier_same_epoch_splits_fold_by_lsn(ray_session, tmp_path):
    """The machinery every epoch exercises, tested directly: one
    part's epoch rows arrive at SplitApplier in two separate calls
    (two blocks) with interleaved LSNs for the same doc_ids; each call
    writes its own split file; MergeApplier.fold_splits merges both
    into one winners file of per-doc max-LSN rows, and merge_chain
    folds base + that file (or base + both splits, as a table written
    by the hash exchange holds them) to the same state."""
    import json

    from tartare_ray.schema import BASE_SCHEMA
    from tartare_ray.stages.apply import MergeApplier, SplitApplier
    from tartare_ray.stages.compact import merge_chain
    from tartare_ray.stages.kernels import key_hash

    root = str(tmp_path / "table")
    os.makedirs(root, exist_ok=True)

    def change_batch(rows):
        # rows: (lsn, op, doc_id, tokens)
        did = pa.array([r[2] for r in rows])
        return pa.table(
            {
                "op": pa.array([r[1] for r in rows]),
                "lsn": pa.array([r[0] for r in rows], pa.int64()),
                "doc_id": did,
                "tokens": pa.array(
                    [r[3] for r in rows], pa.list_(pa.int32())
                ),
                "n_tok": pa.array(
                    [len(r[3]) if r[3] is not None else None for r in rows],
                    pa.int32(),
                ),
                "source": pa.array(["s"] * len(rows)),
                "part": pa.array([0] * len(rows), pa.int32()),
                "doc_hash": pa.array(key_hash(did).view(np.int64)),
            }
        )

    applier = SplitApplier(root, epoch=2, snapshot_schema=BASE_SCHEMA)
    # split 1 carries the LOSING newer-doc rows for d1, winning for d2;
    # split 2 the reverse — chain position must NOT decide the fold
    l1 = applier(change_batch([(10, "U", "d1", [1]), (41, "U", "d2", [2, 2])]))
    l2 = applier(change_batch([(40, "U", "d1", [9, 9]), (11, "D", "d2", None)]))
    assert l1["kind"].to_pylist() == ["delta"] and l2["kind"].to_pylist() == ["delta"]
    f1, f2 = l1["file"].to_pylist()[0], l2["file"].to_pylist()[0]
    assert f1 != f2  # content-derived split ids cannot collide
    base = pa.table(
        {
            "doc_id": pa.array(["d1", "d2", "d3"]),
            "tokens": pa.array([[7], [8], [3]], pa.list_(pa.int32())),
            "n_tok": pa.array([1, 1, 1], pa.int32()),
            "source": pa.array(["s", "s", "s"]),
        }
    )
    merged = merge_chain(
        [base, pq.read_table(os.path.join(root, f1)), pq.read_table(os.path.join(root, f2))],
        BASE_SCHEMA,
    )
    state = {r["doc_id"]: r["tokens"] for r in merged.to_pylist()}
    # d1: lsn 40 [9,9] beats lsn 10 [1]; d2: lsn 41 U beats lsn 11 D
    # (chain position says otherwise on both — LSN must decide);
    # d3: base only.
    assert state == {"d1": [9, 9], "d2": [2, 2], "d3": [3]}

    folder = MergeApplier(
        root, epoch=2, snapshot_schema=BASE_SCHEMA, parent_chain={}, mode="delta"
    )
    item = pa.table(
        {
            "p": pa.array([0], pa.int32()),
            "splits_json": [json.dumps([f1, f2])],
            "lsn_lo": pa.array([10], pa.int64()),
            "lsn_hi": pa.array([41], pa.int64()),
            "events_applied": pa.array([4], pa.int64()),
        }
    )
    lin = folder.fold_splits(item).to_pylist()
    assert [(r["p"], r["kind"], r["rows"], r["events_applied"]) for r in lin] == [
        (0, "delta", 2, 4)
    ]
    winners = pq.read_table(os.path.join(root, lin[0]["file"]))
    assert sorted(zip(winners["doc_id"].to_pylist(), winners["lsn"].to_pylist())) == [
        ("d1", 40), ("d2", 41)
    ]
    merged = merge_chain([base, winners], BASE_SCHEMA)
    assert {r["doc_id"]: r["tokens"] for r in merged.to_pylist()} == state


def test_split_applier_retry_writes_identical_file(ray_session, tmp_path):
    """A retried task (same batch) rewrites the SAME file name with the
    same bytes — the exactly-once argument for split mode."""
    from tartare_ray.schema import BASE_SCHEMA
    from tartare_ray.stages.apply import SplitApplier
    from tartare_ray.stages.kernels import key_hash

    root = str(tmp_path / "table")
    did = pa.array(["a", "b"])
    batch = pa.table(
        {
            "op": pa.array(["U", "U"]),
            "lsn": pa.array([5, 6], pa.int64()),
            "doc_id": did,
            "tokens": pa.array([[1], [2]], pa.list_(pa.int32())),
            "n_tok": pa.array([1, 1], pa.int32()),
            "source": pa.array(["s", "s"]),
            "part": pa.array([0, 0], pa.int32()),
            "doc_hash": pa.array(key_hash(did).view(np.int64)),
        }
    )
    a1 = SplitApplier(root, epoch=1, snapshot_schema=BASE_SCHEMA)
    f1 = a1(batch)["file"].to_pylist()[0]
    bytes1 = open(os.path.join(root, f1), "rb").read()
    a2 = SplitApplier(root, epoch=1, snapshot_schema=BASE_SCHEMA)
    f2 = a2(batch)["file"].to_pylist()[0]
    assert f1 == f2
    assert open(os.path.join(root, f2), "rb").read() == bytes1


@pytest.mark.slow
def test_hash_exchange_triggers_compaction(ray_session, gen_dir, tmp_path):
    """Chains that reach compact_chain_len are folded by the epoch's
    own fold task."""
    log, res = gen_dir
    eng = CdcEngine(
        log,
        str(tmp_path / "table"),
        EngineConfig(
            num_partitions=8,
            write_mode="delta",
            epoch_max_files=1,
            compact_chain_len=3,
        ),
    )
    m = eng.replay()
    from collections import Counter

    per_p = Counter(pl.p for pl in m.partitions)
    assert max(per_p.values()) < 3 + 2  # chains kept bounded
    _assert_table_equals(eng.snapshot_table(), replay_oracle(res.files))


@pytest.mark.slow
def test_changes_dataset_split_epoch_unique_winners(ray_session, gen_dir, tmp_path):
    """An epoch's change feed must still emit ≤1 winner per doc_id
    when small blocks spread a part's winners over many split files."""
    import ray.data

    log, res = gen_dir
    ctx = ray.data.DataContext.get_current()
    prev = ctx.target_max_block_size
    ctx.target_max_block_size = 64 << 10
    try:
        eng = CdcEngine(
            log,
            str(tmp_path / "table"),
            EngineConfig(
                num_partitions=4,
                write_mode="delta",
                compact_chain_len=1000,
            ),
        )
        m = eng.replay()
        feed = eng.changes_dataset(m.epoch)
        ids = []
        for b in feed.iter_batches(batch_format="pyarrow"):
            ids.append(b["doc_id"].to_numpy(zero_copy_only=False))
    finally:
        ctx.target_max_block_size = prev
    allids = np.concatenate(ids)
    assert len(allids) == len(np.unique(allids))
    # feed winners == latest event per doc in the epoch's LSN range
    lo = -1
    hi = m.watermark_lsn
    latest: dict[str, int] = {}
    for f in res.files:
        t = pq.read_table(f, columns=["lsn", "doc_id"])
        for lsn, did in zip(t["lsn"].to_pylist(), t["doc_id"].to_pylist()):
            if lo < lsn <= hi and (did not in latest or latest[did] < lsn):
                latest[did] = lsn
    assert len(allids) == len(latest)


def test_hash_exchange_idempotent_rereplay(ray_session, gen_dir, tmp_path):
    """Replaying an already-committed table is a no-op (watermark
    skip), and a second engine over the same log converges to the
    same state."""
    log, res = gen_dir
    root = str(tmp_path / "table")
    cfg = EngineConfig(num_partitions=8, write_mode="delta")
    eng = CdcEngine(log, root, cfg)
    m1 = eng.replay()
    snap1 = eng.snapshot_table()
    m2 = eng.run_epoch()
    assert m2 is None  # log exhausted
    _assert_table_equals(eng.snapshot_table(), snap1)


def test_envelope_prefetch_hits_and_matches_oracle(ray_session, gen_dir, tmp_path):
    """Epoch pipelining: with prefetch_envelope on (default), epochs
    after the first consume the background-computed winner set
    (phases.envelope_prefetched true) and the final table still equals
    the oracle exactly."""
    import json
    import os

    log, res = gen_dir
    eng = CdcEngine(
        log,
        str(tmp_path / "table"),
        EngineConfig(
            num_partitions=8,
            write_mode="delta",
            epoch_max_files=2,
            late_materialization=True,
            late_mat_max_ratio=1.01,
        ),
    )
    m = eng.replay()
    assert m.epoch >= 2
    _assert_table_equals(eng.snapshot_table(), replay_oracle(res.files))
    flags = []
    for e in range(1, m.epoch + 1):
        p = os.path.join(str(tmp_path / "table"), "_metrics", f"e{e:06d}.json")
        flags.append(json.load(open(p))["phases"].get("envelope_prefetched"))
    assert flags[0] is False  # nothing to prefetch before epoch 1
    assert all(flags[1:]), flags  # every later epoch hit the prefetch


def test_envelope_prefetch_miss_on_grown_log(ray_session, tmp_path):
    """Tail mode: files arriving AFTER epoch E's prefetch was planned
    change epoch E+1's file set — the stale prefetch must be discarded
    (miss) and the epoch recomputed inline, still matching the oracle."""
    import json
    import os
    import shutil

    staging = str(tmp_path / "staging")
    res = generate_log(
        staging, GenConfig(n_events=4000, n_docs=300, events_per_file=1000)
    )
    live = str(tmp_path / "live")
    os.makedirs(live)
    shutil.copy(res.files[0], live)
    shutil.copy(res.files[1], live)
    eng = CdcEngine(
        live,
        str(tmp_path / "table"),
        EngineConfig(
            num_partitions=4,
            write_mode="delta",
            epoch_max_files=2,
            late_materialization=True,
            late_mat_max_ratio=1.01,
        ),
    )
    eng.run_epoch()  # epoch 1 over files 0-1; prefetch planned = EMPTY rest
    # two more files arrive — epoch 2's real plan differs from anything
    # the prefetch could have seen
    shutil.copy(res.files[2], live)
    shutil.copy(res.files[3], live)
    m = eng.run_epoch()
    assert m is not None and m.epoch == 2
    p = os.path.join(str(tmp_path / "table"), "_metrics", "e000002.json")
    assert json.load(open(p))["phases"]["envelope_prefetched"] is False
    _assert_table_equals(eng.snapshot_table(), replay_oracle(res.files))


def test_hash_path_crash_before_commit_is_exactly_once(ray_session, gen_dir, tmp_path):
    """Flagship-config variant of the two-phase crash test: kill after
    the split files and winners files are written but before the
    manifest/CURRENT swap.  Re-run must converge to the oracle, any
    orphaned split files from the crashed attempt must never be
    referenced by a committed manifest, and gc_epochs must reclaim
    them."""
    import pytest

    from tartare_ray.state.manifest import gc_epochs, load_current, load_epoch

    log, res = gen_dir
    root = str(tmp_path / "table")
    cfg = EngineConfig(
        num_partitions=8,
        write_mode="delta",
        epoch_max_files=2,
        late_materialization=True,
        late_mat_max_ratio=1.01,
    )

    class CrashingEngine(CdcEngine):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            self.crashed = False

        def _commit(self, m):
            if m.epoch == 2 and not self.crashed:
                self.crashed = True
                raise RuntimeError("injected crash before CURRENT swap")
            super()._commit(m)

    eng = CrashingEngine(log, root, cfg)
    with pytest.raises(RuntimeError, match="injected crash"):
        eng.replay()
    assert load_current(root).epoch == 1
    on_disk_after_crash = set(os.listdir(os.path.join(root, "data")))

    final = CdcEngine(log, root, cfg).replay()
    _assert_table_equals(CdcEngine(log, root, cfg).snapshot_table(), replay_oracle(res.files))

    referenced = set()
    for e in range(1, final.epoch + 1):
        m = load_epoch(root, e)
        if m is not None:
            referenced |= {os.path.basename(pl.file) for pl in m.partitions}
    orphans = {
        f for f in on_disk_after_crash if f.endswith(".parquet") and f not in referenced
    }
    # whether retry block-splitting reproduced the same names or not,
    # nothing unreferenced may survive a gc pass
    gc_epochs(root, keep_last=final.epoch)
    left = set(os.listdir(os.path.join(root, "data")))
    assert not (orphans & left), orphans & left
    _assert_table_equals(CdcEngine(log, root, cfg).snapshot_table(), replay_oracle(res.files))


def test_crash_after_commit_leaves_no_split_files(ray_session, tmp_path):
    """A crash between the manifest commit and the split cleanup leaves
    the committed epoch's split files behind; the next epoch's
    gc_orphans removes them and the replay still equals the oracle."""
    import pytest

    res = generate_log(
        str(tmp_path / "log"), GenConfig(n_events=4000, n_docs=300, events_per_file=1000)
    )
    log = os.path.dirname(res.files[0])
    root = str(tmp_path / "table")
    cfg = EngineConfig(num_partitions=4, write_mode="delta", epoch_max_files=2)

    class CrashAfterCommit(CdcEngine):
        def _commit(self, m):
            super()._commit(m)
            raise RuntimeError("injected crash after CURRENT swap")

    with pytest.raises(RuntimeError, match="injected crash"):
        CrashAfterCommit(log, root, cfg).run_epoch()
    data = os.path.join(root, "data")
    assert any("-s" in f for f in os.listdir(data))
    eng = CdcEngine(log, root, cfg)
    m = eng.replay()
    assert m.epoch == 2
    assert not any("-s" in f for f in os.listdir(data))
    _assert_table_equals(eng.snapshot_table(), replay_oracle(res.files))


def test_gc_orphans_keeps_referenced_split_files(tmp_path):
    """gc_orphans removes split files above CURRENT and CURRENT's
    unreferenced ones, never a split file a manifest references (a
    table written by the hash exchange keeps its splits in its chains)."""
    from tartare_ray.schema import BASE_SCHEMA
    from tartare_ray.state.manifest import (
        Manifest,
        PartitionLineage,
        commit_manifest,
        gc_orphans,
    )

    root = str(tmp_path / "table")
    data = os.path.join(root, "data")
    os.makedirs(data)
    carried = "delta-00001-e000001-s00000000000000aa.parquet"
    current = "delta-00000-e000002-s00000000000000bb.parquet"
    stale = "delta-00000-e000002-s00000000000000cc.parquet"
    future = "delta-00003-e000003-s00000000000000dd.parquet"
    winners = "delta-00002-e000002.parquet"
    for name in (carried, current, stale, future, winners):
        open(os.path.join(data, name), "wb").close()

    def lineage(p, name, epoch):
        return PartitionLineage(
            p=p, file=f"data/{name}", rows=1, lsn_lo=0, lsn_hi=1,
            events_applied=1, bytes=1, kind="delta", epoch=epoch,
        )

    def manifest(epoch, partitions):
        return Manifest(
            epoch=epoch,
            parent_epoch=epoch - 1 if epoch > 1 else None,
            watermark_lsn=epoch,
            schema_b64=Manifest.encode_schema(BASE_SCHEMA),
            schema_fingerprint="f",
            partitions=partitions,
        )

    commit_manifest(root, manifest(1, [lineage(1, carried, 1)]))
    commit_manifest(
        root,
        manifest(2, [lineage(0, current, 2), lineage(1, carried, 1), lineage(2, winners, 2)]),
    )
    assert gc_orphans(root) == 2
    assert set(os.listdir(data)) == {carried, current, winners}
