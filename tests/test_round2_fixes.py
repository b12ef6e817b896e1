"""Round-2 hardening: GC × incremental-view retention, batch-invariant
row-filter ingest steps, quarantine rules on the cow change feed,
and content-honest publish."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from tartare_ray.gen import GenConfig, generate_log
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
from tartare_ray.pipelines.views import IncrementalAggView
from tartare_ray.state.manifest import gc_epochs, load_current
from tartare_ray.state.publish import publish_snapshot


def _mk_log(log_dir: str, tables: list[pa.Table]) -> list[str]:
    os.makedirs(log_dir, exist_ok=True)
    out = []
    for i, t in enumerate(tables):
        p = os.path.join(log_dir, f"events-{i:06d}.parquet")
        pq.write_table(t, p)
        out.append(p)
    return out


def _events(rows):
    """rows: (lsn, op, doc_id, tokens)"""
    return pa.table(
        {
            "lsn": pa.array([r[0] for r in rows], pa.int64()),
            "op": pa.array([r[1] for r in rows]),
            "doc_id": pa.array([r[2] for r in rows]),
            "tokens": pa.array([r[3] for r in rows], pa.list_(pa.int32())),
            "n_tok": pa.array(
                [len(r[3]) if r[3] is not None else None for r in rows], pa.int32()
            ),
            "source": pa.array(["s"] * len(rows)),
            "schema_version": pa.array([1] * len(rows), pa.int32()),
        }
    )


# --- GC × view retention ---------------------------------------------------


def test_gc_respects_lagging_view(ray_session, tmp_path):
    """gc_epochs must keep every epoch a persisted view still needs:
    a view checkpointed at epoch 1 under a 3-epoch table blocks the
    keep_last=1 deletion of epochs 1-2; update_to() afterwards is
    still exact, and once the view caught up GC reclaims them."""
    res = generate_log(
        str(tmp_path / "log"),
        GenConfig(n_events=4000, n_docs=300, events_per_file=1000),
    )
    root = str(tmp_path / "table")
    eng = CdcEngine(
        str(tmp_path / "log"), root, EngineConfig(num_partitions=4, epoch_max_files=2)
    )
    m = eng.replay()
    assert m.epoch == 2
    view = IncrementalAggView(eng, "by_source", "source", "n_tok")
    view.update_to(1)  # checkpoint lagging at epoch 1

    removed = gc_epochs(root, keep_last=1)
    # epoch-1 manifest (the view's resume point / parent of its next
    # delta) must survive even though keep_last=1 would drop it
    assert os.path.exists(os.path.join(root, "_manifests", "e000001.json"))

    state = view.update_to()  # catches up reading the retained chains
    snap = eng.snapshot_table()
    by_src: dict[str, list[float]] = {}
    for s, n in zip(snap["source"].to_pylist(), snap["n_tok"].to_pylist()):
        acc = by_src.setdefault(s, [0, 0.0])
        acc[0] += 1
        acc[1] += float(n)
    assert {k: [int(c), float(s)] for k, (c, s) in state.items()} == by_src

    # view is now at CURRENT -> old epochs reclaimable
    gc_epochs(root, keep_last=1)
    assert not os.path.exists(os.path.join(root, "_manifests", "e000001.json"))


def test_gc_epochs_excludes_concurrent_writer(ray_session, tmp_path):
    """gc_epochs takes the single-writer flock: it fails fast instead
    of deleting an in-flight epoch's uncommitted files."""
    from tartare_ray.state.lock import ConcurrentWriterError, WriterLock

    res = generate_log(
        str(tmp_path / "log"), GenConfig(n_events=1000, n_docs=100, events_per_file=500)
    )
    root = str(tmp_path / "table")
    eng = CdcEngine(str(tmp_path / "log"), root, EngineConfig(num_partitions=2))
    eng.replay()
    lock = WriterLock(root)
    # flock is per-fd, so a second WriterLock in this process conflicts
    # exactly like a second engine process would
    with lock:
        with pytest.raises(ConcurrentWriterError):
            gc_epochs(root, keep_last=1)


# --- batch-invariant row-filter ingest steps -------------------------------


@pytest.fixture(scope="module")
def drop_big_step():
    from tartare_ray.functions.registry import _REGISTRY, register_step

    @register_step("drop_big_test", row_filter=True)
    def drop_big(batch: pa.Table, max_tok: int = 8) -> pa.Table:
        return batch.filter(pc.less_equal(batch["n_tok"], max_tok))

    yield "drop_big_test"
    _REGISTRY.pop("drop_big_test", None)


def _filter_log(tmp_path):
    # d1: old small event (lsn 1, passes) then new big one (lsn 40, fails)
    #     -> committed state must be the lsn-1 row (filter-then-reduce)
    # d2: big update (lsn 41, fails) then tombstone (lsn 50)
    #     -> tombstones bypass content filters; d2 absent
    # filler docs make multi-batch layouts possible
    rows = [(1, "I", "d1", [1, 2]), (41, "U", "d2", [9] * 50), (50, "D", "d2", None)]
    rows += [(2 + i, "I", f"f{i}", [i % 7]) for i in range(30)]
    rows += [(40, "U", "d1", [9] * 50)]
    return _mk_log(str(tmp_path / "log"), [_events(rows)])


@pytest.mark.parametrize("batch_size", [4, 4096])
@pytest.mark.parametrize("late_mat", [False, True])
def test_row_filter_batch_invariant(ray_session, tmp_path, drop_big_step, batch_size, late_mat):
    _filter_log(tmp_path)
    root = str(tmp_path / f"table-{batch_size}-{late_mat}")
    eng = CdcEngine(
        str(tmp_path / "log"),
        root,
        EngineConfig(
            num_partitions=2,
            validate_batch_size=batch_size,
            late_materialization=late_mat,
            ingest_steps=((drop_big_step, (("max_tok", 8),)),),
        ),
    )
    eng.run_epoch()
    snap = eng.snapshot_table()
    state = {
        d: t for d, t in zip(snap["doc_id"].to_pylist(), snap["tokens"].to_pylist())
    }
    assert state["d1"] == [1, 2]  # older surviving event wins, any layout
    assert "d2" not in state  # tombstone passed through the filter
    assert len(state) == 31  # d1 + 30 fillers


# --- the cow change feed honors quarantine rules ---------------------------


def test_changes_dataset_rederivation_excludes_quarantined(ray_session, tmp_path):
    rows = [(1, "I", "good", [1]), (3, "U", "good2", [2])]
    t = _events(rows)
    # malformed: bad op, null doc_id — the validate stage quarantines both
    bad = pa.table(
        {
            "lsn": pa.array([2, 4], pa.int64()),
            "op": pa.array(["X", "U"]),
            "doc_id": pa.array(["evil", None]),
            "tokens": pa.array([[9], [9]], pa.list_(pa.int32())),
            "n_tok": pa.array([1, 1], pa.int32()),
            "source": pa.array(["s", "s"]),
            "schema_version": pa.array([1, 1], pa.int32()),
        }
    )
    _mk_log(str(tmp_path / "log"), [pa.concat_tables([t, bad])])
    root = str(tmp_path / "table")
    # cow mode -> the feed is the winners file beside the folded base
    eng = CdcEngine(str(tmp_path / "log"), root, EngineConfig(num_partitions=2, write_mode="cow"))
    m = eng.run_epoch()
    feed = pa.concat_tables(
        [b for b in eng.changes_dataset(m.epoch).iter_batches(batch_format="pyarrow")]
    )
    ids = set(feed["doc_id"].to_pylist())
    assert ids == {"good", "good2"}  # quarantined rows never enter the feed


# --- publish: stale same-size bytes are replaced ---------------------------


def test_publish_replaces_stale_same_size_file(ray_session, tmp_path):
    log = str(tmp_path / "log")
    rows = [(i, "I", f"d{i}", [i % 7]) for i in range(400)]
    _mk_log(log, [_events(rows)])
    root = str(tmp_path / "table")
    eng = CdcEngine(log, root, EngineConfig(num_partitions=8, epoch_max_files=1))
    eng.run_epoch()
    dest = str(tmp_path / "dest")
    publish_snapshot(root, dest)
    m1 = load_current(dest)

    # epoch 2 touches exactly ONE partition (a single-doc event file);
    # pick the stale-bytes victim among the other 7, whose epoch-1
    # file stays referenced by CURRENT
    pq.write_table(_events([(400, "U", "d0", [9])]), os.path.join(log, "events-000001.parquet"))
    m2_touch = {
        pl.p for pl in eng.run_epoch().partitions if pl.epoch == 2
    }
    victim_pl = next(pl for pl in m1.partitions if pl.p not in m2_touch)

    # simulate a divergent destination: same name+size, different bytes
    victim = os.path.join(dest, victim_pl.file)
    size = os.path.getsize(victim)
    os.remove(victim)  # break the hard link BEFORE corrupting
    with open(victim, "wb") as f:
        f.write(b"\x00" * size)

    publish_snapshot(root, dest)  # epochs differ -> copy loop runs
    src_file = os.path.join(root, victim_pl.file)
    assert open(victim, "rb").read() == open(src_file, "rb").read()
    m2 = load_current(dest)
    assert m2.epoch == load_current(root).epoch
    for pl in m2.partitions:
        pq.read_table(os.path.join(dest, pl.file))


# --- review-pass regressions (round 2, second audit) ------------------------


def test_poison_straddler_does_not_skip_events(ray_session, tmp_path):
    """Multi-source logs: truncating at a poison file must also drop
    straddling files AND lower the watermark below them, so no event
    is ever jumped over."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tartare_ray.oracle import replay_oracle
    from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig, SchemaConflictError

    def wave(lsns, ttype=pa.list_(pa.int32()), tok=(1,)):
        n = len(lsns)
        return pa.table(
            {
                "lsn": pa.array(lsns, pa.int64()),
                "op": ["I"] * n,
                "doc_id": [f"d{i}" for i in lsns],
                "tokens": pa.array([list(tok)] * n, ttype),
                "n_tok": pa.array([len(tok)] * n, pa.int32()),
                "source": ["s"] * n,
                "schema_version": pa.array([1] * n, pa.int32()),
            }
        )

    log = tmp_path / "log"
    log.mkdir()
    pq.write_table(wave(range(0, 60)), str(log / "a.parquet"))
    pq.write_table(wave(range(60, 130)), str(log / "b.parquet"))  # straddles poison
    pq.write_table(
        wave(range(120, 160), ttype=pa.list_(pa.string()), tok=("x",)),
        str(log / "c.parquet"),
    )  # POISON overlapping b's range
    eng = CdcEngine(str(log), str(tmp_path / "t"), EngineConfig(num_partitions=2))
    m1 = eng.run_epoch()
    # only file a is safely below the straddler: watermark 59, not 129
    assert m1.watermark_lsn == 59
    with pytest.raises(SchemaConflictError):
        eng.run_epoch()
    # fix the poison -> replay applies b AND c with nothing lost
    pq.write_table(wave(range(120, 160)), str(log / "c.parquet"))
    eng.replay()
    snap = eng.snapshot_table()
    assert len(snap) == 160
    want = replay_oracle([str(log / n) for n in ("a.parquet", "b.parquet", "c.parquet")])
    assert snap.sort_by("doc_id").to_pylist() == want.sort_by("doc_id").to_pylist()


def test_cow_feed_applies_ingest_transforms(ray_session, tmp_path):
    """A cow epoch's feed must carry the configured ingest transforms,
    or the feed diverges from the committed table."""
    import pyarrow.compute as pc

    from tartare_ray.gen import GenConfig, generate_log
    from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig

    generate_log(
        str(tmp_path / "log"), GenConfig(n_events=2000, n_docs=200, max_len=40)
    )
    eng = CdcEngine(
        str(tmp_path / "log"),
        str(tmp_path / "t"),
        EngineConfig(
            num_partitions=2,
            ingest_steps=(("truncate_tokens", {"max_len": 8}),),
        ),  # cow mode: the feed is served from the winners files
    )
    m = eng.replay()
    import pyarrow as pa

    tbl = pa.concat_tables(
        eng.changes_dataset(m.epoch).iter_batches(batch_format="pyarrow")
    )
    live = tbl.filter(pc.invert(pc.equal(tbl["op"], "D")))
    assert pc.max(pc.list_value_length(live["tokens"])).as_py() <= 8
    assert pc.max(live["n_tok"]).as_py() <= 8


def test_changes_between_refuses_gcd_history(ray_session, tmp_path):
    from tartare_ray.gen import GenConfig, generate_log
    from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
    from tartare_ray.state.manifest import gc_epochs

    generate_log(
        str(tmp_path / "log"), GenConfig(n_events=6000, n_docs=300, events_per_file=2000)
    )
    eng = CdcEngine(
        str(tmp_path / "log"),
        str(tmp_path / "t"),
        EngineConfig(num_partitions=2, write_mode="delta", epoch_max_files=1),
    )
    eng.replay()
    gc_epochs(eng.table_root, keep_last=1)
    with pytest.raises(LookupError):
        eng.changes_between(-1, 5999)
    # range fully inside the retained epoch still serves
    assert eng.changes_between(3999, 5999).count() > 0


@pytest.mark.slow
def test_engine_config_not_mutated_across_engines(ray_session, tmp_path):
    from tartare_ray.gen import GenConfig, generate_log
    from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig

    generate_log(str(tmp_path / "log"), GenConfig(n_events=1000, n_docs=100))
    shared = EngineConfig(num_partitions=2)
    a = CdcEngine(str(tmp_path / "log"), str(tmp_path / "ta"), shared)
    a.replay()
    a.repartition_table(4)
    a.replay()  # adopts 4 into a's private config
    assert shared.num_partitions == 2  # the caller's object is untouched
    b = CdcEngine(str(tmp_path / "log"), str(tmp_path / "tb"), shared)
    b.replay()
    from tartare_ray.state.manifest import load_current

    assert load_current(b.table_root).num_partitions == 2


def test_view_handles_null_groups_and_empty_table(ray_session, tmp_path):
    import numpy as np

    from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
    from tartare_ray.pipelines.views import IncrementalAggView, _agg_contrib

    out = _agg_contrib(
        np.array(["a", None, "a"], dtype=object), np.array([1.0, 2.0, 3.0]), 1
    )
    assert out["a"] == [2, 4.0] and out["\x00null"] == [1, 2.0]
    eng = CdcEngine(
        str(tmp_path / "nolog"), str(tmp_path / "t"), EngineConfig(num_partitions=2)
    )
    view = IncrementalAggView(eng, "v", "source", "n_tok")
    assert view.update_to() == {}
