"""M1–M4: distributed engine vs oracle, exactly-once, resume, evolution."""

from __future__ import annotations

import os

import pyarrow as pa
import pytest

import tartare_ray.pipelines.cdc as cdc
from tartare_ray.gen import GenConfig, generate_log
from tartare_ray.oracle import replay_oracle
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
from tartare_ray.state.manifest import load_current


@pytest.fixture()
def two_phase(monkeypatch):
    """Force late materialization's two-phase path: no winner ratio
    triggers the single-pass fallback."""
    monkeypatch.setattr(cdc, "LATE_MAT_MAX_RATIO", 1.01)


def assert_tables_equal(actual: pa.Table, expected: pa.Table):
    """Row-for-row equality incl. element-wise token arrays (BASELINE.json:6)."""
    assert actual.schema.names == expected.schema.names, (
        actual.schema.names,
        expected.schema.names,
    )
    assert len(actual) == len(expected)
    assert actual["doc_id"].to_pylist() == expected["doc_id"].to_pylist()
    for col in actual.schema.names:
        a, e = actual[col].to_pylist(), expected[col].to_pylist()
        assert a == e, f"column {col} differs (first diff at {next(i for i,(x,y) in enumerate(zip(a,e)) if x!=y)})"


@pytest.fixture()
def engine_setup(tmp_log, ray_session):
    res, cfg, tmp_path = tmp_log
    root = str(tmp_path / "table")
    return res, root


def test_replay_matches_oracle_single_epoch(engine_setup, tmp_log):
    res, root = engine_setup
    eng = CdcEngine(os.path.dirname(res.files[0]), root, EngineConfig(num_partitions=4))
    m = eng.replay()
    assert m is not None and m.epoch == 1
    assert m.watermark_lsn == res.max_lsn
    assert_tables_equal(eng.snapshot_table(), replay_oracle(res.files))


def test_replay_matches_oracle_multi_epoch(engine_setup):
    res, root = engine_setup
    eng = CdcEngine(
        os.path.dirname(res.files[0]),
        root,
        EngineConfig(num_partitions=4, epoch_max_files=2),
    )
    m = eng.replay()
    assert m.epoch == 3  # 5 files / 2 per epoch
    assert_tables_equal(eng.snapshot_table(), replay_oracle(res.files))
    # evolved schema reached the committed snapshot
    assert m.schema.field("tokens").type == pa.list_(pa.int64())
    assert "quality" in m.schema.names


def test_rerun_is_idempotent(engine_setup):
    res, root = engine_setup
    log_dir = os.path.dirname(res.files[0])
    eng = CdcEngine(log_dir, root, EngineConfig(num_partitions=4))
    m1 = eng.replay()
    snap1 = eng.snapshot_table()
    m2 = eng.replay()  # nothing pending: must be a no-op
    assert m2.epoch == m1.epoch and m2.watermark_lsn == m1.watermark_lsn
    assert_tables_equal(eng.snapshot_table(), snap1)


def test_resume_after_partial_replay(engine_setup):
    """Stop after epoch 1 of 3; a NEW engine instance resumes from
    CURRENT and converges to the same state as an uninterrupted run."""
    res, root = engine_setup
    log_dir = os.path.dirname(res.files[0])
    cfg = EngineConfig(num_partitions=4, epoch_max_files=2)
    eng = CdcEngine(log_dir, root, cfg)
    m1 = eng.run_epoch()
    assert m1.epoch == 1
    eng2 = CdcEngine(log_dir, root, cfg)  # fresh instance = process restart
    m = eng2.replay()
    assert m.epoch == 3
    assert_tables_equal(eng2.snapshot_table(), replay_oracle(res.files))


def test_crash_between_phases_is_exactly_once(engine_setup):
    """Kill the run after partition files are written but before the
    manifest/CURRENT swap; re-run must converge to the oracle with no
    duplicate application."""
    res, root = engine_setup
    log_dir = os.path.dirname(res.files[0])
    cfg = EngineConfig(num_partitions=4, epoch_max_files=2)

    class CrashingEngine(CdcEngine):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            self.crashed = False

        def _commit(self, m):
            if m.epoch == 2 and not self.crashed:
                self.crashed = True
                raise RuntimeError("injected crash before CURRENT swap")
            super()._commit(m)

    eng = CrashingEngine(log_dir, root, cfg)
    with pytest.raises(RuntimeError, match="injected crash"):
        eng.replay()
    assert load_current(root).epoch == 1  # CURRENT untouched by the crash
    # restart (fresh engine) — epoch 2's LSN range replays deterministically
    m = CdcEngine(log_dir, root, cfg).replay()
    assert m.epoch == 3
    assert_tables_equal(CdcEngine(log_dir, root, cfg).snapshot_table(), replay_oracle(res.files))


def test_duplicate_delivery_skipped(engine_setup):
    """Feeding an already-committed LSN range again is a no-op (D1)."""
    res, root = engine_setup
    log_dir = os.path.dirname(res.files[0])
    eng = CdcEngine(log_dir, root, EngineConfig(num_partitions=4))
    m1 = eng.replay()
    snap1 = eng.snapshot_table()
    # watermark covers the whole log; pending_files -> empty; replay no-op
    m2 = eng.replay()
    assert m2.epoch == m1.epoch
    assert_tables_equal(eng.snapshot_table(), snap1)


def test_drop_columns_policy(engine_setup):
    res, root = engine_setup
    eng = CdcEngine(
        os.path.dirname(res.files[0]),
        root,
        EngineConfig(num_partitions=2, drop_columns=("quality",)),
    )
    eng.replay()
    snap = eng.snapshot_table()
    assert "quality" not in snap.schema.names
    expected = replay_oracle(res.files, drop_columns=("quality",))
    assert_tables_equal(snap, expected)


def test_quarantine_malformed_rows(ray_session, tmp_path):
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "lsn": pa.array([0, 1, 2, None], pa.int64()),
            "op": ["I", "X", "I", "I"],  # 'X' invalid; null lsn invalid
            "doc_id": ["a", "b", "c", "d"],
            "tokens": pa.array([[1], [2], [3], [4]], pa.list_(pa.int32())),
            "n_tok": pa.array([1, 1, 1, 1], pa.int32()),
            "source": ["s"] * 4,
            "schema_version": pa.array([1] * 4, pa.int32()),
        }
    )
    log_dir = tmp_path / "log"
    log_dir.mkdir()
    pq.write_table(t, str(log_dir / "events-000000.parquet"))
    root = str(tmp_path / "table")
    eng = CdcEngine(str(log_dir), root, EngineConfig(num_partitions=2))
    eng.replay()
    snap = eng.snapshot_table()
    assert snap["doc_id"].to_pylist() == ["a", "c"]
    qdir = os.path.join(root, "_quarantine", "e000001")
    qrows = sum(pq.read_metadata(os.path.join(qdir, f)).num_rows for f in os.listdir(qdir))
    assert qrows == 2
    # surfaced in epoch metrics + readable as a dataset
    import json

    metrics = json.load(open(os.path.join(root, "_metrics", "e000001.json")))
    assert metrics["quarantined_rows"] == 2
    q = eng.quarantine_dataset(1).to_pandas()
    assert sorted(q["doc_id"]) == ["b", "d"]
    assert len(eng.quarantine_dataset(99).to_pandas()) == 0


def test_multi_source_union_matches_oracle(ray_session, tmp_path):
    """N-source union (SURVEY.md §2A D2): one global-LSN log split
    round-robin across 3 directories replays to the same table as the
    single-dir layout."""
    import shutil

    staging = str(tmp_path / "staging")
    res = generate_log(staging, GenConfig(n_events=6000, n_docs=500, events_per_file=1000))
    dirs = [str(tmp_path / f"src{k}") for k in range(3)]
    for d in dirs:
        os.makedirs(d)
    for i, f in enumerate(res.files):
        shutil.copy(f, dirs[i % 3])
    eng = CdcEngine(dirs, str(tmp_path / "table"), EngineConfig(num_partitions=4))
    eng.replay()
    assert_tables_equal(eng.snapshot_table(), replay_oracle(res.files))


def test_multi_source_epoch_cut_is_lsn_complete(ray_session, tmp_path):
    """Interleaved sources + a tiny epoch bound: the planner must chase
    overlapping files into the epoch so no committed watermark ever
    skips unapplied rows (the multi-source data-loss hazard)."""
    import shutil

    from tartare_ray.sources.tail import pending_files, plan_epoch

    staging = str(tmp_path / "staging")
    res = generate_log(staging, GenConfig(n_events=6000, n_docs=500, events_per_file=1000))
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    os.makedirs(a), os.makedirs(b)
    for i, f in enumerate(res.files):
        shutil.copy(f, a if i % 2 == 0 else b)
    # epoch_max_files=1 would under-cut; the chase must keep each epoch
    # a contiguous LSN prefix across both dirs
    plan = plan_epoch(pending_files([a, b], -1), max_files=1)
    assert len(plan) == 1  # disjoint ranges: no chase needed, bound holds
    eng = CdcEngine([a, b], str(tmp_path / "t"), EngineConfig(num_partitions=4, epoch_max_files=1))
    m = eng.replay()
    assert m.epoch == len(res.files)  # one epoch per file, in LSN order
    assert_tables_equal(eng.snapshot_table(), replay_oracle(res.files))
    # truly interleaved row ranges: build two files whose LSN ranges
    # overlap and verify the chase pulls both into one epoch
    import pyarrow.parquet as pqq

    t = pqq.read_table(res.files[0])
    even, odd = str(tmp_path / "ev"), str(tmp_path / "od")
    os.makedirs(even), os.makedirs(odd)
    import pyarrow.compute as pcc

    lsn = t["lsn"]
    pqq.write_table(t.filter(pcc.equal(pcc.bit_wise_and(lsn, 1), 0)), f"{even}/events-000000.parquet")
    pqq.write_table(t.filter(pcc.equal(pcc.bit_wise_and(lsn, 1), 1)), f"{odd}/events-000000.parquet")
    plan = plan_epoch(pending_files([even, odd], -1), max_files=1)
    assert len(plan) == 2  # chase overrides the bound — correctness first
    eng2 = CdcEngine([even, odd], str(tmp_path / "t2"), EngineConfig(num_partitions=4, epoch_max_files=1))
    eng2.replay()
    assert_tables_equal(eng2.snapshot_table(), replay_oracle([res.files[0]]))


def test_writer_lock_excludes_second_engine(engine_setup, tmp_log):
    """A second engine committing to the same table_root fails fast
    while the first holds the epoch lock (lost-update protection)."""
    from tartare_ray.state.lock import ConcurrentWriterError, WriterLock

    res, root = engine_setup
    eng = CdcEngine(
        os.path.dirname(res.files[0]), root,
        EngineConfig(num_partitions=4, epoch_max_files=1),
    )
    eng.run_epoch()
    with WriterLock(eng.table_root):
        with pytest.raises(ConcurrentWriterError):
            eng.run_epoch()
    # released: next epoch proceeds
    assert eng.replay() is not None
    assert_tables_equal(eng.snapshot_table(), replay_oracle(res.files))


@pytest.mark.parametrize("mode", ["cow", "delta"])
def test_late_materialization_matches_oracle(engine_setup, two_phase, mode):
    """Two-phase (envelope winners -> payload-filtered shuffle) epochs
    commit the identical table; the adaptive ratio guard is bypassed so
    the winner-filter path definitely executes."""
    res, root = engine_setup
    eng = CdcEngine(
        os.path.dirname(res.files[0]),
        root + f"-lm-{mode}",
        EngineConfig(
            num_partitions=4, epoch_max_files=2, write_mode=mode,
            late_materialization=True,
        ),
    )
    eng.replay()
    assert_tables_equal(eng.snapshot_table(), replay_oracle(res.files))


def test_backfill_fills_evolution_nulls(ray_session, tmp_path):
    """After an add-column evolution, old rows carry nulls; backfill
    computes them partition-locally (footer-stat pruned), keeps stored
    values bit-for-bit, and commits a new epoch at the same watermark."""
    import numpy as np
    import pyarrow.compute as pc

    res = generate_log(
        str(tmp_path / "log"),
        GenConfig(n_events=4000, n_docs=400, events_per_file=1000, add_col_frac=0.5),
    )
    eng = CdcEngine(
        str(tmp_path / "log"), str(tmp_path / "t"), EngineConfig(num_partitions=4)
    )
    eng.replay()
    before = eng.snapshot_table()
    assert before["quality"].null_count > 0  # evolution nulls present

    def fn(live: pa.Table) -> pa.Array:
        # deterministic derivation from another column
        return pc.cast(pc.multiply(pc.cast(live["n_tok"], pa.float64()), 0.5), pa.float64())

    m = eng.backfill("quality", fn)
    assert m is not None and m.watermark_lsn == res.max_lsn
    after = eng.snapshot_table()
    assert after["quality"].null_count == 0
    assert after["doc_id"].to_pylist() == before["doc_id"].to_pylist()
    bq = before["quality"].to_pylist()
    aq = after["quality"].to_pylist()
    nt = after["n_tok"].to_pylist()
    for i, (b, a) in enumerate(zip(bq, aq)):
        assert a == (b if b is not None else nt[i] * 0.5), i
    # idempotent: no nulls left -> footer pruning makes it a no-op
    assert eng.backfill("quality", fn) is None


def test_snapshot_column_pruning(ray_session, tmp_path):
    import pyarrow as paa

    res = generate_log(
        str(tmp_path / "log"), GenConfig(n_events=3000, n_docs=300, add_col_frac=0.5)
    )
    eng = CdcEngine(
        str(tmp_path / "log"), str(tmp_path / "t"), EngineConfig(num_partitions=4)
    )
    eng.replay()
    ds = eng.snapshot_dataset(columns=["doc_id", "n_tok"])
    t = paa.concat_tables(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    assert t.schema.names == ["doc_id", "n_tok"]
    full = eng.snapshot_table()
    assert sorted(t["doc_id"].to_pylist()) == full["doc_id"].to_pylist()


def test_follow_generator_consumes_appended_waves(ray_session, tmp_path):
    import shutil

    staging = str(tmp_path / "staging")
    res = generate_log(staging, GenConfig(n_events=3000, n_docs=300, events_per_file=1000))
    log = str(tmp_path / "log")
    os.makedirs(log)
    shutil.copy(res.files[0], log)
    eng = CdcEngine(log, str(tmp_path / "t"), EngineConfig(num_partitions=4))
    it = eng.follow(poll_interval=0.1, max_empty_polls=2)
    m1 = next(it)
    assert m1.epoch == 1 and m1.watermark_lsn == 999
    shutil.copy(res.files[1], log)
    shutil.copy(res.files[2], log)
    m2 = next(it)
    assert m2.watermark_lsn == 2999
    assert list(it) == []  # exhausts after 2 empty polls
    assert_tables_equal(eng.snapshot_table(), replay_oracle(res.files))


def test_ingest_steps_run_during_apply(ray_session, tmp_path):
    """EngineConfig.ingest_steps (tartare's contributor preprocesses):
    a truncate_tokens step at ingest caps every committed sequence and
    keeps the n_tok invariant."""
    import pyarrow.compute as pc

    res = generate_log(
        str(tmp_path / "log"), GenConfig(n_events=3000, n_docs=300, max_len=40)
    )
    eng = CdcEngine(
        str(tmp_path / "log"),
        str(tmp_path / "t"),
        EngineConfig(
            num_partitions=4,
            ingest_steps=(("truncate_tokens", {"max_len": 8}),),
        ),
    )
    eng.replay()
    snap = eng.snapshot_table()
    lens = pc.list_value_length(snap["tokens"]).to_pylist()
    assert max(lens) <= 8
    assert lens == snap["n_tok"].to_pylist()
    # same survivors as the untouched replay (steps transform, not drop)
    exp = replay_oracle(res.files)
    assert snap["doc_id"].to_pylist() == exp["doc_id"].to_pylist()


@pytest.mark.slow
def test_snapshot_predicate_pushdown(ray_session, tmp_path):
    """predicate= pushes to row-group stats on base scans (and filters
    post-fold on chains); with columns= it may reference non-projected
    columns; results equal the driver-side filter."""
    import pyarrow as paa
    import pyarrow.dataset as pads

    res = generate_log(
        str(tmp_path / "log"),
        GenConfig(n_events=4000, n_docs=400, events_per_file=1000, add_col_frac=0.5),
    )
    for mode in ("cow", "delta"):
        eng = CdcEngine(
            str(tmp_path / "log"), str(tmp_path / f"t-{mode}"),
            EngineConfig(num_partitions=4, epoch_max_files=1, write_mode=mode,
                         compact_chain_len=100),
        )
        eng.replay()
        full = eng.snapshot_table()
        pred = pads.field("source") == "src1"
        got = paa.concat_tables(
            eng.snapshot_dataset(predicate=pred).iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        ).sort_by([("doc_id", "ascending")])
        exp = full.filter(paa.compute.equal(full["source"], "src1"))
        assert got["doc_id"].to_pylist() == exp["doc_id"].to_pylist(), mode
        # projection + predicate on a non-projected column
        got2 = paa.concat_tables(
            eng.snapshot_dataset(columns=["doc_id", "n_tok"], predicate=pred).iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        ).sort_by([("doc_id", "ascending")])
        assert got2.schema.names == ["doc_id", "n_tok"]
        assert got2["doc_id"].to_pylist() == exp["doc_id"].to_pylist(), mode


def test_time_travel_to_gcd_epoch_errors_clearly(ray_session, tmp_path):
    from tartare_ray.state.manifest import gc_epochs

    res = generate_log(str(tmp_path / "log"), GenConfig(n_events=3000, n_docs=300, events_per_file=1000))
    eng = CdcEngine(str(tmp_path / "log"), str(tmp_path / "t"),
                    EngineConfig(num_partitions=2, epoch_max_files=1))
    eng.replay()
    gc_epochs(eng.table_root, keep_last=1)
    with pytest.raises(FileNotFoundError, match="GC'd|never committed"):
        eng.snapshot_table(epoch=1)
    # retained epoch still reads
    assert len(eng.snapshot_table(epoch=3)) > 0


def test_kitchen_sink_config_combination(ray_session, two_phase, tmp_path):
    """All engine options at once — multi-source union, delta write
    mode, chain folds, late materialization, an ingest transform —
    interact correctly: final table equals the oracle folded through
    the same transform."""
    import shutil

    import pyarrow.compute as pc

    staging = str(tmp_path / "staging")
    res = generate_log(
        staging,
        GenConfig(n_events=6000, n_docs=500, events_per_file=1000,
                  widen_frac=0.6, add_col_frac=0.8),
    )
    dirs = [str(tmp_path / f"s{k}") for k in range(2)]
    for d in dirs:
        os.makedirs(d)
    for i, f in enumerate(res.files):
        shutil.copy(f, dirs[i % 2])
    eng = CdcEngine(
        dirs,
        str(tmp_path / "t"),
        EngineConfig(
            num_partitions=4,
            epoch_max_files=2,
            write_mode="delta",
            compact_chain_len=2,
            late_materialization=True,
            ingest_steps=(("truncate_tokens", {"max_len": 10}),),
        ),
    )
    eng.replay()
    snap = eng.snapshot_table()
    exp = replay_oracle(res.files)
    assert snap["doc_id"].to_pylist() == exp["doc_id"].to_pylist()
    # expected tokens = oracle tokens truncated to 10
    for a, b in zip(snap["tokens"].to_pylist(), exp["tokens"].to_pylist()):
        assert a == (b[:10] if b is not None else None)
    lens = pc.list_value_length(snap["tokens"]).to_pylist()
    assert lens == snap["n_tok"].to_pylist()


def test_late_mat_adaptive_fallback_on_low_duplication(ray_session, tmp_path):
    """When nearly every event wins (no duplication), phase 1 returns
    None (a second full read buys nothing) and the epoch runs the
    classic path — still matching the oracle."""
    import pyarrow.parquet as pqq

    from tartare_ray.sources.tail import pending_files

    # strictly unique doc_ids: winners/events == 1.0 > 0.7
    n = 200
    t = pa.table(
        {
            "lsn": pa.array(range(n), pa.int64()),
            "op": ["I"] * n,
            "doc_id": [f"u{i:05d}" for i in range(n)],
            "tokens": pa.array([[i] for i in range(n)], pa.list_(pa.int32())),
            "n_tok": pa.array([1] * n, pa.int32()),
            "source": ["s"] * n,
            "schema_version": pa.array([1] * n, pa.int32()),
        }
    )
    log = tmp_path / "log"
    log.mkdir()
    pqq.write_table(t, str(log / "events-000000.parquet"))
    eng = CdcEngine(
        str(log), str(tmp_path / "t"),
        EngineConfig(num_partitions=4, late_materialization=True),  # ratio 0.7
    )
    assert eng._phase1_winners(pending_files(str(log), -1), -1, 4) is None
    eng.replay()
    assert_tables_equal(
        eng.snapshot_table(), replay_oracle([str(log / "events-000000.parquet")])
    )


def test_epoch_metrics_straggler_and_phases(ray_session, two_phase, tmp_path):
    """SURVEY.md §8.6: every committed epoch records per-writer-task
    apply walls (straggler max/mean) and a per-phase wall breakdown."""
    import json

    res = generate_log(
        str(tmp_path / "log"), GenConfig(n_events=4000, n_docs=400, events_per_file=2000)
    )
    for cfg in (
        EngineConfig(num_partitions=4, write_mode="delta",
                     late_materialization=True),
        EngineConfig(num_partitions=4),
    ):
        root = str(tmp_path / f"table-{cfg.write_mode}")
        eng = CdcEngine(os.path.dirname(res.files[0]), root, cfg)
        eng.replay()
        m = json.load(open(os.path.join(root, "_metrics", "e000001.json")))
        s = m["straggler"]
        assert s["apply_tasks"] >= 1
        assert s["apply_ms_max"] >= s["apply_ms_mean"] > 0
        assert s["apply_straggler_max_over_mean"] >= 1.0
        ph = m["phases"]
        assert ph["split_s"] > 0 and ph["fold_s"] > 0
        assert "plan_s" in ph and "commit_s" in ph
        if cfg.late_materialization:
            assert "envelope_s" in ph


def test_drop_column_schema_evolution(ray_session, tmp_path):
    """drop_column: metadata-only commit removes the column from every
    reader at once; time travel still shows it; the log re-adds it if
    events still carry it (monotone union)."""
    import shutil

    import pytest

    staging = str(tmp_path / "staging")
    res = generate_log(
        staging,
        GenConfig(n_events=4000, n_docs=300, events_per_file=1000, add_col_frac=0.25),
    )
    log = str(tmp_path / "log")
    os.makedirs(log)
    for f in res.files[:3]:
        shutil.copy(f, log)
    eng = CdcEngine(log, str(tmp_path / "t"), EngineConfig(num_partitions=4))
    m1 = eng.replay()
    assert "quality" in m1.schema.names

    with pytest.raises(ValueError):
        eng.drop_column("doc_id")
    assert eng.drop_column("no_such_column") is None

    m2 = eng.drop_column("quality")
    assert m2.epoch == m1.epoch + 1 and m2.watermark_lsn == m1.watermark_lsn
    snap = eng.snapshot_table()
    assert "quality" not in snap.schema.names
    # non-dropped data untouched (metadata-only commit)
    exp = replay_oracle(res.files[:3])
    assert snap["doc_id"].to_pylist() == exp["doc_id"].to_pylist()
    assert snap["tokens"].to_pylist() == exp["tokens"].to_pylist()
    # point reads conform to the new schema too
    probe = snap["doc_id"].to_pylist()[:3]
    assert "quality" not in eng.lookup(probe).schema.names
    # time travel to the pre-drop epoch still shows the column
    assert "quality" in eng.snapshot_table(epoch=m1.epoch).schema.names

    # the upstream still sends quality -> next epoch re-unifies it in
    shutil.copy(res.files[3], log)
    m3 = eng.replay()
    assert m3.epoch == m2.epoch + 1
    assert "quality" in m3.schema.names


def test_requeue_quarantine_dead_letter_flow(ray_session, tmp_path):
    """Quarantined rows, fixed and requeued with fresh LSNs, enter the
    table on the next epoch; rows the fix leaves invalid quarantine
    again."""
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "lsn": pa.array([0, 1, 2, None], pa.int64()),
            "op": ["I", "X", "I", "I"],  # 'X' and null-lsn quarantine
            "doc_id": ["a", "b", "c", "d"],
            "tokens": pa.array([[1], [2], [3], [4]], pa.list_(pa.int32())),
            "n_tok": pa.array([1, 1, 1, 1], pa.int32()),
            "source": ["s"] * 4,
            "schema_version": pa.array([1] * 4, pa.int32()),
        }
    )
    log_dir = tmp_path / "log"
    log_dir.mkdir()
    pq.write_table(t, str(log_dir / "events-000000.parquet"))
    eng = CdcEngine(str(log_dir), str(tmp_path / "t"), EngineConfig(num_partitions=2))
    m1 = eng.replay()
    assert eng.snapshot_table()["doc_id"].to_pylist() == ["a", "c"]

    def fix(batch: pa.Table) -> pa.Table:
        # repair the bad op; leave the null-lsn row's op alone — after
        # requeue it gets a fresh valid lsn, so it becomes applicable
        ops = ["I" if o == "X" else o for o in batch["op"].to_pylist()]
        return batch.set_column(
            batch.schema.get_field_index("op"), "op", pa.array(ops)
        )

    path = eng.requeue_quarantine(1, fix)
    assert path is not None and os.path.basename(path) == "requeue-e000001.parquet"
    req = pq.read_table(path)
    assert req["lsn"].to_pylist() == [m1.watermark_lsn + 1, m1.watermark_lsn + 2]

    m2 = eng.replay()
    assert m2.epoch == m1.epoch + 1
    assert eng.snapshot_table()["doc_id"].to_pylist() == ["a", "b", "c", "d"]
    # nothing re-quarantined (both rows became valid), requeue now a no-op
    assert eng._quarantine_count(m2.epoch) == 0
    assert eng.requeue_quarantine(m2.epoch, fix) is None


def test_history_and_changes_between(ray_session, tmp_path):
    """history() is the time-travel catalog; changes_between serves an
    epoch-aligned LSN-range audit scan from the feeds."""
    import pyarrow.compute as pc_

    res = generate_log(
        str(tmp_path / "log"), GenConfig(n_events=6000, n_docs=400, events_per_file=2000)
    )
    eng = CdcEngine(
        str(tmp_path / "log"),
        str(tmp_path / "t"),
        EngineConfig(num_partitions=4, write_mode="delta", epoch_max_files=1),
    )
    eng.replay()
    h = eng.history()
    assert [r["epoch"] for r in h] == [3, 2, 1]
    assert h[0]["watermark_lsn"] == 5999 and h[2]["watermark_lsn"] == 1999
    assert all(r["rows"] > 0 and r["files"] for r in h)

    # range covering epochs 2..3, epoch-aligned at watermarks
    ds = eng.changes_between(1999, 5999)
    t = ds.to_arrow_refs()
    import pyarrow as pa_
    import ray as ray_

    tbl = pa_.concat_tables([ray_.get(r) for r in t])
    assert len(tbl) > 0
    assert pc_.min(tbl["lsn"]).as_py() >= 2000
    assert pc_.max(tbl["lsn"]).as_py() <= 5999
    # per-epoch winner granularity: matches the two feeds' union count
    n2 = eng.changes_dataset(2).count()
    n3 = eng.changes_dataset(3).count()
    assert len(tbl) == n2 + n3

    # empty + misaligned ranges
    assert eng.changes_between(5999, 5999).count() == 0
    with pytest.raises(LookupError):
        eng.changes_between(100, 5999)


def test_empty_changes_between_has_feed_schema(ray_session, tmp_path):
    """An empty audit range returns the same columns as a non-empty
    one: the (op, lsn) envelope plus the snapshot columns, exactly the
    schema ``changes_dataset`` serves."""
    generate_log(
        str(tmp_path / "log"), GenConfig(n_events=600, n_docs=50, events_per_file=300)
    )
    eng = CdcEngine(
        str(tmp_path / "log"),
        str(tmp_path / "t"),
        EngineConfig(num_partitions=2, epoch_max_files=1),
    )
    head = eng.replay()
    want = eng.changes_dataset(head.epoch).schema()
    w = head.watermark_lsn
    for ds in (eng.changes_between(w, w), eng.changes_between(w, w + 100)):
        got = ds.schema()
        assert ds.count() == 0
        assert (got.names, got.types) == (want.names, want.types)


def test_poison_schema_file_truncates_then_fails_loudly(ray_session, tmp_path):
    """An incompatible schema change (tokens int->string) must not
    crash the whole plan or skip events: epochs below the poison file
    commit, the next epoch raises SchemaConflictError naming it, and
    fixing the file resumes the tail."""
    import pyarrow.parquet as pq

    from tartare_ray.pipelines.cdc import SchemaConflictError

    def wave(lo, n, tokens_type, tok):
        return pa.table(
            {
                "lsn": pa.array(range(lo, lo + n), pa.int64()),
                "op": ["I"] * n,
                "doc_id": [f"d{lo + i}" for i in range(n)],
                "tokens": pa.array([tok] * n, tokens_type),
                "n_tok": pa.array([len(tok)] * n, pa.int32()),
                "source": ["s"] * n,
                "schema_version": pa.array([1] * n, pa.int32()),
            }
        )

    log = tmp_path / "log"
    log.mkdir()
    pq.write_table(wave(0, 10, pa.list_(pa.int32()), [1, 2]), str(log / "f0.parquet"))
    pq.write_table(
        wave(10, 10, pa.list_(pa.string()), ["x", "y"]), str(log / "f1.parquet")
    )  # POISON: list<string> tokens
    pq.write_table(wave(20, 10, pa.list_(pa.int32()), [3]), str(log / "f2.parquet"))

    eng = CdcEngine(str(log), str(tmp_path / "t"), EngineConfig(num_partitions=2))
    m1 = eng.run_epoch()  # truncated before the poison file
    assert m1.epoch == 1 and m1.watermark_lsn == 9
    assert len(eng.snapshot_table()) == 10

    with pytest.raises(SchemaConflictError) as ei:
        eng.run_epoch()
    assert "f1.parquet" in str(ei.value)

    # operator fixes the poison file -> the tail resumes and catches up
    fixed = wave(10, 10, pa.list_(pa.int32()), [9, 9])
    pq.write_table(fixed, str(log / "f1.parquet"))
    m = eng.replay()
    assert m.watermark_lsn == 29
    assert len(eng.snapshot_table()) == 30
    # the truncation was surfaced in epoch-1 metrics
    import json

    met = json.load(open(os.path.join(eng.table_root, "_metrics", "e000001.json")))
    assert met.get("schema_conflict_file", "").endswith("f1.parquet")


def test_distributed_footer_listing_matches_driver(ray_session, tmp_path):
    """Above the file-count threshold the footer scan fans out as Ray
    tasks; the listing (paths, LSN ranges, rows, bytes) is identical
    to the driver-local scan."""
    from tartare_ray.sources.tail import list_log_files

    log_dir = str(tmp_path / "log")
    generate_log(log_dir, GenConfig(n_events=7000, n_docs=300, events_per_file=100))
    local = list_log_files(log_dir, distributed_threshold=10**9)
    dist = list_log_files(log_dir, distributed_threshold=1)
    assert len(local) == 70
    assert local == dist
