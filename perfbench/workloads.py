"""The three workloads.  Each is a closed loop with one client: the next
operation starts when the previous one has returned.  A workload runs
whole rounds until ``seconds`` of operation time have passed (within a
workload's minimum and maximum round counts), then checks every output
against ``expected.py``.

Each workload returns a ``Result``: the end-to-end metrics under their
``BENCHMARK.json`` names, the figures the engine's own vocabulary uses
(``detail``), and the operations attempted and failed.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from . import expected as X
from . import inputs
from .trace import QUERY_LIST, Tracer

NUM_CPUS = 2  # one CPU deadlocks the exchange (README.md)
OBJECT_STORE_BYTES = 512 << 20  # the epoch byte cap is derived from it
# idle Python workers Ray keeps; by default as many as num_cpus, so at 2
# CPUs each operation re-starts the workers the last one left (README.md)
IDLE_WORKERS = 16
NUM_PARTITIONS = 8
SETUP_REPEATS = 3
# untimed query rounds before the timed ones: set-up runs no query, and
# the first round ran about 20% slower than the next
QUERY_WARMUP = 1
# query_suite's set-up takes about 60 ms, so a median of three spread 0.3
QUERY_SETUP_REPEATS = 11


@dataclass
class Result:
    metrics: dict[str, float]
    detail: dict[str, float]
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)  # per round, to stderr


@dataclass
class Ctx:
    run_dir: str
    seed: int
    seconds: float
    tracer: Tracer
    corrupt_expected: bool = False


# -- shared plumbing -----------------------------------------------------------

class RssPeak:
    """Peak summed RSS of this process and its descendants (Ray's
    raylet, GCS and workers), sampled every second.  Each sample also
    times a fixed 100k-step Python loop: its median (``spin_ms``) tells
    how fast the host ran this process during the timed part."""

    def __init__(self) -> None:
        self.peak = 0
        self.spins: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)

    PAGE = os.sysconf("SC_PAGE_SIZE")

    def sample(self) -> None:
        children: dict[int, list[int]] = {}
        for d in os.listdir("/proc"):
            if d.isdigit():
                try:
                    with open(f"/proc/{d}/stat") as f:
                        ppid = int(f.read().rsplit(")", 1)[1].split()[1])
                except (OSError, IndexError, ValueError):
                    continue
                children.setdefault(ppid, []).append(int(d))
        total, todo = 0, [os.getpid()]
        while todo:
            pid = todo.pop()
            todo.extend(children.get(pid, ()))
            try:
                with open(f"/proc/{pid}/statm") as f:
                    total += int(f.read().split()[1]) * self.PAGE
            except (OSError, IndexError, ValueError):
                pass
        self.peak = max(self.peak, total)

    def _run(self) -> None:
        while not self._stop.wait(1.0):
            self.sample()
            t = time.perf_counter()
            x = 0
            for i in range(100_000):
                x += i
            self.spins.append(time.perf_counter() - t)

    @property
    def spin_ms(self) -> float:
        return median(self.spins) * 1000.0 if self.spins else 0.0

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()


def cpu_stat() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_frac(before: list[int], after: list[int]) -> float:
    d = [a - b for a, b in zip(after, before)]
    return d[7] / (sum(d) or 1)


def start_ray(ctx: Ctx) -> None:
    """Fresh Ray session, including one tiny Ray Data job so worker
    start-up is not charged to the first measured operation."""
    import ray

    with ctx.tracer.span("ray.init"):
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            configure_logging=True,
            _system_config={"num_workers_soft_limit": IDLE_WORKERS},
        )
        from ray.data import DataContext

        dctx = DataContext.get_current()
        dctx.enable_progress_bars = False
        dctx.print_on_execution_start = False
        ray.data.range(64, override_num_blocks=NUM_CPUS).map_batches(lambda b: b).count()


def rounds(ctx: Ctx, min_rounds: int, max_rounds: int, one_round, warmup: int = 0) -> int:
    """Run ``warmup`` rounds first, then ``one_round(i)`` (which returns
    its operation time) until ``ctx.seconds`` have passed, within
    [min_rounds, max_rounds].  Returns the number of timed rounds; the
    warm-up rounds are checked like the others but their times are
    dropped by the caller (the first round after set-up pays for worker
    imports and caches)."""
    for i in range(warmup):
        one_round(i)
    ctx.tracer.start_window()
    spent, n = 0.0, 0
    while n < max_rounds and (n < min_rounds or spent < ctx.seconds):
        spent += one_round(warmup + n)
        n += 1
    return n


def median(xs) -> float:
    return float(statistics.median(xs))


def geomean(xs) -> float:
    return float(statistics.geometric_mean(xs))


def pctl(xs, q: float) -> float:
    return float(np.quantile(np.asarray(xs, dtype=np.float64), q))


def corrupt(state: pa.Table) -> pa.Table:
    """A deliberately wrong expected state (self-test): the first row's
    n_tok is off by one."""
    n_tok = state["n_tok"].to_pylist()
    n_tok[0] = (n_tok[0] or 0) + 1
    return state.set_column(
        state.schema.get_field_index("n_tok"), "n_tok", pa.array(n_tok, state["n_tok"].type)
    )


def collect(ds, empty_schema: pa.Schema) -> pa.Table:
    """Run a dataset to completion in the benchmark process."""
    batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(batches) if batches else empty_schema.empty_table()


def timed_setup(ctx: Ctx, build, repeats: int = SETUP_REPEATS) -> tuple[float, float, object]:
    """Start Ray, then run ``build(dir)`` ``repeats`` times into fresh
    directories and keep the last.  Returns (Ray start time, median
    build time, last result)."""
    t = time.perf_counter()
    start_ray(ctx)
    ray_s = time.perf_counter() - t
    times, out, d = [], None, None
    for i in range(repeats):
        if d is not None:
            shutil.rmtree(d)
        d = os.path.join(ctx.run_dir, f"setup{i}")
        t = time.perf_counter()
        out = build(d)
        times.append(time.perf_counter() - t)
    sys.stderr.write(
        f"perfbench: ray start {ray_s:.3f}s; setup_s per repeat: "
        f"{' '.join(f'{x:.3f}' for x in times)}\n"
    )
    return ray_s, median(times), out


# -- bulk_replay -------------------------------------------------------------

def bulk_replay(ctx: Ctx) -> Result:
    from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig

    shape = inputs.shapes()[0]
    tr = ctx.tracer
    ray_s, setup_s, files = timed_setup(
        ctx, lambda d: inputs.bulk_log(os.path.join(d, "log"), ctx.seed, shape)
    )
    log_dir = os.path.dirname(files[0])
    n_docs = shape.n_events // 10

    # expected state and the lookup mix (checking work, not set-up)
    oracle = X.LogOracle(files)
    hi = shape.n_events - 1
    want = oracle.state(hi)
    if ctx.corrupt_expected:
        want = corrupt(want)
    want_rows = X.rows_by_id(want)
    cols = oracle.columns
    deleted = oracle.deleted_ids(hi)
    rng = np.random.default_rng(ctx.seed + 1)
    k = shape.n_lookups
    kinds = rng.choice(4, size=k, p=[0.4, 0.4, 0.1, 0.1])
    hot = (rng.zipf(1.1, size=k) - 1) % n_docs
    cold = rng.integers(0, n_docs, size=k)
    keys = []
    for i, kind in enumerate(kinds):
        if kind == 0:
            keys.append(f"doc-{hot[i]:08d}")
        elif kind == 1:
            keys.append(f"doc-{cold[i]:08d}")
        elif kind == 2 and deleted:
            keys.append(deleted[int(rng.integers(0, len(deleted)))])
        else:
            keys.append(f"doc-{n_docs + i:08d}")  # never written

    cfg = EngineConfig(
        num_partitions=NUM_PARTITIONS,
        write_mode="delta",
        exchange="hash",
        late_materialization=True,
        compact_chain_len=10**6,  # chain compaction held off
        epoch_max_files=shape.files_per_epoch,
    )
    replay_s, lookup_s, scan_s, compact_s, epoch_s = [], [], [], [], []
    errors: list[str] = []
    failed = 0
    ops_per_round = 3 + k
    last_root = None

    def one_round(r: int) -> float:
        nonlocal failed, last_root
        root = os.path.join(ctx.run_dir, f"table{r}")
        if last_root:
            shutil.rmtree(last_root, ignore_errors=True)
        last_root = root
        eng = CdcEngine(log_dir, root, cfg)
        t0 = time.perf_counter()
        with tr.span("round.replay"):
            while True:
                te = time.perf_counter()
                with tr.span("engine.run_epoch"):
                    m = eng.run_epoch()
                if m is None:
                    break
                epoch_s.append(time.perf_counter() - te)
        replay_s.append(time.perf_counter() - t0)
        bad = X.same_rows(eng.snapshot_table(), want, cols)
        if bad:
            failed += 1
            errors.append("replay: " + "; ".join(bad))

        lat, wrong = [], 0
        for key in keys:
            t = time.perf_counter()
            got = eng.lookup([key])
            lat.append(time.perf_counter() - t)
            wrong += not X.lookup_row_ok(got, want_rows.get(key), cols)
        lookup_s.extend(lat)
        if wrong:
            failed += wrong
            errors.append(f"lookup: {wrong} of {len(keys)} answers wrong")

        t = time.perf_counter()
        with tr.span("round.scan"):
            scanned = collect(eng.snapshot_dataset(), want.schema)
        scan_s.append(time.perf_counter() - t)
        bad = X.same_rows(scanned, want, cols)
        if bad:
            failed += 1
            errors.append("scan: " + "; ".join(bad))

        if tr.enabled:
            trace_compaction_inputs(tr, eng)
        t = time.perf_counter()
        with tr.span("round.compact"):
            cm = eng.compact()
        compact_s.append(time.perf_counter() - t)
        if tr.enabled and cm is not None:
            tr.set(
                "compact.bytes_rewritten",
                sum(pl.bytes for pl in cm.partitions if pl.epoch == cm.epoch),
            )
        bad = X.same_rows(eng.snapshot_table(), want, cols)
        if bad:
            failed += 1
            errors.append("compact: " + "; ".join(bad))
        return replay_s[-1] + sum(lat) + scan_s[-1] + compact_s[-1]

    tr.start_window()
    stat0 = cpu_stat()
    with RssPeak() as rss:
        n = rounds(ctx, 1, 3, one_round)
    steal = steal_frac(stat0, cpu_stat())
    scan_rows = want.num_rows

    extra = {}
    if tr.enabled:
        extra = trace_replay_layers(
            ctx, files=files[: shape.files_per_epoch], root=last_root, cfg=cfg, epoch=1
        )
    return Result(
        metrics={
            "setup_s": setup_s,
            "peak_rss_mb": rss.peak / 2**20,
            # the whole write-then-read round: replay, scan and compact
            "rows_per_s": n * shape.n_events / (sum(replay_s) + sum(scan_s) + sum(compact_s)),
            "op_ms": median(lookup_s) * 1000.0,
        },
        detail={
            "setup_s": setup_s,
            "ray_start_s": ray_s,
            "peak_rss_mb": rss.peak / 2**20,
            "replay_events_per_s": n * shape.n_events / sum(replay_s),
            "lookup_p50_ms": median(lookup_s) * 1000.0,
            "lookup_p99_ms": pctl(lookup_s, 0.99) * 1000.0,
            "scan_rows_per_s": median([scan_rows / s for s in scan_s]),
            "compact_s": median(compact_s),
            "epochs_per_round": len(epoch_s) / n,
            "rounds": n,
            "cpu_steal_frac": steal,
            "host_spin_ms": rss.spin_ms,
        },
        attempted=n * ops_per_round,
        failed=failed,
        errors=errors,
        extra=extra,
        samples={"replay_s": replay_s, "scan_s": scan_s, "compact_s": compact_s},
    )


def trace_compaction_inputs(tr: Tracer, eng) -> None:
    """Time what compaction does per partition (read the chain, fold
    it) in-process, on the chains the next ``compact()`` will fold."""
    import pyarrow.parquet as pq

    from tartare_ray.stages.compact import merge_chain
    from tartare_ray.state.manifest import load_current

    m = load_current(eng.table_root)
    chains = eng._chains(m)
    tr.set(
        "compact.chain_files_per_partition",
        sum(len(c) for c in chains.values()) / max(1, len(chains)),
    )
    for chain in chains.values():
        with tr.span("compact.merge_read"):
            raw = [pq.read_table(os.path.join(eng.table_root, e["file"])) for e in chain]
        with tr.span("compact.fold"):
            merge_chain(raw, m.schema)
    tr.set("compact.merge_read_s", tr.total("compact.merge_read"))
    tr.set("compact.fold_s", tr.total("compact.fold"))


def trace_replay_layers(ctx: Ctx, *, files, root, cfg, epoch, parent=None) -> dict:
    """Per-layer figures of one epoch: the stage prefixes on its log
    files, the kernels on its batches, and the engine's own record of
    the epoch (written rows and bytes, skew, stragglers)."""
    from tartare_ray.state.manifest import load_epoch

    from .prefixes import prefix_sweep
    from .trace import copy_engine_phases, time_kernels

    tr = ctx.tracer
    m = load_epoch(root, epoch)
    parent_chain = {}
    if parent is not None:
        pm = load_epoch(root, parent)
        for pl in sorted(pm.partitions, key=lambda x: (x.p, x.epoch)):
            parent_chain.setdefault(pl.p, []).append({"file": pl.file, "kind": pl.kind})
    vals = prefix_sweep(
        files=files,
        watermark=m.parent_watermark_lsn,
        num_partitions=NUM_PARTITIONS,
        snap_schema=m.schema,
        exchange=cfg.exchange,
        write_mode=cfg.write_mode,
        late_materialization=cfg.late_materialization,
        parent_chain=parent_chain,
        parent_root=root,
        scratch_root=os.path.join(ctx.run_dir, "prefix"),
        epoch=epoch,
    )
    for name, v in vals.items():
        tr.set(name, v)
    time_kernels(tr, files, NUM_PARTITIONS)
    mine = [pl for pl in m.partitions if pl.epoch == epoch]
    tr.set("apply.rows_written", sum(pl.rows for pl in mine))
    tr.set("apply.bytes_written", sum(pl.bytes for pl in mine))
    rec = next((r for r in copy_engine_phases(tr, root) if r["epoch"] == epoch), {})
    tr.set("exchange.partition_skew", rec.get("skew_max_over_mean") or 0.0)
    tr.set(
        "apply.straggler_max_over_mean",
        (rec.get("straggler") or {}).get("apply_straggler_max_over_mean") or 0.0,
    )
    return {"prefix": vals}


# -- tail_feed ---------------------------------------------------------------

QUANTILE_ALPHA = 0.01


def tail_feed(ctx: Ctx) -> Result:
    from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
    from tartare_ray.pipelines.views import (
        IncrementalAggView,
        IncrementalMinMaxView,
        IncrementalQuantileView,
    )
    from tartare_ray.state.manifest import load_epoch

    shape = inputs.shapes()[1]
    tr = ctx.tracer
    cfg = EngineConfig(num_partitions=NUM_PARTITIONS, epoch_max_files=1)

    def build(d: str):
        files = inputs.tail_log(os.path.join(d, "log"), ctx.seed, shape)
        log_dir = os.path.dirname(files[0])
        root = os.path.join(d, "table")
        # base table: bulk-loaded in delta mode and compacted, so the
        # views catch up to it from delta files; the tail then runs in
        # the engine's default configuration (cow writes, sort exchange)
        with tr.span("setup.base"):
            loader = CdcEngine(
                log_dir,
                root,
                EngineConfig(
                    num_partitions=NUM_PARTITIONS,
                    write_mode="delta",
                    epoch_max_files=shape.base_files,
                ),
            )
            loader.run_epoch()
            loader.compact()
            eng = CdcEngine(log_dir, root, cfg)
            views = {
                "agg": IncrementalAggView(eng, "agg", "source", "n_tok"),
                "minmax": IncrementalMinMaxView(eng, "minmax", "source", "n_tok"),
                "quantile": IncrementalQuantileView(
                    eng, "quantile", "source", "n_tok", alpha=QUANTILE_ALPHA
                ),
            }
            for v in views.values():
                v.update_to()
        return files, root, eng, views

    ray_s, setup_s, (files, root, eng, views) = timed_setup(ctx, build)

    commit_s, catchup_s, epochs = [], [], []
    per_view: dict[str, list[float]] = {n: [] for n in views}
    feed_calls0 = tr.counts.get("feed.build.calls", 0.0)

    def one_round(r: int) -> float:
        t = time.perf_counter()
        with tr.span("engine.run_epoch"):
            m = eng.run_epoch()
        commit_s.append(time.perf_counter() - t)
        epochs.append(m.epoch)
        t = time.perf_counter()
        for name, v in views.items():
            tv = time.perf_counter()
            with tr.span(f"views.{name}"):
                v.update_to()
            per_view[name].append(time.perf_counter() - tv)
        catchup_s.append(time.perf_counter() - t)
        return commit_s[-1] + catchup_s[-1]

    tr.start_window()
    stat0 = cpu_stat()
    with RssPeak() as rss:
        # no warm-up round: set-up has already run every kind of operation
        n = rounds(ctx, 4, shape.tail_files, one_round)
    steal = steal_frac(stat0, cpu_stat())
    feed_calls = tr.counts.get("feed.build.calls", 0.0) - feed_calls0
    op_s = commit_s + [x for v in per_view.values() for x in v]
    round_rates = [shape.events_per_file / (c + v) for c, v in zip(commit_s, catchup_s)]

    # -- checks ----------------------------------------------------------
    oracle = X.LogOracle(files)
    cols = oracle.columns
    errors: list[str] = []
    epoch_ok = []
    feed_rows = []
    for e in epochs:
        m = load_epoch(root, e)
        want = oracle.feed(m.parent_watermark_lsn, m.watermark_lsn)
        with tr.span("feed.run"):
            feed = collect(eng.changes_dataset(e), want.schema)
        feed_rows.append(feed.num_rows)
        if ctx.corrupt_expected:
            want = corrupt(want)
        bad = X.same_rows(feed, want, ["op", "lsn", *cols])
        epoch_ok.append(not bad)
        if bad:
            errors.append(f"feed e{e}: " + "; ".join(bad))
    final_w = load_epoch(root, epochs[-1]).watermark_lsn
    state = oracle.state(final_w)
    bad = X.same_rows(eng.snapshot_table(), state, cols)
    if bad:
        epoch_ok[-1] = False
        errors.append("snapshot: " + "; ".join(bad))
    exp = X.view_expectations(corrupt(state) if ctx.corrupt_expected else state)
    view_errs = {
        "agg": X.check_agg_view(views["agg"].as_table(), exp),
        "minmax": X.check_minmax_view(views["minmax"].as_table(), exp),
        "quantile": X.check_quantile_view(views["quantile"].as_table(), exp, QUANTILE_ALPHA),
    }
    for name, errs in view_errs.items():
        errors.extend(f"{name} view: {e}" for e in errs[:3])
    # a view whose final state is wrong fails every one of its catch-ups
    failed = sum(not ok for ok in epoch_ok) + n * sum(bool(e) for e in view_errs.values())

    extra = {}
    if tr.enabled:
        tr.set("feed.calls_per_epoch", feed_calls / n)
        tr.set("feed.rows", median(feed_rows))
        extra = trace_replay_layers(
            ctx,
            files=load_epoch(root, epochs[-1]).source_files,
            root=root,
            cfg=cfg,
            epoch=epochs[-1],
            parent=epochs[-1] - 1,
        )
    return Result(
        metrics={
            "setup_s": setup_s,
            "peak_rss_mb": rss.peak / 2**20,
            # per round: one epoch's events over its commit plus the
            # views' catch-up; the median over the timed rounds
            "rows_per_s": median(round_rates),
            # every timed operation: each epoch and each view's catch-up
            "op_ms": median(op_s) * 1000.0,
        },
        detail={
            "setup_s": setup_s,
            "ray_start_s": ray_s,
            "peak_rss_mb": rss.peak / 2**20,
            "epoch_commit_s": median(commit_s),
            "views_catchup_s": median(catchup_s),
            **{f"view_{k}_s": median(v) for k, v in per_view.items()},
            "rounds": n,
            "cpu_steal_frac": steal,
            "host_spin_ms": rss.spin_ms,
        },
        attempted=n * (1 + len(views)),
        failed=failed,
        errors=errors,
        extra=extra,
        samples={"commit_s": commit_s, "catchup_s": catchup_s, **per_view},
    )


# -- query_suite ---------------------------------------------------------------

# the tables each listed query reads (for its input row count)
QUERY_TABLES = {
    "paragraph_dedup": ("documents",),
    "gram_containment": ("documents",),
    "stratified_sample": ("documents",),
    "corpus_shuffle": ("documents",),
    "temperature_sample": ("documents",),
    "ann_topk": ("embeddings",),
    "semdedup_recall": ("embeddings",),
}


def query_suite(ctx: Ctx) -> Result:
    import duckdb

    from tartare_ray.pipelines.queries import ORACLE_SQL, QUERIES
    from tools.check_oracle import compare, to_pandas

    shape = inputs.shapes()[2]
    tr = ctx.tracer
    ray_s, setup_s, (sf_dir, counts) = timed_setup(
        ctx, lambda d: (d, inputs.query_tables(d, ctx.seed, shape)), QUERY_SETUP_REPEATS
    )
    input_rows = sum(counts[t] for q in QUERY_LIST for t in QUERY_TABLES[q])

    con = duckdb.connect()
    for t in counts:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet/*.parquet')"
        )
    want = {q: con.execute(ORACLE_SQL[q]).df() for q in QUERY_LIST}
    if ctx.corrupt_expected:
        q0 = QUERY_LIST[0]
        want[q0] = want[q0].iloc[1:]

    round_s: list[float] = []
    lat: dict[str, list[float]] = {q: [] for q in QUERY_LIST}
    failed = 0
    errors: list[str] = []

    def one_round(r: int) -> float:
        nonlocal failed
        total = 0.0
        for q in QUERY_LIST:
            t = time.perf_counter()
            with tr.span(f"queries.{q}"):
                got = to_pandas(QUERIES[q](sf_dir))
            dt = time.perf_counter() - t
            lat[q].append(dt)
            total += dt
            errs = compare(q, got, want[q])
            if errs:
                failed += 1
                errors.append(f"{q}: " + "; ".join(errs[:2]))
        round_s.append(total)
        return total

    tr.start_window()
    stat0 = cpu_stat()
    with RssPeak() as rss:
        n = rounds(ctx, 2, 4, one_round, warmup=QUERY_WARMUP)
    steal = steal_frac(stat0, cpu_stat())
    round_s = round_s[QUERY_WARMUP:]
    lat = {q: v[QUERY_WARMUP:] for q, v in lat.items()}
    return Result(
        metrics={
            "setup_s": setup_s,
            "peak_rss_mb": rss.peak / 2**20,
            "rows_per_s": n * input_rows / sum(round_s),
            # the list's queries differ in cost by 10x, so a median over
            # all of them lands on whichever query sorts in the middle;
            # the geometric mean of each query's median weighs them alike
            "op_ms": geomean([median(v) for v in lat.values()]) * 1000.0,
        },
        detail={
            "setup_s": setup_s,
            "ray_start_s": ray_s,
            "peak_rss_mb": rss.peak / 2**20,
            "query_suite_s": sum(round_s) / n,
            "rounds": n,
            "cpu_steal_frac": steal,
            "host_spin_ms": rss.spin_ms,
        },
        attempted=(QUERY_WARMUP + n) * len(QUERY_LIST),
        failed=failed,
        errors=errors,
        samples={"round_s": round_s, **lat},
    )


WORKLOADS = {"bulk_replay": bulk_replay, "tail_feed": tail_feed, "query_suite": query_suite}
