"""The CDC engine driver loop (SURVEY.md §3.2): tail → validate/unify
→ per-block pre-reduce and split write → per-partition fold → two-phase
manifest commit.  No epoch moves rows between tasks: each block writes
its own winners and one task per partition merges them
(``stages/apply.py``).

Replaces the reference's Celery-chain export lifecycle
(`tartare/tasks.py::automatic_update` → contributor_export →
coverage_export `[UNVERIFIED — empty checkout, SURVEY.md §0]`) with
micro-batch *epochs* over an append-only Parquet change log: one epoch
= one LSN range = one Ray Data pipeline run + one atomic manifest
commit.  Resume = read CURRENT and continue from its watermark; a
crashed epoch replays deterministically (exactly-once effect).

No ``ray.init`` here — the session is owned by the caller
(driver / bench.py / test fixture).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from ..metrics import epoch_metrics, write_epoch_metrics
from ..schema import (
    BASE_SCHEMA,
    CHANGE_SCHEMA,
    ENVELOPE_COLUMNS,
    conform,
    payload_schema,
    schema_fingerprint,
    unify_with_widening,
)
from ..sources.tail import (
    LogFile,
    list_log_files,
    pending_files,
    plan_epoch,
    read_log_schema,
    resolve_read_paths,
)
from ..state.manifest import (
    Manifest,
    PartitionLineage,
    commit_manifest,
    gc_orphans,
    list_committed_epochs,
    load_current,
    load_epoch,
)
from ..state.late import quarantine_late
from ..state.storage import publish
from ..stages.apply import MergeApplier, SplitApplier
from ..stages.kernels import map_items
from ..stages.validate import ValidatePartitionStage


class SchemaConflictError(ValueError):
    """A change-log file carries a schema the table cannot evolve to
    (type change other than int widening / added column).  Raised at
    plan time with the poison file named; epochs below it have already
    committed, so fixing or removing the file resumes the tail."""


# Late materialization's adaptive fallback: when the envelope pass finds
# more winners than this share of the epoch's events (low duplication),
# a second full read saves no bytes and the epoch takes the single-pass
# path instead.
LATE_MAT_MAX_RATIO = 0.7


@dataclass
class EngineConfig:
    num_partitions: int = 32
    # Epoch sizing: cap by files and/or events; None = whole pending log
    # in one epoch (pure replay). At 100 TB an epoch is sized so
    # (base partition + epoch events) fits an applier's heap:
    # P ≈ table_bytes / 512 MB, epoch_max_events ≈ P × a few M rows.
    # Every epoch is also capped at store/5 of footer bytes
    # (``CdcEngine._epoch_max_bytes``).
    epoch_max_files: int | None = None
    epoch_max_events: int | None = None
    drop_columns: tuple[str, ...] = ()
    validate_batch_size: int | None = None  # None -> Ray default (whole blocks)
    # Every epoch writes each touched partition's winners file (the
    # epoch's change feed).  "cow": also fold the partition into a
    # fresh base every epoch (simple reads).  "delta": LSM — the
    # winners file is a chain delta, folded at read and folded into a
    # base once the chain holds compact_chain_len files (the 10^10
    # path: write amplification O(epoch winners) instead of O(table)).
    write_mode: str = "cow"
    compact_chain_len: int = 8
    # Accepted and ignored: every epoch takes the one exchange-free path.
    exchange: str = "sort"
    # Late materialization: a column-pruned envelope pass (lsn/op/doc_id
    # only) determines the winning LSN set first; the full read then
    # filters to winners in the validate stage, so the split writers
    # see ~winners/events of the payload bytes (adaptive: see
    # LATE_MAT_MAX_RATIO).  Winner set memory = 8 B × winners, shipped
    # once per node (ray.put) — bounded because epochs are bounded.
    # It earns its keep: perfbench bulk_replay (a 2-CPU Ray session on
    # a 4-vCPU host, alternating pairs) ran 112k rows/s with it against
    # 98k without, faster in 8 of 8 pairs.
    #
    # With it on, epochs are pipelined: while epoch E's write executes,
    # a background thread already runs epoch E+1's envelope scan (E+1's
    # file set and watermark are deterministic from E's plan), under
    # one Ray CPU budget.  On a prefetch miss (tail mode grew the file
    # set, crash changed the watermark, thread error) the epoch
    # recomputes inline.  The overlap pays: on the same bench,
    # bulk_replay ran 115k rows/s (150k replay events/s) with it
    # against 106k (136k) without, faster in 5 of 6 pairs.
    late_materialization: bool = False
    # Ingest transform chain (tartare's contributor preprocesses, run
    # during export): registered step names applied to the validated
    # change stream BEFORE the write, in declared order.
    # Each entry: ("step_name", {kwargs}).  Steps see change-event
    # batches (envelope + payload) and must preserve the envelope.
    ingest_steps: tuple = ()


class CdcEngine:
    def __init__(
        self,
        log_dir: str | list[str],
        table_root: str,
        cfg: EngineConfig | None = None,
    ):
        from dataclasses import replace

        # One dir, or many (N-source union over a shared global LSN
        # sequencer — sources/tail.py docstring for the cut invariant).
        self.log_dir = log_dir
        self.table_root = table_root
        # private copy: the engine adopts the manifest's partition
        # count into its config at apply time, which must not leak
        # into other engines built from the same EngineConfig object
        self.cfg = replace(cfg) if cfg is not None else EngineConfig()
        self._prefetch = None  # epoch-pipelined envelope (box dict)
        self._consumed_cache: dict | None = {}  # state/late.py::consumed_files

    # -- schema planning (driver-side, metadata only) ----------------------
    def _epoch_schemas(
        self, cur: Manifest | None, files: list[LogFile]
    ) -> tuple[pa.Schema, pa.Schema]:
        """(snapshot_schema, change_schema) for this epoch: the monotone
        widening union of the parent snapshot schema and every epoch
        file's payload schema (null-retained drop policy, schema.py)."""
        parent = cur.schema if cur is not None else BASE_SCHEMA
        payloads = [payload_schema(read_log_schema(f.path)) for f in files]
        snap = unify_with_widening([parent, *payloads])
        if self.cfg.drop_columns:
            snap = pa.schema([f for f in snap if f.name not in self.cfg.drop_columns])
        envelope = [CHANGE_SCHEMA.field(n) for n in ENVELOPE_COLUMNS]
        change = pa.schema(envelope + list(snap))
        return snap, change

    def _phase1_dataset(self, chosen: list[LogFile], watermark: int, cpus: int):
        """Late-materialization phase-1 DATASET (lazy): envelope-only
        scan → per-block pre-reduce.  Created on the caller's thread;
        the prefetch consumes it on another."""
        from ..stages.validate import EnvelopeWinnerStage

        env_paths, env_fs = resolve_read_paths([f.path for f in chosen])
        return ray.data.read_parquet(
            env_paths,
            filesystem=env_fs,
            columns=["lsn", "op", "doc_id"],
            override_num_blocks=cpus,
        ).map_batches(
            EnvelopeWinnerStage(watermark, self.cfg.num_partitions),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    def _phase1_consume(self, env, chosen: list[LogFile]):
        """Execute the phase-1 dataset → sorted winner-LSN ray.put ref,
        or None when the winner ratio is too high to pay for a second
        read (adaptive fallback).  The level-2 reduce runs here, on the
        blocks' partial winners (≤ one (doc_id, lsn) row per doc per
        block): a hash aggregate of the max LSN per doc_id, whose
        values ARE the winner set — no shuffle."""
        import numpy as np

        partials = [
            b.select(["doc_id", "lsn"])
            for b in env.iter_batches(batch_format="pyarrow", batch_size=None)
        ]
        lsns = np.empty(0, np.int64)
        if partials:
            per_doc = pa.concat_tables(partials).group_by("doc_id").aggregate([("lsn", "max")])
            lsns = np.sort(per_doc["lsn_max"].to_numpy())
        total = sum(f.num_rows for f in chosen)
        if total == 0 or len(lsns) / total > LATE_MAT_MAX_RATIO:
            return None  # low duplication: a second full read buys nothing
        return ray.put(lsns)

    def _phase1_winners(self, chosen: list[LogFile], watermark: int, cpus: int):
        """Late-materialization phase 1, inline (non-prefetched) path."""
        return self._phase1_consume(self._phase1_dataset(chosen, watermark, cpus), chosen)

    # -- epoch-pipelined envelope prefetch ----------------------------------
    @staticmethod
    def _prefetch_key(chosen: list[LogFile], watermark: int) -> tuple:
        return (tuple(sorted(f.path for f in chosen)), watermark)

    def _spawn_prefetch(self, cur_chosen: list[LogFile], cpus: int) -> None:
        """Plan epoch E+1 from E's deterministic outcome (watermark =
        max LSN of E's chosen files) and start computing its winner set
        on a background thread, overlapping E's write.  Reads
        log files only — no engine state is touched."""
        import threading

        next_watermark = max(f.max_lsn for f in cur_chosen)
        try:
            pending = pending_files(self.log_dir, next_watermark)
            max_bytes = self._epoch_max_bytes()
            next_chosen = plan_epoch(
                pending, self.cfg.epoch_max_files, self.cfg.epoch_max_events, max_bytes
            )
        except Exception:
            return
        if not next_chosen:
            return
        ds = self._phase1_dataset(next_chosen, next_watermark, cpus)
        box: dict = {"key": self._prefetch_key(next_chosen, next_watermark)}

        def run():
            try:
                box["result"] = self._phase1_consume(ds, next_chosen)
            except BaseException as e:  # any failure → prefetch miss
                box["error"] = e

        t = threading.Thread(target=run, name="envelope-prefetch", daemon=True)
        box["thread"] = t
        t.start()
        self._prefetch = box

    def _take_prefetched(self, chosen: list[LogFile], watermark: int):
        """(hit, winners_ref_or_None).  A hit requires the prefetched
        plan to match this epoch's actual (file set, watermark) —
        anything else (new files arrived in tail mode, crash changed
        the watermark, thread error) is a miss and the caller
        recomputes inline."""
        box = getattr(self, "_prefetch", None)
        self._prefetch = None
        if not box or box["key"] != self._prefetch_key(chosen, watermark):
            return False, None
        box["thread"].join()
        if "error" in box:
            return False, None
        return True, box["result"]

    # -- one epoch ---------------------------------------------------------
    def run_epoch(self) -> Manifest | None:
        """Process the next pending LSN range; returns the committed
        manifest, or None when the log is exhausted.  Holds the
        single-writer flock for the build+commit (state/lock.py) —
        a second engine racing the same table_root fails fast instead
        of silently discarding this epoch's commit."""
        from ..state.lock import WriterLock

        with WriterLock(self.table_root):
            return self._run_epoch_locked()

    @staticmethod
    def _epoch_max_bytes() -> int | None:
        """Epoch cap: store/5 of FOOTER bytes.  Footer total_byte_size
        is the ENCODED (dict/RLE, pre-compression) size — measured ~3.5×
        smaller than the decoded in-memory Arrow for this token-heavy
        schema.  No task holds more than one block (the write path has
        no exchange), so the cap only bounds how much the epoch's blocks
        hold in the object store at once and how much work one commit
        barrier waits on (1.88M vs 1.42M ev/s for store/20 at 24M
        events, measured when this bound served the hash exchange)."""
        store = ray.cluster_resources().get("object_store_memory")
        return int(store // 5) if store else None

    def _run_epoch_locked(self) -> Manifest | None:
        t0 = time.perf_counter()
        gc_orphans(self.table_root)
        cur = load_current(self.table_root)
        if cur is not None and cur.num_partitions and (
            cur.num_partitions != self.cfg.num_partitions
        ):
            # The partition count is a TABLE property (the committed
            # key→part mapping), not an engine property: adopt the
            # manifest's value so a misconfigured restart or a
            # repartition_table() migration can never pair events with
            # the wrong parent chains.
            self.cfg.num_partitions = cur.num_partitions
        watermark = cur.watermark_lsn if cur is not None else -1
        # out-of-order tail hardening: a never-consumed file wholly
        # at/below the watermark is a violating producer — dead-letter
        # it (with metrics) instead of silently skipping its events
        late = quarantine_late(self.table_root, self.log_dir, watermark, self._consumed_cache)
        self._late_moved_this_run = sum(late.values())
        pending = pending_files(self.log_dir, watermark)
        max_bytes = self._epoch_max_bytes()
        chosen = plan_epoch(
            pending, self.cfg.epoch_max_files, self.cfg.epoch_max_events, max_bytes
        )
        if not chosen:
            return None
        # Poison-file guard: an INCOMPATIBLE schema change (producer
        # bug — int→string etc.; widening/adding is always fine) must
        # neither crash the whole plan nor silently lose events.
        # Unify file-by-file in LSN order and truncate the epoch
        # before the first incompatible file — everything below it
        # commits normally, then the next epoch fails loudly on the
        # poison file alone (the tail stays wedged there, visibly,
        # until the file is fixed or removed).  Truncation also drops
        # kept files whose LSN range straddles the poison file's start
        # so the committed watermark never jumps over unapplied events.
        acc = cur.schema if cur is not None else BASE_SCHEMA
        conflict = None
        for i, f in enumerate(chosen):
            try:
                acc = unify_with_widening(
                    [acc, payload_schema(read_log_schema(f.path))]
                )
            except pa.ArrowTypeError as err:
                conflict = (i, f, str(err))
                break
        if conflict is not None:
            i, poison, why = conflict
            # Fixpoint shrink: the committed watermark (max kept
            # max_lsn) must stay BELOW every dropped file's min_lsn,
            # or the dropped file's low rows would sit at/below the
            # watermark and be skipped forever.  Dropping a straddler
            # can lower the bound (multi-source interleaved ranges),
            # so iterate until stable.
            bound = poison.min_lsn
            cand = list(chosen[:i])
            changed = True
            while changed:
                changed = False
                keep = []
                for f in cand:
                    if f.max_lsn < bound:
                        keep.append(f)
                    elif f.min_lsn < bound:
                        bound = f.min_lsn
                        changed = True
                cand = keep
            if not cand:
                raise SchemaConflictError(
                    f"incompatible schema change in {poison.path}: {why} — "
                    "fix or remove the file (int widening and added "
                    "columns evolve automatically; type changes do not)"
                )
            chosen = cand
        self._schema_conflict = conflict[1].path if conflict else None
        epoch = (cur.epoch + 1) if cur is not None else 1
        snap_schema, change_schema = self._epoch_schemas(cur, chosen)
        # Per-partition file chain in epoch order (cow: one base).
        parent_chain: dict[int, list[dict]] = {}
        if cur is not None:
            for pl in sorted(cur.partitions, key=lambda x: (x.p, x.epoch)):
                parent_chain.setdefault(pl.p, []).append({"file": pl.file, "kind": pl.kind})
        cpus = int(ray.cluster_resources().get("CPU", 4))

        # Read WITHOUT a schema override: passing schema= makes Ray's
        # parquet datasource pathologically slow (~357s ctor vs 2s for a
        # 16-file/16M-row log, measured) — schema unification instead
        # happens per-batch in the validate stage via conform(), which
        # handles exactly the same null-backfill + int-widening.  Block
        # count is sized from footer byte totals (~64 MB uncompressed
        # per block, floor = cluster CPUs), capped at 4×CPUs: schema-
        # evolution files give ~7× row-count skew per block and finer
        # tasks amortize the stragglers across waves.  Each block writes
        # one split file per part it holds, so the cap also bounds the
        # split files a fold task merges.
        ray.data.DataContext.get_current().decoding_size_estimation = False
        total_bytes = sum(f.bytes_uncompressed for f in chosen)
        num_blocks = max(cpus, min(-(-total_bytes // (64 << 20)), cpus * 4))
        # Row-dropping ingest steps are hoisted into the validate
        # stage (before its pre-reduce — batch-invariant semantics,
        # see ValidatePartitionStage.row_filters) and they force late
        # materialization OFF: phase-1 winners are computed from the
        # envelope only, so a filtered winner would deterministically
        # drop its doc's older surviving events — the event-stream
        # filter semantics need full payloads in the main scan anyway
        # (the filter itself prunes the write instead).
        row_filters, xform_steps = self._split_ingest_steps()
        phases = {"plan_s": round(time.perf_counter() - t0, 3)}
        winners_ref = None
        if self.cfg.late_materialization and not row_filters:
            tp = time.perf_counter()
            hit, winners_ref = self._take_prefetched(chosen, watermark)
            if not hit:
                winners_ref = self._phase1_winners(chosen, watermark, cpus)
            phases["envelope_s"] = round(time.perf_counter() - tp, 3)
            phases["envelope_prefetched"] = hit
            # Epoch pipelining: start epoch E+1's envelope scan on a
            # background thread NOW — it overlaps this epoch's write.
            self._spawn_prefetch(chosen, cpus)
        return self._run_epoch_pipeline(
            chosen, cur, epoch, watermark, snap_schema, change_schema,
            parent_chain, num_blocks, winners_ref, row_filters, xform_steps,
            t0, phases,
        )

    def _split_ingest_steps(self):
        """Partition cfg.ingest_steps into pre-reduce row filters
        (bound ``(fn, kwargs)`` pairs) and post-validate transform
        StepSpecs, preserving declared order within each class."""
        if not self.cfg.ingest_steps:
            return (), ()
        from ..functions import builtin_steps  # noqa: F401 (register)
        from ..functions.registry import get_step

        filters, xforms = [], []
        for n, kw in self.cfg.ingest_steps:
            step = get_step(n)
            if step.row_filter:
                filters.append((step.fn, dict(kw)))
            else:
                xforms.append((n, kw))
        return tuple(filters), tuple(xforms)

    def _run_epoch_pipeline(
        self, chosen, cur, epoch, watermark, snap_schema, change_schema,
        parent_chain, num_blocks, winners_ref, row_filters, xform_steps,
        t0, phases,
    ) -> Manifest:
        t_pipe = time.perf_counter()
        log_paths, log_fs = resolve_read_paths([f.path for f in chosen])
        ds = ray.data.read_parquet(
            log_paths,
            filesystem=log_fs,
            override_num_blocks=num_blocks,
        )
        # Validate/unify/pre-reduce runs as plain TASKS (an instance, not
        # a callable class): there is no per-worker state worth
        # amortizing, and tasks scale elastically with no pool to size.
        validator = ValidatePartitionStage(
            change_schema=change_schema,
            watermark=watermark,
            num_partitions=self.cfg.num_partitions,
            quarantine_dir=f"{self.table_root}/_quarantine/e{epoch:06d}",
            winners_ref=winners_ref,
            row_filters=row_filters,
        )
        ds = ds.map_batches(
            validator,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=self.cfg.validate_batch_size,
        )
        if xform_steps:
            from ..functions.registry import StepSpec, build_pipeline

            ds = build_pipeline(
                ds,
                [StepSpec(name=n, kwargs=dict(kw)) for n, kw in xform_steps],
            )
        # Step 1: every block writes its own per-part winners as split
        # files (SplitApplier, plain tasks fused with validate) — there
        # is no exchange, and no task ever holds more than one block,
        # so a hot key's epoch is spread over every block's writer.
        split_ds = ds.map_batches(
            SplitApplier(
                table_root=self.table_root,
                epoch=epoch,
                snapshot_schema=snap_schema,
            ),
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )
        split_rows = split_ds.take_all()  # O(blocks × parts) rows
        phases["split_s"] = round(time.perf_counter() - t_pipe, 3)
        # Step 2: one task per touched partition merges its split files
        # by LSN into the epoch's one winners file and folds the chain
        # at its threshold (MergeApplier.fold_splits) — plain tasks, as
        # compaction runs, no shuffle and no Ray Data execution.
        t_fold = time.perf_counter()
        by_p: dict[int, list[dict]] = {}
        for r in split_rows:
            by_p.setdefault(int(r["p"]), []).append(r)
        items = [
            {
                "p": p,
                "splits_json": json.dumps(sorted(r["file"] for r in rs)),
                "lsn_lo": min(int(r["lsn_lo"]) for r in rs),
                "lsn_hi": max(int(r["lsn_hi"]) for r in rs),
                "events_applied": sum(int(r["events_applied"]) for r in rs),
            }
            for p, rs in sorted(by_p.items())
        ]
        applier = MergeApplier(
            table_root=self.table_root,
            epoch=epoch,
            snapshot_schema=snap_schema,
            parent_chain=parent_chain,
            mode=self.cfg.write_mode,
            compact_chain_len=self.cfg.compact_chain_len,
        )
        lineage_rows = map_items(applier.fold_splits, items)  # one row per touched partition
        phases["fold_s"] = round(time.perf_counter() - t_fold, 3)
        t_commit = time.perf_counter()

        touched = {int(r["p"]): r for r in lineage_rows}
        partitions: list[PartitionLineage] = [
            PartitionLineage(
                p=int(r["p"]),
                file=r["file"],
                rows=int(r["rows"]),
                lsn_lo=int(r["lsn_lo"]),
                lsn_hi=int(r["lsn_hi"]),
                events_applied=int(r["events_applied"]),
                bytes=int(r["bytes"]),
                kind=r["kind"],
                epoch=epoch,
                apply_ms=float(r.get("apply_ms") or 0.0),
                feed_file=r.get("feed_file"),
            )
            for r in lineage_rows
        ]
        if cur is not None:
            for pl in cur.partitions:
                if pl.p not in touched:
                    partitions.append(pl)  # untouched: whole chain forward
                elif touched[pl.p]["kind"] == "delta":
                    partitions.append(pl)  # delta appends to the chain
                # kind == "base": the fold replaced the chain — drop
        partitions.sort(key=lambda pl: (pl.p, pl.epoch))

        m = Manifest(
            epoch=epoch,
            parent_epoch=cur.epoch if cur is not None else None,
            watermark_lsn=max(f.max_lsn for f in chosen),
            schema_b64=Manifest.encode_schema(snap_schema),
            schema_fingerprint=schema_fingerprint(snap_schema),
            partitions=partitions,
            num_partitions=self.cfg.num_partitions,
            parent_watermark_lsn=cur.watermark_lsn if cur is not None else -1,
            source_files=[f.path for f in chosen],
        )
        self._commit(m)
        # the splits live on only in the winners files the fold wrote
        for r in split_rows:
            try:
                os.remove(os.path.join(self.table_root, r["file"]))
            except FileNotFoundError:
                pass
        phases["commit_s"] = round(time.perf_counter() - t_commit, 3)
        metrics = epoch_metrics(m, sorted(touched), time.perf_counter() - t0, phases)
        metrics["quarantined_rows"] = self._quarantine_count(epoch)
        if self._late_moved_this_run:
            metrics["late_quarantined_files"] = self._late_moved_this_run
        if self._schema_conflict:
            # epoch truncated before a poison file (operability signal)
            metrics["schema_conflict_file"] = self._schema_conflict
        try:
            # per-operator execution profile of read/validate/split
            # write (wall + memory), persisted per epoch so slow stages
            # are diagnosable after the fact; the fold tasks show in
            # phases.fold_s and the straggler record
            metrics["ray_stats"] = split_ds.stats()[:4000]
        except Exception:
            pass
        write_epoch_metrics(self.table_root, metrics)
        return m

    def _commit(self, m: Manifest) -> None:
        """Split out so crash-injection tests can fail between phases.
        guard_parent: the epoch chain's CURRENT swap is a CAS on the
        parent epoch — lost updates surface as ConcurrentWriterError
        instead of silently dropping a competing writer's epoch."""
        commit_manifest(self.table_root, m, guard_parent=True)

    # -- replay loop -------------------------------------------------------
    def replay(self) -> Manifest | None:
        last = load_current(self.table_root)
        while True:
            m = self.run_epoch()
            if m is None:
                return last
            last = m

    def follow(
        self,
        poll_interval: float = 5.0,
        max_empty_polls: int | None = None,
    ):
        """Continuous-tail generator: yields each committed manifest as
        the log grows (the library form of ``python -m tartare_ray
        tail``).  Stops after ``max_empty_polls`` consecutive empty
        polls when set; runs forever otherwise."""
        empty = 0
        while True:
            m = self.run_epoch()
            if m is None:
                empty += 1
                if max_empty_polls is not None and empty >= max_empty_polls:
                    return
                time.sleep(poll_interval)
            else:
                empty = 0
                yield m

    # -- snapshot readers --------------------------------------------------
    def _chains(self, m: Manifest) -> dict[int, list[dict]]:
        chains: dict[int, list[dict]] = {}
        for pl in sorted(m.partitions, key=lambda x: (x.p, x.epoch)):
            chains.setdefault(pl.p, []).append({"file": pl.file, "kind": pl.kind})
        return chains

    def _manifest_at(self, epoch: int | None) -> Manifest | None:
        if epoch is None:
            return load_current(self.table_root)
        return load_epoch(self.table_root, epoch)

    def epoch_for_lsn(self, lsn: int) -> int:
        """AS-OF-LSN time travel: the largest committed epoch whose
        watermark is ≤ ``lsn`` — i.e. the newest snapshot reflecting
        no change event beyond ``lsn``.  Committed states exist at
        epoch granularity, so this is the standard as-of resolution
        (a mid-epoch LSN maps to the epoch before it).  O(retained
        epochs) manifest footers, no data read.  Raises ``LookupError``
        when every retained epoch's watermark exceeds ``lsn`` (the
        qualifying epoch was never committed or has been GC'd)."""
        best = None
        for e in list_committed_epochs(self.table_root):
            m = load_epoch(self.table_root, e)
            if m.watermark_lsn <= lsn and (best is None or e > best):
                best = e
        if best is None:
            raise LookupError(
                f"no retained epoch has watermark <= {lsn} under "
                f"{self.table_root!r} (pre-first-epoch LSN, or GC'd)"
            )
        return best

    def _resolve_epoch(self, epoch: int | None, as_of_lsn: int | None) -> int | None:
        if as_of_lsn is None:
            return epoch
        if epoch is not None:
            raise ValueError("pass either epoch or as_of_lsn, not both")
        return self.epoch_for_lsn(as_of_lsn)

    def snapshot_dataset(
        self,
        epoch: int | None = None,
        columns: list[str] | None = None,
        predicate=None,
        as_of_lsn: int | None = None,
    ) -> ray.data.Dataset:
        """The committed table as a streaming Dataset (conformed to the
        manifest schema — older partition files evolve lazily at read).
        ``epoch`` time-travels to any un-GC'd committed epoch;
        ``columns`` prunes at the Parquet scan (pure-base manifests:
        only those column chunks leave storage); ``predicate`` (a
        ``pyarrow.dataset`` expression over snapshot columns) pushes
        down to row-group statistics on base scans and is applied
        post-fold on delta chains.

        Pure-base manifests (cow, or delta fully compacted) stream via
        ``read_parquet``; manifests with live delta chains go through a
        per-partition merge stage (``stages/compact.py``) — one task per
        partition, no shuffle (the merge needs doc_id/op, so pruning
        there applies after the fold).  ``as_of_lsn`` time-travels by
        change-event LSN instead (``epoch_for_lsn``)."""
        m = self._manifest_at(self._resolve_epoch(epoch, as_of_lsn))
        if m is None or not m.partitions:
            empty = (m.schema if m else BASE_SCHEMA).empty_table()
            return ray.data.from_arrow(
                empty.select(columns) if columns else empty
            )
        target = (
            pa.schema([m.schema.field(c) for c in columns]) if columns else m.schema
        )
        def post_pred(b: pa.Table) -> pa.Table:
            # the predicate may reference columns outside the requested
            # projection: conform to the FULL schema, filter, project
            import pyarrow.dataset as pads

            b = conform(b, m.schema)
            if len(b):
                b = pads.dataset(b).to_table(filter=predicate)
            return conform(b, target)

        if all(pl.kind == "base" for pl in m.partitions):
            files = [f"{self.table_root}/{pl.file}" for pl in m.partitions]
            # no schema= override (pathological datasource ctor — see
            # run_epoch); older files conform per batch instead.
            ray.data.DataContext.get_current().decoding_size_estimation = False
            if not columns and predicate is None:
                return ray.data.read_parquet(files).map_batches(
                    lambda b: conform(b, target),
                    batch_format="pyarrow",
                    zero_copy_batch=True,
                )
            # a carried-forward pre-evolution file may LACK a requested
            # column — group files by the columns they physically have
            # (footer-only check) and union the pruned scans.  The
            # predicate pushes down only to files carrying EVERY
            # snapshot column (an expression may reference any of
            # them); older files filter post-conform instead.
            all_names = set(m.schema.names)
            want = columns or list(m.schema.names)
            groups: dict[tuple, list[str]] = {}
            complete: dict[tuple, bool] = {}
            for f in files:
                names = set(pq.read_schema(f).names)
                key = tuple(c for c in want if c in names)
                groups.setdefault(key, []).append(f)
                # pushdown is safe only if EVERY file in the group
                # carries every snapshot column (AND, not overwrite)
                complete[key] = complete.get(key, True) and all_names <= names
            parts = []
            for have, fs in groups.items():
                push = predicate is not None and complete[have]
                if predicate is not None and not push:
                    # can't push: the file may lack a referenced column
                    # — read everything it has, filter post-conform
                    sub = ray.data.read_parquet(fs).map_batches(
                        post_pred, batch_format="pyarrow", zero_copy_batch=True
                    )
                else:
                    sub = ray.data.read_parquet(
                        fs,
                        columns=list(have) or None,
                        filter=predicate if push else None,
                    ).map_batches(
                        lambda b: conform(b, target),
                        batch_format="pyarrow",
                        zero_copy_batch=True,
                    )
                parts.append(sub)
            ds = parts[0]
            for sub in parts[1:]:
                ds = ds.union(sub)
            return ds
        import json as _json

        from ..stages.compact import PartitionMergeReader

        items = [
            {"p": p, "chain_json": _json.dumps(chain)}
            for p, chain in sorted(self._chains(m).items())
        ]
        ds = ray.data.from_items(items).map_batches(
            PartitionMergeReader(self.table_root, m.schema_b64),
            batch_format="pyarrow",
            batch_size=1,
        )
        if predicate is not None:
            ds = ds.map_batches(post_pred, batch_format="pyarrow", zero_copy_batch=True)
        elif columns:
            ds = ds.map_batches(
                lambda b: conform(b, target), batch_format="pyarrow", zero_copy_batch=True
            )
        return ds

    def _feed_schema(self, m: Manifest | None = None) -> pa.Schema:
        """The change feed's schema: the (op, lsn) envelope, then the
        snapshot columns of ``m`` (default: the head epoch)."""
        if m is None:
            m = load_current(self.table_root)
        cols = m.schema if m is not None else BASE_SCHEMA
        return pa.schema([CHANGE_SCHEMA.field("op"), CHANGE_SCHEMA.field("lsn"), *cols])

    def _feed_files(self, m: Manifest) -> dict[int, list[str]]:
        """Each touched partition's change feed at epoch ``m.epoch``:
        the winners file the epoch wrote for it — its delta, or the
        ``feed_file`` beside a base it folded — or, on epochs written by
        the earlier hash exchange, several split files (``read_feed``
        folds those).  Raises ``LookupError`` when the epoch folded
        events into a base but its manifest predates stored feed
        files."""
        by_p: dict[int, list[str]] = {}
        for pl in m.partitions:
            if pl.epoch != m.epoch:
                continue  # carried forward from an older epoch
            if pl.kind == "delta":
                by_p.setdefault(pl.p, []).append(pl.file)
            elif pl.feed_file is not None:
                by_p.setdefault(pl.p, []).append(pl.feed_file)
            elif pl.events_applied:
                raise LookupError(
                    f"epoch {m.epoch} of {self.table_root!r} folded partition "
                    f"{pl.p} without keeping its winners file (manifest written "
                    "before feed files were stored) — its change feed is gone"
                )
        return by_p

    def changes_dataset(self, epoch: int) -> ray.data.Dataset:
        """The downstream change feed of one committed epoch: the
        latest-per-key winners it applied, tombstones included, with
        the (op, lsn) envelope — what a consumer replicating this
        table needs per epoch (tartare's per-export publication feed
        analogue).

        Served from the winners files the epoch wrote: each touched
        partition's delta, or the ``feed_file`` beside a base it
        folded.  The change log is never read, so the feed survives
        log archival (``gc_log``).  Epochs that applied no events
        (compaction, backfill, repartition, column drop) have an empty
        feed.  Raises ``LookupError`` when the epoch folded events into
        a base but its manifest predates stored feed files."""
        from ..stages.compact import read_feed

        m = load_epoch(self.table_root, epoch)
        feed_schema = self._feed_schema(m)
        by_p = self._feed_files(m)
        if not by_p:
            return ray.data.from_arrow(feed_schema.empty_table())
        single = [f"{self.table_root}/{fs[0]}" for fs in by_p.values() if len(fs) == 1]
        multi = [fs for fs in by_p.values() if len(fs) > 1]
        feeds = []
        if single:
            # at most one read task per CPU and per winners file: with
            # fewer files than twice the CPUs, Ray's default read splits
            # each small file into several blocks, some of them empty
            # and schemaless
            cpus = int(ray.cluster_resources().get("CPU", 4))
            feeds.append(
                ray.data.read_parquet(
                    single, override_num_blocks=min(len(single), cpus)
                ).map_batches(
                    lambda b: conform(b, feed_schema),
                    batch_format="pyarrow",
                    zero_copy_batch=True,
                )
            )
        if multi:
            # epochs written by the earlier hash exchange: one part may
            # have several split files with ≤1 winner per doc EACH —
            # fold per part by LSN (task per part, no shuffle)
            root = self.table_root

            def fold(b: pa.Table) -> pa.Table:
                fss = b["files_json"].to_pylist()
                return pa.concat_tables([read_feed(root, json.loads(fs), feed_schema) for fs in fss])

            items = [{"files_json": json.dumps(fs)} for fs in multi]
            feeds.append(
                ray.data.from_items(items).map_batches(
                    fold, batch_format="pyarrow", batch_size=1
                )
            )
        if len(feeds) == 1:
            return feeds[0]
        return feeds[0].union(*feeds[1:])

    def history(self) -> list[dict]:
        """Committed-epoch catalog, newest first — the time-travel
        index (manifest footers only, no data read): epoch, parent,
        watermark, live file counts by kind, rows/bytes, schema
        fingerprint, partition count."""
        from collections import Counter

        from ..state.manifest import list_committed_epochs

        out = []
        for e in reversed(list_committed_epochs(self.table_root)):
            m = load_epoch(self.table_root, e)
            kinds = Counter(pl.kind for pl in m.partitions)
            out.append(
                {
                    "epoch": m.epoch,
                    "parent_epoch": m.parent_epoch,
                    "watermark_lsn": m.watermark_lsn,
                    "rows": sum(pl.rows for pl in m.partitions),
                    "bytes": sum(pl.bytes for pl in m.partitions),
                    "files": dict(kinds),
                    "num_partitions": m.num_partitions,
                    "schema_fingerprint": m.schema_fingerprint,
                }
            )
        return out

    def changes_between(self, lo_lsn: int, hi_lsn: int) -> ray.data.Dataset:
        """Audit scan: every change applied with ``lo_lsn < lsn <=
        hi_lsn``, served as the union of the intersecting epochs'
        change feeds filtered to the range.  Granularity is the feed's
        (per epoch, latest-per-key): a doc updated twice INSIDE one
        epoch shows only that epoch's winner, while updates in
        different epochs each appear — exactly what the committed
        history contains.  Only retained (un-GC'd) epochs are
        servable; a range reaching below them raises."""
        from ..state.manifest import list_committed_epochs

        if hi_lsn <= lo_lsn:
            return ray.data.from_arrow(self._feed_schema().empty_table())
        feeds = []
        retained = list_committed_epochs(self.table_root)
        if retained:
            first = load_epoch(self.table_root, retained[0])
            if lo_lsn < first.watermark_lsn:
                # the range needs the earliest retained epoch or older
                # history — refuse incomplete answers (older feeds GC'd)
                if first.parent_epoch is None:
                    floor_w = -1
                elif first.parent_watermark_lsn is not None:
                    floor_w = first.parent_watermark_lsn
                else:
                    floor_w = None  # pre-field manifest, parent GC'd
                if floor_w is None or lo_lsn < floor_w:
                    raise LookupError(
                        f"range ({lo_lsn}, {hi_lsn}] reaches below the earliest "
                        f"retained epoch {retained[0]} — older feeds were GC'd"
                    )
        for e in retained:
            m = load_epoch(self.table_root, e)
            prev_w = m.parent_watermark_lsn
            if prev_w is None:
                prev_w = (
                    load_epoch(self.table_root, m.parent_epoch).watermark_lsn
                    if m.parent_epoch is not None
                    else -1
                )
            if m.watermark_lsn <= prev_w:  # event-free commit
                continue
            if m.watermark_lsn <= lo_lsn:
                continue
            if prev_w >= hi_lsn:
                break
            if prev_w < lo_lsn or m.watermark_lsn > hi_lsn:
                raise LookupError(
                    f"range ({lo_lsn}, {hi_lsn}] cuts epoch {e} "
                    f"(({prev_w}, {m.watermark_lsn}]) — pass epoch-aligned "
                    "bounds (watermarks from history())"
                )
            feeds.append(self.changes_dataset(e))
        if not feeds:
            return ray.data.from_arrow(self._feed_schema().empty_table())
        ds = feeds[0]
        if len(feeds) > 1:
            ds = ds.union(*feeds[1:])
        return ds

    # -- change-feed consumer groups ----------------------------------------
    def subscribe(self, consumer_id: str, from_epoch: int = 0) -> int:
        """Register a downstream change-feed consumer.  Epochs >
        ``from_epoch`` will be delivered by ``consume``; registration
        pins those epochs against ``gc_epochs`` until acked.
        Idempotent; returns the consumer's current cursor."""
        from ..state.consumers import subscribe

        return int(subscribe(self.table_root, consumer_id, from_epoch)["acked_epoch"])

    def consume(self, consumer_id: str):
        """Generator over the consumer's unacked epochs, in commit
        order (``consume_epochs``): yields ``(epoch,
        changes_dataset(epoch))``, or ``(E, _seed_feed(E))`` for a seed.
        The caller applies each feed downstream, then calls
        ``ack_changes`` — a crash before the ack re-delivers that epoch
        on the next ``consume`` (at-least-once of an idempotent
        latest-per-key feed ⇒ exactly-once end-to-end).  A consumer that
        reads the feed files itself (the views) walks
        ``consume_epochs`` instead and builds no feed Dataset."""
        for e, seed in self.consume_epochs(consumer_id):
            yield e, (self._seed_feed(e) if seed else self.changes_dataset(e))

    def consume_epochs(self, consumer_id: str):
        """The consumer's cursor walk: yields ``(epoch, seed)`` for each
        unacked epoch, in commit order.  Epochs committed while the
        generator is live are picked up too (cursor + committed list
        re-checked per step), so a tail loop drains continuously.  When
        epoch cursor+1 is GC'd, the first yield is ``(E, True)`` for the
        oldest retained E — the only yield whose epoch is not cursor+1:
        the consumer replaces its state with the snapshot at E."""
        from ..state.consumers import load_cursor
        from ..state.manifest import list_committed_epochs

        cur = load_cursor(self.table_root, consumer_id)
        if cur is None:
            raise LookupError(f"consumer {consumer_id!r} is not subscribed")
        while True:
            pending = [e for e in list_committed_epochs(self.table_root) if e > cur]
            if not pending:
                return
            e = pending[0]
            yield e, e != cur + 1
            # re-read: the consumer may have acked (normal), or not
            # (it will see this epoch again on the next walk)
            acked = load_cursor(self.table_root, consumer_id)
            cur = max(cur if acked is None else acked, e)

    def _seed_feed(self, epoch: int) -> ray.data.Dataset:
        """The snapshot at ``epoch`` in the feed schema: every live row
        an update (``op="U"``) at the epoch's watermark, so any later
        feed row outranks it in a latest-per-key fold."""
        wm = int(load_epoch(self.table_root, epoch).watermark_lsn)

        def as_updates(b: pa.Table) -> pa.Table:
            b = b.add_column(0, "lsn", pa.array([wm] * len(b), pa.int64()))
            return b.add_column(0, "op", pa.array(["U"] * len(b), pa.string()))

        return self.snapshot_dataset(epoch=epoch).map_batches(
            as_updates, batch_format="pyarrow", zero_copy_batch=True
        )

    def ack_changes(self, consumer_id: str, epoch: int) -> int:
        """Durably advance ``consumer_id``'s cursor past ``epoch``
        (monotone — late/duplicate acks are no-ops).  Only committed
        epochs can be acked."""
        from ..state.consumers import ack

        return ack(self.table_root, consumer_id, epoch)

    def consumers(self) -> dict[str, int]:
        """{consumer_id: acked_epoch} for every registration."""
        from ..state.consumers import list_consumers

        return list_consumers(self.table_root)

    def _quarantine_dir(self, epoch: int) -> str:
        return f"{self.table_root}/_quarantine/e{epoch:06d}"

    def _quarantine_count(self, epoch: int) -> int:
        """Rows quarantined this epoch — footer-only count (SURVEY.md
        'quarantined and counted in metrics')."""
        import os

        d = self._quarantine_dir(epoch)
        if not os.path.isdir(d):
            return 0
        return sum(
            pq.ParquetFile(os.path.join(d, n)).metadata.num_rows
            for n in os.listdir(d)
            if n.endswith(".parquet")
        )

    # -- out-of-order tail hardening (state/late.py) -------------------------
    def late_quarantine_stats(self) -> dict:
        """{files, rows} physically dead-lettered as late across the
        table's life, plus ``logged_only`` — remote-URI violations that
        got the metrics line but could not be moved.  Tolerates a torn
        final jsonl line (non-atomic appends)."""
        p = os.path.join(self.table_root, "_quarantine", "late", "_late.jsonl")
        files = rows = logged_only = 0
        if os.path.exists(p):
            with open(p) as fh:
                for line in fh:
                    try:
                        d = json.loads(line)
                    except ValueError:
                        continue
                    if d.get("moved", True):
                        files += 1
                        rows += int(d.get("rows", 0))
                    else:
                        logged_only += 1
        out = {"files": files, "rows": rows}
        if logged_only:
            out["logged_only"] = logged_only
        return out

    def quarantine_dataset(self, epoch: int) -> ray.data.Dataset:
        """The malformed rows rejected by epoch ``epoch``'s validate
        stage, for diagnosis/replay-after-fix."""
        import os

        d = self._quarantine_dir(epoch)
        files = (
            [os.path.join(d, n) for n in os.listdir(d) if n.endswith(".parquet")]
            if os.path.isdir(d)
            else []
        )
        if not files:
            return ray.data.from_arrow(CHANGE_SCHEMA.empty_table())
        return ray.data.read_parquet(files)

    def rollback(self, epoch: int) -> Manifest:
        """Roll the table back to a committed epoch and discard every
        newer one (``state/manifest.py::rollback_to``).  The log is
        untouched — ``replay()`` afterwards re-applies events above
        the target watermark, which is the incident workflow: fix the
        log, roll back, replay.  Returns the now-current manifest."""
        from ..state.manifest import rollback_to

        rollback_to(self.table_root, epoch)
        return load_current(self.table_root)

    def drop_column(self, column: str) -> Manifest | None:
        """Schema evolution, drop side (north_star: "added/dropped
        columns"): commit a new epoch whose snapshot schema lacks
        ``column``.  METADATA-ONLY — no data file is rewritten; every
        reader conforms to the manifest schema, so the column vanishes
        from snapshots, lookups and the change feed at once, while
        time travel to pre-drop epochs still shows it.  The stored
        bytes are reclaimed lazily as compaction/cow rewrites
        partitions (their writes conform to the new schema).

        Monotone-union caveat: epoch schemas unify the manifest schema
        with the incoming change files' schemas, so if the log still
        carries the column it re-appears (null-free) at the next
        epoch — drop is for columns the upstream stopped sending.
        ``doc_id`` (the key) cannot be dropped.  No-op (None) on an
        unknown column or empty table."""
        from ..state.lock import WriterLock

        if column == "doc_id":
            raise ValueError("cannot drop the partition key column 'doc_id'")
        with WriterLock(self.table_root):
            cur = load_current(self.table_root)
            if cur is None or column not in cur.schema.names:
                return None
            new_schema = pa.schema([f for f in cur.schema if f.name != column])
            m = Manifest(
                epoch=cur.epoch + 1,
                parent_epoch=cur.epoch,
                watermark_lsn=cur.watermark_lsn,
                schema_b64=Manifest.encode_schema(new_schema),
                schema_fingerprint=schema_fingerprint(new_schema),
                partitions=cur.partitions,
                num_partitions=cur.num_partitions or self.cfg.num_partitions,
                parent_watermark_lsn=cur.watermark_lsn,
                source_files=[],  # derived epoch: no new log files consumed
            )
            self._commit(m)
            return m

    def requeue_quarantine(self, epoch: int, fix) -> str | None:
        """Dead-letter reprocessing: apply ``fix`` (pa.Table →
        pa.Table) to ``epoch``'s quarantined rows and append them to
        the change log with FRESH LSNs (watermark+1…+n, preserving the
        rows' original LSN order so per-doc fix ordering survives) —
        the next epoch applies them like any other events, and rows
        the fix left invalid simply quarantine again.

        LSN allocation requires owning the sequencer: run this with
        the producer quiesced — fresh LSNs start ABOVE both the
        committed watermark and every LSN already sitting in pending
        log files (a quiesced producer may still have unapplied files
        on disk), so requeued fixes never collide with or lose ties to
        in-flight events.  The output file name is deterministic per
        source epoch (``requeue-e{E}.parquet``), so a retried requeue
        overwrites itself; once a later epoch has consumed it,
        rewriting is harmless (its LSNs sit at or below the new
        watermark).
        Quarantine sets are operationally small (they are REJECTS);
        the fold runs driver-side.  Returns the written path, or None
        when the epoch quarantined nothing."""
        import os

        import numpy as np

        from ..state.lock import WriterLock

        first = self.log_dir if isinstance(self.log_dir, str) else self.log_dir[0]
        if "://" in first:
            # URI logs are tailed read-only by this engine; the
            # dead-letter append belongs to the log's producer side
            raise ValueError(
                "requeue_quarantine needs a POSIX log dir to append to; "
                f"got URI {first!r}"
            )
        d = self._quarantine_dir(epoch)
        files = (
            [os.path.join(d, n) for n in sorted(os.listdir(d)) if n.endswith(".parquet")]
            if os.path.isdir(d)
            else []
        )
        if not files:
            return None
        with WriterLock(self.table_root):
            cur = load_current(self.table_root)
            if cur is None:
                return None
            # quarantine batches are written pre-conform in their
            # source files' schemas, which vary under evolution —
            # unify before concatenating
            raw = [pq.read_table(f) for f in files]
            uni = unify_with_widening([t.schema for t in raw])
            tbl = pa.concat_tables([conform(t, uni) for t in raw])
            fixed = fix(tbl)
            n = len(fixed)
            if n == 0:
                return None
            old = fixed["lsn"].to_numpy(zero_copy_only=False).astype("float64")
            order = np.argsort(np.where(np.isnan(old), np.inf, old), kind="stable")
            fixed = fixed.take(pa.array(order))
            # base above BOTH the watermark and any pending file's LSNs
            base = cur.watermark_lsn
            for f in list_log_files(self.log_dir):
                base = max(base, f.max_lsn)
            fresh = pa.array(np.arange(base + 1, base + 1 + n), pa.int64())
            fixed = fixed.set_column(
                fixed.schema.get_field_index("lsn"), "lsn", fresh
            )
            path = os.path.join(first, f"requeue-e{epoch:06d}.parquet")
            with publish(path) as tmp:
                pq.write_table(fixed, tmp)
            return path

    def backfill(self, column: str, fn) -> Manifest | None:
        """Materialize an evolution-added column for old rows: rewrite
        only partitions whose chains actually CONTAIN nulls for
        ``column`` (decided from Parquet footer null-count statistics —
        metadata-only pruning, no data read for clean partitions) and
        commit a new epoch at the same watermark.  ``fn(live_rows) ->
        array`` computes the column; stored non-null values are kept
        bit-for-bit.  The tartare analogue is a preprocess that patches
        a missing GTFS file across historical exports
        `[UNVERIFIED — empty checkout, SURVEY.md §0]`."""
        import json as _json

        from ..stages.compact import PartitionBackfiller
        from ..state.lock import WriterLock

        with WriterLock(self.table_root):
            cur = load_current(self.table_root)
            if cur is None or column not in cur.schema.names:
                return None
            chains = self._chains(cur)

            def chain_has_nulls(chain: list[dict]) -> bool:
                for e in chain:
                    md = pq.ParquetFile(f"{self.table_root}/{e['file']}").metadata
                    sch = md.schema.to_arrow_schema()
                    if column not in sch.names:
                        return True  # pre-evolution file: column implied null
                    idx = sch.get_field_index(column)
                    for rg in range(md.num_row_groups):
                        st = md.row_group(rg).column(idx).statistics
                        if st is None or st.null_count is None or st.null_count > 0:
                            return True
                return False

            spans = {
                p: (
                    min(pl.lsn_lo for pl in cur.partitions if pl.p == p),
                    max(pl.lsn_hi for pl in cur.partitions if pl.p == p),
                )
                for p in chains
            }
            epoch = cur.epoch + 1
            items = [
                {
                    "p": p,
                    "chain_json": _json.dumps(chain),
                    "lsn_lo": spans[p][0],
                    "lsn_hi": spans[p][1],
                }
                for p, chain in sorted(chains.items())
                if chain_has_nulls(chain)
            ]
            if not items:
                return None
            lineage_rows = map_items(
                PartitionBackfiller(self.table_root, cur.schema_b64, epoch, column, fn),
                items,
            )
            touched = {int(r["p"]) for r in lineage_rows}
            partitions = [
                PartitionLineage(**{**r, "p": int(r["p"]), "epoch": epoch})
                for r in lineage_rows
            ]
            partitions += [pl for pl in cur.partitions if pl.p not in touched]
            partitions.sort(key=lambda pl: (pl.p, pl.epoch))
            m = Manifest(
                epoch=epoch,
                parent_epoch=cur.epoch,
                watermark_lsn=cur.watermark_lsn,
                schema_b64=cur.schema_b64,
                schema_fingerprint=cur.schema_fingerprint,
                partitions=partitions,
                num_partitions=cur.num_partitions or self.cfg.num_partitions,
                parent_watermark_lsn=cur.watermark_lsn,
                source_files=[],  # derived epoch: no new log files consumed
            )
            self._commit(m)
            return m

    def compact(self, partitions: list[int] | None = None) -> Manifest | None:
        """Fold live delta chains into fresh bases (tombstones
        physically dropped) and commit them as a new epoch at the SAME
        watermark — one task per partition, no shuffle.  ``partitions``
        restricts the fold to those ids (targeted compaction of a hot
        partition; others keep their chains); default folds every
        chain.  No-op (returns None) when nothing selected is
        chained."""
        from ..state.lock import WriterLock

        with WriterLock(self.table_root):
            return self._compact_locked(
                only=set(partitions) if partitions is not None else None
            )

    def _compact_locked(self, only: set[int] | None = None) -> Manifest | None:
        import json as _json

        from ..stages.compact import PartitionCompactor

        cur = load_current(self.table_root)
        if cur is None or all(pl.kind == "base" for pl in cur.partitions):
            return None
        epoch = cur.epoch + 1
        chains = self._chains(cur)
        if only is not None:
            chains = {p: c for p, c in chains.items() if p in only}
        spans = {
            p: (
                min(pl.lsn_lo for pl in cur.partitions if pl.p == p),
                max(pl.lsn_hi for pl in cur.partitions if pl.p == p),
            )
            for p in chains
        }
        items = [
            {
                "p": p,
                "chain_json": _json.dumps(chain),
                "lsn_lo": spans[p][0],
                "lsn_hi": spans[p][1],
            }
            for p, chain in sorted(chains.items())
            if not (len(chain) == 1 and chain[0]["kind"] == "base")
        ]
        if not items:
            return None
        lineage_rows = map_items(
            PartitionCompactor(self.table_root, cur.schema_b64, epoch), items
        )
        touched = {int(r["p"]) for r in lineage_rows}
        partitions = [
            PartitionLineage(**{**r, "p": int(r["p"]), "epoch": epoch})
            for r in lineage_rows
        ]
        partitions += [pl for pl in cur.partitions if pl.p not in touched]
        partitions.sort(key=lambda pl: (pl.p, pl.epoch))
        m = Manifest(
            epoch=epoch,
            parent_epoch=cur.epoch,
            watermark_lsn=cur.watermark_lsn,
            schema_b64=cur.schema_b64,
            schema_fingerprint=cur.schema_fingerprint,
            partitions=partitions,
            num_partitions=cur.num_partitions or self.cfg.num_partitions,
            parent_watermark_lsn=cur.watermark_lsn,
            source_files=[],  # derived epoch: no new log files consumed
        )
        self._commit(m)
        return m

    def repartition_table(self, new_num_partitions: int) -> Manifest | None:
        """Online partition-count migration — the 100 TB operational
        path: the P chosen at table creation stops fitting as the
        table grows (fat partitions → straggling appliers) or shrinks
        (tiny files).  Streams the live snapshot (delete tombstones
        already resolved), re-hashes doc_id to ``new_num_partitions``
        (vectorized map_batches), and writes one fresh sorted BASE per
        new partition via a groupby on the new part, committing a new
        epoch at the SAME watermark.  The manifest records the new
        count and both readers (lookup/views) and subsequent epochs
        adopt it from the manifest, so the key→part mapping flips
        atomically with the commit — an engine still configured with
        the old count keeps working.  Each live row moves exactly
        once; the driver holds only O(P) lineage rows.  No-op (None)
        on an empty table or when the count is unchanged."""
        from ..state.lock import WriterLock
        from ..stages.compact import PartitionRewriter
        from ..stages.kernels import add_hash_partition_column

        if new_num_partitions < 1:
            raise ValueError("new_num_partitions must be >= 1")
        with WriterLock(self.table_root):
            cur = load_current(self.table_root)
            if cur is None:
                return None
            old = cur.num_partitions or self.cfg.num_partitions
            if old == new_num_partitions:
                return None
            epoch = cur.epoch + 1
            lsn_lo = min((pl.lsn_lo for pl in cur.partitions), default=0)
            ds = self.snapshot_dataset().map_batches(
                lambda b: add_hash_partition_column(
                    b, "doc_id", new_num_partitions, hash_col="doc_hash"
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            lineage_rows = (
                ds.groupby("part")
                .map_groups(
                    PartitionRewriter,
                    fn_constructor_kwargs=dict(
                        table_root=self.table_root,
                        schema_b64=cur.schema_b64,
                        epoch=epoch,
                    ),
                    batch_format="pyarrow",
                    concurrency=max(1, int(ray.cluster_resources().get("CPU", 4)) // 2),
                )
                .take_all()  # O(new P) rows — small by design
            )
            partitions = [
                PartitionLineage(
                    p=int(r["p"]),
                    file=r["file"],
                    rows=int(r["rows"]),
                    lsn_lo=lsn_lo,
                    lsn_hi=cur.watermark_lsn,
                    events_applied=0,
                    bytes=int(r["bytes"]),
                    kind="base",
                    epoch=epoch,
                )
                for r in lineage_rows
            ]
            partitions.sort(key=lambda pl: (pl.p, pl.epoch))
            m = Manifest(
                epoch=epoch,
                parent_epoch=cur.epoch,
                watermark_lsn=cur.watermark_lsn,
                schema_b64=cur.schema_b64,
                schema_fingerprint=cur.schema_fingerprint,
                partitions=partitions,
                num_partitions=new_num_partitions,
                parent_watermark_lsn=cur.watermark_lsn,
                source_files=[],  # derived epoch: no new log files consumed
            )
            self._commit(m)
            return m

    def snapshot_table(
        self, epoch: int | None = None, as_of_lsn: int | None = None
    ) -> pa.Table:
        """Whole snapshot as one Arrow table, sorted by doc_id — tests
        and small results only (materializes on the driver).  ``epoch``
        time-travels to any un-GC'd committed epoch; ``as_of_lsn`` by
        change-event LSN instead (``epoch_for_lsn``)."""
        from ..stages.compact import merge_chain

        m = self._manifest_at(self._resolve_epoch(epoch, as_of_lsn))
        if m is None:
            return BASE_SCHEMA.empty_table()
        tables = []
        for p, chain in sorted(self._chains(m).items()):
            raw = [pq.read_table(f"{self.table_root}/{e['file']}") for e in chain]
            if len(raw) == 1 and chain[0]["kind"] == "base":
                tables.append(conform(raw[0], m.schema))
            else:
                tables.append(merge_chain(raw, m.schema))
        if not tables:
            return m.schema.empty_table()
        return pa.concat_tables(tables).sort_by([("doc_id", "ascending")])

    def lookup(
        self,
        doc_ids: list[str],
        epoch: int | None = None,
        columns: list[str] | None = None,
        as_of_lsn: int | None = None,
    ) -> pa.Table:
        """Point reads of committed state: each doc_id hashes to its
        partition, and only the TOUCHED partitions' chains are scanned
        — newest-delta-first with column pruning and early stop
        (``lookup_keys_in_chain``), so a hot key resolves from the top
        of its LSM chain without opening the base file.  I/O is
        O(touched partitions' chain suffixes), never the table.
        Deleted / never-written ids are absent from the result.
        ``epoch`` time-travels to any un-GC'd committed epoch;
        ``as_of_lsn`` by change-event LSN instead (``epoch_for_lsn``)."""
        from collections import defaultdict

        from ..stages.compact import lookup_keys_in_chain
        from ..stages.kernels import hash_partition_ids

        m = self._manifest_at(self._resolve_epoch(epoch, as_of_lsn))
        schema = m.schema if m is not None else BASE_SCHEMA
        cols = list(columns) if columns is not None else list(schema.names)
        if "doc_id" not in cols:
            cols = ["doc_id", *cols]
        pruned = pa.schema([f for f in schema if f.name in set(cols)])
        if m is None or not doc_ids:
            return pruned.empty_table()
        ids = pa.array(sorted(set(doc_ids)), pa.string())
        # key->part mapping comes from the MANIFEST (the count the table
        # was built with), so lookups are correct regardless of the
        # reader's configured value; pre-field manifests fall back.
        num_parts = m.num_partitions or self.cfg.num_partitions
        parts = hash_partition_ids(ids, num_parts)
        by_part: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(parts.tolist()):
            by_part[p].append(i)
        chains = self._chains(m)
        out = []
        for p, idxs in sorted(by_part.items()):
            chain = chains.get(p)
            if not chain:
                continue
            hit = lookup_keys_in_chain(
                self.table_root, chain, schema, ids.take(idxs), cols
            )
            if len(hit):
                out.append(hit)
        if not out:
            return pruned.empty_table()
        return pa.concat_tables(out).sort_by([("doc_id", "ascending")])
