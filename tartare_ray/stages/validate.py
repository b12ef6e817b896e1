"""Validate + schema-unify + pre-reduce + partition-tag stage.

One fused ``map_batches`` stage (compiled schema & quarantine writer
held per task) that, per zero-copy Arrow batch:

1. drops rows at or below the committed watermark (duplicate-delivery /
   at-least-once tail safety — exactly-once rule D1, SURVEY.md §2A);
2. quarantines malformed rows (null lsn/doc_id, op not in {I,U,D}) to
   ``_quarantine/e{epoch}/`` instead of failing the pipeline — the
   analogue of tartare's InvalidFile rejection
   (`tartare/core/fetcher.py` `[UNVERIFIED — empty checkout]`);
3. conforms the batch to the epoch's unified change schema
   (null-backfill added columns, widen token lists int32→int64);
4. pre-reduces latest-LSN-per-doc_id *within the batch* — a key that
   dominates the epoch contributes at most one row per block to its
   partition's fold instead of its full event count (SURVEY.md §4.2,
   with the block as the implicit salt);
5. tags each row with ``part = hash(doc_id) % P``, which names the
   split file (``stages/apply.py``) the row is written to.
"""

from __future__ import annotations

import os
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..schema import conform
from .kernels import add_hash_partition_column, latest_per_key

VALID_OPS = ("I", "U", "D")


class ValidatePartitionStage:
    """Run as plain ``map_batches`` tasks (an instance, not the class)."""

    def __init__(
        self,
        change_schema: pa.Schema,
        watermark: int,
        num_partitions: int,
        quarantine_dir: str | None = None,
        winners_ref=None,  # ray.ObjectRef of a SORTED int64 np array of winning LSNs
        row_filters: tuple = (),  # (fn, kwargs) pairs, run BEFORE pre-reduce
    ):
        self.change_schema = change_schema
        self.watermark = watermark
        self.num_partitions = num_partitions
        self.quarantine_dir = quarantine_dir
        self.winners_ref = winners_ref
        # Row-dropping ingest steps are hoisted HERE, between
        # validation and the per-batch latest-per-key pre-reduce:
        # every event then passes/fails the filter independently, so
        # the committed state ("filter the event stream, then apply
        # latest-per-key of the survivors") is batch-layout-invariant
        # — downstream of a pre-reduce, a filtered winner's older
        # same-batch events would already be gone while other-batch
        # ones survived.
        self.row_filters = row_filters
        self._q_opened = False

    def _quarantine(self, bad: pa.Table) -> None:
        if self.quarantine_dir is None or len(bad) == 0:
            return
        if not self._q_opened:
            os.makedirs(self.quarantine_dir, exist_ok=True)
            self._q_opened = True
        # uuid name: duplicates under task retry are possible but harmless
        # (quarantine is diagnostic, not part of the committed state).
        pq.write_table(bad, os.path.join(self.quarantine_dir, f"q-{uuid.uuid4().hex}.parquet"))

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return (
                conform(batch, self.change_schema)
                .append_column("part", pa.array([], pa.int32()))
                .append_column("doc_hash", pa.array([], pa.int64()))
            )
        ok = pc.and_(
            pc.and_(pc.is_valid(batch["lsn"]), pc.is_valid(batch["doc_id"])),
            pc.is_in(batch["op"], value_set=pa.array(VALID_OPS)),
        )
        # metadata integrity: n_tok must equal len(tokens) (both null =
        # tombstone, fine; exactly one null or a miscount = malformed).
        # Downstream consumers — span scrub's pruned base read, pack
        # planning, export budgeting — TRUST the stored column, so a
        # producer miscount is quarantined here, not propagated.
        #
        # SPECIFIED mode divergence for the pathological case where a
        # key's NEWEST same-epoch event is malformed but an older one
        # is valid (tests/test_late_quarantine.py pins both): normal
        # mode quarantines the malformed row before the pre-reduce, so
        # the older valid event wins the epoch; late-materialization
        # mode picked the malformed LSN in the envelope-only phase 1
        # (it cannot see tokens), quarantines it here, and the key
        # HOLDS its previous committed state.  Neither mode ever
        # applies the malformed value; quarantine + requeue repairs
        # both, and holding previous state is arguably the safer read
        # of "the newest intent was garbage".
        if "n_tok" in batch.schema.names and "tokens" in batch.schema.names:
            nt_v = pc.is_valid(batch["n_tok"])
            tk_v = pc.is_valid(batch["tokens"])
            match = pc.fill_null(
                pc.equal(
                    pc.cast(batch["n_tok"], pa.int64()),
                    pc.cast(pc.list_value_length(batch["tokens"]), pa.int64()),
                ),
                False,
            )
            n_ok = pc.or_(
                pc.and_(pc.and_(nt_v, tk_v), match),
                pc.and_(pc.invert(nt_v), pc.invert(tk_v)),
            )
            ok = pc.and_(ok, n_ok)
        ok = pc.fill_null(ok, False)
        if not pc.all(ok).as_py():
            self._quarantine(batch.filter(pc.invert(ok)))
            batch = batch.filter(ok)
        # duplicate-delivery safety: drop rows at or below the watermark
        batch = batch.filter(pc.greater(batch["lsn"], self.watermark))
        if self.winners_ref is not None and len(batch):
            # late materialization (phase 2): keep only rows whose LSN
            # won phase 1 — the split writers then see winners'
            # payloads only.  Sorted-array searchsorted: node-local broadcast,
            # O(log w) per row, no hash-set build per batch.
            import numpy as np
            import ray as _ray

            w = _ray.get(self.winners_ref)
            lsn = batch["lsn"].combine_chunks().to_numpy(zero_copy_only=False)
            idx = np.searchsorted(w, lsn)
            keep = (idx < len(w)) & (w[np.minimum(idx, len(w) - 1)] == lsn)
            batch = batch.filter(pa.array(keep))
        batch = conform(batch, self.change_schema)
        # doc_hash rides along as an int64 sort surrogate: the applier's
        # hot sorts run on (doc_hash, doc_id) instead of raw strings.
        batch = add_hash_partition_column(
            batch, "doc_id", self.num_partitions, hash_col="doc_hash"
        )
        # Row-dropping ingest steps (see __init__): content curation
        # applies to content-bearing events only — tombstones pass
        # through (a delete is not subject to quality thresholds).
        for fn, kw in self.row_filters:
            if len(batch) == 0:
                break
            is_del = pc.fill_null(pc.equal(batch["op"], "D"), False)
            dels = batch.filter(is_del)
            rest = batch.filter(pc.invert(is_del))
            rest = fn(rest, **kw) if kw else fn(rest)
            batch = pa.concat_tables([dels, rest]) if len(dels) else rest
        return latest_per_key(batch, key="doc_id", order_col="lsn", hash_col="doc_hash")


class EnvelopeWinnerStage:
    """Phase 1 of late materialization: the same row rules as the full
    validate (envelope validity + watermark), applied to an
    envelope-only scan (columns lsn/op/doc_id — column-pruned read),
    pre-reduced per batch.  The max LSN per doc_id over its outputs
    (``CdcEngine._phase1_consume``) is the winning LSN set; only those
    rows' payloads are then kept by the
    full read (phase 2), so the split writers see ~winners/events of
    the bytes."""

    def __init__(self, watermark: int, num_partitions: int):
        self.watermark = watermark
        self.num_partitions = num_partitions

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.string()),
                    "lsn": pa.array([], pa.int64()),
                    "part": pa.array([], pa.int32()),
                    "doc_hash": pa.array([], pa.int64()),
                }
            )
        ok = pc.and_(
            pc.and_(pc.is_valid(batch["lsn"]), pc.is_valid(batch["doc_id"])),
            pc.is_in(batch["op"], value_set=pa.array(VALID_OPS)),
        )
        batch = batch.filter(pc.fill_null(ok, False))
        batch = batch.filter(pc.greater(batch["lsn"], self.watermark))
        batch = batch.select(["doc_id", "lsn"])
        batch = add_hash_partition_column(
            batch, "doc_id", self.num_partitions, hash_col="doc_hash"
        )
        return latest_per_key(batch, key="doc_id", order_col="lsn", hash_col="doc_hash")
