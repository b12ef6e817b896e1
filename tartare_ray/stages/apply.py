"""The epoch write path: per-block split files, then one fold task per
partition (engine centerpiece).

Target analogue of tartare's export merge + GridFS publish step
(`tartare/processes/fusio.py`, `tartare/core/gridfs_handler.py`
`[UNVERIFIED — empty checkout, SURVEY.md §0]`), re-expressed as a
partitioned merge-apply (SURVEY.md §2A J2/ST2) with no exchange: the
latest-LSN reduce is associative, so each block can reduce and write
its own winners and a per-partition task merges them afterwards.

1. ``SplitApplier`` runs as plain ``map_batches`` tasks straight on the
   validated blocks.  Each call reduces its block to latest-LSN
   winners per doc_id and writes one split file per part it holds,
   ``delta-{p}-e{E}-s{sid}.parquet``.  No task ever holds more than
   one block, so a hot key's epoch spreads over as many writers as
   there are blocks.
2. ``MergeApplier.fold_splits`` runs once per touched partition
   (``from_items(...).map_batches(..., batch_size=1)``).  It merges the
   partition's split files by LSN into the epoch's one winners file
   ``delta-{p}-e{E}.parquet`` (tombstones included).  A partition's
   state is the base + ordered delta chain, folded at read by
   ``stages/compact.py::merge_chain``.  When the chain reaches its fold
   threshold the same task also folds it into a fresh base
   ``part-{p}-e{E}.parquet`` and the winners file stays beside it as
   that epoch's change feed (lineage ``feed_file``).  ``mode="cow"``
   is the threshold 1 — every epoch folds, simplest reads, O(table)
   write amplification; ``mode="delta"`` folds at ``compact_chain_len``
   chain files — O(epoch winners) write amplification, the
   10^10-events path.

The driver deletes an epoch's split files once its manifest commits
(``state/manifest.py::gc_orphans`` removes those a crash left behind),
so every epoch keeps exactly one winners file per touched partition.

- schema evolution happens lazily per touched partition: parent files
  are conformed to the epoch's unified schema at load;
- every file lands through ``compact.write_data_file`` (one
  ``state/storage.publish`` under a deterministic name), so a retried
  task overwrites itself with identical bytes (exactly-once);
- the fold returns one lineage row per partition (p, file, kind, rows,
  lsn range, events_applied, bytes, feed_file) consumed by the
  manifest commit.

The base snapshot carries no per-row LSN: every event in epoch E+1 has
lsn > watermark(E) >= every LSN reflected in the base, so base rows
lose all conflicts by construction; across deltas the chain order
(epoch) is the priority.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..schema import conform
from .compact import DELTA_ENVELOPE, merge_chain, write_data_file
from .kernels import latest_per_key


def part_file_name(p: int, epoch: int) -> str:
    return f"part-{p:05d}-e{epoch:06d}.parquet"


def delta_file_name(p: int, epoch: int) -> str:
    return f"delta-{p:05d}-e{epoch:06d}.parquet"


def split_file_name(p: int, epoch: int, sid: str) -> str:
    return f"delta-{p:05d}-e{epoch:06d}-s{sid}.parquet"


def _winners_body(winners: pa.Table, snapshot_schema: pa.Schema) -> pa.Table:
    """An epoch's winners as stored in its winners (delta) files: the
    (op, lsn) envelope, the snapshot columns, then the ``doc_hash``
    cluster column (tombstones kept)."""
    envelope = pa.schema(
        [pa.field(n, winners.schema.field(n).type) for n in DELTA_ENVELOPE]
    )
    body = conform(winners, snapshot_schema)
    for name in reversed(DELTA_ENVELOPE):
        body = body.add_column(0, envelope.field(name), winners[name])
    return body.append_column("doc_hash", winners["doc_hash"].combine_chunks())


class MergeApplier:
    """One partition's apply: reduce its rows by LSN, write the epoch's
    winners file, fold the chain at the threshold.  The engine runs
    ``fold_splits`` over split-file items; ``__call__`` takes one
    partition's events (or partial winners) as a single table, for
    callers that group by ``part`` themselves."""

    def __init__(
        self,
        table_root: str,
        epoch: int,
        snapshot_schema: pa.Schema,
        parent_chain: dict[int, list[dict]],  # p -> [{"file","kind"}…] epoch order
        compression: str = "zstd",
        mode: str = "cow",
        compact_chain_len: int = 8,
    ):
        assert mode in ("cow", "delta")
        self.table_root = table_root
        self.epoch = epoch
        self.snapshot_schema = snapshot_schema
        self.parent_chain = parent_chain
        self.compression = compression
        # chain length (parent files + this epoch's) at which the
        # partition folds into a fresh base; cow folds every epoch
        self.fold_at = 1 if mode == "cow" else compact_chain_len
        os.makedirs(os.path.join(table_root, "data"), exist_ok=True)

    def __call__(self, group: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        if len(group) == 0:
            return _lineage_table([])
        row = {
            "p": group["part"][0].as_py(),
            "lsn_lo": pc.min(group["lsn"]).as_py(),
            "lsn_hi": pc.max(group["lsn"]).as_py(),
            "events_applied": len(group),
        }
        return _lineage_table([self._apply(row, group, t0)])

    def fold_splits(self, batch: pa.Table) -> pa.Table:
        """Each row names one partition's split files of this epoch
        (``splits_json``) with their summed lineage (``lsn_lo``,
        ``lsn_hi``, ``events_applied``).  The splits hold at most one
        winner per doc_id each, over disjoint LSN sets, so the LSN
        reduce over their union is the partition's epoch winners."""
        rows = []
        for item in batch.to_pylist():
            t0 = time.perf_counter()
            files = json.loads(item.pop("splits_json"))
            split = pa.concat_tables(
                [pq.read_table(os.path.join(self.table_root, f)) for f in files]
            )
            rows.append(self._apply(item, split, t0))
        return _lineage_table(rows)

    def _apply(self, row: dict, rows: pa.Table, t0: float) -> dict:
        p = row["p"]
        winners = latest_per_key(rows, key="doc_id", order_col="lsn", hash_col="doc_hash")
        # (doc_hash, doc_id) order: identical bytes under task retry,
        # and hash-clustered row groups for point-read pushdown
        body = _winners_body(winners, self.snapshot_schema).sort_by(
            [("doc_hash", "ascending"), ("doc_id", "ascending")]
        )
        # the winners file is written on every epoch: it is the
        # partition's delta, or — when the chain folds — the epoch's
        # change feed beside the fresh base
        delta = os.path.join("data", delta_file_name(p, self.epoch))
        write_data_file(os.path.join(self.table_root, delta), body, self.compression)
        chain = self.parent_chain.get(p, [])
        if len(chain) + 1 < self.fold_at:
            delta_bytes = os.path.getsize(os.path.join(self.table_root, delta))
            row.update(file=delta, kind="delta", rows=len(body), bytes=delta_bytes)
        else:
            # FOLD: base + deltas + this epoch's winners into a fresh
            # base (tombstones physically dropped here)
            tables = [
                pq.read_table(os.path.join(self.table_root, e["file"])) for e in chain
            ]
            final = merge_chain(tables + [body], self.snapshot_schema, keep_hash=True)
            base = os.path.join("data", part_file_name(p, self.epoch))
            path = os.path.join(self.table_root, base)
            write_data_file(path, final, self.compression)
            row.update(
                file=base, kind="base", rows=len(final),
                bytes=os.path.getsize(path), feed_file=delta,
            )
        row["apply_ms"] = (time.perf_counter() - t0) * 1000.0
        return row


class SplitApplier:
    """Step 1 of the write path: reduce one validated block to its
    per-part winners and write each part's winners as a split file.
    Runs as plain ``map_batches`` tasks, fused with the validate stage.
    One call may hold several parts and, since a part's events spread
    over every block, only PART of a part.  Correctness does not depend
    on one writer per partition:

    - each part's split is ``delta-{p}-e{E}-s{sid}.parquet`` where
      ``sid`` is a content hash of the part's LSN set — a retried task
      rewrites the same name with the same bytes (exactly-once), while
      splits of one part from different blocks cannot collide;
    - two splits of one part may both carry a winner for the same
      doc_id (disjoint LSN subsets); ``MergeApplier.fold_splits``
      reduces them by LSN, which the watermark invariant makes total.

    It never reads parent chains: it is a pure reduce + write, O(block
    winners).  Tables written by the earlier hash exchange reference
    split files in their chains; the readers (``merge_chain``,
    ``lookup_keys_in_chain``, ``changes_dataset``) fold those by LSN.
    """

    def __init__(
        self,
        table_root: str,
        epoch: int,
        snapshot_schema: pa.Schema,
        compression: str = "zstd",
    ):
        self.table_root = table_root
        self.epoch = epoch
        self.snapshot_schema = snapshot_schema
        self.compression = compression
        os.makedirs(os.path.join(table_root, "data"), exist_ok=True)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib

        t0 = time.perf_counter()
        if len(batch) == 0:
            return _lineage_table([])
        raw_parts, raw_counts = np.unique(
            batch["part"].combine_chunks().to_numpy(zero_copy_only=False),
            return_counts=True,
        )
        applied = dict(zip(raw_parts.tolist(), raw_counts.tolist()))
        winners = latest_per_key(batch, key="doc_id", order_col="lsn", hash_col="doc_hash")
        body = _winners_body(winners, self.snapshot_schema).append_column(
            "part", winners["part"].combine_chunks()
        )
        # one vectorized sort: cluster parts, deterministic row order
        body = body.sort_by(
            [("part", "ascending"), ("doc_hash", "ascending"), ("doc_id", "ascending")]
        )
        parts = body["part"].combine_chunks().to_numpy(zero_copy_only=False)
        lsns = body["lsn"].combine_chunks().to_numpy(zero_copy_only=False)
        bounds = np.flatnonzero(np.diff(parts)) + 1
        starts = np.concatenate([[0], bounds])
        stops = np.concatenate([bounds, [len(parts)]])
        rows = []
        # doc_hash stays in the split file (the fold re-sorts on it);
        # only the routing column is dropped
        payload = body.drop_columns(["part"])
        for s, e in zip(starts, stops):
            p = int(parts[s])
            span = np.sort(lsns[s:e].copy())
            sid = hashlib.blake2b(span.tobytes(), digest_size=8).hexdigest()
            fname = split_file_name(p, self.epoch, sid)
            path = os.path.join(self.table_root, "data", fname)
            write_data_file(path, payload.slice(s, e - s), self.compression)
            rows.append(
                {
                    "p": p,
                    "file": os.path.join("data", fname),
                    "kind": "delta",
                    "rows": e - s,
                    "lsn_lo": int(span[0]),
                    "lsn_hi": int(span[-1]),
                    "events_applied": applied[p],
                    "bytes": os.path.getsize(path),
                }
            )
        # this task's wall, on its first lineage row only (0 on the
        # rest), so per-task walls aggregate without double counting
        rows[0]["apply_ms"] = (time.perf_counter() - t0) * 1000.0
        return _lineage_table(rows)


LINEAGE_SCHEMA = pa.schema(
    [
        ("p", pa.int32()),
        ("file", pa.string()),
        ("kind", pa.string()),
        ("rows", pa.int64()),
        ("lsn_lo", pa.int64()),
        ("lsn_hi", pa.int64()),
        ("events_applied", pa.int64()),
        ("bytes", pa.int64()),
        # wall of the writer task that produced this file, ms; on a
        # multi-row lineage (SplitApplier) only the first row carries
        # it — aggregate per-task, not per-file (metrics.py)
        ("apply_ms", pa.float64()),
        # winners file beside a folded base (MergeApplier): the
        # writing epoch's change feed for that partition; null on deltas
        ("feed_file", pa.string()),
    ]
)


def _lineage_table(rows: list[dict]) -> pa.Table:
    if not rows:
        return LINEAGE_SCHEMA.empty_table()
    for r in rows:
        r.setdefault("events_applied", 0)
        r.setdefault("apply_ms", 0.0)
        r.setdefault("feed_file", None)
    return pa.Table.from_pylist(rows, schema=LINEAGE_SCHEMA)
