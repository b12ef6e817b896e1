"""Incremental downstream replica: a second table kept in sync from a
source table's per-epoch change feed — the consumer-group API driving
the engine's own ingest machinery.

The trick is that a change feed IS a change log: each source epoch's
feed (latest-per-key winners + tombstones with the ``(op, lsn)``
envelope, original source LSNs) is persisted as one log directory
``dest/log/feed-e{E}/`` and the replica is a plain ``CdcEngine`` over
those directories.  Everything the engine already guarantees —
watermark idempotence, schema evolution, exactly-once manifest
commits — applies to the replica unchanged.

Exactly-once end-to-end, by composition:
- feed persistence is write-to-tmp + directory rename keyed by source
  epoch: a crashed/retried sync rewrites the same directory;
- the consumer cursor (``ack_changes``) advances only after the
  rename, so a crash before it re-delivers the epoch (idempotent);
- the replica replay is watermark-guarded like any engine replay.

Source ROLLBACK is handled explicitly: re-committed epochs reuse
epoch numbers, so each feed directory carries a ``_source.json``
marker with the source manifest's lineage identity.  A redelivered
epoch whose on-disk feed no longer matches (or a feed dir beyond the
source's retained head) marks divergence — the stale feeds are
rewritten/removed and the REPLICA is rolled back below the divergence
point (its watermark guard would otherwise skip the corrected feeds,
silently keeping discarded data).

Feed LSNs are sparse inside an epoch's range and a multi-file feed
directory may hold overlapping per-file LSN ranges; both are safe:
``plan_epoch``'s completeness chase pulls overlapping files into one
epoch and the validate stage's row-level ``lsn > watermark`` filter
makes duplicate delivery harmless (sources/tail.py module docs).

Reference analogue `[UNVERIFIED — empty checkout, SURVEY.md §0]`:
tartare publishes each export to subscribed platforms; this is that
publication loop as an incremental table-to-table sync instead of a
whole-file copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pyarrow.parquet as pq

from ..state.manifest import (
    Manifest,
    list_committed_epochs,
    load_current,
    load_epoch,
    load_generation,
    rollback_to,
)
from ..state.storage import TMP_SUFFIX, publish
from .cdc import CdcEngine, EngineConfig


def _epoch_identity(m: Manifest) -> str:
    """Lineage identity of a committed epoch — a fast-path check.  Two
    commits of the same epoch CAN collide here (a value-only log fix
    reproduces deterministic file names, rows and LSN ranges), which
    is why markers are additionally keyed by the source's rollback
    GENERATION (``load_generation``): any rollback invalidates every
    redelivered epoch's cached feed regardless of lineage equality."""
    payload = json.dumps(
        sorted((pl.p, pl.file, pl.rows, pl.lsn_lo, pl.lsn_hi) for pl in m.partitions)
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _feed_dirs(log_root: str) -> list[str]:
    if not os.path.isdir(log_root):
        return []
    return sorted(
        os.path.join(log_root, n)
        for n in os.listdir(log_root)
        if n.startswith("feed-e") and not n.endswith(TMP_SUFFIX)
    )


def _marker_matches(final: str, epoch: int, ident: str, generation: int) -> bool:
    marker = os.path.join(final, "_source.json")
    if not os.path.exists(marker):
        return False
    with open(marker) as f:
        d = json.load(f)
    return (
        d.get("epoch") == epoch
        and d.get("identity") == ident
        and d.get("generation") == generation
    )


def _write_feed(final: str, feed, marker: dict) -> None:
    """One feed directory, published whole (replacing a stale one):
    the feed's Parquet files and its ``_source.json`` marker."""
    with publish(final) as tmp:
        feed.write_parquet(tmp)
        # empty feeds (compaction-only epochs) and zero-row files
        # would break footer-range listing — drop them
        for n in list(os.listdir(tmp)):
            p = os.path.join(tmp, n)
            if not n.endswith(".parquet") or pq.ParquetFile(p).metadata.num_rows == 0:
                os.remove(p)
        with open(os.path.join(tmp, "_source.json"), "w") as f:
            json.dump(marker, f)


def _prev_watermark(src: CdcEngine, m: Manifest) -> int:
    if m.parent_watermark_lsn is not None:
        return m.parent_watermark_lsn
    if m.parent_epoch is not None:
        return load_epoch(src.table_root, m.parent_epoch).watermark_lsn
    return -1


def sync_replica(
    src: CdcEngine,
    dest_work: str,
    consumer_id: str = "replica-sync",
    cfg: EngineConfig | None = None,
) -> CdcEngine | None:
    """Pull the source's unacked change-feed epochs into
    ``dest_work/log`` and replay the replica table at
    ``dest_work/table``.  Call repeatedly (or from a poll loop) — each
    call is incremental and idempotent, including across a source
    rollback.  Returns the replica engine, or None when no feed has
    ever been synced."""
    log_root = os.path.join(dest_work, "log")
    replica_root = os.path.join(dest_work, "table")
    os.makedirs(log_root, exist_ok=True)
    src.subscribe(consumer_id)
    gen = load_generation(src.table_root)
    divergence_bounds: list[int] = []
    for e, feed in src.consume(consumer_id):
        m = load_epoch(src.table_root, e)
        ident = _epoch_identity(m)
        final = os.path.join(log_root, f"feed-e{e:06d}")
        if not _marker_matches(final, e, ident, gen):
            if os.path.isdir(final):
                # stale pre-rollback feed being redelivered with new
                # content: the replica holds discarded data past here
                divergence_bounds.append(_prev_watermark(src, m))
            _write_feed(final, feed, {"epoch": e, "identity": ident, "generation": gen})
        src.ack_changes(consumer_id, e)
    # feed dirs beyond the source's retained head: epochs a rollback
    # discarded and replay has not (yet) re-committed
    cur = load_current(src.table_root)
    head = cur.epoch if cur is not None else 0
    for d in _feed_dirs(log_root):
        if int(os.path.basename(d)[6:12]) > head:
            divergence_bounds.append(cur.watermark_lsn if cur is not None else -1)
            shutil.rmtree(d)
    if divergence_bounds and load_current(replica_root) is not None:
        # the replica applied feeds the source discarded; its watermark
        # guard would skip the corrected ones — roll it below the
        # divergence point (or rebuild from scratch)
        bound = min(divergence_bounds)
        ok = [
            re
            for re in list_committed_epochs(replica_root)
            if load_epoch(replica_root, re).watermark_lsn <= bound
        ]
        if ok:
            rollback_to(replica_root, max(ok))
        else:
            shutil.rmtree(replica_root)
    dirs = _feed_dirs(log_root)
    if not dirs:
        return None
    dest = CdcEngine(
        dirs,
        replica_root,
        cfg
        or EngineConfig(
            num_partitions=src.cfg.num_partitions, write_mode="delta"
        ),
    )
    dest.replay()
    return dest
