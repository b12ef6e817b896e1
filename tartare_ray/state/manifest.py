"""Manifest / lineage / watermark state — the exactly-once core.

Layout (SURVEY.md §3.3; tartare analogue: ContributorExport/
CoverageExport + Job docs in Mongo `[UNVERIFIED — empty checkout]`,
re-expressed as an Iceberg/Delta-style two-phase file commit):

```
table_root/
  data/part-{p:05d}-e{epoch:06d}.parquet   # partition base (a folded chain)
  data/delta-{p:05d}-e{epoch:06d}[-s…].parquet  # an epoch's winners: a
                                           # chain delta, or the feed of the
                                           # base folded in that epoch
  _manifests/e{epoch:06d}.json             # full epoch manifest
  _manifests/CURRENT                       # committed epoch number (atomic swap)
  _metrics/e{epoch:06d}.json               # per-epoch throughput/skew metrics
  _quarantine/…                            # malformed change rows
```

Two-phase protocol: (1) every partition file and the epoch manifest
are fully written (each via write-tmp + ``os.replace``); (2) CURRENT
is swapped via ``os.replace`` — the linearization point.  A crash
between phases leaves CURRENT at the parent epoch; replaying the same
LSN range regenerates byte-identical partition files (the apply is
deterministic), so re-running converges to the same committed state:
exactly-once *effect* under at-least-once execution.
"""

from __future__ import annotations

import base64
import json
import os
import re
from dataclasses import asdict, dataclass, field

import pyarrow as pa


@dataclass
class PartitionLineage:
    p: int
    file: str  # relative to table_root
    rows: int
    lsn_lo: int  # lowest event LSN applied into this file in its writing epoch
    lsn_hi: int
    events_applied: int
    bytes: int
    # LSM chain support (delta write mode): a partition may have several
    # entries — one "base" plus ordered "delta" files; ``epoch`` is the
    # writing epoch (chain order).  Defaults keep pre-delta manifests
    # loadable.
    kind: str = "base"  # "base" | "delta"
    epoch: int = 0
    # Wall of the writer task that produced this file (ms; straggler
    # metric, SURVEY.md §8.6).  0.0 on all but the first file of a
    # multi-file writer task and on pre-metric manifests.
    apply_ms: float = 0.0
    # Winners file of a base folded in its writing epoch — that
    # epoch's change feed for the partition (``changes_dataset``).
    # None on deltas (the delta IS the feed), on bases written without
    # new events (compaction, backfill, repartition) and on manifests
    # older than the field.
    feed_file: str | None = None


@dataclass
class Manifest:
    epoch: int
    parent_epoch: int | None
    watermark_lsn: int  # all events with lsn <= watermark are reflected
    schema_b64: str  # serialized pa.Schema of the snapshot
    schema_fingerprint: str
    partitions: list[PartitionLineage] = field(default_factory=list)
    # The hash-partition count the table was BUILT with — the key→part
    # mapping readers must use (lookup, views).  0 on pre-field
    # manifests (readers then fall back to their configured value).
    num_partitions: int = 0
    # Parent epoch's watermark, denormalized so the LSN range an epoch
    # applied, (parent_watermark, watermark], is known after GC of the
    # parent manifest (``changes_between``).  None on pre-field
    # manifests (readers fall back to loading the parent).
    parent_watermark_lsn: int | None = None
    # Log files this epoch consumed (paths as listed by the tail).
    # Lets the engine distinguish an already-applied file from a LATE
    # producer file whose LSNs fall at/below the watermark — the
    # latter is quarantined instead of silently skipped
    # (``state/late.py::quarantine_late``).  None on pre-field manifests
    # (detection then stays off — legacy behavior); [] on derived
    # epochs (backfill/compact/repartition consume no new files).
    source_files: list[str] | None = None

    @property
    def schema(self) -> pa.Schema:
        return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(self.schema_b64)))

    @staticmethod
    def encode_schema(schema: pa.Schema) -> str:
        return base64.b64encode(schema.serialize().to_pybytes()).decode()

    def partition_files(self) -> dict[int, PartitionLineage]:
        return {pl.p: pl for pl in self.partitions}

    def referenced_files(self) -> set[str]:
        """Every data file (relative to table_root) this epoch needs:
        its chain files plus the feed files of the bases it folded.  A
        base carried forward from an older epoch does not pin its feed
        file — only its writing epoch serves that feed.  GC, rollback
        and publish all decide liveness from this set."""
        return {pl.file for pl in self.partitions} | {
            pl.feed_file
            for pl in self.partitions
            if pl.feed_file is not None and pl.epoch == self.epoch
        }


def load_epoch(table_root: str, epoch: int) -> Manifest:
    """A committed epoch's manifest — time travel to any epoch still
    retained by ``gc_epochs`` (tartare's immutable dated Export
    analogue: every epoch is a readable artifact until GC'd)."""
    from .storage import storage_for

    try:
        d = json.loads(storage_for(table_root).read_text(f"_manifests/e{epoch:06d}.json"))
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no manifest for epoch {epoch} under {table_root!r} — epoch was "
            f"never committed, or its manifest was GC'd (gc_epochs keep_last)"
        ) from None
    d["partitions"] = [PartitionLineage(**p) for p in d["partitions"]]
    return Manifest(**d)


def load_current(table_root: str) -> Manifest | None:
    from .storage import storage_for

    try:
        epoch = int(storage_for(table_root).read_text("_manifests/CURRENT").strip())
    except FileNotFoundError:
        return None
    return load_epoch(table_root, epoch)


def commit_manifest(table_root: str, m: Manifest, *, guard_parent: bool = False) -> None:
    """Phase 1: epoch manifest file; phase 2: CURRENT swap.

    With ``guard_parent=True`` (the engine's own epoch chain) the swap
    is a COMPARE-AND-SWAP expecting CURRENT == m.parent_epoch: a lost
    update — two writers both building E+1 from parent E, the second
    silently overwriting the first — is detected at the linearization
    point itself, independent of the advisory flock.  On a backend
    with native conditional puts (state/storage.py) this is the whole
    multi-writer safety story; the flock is just the POSIX fast-fail.
    Publish/rollback keep the unguarded swap: they move CURRENT across
    generations/backwards by design and hold the destination lease."""
    from .storage import storage_for

    st = storage_for(table_root)
    st.write_atomic(f"_manifests/e{m.epoch:06d}.json", json.dumps(asdict(m), indent=1))
    if not guard_parent:
        st.write_atomic("_manifests/CURRENT", str(m.epoch))
        return
    expected = None if m.parent_epoch is None else str(m.parent_epoch)
    if st.cas("_manifests/CURRENT", str(m.epoch), expected=expected):
        return
    # CAS miss: idempotent re-commit of an already-committed epoch is
    # fine (a crashed caller retrying after the swap already landed)
    try:
        cur = st.read_text("_manifests/CURRENT").strip()
    except FileNotFoundError:
        cur = "<absent>"
    if cur != str(m.epoch):
        from .lock import ConcurrentWriterError

        # retract the loser's phase-1 manifest so the committed-epoch
        # listing only ever shows the winning chain
        st.delete(f"_manifests/e{m.epoch:06d}.json")
        raise ConcurrentWriterError(
            f"lost-update detected committing epoch {m.epoch} over parent "
            f"{m.parent_epoch}: CURRENT is {cur} (another writer advanced the table)"
        )


def list_committed_epochs(table_root: str) -> list[int]:
    """Committed, un-GC'd epoch numbers, ascending (footer-only)."""
    from .storage import storage_for

    return sorted(
        int(n[1:7])
        for n in storage_for(table_root).list("_manifests")
        if n.startswith("e") and n.endswith(".json")
    )


def _view_retention_floor(table_root: str) -> int | None:
    """Oldest epoch any persisted incremental view still depends on.

    ``EpochDeltaView.update_to`` (pipelines/views.py, the base of every
    incremental view) resumes from a view's latest persisted epoch H
    and, for each epoch e in (H, CURRENT], reads epoch e's change feed
    plus the PARENT chain at e-1 — so every
    epoch ≥ H must survive GC or a lagging view would read deleted
    chains.  Fresh views (no persisted state) replay from epoch 1 and
    are not protected; checkpoint them (``update_to()``) before GC."""
    vdir = os.path.join(table_root, "_views")
    floors = []
    if os.path.isdir(vdir):
        for name in os.listdir(vdir):
            sub = os.path.join(vdir, name)
            if not os.path.isdir(sub):
                continue
            eps = [
                int(n[1:7])
                for n in os.listdir(sub)
                if n.startswith("e") and n.endswith(".json")
            ]
            if eps:
                floors.append(max(eps))
    return min(floors) if floors else None


def gc_epochs(table_root: str, keep_last: int = 2) -> int:
    """Epoch GC: delete data files referenced (``referenced_files``) ONLY
    by manifests older than the last ``keep_last`` epochs (time travel to
    those epochs is given up), plus the old manifests/metrics.  Never
    touches anything reachable from a retained manifest — or from any
    epoch a persisted incremental view still needs for retractions
    (``_view_retention_floor``), or that a registered change-feed
    consumer has not yet acknowledged (``consumer_retention_floor``).  Holds the single-writer flock for the
    scan+delete: a concurrent in-flight epoch writes files no manifest
    references yet, and an unlocked GC would delete them out from
    under the pending commit.  Readers need no lock (committed files
    are immutable and CURRENT only moves forward)."""
    from .lock import WriterLock

    with WriterLock(table_root):
        return _gc_epochs_locked(table_root, keep_last)


def _gc_epochs_locked(table_root: str, keep_last: int) -> int:
    from .storage import storage_for

    st = storage_for(table_root)
    cur = load_current(table_root)
    if cur is None:
        return 0
    epochs = list_committed_epochs(table_root)
    keep = {e for e in epochs if e > cur.epoch - keep_last}
    keep.add(cur.epoch)
    floor = _view_retention_floor(table_root)
    if floor is not None:
        keep.update(e for e in epochs if e >= floor)
    # registered change-feed consumers pin their acked epoch (parent
    # watermark for the next feed) and everything unacked after it
    from .consumers import consumer_retention_floor

    cfloor = consumer_retention_floor(table_root)
    if cfloor is not None:
        keep.update(e for e in epochs if e >= cfloor)
    # incremental-index consolidated bases pin their source epoch's
    # manifest: ``EpochDeltaIndex._base_valid`` re-checks the base's
    # lineage identity against it, and keeping it on disk removes the
    # GC'd-vs-rolled-back ambiguity entirely (the generation marker
    # remains the fallback for bases whose manifest predates this pin)
    idir = os.path.join(table_root, "_indexes")
    if os.path.isdir(idir):
        eset = set(epochs)
        for name in os.listdir(idir):
            sub = os.path.join(idir, name)
            if not os.path.isdir(sub):
                continue
            for n in os.listdir(sub):
                if n.startswith("base-e") and not n.endswith(".inprogress"):
                    e = int(n[6:12])
                    if e in eset:
                        keep.add(e)
    live: set[str] = set()
    for e in keep:
        live |= load_epoch(table_root, e).referenced_files()
    removed = 0
    data = os.path.join(table_root, "data")
    if os.path.isdir(data):
        for name in os.listdir(data):
            rel = os.path.join("data", name)
            if name.endswith(".parquet") and rel not in live:
                os.remove(os.path.join(data, name))
                removed += 1
    import shutil

    for e in epochs:
        if e not in keep:
            st.delete(f"_manifests/e{e:06d}.json")
            met = os.path.join(table_root, "_metrics", f"e{e:06d}.json")
            if os.path.exists(met):
                os.remove(met)
            # dead-letter parquet of a dropped epoch can never be
            # requeued (requeue needs the epoch retained) — reclaim it
            q = os.path.join(table_root, "_quarantine", f"e{e:06d}")
            if os.path.isdir(q):
                shutil.rmtree(q)
    return removed


def load_generation(table_root: str) -> int:
    """Rollback generation: 0 for a table that never rolled back,
    +1 per ``rollback_to``.  Re-committed epochs after a rollback can
    be byte-identical in lineage to the discarded ones (deterministic
    file names, same rows/LSN ranges when only values changed), so
    consumers caching per-epoch artifacts key them by (epoch,
    generation) — the generation bump is what invalidates redelivered
    epochs' caches."""
    from .storage import storage_for

    try:
        return int(storage_for(table_root).read_text("_manifests/GENERATION").strip())
    except FileNotFoundError:
        return 0


def rollback_to(table_root: str, epoch: int) -> dict:
    """Admin rollback (the bad-data incident lever): make ``epoch``
    the CURRENT committed state and DISCARD every newer epoch — their
    manifests, exclusively-referenced data files, metrics, quarantine
    dirs, incremental-view checkpoints, and consumer cursors past the
    target (clamped so consumers re-consume from the rollback point).
    The change LOG is untouched: a subsequent ``replay()`` re-applies
    events above the target watermark — fix the log, roll back,
    replay.  Metadata-heavy but data-light: only files no retained
    manifest references are unlinked.

    Holds the writer lock.  CURRENT swaps first (atomic), so a crash
    mid-cleanup leaves the table correctly rolled back with stale
    future-epoch artifacts; re-running ``rollback_to(epoch)`` is
    idempotent and completes the cleanup — do that before the next
    write after a crashed rollback."""
    import shutil

    from .consumers import clamp_all
    from .lock import WriterLock
    from .storage import storage_for

    st = storage_for(table_root)
    with WriterLock(table_root):
        epochs = list_committed_epochs(table_root)
        if epoch not in epochs:
            raise LookupError(
                f"epoch {epoch} is not a committed, retained epoch of {table_root!r}"
            )
        drop = [e for e in epochs if e > epoch]
        # 0. bump the rollback generation FIRST: once visible, every
        # consumer-side cache of a redelivered epoch is invalid even
        # if the re-committed lineage looks identical (load_generation)
        st.write_atomic("_manifests/GENERATION", str(load_generation(table_root) + 1))
        # 1. the atomic point of no return
        st.write_atomic("_manifests/CURRENT", str(epoch))
        # 2. liveness: files any KEPT manifest references stay
        live: set[str] = set()
        for e in epochs:
            if e <= epoch:
                live |= load_epoch(table_root, e).referenced_files()
        files_removed = 0
        for e in drop:
            for rel in load_epoch(table_root, e).referenced_files() - live:
                path = os.path.join(table_root, rel)
                if os.path.exists(path):
                    os.remove(path)
                    files_removed += 1
            st.delete(f"_manifests/e{e:06d}.json")
            met = os.path.join(table_root, "_metrics", f"e{e:06d}.json")
            if os.path.exists(met):
                os.remove(met)
            q = os.path.join(table_root, "_quarantine", f"e{e:06d}")
            if os.path.isdir(q):
                shutil.rmtree(q)
        # 3. view checkpoints past the target are no longer derivable
        vdir = os.path.join(table_root, "_views")
        views_dropped = 0
        if os.path.isdir(vdir):
            for name in os.listdir(vdir):
                sub = os.path.join(vdir, name)
                if not os.path.isdir(sub):
                    continue
                for n in os.listdir(sub):
                    if n.startswith("e") and n.endswith(".json") and int(n[1:7]) > epoch:
                        os.remove(os.path.join(sub, n))
                        views_dropped += 1
        # 4. consumers must re-consume from the rollback point
        consumers_clamped = clamp_all(table_root, epoch)
        return {
            "rolled_back_to": epoch,
            "epochs_dropped": len(drop),
            "files_removed": files_removed,
            "view_checkpoints_dropped": views_dropped,
            "consumers_clamped": consumers_clamped,
        }


def gc_log(table_root: str, log_dir) -> int:
    """WAL archival: delete every change-log file whose LSNs all sit at
    or below the committed watermark — at 10^10 events the log is the
    largest artifact on disk and, unlike snapshots, grows without
    bound.  Only the tail reads the log (for events above the
    watermark); every retained epoch serves its change feed from its
    own winners files.  Archiving gives up re-applying those events:
    ``rollback_to`` followed by ``replay()`` can only re-apply events
    whose log files remain, so roll back before archiving.  A LATE
    file (at or below the watermark, consumed by no retained epoch) is
    never deleted: it is dead-lettered and logged first
    (``state/late.py``), exactly as the next epoch would.  Holds the
    writer lock: an in-flight epoch plans from a log listing that a
    concurrent unlink would invalidate.  Returns files removed."""
    from ..sources.tail import list_log_files, remove_log_file
    from .late import quarantine_late
    from .lock import WriterLock

    with WriterLock(table_root):
        cur = load_current(table_root)
        if cur is None:
            return 0
        late = quarantine_late(table_root, log_dir, cur.watermark_lsn)
        removed = 0
        for f in list_log_files(log_dir):
            if f.max_lsn <= cur.watermark_lsn and os.path.basename(f.path) not in late:
                remove_log_file(f.path)
                removed += 1
        return removed


# An epoch's per-block split file (stages/apply.py::split_file_name).
_SPLIT_RE = re.compile(r"delta-\d+-e(\d+)-s[0-9a-f]+\.parquet")


def gc_orphans(table_root: str) -> int:
    """Remove what a crashed writer left behind: in-progress tmp files
    (data parts plus manifest/consumer-cursor atomic writes) and split
    files no commit will reference — those of an epoch above CURRENT
    (a crash before the commit), and those of CURRENT that its manifest
    does not name (a crash between the commit and the split cleanup).
    Split files a committed manifest references (tables written by the
    earlier hash exchange) stay; older unreferenced ones are left to
    ``gc_epochs``."""
    n = 0
    for sub, suffix in (
        ("data", ".inprogress"),
        ("_manifests", ".tmp"),
        ("_consumers", ".tmp"),
    ):
        d = os.path.join(table_root, sub)
        if os.path.isdir(d):
            for name in os.listdir(d):
                if name.endswith(suffix):
                    os.remove(os.path.join(d, name))
                    n += 1
    data = os.path.join(table_root, "data")
    splits = []
    if os.path.isdir(data):
        for name in os.listdir(data):
            m = _SPLIT_RE.fullmatch(name)
            if m:
                splits.append((name, int(m.group(1))))
    if splits:
        cur = load_current(table_root)
        head = cur.epoch if cur is not None else 0
        live = cur.referenced_files() if cur is not None else set()
        for name, e in splits:
            if e > head or (e == head and os.path.join("data", name) not in live):
                os.remove(os.path.join(data, name))
                n += 1
    return n
