"""Late producer files: out-of-order tail hardening.

A producer file whose LSNs fall ENTIRELY at/below the committed
watermark and that no retained epoch consumed is a protocol violation
(LSNs must be assigned monotonically at the cut): it can never be
applied, and silently skipping — or archiving — it loses its events
without a trace.  ``quarantine_late`` moves such files to
``_quarantine/late/`` and appends a line to ``_late.jsonl``.  Both
writers of the log's fate call it under the writer lock: the epoch
loop (``CdcEngine.run_epoch``) before it plans, and ``gc_log`` before
it unlinks anything, so a late file is always recorded before any
other file at or below the watermark goes.
"""

from __future__ import annotations

import json
import os

from .manifest import list_committed_epochs, load_epoch, load_generation


def consumed_files(table_root: str, cache: dict | None = None) -> tuple[set[str], bool, int]:
    """(consumed file BASENAMES over retained manifests,
    detection-complete flag, LSN floor below which late detection
    stays off).

    Basenames, not full paths: the same table can be reopened with
    a different ``--log-dir`` spelling (relative vs absolute, a
    symlink, a remount) and a path-string comparison would then
    mark every already-applied file unconsumed and quarantine the
    whole retained log.  Log-file names are unique per protocol
    (name-ordered ``events-*``), and basename matching errs on the
    safe side (skip, never false-quarantine).

    Detection is complete only when EVERY retained manifest records
    ``source_files`` (tables written by older code keep legacy
    skip-silently behavior).  The floor is the oldest retained
    manifest's parent watermark: files wholly below it predate the
    retention window, so applied-vs-late is undecidable there
    (their manifests are GC'd) — ``gc_log`` reclaims those.

    ``cache`` is an optional caller-owned dict (one per engine) that
    keeps the result keyed by the epoch listing AND the rollback
    generation (rollback + replay can recommit the same epoch numbers
    with different source files)."""
    epochs = list_committed_epochs(table_root)
    gen = load_generation(table_root)
    key = (epochs[0], epochs[-1], len(epochs), gen) if epochs else None
    if cache is not None and cache.get("key") == key and "value" in cache:
        return cache["value"]
    consumed: set[str] = set()
    complete = True
    floor = -1
    for i, e in enumerate(epochs):
        m = load_epoch(table_root, e)
        if i == 0:
            pw = m.parent_watermark_lsn
            floor = -1 if pw is None else int(pw)
            if pw is None and m.parent_epoch is not None:
                complete = False  # pre-field manifest
        if m.source_files is None:
            complete = False
        else:
            consumed.update(os.path.basename(p) for p in m.source_files)
    if cache is not None:
        cache.update(key=key, value=(consumed, complete, floor))
    return consumed, complete, floor


def quarantine_late(
    table_root: str, log_dir, watermark: int, cache: dict | None = None
) -> dict[str, bool]:
    """Dead-letter every late file of ``log_dir`` (see the module
    docstring); returns ``{basename: moved}`` for each late file found.
    The watermark itself never regresses (out-of-order events inside a
    STRADDLING file are handled row-wise by the validate stage's
    watermark filter, which is redelivery semantics, not loss).  Files
    on remote URIs cannot be moved from here; they still get the
    ``_late.jsonl`` line (once) so the violation is never silent, and
    ``moved`` is False for them.  Call under the writer lock."""
    from ..sources.tail import list_log_files

    if watermark < 0:
        return {}
    consumed, complete, floor = consumed_files(table_root, cache)
    if not complete:
        return {}
    qdir = os.path.join(table_root, "_quarantine", "late")
    meta = os.path.join(qdir, "_late.jsonl")
    logged: set[str] = set()
    if os.path.exists(meta):
        with open(meta) as fh:
            for line in fh:
                # appends are not atomic: a torn final line from a
                # crashed writer must not wedge every future epoch
                try:
                    logged.add(json.loads(line)["file"])
                except (ValueError, KeyError):
                    continue

    def record(f, movable: bool) -> None:
        os.makedirs(qdir, exist_ok=True)
        with open(meta, "a") as fh:
            fh.write(
                json.dumps(
                    {
                        "file": os.path.basename(f.path),
                        "min_lsn": int(f.min_lsn),
                        "max_lsn": int(f.max_lsn),
                        "watermark": int(watermark),
                        "rows": int(f.num_rows),
                        "moved": movable,
                    }
                )
                + "\n"
            )

    late: dict[str, bool] = {}
    for f in list_log_files(log_dir):
        name = os.path.basename(f.path)
        if not (floor < f.max_lsn <= watermark) or name in consumed:
            continue
        late[name] = os.path.exists(f.path)
        if late[name]:
            os.makedirs(qdir, exist_ok=True)
            os.replace(f.path, os.path.join(qdir, name))
            record(f, movable=True)
        elif name not in logged:  # remote URI: metrics-only, once
            record(f, movable=False)
            logged.add(name)
    return late
