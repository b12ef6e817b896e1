"""Consumer-group cursors for the per-epoch change feed.

A downstream consumer (replica table, search indexer, feature store)
processes ``changes_dataset(e)`` for each committed epoch in order and
acknowledges each epoch after durably applying it.  The cursor — the
highest acked epoch — is persisted per consumer id under
``table_root/_consumers/<id>.json`` through the pluggable state
backend (``state.storage.storage_for``: POSIX tmp+rename by default,
object store via FsspecStorage), so a crashed consumer resumes exactly
at its first unacked epoch: at-least-once delivery of an idempotent
feed (the feed is latest-per-key winners + tombstones, so re-applying
an epoch is harmless), which composes to exactly-once end-to-end.

Registered consumers also pin GC (``gc_epochs``): epochs a consumer
has not yet acked — each serving its feed from its own winners files —
and the acked epoch itself, the snapshot the consumer resumes from
(an index rebuilds its base there after a rollback), cannot be
deleted, mirroring the incremental-view retention floor.
Unregister (``drop_consumer``) to release the pin.

Reference analogue `[UNVERIFIED — empty checkout, SURVEY.md §0]`:
tartare publishes each export to subscribed coverages/platforms and
tracks per-platform publication state; the cursor file is that
publication state reduced to an epoch offset.
"""

from __future__ import annotations

import json

_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.")


def _ckey(consumer_id: str) -> str:
    if not consumer_id or set(consumer_id) - _SAFE:
        raise ValueError(f"consumer id must be [A-Za-z0-9-_.]+, got {consumer_id!r}")
    return f"_consumers/{consumer_id}.json"


def _st(table_root: str):
    from .storage import storage_for

    return storage_for(table_root)


def subscribe(table_root: str, consumer_id: str, from_epoch: int = 0) -> dict:
    """Register a consumer at ``from_epoch`` (epochs > from_epoch will
    be delivered; 0 = from the beginning).  Existing registrations are
    returned unchanged — subscribe is idempotent and never moves a
    live cursor backward.  Takes the writer lock: registration must
    not race an in-flight ``gc_epochs`` (which reads the retention
    floor under the same lock), or the new consumer's early epochs
    could be collected out from under its first ``consume``.
    Epochs GC'd BEFORE registration are gone for good — a consumer of
    an aged table starts at the retained history."""
    from .lock import WriterLock

    st, key = _st(table_root), _ckey(consumer_id)
    with WriterLock(table_root):
        try:
            return json.loads(st.read_text(key))
        except FileNotFoundError:
            pass
        state = {"consumer_id": consumer_id, "acked_epoch": int(from_epoch)}
        st.write_atomic(key, json.dumps(state))
        return state


def load_cursor(table_root: str, consumer_id: str) -> int | None:
    """Highest acked epoch, or None if the consumer is not registered."""
    try:
        return int(json.loads(_st(table_root).read_text(_ckey(consumer_id)))["acked_epoch"])
    except FileNotFoundError:
        return None


def ack(table_root: str, consumer_id: str, epoch: int) -> int:
    """Advance the cursor to ``epoch``.  Monotone: acking at or below
    the current cursor is a no-op (a retried consumer never regresses
    the offset).  Read-modify-write runs under the writer lock so a
    zombie consumer's late ack cannot interleave with (and undo) a
    replacement consumer's newer one.  Returns the cursor after the
    call."""
    from .lock import WriterLock

    with WriterLock(table_root):
        cur = load_cursor(table_root, consumer_id)
        if cur is None:
            raise LookupError(f"consumer {consumer_id!r} is not subscribed")
        if epoch <= cur:
            return cur
        _st(table_root).write_atomic(
            _ckey(consumer_id),
            json.dumps({"consumer_id": consumer_id, "acked_epoch": int(epoch)}),
        )
        return int(epoch)


def drop_consumer(table_root: str, consumer_id: str) -> bool:
    """Unregister (releases the GC pin). True if it existed."""
    return _st(table_root).delete(_ckey(consumer_id))


def list_consumers(table_root: str) -> dict[str, int]:
    """{consumer_id: acked_epoch} for every registration."""
    st = _st(table_root)
    out = {}
    for n in st.list("_consumers"):
        if n.endswith(".json") and not n.endswith(".tmp"):
            s = json.loads(st.read_text(f"_consumers/{n}"))
            out[s["consumer_id"]] = int(s["acked_epoch"])
    return out


def clamp_all(table_root: str, max_epoch: int) -> int:
    """Admin: pull every cursor above ``max_epoch`` down to it —
    rollback support (epochs past the target no longer exist, so a
    consumer must re-consume from the rollback point).  The ONLY
    operation that moves a cursor backward; runs under the caller's
    writer lock.  Returns the number of cursors clamped."""
    st, n = _st(table_root), 0
    for cid, acked in list_consumers(table_root).items():
        if acked > max_epoch:
            st.write_atomic(
                _ckey(cid),
                json.dumps({"consumer_id": cid, "acked_epoch": int(max_epoch)}),
            )
            n += 1
    return n


def consumer_retention_floor(table_root: str) -> int | None:
    """Oldest epoch any registered consumer still needs: its acked
    epoch (the snapshot it resumes from) and everything after it.
    None when no consumers exist."""
    cursors = list_consumers(table_root)
    if not cursors:
        return None
    return min(cursors.values())
