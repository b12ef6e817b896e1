"""Snapshot publication — tartare's coverage-export publish step
re-expressed for a Parquet lake.

Reference analogue `[UNVERIFIED — empty checkout, SURVEY.md §0]`:
`tartare/core/publisher.py` (HTTP/FTP/ODS publication of a coverage
export to each Environment in fixed order integration → preproduction
→ production, `tartare/tasks.py::coverage_export`).  Here a "publish"
is an atomic promotion of the committed snapshot into a destination
table root: hard-link (or copy) every data file the CURRENT manifest
references (its chains and its epoch's feed files), write the
manifest, then atomically swap the destination CURRENT — readers of
the destination never observe a partial publish.
Environment ordering is preserved: a failure at one environment stops
the chain (tartare's Job-failed semantics).
"""

from __future__ import annotations

import os
import shutil

from .manifest import Manifest, commit_manifest, load_current


def publish_snapshot(table_root: str, dest_root: str) -> Manifest:
    """Promote the committed snapshot at ``table_root`` into
    ``dest_root`` atomically.  Idempotent: re-publishing the same
    state is a no-op; files are hard-linked when possible (same
    filesystem), else copied.  Holds the DESTINATION's writer lock —
    a publish racing a destination GC (or another publisher) is the
    exact hazard the lock protocol exists for."""
    from .lock import WriterLock
    from .manifest import load_generation

    m = load_current(table_root)
    if m is None:
        raise FileNotFoundError(f"nothing committed at {table_root}")
    gen = load_generation(table_root)
    with WriterLock(dest_root):
        cur = load_current(dest_root)
        # epoch number alone is NOT snapshot identity: a rollback +
        # re-replay re-commits the same epoch with different bytes
        # (that is what the GENERATION counter records) — compare both
        if (
            cur is not None
            and cur.epoch == m.epoch
            and load_generation(dest_root) == gen
        ):
            return cur  # already published
        os.makedirs(os.path.join(dest_root, "data"), exist_ok=True)
        os.makedirs(os.path.join(dest_root, "_manifests"), exist_ok=True)
        for rel in sorted(m.referenced_files()):
            src = os.path.join(table_root, rel)
            dst = os.path.join(dest_root, rel)
            # Skip only when dst IS src (same inode — a prior hard-link
            # publish).  A mere name+size match is not proof of identity:
            # publishing a rebuilt table over an old destination must
            # replace the bytes, so anything else re-links/copies via
            # tmp+rename (cheap, and readers never see a partial file).
            if os.path.exists(dst) and os.path.samestat(os.stat(dst), os.stat(src)):
                continue
            tmp = dst + ".inprogress"
            if os.path.exists(tmp):
                os.remove(tmp)
            try:
                os.link(src, tmp)
            except OSError:
                shutil.copyfile(src, tmp)
            os.replace(tmp, dst)
        # mirror the source's rollback generation, then swap CURRENT
        from .storage import storage_for

        storage_for(dest_root).write_atomic("_manifests/GENERATION", str(gen))
        commit_manifest(dest_root, m)  # phase 2: atomic CURRENT swap
        return m


def publish_environments(table_root: str, env_roots: list[str]) -> list[Manifest]:
    """Publish to each environment IN ORDER (tartare: integration →
    preproduction → production); the chain stops at the first failure
    so later environments never run ahead of earlier ones."""
    out = []
    for dest in env_roots:
        out.append(publish_snapshot(table_root, dest))
    return out
