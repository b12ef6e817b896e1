"""Pluggable metadata-storage backend for the exactly-once state layer.

The manifest protocol (state/manifest.py) needs exactly four
primitives from whatever stores its small metadata objects
(manifests, CURRENT, GENERATION, consumer cursors):

1. ``write_atomic(key, data)`` — all-or-nothing publish: a reader
   sees the old bytes or the new bytes, never a prefix.
2. ``cas(key, data, expected)`` — conditional put: succeed only if
   the key's current value is ``expected`` (``None`` = key must not
   exist).  This is the commit primitive: CURRENT only ever moves
   from the parent epoch to the child, so a lost-update race between
   two writers is detected at the swap instead of silently dropping
   an epoch.  S3 offers this natively (If-Match / If-None-Match
   conditional writes); POSIX builds it from a lock + rename.
3. ``lease(name)`` — an exclusive writer lease scoped to the table
   (flock on POSIX; a lease row / lock object elsewhere).
4. ``list / read_text / exists / delete`` — enumeration + point reads
   of committed metadata.

``PosixStorage`` is the default (single node or any shared POSIX
filesystem — NFS/Lustre across a multi-node Ray cluster).
``MemoryStorage`` is the in-process reference implementation with
native conditional-put semantics; it exists so the contract test
(tests/test_storage_contract.py) pins the EXACT semantics a future
object-store backend must provide.  ``FsspecStorage`` is that backend:
any fsspec filesystem (s3://, gs://, az://, memory://, file://) can
hold the metadata plane; ``storage_for`` resolves a table root to the
right backend (URI scheme → fsspec, plain path → POSIX, or an explicit
``register_storage`` override — the Delta-Lake LogStore configuration
pattern).  manifest.py's load/commit path routes every metadata read,
manifest publish, and CURRENT swap through it, so pointing a table's
state at an object store is a root-string (or registration) change,
not an engine change.

The DATA plane (partition parquet files, index and replica feed
directories, producer log files) stays on path-addressed storage:
files are immutable, content/deterministically named, and each one
lands through ``publish`` — the one seam that decides how a file or
directory becomes visible (today: write under ``TMP_SUFFIX``, then
rename; ``link_or_copy`` for hardlinked reuse).  Any store with atomic
single-object publish works, and nothing below needs list-after-write
consistency (readers only open files a committed manifest names).
Small JSON records (view checkpoints, epoch metrics, export and
multi-table markers) go through ``storage_for(root).write_atomic``.

tartare keeps this state in MongoDB documents `[UNVERIFIED — empty
checkout, SURVEY.md §0]`; the two-phase file commit replaces Mongo's
single-document atomicity.
"""

from __future__ import annotations

import os
import shutil
import threading
from contextlib import contextmanager

from .lock import ConcurrentWriterError

# Suffix of every not-yet-published file or directory; ``gc_orphans``
# sweeps it from a table's directories after a crash.
TMP_SUFFIX = ".inprogress"


@contextmanager
def publish(path: str):
    """Yield a temp path beside ``path`` to write a file or directory
    into; on a clean exit rename it over ``path``.  Readers never see a
    partial write: a file is swapped atomically, and an existing final
    directory is removed first (briefly absent, never half-written).
    A retried writer starts from a cleared temp path."""
    tmp = path + TMP_SUFFIX
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    elif os.path.lexists(tmp):
        os.remove(tmp)
    yield tmp
    if os.path.isdir(path):
        shutil.rmtree(path)
    os.replace(tmp, path)


def link_or_copy(src: str, dst: str) -> None:
    """Hardlink ``src`` at ``dst``, or copy it where the filesystem
    cannot link (cross-device, no hardlink support)."""
    try:
        os.link(src, dst)
    except OSError:
        shutil.copyfile(src, dst)


class Storage:
    """Interface; see module docstring for the contract.  Keys are
    '/'-separated paths relative to the storage root."""

    def list(self, prefix: str) -> list[str]:
        """Keys under ``prefix`` (non-recursive, sorted basenames)."""
        raise NotImplementedError

    def read_text(self, key: str) -> str:
        """Raises FileNotFoundError on a missing key."""
        raise NotImplementedError

    def exists(self, key: str) -> bool:
        raise NotImplementedError

    def write_atomic(self, key: str, data: str) -> None:
        raise NotImplementedError

    def cas(self, key: str, data: str, expected: str | None) -> bool:
        """Conditional put.  ``expected=None`` = create-if-absent.
        Returns False (and changes nothing) when the current value
        does not match."""
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        """True if the key existed."""
        raise NotImplementedError

    @contextmanager
    def lease(self, name: str = "LOCK"):
        """Exclusive writer lease; raises ConcurrentWriterError if
        another holder is live."""
        raise NotImplementedError
        yield  # pragma: no cover


class PosixStorage(Storage):
    """Default backend: a directory tree on a (possibly shared) POSIX
    filesystem.  write_atomic = tmp + fsync + rename; cas serializes
    through a per-root flock then renames, so it is atomic against
    other PosixStorage users of the same root (the same cooperation
    scope as the writer lease itself)."""

    def __init__(self, root: str):
        self.root = root

    def _p(self, key: str) -> str:
        return os.path.join(self.root, *key.split("/"))

    def list(self, prefix: str) -> list[str]:
        d = self._p(prefix) if prefix else self.root
        if not os.path.isdir(d):
            return []
        return sorted(n for n in os.listdir(d) if not os.path.isdir(os.path.join(d, n)))

    def read_text(self, key: str) -> str:
        with open(self._p(key)) as f:
            return f.read()

    def exists(self, key: str) -> bool:
        return os.path.exists(self._p(key))

    def write_atomic(self, key: str, data: str) -> None:
        path = self._p(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with publish(path) as tmp, open(tmp, "w") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())

    @contextmanager
    def _cas_lock(self):
        import fcntl

        os.makedirs(self.root, exist_ok=True)
        fd = os.open(os.path.join(self.root, ".caslock"), os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)  # blocking: cas sections are tiny
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def cas(self, key: str, data: str, expected: str | None) -> bool:
        with self._cas_lock():
            try:
                cur: str | None = self.read_text(key)
            except FileNotFoundError:
                cur = None
            if cur != expected:
                return False
            self.write_atomic(key, data)
            return True

    def delete(self, key: str) -> bool:
        try:
            os.remove(self._p(key))
            return True
        except FileNotFoundError:
            return False

    @contextmanager
    def lease(self, name: str = "LOCK"):
        import fcntl

        path = self._p(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(path, os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise ConcurrentWriterError(f"lease {name!r} held on {self.root}") from None
        try:
            yield self
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)


class MemoryStorage(Storage):
    """In-process reference backend with NATIVE conditional-put
    semantics (what S3 If-Match / If-None-Match provides).  Used by
    the contract test to pin the semantics; also handy in unit tests."""

    def __init__(self):
        self._data: dict[str, str] = {}
        self._mu = threading.Lock()
        self._leases: set[str] = set()

    def list(self, prefix: str) -> list[str]:
        pre = prefix.rstrip("/") + "/" if prefix else ""
        with self._mu:
            out = set()
            for k in self._data:
                if k.startswith(pre):
                    rest = k[len(pre):]
                    if "/" not in rest:
                        out.add(rest)
            return sorted(out)

    def read_text(self, key: str) -> str:
        with self._mu:
            if key not in self._data:
                raise FileNotFoundError(key)
            return self._data[key]

    def exists(self, key: str) -> bool:
        with self._mu:
            return key in self._data

    def write_atomic(self, key: str, data: str) -> None:
        with self._mu:
            self._data[key] = data

    def cas(self, key: str, data: str, expected: str | None) -> bool:
        with self._mu:
            if self._data.get(key) != expected:
                return False
            self._data[key] = data
            return True

    def delete(self, key: str) -> bool:
        with self._mu:
            return self._data.pop(key, None) is not None

    @contextmanager
    def lease(self, name: str = "LOCK"):
        with self._mu:
            if name in self._leases:
                raise ConcurrentWriterError(f"lease {name!r} held")
            self._leases.add(name)
        try:
            yield self
        finally:
            with self._mu:
                self._leases.discard(name)


class FsspecStorage(Storage):
    """Object-store metadata backend over any fsspec filesystem
    (``s3://bucket/tbl``, ``gs://…``, ``memory://tbl``,
    ``file:///shared/tbl``).  This is the multi-node deployment story
    for the state layer: manifests / CURRENT / GENERATION live in a
    bucket every Ray node can read, while the DATA plane stays
    path-addressed (immutable, deterministically named files — any
    store with atomic single-object put serves it, including the same
    bucket via Ray Data's native cloud readers).

    Atomicity notes, per primitive:

    * ``write_atomic`` — real object stores make a single-object PUT
      all-or-nothing natively, so the write goes straight through.  On
      filesystem-shaped backends (``file://``, where readers could see
      a partially flushed file) it is tmp + ``mv`` instead.

    * ``cas`` — **conditional-put emulation + fencing.**  S3 (since
      2024), GCS (``x-goog-if-generation-match``) and ABS (ETag
      If-Match) all offer native conditional writes; a deployment
      against those should subclass and override ``cas`` with the
      native header — everything else inherits.  For backends without
      one (and for the in-process contract test) the emulation
      serializes read-compare-write through a per-(filesystem, root)
      process-local mutex.  That is sufficient for the cooperation
      scope the engine actually uses — all writers of one table funnel
      through the writer lease below, so cross-process CAS races only
      arise between a live writer and a ZOMBIE (a crashed/stalled
      ex-holder whose lease was stolen).  Zombies are excluded by
      fencing, not by the mutex: every lease acquisition persists a
      monotonically increasing fencing token (``<name>.fence``), and a
      zombie's commit retry re-reads CURRENT, where its ``expected``
      parent no longer matches — the CAS chain itself fences commits.
      The residual zombie window (read-compare
      and write interleaving at microsecond scale on a remote store)
      is closed only by a native conditional put; that is why the
      override point exists and is the documented production mode.

    * ``lease`` — create-if-absent of a lease object holding
      ``{holder, acquired_at, expires_at, token}``.  Unlike flock, an
      object store cannot auto-release on process death, so the lease
      carries a TTL: a new writer may steal an EXPIRED lease, bumping
      the fencing token.  Live leases raise ``ConcurrentWriterError``
      exactly like the POSIX flock fast-fail.
    """

    _ipc_mu = threading.Lock()  # guards the registry below
    _ipc_locks: dict[tuple[str, str], threading.Lock] = {}

    def __init__(self, root_uri: str, lease_ttl_sec: float = 600.0):
        import fsspec

        self.fs, self.root = fsspec.core.url_to_fs(root_uri)
        self.root = self.root.rstrip("/")
        proto = self.fs.protocol
        self.protocol = proto[0] if isinstance(proto, (tuple, list)) else proto
        self.lease_ttl_sec = lease_ttl_sec
        self._fs_like = self.protocol in ("file", "local")
        key = (self.protocol, self.root)
        with FsspecStorage._ipc_mu:
            self._mu = FsspecStorage._ipc_locks.setdefault(key, threading.Lock())

    def _p(self, key: str) -> str:
        return f"{self.root}/{key}"

    def list(self, prefix: str) -> list[str]:
        d = self._p(prefix) if prefix else self.root
        try:
            entries = self.fs.ls(d, detail=True)
        except FileNotFoundError:
            return []
        return sorted(
            e["name"].rsplit("/", 1)[-1] for e in entries if e.get("type") != "directory"
        )

    def read_text(self, key: str) -> str:
        with self.fs.open(self._p(key), "r") as f:
            return f.read()

    def exists(self, key: str) -> bool:
        return self.fs.exists(self._p(key))

    def write_atomic(self, key: str, data: str) -> None:
        path = self._p(key)
        parent = path.rsplit("/", 1)[0]
        self.fs.makedirs(parent, exist_ok=True)
        if self._fs_like:
            tmp = path + TMP_SUFFIX
            self.fs.pipe_file(tmp, data.encode())
            self.fs.mv(tmp, path)  # os.replace underneath on local
        else:
            # single-object PUT is atomic on object stores
            self.fs.pipe_file(path, data.encode())

    def cas(self, key: str, data: str, expected: str | None) -> bool:
        # Emulation path — see class docstring.  Production object
        # stores override this with a native conditional PUT.
        with self._mu:
            try:
                cur: str | None = self.read_text(key)
            except FileNotFoundError:
                cur = None
            if cur != expected:
                return False
            self.write_atomic(key, data)
            return True

    def delete(self, key: str) -> bool:
        try:
            self.fs.rm_file(self._p(key))
            return True
        except FileNotFoundError:
            return False

    @contextmanager
    def lease(self, name: str = "LOCK"):
        import json
        import time

        fence_key, now = name + ".fence", time.time()
        with self._mu:
            holder = None
            try:
                holder = json.loads(self.read_text(name))
            except (FileNotFoundError, ValueError):
                pass
            if holder is not None and holder.get("expires_at", 0) > now:
                raise ConcurrentWriterError(
                    f"lease {name!r} held on {self.root} until "
                    f"{holder['expires_at']:.0f} (token {holder.get('token')})"
                )
            try:
                token = int(self.read_text(fence_key)) + 1
            except (FileNotFoundError, ValueError):
                token = 1
            self.write_atomic(fence_key, str(token))
            self.write_atomic(
                name,
                json.dumps(
                    {
                        "holder": f"pid-{os.getpid()}",
                        "acquired_at": now,
                        "expires_at": now + self.lease_ttl_sec,
                        "token": token,
                    }
                ),
            )
        self.fence_token = token
        try:
            yield self
        finally:
            with self._mu:
                # release only our own grant — a stolen lease (expired
                # TTL, higher token) must not be clobbered by the zombie
                try:
                    cur = json.loads(self.read_text(name))
                    if cur.get("token") == token:
                        self.delete(name)
                except (FileNotFoundError, ValueError):
                    pass


# --- table-root → backend resolution (Delta LogStore-style config) ----

_STORAGE_REGISTRY: dict[str, Storage] = {}


def register_storage(root: str, storage: Storage | None) -> None:
    """Pin an explicit metadata backend for ``root`` (``None`` clears).
    Lets a deployment keep plain-path table roots (the whole data
    plane) while hosting the state plane elsewhere — e.g. POSIX data
    on NFS with manifests in a bucket, or the replay-over-fsspec
    integration test (tests/test_storage_contract.py)."""
    if storage is None:
        _STORAGE_REGISTRY.pop(root, None)
    else:
        _STORAGE_REGISTRY[root] = storage


def storage_for(root: str) -> Storage:
    """Resolve the metadata backend for a table root: an explicit
    registration wins; a URI scheme routes to fsspec; a plain path is
    POSIX.  manifest.py's entire load/commit path goes through this."""
    st = _STORAGE_REGISTRY.get(root)
    if st is not None:
        return st
    if "://" in root:
        return FsspecStorage(root)
    return PosixStorage(root)
