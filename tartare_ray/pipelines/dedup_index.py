"""Incrementally-maintained token-sequence dedup index over a CDC
table — dedup as a first-class *incremental* component instead of a
periodic full-corpus rescan.

Per committed epoch, the table's change feed (latest-per-key winners +
tombstones) folds to tiny fingerprint deltas — ``(doc_id, fp, op,
lsn)``, one order/length-sensitive uint64 per row
(``stages/text.py::token_fingerprints_batch``) — persisted as one
directory per source epoch under ``table_root/_indexes/<name>/``.
Duplicate-group queries then fold the deltas (latest LSN per doc wins,
deletes drop) without ever rescanning the snapshot's token lists: the
index I/O is O(Σ epoch winners × ~40 bytes), the dedup query I/O is
O(index), and the 100 TB corpus is touched exactly once per row's
lifetime.

Index read I/O stays bounded as epochs accumulate: ``compact()`` folds
the acked delta directories (plus any previous base) into ONE
consolidated ``base-e{N}`` directory — delta-shaped rows carrying
their winning (op, lsn), so readers treat the base as just another
delta — and drops the covered dirs.  A rollback below the base epoch
invalidates it (the target's lineage identity no longer matches);
``update()`` then re-derives the base from the TABLE SNAPSHOT at the
rollback target (time travel, rows stamped with the target's
watermark LSN) — one full corpus read, paid only on
rollback-past-compaction.

Exactly-once by the same composition as ``pipelines/replica.py``:
- each delta directory, keyed by the source epoch, lands whole through
  ``state/storage.publish`` (a crashed/retried update rewrites the
  same directory);
- the consumer cursor (``ack_changes``) advances only after the
  publish, so a crash before it re-delivers the epoch (idempotent);
- ``update()`` drops every delta directory above the acked cursor
  before consuming, so a redelivered epoch — after a crash, or after a
  source rollback (``rollback_to`` clamps the cursor) — is always
  rewritten from its current feed;
- a base directory's ``_source.json`` marker records the source
  manifest's lineage identity + rollback GENERATION, so a rollback
  below the base invalidates it (``_base_valid``).

Reference analogue `[UNVERIFIED — empty checkout, SURVEY.md §0]`:
tartare's checksum-dedup of re-fetched feeds, upgraded from
whole-archive md5 polling to incremental per-record content indexing.
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from ..state.manifest import list_committed_epochs, load_epoch, load_generation
from ..state.storage import TMP_SUFFIX, publish
from ..stages.kernels import fold_by_part
from ..stages.text import token_fingerprints_batch
from .replica import _epoch_identity


class EpochDeltaIndex:
    """Epoch-delta persistence shared by the incremental indexes
    (token fingerprints here; MinHash signatures in
    ``pipelines/minhash_index.py``): consumer-cursor feed consumption,
    published exactly-once delta directories keyed by source epoch,
    lineage/generation base markers for rollback hygiene.  Subclasses set
    ``_delta_rows`` (a staticmethod: feed batch → delta rows, columns
    (doc_id, <payload…>, op, lsn)) and add their query methods."""

    def __init__(self, engine, name: str):
        self.engine = engine
        self.name = name
        self.dir = os.path.join(engine.table_root, "_indexes", name)
        self.consumer = f"dedup-index-{name}"

    # -- persistence --------------------------------------------------------
    def _epoch_dir(self, epoch: int) -> str:
        return os.path.join(self.dir, f"fp-e{epoch:06d}")

    @staticmethod
    def _delta_rows(b: pa.Table) -> pa.Table:
        raise NotImplementedError

    def _write_rows_dir(self, tmp: str, ds: "ray.data.Dataset", rows_fn) -> int:
        """Distributed delta-shaped write: each block maps through
        ``rows_fn`` and writes its own content-hash-named file into
        ``tmp`` — the DRIVER never materializes the data (it only
        publishes the directory afterwards).  A retried/crashed attempt
        starts from a cleared tmp dir and rewrites the same bytes.
        Filenames hash doc_id offsets+data+lsn bytes (doc sets are
        disjoint across blocks, so names are collision-free even when
        every row shares one lsn, as in a snapshot rebuild; the
        offsets buffer is included because disjoint doc sets like
        ["ab","c"] vs ["a","bc"] share identical data bytes)."""
        os.makedirs(tmp)

        def write_block(b: pa.Table) -> pa.Table:
            import hashlib

            rows = rows_fn(b)
            if len(rows):
                h = hashlib.blake2b(digest_size=8)
                ids = rows["doc_id"]
                if isinstance(ids, pa.ChunkedArray):
                    ids = ids.combine_chunks()
                ids = ids.cast(pa.large_string())
                h.update(ids.buffers()[1] or b"")
                h.update(ids.buffers()[2] or b"")
                h.update(rows["lsn"].to_numpy(zero_copy_only=False).tobytes())
                pq.write_table(
                    rows,
                    os.path.join(tmp, f"delta-{h.hexdigest()}.parquet"),
                    compression="zstd",
                )
            return pa.table({"rows": pa.array([len(rows)], pa.int64())})

        return int(
            sum(
                r["rows"]
                for r in ds.map_batches(
                    write_block, batch_format="pyarrow", zero_copy_batch=True
                ).take_all()
            )
        )  # O(blocks) lineage rows

    def _write_dir(self, final: str, ds: "ray.data.Dataset", rows_fn, marker: dict) -> None:
        """One index directory, published whole: ``_write_rows_dir``'s
        files plus a ``_source.json`` holding ``marker`` and the row
        count."""
        with publish(final) as tmp:
            n = self._write_rows_dir(tmp, ds, rows_fn)
            with open(os.path.join(tmp, "_source.json"), "w") as f:
                json.dump({**marker, "rows": int(n)}, f)

    def _write_epoch(self, epoch: int, ds: ray.data.Dataset) -> None:
        self._write_dir(self._epoch_dir(epoch), ds, type(self)._delta_rows, {"epoch": epoch})

    # -- base (compacted) state ----------------------------------------------
    def _base_dir(self, epoch: int) -> str:
        return os.path.join(self.dir, f"base-e{epoch:06d}")

    def _base_epochs(self) -> list[int]:
        if not os.path.isdir(self.dir):
            return []
        return sorted(
            int(n[6:12])
            for n in os.listdir(self.dir)
            if n.startswith("base-e") and not n.endswith(TMP_SUFFIX)
        )

    def _base_valid(self, epoch: int, cursor: int) -> bool:
        """A base is serveable iff it sits at or below the acked cursor
        (nothing above the cursor was ever folded in) and it was not
        invalidated by a rollback below its epoch.  Rollback is the
        ONLY invalidator; it is detected two ways:

        - manifest still present → lineage-identity mismatch (rollback
          deleted+recommitted the epoch with different content);
        - manifest MISSING → disambiguate routine GC from rollback via
          the recorded rollback GENERATION: ``rollback_to`` always
          bumps the generation, ``gc_epochs`` never does, so a missing
          manifest with an unchanged generation means the base is a
          GC survivor, not a rollback casualty (the previous behavior
          treated both as rollback and let a later ``compact()``
          permanently drop all pre-base index state)."""
        if epoch > cursor:
            return False
        p = os.path.join(self._base_dir(epoch), "_source.json")
        if not os.path.exists(p):
            return False
        with open(p) as f:
            d = json.load(f)
        gen_ok = d.get("generation") == load_generation(self.engine.table_root)
        try:
            m = load_epoch(self.engine.table_root, epoch)
        except (FileNotFoundError, LookupError, KeyError):
            return gen_ok
        if d.get("identity") is None:  # written while manifest was GC'd
            return gen_ok
        return d.get("identity") == _epoch_identity(m)

    def _current_base(self, cursor: int) -> int | None:
        best = None
        for e in self._base_epochs():
            if self._base_valid(e, cursor):
                best = e
        return best

    def _write_base(self, epoch: int, ds: "ray.data.Dataset", rows_fn=lambda b: b) -> None:
        """A base directory whose marker holds the lineage identity
        when the source manifest is still on disk (None when GC already
        reclaimed it — ``_base_valid`` then falls back to the
        generation check), plus the rollback generation at write
        time."""
        try:
            ident = _epoch_identity(load_epoch(self.engine.table_root, epoch))
        except (FileNotFoundError, LookupError, KeyError):
            ident = None
        marker = {
            "epoch": epoch,
            "identity": ident,
            "generation": load_generation(self.engine.table_root),
        }
        self._write_dir(self._base_dir(epoch), ds, rows_fn, marker)

    def _drop_covered(self, up_to: int) -> None:
        """Remove per-epoch delta dirs and older bases now folded into
        the base at ``up_to`` (safe after the base rename: readers pick
        the newest valid base and skip dirs at or below its epoch)."""
        for n in os.listdir(self.dir):
            if n.startswith("fp-e") and not n.endswith(TMP_SUFFIX):
                if int(n[4:10]) <= up_to:
                    shutil.rmtree(os.path.join(self.dir, n), ignore_errors=True)
            elif n.startswith("base-e") and not n.endswith(TMP_SUFFIX):
                if int(n[6:12]) < up_to:
                    shutil.rmtree(os.path.join(self.dir, n), ignore_errors=True)

    def compact(self) -> int | None:
        """Fold the current base (if any) and every acked per-epoch
        delta into ONE consolidated base directory keyed by the newest
        covered epoch, then drop the covered dirs — bounds index read
        I/O to O(live docs) + O(epochs since last compact) instead of
        O(all epochs ever).  Exactly-once by the same tmp+rename as
        epoch deltas; a crash between rename and cleanup leaves
        redundant covered dirs that readers skip and the next
        update()/compact() removes.  Returns the new base epoch, or
        None when there is nothing to fold."""
        os.makedirs(self.dir, exist_ok=True)
        cursor = self.engine.subscribe(self.consumer)
        committed = set(list_committed_epochs(self.engine.table_root))
        base = self._current_base(cursor)
        # rebuild-or-abort (mirrors update()): base dirs exist but none
        # is valid — a rollback fell below the compacted base and the
        # deltas it covered are gone.  Folding only the surviving
        # post-base deltas into a fresh "valid" base would permanently
        # lose all pre-base state while returning success; re-derive
        # from the snapshot at the rollback target first.
        if self._base_epochs() and base is None:
            if cursor > 0 and cursor in committed:
                self._rebuild_base(cursor)
                base = cursor
            else:
                raise RuntimeError(
                    f"index {self.name}: stale base dirs with no valid base and "
                    f"no committed cursor epoch to rebuild from — run update()"
                )
        # epochs <= cursor can never be stale (rollback_to clamps the
        # cursor), so GC'd manifests do not disqualify acked deltas
        covered = [
            int(n[4:10])
            for n in os.listdir(self.dir)
            if n.startswith("fp-e")
            and not n.endswith(TMP_SUFFIX)
            and int(n[4:10]) <= cursor
            and (base is None or int(n[4:10]) > base)
        ]
        if not covered:
            return base
        target = max(covered)
        self._write_base(target, self._live_rows(full=True, up_to=cursor))
        self._drop_covered(target)
        return target

    def _rebuild_base(self, cursor: int, seed: "ray.data.Dataset | None" = None) -> None:
        """The per-epoch deltas or feeds up to ``cursor`` are gone — a
        rollback fell below the compacted base, or ``gc_epochs``
        dropped epochs this index never consumed — so re-derive the
        index state from the TABLE SNAPSHOT at ``cursor`` (time
        travel), with every row carrying that epoch's watermark LSN
        (all later feed rows outrank it in the latest-per-key fold).
        One full corpus read, paid only in those two cases."""
        if seed is None:
            seed = self.engine._seed_feed(cursor)
        self._write_base(cursor, seed, type(self)._delta_rows)
        self._drop_covered(cursor)

    # -- maintenance ---------------------------------------------------------
    def update(self) -> list[int]:
        """Consume every unacked epoch's feed into delta rows.
        Incremental + idempotent; returns the epochs ingested."""
        os.makedirs(self.dir, exist_ok=True)
        cursor = self.engine.subscribe(self.consumer)
        # rollback hygiene: a delta is stale iff it sits ABOVE the
        # acked cursor (``rollback_to`` clamps cursors to the rollback
        # target, so everything above gets redelivered — possibly with
        # identical lineage but different values) or was already folded
        # into the current base (a crashed compact's leftover).  An
        # epoch at or below the cursor is NEVER stale — its manifest
        # may have been GC'd by ``gc_epochs`` (acked epochs are not
        # consumer-pinned), which says nothing about the delta's
        # validity, so committed-set membership is deliberately NOT a
        # staleness test here.
        committed = set(list_committed_epochs(self.engine.table_root))
        bases = self._base_epochs()
        cur_base = self._current_base(cursor)
        # base hygiene FIRST, rebuild BEFORE deleting stale bases: if
        # rollback invalidated every base (the per-epoch deltas it
        # covered are gone), re-derive from the snapshot at the
        # rollback target — the invalid dirs stay on disk until the
        # rebuilt base's rename lands, so a crash mid-rebuild leaves
        # the no-valid-base tripwire armed (``_delta_files`` raises)
        # instead of silently serving a truncated index.
        if bases and cur_base is None and cursor > 0 and cursor in committed:
            self._rebuild_base(cursor)
            cur_base = cursor
            bases = self._base_epochs()
        for e in bases:
            if e != cur_base:
                shutil.rmtree(self._base_dir(e), ignore_errors=True)
        floor = -1 if cur_base is None else cur_base
        for n in os.listdir(self.dir):
            if not (n.startswith("fp-e") or n.startswith("base-e")):
                continue
            if n.endswith(TMP_SUFFIX):
                shutil.rmtree(os.path.join(self.dir, n), ignore_errors=True)
                continue
            if n.startswith("base-e"):
                continue  # bases handled above
            e = int(n[4:10])
            if e > cursor or e <= floor:
                shutil.rmtree(os.path.join(self.dir, n), ignore_errors=True)
        done = []
        for e, ds in self.engine.consume(self.consumer):
            if e != cursor + 1:  # a seed: the snapshot at e is the new base
                self._rebuild_base(e, ds)
            else:  # every dir above the cursor was removed above
                self._write_epoch(e, ds)
            cursor = self.engine.ack_changes(self.consumer, e)
            done.append(e)
        return done

    def _delta_files(self, up_to: int | None = None) -> list[str]:
        """Parquet files of the serveable index state: the newest valid
        base (if one exists) plus every acked per-epoch delta above it
        (and at or below ``up_to`` when given).  Acked deltas are
        included regardless of manifest survival — GC of an old
        manifest never invalidates its delta (see ``update``).  Covered
        dirs a crashed compact left behind are skipped here and removed
        by the next update()/compact().

        Raises when base dirs exist but NONE is valid (rollback fell
        below the compacted base): the deltas the base covered are
        gone, so serving just the surviving post-base deltas would
        silently return a truncated index — callers must run
        ``update()`` (which rebuilds the base from the snapshot at the
        rollback target) first."""
        from ..state.consumers import load_cursor

        out = []
        if not os.path.isdir(self.dir):
            return out
        c = load_cursor(self.engine.table_root, self.consumer)
        cursor = -1 if c is None else int(c)
        base = self._current_base(cursor)
        if base is None and self._base_epochs():
            raise RuntimeError(
                f"index {self.name}: rollback invalidated the compacted base and "
                f"its covered deltas are gone — run update() to rebuild from the "
                f"snapshot before querying"
            )

        def files_of(n: str) -> list[str]:
            d = os.path.join(self.dir, n)
            return [
                os.path.join(d, f)
                for f in sorted(os.listdir(d))
                if f.startswith("delta-") and f.endswith(".parquet")
            ]

        if base is not None:
            out.extend(files_of(f"base-e{base:06d}"))
        floor = -1 if base is None else base
        for n in sorted(os.listdir(self.dir)):
            if n.startswith("fp-e") and not n.endswith(TMP_SUFFIX):
                e = int(n[4:10])
                if floor < e <= cursor and (up_to is None or e <= up_to):
                    out.extend(files_of(n))
        return out

    #: (column name, arrow type) of the per-doc payload each subclass
    #: stores next to (doc_id, op, lsn)
    _payload = ("fp", pa.int64())
    #: subclasses with MULTIPLE payload columns set this instead — a
    #: tuple of (name, type) pairs (``_payload`` is then ignored)
    _payload_cols: tuple = ()

    def _live_rows(
        self, full: bool = False, up_to: int | None = None
    ) -> "ray.data.Dataset":
        """(doc_id, <payload>) of the CURRENT live state: latest-LSN
        record per doc_id across the base + deltas, deletes dropped —
        the same argmax reduce as the engine's apply.  Vectorized at
        scale: a per-block ``latest_per_key`` pre-reduce, then one
        ``fold_by_part`` on doc_id — P Python calls total, never one
        per doc.  ``full=True`` keeps the winning (op, lsn) envelope
        too — the delta-shaped rows ``compact`` folds into a new
        base."""
        from ..stages.kernels import latest_per_key

        cols = self._payload_cols or (self._payload,)
        names = [n for n, _ in cols]
        keep_cols = ["doc_id", *names] + (["op", "lsn"] if full else [])
        files = self._delta_files(up_to=up_to)
        if not files:
            empty = {"doc_id": pa.array([], pa.string())}
            empty.update({n: pa.array([], t) for n, t in cols})
            if full:
                empty["op"] = pa.array([], pa.string())
                empty["lsn"] = pa.array([], pa.int64())
            return ray.data.from_arrow(pa.table(empty))
        def fold(g: pa.Table, keep_cols=keep_cols) -> pa.Table:
            t = latest_per_key(g, "doc_id", "lsn")
            keep = pc.invert(pc.fill_null(pc.equal(t["op"], "D"), False))
            return t.filter(keep).select(keep_cols)

        pre = ray.data.read_parquet(files).map_batches(
            lambda b: latest_per_key(b, "doc_id", "lsn"),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        return fold_by_part(pre, "doc_id", fold)


class TokenDedupIndex(EpochDeltaIndex):
    """See module docstring.  One instance per (table, name)."""

    def __init__(self, engine, name: str = "tokfp"):
        super().__init__(engine, name)

    @staticmethod
    def _delta_rows(b: pa.Table) -> pa.Table:
        """Feed batch → (doc_id, fp, op, lsn) delta rows.  Tombstones
        carry a null fp (their tokens are null by construction)."""

        def fp_rows(b: pa.Table) -> pa.Table:
            is_del = pc.fill_null(pc.equal(b["op"], "D"), False)
            live = b.filter(pc.invert(is_del))
            dels = b.filter(is_del)
            parts = []
            if len(live):
                f = token_fingerprints_batch(live)
                parts.append(
                    pa.table(
                        {
                            "doc_id": f["doc_id"],
                            "fp": f["fp"],
                            "op": live["op"],
                            "lsn": live["lsn"],
                        }
                    )
                )
            if len(dels):
                parts.append(
                    pa.table(
                        {
                            "doc_id": dels["doc_id"],
                            "fp": pa.nulls(len(dels), pa.int64()),
                            "op": dels["op"],
                            "lsn": dels["lsn"],
                        }
                    )
                )
            if not parts:
                return pa.table(
                    {
                        "doc_id": pa.array([], pa.string()),
                        "fp": pa.array([], pa.int64()),
                        "op": pa.array([], pa.string()),
                        "lsn": pa.array([], pa.int64()),
                    }
                )
            return pa.concat_tables(parts).combine_chunks()

        return fp_rows(b)

    # -- queries --------------------------------------------------------------
    def live_fingerprints(self) -> ray.data.Dataset:
        """(doc_id, fp) of the CURRENT live state — see ``_live_rows``."""
        return self._live_rows()

    def duplicate_losers(self) -> ray.data.Dataset:
        """doc_ids that exact token-sequence dedup would DROP — every
        live doc of a duplicated fingerprint except the min-doc_id
        survivor.  The filter side of dedup-aware shard export
        (pipelines/export.py): O(duplicate docs), served from the
        index, never rescanning the snapshot."""
        import numpy as np

        def losers(g: pa.Table) -> pa.Table:
            t = g.sort_by([("fp", "ascending"), ("doc_id", "ascending")])
            fp = t["fp"].to_numpy(zero_copy_only=False)
            keep = np.zeros(len(fp), bool)
            if len(fp):
                keep[1:] = fp[1:] == fp[:-1]  # every non-first of its run
            return t.filter(pa.array(keep)).select(["doc_id"])

        # all docs of a fingerprint co-locate: one sort + run mask per
        # part, never Python per fingerprint
        return fold_by_part(self.live_fingerprints(), "fp", losers)

    def duplicate_groups(self, min_copies: int = 2) -> ray.data.Dataset:
        """(fp, survivor, n_copies) for every fingerprint with
        ≥``min_copies`` live docs — min-doc_id survivor, same contract
        as cdc_token_dedup but served FROM THE INDEX (no snapshot
        scan).  ``min_copies=1`` returns every group (the full live
        group census the driver oracle checks)."""
        import numpy as np

        def groups(g: pa.Table) -> pa.Table:
            t = g.sort_by([("fp", "ascending"), ("doc_id", "ascending")])
            fp = t["fp"].to_numpy(zero_copy_only=False)
            n = len(fp)
            if n == 0:
                return pa.table(
                    {
                        "fp": pa.array([], pa.int64()),
                        "survivor": pa.array([], pa.string()),
                        "n_copies": pa.array([], pa.int64()),
                    }
                )
            first = np.r_[True, fp[1:] != fp[:-1]]
            starts = np.flatnonzero(first)
            counts = np.diff(np.append(starts, n))
            dup = counts >= min_copies
            idx = starts[dup]
            return pa.table(
                {
                    "fp": pa.array(fp[idx]),
                    "survivor": t["doc_id"].take(pa.array(idx)),
                    "n_copies": pa.array(counts[dup].astype(np.int64)),
                }
            )

        return fold_by_part(self.live_fingerprints(), "fp", groups)
