"""Multi-table CDC: demux ONE interleaved binlog/WAL-style change log
(events carry a ``table`` column, LSNs globally ordered) into N
per-table ``CdcEngine``s, and commit their epochs under a SINGLE
cross-table global manifest — so a consistent reader can never observe
table A at a watermark table B has not reached.

Real binlogs interleave many tables; the single-table engine
(pipelines/cdc.py) is the per-table building block and this module is
the coordination layer a production CDC user needs first (r4 verdict
item #3).

Shape, Ray-Data-first:

- **Demux** is a distributed ``map_batches`` over the PENDING source
  files (one task per file — the log file is the natural parallel
  unit of a binlog tail): each task reads its file once, splits rows
  by ``table`` (vectorized filter per distinct value, the column is
  dropped on write), and writes ``<root>/demux/<table>/<srcfile>``
  via write-to-tmp + rename.  File names are PRESERVED, so per-table
  logs inherit the source's name-ordered LSN-cut invariant; empty
  slices are skipped (a table absent from a file simply has no file
  of that name).  A crashed/retried task rewrites identical bytes to
  the same names (deterministic), and the per-file ``_done`` marker is
  written only after every slice's rename — redelivery is idempotent.
- **Apply** replays each table's demuxed log through its own
  ``CdcEngine`` (all engine semantics — exactly-once, schema
  evolution, LSM/compaction, lineage — are inherited per table).
  Re-runs are per-table watermark no-ops.
- **Global commit**: after every table's replay, ONE atomic global
  manifest ``<root>/_global/e{N}.json`` records each table's
  (epoch, watermark_lsn) — written tmp+rename under an exclusive
  flock with a parent guard (generalizing the single-table
  ``commit_manifest(guard_parent=True)`` CAS).  A crash after some
  tables committed but before the global manifest leaves the global
  view at the previous epoch: those tables' new epochs exist but are
  not OBSERVABLE through the consistent-read API until a re-run
  completes the remaining tables and commits the next global
  manifest.  Re-running ``replay()`` is the crash recovery.
- **Consistent read**: ``snapshot(table)`` time-travels each engine
  to the epoch recorded in the chosen global manifest — cross-table
  consistency via per-table time travel, no locks on the read path.

Reference analogue `[UNVERIFIED — empty checkout, SURVEY.md §0]`:
tartare coordinates N contributor exports into one coverage export
whose publication is all-or-nothing; here the coverage-level atomicity
is the global manifest over per-table epochs.
"""

from __future__ import annotations

import fcntl
import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..state.storage import publish, storage_for
from .cdc import CdcEngine, EngineConfig


class GlobalCommitError(RuntimeError):
    pass


class MultiTableCdc:
    def __init__(self, log_dir: str, root: str, cfg: EngineConfig | None = None):
        self.log_dir = log_dir
        self.root = root
        self.cfg = cfg or EngineConfig()
        self.demux_dir = os.path.join(root, "demux")
        self.tables_dir = os.path.join(root, "tables")
        self.global_dir = os.path.join(root, "_global")

    # -- demux ---------------------------------------------------------------
    def _source_files(self) -> list[str]:
        if not os.path.isdir(self.log_dir):
            return []
        return sorted(
            n
            for n in os.listdir(self.log_dir)
            if n.startswith("events-") and n.endswith(".parquet")
        )

    def _pending_files(self) -> list[str]:
        done = os.path.join(self.demux_dir, "_done")
        return [
            n
            for n in self._source_files()
            if not os.path.exists(os.path.join(done, n + ".json"))
        ]

    def demux(self) -> dict[str, int]:
        """Split pending source files by table (distributed, one task
        per file).  Returns {table: rows written this call}."""
        pending = self._pending_files()
        os.makedirs(os.path.join(self.demux_dir, "_done"), exist_ok=True)
        if not pending:
            return {}
        demux_dir, log_dir = self.demux_dir, self.log_dir

        def split_one(b: pa.Table) -> pa.Table:
            # b: one row per source file (the file is the task unit)
            out_t, out_n = [], []
            for name in b["name"].to_pylist():
                t = pq.read_table(os.path.join(log_dir, name))
                tables = pc.unique(t["table"]).to_pylist()
                col = t.schema.get_field_index("table")
                for tbl in sorted(tables):
                    part = t.filter(pc.equal(t["table"], tbl)).remove_column(col)
                    d = os.path.join(demux_dir, tbl)
                    os.makedirs(d, exist_ok=True)
                    with publish(os.path.join(d, name)) as tmp:
                        pq.write_table(part, tmp, compression="zstd")
                    out_t.append(tbl)
                    out_n.append(len(part))
                # marker after ALL slices of this file are renamed
                storage_for(demux_dir).write_atomic(
                    f"_done/{name}.json", json.dumps({"file": name, "tables": sorted(tables)})
                )
            return pa.table(
                {"table": pa.array(out_t, pa.string()), "rows": pa.array(out_n, pa.int64())}
            )

        res = (
            ray.data.from_arrow(pa.table({"name": pa.array(pending, pa.string())}))
            .map_batches(split_one, batch_format="pyarrow", batch_size=1)
            .take_all()
        )  # O(files × tables) tiny lineage rows
        out: dict[str, int] = {}
        for r in res:
            out[r["table"]] = out.get(r["table"], 0) + int(r["rows"])
        return out

    # -- per-table engines ---------------------------------------------------
    def tables(self) -> list[str]:
        if not os.path.isdir(self.demux_dir):
            return []
        return sorted(
            n
            for n in os.listdir(self.demux_dir)
            if not n.startswith("_") and os.path.isdir(os.path.join(self.demux_dir, n))
        )

    def engine(self, table: str) -> CdcEngine:
        return CdcEngine(
            os.path.join(self.demux_dir, table),
            os.path.join(self.tables_dir, table),
            self.cfg,
        )

    # -- global manifest -----------------------------------------------------
    def global_epoch(self) -> int:
        """Newest committed global epoch (0 = none)."""
        if not os.path.isdir(self.global_dir):
            return 0
        eps = [
            int(n[1:7])
            for n in os.listdir(self.global_dir)
            if n.startswith("e") and n.endswith(".json")
        ]
        return max(eps) if eps else 0

    def watermarks(self, global_epoch: int | None = None) -> dict[str, dict]:
        """{table: {"epoch": e, "watermark_lsn": w}} recorded by the
        chosen (default: newest) global manifest; {} when none."""
        g = self.global_epoch() if global_epoch is None else global_epoch
        if g <= 0:
            return {}
        p = os.path.join(self.global_dir, f"e{g:06d}.json")
        with open(p) as f:
            return json.load(f)["tables"]

    def _commit_global(
        self, entries: dict[str, dict], expect_parent: int | None = None
    ) -> int:
        """Atomic cross-table commit: CAS under an exclusive flock.
        ``expect_parent`` is the global epoch the coordinator READ
        before replaying its tables — if another coordinator committed
        in between, the swap is refused (lost-update guard, the
        generalization of the single-table
        ``commit_manifest(guard_parent=True)``)."""
        os.makedirs(self.global_dir, exist_ok=True)
        fd = os.open(os.path.join(self.global_dir, "LOCK"), os.O_CREAT | os.O_RDWR)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise GlobalCommitError(
                    f"another coordinator is committing {self.root}"
                ) from None
            cur = self.global_epoch()
            if expect_parent is not None and cur != expect_parent:
                raise GlobalCommitError(
                    f"lost update: global epoch moved {expect_parent} -> {cur} "
                    f"while this coordinator was replaying"
                )
            if cur > 0 and self.watermarks(cur) == entries:
                return cur  # no table moved: idempotent no-op
            nxt = cur + 1
            final = os.path.join(self.global_dir, f"e{nxt:06d}.json")
            if os.path.exists(final):  # belt-and-braces under the lock
                raise GlobalCommitError(f"global epoch {nxt} already committed")
            storage_for(self.global_dir).write_atomic(
                os.path.basename(final),
                json.dumps({"global_epoch": nxt, "tables": entries}, indent=1),
            )
            return nxt
        finally:
            os.close(fd)

    # -- the coordinated replay ---------------------------------------------
    def replay(self, _crash_after_table: str | None = None) -> int:
        """Demux pending files, replay every table's engine, commit ONE
        global manifest.  Idempotent: a crash anywhere re-runs to the
        same state (demux rewrites identical bytes, per-table replay is
        a watermark no-op past its own commit, the global commit is a
        no-op when no watermark moved).  Returns the current global
        epoch.  ``_crash_after_table`` is the fault-injection hook the
        mid-commit crash test uses (raises after that table's replay,
        BEFORE the global commit)."""
        parent = self.global_epoch()  # CAS read point
        self.demux()
        entries: dict[str, dict] = {}
        for t in self.tables():
            eng = self.engine(t)
            eng.replay()
            hist = eng.history()
            entries[t] = {
                "epoch": int(hist[0]["epoch"]),
                "watermark_lsn": int(hist[0]["watermark_lsn"]),
            }
            if _crash_after_table == t:
                raise RuntimeError(f"injected crash after table {t!r}")
        if not entries:
            return self.global_epoch()
        return self._commit_global(entries, expect_parent=parent)

    # -- consistent reads ----------------------------------------------------
    def snapshot(self, table: str, global_epoch: int | None = None) -> ray.data.Dataset:
        """The table's snapshot AT the chosen global manifest's
        recorded epoch (time travel) — never a watermark the other
        tables haven't reached, even if this table's engine has
        already committed further."""
        wm = self.watermarks(global_epoch)
        if table not in wm:
            raise LookupError(f"table {table!r} not in global epoch")
        return self.engine(table).snapshot_dataset(epoch=int(wm[table]["epoch"]))

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# ---------------------------------------------------------------------------
# Deterministic 2-table fixture log (the cdc_multi_table query) — same
# conventions as pipelines/flagship.py: derived from the documents
# table with SQL-reproducible token payloads, LSNs a pure function of
# (wave, table, doc_id), so DuckDB can rebuild BOTH tables' final
# states declaratively.
# ---------------------------------------------------------------------------

VOCAB = 50257


def derive_multi_log(sf_dir: str, log_dir: str) -> None:
    """Interleaved 2-table change log over ``sf_dir``'s documents:

    - table ``seq``:  wave-0 insert of every doc (poly-hash tokens);
      wave-1 update of doc_id % 5 < 2 (sentinel appended); wave-2
      delete of doc_id % 10 == 7.
    - table ``meta``: wave-0 insert of every doc (tokens = [doc_id %
      VOCAB]); wave-1 update of doc_id % 3 == 0 (tokens = [doc_id %
      VOCAB, 7]); wave-2 delete of doc_id % 7 == 3.

    Each wave is ONE file carrying both tables' rows interleaved in
    LSN order (seq rows even, meta rows odd within the wave's band) —
    the binlog shape the demux exists for."""
    import numpy as np

    from .. import __version__
    from ..functions import text as T

    os.makedirs(log_dir, exist_ok=True)
    marker = os.path.join(log_dir, "_COMPLETE")
    tag = f"multitable-v1-{__version__}-{sf_dir}"
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read().strip() == tag:
                return
    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "source"]
    )
    ids = docs["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(ids)
    id_str = pc.cast(docs["doc_id"], pa.string())
    base = 2 * (int(ids.max()) + 1)

    def fixed_lists(flat: np.ndarray, width: int) -> pa.ListArray:
        """list<int32> column of equal-width rows from one flat array —
        fully vectorized (no per-row Python)."""
        n = len(flat) // width
        off = np.arange(n + 1, dtype=np.int64) * width
        return pa.ListArray.from_arrays(
            pa.array(off, pa.int32()), pa.array(flat.astype(np.int32), pa.int32())
        ).cast(pa.list_(pa.int32()))

    def rows(
        tbl: str, lsn: np.ndarray, op: str, did: pa.Array, toks, n_tok, src
    ) -> pa.Table:
        m = len(lsn)
        return pa.table(
            {
                "lsn": pa.array(lsn, pa.int64()),
                "op": pa.array([op] * m, pa.string()),
                "doc_id": did,
                "tokens": toks,
                "n_tok": n_tok,
                "source": src,
                "schema_version": pa.array(np.ones(m, np.int32)),
                "table": pa.array([tbl] * m, pa.string()),
            }
        )

    def write(fileno: int, parts: list[pa.Table]) -> None:
        t = pa.concat_tables(parts).sort_by([("lsn", "ascending")])
        path = os.path.join(log_dir, f"events-{fileno:06d}.parquet")
        with publish(path) as tmp:
            pq.write_table(t, tmp)

    # wave 0: both tables insert everything (narrow int32 token lists)
    s_toks, s_off = T.word_polyhash_lists(docs["text"])
    s_lens = np.diff(s_off)
    seq_toks = pa.ListArray.from_arrays(
        pa.array(s_off, pa.int32()), pa.array(s_toks.astype(np.int32), pa.int32())
    ).cast(pa.list_(pa.int32()))
    meta_toks0 = fixed_lists(ids % VOCAB, 1)
    write(
        0,
        [
            rows(
                "seq",
                2 * ids,
                "I",
                id_str,
                seq_toks,
                pa.array(s_lens.astype(np.int32), pa.int32()),
                docs["source"],
            ),
            rows(
                "meta",
                2 * ids + 1,
                "I",
                id_str,
                meta_toks0,
                pa.array(np.ones(n, np.int32), pa.int32()),
                docs["source"],
            ),
        ],
    )
    # wave 1: seq updates %5<2 (sentinel appended); meta updates %3==0
    su = ids % 5 < 2
    suids = ids[su]
    su_texts = docs["text"].filter(pa.array(su))
    u_toks, u_off = T.word_polyhash_lists(su_texts)
    u_lens = np.diff(u_off)
    new_lens = u_lens + 1
    new_off = np.zeros(len(new_lens) + 1, np.int64)
    np.cumsum(new_lens, out=new_off[1:])
    out = np.empty(int(new_off[-1]), np.int64)
    pos = np.arange(len(out)) - np.repeat(new_off[:-1], new_lens)
    is_sent = pos == np.repeat(u_lens, new_lens)
    out[~is_sent] = u_toks
    out[is_sent] = VOCAB - 1
    seq_toks1 = pa.ListArray.from_arrays(
        pa.array(new_off, pa.int32()), pa.array(out.astype(np.int32), pa.int32())
    ).cast(pa.list_(pa.int32()))
    mu = ids % 3 == 0
    muids = ids[mu]
    meta_toks1 = fixed_lists(
        np.stack([muids % VOCAB, np.full(len(muids), 7)], axis=1).reshape(-1), 2
    )
    write(
        1,
        [
            rows(
                "seq",
                base + 2 * suids,
                "U",
                id_str.filter(pa.array(su)),
                seq_toks1,
                pa.array(new_lens.astype(np.int32), pa.int32()),
                docs["source"].filter(pa.array(su)),
            ),
            rows(
                "meta",
                base + 2 * muids + 1,
                "U",
                id_str.filter(pa.array(mu)),
                meta_toks1,
                pa.array(np.full(len(muids), 2, np.int32), pa.int32()),
                docs["source"].filter(pa.array(mu)),
            ),
        ],
    )
    # wave 2: seq deletes %10==7; meta deletes %7==3
    sd = ids % 10 == 7
    sdids = ids[sd]
    md = ids % 7 == 3
    mdids = ids[md]
    write(
        2,
        [
            rows(
                "seq",
                2 * base + 2 * sdids,
                "D",
                id_str.filter(pa.array(sd)),
                pa.nulls(len(sdids), pa.list_(pa.int32())),
                pa.nulls(len(sdids), pa.int32()),
                pa.nulls(len(sdids), pa.string()),
            ),
            rows(
                "meta",
                2 * base + 2 * mdids + 1,
                "D",
                id_str.filter(pa.array(md)),
                pa.nulls(len(mdids), pa.list_(pa.int32())),
                pa.nulls(len(mdids), pa.int32()),
                pa.nulls(len(mdids), pa.string()),
            ),
        ],
    )
    with open(marker, "w") as f:
        f.write(tag)


def multi_workdir(sf_dir: str) -> str:
    from .. import __version__

    tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    return f"/tmp/tartare_ray/multitable-v1-{__version__}-{tag}"


def run_multi_table(sf_dir: str, num_partitions: int = 4) -> MultiTableCdc:
    """Derive the interleaved log (idempotent), demux + replay both
    tables, commit the global manifest.  Re-runs are no-ops."""
    work = multi_workdir(sf_dir)
    log_dir = os.path.join(work, "log")
    derive_multi_log(sf_dir, log_dir)
    mt = MultiTableCdc(
        log_dir,
        os.path.join(work, "mt"),
        EngineConfig(num_partitions=num_partitions, epoch_max_files=1),
    )
    mt.replay()
    return mt
