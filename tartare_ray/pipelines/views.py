"""Incrementally-maintained aggregate views over the committed table.

A consumer that wants ``SELECT group, count(*), sum(x)`` of a 100 TB
snapshot cannot rescan it per epoch.  The views update from the
per-epoch change feed alone:

    delta(group) = + contribution of each winner's NEW row
                   - contribution of the doc's PREVIOUS state

``EpochDeltaView`` runs that one pass for every view.  Feed rows
(``changes_dataset(epoch)``) go through ``fold_by_part`` on doc_id with
the PARENT manifest's partition count — the table's own routing — and
one call per TOUCHED partition resolves the previous state of its keys against that
partition's parent chain via ``lookup_keys_in_chain`` — a newest-first
suffix scan reading only (doc_id, group, value) + envelope columns that
stops once every key is resolved, so hot keys resolve in the newest
delta file and the fat base is often never opened.  I/O is
proportional to touched partitions' chain SUFFIXES, never the table.

Each view supplies two pieces:

- a static per-partition REDUCER (runs on Ray): old live rows of the
  touched keys + the epoch's new live rows, both as (doc_id, g, v),
  → a few small rows;
- a driver-side FOLD of those rows into the view's state.

The Ray callables are module-level functions over plain values, so a
view never ships itself or its engine to a worker.

Reference analogue `[UNVERIFIED — empty checkout, SURVEY.md §0]`:
tartare recomputes coverage-level artifacts per export; the view is
the incremental replacement for that recompute-the-world step.

Each view is a change-feed consumer (``view.<name>``) whose cursor
pins GC; on an aged table it starts from ``consume``'s seed.  Its
state persists as JSON per epoch under ``_views/<name>/`` (atomic, like
manifests) before the epoch's ack.  Subscribe and ack take the writer
lock for a moment, so beside a committing engine they can raise
``ConcurrentWriterError``, as an index update can.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state.manifest import load_current, load_epoch
from ..state.storage import storage_for
from ..stages.kernels import fold_by_part

NULL_GROUP = "\x00null"  # state key of a null group value


def _gkey(g) -> str:
    return NULL_GROUP if g is None else str(g)


def _agg_contrib(groups: np.ndarray, sums: np.ndarray, sign: int) -> dict[str, list[float]]:
    # null group values aggregate under their own key (np.unique on an
    # object array mixing None and str raises on comparison)
    groups = np.array([_gkey(g) for g in groups], dtype=object)
    out: dict[str, list[float]] = {}
    for g in np.unique(groups):
        m = groups == g
        out[str(g)] = [sign * int(m.sum()), sign * float(np.nansum(sums[m]))]
    return out


def _part_delta(
    g: pa.Table, *, table_root, chains, schema, group_col, val_col, reduce
) -> pa.Table:
    """One touched partition's feed rows → ``reduce(old, new)``."""
    from ..stages.compact import lookup_keys_in_chain

    def rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"], "g": t[group_col], "v": pc.cast(t[val_col], pa.float64())}
        )

    chain = chains.get(int(g["part"][0].as_py()))
    old = (
        lookup_keys_in_chain(
            table_root, chain, schema, g["doc_id"], ["doc_id", group_col, val_col]
        )
        if chain
        else g.slice(0, 0)
    )
    live = g.filter(pc.fill_null(pc.not_equal(g["op"], "D"), True))
    return reduce(rows(old), rows(live))


class EpochDeltaView:
    """Per-epoch maintenance shared by the incremental views: JSON state
    per epoch under ``_views/<name>/``, the ``update_to`` loop, and the
    one change-feed pass per epoch (``_epoch_rows``).  Subclasses set
    ``_reduce`` (a staticmethod ``(old, new, **kw) -> pa.Table``; ``kw``
    are the instance attributes named in ``_reduce_kw``) and ``_fold``
    (driver side: state, rows, epoch → state), plus ``as_table``."""

    _reduce_kw: tuple[str, ...] = ()

    def __init__(self, engine, name: str, group_col: str, val_col: str):
        self.engine = engine
        self.name = name
        self.group_col = group_col
        self.val_col = val_col
        self.consumer = f"view.{name}"
        self._dir = f"_views/{name}"

    # -- persistence -------------------------------------------------------
    def _key(self, epoch: int) -> str:
        return f"{self._dir}/e{epoch:06d}.json"

    def _persist(self, epoch: int, state: dict) -> None:
        storage_for(self.engine.table_root).write_atomic(self._key(epoch), json.dumps(state))

    # -- one epoch's delta rows ----------------------------------------------
    @staticmethod
    def _reduce(old: pa.Table, new: pa.Table) -> pa.Table:
        raise NotImplementedError

    def _fold(self, state: dict, rows: list[dict], epoch: int) -> dict:
        raise NotImplementedError

    def _epoch_rows(self, epoch: int, feed, seed: bool) -> list[dict]:
        eng = self.engine
        m = load_epoch(eng.table_root, epoch)
        pe = None if seed else m.parent_epoch  # a seed (snapshot) has no old rows
        parent = None if pe is None else load_epoch(eng.table_root, pe)
        # the key→part mapping the PARENT chains were written with —
        # from the manifest, never the reader's config (an engine may
        # have repartitioned the table since this reader was built)
        P = (parent.num_partitions if parent else 0) or m.num_partitions
        per_part = functools.partial(
            _part_delta,
            table_root=eng.table_root,
            chains=eng._chains(parent) if parent else {},
            schema=(parent or m).schema,
            group_col=self.group_col,
            val_col=self.val_col,
            reduce=functools.partial(
                type(self)._reduce, **{k: getattr(self, k) for k in self._reduce_kw}
            ),
        )
        return fold_by_part(feed, "doc_id", per_part, P).take_all()

    # -- public ------------------------------------------------------------
    def update_to(self, epoch: int | None = None) -> dict:
        """Fold epoch deltas into the persisted view up to ``epoch``
        (default: CURRENT); returns the view state.  A view with
        checkpoints but no cursor subscribes at its latest one."""
        eng = self.engine
        cur = load_current(eng.table_root)
        if cur is None and epoch is None:
            return {}  # nothing committed yet: the empty view
        target = cur.epoch if epoch is None else epoch
        st = storage_for(eng.table_root)
        names = st.list(self._dir)
        saved = sorted(int(n[1:7]) for n in names if n.startswith("e") and n.endswith(".json"))
        cursor = eng.subscribe(self.consumer, saved[-1] if saved else 0)
        have = max((e for e in saved if e <= min(target, cursor)), default=0)
        state = json.loads(st.read_text(self._key(have))) if have else {}
        if have == cursor < target:
            for e, feed in eng.consume(self.consumer):
                if e > target:
                    break
                seed = e != have + 1  # consume's seed: the snapshot at e
                state = self._fold({} if seed else state, self._epoch_rows(e, feed, seed), e)
                self._persist(e, state)
                have = eng.ack_changes(self.consumer, e)
        if have != target:
            raise LookupError(f"view {self.name!r}: no state at epoch {target} (cursor {cursor})")
        return state


class IncrementalAggView(EpochDeltaView):
    """count(*) + sum(sum_col) per group_col, maintained per epoch.
    Count/sum are invertible: each partition reduces to (g, dcount,
    dsum) rows; state is ``{group: [count, sum]}``."""

    def __init__(self, engine, name: str, group_col: str, sum_col: str):
        super().__init__(engine, name, group_col, sum_col)
        self.sum_col = sum_col

    @staticmethod
    def _reduce(old: pa.Table, new: pa.Table) -> pa.Table:
        deltas: dict[str, list[float]] = {}
        for t, sign in ((old, -1), (new, +1)):
            if len(t):
                contrib = _agg_contrib(
                    t["g"].to_numpy(zero_copy_only=False),
                    t["v"].to_numpy(zero_copy_only=False),
                    sign,
                )
                for k, (dc, ds) in contrib.items():
                    acc = deltas.setdefault(k, [0, 0.0])
                    acc[0] += dc
                    acc[1] += ds
        return pa.table(
            {
                "g": pa.array(list(deltas), pa.string()),
                "dcount": pa.array([v[0] for v in deltas.values()], pa.int64()),
                "dsum": pa.array([v[1] for v in deltas.values()], pa.float64()),
            }
        )

    def _fold(self, state: dict, rows: list[dict], epoch: int) -> dict:
        for r in rows:
            acc = state.setdefault(r["g"], [0, 0.0])
            acc[0] += int(r["dcount"])
            acc[1] += float(r["dsum"])
        return {k: v for k, v in state.items() if v[0] != 0}

    def as_table(self, epoch: int | None = None) -> pa.Table:
        state = self.update_to(epoch)
        ks = sorted(state)
        return pa.table(
            {
                self.group_col: pa.array(ks, pa.string()),
                "n_docs": pa.array([int(state[k][0]) for k in ks], pa.int64()),
                f"sum_{self.sum_col}": pa.array([state[k][1] for k in ks], pa.float64()),
            }
        )


class IncrementalMinMaxView(EpochDeltaView):
    """min(val_col) (or max) per group_col, maintained per epoch.

    MIN/MAX are NOT invertible — retracting the current minimum cannot
    be repaired from the delta alone.  Standard incremental design:
    per group, a BUFFER of the ``buffer_n`` smallest live (value,
    doc_id) entries plus (a) a ``complete`` flag — buffer holds the
    whole live group — and (b) a ``bound``: the smallest value ever
    discarded or ignored since the group was last complete.  The
    buffered minimum is provably correct while ``buf[0] <= bound``
    (anything untracked is >= bound); when retractions break that — or
    empty an incomplete buffer — the group joins the RARE rescan path:
    one two-column pruned snapshot pass at that epoch rebuilds every
    exhausted group's buffer in a single batch.  Otherwise each
    partition returns its doc-level rows — every touched doc's old row
    (retract) and new live row (insert) — to the driver.

    ``mode="max"`` negates values internally (max = -min(-x))."""

    def __init__(self, engine, name, group_col, val_col, mode="min", buffer_n=8):
        assert mode in ("min", "max")
        super().__init__(engine, name, group_col, val_col)
        self.mode = mode
        self.buffer_n = buffer_n

    def _sign(self) -> float:
        return 1.0 if self.mode == "min" else -1.0

    @staticmethod
    def _reduce(old: pa.Table, new: pa.Table) -> pa.Table:
        return pa.concat_tables(
            [
                old.append_column("new", pa.array(np.zeros(len(old), bool))),
                new.append_column("new", pa.array(np.ones(len(new), bool))),
            ],
            promote_options="permissive",
        )

    def _fold(self, state: dict, rows: list[dict], epoch: int) -> dict:
        sign = self._sign()
        for r in rows:  # retract every touched doc's previous state
            if not r["new"]:
                self._retract(state, r["g"], r["doc_id"])
        for r in rows:  # fold the live winners back in
            if r["new"] and r["v"] is not None:
                self._insert(state, r["g"], r["doc_id"], sign * r["v"])
        # groups whose buffered minimum is no longer provably correct
        # (emptied, or min above the discard bound), plus
        # complete-and-empty groups that simply vanish
        state = {k: ent for k, ent in state.items() if ent["buf"] or not ent["complete"]}
        stale = [k for k, ent in state.items() if self._needs_rescan(ent)]
        if stale:
            self._rescan(state, stale, epoch)
        return state

    # -- buffer algebra -------------------------------------------------------
    def _retract(self, state: dict, g, doc: str) -> None:
        ent = state.get(_gkey(g))
        if ent:
            ent["buf"] = [e for e in ent["buf"] if e[1] != doc]

    def _insert(self, state: dict, g, doc: str, v: float) -> None:
        ent = state.setdefault(_gkey(g), {"buf": [], "complete": True, "bound": None})
        buf = [e for e in ent["buf"] if e[1] != doc]
        buf.append([v, doc])
        buf.sort(key=lambda e: (e[0], e[1]))
        if len(buf) > self.buffer_n:
            dropped = buf[self.buffer_n :]
            buf = buf[: self.buffer_n]
            ent["complete"] = False
            lo = min(e[0] for e in dropped)
            ent["bound"] = lo if ent["bound"] is None else min(ent["bound"], lo)
        ent["buf"] = buf

    def _needs_rescan(self, ent: dict) -> bool:
        if ent["complete"]:
            return False
        if not ent["buf"]:
            return True
        return ent["bound"] is not None and ent["buf"][0][0] > ent["bound"]

    # -- the rare path ---------------------------------------------------------
    def _rescan(self, state: dict, groups: list[str], epoch: int) -> None:
        """Rebuild exhausted groups' buffers from one two-column pruned
        snapshot pass at ``epoch`` — batched over all of them."""
        sign = self._sign()
        want = np.array(sorted(set(groups)), dtype=object)
        group_col, val_col, N = self.group_col, self.val_col, self.buffer_n

        def local_topn(b: pa.Table) -> pa.Table:
            keys = np.array([_gkey(g) for g in b[group_col].to_pylist()], dtype=object)
            m = np.isin(keys, want)
            empty = pa.table(
                {
                    "g": pa.array([], pa.string()),
                    "doc_id": pa.array([], pa.string()),
                    "v": pa.array([], pa.float64()),
                }
            )
            if not m.any():
                return empty
            sub = b.filter(pa.array(m))
            kk = keys[m]
            vv = sign * sub[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
            dd = np.asarray(sub["doc_id"].to_pylist(), dtype=object)
            order = np.lexsort((dd, vv, kk))
            kk, vv, dd = kk[order], vv[order], dd[order]
            new = np.r_[True, kk[1:] != kk[:-1]]
            run_start = np.maximum.accumulate(np.where(new, np.arange(len(kk)), 0))
            keep = (np.arange(len(kk)) - run_start) <= N  # N+1 rows ⇒ completeness known
            return pa.table(
                {
                    "g": pa.array(kk[keep], pa.string()),
                    "doc_id": pa.array(dd[keep], pa.string()),
                    "v": pa.array(vv[keep], pa.float64()),
                }
            )

        rows = (
            self.engine.snapshot_dataset(
                epoch=epoch, columns=["doc_id", group_col, val_col]
            )
            .map_batches(local_topn, batch_format="pyarrow", zero_copy_batch=True)
            .take_all()
        )
        per_g: dict[str, list] = {g: [] for g in want}
        for r in rows:
            per_g[r["g"]].append([float(r["v"]), r["doc_id"]])
        for g in want:
            ent = sorted(per_g[g], key=lambda e: (e[0], e[1]))
            if not ent:
                state.pop(g, None)  # no live docs left
            else:
                state[g] = {
                    "buf": ent[: self.buffer_n],
                    "complete": len(ent) <= self.buffer_n,
                    "bound": None,
                }

    def as_table(self, epoch: int | None = None) -> pa.Table:
        state = self.update_to(epoch)
        sign = self._sign()
        ks = sorted(state)
        return pa.table(
            {
                self.group_col: pa.array(ks, pa.string()),
                f"{self.mode}_{self.val_col}": pa.array(
                    [sign * state[k]["buf"][0][0] for k in ks], pa.float64()
                ),
            }
        )


class IncrementalQuantileView(EpochDeltaView):
    """Approximate per-group quantiles (DDSketch, 1% relative error)
    maintained incrementally from the change feed — unlike MIN/MAX,
    the sketch IS invertible: state is (group, bucket) → count, and a
    doc's retraction simply decrements its old bucket.  Each partition
    reduces to (g, bucket, dn) rows, with NO rescan path at all."""

    _reduce_kw = ("alpha",)

    def __init__(self, engine, name, group_col, val_col, alpha: float = 0.01):
        super().__init__(engine, name, group_col, val_col)
        self.alpha = alpha

    @staticmethod
    def _reduce(old: pa.Table, new: pa.Table, alpha: float) -> pa.Table:
        from ..stages.sketch import dd_bucket

        g = np.array([_gkey(x) for t in (old, new) for x in t["g"].to_pylist()], dtype=object)
        v = np.concatenate([t["v"].to_numpy(zero_copy_only=False) for t in (old, new)])
        dn = np.r_[np.full(len(old), -1, np.int64), np.ones(len(new), np.int64)]
        ok = v > 0  # DDSketch domain: positive values
        sums = (
            pa.table(
                {
                    "g": pa.array(g[ok], pa.string()),
                    "bucket": pa.array(dd_bucket(v[ok], alpha), pa.int64()),
                    "dn": pa.array(dn[ok]),
                }
            )
            .group_by(["g", "bucket"])
            .aggregate([("dn", "sum")])
        )
        sums = sums.filter(pc.not_equal(sums["dn_sum"], 0))
        return pa.table({"g": sums["g"], "bucket": sums["bucket"], "dn": sums["dn_sum"]})

    def _fold(self, state: dict, rows: list[dict], epoch: int) -> dict:
        for r in rows:
            acc = state.setdefault(r["g"], {})
            bk = str(int(r["bucket"]))
            n = acc.get(bk, 0) + int(r["dn"])
            if n:
                acc[bk] = n
            else:
                acc.pop(bk, None)
            if not acc:
                del state[r["g"]]
        return state

    def as_table(
        self, epoch: int | None = None, quantiles: tuple = (0.5, 0.9, 0.99)
    ) -> pa.Table:
        from ..stages.sketch import dd_value

        state = self.update_to(epoch)
        ks = sorted(state)
        cols: dict = {self.group_col: pa.array(ks, pa.string())}
        per_q: dict = {q: [] for q in quantiles}
        for k in ks:
            bks = sorted((int(b), c) for b, c in state[k].items())
            buckets = np.array([b for b, _ in bks], dtype=np.int64)
            counts = np.array([c for _, c in bks], dtype=np.int64)
            cum = np.cumsum(counts)
            total = cum[-1]
            for q in quantiles:
                rank = max(1, int(np.ceil(q * total)))
                i = int(np.searchsorted(cum, rank))
                per_q[q].append(float(dd_value(buckets[i : i + 1], self.alpha)[0]))
        for q in quantiles:
            cols[f"q{int(q * 100)}"] = pa.array(per_q[q], pa.float64())
        return pa.table(cols)
