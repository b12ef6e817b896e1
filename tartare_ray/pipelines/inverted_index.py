"""Incrementally-maintained INVERTED INDEX over a CDC table — term
lookup and bag-of-words search as *incremental* components instead of
a per-query corpus scan.

Per committed epoch, the table's change feed folds to per-doc postings
deltas — ``(doc_id, terms list<int64>, tfs list<int64>, op, lsn)``,
the doc's sorted distinct token ids and their in-doc frequencies — via
the shared ``EpochDeltaIndex`` machinery (``pipelines/dedup_index.py``:
consumer cursors, tmp+rename exactly-once delta directories,
rollback-aware lineage markers).  Queries then run over the LIVE
POSTINGS (latest-LSN winner per doc, deletes dropped) without ever
rescanning the snapshot's token lists: each row's tokens are counted
exactly once per lifetime, at feed time, and a term-stats or search
query reads O(index) — distinct terms per doc, not token occurrences.

Postings are stored doc-major (one row per doc, terms+tfs as parallel
list columns) rather than term-major because the CDC unit of change is
the DOC: an update/delete replaces one row, so the latest-per-key fold
the other indexes already use applies unchanged (``_payload_cols``).
Term-major views (``live_postings``/``term_stats``) are derived by a
vectorized explode + ONE term-keyed exchange of fixed-width int rows.

Reference analogue `[UNVERIFIED — empty checkout, SURVEY.md §0]`:
tartare's data_source → exportable-dataset lookup tables, upgraded
from whole-file regeneration to incremental per-record maintenance.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..stages.kernels import fold_by_part
from .dedup_index import EpochDeltaIndex

TERMS_T = pa.list_(pa.int64())


def doc_term_counts(b: pa.Table) -> pa.Table:
    """(doc_id, tokens list<int>) → (doc_id, terms, tfs): per-doc
    sorted distinct token ids + in-doc frequencies, fully vectorized —
    one lexsort + run masks per batch, no per-doc Python."""
    toks = b["tokens"]
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    offsets = np.asarray(toks.offsets.to_numpy(zero_copy_only=False), dtype=np.int64)
    offsets = offsets - offsets[0]
    flat = toks.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    ndoc = len(b)
    di = np.repeat(np.arange(ndoc, dtype=np.int64), np.diff(offsets))
    order = np.lexsort((flat, di))
    fs, dsq = flat[order], di[order]
    first = np.ones(len(fs), bool)
    first[1:] = (fs[1:] != fs[:-1]) | (dsq[1:] != dsq[:-1])
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, len(fs)))
    per_doc = np.bincount(dsq[starts], minlength=ndoc) if len(starts) else np.zeros(
        ndoc, np.int64
    )
    loff = np.concatenate([[0], np.cumsum(per_doc)]).astype(np.int64)
    return pa.table(
        {
            "doc_id": b["doc_id"],
            "terms": pa.LargeListArray.from_arrays(loff, pa.array(fs[starts])).cast(
                TERMS_T
            ),
            "tfs": pa.LargeListArray.from_arrays(
                loff, pa.array(counts.astype(np.int64))
            ).cast(TERMS_T),
        }
    )


class InvertedIndex(EpochDeltaIndex):
    """See module docstring.  One instance per (table, name)."""

    _payload_cols = (("terms", TERMS_T), ("tfs", TERMS_T))

    def __init__(self, engine, name: str = "inverted"):
        super().__init__(engine, name)

    @staticmethod
    def _delta_rows(b: pa.Table) -> pa.Table:
        """Feed batch → (doc_id, terms, tfs, op, lsn) delta rows.
        Tombstones carry null lists (their tokens are null by
        construction)."""
        is_del = pc.fill_null(pc.equal(b["op"], "D"), False)
        live = b.filter(pc.invert(is_del))
        dels = b.filter(is_del)
        parts = []
        if len(live):
            t = doc_term_counts(live)
            parts.append(
                pa.table(
                    {
                        "doc_id": t["doc_id"],
                        "terms": t["terms"],
                        "tfs": t["tfs"],
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
                        "terms": pa.nulls(len(dels), TERMS_T),
                        "tfs": pa.nulls(len(dels), TERMS_T),
                        "op": dels["op"],
                        "lsn": dels["lsn"],
                    }
                )
            )
        if not parts:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.string()),
                    "terms": pa.array([], TERMS_T),
                    "tfs": pa.array([], TERMS_T),
                    "op": pa.array([], pa.string()),
                    "lsn": pa.array([], pa.int64()),
                }
            )
        return pa.concat_tables(parts).combine_chunks()

    # -- queries --------------------------------------------------------------
    def live_doc_terms(self) -> ray.data.Dataset:
        """(doc_id, terms, tfs) of the CURRENT live state — the shared
        vectorized fold (``EpochDeltaIndex._live_rows``)."""
        return self._live_rows()

    def live_postings(self, terms: "list[int] | None" = None) -> ray.data.Dataset:
        """Term-major explode of the live state: one (term, doc_id, tf)
        row per distinct (doc, term).  With ``terms`` given, the
        explode FILTERS to that set inside each batch (np.isin over the
        flat term array) — the pruned read a search query wants; the
        query-term set is tiny and ships in the closure."""
        tset = None if terms is None else np.asarray(sorted(set(terms)), np.int64)

        def explode(b: pa.Table, tset=tset) -> pa.Table:
            tl = b["terms"]
            if isinstance(tl, pa.ChunkedArray):
                tl = tl.combine_chunks()
            off = np.asarray(tl.offsets.to_numpy(zero_copy_only=False), np.int64)
            off = off - off[0]
            flat_t = tl.flatten().to_numpy(zero_copy_only=False)
            fl = b["tfs"]
            if isinstance(fl, pa.ChunkedArray):
                fl = fl.combine_chunks()
            flat_f = fl.flatten().to_numpy(zero_copy_only=False)
            ids = b["doc_id"]
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            idx = np.repeat(np.arange(len(b), dtype=np.int64), np.diff(off))
            if tset is not None:
                keep = np.isin(flat_t, tset)
                flat_t, flat_f, idx = flat_t[keep], flat_f[keep], idx[keep]
            return pa.table(
                {
                    "term": pa.array(flat_t),
                    "doc_id": ids.take(pa.array(idx)),
                    "tf": pa.array(flat_f),
                }
            )

        return self.live_doc_terms().map_batches(
            explode, batch_format="pyarrow", zero_copy_batch=True
        )

    def term_stats(self) -> ray.data.Dataset:
        """(term, df, tf_total) over the live corpus — document
        frequency and total occurrences per token id, served FROM THE
        INDEX.  Block-local partial aggregation (np.unique run sums)
        before ONE term-hash exchange of (term, df_p, tf_p) int rows,
        then a vectorized per-partition fold — the partial-then-fold
        combiner shape every wide aggregate here uses."""

        def partial(b: pa.Table) -> pa.Table:
            t = b["term"].to_numpy(zero_copy_only=False)
            f = b["tf"].to_numpy(zero_copy_only=False)
            uniq, inv = np.unique(t, return_inverse=True)
            df = np.bincount(inv).astype(np.int64)
            tf = np.bincount(inv, weights=f).astype(np.int64)
            return pa.table(
                {"term": pa.array(uniq), "df": pa.array(df), "tf_total": pa.array(tf)}
            )

        def fold(g: pa.Table) -> pa.Table:
            t = g["term"].to_numpy(zero_copy_only=False)
            uniq, inv = np.unique(t, return_inverse=True)
            df = np.bincount(
                inv, weights=g["df"].to_numpy(zero_copy_only=False)
            ).astype(np.int64)
            tf = np.bincount(
                inv, weights=g["tf_total"].to_numpy(zero_copy_only=False)
            ).astype(np.int64)
            return pa.table(
                {"term": pa.array(uniq), "df": pa.array(df), "tf_total": pa.array(tf)}
            )

        pre = self.live_postings().map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True
        )
        return fold_by_part(pre, "term", fold)

    def search(self, terms: list[int], k: int = 10) -> pa.Table:
        """Top-``k`` docs by summed tf over ``terms`` (bag-of-words
        score), ties broken by ascending doc_id — served from the
        index.  The explode prunes to the query terms at the source,
        per-doc partial sums fold block-locally, ONE doc-hash exchange
        moves (doc_id, score) rows, each partition emits its own
        top-k, and the driver merges P·k candidate rows (the standard
        distributed top-k shape).  Returns a small pa.Table."""

        def partial(b: pa.Table) -> pa.Table:
            ids = b["doc_id"]
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            codes = ids.dictionary_encode()
            inv = codes.indices.to_numpy(zero_copy_only=False)
            score = np.bincount(
                inv, weights=b["tf"].to_numpy(zero_copy_only=False)
            ).astype(np.int64)
            return pa.table({"doc_id": codes.dictionary, "score": pa.array(score)})

        def topk_fold(g: pa.Table, k=k) -> pa.Table:
            ids = g["doc_id"]
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            codes = ids.dictionary_encode()
            inv = codes.indices.to_numpy(zero_copy_only=False)
            score = np.bincount(
                inv, weights=g["score"].to_numpy(zero_copy_only=False)
            ).astype(np.int64)
            t = pa.table({"doc_id": codes.dictionary, "score": pa.array(score)})
            t = t.sort_by([("score", "descending"), ("doc_id", "ascending")])
            return t.slice(0, k)

        cand = fold_by_part(
            self.live_postings(terms=terms).map_batches(
                partial, batch_format="pyarrow", zero_copy_batch=True
            ),
            "doc_id",
            topk_fold,
        )
        # O(P·k) candidate rows — the only driver-side collection
        out = pa.concat_tables(cand.iter_batches(batch_format="pyarrow"))
        out = out.sort_by([("score", "descending"), ("doc_id", "ascending")])
        return out.slice(0, k).combine_chunks()
