"""At-scale campaign for the round-4 operator families the r4 verdict
flagged as evidence-gapped (item #7): incremental inverted index
(feed → compact → term stats → search), token-dedup index, verbatim
span scrub, and the quality classifier — run at 10^6+ docs at two
parallelism levels with DISTRIBUTED structure verification (results in
BASELINE.md).

Ground truths are computed from the same corpus, distributed:

* inverted index — token-mass conservation (Σ tf_total == Σ n_tok of
  live docs), distinct (doc, term) pair count == Σ df, and the top-10
  terms by tf identical between the index read and a direct snapshot
  aggregation;
* dedup index — duplicate-group census equals a direct
  fingerprint-groupby over the snapshot;
* span scrub — row count == live docs and the per-row invariant
  n_tok_after == n_tok - n_scrubbed holds for every row;
* quality classifier — planted exact-copy docs (doc_id % 10 == 9 in
  the dedup-campaign corpus) score EXACTLY equal to their base doc.

Usage (owns its Ray session, like bench.py):
    python tools/index_campaign.py --events 4000000 --docs 1000000 --cpus 8,32
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)
os.environ["PYTHONPATH"] = _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")


def run_level(n_events: int, n_docs: int, cpus: int) -> None:
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    from ray.data import DataContext
    from ray.data.aggregate import Count, Sum

    ray.init(address="local", num_cpus=cpus, include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False

    from tartare_ray.gen import GenConfig, generate_documents, generate_log
    from tartare_ray.pipelines import queries as Q
    from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
    from tartare_ray.pipelines.dedup_index import TokenDedupIndex
    from tartare_ray.pipelines.inverted_index import InvertedIndex, doc_term_counts
    from tartare_ray.stages.text import token_fingerprints_batch

    base = f"/tmp/tartare_ray/campaign/index-{n_events}x{n_docs}"
    log_dir = f"{base}/log"
    res = generate_log(
        log_dir,
        GenConfig(
            n_events=n_events,
            n_docs=n_docs,
            events_per_file=500_000,
            widen_frac=0.6,
            add_col_frac=0.8,
        ),
    )
    # plant M pairs of NEW docs with identical 32-token sequences (the
    # zipf corpus's natural dups are all shorter than the scrub k, so
    # without these the span-scrub coverage bound is vacuously 0);
    # appended as one extra log file ABOVE the generated LSN range —
    # deterministic, idempotent (tmp+rename), survives the generator's
    # idempotence marker
    import pyarrow.parquet as pq_

    from tartare_ray.schema import CHANGE_SCHEMA

    M = max(100, n_docs // 1000)
    span_len = 32
    planted_file = os.path.join(log_dir, "events-900000.parquet")
    if not os.path.exists(planted_file):
        ids, toks, lsns = [], [], []
        lsn0 = res.max_lsn + 1
        for j in range(M):
            seq = [int((j * 31 + i) % 50257) for i in range(span_len)]
            for side in ("a", "b"):
                ids.append(f"span-{side}-{j:06d}")
                toks.append(seq)
                lsns.append(lsn0 + 2 * j + (0 if side == "a" else 1))
        tbl = pa.table(
            {
                "lsn": pa.array(lsns, pa.int64()),
                "op": pa.array(["I"] * len(ids), pa.string()),
                "doc_id": pa.array(ids, pa.string()),
                "tokens": pa.array(toks, pa.list_(pa.int32())),
                "n_tok": pa.array([span_len] * len(ids), pa.int32()),
                "source": pa.array(["planted"] * len(ids), pa.string()),
                "schema_version": pa.array([1] * len(ids), pa.int32()),
            },
            schema=CHANGE_SCHEMA,
        )
        pq_.write_table(tbl, planted_file + ".tmp")
        os.replace(planted_file + ".tmp", planted_file)

    def emit(op: str, wall: float, extra: dict) -> None:
        print(
            "CAMPAIGN "
            + json.dumps(
                {
                    "op": op,
                    "cpus": cpus,
                    "n_events": n_events,
                    "n_docs": n_docs,
                    "wall_sec": round(wall, 1),
                    **extra,
                }
            ),
            flush=True,
        )

    # 1. replay to a committed table (fresh per level — timed)
    table = f"{base}/table-{cpus}"
    import shutil

    shutil.rmtree(table, ignore_errors=True)
    eng = CdcEngine(
        log_dir,
        table,
        EngineConfig(
            num_partitions=64,
            write_mode="delta",
            late_materialization=True,
        ),
    )
    t0 = time.perf_counter()
    eng.replay()
    emit("replay", time.perf_counter() - t0, {"events_per_sec": round(n_events / (time.perf_counter() - t0))})

    snap = lambda cols: eng.snapshot_dataset(columns=cols)  # noqa: E731
    live_docs = snap(["doc_id"]).count()
    live_tokens = int(snap(["n_tok"]).sum("n_tok") or 0)

    # 2. inverted index: feed -> compact -> term_stats -> search
    inv = InvertedIndex(eng)
    t0 = time.perf_counter()
    inv.update()
    w_update = time.perf_counter() - t0
    t0 = time.perf_counter()
    inv.compact()
    w_compact = time.perf_counter() - t0
    t0 = time.perf_counter()
    stats = inv.term_stats().materialize()
    w_stats = time.perf_counter() - t0
    tf_sum = int(stats.sum("tf_total") or 0)
    df_sum = int(stats.sum("df") or 0)
    # distributed ground truth: distinct (doc, term) pairs + top terms
    def gt_pairs(b: pa.Table) -> pa.Table:
        d = doc_term_counts(b)  # doc-major (doc_id, terms[], tfs[])
        return pa.table(
            {
                "term": d["terms"].combine_chunks().flatten(),
                "tf": d["tfs"].combine_chunks().flatten(),
            }
        )

    pairs = snap(["doc_id", "tokens"]).map_batches(
        gt_pairs, batch_format="pyarrow", zero_copy_batch=True
    )
    pair_count = pairs.count()
    gt_top = (
        pairs.groupby("term")
        .aggregate(Sum("tf", alias_name="tf_total"))
        .sort(["tf_total", "term"], descending=[True, False])
        .limit(10)
        .take_all()
    )
    gt_top10 = sorted((int(r["term"]), int(r["tf_total"])) for r in gt_top)
    idx_top = (
        stats.sort(["tf_total", "term"], descending=[True, False]).limit(10).take_all()
    )
    idx_top10 = sorted((int(r["term"]), int(r["tf_total"])) for r in idx_top)
    t0 = time.perf_counter()
    hits = inv.search([int(gt_top10[0][0]), int(gt_top10[-1][0])], k=10)
    w_search = time.perf_counter() - t0
    emit(
        "inverted_index",
        w_update + w_compact + w_stats,
        {
            "walls": {
                "update": round(w_update, 1),
                "compact": round(w_compact, 1),
                "term_stats": round(w_stats, 1),
                "search": round(w_search, 2),
            },
            "verify": {
                "tf_mass_conserved": tf_sum == live_tokens,
                "df_equals_pairs": df_sum == pair_count,
                "top10_terms_match": idx_top10 == gt_top10,
                "search_hits": len(hits),
            },
        },
    )

    # 3. token-dedup index vs direct fingerprint census
    ddx = TokenDedupIndex(eng)
    t0 = time.perf_counter()
    ddx.update()
    ddx.compact()
    groups = ddx.duplicate_groups(min_copies=2).materialize()
    w_dedup = time.perf_counter() - t0
    idx_groups = groups.count()
    from ray.data.aggregate import Max

    gt_census = (
        snap(["doc_id", "tokens"])
        .map_batches(token_fingerprints_batch, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("fp")
        .aggregate(Count(alias_name="n"), Max("n_tok", alias_name="n_tok"))
        .filter(expr="n >= 2")
        .materialize()  # O(dup groups)
    )
    gt_groups = gt_census.count()
    emit(
        "dedup_index",
        w_dedup,
        {"verify": {"dup_groups": idx_groups, "ground_truth": gt_groups, "ok": idx_groups == gt_groups}},
    )

    # 4. span scrub over the committed snapshot
    t0 = time.perf_counter()
    scrub = Q.span_scrub_engine(eng, k=8).materialize()
    w_scrub = time.perf_counter() - t0

    def bad_rows(b: pa.Table) -> pa.Table:
        ok = pc.equal(b["n_tok_after"], pc.subtract(b["n_tok"], b["n_scrubbed"]))
        return pa.table({"bad": pa.array([int(len(b) - pc.sum(pc.cast(ok, pa.int64())).as_py())], pa.int64())})

    n_bad = int(scrub.map_batches(bad_rows, batch_format="pyarrow").sum("bad") or 0)
    # lower bound from the dup census: every non-survivor copy of an
    # exact-dup group with >= k tokens is verbatim-covered entirely
    lb = sum(
        (int(r["n"]) - 1) * int(r["n_tok"])
        for r in gt_census.take_all()  # O(dup groups)
        if int(r["n_tok"]) >= 8
    )
    scrubbed_total = int(scrub.sum("n_scrubbed") or 0)
    emit(
        "span_scrub",
        w_scrub,
        {
            "docs_per_sec": round(live_docs / w_scrub),
            "verify": {
                "rows": scrub.count(),
                "live_docs": live_docs,
                "rows_match": scrub.count() == live_docs,
                "invariant_violations": n_bad,
                "tokens_scrubbed": scrubbed_total,
                "exact_dup_lower_bound": lb,
                "planted_min": M * span_len,
                "lb_ok": scrubbed_total >= lb >= M * span_len,
            },
        },
    )

    # 5. quality classifier over the dedup-campaign corpus (planted
    # exact copies must score EXACTLY equal to their base doc)
    docs_dir = f"/tmp/tartare_ray/campaign/docs-{n_docs}"
    generate_documents(docs_dir, n_docs)
    t0 = time.perf_counter()
    scores = Q.quality_classifier(docs_dir).materialize()
    w_q = time.perf_counter() - t0
    def clone_rows(b: pa.Table) -> pa.Table:
        m = pa.array((b["doc_id"].to_numpy(zero_copy_only=False) % 10) == 9)
        t = b.filter(m)
        return pa.table(
            {"base_id": pc.subtract(t["doc_id"], 9), "clone_score": t["score"]}
        )

    clones = scores.map_batches(clone_rows, batch_format="pyarrow", zero_copy_batch=True)
    bases = scores.map_batches(
        lambda b: pa.table({"base_id": b["doc_id"], "base_score": b["score"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    j = clones.join(bases, join_type="inner", num_partitions=max(4, cpus), on=("base_id",))
    n_clones = j.count()
    n_equal = int(
        j.map_batches(
            lambda b: pa.table(
                {
                    "eq": pc.cast(
                        pc.equal(b["clone_score"], b["base_score"]), pa.int64()
                    )
                }
            ),
            batch_format="pyarrow",
        ).sum("eq")
        or 0
    )
    emit(
        "quality_classifier",
        w_q,
        {
            "docs_per_sec": round(n_docs / w_q),
            "verify": {
                "planted_clones": n_clones,
                "score_equal": n_equal,
                "ok": n_clones == n_docs // 10 and n_equal == n_clones,
            },
        },
    )
    ray.shutdown()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--events", type=int, default=4_000_000)
    ap.add_argument("--docs", type=int, default=1_000_000)
    ap.add_argument("--cpus", type=str, default="32")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    levels = [int(c) for c in args.cpus.split(",")]
    if args.child or len(levels) == 1:
        run_level(args.events, args.docs, levels[0])
        return
    for cpus in levels:
        subprocess.run(
            [
                sys.executable, os.path.abspath(__file__), "--child",
                "--events", str(args.events), "--docs", str(args.docs),
                "--cpus", str(cpus),
            ],
            check=True,
        )


if __name__ == "__main__":
    main()
