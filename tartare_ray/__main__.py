"""CLI — the ``ray job submit`` entry point (north_rule: "run via ray
job submit on a fixed-size multi-node Ray cluster").

    ray job submit -- python -m tartare_ray replay --log-dir L --table-root T
    python -m tartare_ray tail   --log-dir L --table-root T --poll-interval 5
    python -m tartare_ray gen    --log-dir L --n-events 1000000
    python -m tartare_ray publish --table-root T --dest D1 --dest D2
    python -m tartare_ray gc     --table-root T --keep-last 2

Owns the Ray session (guarded: under ``ray job submit`` the cluster
session already exists and ``ray.init`` just attaches).  Library
modules never init Ray.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _init_ray():
    import ray

    if not ray.is_initialized():
        ray.init(ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _engine(args):
    from .pipelines.cdc import CdcEngine, EngineConfig

    steps = []
    for spec in getattr(args, "ingest_step", None) or []:
        name, _, kw = spec.partition(":")
        steps.append((name, json.loads(kw) if kw else {}))
    return CdcEngine(
        args.log_dir,
        args.table_root,
        EngineConfig(
            num_partitions=args.num_partitions,
            epoch_max_events=args.epoch_max_events,
            ingest_steps=tuple(steps),
            write_mode=args.write_mode,
            late_materialization=args.late_materialization,
        ),
    )


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="tartare_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_engine_args(sp):
        sp.add_argument(
            "--log-dir", action="append", required=True,
            help="change-log directory; repeat for an N-source union (shared LSN sequencer)",
        )
        sp.add_argument("--table-root", required=True)
        sp.add_argument("--num-partitions", type=int, default=64)
        sp.add_argument("--epoch-max-events", type=int, default=None)
        sp.add_argument(
            "--ingest-step", action="append", default=None,
            help='registered step applied at ingest, as NAME or NAME:{"kw":v} JSON; repeatable, declared order',
        )
        sp.add_argument(
            "--write-mode", choices=["cow", "delta"], default="cow",
            help="delta = LSM chains, O(epoch winners) write amplification (the at-scale path)",
        )
        sp.add_argument(
            "--exchange", choices=["sort", "hash"], default="sort",
            help="accepted and ignored: every epoch takes the one exchange-free path",
        )
        sp.add_argument(
            "--late-materialization", action="store_true",
            help="winner-LSN envelope pass prunes the write to winners only",
        )

    sp = sub.add_parser("replay", help="apply the whole pending log, epoch by epoch")
    add_engine_args(sp)

    sp = sub.add_parser("tail", help="continuous tail: poll the log dir for new LSNs")
    add_engine_args(sp)
    sp.add_argument("--poll-interval", type=float, default=5.0)
    sp.add_argument("--max-polls", type=int, default=None, help="stop after N empty polls (default: forever)")
    sp.add_argument(
        "--gc-every", type=int, default=None, metavar="N",
        help="after every N committed epochs, run gc_epochs + gc_log (bounded storage in steady state)",
    )
    sp.add_argument("--gc-keep-last", type=int, default=2)
    sp.add_argument(
        "--index-every", type=int, default=None, metavar="N",
        help="after every N committed epochs, update + compact the incremental "
             "token-dedup index (long-retention maintenance alongside GC)",
    )

    sp = sub.add_parser("gen", help="write a synthetic change log")
    sp.add_argument("--log-dir", required=True)
    sp.add_argument("--n-events", type=int, required=True)
    sp.add_argument("--n-docs", type=int, default=None)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--events-per-file", type=int, default=100_000)

    sp = sub.add_parser("publish", help="promote CURRENT snapshot to environment(s), in order")
    sp.add_argument("--table-root", required=True)
    sp.add_argument("--dest", action="append", required=True)

    sp = sub.add_parser("gc", help="drop partition files only reachable from old epochs")
    sp.add_argument("--table-root", required=True)
    sp.add_argument("--keep-last", type=int, default=2)
    sp.add_argument(
        "--log-dir", action="append", default=None,
        help="also archive fully-applied change-log files (WAL trim); repeatable",
    )

    sp = sub.add_parser("status", help="committed state: epoch, watermark, partitions, bytes")
    sp.add_argument("--table-root", required=True)

    sp = sub.add_parser("history", help="time-travel catalog: every retained committed epoch")
    sp.add_argument("--table-root", required=True)

    sp = sub.add_parser("lookup", help="point-read current state of doc ids (partition-pruned chain-suffix scan)")
    sp.add_argument("--table-root", required=True)
    sp.add_argument("--doc-id", action="append", required=True, help="repeatable")
    sp.add_argument("--epoch", type=int, default=None)
    sp.add_argument("--as-of-lsn", type=int, default=None, help="time-travel by change-event LSN")
    sp.add_argument("--num-partitions", type=int, default=64)
    sp.add_argument("--columns", default=None, help="comma-separated projection")

    sp = sub.add_parser("repartition", help="online partition-count migration (re-hash to fresh bases, same watermark)")
    sp.add_argument("--table-root", required=True)
    sp.add_argument("--num-partitions", type=int, required=True)

    sp = sub.add_parser("pipeline", help="run a JSON-configured chain of named steps over parquet")
    sp.add_argument("--input", required=True, help="parquet file/dir")
    sp.add_argument("--output", required=True, help="output parquet dir")
    sp.add_argument("--config", required=True, help="JSON: {steps: [{name, kwargs?, batch_size?, concurrency?}]}")

    sp = sub.add_parser("compact", help="fold delta chains into fresh bases (no new events)")
    add_engine_args(sp)

    sp = sub.add_parser(
        "export",
        help="pack the committed snapshot into fixed-length training shards (one resumable file per partition + export manifest)",
    )
    add_engine_args(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seq-len", type=int, default=2048)
    sp.add_argument("--eos", type=int, default=0)
    sp.add_argument("--epoch", type=int, default=None, help="time-travel export of a retained epoch")
    sp.add_argument(
        "--drop-duplicates",
        action="store_true",
        help="drop exact token-sequence duplicates (min-doc_id survivor) via the incremental dedup index",
    )
    sp.add_argument(
        "--near-dup-threshold",
        type=float,
        default=None,
        help="also drop NEAR-duplicate cluster losers (connected components over verified MinHash pairs at this signature-Jaccard threshold) via the incremental MinHash index",
    )

    sp = sub.add_parser(
        "dedup-index",
        help="update the incrementally-maintained token-dedup index from the change feed and print duplicate groups",
    )
    add_engine_args(sp)
    sp.add_argument("--name", default="tokfp")
    sp.add_argument("--show-groups", action="store_true")
    sp.add_argument(
        "--compact",
        action="store_true",
        help="after updating, fold acked epoch deltas into one base directory (bounded index read I/O)",
    )

    sp = sub.add_parser(
        "near-dup",
        help="update the incrementally-maintained MinHash near-dup index from the change feed and print near-dup pairs or cluster losers",
    )
    add_engine_args(sp)
    sp.add_argument("--name", default="minhash")
    sp.add_argument("--threshold", type=float, default=0.5)
    sp.add_argument(
        "--losers",
        action="store_true",
        help="print cluster losers (connected components, min-doc_id survivor) instead of pairs",
    )
    sp.add_argument(
        "--compact",
        action="store_true",
        help="after updating, fold acked epoch deltas into one base directory (bounded index read I/O)",
    )

    sp = sub.add_parser(
        "search-index",
        help="update the incrementally-maintained inverted index from the change feed; print term stats or a bag-of-words top-k search",
    )
    add_engine_args(sp)
    sp.add_argument("--name", default="inverted")
    sp.add_argument("--terms", default=None, help="comma-separated query words (polynomial-hashed to token ids)")
    sp.add_argument("--k", type=int, default=10)
    sp.add_argument(
        "--compact",
        action="store_true",
        help="after updating, fold acked epoch deltas into one base directory (bounded index read I/O)",
    )

    sp = sub.add_parser(
        "sync-replica",
        help="pull a source table's unacked change-feed epochs and replay them into a downstream replica table",
    )
    sp.add_argument("--src-log-dir", action="append", required=True)
    sp.add_argument("--src-table-root", required=True)
    sp.add_argument("--dest", required=True, help="replica work dir (log/ + table/ created inside)")
    sp.add_argument("--consumer-id", default="replica-sync")
    sp.add_argument("--num-partitions", type=int, default=64)

    sp = sub.add_parser(
        "mt-replay",
        help="multi-table: demux an interleaved binlog (table column) into "
             "per-table engines and commit ONE atomic cross-table global manifest",
    )
    sp.add_argument("--log-dir", required=True)
    sp.add_argument("--root", required=True, help="multi-table work root (demux/ tables/ _global/)")
    sp.add_argument("--num-partitions", type=int, default=64)
    sp.add_argument("--write-mode", choices=["cow", "delta"], default="cow")
    sp.add_argument(
        "--exchange", choices=["sort", "hash"], default="sort",
        help="accepted and ignored: every epoch takes the one exchange-free path",
    )

    sp = sub.add_parser(
        "normalize-log",
        help="convert a CSV or JSONL change log into the engine's Parquet log layout",
    )
    sp.add_argument("--src", required=True, help="directory of .csv / .jsonl change files")
    sp.add_argument("--format", choices=["csv", "jsonl"], required=True)
    sp.add_argument("--out", required=True, help="Parquet log dir (events-*.parquet)")

    sp = sub.add_parser(
        "mt-status",
        help="multi-table: the newest global manifest's per-table epochs/watermarks",
    )
    sp.add_argument("--root", required=True)

    sp = sub.add_parser(
        "verify-replay",
        help="acceptance check: diff the committed snapshot row-for-row (incl. token arrays) against the single-process oracle applier",
    )
    sp.add_argument("--log-dir", action="append", required=True)
    sp.add_argument("--table-root", required=True)

    sp = sub.add_parser("rollback", help="discard epochs newer than --epoch; replay re-applies the log")
    sp.add_argument("--table-root", required=True)
    sp.add_argument("--epoch", type=int, required=True)

    sp = sub.add_parser("consumers", help="change-feed consumer cursors: list, subscribe, ack, drop")
    sp.add_argument("--table-root", required=True)
    sp.add_argument("--subscribe", default=None, metavar="ID")
    sp.add_argument("--from-epoch", type=int, default=0)
    sp.add_argument("--ack", default=None, metavar="ID")
    sp.add_argument("--epoch", type=int, default=None, help="epoch to ack")
    sp.add_argument("--drop", default=None, metavar="ID")

    args = p.parse_args(argv)

    if args.cmd == "gen":
        from .gen import GenConfig, generate_log

        res = generate_log(
            args.log_dir,
            GenConfig(
                n_events=args.n_events,
                n_docs=args.n_docs or max(1000, args.n_events // 10),
                seed=args.seed,
                events_per_file=args.events_per_file,
            ),
        )
        print(json.dumps({"files": len(res.files), "n_events": res.n_events, "max_lsn": res.max_lsn}))
        return 0

    if args.cmd == "pipeline":
        _init_ray()
        import ray.data

        from .functions import builtin_steps  # noqa: F401 (registers named steps)
        from .functions.registry import StepSpec, build_pipeline

        with open(args.config) as f:
            cfg = json.load(f)
        specs = [
            StepSpec(
                name=s["name"],
                kwargs=s.get("kwargs", {}),
                concurrency=s.get("concurrency"),
                batch_size=s.get("batch_size"),
                num_cpus=s.get("num_cpus"),
            )
            for s in cfg["steps"]
        ]
        ds = build_pipeline(ray.data.read_parquet(args.input), specs)
        ds.write_parquet(args.output)
        print(json.dumps({"status": "done", "rows": ds.count(), "output": args.output}))
        return 0

    if args.cmd == "status":
        from .state.manifest import load_current

        m = load_current(args.table_root)
        if m is None:
            print(json.dumps({"status": "empty"}))
            return 0
        kinds = {}
        chain_len = {}
        for pl in m.partitions:
            kinds[pl.kind] = kinds.get(pl.kind, 0) + 1
            chain_len[pl.p] = chain_len.get(pl.p, 0) + 1
        out = {
            "status": "committed",
            "epoch": m.epoch,
            "watermark_lsn": m.watermark_lsn,
            "rows": sum(pl.rows for pl in m.partitions),
            "bytes": sum(pl.bytes for pl in m.partitions),
            "partitions": len(chain_len),
            "files": kinds,
            "max_chain_len": max(chain_len.values()),  # compaction signal
            "schema_fingerprint": m.schema_fingerprint,
        }
        # registered change-feed consumers + how many epochs behind
        # (operability: a growing lag pins GC and says scale the consumer)
        from .state.consumers import list_consumers

        cons = list_consumers(args.table_root)
        if cons:
            out["consumers"] = {
                cid: {"acked_epoch": e, "lag_epochs": m.epoch - e}
                for cid, e in cons.items()
            }
        # latest epoch's straggler + phase walls (operability signal:
        # a rising apply_straggler ratio says repartition)
        metrics_path = os.path.join(
            args.table_root, "_metrics", f"e{m.epoch:06d}.json"
        )
        if os.path.exists(metrics_path):
            with open(metrics_path) as f:
                em = json.load(f)
            out["last_epoch_straggler"] = em.get("straggler")
            out["last_epoch_phases"] = em.get("phases")
        print(json.dumps(out))
        return 0

    if args.cmd == "history":
        from .pipelines.cdc import CdcEngine, EngineConfig

        eng = CdcEngine("/nonexistent-log", args.table_root, EngineConfig())
        for row in eng.history():
            print(json.dumps(row))
        return 0

    if args.cmd == "lookup":
        from .pipelines.cdc import CdcEngine, EngineConfig

        eng = CdcEngine(
            "/nonexistent-log", args.table_root,
            EngineConfig(num_partitions=args.num_partitions),
        )
        cols = args.columns.split(",") if args.columns else None
        t = eng.lookup(
            args.doc_id, epoch=args.epoch, columns=cols, as_of_lsn=args.as_of_lsn
        )
        print(json.dumps({"rows": t.to_pylist()}, default=str))
        return 0

    if args.cmd == "repartition":
        from .pipelines.cdc import CdcEngine, EngineConfig

        eng = CdcEngine("/nonexistent-log", args.table_root, EngineConfig())
        m = eng.repartition_table(args.num_partitions)
        out = (
            {"repartitioned": False}
            if m is None
            else {
                "repartitioned": True,
                "epoch": m.epoch,
                "num_partitions": m.num_partitions,
                "partitions": len(m.partitions),
                "rows": sum(pl.rows for pl in m.partitions),
            }
        )
        print(json.dumps(out))
        return 0

    if args.cmd == "publish":
        from .state.publish import publish_environments

        ms = publish_environments(args.table_root, args.dest)
        print(json.dumps({"published_epoch": ms[-1].epoch, "environments": args.dest}))
        return 0

    if args.cmd == "gc":
        from .state.manifest import gc_epochs, gc_log

        removed = gc_epochs(args.table_root, keep_last=args.keep_last)
        out = {"files_removed": removed}
        if args.log_dir:
            out["log_files_removed"] = gc_log(args.table_root, args.log_dir)
        print(json.dumps(out))
        return 0

    if args.cmd == "mt-replay":
        from .pipelines.cdc import EngineConfig
        from .pipelines.multi_table import MultiTableCdc

        _init_ray()
        mt = MultiTableCdc(
            args.log_dir,
            args.root,
            EngineConfig(
                num_partitions=args.num_partitions,
                write_mode=args.write_mode,
            ),
        )
        g = mt.replay()
        print(json.dumps({"global_epoch": g, "tables": mt.watermarks(g)}))
        return 0

    if args.cmd == "normalize-log":
        if args.format == "csv":
            from .sources.csvsrc import csv_log_to_parquet as convert
        else:
            from .sources.jsonsrc import jsonl_log_to_parquet as convert
        out = convert(args.src, args.out)
        print(json.dumps({"files": len(out), "out": args.out}))
        return 0

    if args.cmd == "mt-status":
        from .pipelines.multi_table import MultiTableCdc

        mt = MultiTableCdc("", args.root)  # log_dir unused for status reads
        g = mt.global_epoch()
        print(json.dumps({"global_epoch": g, "tables": mt.watermarks(g)}))
        return 0

    if args.cmd == "sync-replica":
        from .pipelines.cdc import CdcEngine, EngineConfig
        from .pipelines.replica import sync_replica

        _init_ray()
        src = CdcEngine(
            args.src_log_dir, args.src_table_root,
            EngineConfig(num_partitions=args.num_partitions),
        )
        dest = sync_replica(src, args.dest, consumer_id=args.consumer_id)
        if dest is None:
            print(json.dumps({"synced": False, "reason": "no committed feed epochs"}))
            return 0
        from .state.manifest import load_current

        m = load_current(dest.table_root)
        print(
            json.dumps(
                {
                    "synced": True,
                    "replica_epoch": m.epoch,
                    "replica_watermark": m.watermark_lsn,
                    "rows": sum(pl.rows for pl in m.partitions),
                    "cursor": src.consumers().get(args.consumer_id),
                }
            )
        )
        return 0

    if args.cmd == "verify-replay":
        # Test/incident-scale tool: the oracle applier is a driver-side
        # dict fold, O(live table) — run it at validation scale, not
        # against a 10^10-row production table.
        from .oracle import replay_oracle
        from .pipelines.cdc import CdcEngine, EngineConfig
        from .sources.tail import list_log_files

        files = [f.path for f in list_log_files(args.log_dir)]
        if not files:
            # gc_log may have archived the applied log — the oracle
            # needs the full history, so the diff is impossible
            print(json.dumps({"match": None, "error": "no log files (archived by gc_log?) — oracle needs the full log"}))
            return 2
        _init_ray()
        eng = CdcEngine(args.log_dir, args.table_root, EngineConfig())
        snap = eng.snapshot_table().sort_by("doc_id")
        want = replay_oracle(files).sort_by("doc_id")
        mismatches = []
        match = snap.schema.names == want.schema.names and len(snap) == len(want)
        if match:
            for col in want.schema.names:
                if snap[col].to_pylist() != want[col].to_pylist():
                    match = False
                    mismatches.append(col)
        print(
            json.dumps(
                {
                    "match": match,
                    "rows": len(snap),
                    "oracle_rows": len(want),
                    "mismatched_columns": mismatches,
                }
            )
        )
        return 0 if match else 1

    if args.cmd == "rollback":
        from .state.manifest import rollback_to

        print(json.dumps(rollback_to(args.table_root, args.epoch)))
        return 0

    if args.cmd == "consumers":
        from .state import consumers as cons
        from .state.manifest import load_current

        if args.subscribe:
            cons.subscribe(args.table_root, args.subscribe, args.from_epoch)
        if args.ack:
            if args.epoch is None:
                p.error("--ack requires --epoch")
            cons.ack(args.table_root, args.ack, args.epoch)
        if args.drop:
            cons.drop_consumer(args.table_root, args.drop)
        cur, cursors = load_current(args.table_root), cons.list_consumers(args.table_root)
        print(json.dumps({"head": cur.epoch if cur else 0, "consumers": cursors}))
        return 0

    _init_ray()
    eng = _engine(args)

    if args.cmd == "export":
        from .pipelines.export import export_training_shards

        man = export_training_shards(
            eng,
            args.out,
            seq_len=args.seq_len,
            eos=args.eos,
            epoch=args.epoch,
            drop_duplicates=args.drop_duplicates,
            near_dup_threshold=args.near_dup_threshold,
        )
        print(json.dumps({k: man[k] for k in
                          ("epoch", "generation", "seq_len", "n_seqs", "resumed_shards")}
                         | {"shards": len(man["shards"]), "out": args.out}))
        return 0

    if args.cmd == "dedup-index":
        from .pipelines.dedup_index import TokenDedupIndex

        idx = TokenDedupIndex(eng, name=args.name)
        ingested = idx.update()
        out = {"ingested_epochs": ingested}
        if args.compact:
            out["base_epoch"] = idx.compact()
        if args.show_groups:
            groups = [
                {"fp": r["fp"], "survivor": r["survivor"], "n_copies": r["n_copies"]}
                for r in idx.duplicate_groups().take_all()
            ]
            out["duplicate_groups"] = sorted(groups, key=lambda g: g["survivor"])
        print(json.dumps(out))
        return 0

    if args.cmd == "near-dup":
        from .pipelines.minhash_index import MinHashIndex

        idx = MinHashIndex(eng, name=args.name)
        ingested = idx.update()
        out = {"ingested_epochs": ingested}
        if args.compact:
            out["base_epoch"] = idx.compact()
        if args.losers:
            out["losers"] = sorted(
                r["doc_id"] for r in idx.near_dup_losers(threshold=args.threshold).take_all()
            )
        else:
            pairs = [
                {"doc_a": r["doc_a"], "doc_b": r["doc_b"], "est_jaccard": r["est_jaccard"]}
                for r in idx.near_dup_pairs(threshold=args.threshold).take_all()
            ]
            out["pairs"] = sorted(pairs, key=lambda p: (p["doc_a"], p["doc_b"]))
        print(json.dumps(out))
        return 0

    if args.cmd == "search-index":
        from .pipelines.inverted_index import InvertedIndex

        idx = InvertedIndex(eng, name=args.name)
        ingested = idx.update()
        out = {"ingested_epochs": ingested}
        if args.compact:
            out["base_epoch"] = idx.compact()
        if args.terms:
            import numpy as np

            from .functions.text import poly_hash_words

            words = [w for w in args.terms.split(",") if w]
            ids = poly_hash_words(np.array(words)).tolist()
            hits = idx.search(ids, k=args.k)
            out["query"] = dict(zip(words, ids))
            out["hits"] = [
                {"doc_id": d, "score": s}
                for d, s in zip(hits["doc_id"].to_pylist(), hits["score"].to_pylist())
            ]
        else:
            stats = sorted(
                (
                    {"term": r["term"], "df": r["df"], "tf_total": r["tf_total"]}
                    for r in idx.term_stats().take_all()
                ),
                key=lambda r: (-r["tf_total"], r["term"]),
            )
            out["top_terms"] = stats[:20]
        print(json.dumps(out))
        return 0

    if args.cmd == "replay":
        m = eng.replay()
        if m is None:
            print(json.dumps({"status": "empty", "epoch": None}))
        else:
            print(json.dumps({"status": "committed", "epoch": m.epoch, "watermark": m.watermark_lsn}))
        return 0

    if args.cmd == "compact":
        m = eng.compact()
        if m is None:
            print(json.dumps({"status": "noop"}))
        else:
            print(json.dumps({"status": "committed", "epoch": m.epoch,
                              "partitions": len(m.partitions)}))
        return 0

    if args.cmd == "tail":
        from .state.manifest import gc_epochs, gc_log

        empty = 0
        committed = 0
        while True:
            m = eng.run_epoch()
            if m is None:
                empty += 1
                if args.max_polls is not None and empty >= args.max_polls:
                    return 0
                time.sleep(args.poll_interval)
            else:
                empty = 0
                committed += 1
                out = {"epoch": m.epoch, "watermark": m.watermark_lsn}
                if args.index_every and committed % args.index_every == 0:
                    from .pipelines.dedup_index import TokenDedupIndex

                    idx = TokenDedupIndex(eng)
                    out["index_epochs"] = idx.update()
                    out["index_base_epoch"] = idx.compact()
                if args.gc_every and committed % args.gc_every == 0:
                    out["gc_files_removed"] = gc_epochs(
                        args.table_root, keep_last=args.gc_keep_last
                    )
                    out["gc_log_files_removed"] = gc_log(args.table_root, args.log_dir)
                print(json.dumps(out), flush=True)
    return 1


if __name__ == "__main__":
    sys.exit(main())
