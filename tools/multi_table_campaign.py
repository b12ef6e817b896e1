"""At-scale multi-table CDC campaign (pipelines/multi_table.py): one
interleaved 2-table binlog at millions of events, demuxed + replayed +
globally committed at two parallelism levels, with DISTRIBUTED
ground-truth verification — per-table final state (live-doc count +
token mass) must equal a direct latest-LSN-wins fold over that
table's slice of the raw log (computed with Ray Data aggregation,
independent of the engine's apply path).

Usage:  python tools/multi_table_campaign.py --events 4000000 --cpus 8,32
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


def run_level(n_events: int, cpus: int) -> None:
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=cpus, include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False

    from tartare_ray.gen import GenConfig, generate_log
    from tartare_ray.pipelines.cdc import EngineConfig
    from tartare_ray.pipelines.multi_table import MultiTableCdc
    from tartare_ray.stages.kernels import latest_per_key

    base = f"/tmp/tartare_ray/campaign/mt-{n_events}"
    src = f"{base}/src"
    res = generate_log(
        src,
        GenConfig(
            n_events=n_events,
            n_docs=max(1000, n_events // 10),
            events_per_file=500_000,
            widen_frac=0.6,
            add_col_frac=0.8,
        ),
    )
    # interleave: tag each event with a table by lsn parity (alpha =
    # even, beta = odd) — a deterministic 2-table binlog built from
    # the single-table generator's files (idempotent tmp+rename)
    log = f"{base}/log"
    os.makedirs(log, exist_ok=True)
    for f in res.files:
        name = os.path.basename(f)
        dest = os.path.join(log, name)
        if os.path.exists(dest):
            continue
        t = pq.read_table(f)
        par = pc.bit_wise_and(pc.cast(t["lsn"], pa.int64()), 1)
        tbl = t.append_column(
            "table",
            pc.if_else(pc.equal(par, 0), pa.scalar("alpha"), pa.scalar("beta")),
        )
        pq.write_table(tbl, dest + ".tmp", compression="zstd")
        os.replace(dest + ".tmp", dest)

    import shutil

    root = f"{base}/mt-{cpus}"
    shutil.rmtree(root, ignore_errors=True)
    mt = MultiTableCdc(
        log,
        root,
        EngineConfig(
            num_partitions=32,
            write_mode="delta",
            late_materialization=True,
        ),
    )
    t0 = time.perf_counter()
    d = mt.demux()
    w_demux = time.perf_counter() - t0
    t0 = time.perf_counter()
    g = mt.replay()
    w_replay = time.perf_counter() - t0

    # distributed ground truth per table: latest-LSN-wins fold over the
    # raw log slice, deletes dropped — live docs + token mass
    def truth(table: str) -> tuple[int, int]:
        par = 0 if table == "alpha" else 1

        def pre(b: pa.Table) -> pa.Table:
            keep = pc.equal(
                pc.bit_wise_and(pc.cast(b["lsn"], pa.int64()), 1), par
            )
            t = b.filter(keep).select(["doc_id", "lsn", "op", "n_tok"])
            return latest_per_key(t, "doc_id", "lsn")

        from tartare_ray.stages.kernels import fold_by_part

        def fold(gp: pa.Table) -> pa.Table:
            t = latest_per_key(gp, "doc_id", "lsn")
            live = t.filter(
                pc.invert(pc.fill_null(pc.equal(t["op"], "D"), False))
            )
            return pa.table(
                {
                    "n": pa.array([len(live)], pa.int64()),
                    "toks": pa.array(
                        [int(pc.sum(live["n_tok"]).as_py() or 0)], pa.int64()
                    ),
                }
            )

        agg = fold_by_part(
            ray.data.read_parquet(
                res.files, columns=["doc_id", "lsn", "op", "n_tok"]
            ).map_batches(pre, batch_format="pyarrow", zero_copy_batch=True),
            "doc_id",
            fold,
        ).materialize()  # O(P) rows — both sums read the same pass
        return int(agg.sum("n") or 0), int(agg.sum("toks") or 0)

    def table_state(table: str) -> tuple[int, int]:
        import pyarrow as pa_

        def pre(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "n": pa_.array([len(b)], pa_.int64()),
                    "toks": pa_.array(
                        [int(pc.sum(b["n_tok"]).as_py() or 0)], pa_.int64()
                    ),
                }
            )

        agg = (
            mt.snapshot(table, g)
            .select_columns(["doc_id", "n_tok"])
            .map_batches(pre, batch_format="pyarrow", zero_copy_batch=True)
            .materialize()  # O(blocks) rows — one snapshot pass
        )
        return int(agg.sum("n") or 0), int(agg.sum("toks") or 0)

    verify = {}
    ok = True
    for t in mt.tables():
        got = table_state(t)
        want = truth(t)
        verify[t] = {"rows": got[0], "tokens": got[1], "match": got == want}
        ok = ok and got == want
    print(
        "CAMPAIGN "
        + json.dumps(
            {
                "op": "multi_table",
                "cpus": cpus,
                "n_events": n_events,
                "demux_sec": round(w_demux, 1),
                "replay_sec": round(w_replay, 1),
                "events_per_sec_end_to_end": round(n_events / (w_demux + w_replay)),
                "global_epoch": g,
                "verify": dict(verify, all_match=ok),
            }
        ),
        flush=True,
    )
    ray.shutdown()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--events", type=int, default=4_000_000)
    ap.add_argument("--cpus", type=str, default="32")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    levels = [int(c) for c in args.cpus.split(",")]
    if args.child or len(levels) == 1:
        run_level(args.events, levels[0])
        return
    for cpus in levels:
        subprocess.run(
            [
                sys.executable, os.path.abspath(__file__), "--child",
                "--events", str(args.events), "--cpus", str(cpus),
            ],
            check=True,
        )


if __name__ == "__main__":
    main()
