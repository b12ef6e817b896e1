"""Long-soak retention probe (round-4 verdict item #8; results in
BASELINE.md): a 50+ epoch follow-mode run with table GC, log GC and
incremental-index compaction ALL active, reporting

* a bounded disk / RSS curve sampled at every commit (steady-state
  storage must plateau, not grow with epochs),
* the post-GC time-travel window (oldest..newest retained epoch),
* an epoch-N lookup AND an index query still serving AFTER GC.

Usage:  python tools/retention_soak.py [--files 60] [--events-per-file 50000]
                                       [--gc-every 4] [--gc-keep-last 4]
The tail CLI owns its own Ray session; the post-soak probes open a
fresh local session after it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
os.environ["PYTHONPATH"] = _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")


def _du_mb(path: str) -> float:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    return round(total / (1 << 20), 1)


def _rss_kb(pid: int) -> int:
    from tail_soak import _tree_rss_kb  # full process tree (ray workers)

    return _tree_rss_kb(pid)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--files", type=int, default=60)
    ap.add_argument("--events-per-file", type=int, default=50_000)
    ap.add_argument("--ship-interval", type=float, default=1.0)
    ap.add_argument("--gc-every", type=int, default=4)
    ap.add_argument("--gc-keep-last", type=int, default=4)
    ap.add_argument("--index-every", type=int, default=4)
    args = ap.parse_args()

    base = f"/tmp/tartare_ray/retention/{args.files}x{args.events_per_file}"
    staging, live, table = f"{base}/staging", f"{base}/log", f"{base}/table"
    shutil.rmtree(live, ignore_errors=True)
    shutil.rmtree(table, ignore_errors=True)
    os.makedirs(live, exist_ok=True)

    from tartare_ray.gen import GenConfig, generate_log

    res = generate_log(
        staging,
        GenConfig(
            n_events=args.files * args.events_per_file,
            n_docs=max(1000, args.files * args.events_per_file // 10),
            events_per_file=args.events_per_file,
            widen_frac=0.5,
            add_col_frac=0.7,
        ),
    )

    env = dict(os.environ)
    tail = subprocess.Popen(
        [
            sys.executable, "-m", "tartare_ray", "tail",
            "--log-dir", live, "--table-root", table,
            "--num-partitions", "32", "--write-mode", "delta",
            "--epoch-max-events", str(args.events_per_file),
            "--late-materialization",
            "--poll-interval", "0.5", "--max-polls", "12",
            "--gc-every", str(args.gc_every),
            "--gc-keep-last", str(args.gc_keep_last),
            "--index-every", str(args.index_every),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env, cwd=_REPO,
    )

    def producer():
        for f in res.files:
            name = os.path.basename(f)
            tmp = os.path.join(live, name + ".inprogress")
            shutil.copyfile(f, tmp)
            os.rename(tmp, os.path.join(live, name))
            time.sleep(args.ship_interval)

    threading.Thread(target=producer, daemon=True).start()

    curve = []  # one point per commit: epoch, table MB, log MB, tail RSS GB
    for line in tail.stdout:
        try:
            d = json.loads(line)
        except ValueError:
            continue
        if "epoch" in d:
            curve.append(
                {
                    "epoch": d["epoch"],
                    "table_mb": _du_mb(table),
                    "log_mb": _du_mb(live),
                    "tail_rss_gb": round(_rss_kb(tail.pid) / (1 << 20), 2),
                    **({"gc_files_removed": d["gc_files_removed"]} if "gc_files_removed" in d else {}),
                    **({"index_base_epoch": d["index_base_epoch"]} if d.get("index_base_epoch") else {}),
                }
            )
    tail.wait()

    # --- post-soak probes: time travel + index query after GC --------------
    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
    from tartare_ray.pipelines.dedup_index import TokenDedupIndex
    from tartare_ray.state.manifest import list_committed_epochs

    eng = CdcEngine(live, table, EngineConfig(num_partitions=32))
    retained = list_committed_epochs(table)
    oldest, newest = retained[0], retained[-1]
    # epoch-N lookup AFTER GC: read one live doc's state at the oldest
    # retained epoch (time travel must still serve)
    snap_old = eng.snapshot_dataset(epoch=oldest, columns=["doc_id", "n_tok"])
    old_rows = snap_old.count()
    idx = TokenDedupIndex(eng)
    idx.update()
    dup_groups = idx.duplicate_groups(min_copies=2).count()
    ray.shutdown()

    # downsample the curve for the report (keep every 5th + last)
    thin = [c for i, c in enumerate(curve) if i % 5 == 0 or i == len(curve) - 1]
    peak_mb = max((c["table_mb"] for c in curve), default=0)
    out = {
        "metric": "retention_soak",
        "files": args.files,
        "events_per_file": args.events_per_file,
        "epochs_committed": len(curve),
        "gc_every": args.gc_every,
        "gc_keep_last": args.gc_keep_last,
        "index_every": args.index_every,
        "table_mb_peak": peak_mb,
        "table_mb_final": curve[-1]["table_mb"] if curve else None,
        "log_mb_final": curve[-1]["log_mb"] if curve else None,
        "tail_rss_gb_peak": max((c["tail_rss_gb"] for c in curve), default=0),
        "retained_epoch_window": [oldest, newest],
        "time_travel_after_gc": {"epoch": oldest, "rows": old_rows, "serves": old_rows > 0},
        "index_query_after_gc": {"dup_groups": dup_groups},
        "curve": thin,
        "exit_code": tail.returncode,
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
