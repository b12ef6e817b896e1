"""Continuous-tail soak probe (round-4 verdict item #8; results in
BASELINE.md): run the `tail` CLI in follow mode while a producer ships
log files into the live directory one at a time (atomic rename — real
log shipping), and report what an operator of a 100 TB CDC deployment
actually watches:

* epoch cadence — seconds between committed epochs,
* commit lag — time from a file's arrival to the commit that covers
  its max LSN,
* memory ceiling — peak RSS of the tail process tree and peak
  /dev/shm (plasma object store) usage over the soak.

Usage:  python tools/tail_soak.py [--files 20] [--events-per-file 500000]
                                  [--ship-interval 4.0] [--gc-every 4]
The tail CLI owns its own Ray session (this tool only spawns it).
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


def _tree_rss_kb(root_pid: int) -> int:
    """Total RSS of root_pid + every descendant (ray workers, raylet…)."""
    children: dict[int, list[int]] = {}
    rss: dict[int, int] = {}
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/stat") as f:
                parts = f.read().split()
            ppid = int(parts[3])
            rss_pages = int(parts[23])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(p))
        rss[int(p)] = rss_pages * 4  # pages → KiB
    total, stack = 0, [root_pid]
    while stack:
        pid = stack.pop()
        total += rss.get(pid, 0)
        stack.extend(children.get(pid, []))
    return total


def _shm_used_kb() -> int:
    st = os.statvfs("/dev/shm")
    return (st.f_blocks - st.f_bfree) * st.f_frsize // 1024


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--files", type=int, default=20)
    ap.add_argument("--events-per-file", type=int, default=500_000)
    ap.add_argument("--ship-interval", type=float, default=4.0)
    ap.add_argument("--poll-interval", type=float, default=1.0)
    ap.add_argument("--gc-every", type=int, default=4)
    ap.add_argument("--late-files", type=int, default=0,
                    help="violating-producer probe: ship N files whose LSNs "
                         "sit wholly below the watermark mid-soak; they must "
                         "land in _quarantine/late, not corrupt the replay")
    args = ap.parse_args()

    base = f"/tmp/tartare_ray/soak/{args.files}x{args.events_per_file}"
    staging, live, table = f"{base}/staging", f"{base}/log", f"{base}/table"
    shutil.rmtree(live, ignore_errors=True)
    shutil.rmtree(table, ignore_errors=True)
    os.makedirs(live, exist_ok=True)

    # 1. pre-generate the whole log into staging (idempotent), then
    # ship file-by-file — arrival order == LSN order, atomic renames
    import pyarrow.parquet as pq

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from tartare_ray.gen import GenConfig, generate_log

    n_events = args.files * args.events_per_file
    res = generate_log(
        staging,
        GenConfig(
            n_events=n_events,
            n_docs=max(1000, n_events // 10),
            events_per_file=args.events_per_file,
            widen_frac=0.6,
            add_col_frac=0.8,
        ),
    )
    file_max_lsn = {
        os.path.basename(f): int(
            pq.ParquetFile(f).metadata.row_group(
                pq.ParquetFile(f).metadata.num_row_groups - 1
            ).column(0).statistics.max
        )
        for f in res.files
    }

    # 2. start the tail follower (its own Ray session)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    tail = subprocess.Popen(
        [
            sys.executable, "-m", "tartare_ray", "tail",
            "--log-dir", live, "--table-root", table,
            "--num-partitions", "64", "--write-mode", "delta",
            "--late-materialization",
            "--poll-interval", str(args.poll_interval),
            "--max-polls", "8",
            "--gc-every", str(args.gc_every),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )

    # 3. producer thread ships one file per interval
    arrivals: dict[int, float] = {}  # max_lsn -> arrival time

    def producer():
        for i, f in enumerate(res.files):
            name = os.path.basename(f)
            tmp = os.path.join(live, name + ".inprogress")
            shutil.copyfile(f, tmp)
            os.rename(tmp, os.path.join(live, name))
            arrivals[file_max_lsn[name]] = time.time()
            if args.late_files and i == len(res.files) // 2:
                # violating producer: re-ship the FIRST file's events
                # under fresh names — wholly below the watermark by now
                for j in range(args.late_files):
                    lname = f"events-{900000 + j:06d}.parquet"
                    ltmp = os.path.join(live, lname + ".inprogress")
                    shutil.copyfile(res.files[0], ltmp)
                    os.rename(ltmp, os.path.join(live, lname))
            time.sleep(args.ship_interval)

    prod = threading.Thread(target=producer, daemon=True)
    t_start = time.time()
    prod.start()

    # 4. monitor: parse commits, sample memory
    commits = []  # (t, epoch, watermark)
    peak_rss_kb, shm0, peak_shm_kb = 0, _shm_used_kb(), 0

    def sampler():
        nonlocal peak_rss_kb, peak_shm_kb
        while tail.poll() is None:
            peak_rss_kb = max(peak_rss_kb, _tree_rss_kb(tail.pid))
            peak_shm_kb = max(peak_shm_kb, _shm_used_kb() - shm0)
            time.sleep(0.5)

    threading.Thread(target=sampler, daemon=True).start()

    for line in tail.stdout:
        try:
            d = json.loads(line)
        except ValueError:
            continue
        if "epoch" in d:
            commits.append((time.time(), d["epoch"], d["watermark"]))
    tail.wait()
    prod.join()

    # 5. report
    cadence = [
        round(b[0] - a[0], 2) for a, b in zip(commits, commits[1:])
    ]
    lags = []
    for t, _e, w in commits:
        covered = [al for ml, al in arrivals.items() if ml <= w]
        newest_covered = max(
            (al for ml, al in arrivals.items() if ml <= w), default=None
        )
        if newest_covered is not None:
            lags.append(round(t - newest_covered, 2))
    out = {
        "metric": "tail_soak",
        "files": args.files,
        "events_per_file": args.events_per_file,
        "ship_interval_sec": args.ship_interval,
        "soak_wall_sec": round(time.time() - t_start, 1),
        "epochs_committed": len(commits),
        "final_watermark": commits[-1][2] if commits else None,
        "all_events_applied": bool(commits and commits[-1][2] == res.max_lsn),
        "epoch_cadence_sec": {
            "p50": sorted(cadence)[len(cadence) // 2] if cadence else None,
            "max": max(cadence, default=None),
        },
        "commit_lag_sec": {
            "p50": sorted(lags)[len(lags) // 2] if lags else None,
            "max": max(lags, default=None),
        },
        "peak_tree_rss_gb": round(peak_rss_kb / (1 << 20), 2),
        "peak_object_store_shm_gb": round(peak_shm_kb / (1 << 20), 2),
        "gc_every": args.gc_every,
        "exit_code": tail.returncode,
    }
    watermarks = [w for _t, _e, w in commits]
    out["watermark_monotone"] = all(b >= a for a, b in zip(watermarks, watermarks[1:]))
    if args.late_files:
        late_meta = os.path.join(table, "_quarantine", "late", "_late.jsonl")
        n_late = sum(1 for _ in open(late_meta)) if os.path.exists(late_meta) else 0
        out["late_files_shipped"] = args.late_files
        out["late_files_quarantined"] = n_late
    print(json.dumps(out))


if __name__ == "__main__":
    main()
