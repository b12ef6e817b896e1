"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl
    python3 perfbench/compare.py --overhead UNTRACED.jsonl TRACED.jsonl

Each input holds the stdout of any number of ``run.py`` invocations
(a detail line naming the workload, then the result line).  For every
workload and end-to-end metric the report gives each side's median and
quartiles and a verdict:

- ``improved``: AFTER is better by more than BEFORE's own spread
  (interquartile range over median) and wins at least nine tenths of
  the run pairs, paired by seed;
- ``worse``: AFTER's median is worse by more than the metric's bound;
- ``unresolved``: a side's spread is wider than the bound, so "within
  bound" cannot be told apart from noise;
- ``within bound`` otherwise.

It also gives each side's share of failed operations.  Per-layer
metrics of traced runs are listed side by side, without a verdict.
``--overhead`` reports, per workload, the end-to-end metrics measured
in traced runs minus those of untraced runs, and for ``bulk_replay``
the full stage prefix's rate against the untraced replay rate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path: str) -> dict[tuple[str, int], list[dict]]:
    """{(workload, trace): [run, ...]}; a run has seed, attempted,
    failed, metrics (result line) and detail (detail line)."""
    runs: dict[tuple[str, int], list[dict]] = {}
    detail = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "workload" in obj:
                detail = obj
            elif "metrics" in obj and detail is not None:
                key = (detail["workload"], int(detail.get("trace", 0)))
                runs.setdefault(key, []).append(
                    {
                        "seed": detail["seed"],
                        "attempted": obj["attempted"],
                        "failed": obj["failed"],
                        "metrics": {k: v["value"] for k, v in obj["metrics"].items()},
                        "detail": detail,
                    }
                )
                detail = None
    return runs


def stats(xs: list[float]) -> dict:
    med = statistics.median(xs)
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = q3 = xs[0]
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def verdict(a: list[dict], b: list[dict], name: str, spec: dict) -> str:
    better_low = spec["better"] == "lower"
    sa = stats([r["metrics"][name] for r in a])
    sb = stats([r["metrics"][name] for r in b])
    sign = 1.0 if better_low else -1.0
    worse = sign * (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0
    if worse > spec["bound"]:
        return "worse"
    by_seed = {r["seed"]: r["metrics"][name] for r in a}
    pairs = [(by_seed[r["seed"]], r["metrics"][name]) for r in b if r["seed"] in by_seed]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if -worse > sa["spread"] and pairs and wins >= 0.9 * len(pairs):
        return "improved"
    all_better = all(
        sign * (y - x) < 0 for x in (r["metrics"][name] for r in a) for y in (r["metrics"][name] for r in b)
    )
    if all_better:
        return "improved"
    if max(sa["spread"], sb["spread"]) > spec["bound"]:
        return "unresolved"
    return "within bound"


def failed_share(runs: list[dict]) -> float:
    att = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / att if att else 0.0


def fmt(s: dict) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"


def compare(before: str, after: str, spec: dict) -> list[str]:
    a_runs, b_runs = load_runs(before), load_runs(after)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    out = []
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, trace = key
        a, b = a_runs[key], b_runs[key]
        out.append(
            f"== {workload} (trace {trace}): {len(a)} vs {len(b)} runs; failed share "
            f"{failed_share(a):.4f} vs {failed_share(b):.4f}"
        )
        names = sorted(set(a[0]["metrics"]) & set(b[0]["metrics"]))
        for name in names:
            sa = stats([r["metrics"][name] for r in a])
            sb = stats([r["metrics"][name] for r in b])
            v = verdict(a, b, name, e2e[name]) if name in e2e and not trace else ""
            out.append(f"  {name:40s} {fmt(sa):>34s}  ->  {fmt(sb):>34s}  {v}")
    return out


def overhead(untraced: str, traced: str) -> list[str]:
    u_runs, t_runs = load_runs(untraced), load_runs(traced)
    out = []
    for (workload, trace), runs in sorted(t_runs.items()):
        base = u_runs.get((workload, 0))
        if not trace or not base:
            continue
        out.append(f"== {workload}: traced minus untraced ({len(runs)} vs {len(base)} runs)")
        traced_vals = [r["detail"].get("end_to_end", {}) for r in runs]
        for name in sorted(base[0]["metrics"]):
            t = [v[name] for v in traced_vals if name in v]
            if not t:
                continue
            mu = statistics.median(r["metrics"][name] for r in base)
            mt = statistics.median(t)
            out.append(f"  {name:20s} {mt - mu:+.4g} ({(mt - mu) / mu:+.1%} of {mu:.4g})")
        # the full stage prefix of one epoch against the untraced replay
        pre = [r["metrics"]["prefix.events_per_s"] for r in runs if r["metrics"].get("prefix.events_per_s")]
        rep = [r["detail"]["metrics"]["replay_events_per_s"] for r in base
               if "replay_events_per_s" in r["detail"]["metrics"]]
        if pre and rep:
            mp, mr = statistics.median(pre), statistics.median(rep)
            out.append(
                f"  full stage prefix {mp:.4g} events/s = {mp / mr:.2f} x untraced "
                f"replay_events_per_s {mr:.4g}"
            )
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--overhead", action="store_true", help="traced minus untraced end-to-end metrics")
    p.add_argument("first")
    p.add_argument("second")
    args = p.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    lines = overhead(args.first, args.second) if args.overhead else compare(args.first, args.second, spec)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
