"""Run one benchmark workload (or all of them) and print its result.

    python3 perfbench/run.py --workload bulk_replay --seed 1 --seconds 10 --trace 0

Each workload runs in a child process with a fresh Ray session, after
``ray stop --force``, in a fresh run directory that is removed at exit.
A watchdog ends a hung workload; its operations then count as failed.
Only results reach stdout: per workload one detail line (workload,
seed, metrics in the engine's terms, host stamp) and, last, the result
line ``{"correct", "attempted", "failed", "metrics"}``.  Ray's own
output goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("bulk_replay", "tail_feed", "query_suite")
WATCHDOG_S = 165
RUN_BASE = ".perfbench_run"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def ray_stop() -> None:
    subprocess.run(
        [sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=120,
        check=False,
    )


def ray_processes_left() -> bool:
    """Whether any Ray process (raylet, GCS, worker) is still running."""
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/cmdline", "rb") as f:
                    cmd = f.read()
            except OSError:
                continue
            if b"/ray/core/src/ray/" in cmd or cmd.startswith(b"ray::"):
                return True
    return False


def result_line(res: dict, spec: dict, trace: bool) -> dict:
    """The final line, with exactly the metrics BENCHMARK.json names for
    this mode."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = res["layers"] if trace else {
        m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in wanted
    }
    return {
        # every operation was checked, and none failed its check
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }


def run_workload(args, name: str, spec: dict) -> int:
    ray_stop()
    run_dir = os.path.join(ROOT, RUN_BASE, f"{name}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    out_path = os.path.join(run_dir, "result.json")
    rc = None
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--run-dir", run_dir, "--out", out_path,
    ]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    ))
    env.setdefault("RAY_DATA_DISABLE_PROGRESS_BARS", "1")
    try:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            start_new_session=True,
        )
        try:
            rc = proc.wait(timeout=WATCHDOG_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            sys.stderr.write(f"perfbench: {name} exceeded {WATCHDOG_S}s; counted as failed\n")
            rc = None
        res = None
        if rc == 0 and os.path.exists(out_path):
            with open(out_path) as f:
                res = json.load(f)
    finally:
        if rc != 0 or ray_processes_left():
            ray_stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, RUN_BASE))
        except OSError:
            pass
    if res is None:
        # a hung or crashed workload counts as one failed operation
        why = {"hung_after_s": WATCHDOG_S} if rc is None else {"exit_code": rc}
        print(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace, **why}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}), flush=True)
        return 1
    for e in res["errors"][:20]:
        sys.stderr.write(f"perfbench: {name}: {e}\n")
    for k, v in res["samples"].items():
        sys.stderr.write(f"perfbench: {name}: {k} per round: {' '.join(f'{x:.3f}' for x in v)}\n")
    print(json.dumps({
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["detail"],
        "ambient": res["ambient"],
        **({"end_to_end": res["metrics"], "tracing": res["extra"]} if args.trace else {}),
    }))
    print(json.dumps(result_line(res, spec, bool(args.trace))), flush=True)
    return 0


def nproc() -> int:
    """Processing units available, as ``nproc`` counts them."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def child(args) -> None:
    """One workload in this process; writes its result to ``--out``."""
    sys.path.insert(0, ROOT)
    from perfbench.trace import NullTracer, Tracer, layer_metrics, wrap_engine_layers
    from perfbench.workloads import WORKLOADS, Ctx

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        wrap_engine_layers(tracer)
    ctx = Ctx(args.run_dir, args.seed, args.seconds, tracer, args.corrupt_expected)
    r = WORKLOADS[args.workload](ctx)
    tracer.restore()
    out = {
        "metrics": r.metrics,
        "detail": r.detail,
        "attempted": r.attempted,
        "failed": r.failed,
        "errors": r.errors,
        "extra": r.extra,
        "samples": r.samples,
        "ambient": {
            "nproc": nproc(),
            "cpus": os.cpu_count(),
            "cpu_steal_frac": r.detail.get("cpu_steal_frac"),
            "host_spin_ms": r.detail.get("host_spin_ms"),
        },
    }
    if args.trace:
        out["layers"] = layer_metrics(tracer)
        tracer.dump(
            os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "end_to_end": r.metrics,
             "detail": r.detail},
        )
    tmp = args.out + ".tmp"
    with open(tmp, "w") as f:
        json.dump(out, f)
    os.replace(tmp, args.out)
    import ray

    ray.shutdown()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-expected", action="store_true",
                   help="self-test: check against a deliberately wrong expected state")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--run-dir", help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        child(args)
        return 0
    spec = load_spec()
    if not os.path.isdir(os.path.join(ROOT, "tartare_ray")):
        sys.stderr.write("perfbench: the engine (tartare_ray/) is not in this checkout\n")
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    rc = 0
    for name in names:
        t = time.perf_counter()
        rc |= run_workload(args, name, spec)
        sys.stderr.write(f"perfbench: {name} took {time.perf_counter() - t:.1f}s\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
