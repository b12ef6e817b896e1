"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload at a tiny size (``PERFBENCH_SCALE=tiny``),
   untraced and traced, and checks that the last line parses and names
   exactly the metrics, with units, that ``BENCHMARK.json`` lists.
2. Checks that the DuckDB expected state agrees with the engine's
   sequential oracle (``tartare_ray.oracle.replay_oracle``) on a small
   log.
3. Checks that a deliberately wrong expected state is reported as
   failed operations, in every workload.

Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_replay", "tail_feed", "query_suite")


def run(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    env = dict(os.environ, PERFBENCH_SCALE="tiny")
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload}: exit {p.returncode}\n{p.stderr[-3000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_shape(spec: dict, workload: str, trace: int, detail: dict, last: dict) -> None:
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    assert detail["workload"] == workload and detail["seed"] == 3, detail
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int)
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in want], sorted(last["metrics"])
    for m in want:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
        if not trace:
            assert got["value"] > 0, (m["name"], got)


def check_oracle_agreement() -> None:
    """DuckDB's latest-LSN fold equals the sequential replay oracle."""
    sys.path.insert(0, ROOT)
    from perfbench.expected import LogOracle, same_rows
    from tartare_ray.gen import GenConfig, generate_log
    from tartare_ray.oracle import replay_oracle

    with tempfile.TemporaryDirectory(dir=ROOT) as d:
        files = generate_log(
            os.path.join(d, "log"),
            GenConfig(n_events=6000, n_docs=500, events_per_file=1000, widen_frac=0.5, add_col_frac=0.7),
        ).files
        oracle = LogOracle(files)
        want = replay_oracle(files)
        got = oracle.state(5999)
        assert got.num_rows == want.num_rows > 0, (got.num_rows, want.num_rows)
        diff = same_rows(got, want, oracle.columns)
        assert not diff, diff
        assert "quality" in oracle.columns  # the added column is compared too


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    check_oracle_agreement()
    print("ok: DuckDB expected state == replay_oracle", flush=True)
    for w in WORKLOADS:
        for trace in (0, 1):
            detail, last = run(w, trace)
            check_shape(spec, w, trace, detail, last)
            assert last["failed"] == 0 and last["correct"] is True, (w, trace, last)
            print(f"ok: {w} trace={trace}: {last['attempted']} operations, none failed", flush=True)
        detail, last = run(w, 0, "--corrupt-expected")
        check_shape(spec, w, 0, detail, last)
        assert last["failed"] > 0 and last["correct"] is False, (w, last)
        print(f"ok: {w}: wrong expected state -> {last['failed']} of {last['attempted']} failed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
