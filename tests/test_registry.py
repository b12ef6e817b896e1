"""Transform-step registry: declared-order chaining over a Dataset
(tartare's preprocess-chain contract, SURVEY.md §2A extension surface)."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_registry_pipeline_order(ray_session):
    import ray.data

    from tartare_ray.functions.registry import StepSpec, build_pipeline, get_step, register_step

    @register_step("add_one")
    def add_one(b: pa.Table) -> pa.Table:
        return b.set_column(0, "x", pc.add(b["x"], 1))

    @register_step("scale")
    class Scale:
        def __init__(self, factor: int):
            self.factor = factor

        def __call__(self, b: pa.Table) -> pa.Table:
            return b.set_column(0, "x", pc.multiply(b["x"], self.factor))

    assert not get_step("add_one").stateful
    assert get_step("scale").stateful

    ds = ray.data.from_arrow(pa.table({"x": pa.array([1, 2, 3], pa.int64())}))
    out = build_pipeline(
        ds,
        [StepSpec("add_one"), StepSpec("scale", kwargs={"factor": 10}, concurrency=1)],
    )
    assert sorted(r["x"] for r in out.take_all()) == [20, 30, 40]  # (x+1)*10, order matters


def test_builtin_steps_registered():
    from tartare_ray.functions import builtin_steps  # noqa: F401
    from tartare_ray.functions.registry import registered_steps

    names = registered_steps()
    for expected in [
        "token_count", "text_stats", "lang_id", "fingerprint",
        "bpe_token_count", "quality_filter", "attach_payload",
        "byte_histogram", "decode", "resize", "frame_sample",
    ]:
        assert expected in names, expected


def test_cli_pipeline_runs_named_chain(tmp_path, ray_session):
    """JSON-configured chain (tartare's declared preprocess list): the
    CLI runs quality_filter -> text_stats over documents parquet and
    writes partitioned output."""
    import json
    import os
    import subprocess
    import sys

    import pyarrow.parquet as pq

    cfg = {
        "steps": [
            {"name": "quality_filter", "kwargs": {"min_words": 8, "max_chars": 1200}},
            {"name": "text_stats"},
        ]
    }
    cfg_path = tmp_path / "pipe.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = str(tmp_path / "out")
    env = dict(os.environ, PYTHONPATH=REPO, RAY_ADDRESS="local")
    r = subprocess.run(
        [sys.executable, "-m", "tartare_ray", "pipeline",
         "--input", "/root/testdata/sf0.001/documents.parquet",
         "--output", out_dir, "--config", str(cfg_path)],
        capture_output=True, text=True, timeout=300, env=env, cwd=REPO,
    )
    assert r.returncode == 0, r.stderr[-1500:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    t = pq.read_table(out_dir)
    assert len(t) == out["rows"] > 0
    assert set(t.schema.names) == {"doc_id", "n_chars", "n_words", "n_stopwords"}
    assert min(t["n_words"].to_pylist()) >= 8
