"""The checked benchmark (perfbench/) drives the engine through a set of
names: the configs its workloads build, the three views and the module
attributes its tracer patches.  Removing or renaming one of them must
fail here, in the everyday suite, and not only in a benchmark run."""

from __future__ import annotations

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO not in sys.path:
    sys.path.insert(0, REPO)


def test_benchmark_modules_import():
    import perfbench.prefixes  # noqa: F401
    import perfbench.trace  # noqa: F401
    import perfbench.workloads  # noqa: F401


def test_workload_configs_and_views_build(tmp_path):
    from perfbench.workloads import NUM_PARTITIONS, QUANTILE_ALPHA
    from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
    from tartare_ray.pipelines.views import (
        IncrementalAggView,
        IncrementalMinMaxView,
        IncrementalQuantileView,
    )

    # bulk_replay's config, then tail_feed's base loader and tail configs
    bulk = EngineConfig(
        num_partitions=NUM_PARTITIONS,
        write_mode="delta",
        exchange="hash",
        late_materialization=True,
        compact_chain_len=10**6,
        epoch_max_files=2,
    )
    for attr in ("exchange", "write_mode", "late_materialization"):
        getattr(bulk, attr)  # trace_replay_layers reads these
    EngineConfig(num_partitions=NUM_PARTITIONS, write_mode="delta", epoch_max_files=4)
    eng = CdcEngine(
        str(tmp_path / "log"),
        str(tmp_path / "table"),
        EngineConfig(num_partitions=NUM_PARTITIONS, epoch_max_files=1),
    )
    assert callable(eng._chains)  # trace_compaction_inputs reads the chains
    for v in (
        IncrementalAggView(eng, "agg", "source", "n_tok"),
        IncrementalMinMaxView(eng, "minmax", "source", "n_tok"),
        IncrementalQuantileView(eng, "quantile", "source", "n_tok", alpha=QUANTILE_ALPHA),
    ):
        assert callable(v.update_to) and callable(v.as_table)


def test_traced_engine_attributes_exist():
    from perfbench.trace import Tracer, wrap_engine_layers

    tr = Tracer()
    try:
        wrap_engine_layers(tr)  # AttributeError on a removed name
    finally:
        tr.restore()
