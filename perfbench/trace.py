"""Spans and counters for the traced run (``--trace 1``).

Spans are recorded from the benchmark's own code, around its calls into
each layer; nothing inside ``tartare_ray`` changes.  Layers that run in
the benchmark process are timed by temporarily wrapping their public
functions; stage layers that run inside Ray are timed by cumulative
prefixes (``prefix_sweep``).  Spans stay in memory and are written out
once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from collections import defaultdict

# Every per-layer metric a traced run reports, with its unit.  A layer
# that does no work in a workload reports 0 (see README.md).
QUERY_LIST = (
    "paragraph_dedup",
    "gram_containment",
    "stratified_sample",
    "corpus_shuffle",
    "temperature_sample",
    "ann_topk",
    "semdedup_recall",
)

PER_LAYER: dict[str, str] = {
    "ray.init_s": "s",
    "sources.plan_s": "s",
    "read.s": "s",
    "validate.s": "s",
    "validate.rows_in": "count",
    "validate.rows_out": "count",
    "envelope.s": "s",
    "envelope.winner_ratio": "ratio",
    "kernels.key_hash_s": "s",
    "kernels.latest_per_key_s": "s",
    "exchange.s": "s",
    "exchange.bytes": "bytes",
    "exchange.partition_skew": "ratio",
    "apply.s": "s",
    "apply.write_s": "s",
    "apply.rows_written": "count",
    "apply.bytes_written": "bytes",
    "apply.straggler_max_over_mean": "ratio",
    "manifest.commit_s": "s",
    "manifest.gc_orphans_s": "s",
    "metrics.write_s": "s",
    "prefix.events_per_s": "events/s",
    "compact.lookup_s": "s",
    "compact.chain_files_per_partition": "count",
    "compact.merge_read_s": "s",
    "compact.fold_s": "s",
    "compact.bytes_rewritten": "bytes",
    "feed.s": "s",
    "feed.rows": "count",
    "feed.calls_per_epoch": "count",
    "views.agg_s": "s",
    "views.minmax_s": "s",
    "views.quantile_s": "s",
    **{f"queries.{q}_s": "s" for q in QUERY_LIST},
}


class Tracer:
    """In-memory spans and counters."""

    enabled = True

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = {}
        self.phases: list[dict] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self.timed_from = 0.0  # start of the timed part, relative to t0

    def start_window(self) -> None:
        """Mark the start of the timed part: layer totals count only
        spans from here on, so set-up work is not charged to a layer."""
        self.timed_from = time.perf_counter() - self.t0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        start = time.perf_counter()
        stack.append(name)
        try:
            yield
        finally:
            stack.pop()
            end = time.perf_counter()
            with self._lock:
                self.spans.append(
                    {
                        "name": name,
                        "parent": parent,
                        "start": start - self.t0,
                        "end": end - self.t0,
                        **attrs,
                    }
                )

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a timed, counted wrapper until
        ``restore()``."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def timed(*args, **kwargs):
            with self._lock:
                self.counts[name + ".calls"] += 1
            with self.span(name):
                return orig(*args, **kwargs)

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def durations(self, name: str) -> list[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["start"] >= self.timed_from
        ]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def set(self, name: str, value: float) -> None:
        self.values[name] = float(value)

    def dump(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(
                {
                    **extra,
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "values": self.values,
                    "engine_phases": self.phases,
                },
                f,
                indent=1,
            )


class NullTracer(Tracer):
    """Tracing off: spans cost one generator step and record nothing."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield


def wrap_engine_layers(tracer: Tracer) -> None:
    """Time the layers the engine calls in the benchmark process:
    planning (sources.tail + schema), manifest commit and orphan GC,
    metrics writes, chain lookups and change-feed construction."""
    import tartare_ray.pipelines.cdc as cdc
    import tartare_ray.stages.compact as compact

    for attr in ("pending_files", "plan_epoch", "read_log_schema", "unify_with_widening"):
        tracer.wrap(cdc, attr, "sources.plan")
    tracer.wrap(cdc, "commit_manifest", "manifest.commit")
    tracer.wrap(cdc, "gc_orphans", "manifest.gc_orphans")
    tracer.wrap(cdc, "write_epoch_metrics", "metrics.write")
    tracer.wrap(compact, "lookup_keys_in_chain", "compact.lookup")
    tracer.wrap(cdc.CdcEngine, "changes_dataset", "feed.build")


def copy_engine_phases(tracer: Tracer, table_root: str) -> list[dict]:
    """Attach each epoch's own phase record (``_metrics/e*.json``)."""
    d = os.path.join(table_root, "_metrics")
    recs = []
    if os.path.isdir(d):
        for name in sorted(os.listdir(d)):
            if name.endswith(".json"):
                with open(os.path.join(d, name)) as f:
                    rec = json.load(f)
                rec.pop("ray_stats", None)
                recs.append(rec)
    tracer.phases.extend(recs)
    return recs


def time_kernels(tracer: Tracer, files: list[str], num_partitions: int) -> None:
    """Time the shared Arrow kernels in-process on an epoch's batches."""
    import pyarrow.parquet as pq

    from tartare_ray.stages.kernels import add_hash_partition_column, key_hash, latest_per_key

    for f in files:
        tbl = pq.read_table(f, columns=["lsn", "op", "doc_id"])
        with tracer.span("kernels.key_hash"):
            key_hash(tbl["doc_id"])
        tagged = add_hash_partition_column(tbl, "doc_id", num_partitions, hash_col="doc_hash")
        with tracer.span("kernels.latest_per_key"):
            latest_per_key(tagged, "doc_id", "lsn", hash_col="doc_hash")


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Fold spans and values into the PER_LAYER metrics."""
    import statistics

    def med(name: str) -> float:
        d = tracer.durations(name)
        return statistics.median(d) if d else 0.0

    v = dict.fromkeys(PER_LAYER, 0.0)
    v.update(
        {
            # Ray starts once, before the timed part
            "ray.init_s": sum(
                s["end"] - s["start"] for s in tracer.spans if s["name"] == "ray.init"
            ),
            "sources.plan_s": tracer.total("sources.plan"),
            "kernels.key_hash_s": tracer.total("kernels.key_hash"),
            "kernels.latest_per_key_s": tracer.total("kernels.latest_per_key"),
            "manifest.commit_s": tracer.total("manifest.commit"),
            "manifest.gc_orphans_s": tracer.total("manifest.gc_orphans"),
            "metrics.write_s": tracer.total("metrics.write"),
            "compact.lookup_s": tracer.total("compact.lookup"),
            "feed.s": med("feed.run"),
            "views.agg_s": med("views.agg"),
            "views.minmax_s": med("views.minmax"),
            "views.quantile_s": med("views.quantile"),
        }
    )
    for q in QUERY_LIST:
        v[f"queries.{q}_s"] = med(f"queries.{q}")
    v.update({k: val for k, val in tracer.values.items() if k in PER_LAYER})
    return {k: {"value": float(v[k]), "unit": PER_LAYER[k]} for k in PER_LAYER}
