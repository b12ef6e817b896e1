"""Per-epoch metrics emission (throughput + skew), SURVEY.md §3.2 step 7.

Tartare analogue: Job step/status documents updated per Celery task
(`tartare/core/models.py::Job` `[UNVERIFIED — empty checkout]`) —
re-expressed as one JSON file per committed epoch, derived from the
per-partition lineage that the appliers return.
"""

from __future__ import annotations

import json
import os

from .state.manifest import Manifest
from .state.storage import storage_for


def epoch_metrics(
    m: Manifest, touched: list[int], wall_s: float, phases: dict | None = None
) -> dict:
    # this epoch's entries only (delta mode: a partition has a chain of
    # entries; the ones written this epoch carry this epoch's counts —
    # epochs written by the earlier hash exchange hold SEVERAL files per
    # partition, so counts are summed per p)
    this_epoch = [pl for pl in m.partitions if pl.epoch == m.epoch]
    if not this_epoch:  # pre-chain manifests (epoch field defaulted to 0)
        this_epoch = list(m.partitions)
    by_p: dict[int, int] = {}
    for pl in this_epoch:
        by_p[pl.p] = by_p.get(pl.p, 0) + pl.events_applied
    applied = [by_p[p] for p in touched if p in by_p]
    total = sum(applied)
    mean = total / len(applied) if applied else 0.0
    # Straggler metric (SURVEY.md §8.6): per-partition fold-task wall.
    # apply_ms is the wall of the task that merged the partition's
    # split files and wrote its winners file (and base, when it
    # folded) — one lineage row each — so max/mean quantifies how long
    # the commit barrier waits on the slowest partition.
    task_walls = sorted(pl.apply_ms for pl in this_epoch if pl.apply_ms > 0)
    straggler = (
        {
            "apply_tasks": len(task_walls),
            "apply_ms_max": round(task_walls[-1], 1),
            "apply_ms_mean": round(sum(task_walls) / len(task_walls), 1),
            "apply_ms_p50": round(task_walls[len(task_walls) // 2], 1),
            "apply_straggler_max_over_mean": round(
                task_walls[-1] / (sum(task_walls) / len(task_walls)), 3
            ),
        }
        if task_walls
        else None
    )
    return {
        "epoch": m.epoch,
        "watermark_lsn": m.watermark_lsn,
        "partitions_touched": len(applied),
        "events_applied": total,
        "rows_total": sum(pl.rows for pl in m.partitions),
        "wall_s": round(wall_s, 3),
        "events_per_sec": round(total / wall_s, 1) if wall_s > 0 else None,
        "skew_max_over_mean": round(max(applied) / mean, 3) if applied and mean else None,
        "straggler": straggler,
        # per-phase wall breakdown (plan / envelope / split write /
        # fold / commit) — where an epoch's non-overlapped time goes
        "phases": phases or None,
        "per_partition_events": {str(p): by_p[p] for p in touched if p in by_p},
    }


def write_epoch_metrics(table_root: str, metrics: dict) -> str:
    key = f"_metrics/e{metrics['epoch']:06d}.json"
    storage_for(table_root).write_atomic(key, json.dumps(metrics, indent=1))
    return os.path.join(table_root, key)
