"""``stages/kernels.map_items``, the list-map behind the epoch fold,
compaction, backfill, export packing and the views' catch-up: at most
one task in flight per cluster CPU, results in input order, and Ray
Data's retry rules (system errors and worker crashes retried, a task's
own exception raised)."""

from __future__ import annotations

import os
import time

import pyarrow as pa
import pytest
import ray

import tartare_ray.pipelines.cdc as cdc
import tartare_ray.stages.kernels as kernels
from tartare_ray.gen import GenConfig, generate_log
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
from tartare_ray.stages.kernels import map_items


def _first_call(marker: str):
    """A function, shipped by value to the task, that is True exactly
    once per marker path, across processes."""

    def first() -> bool:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return False
        return True

    return first


def test_map_items_keeps_one_task_per_cpu_in_flight(ray_session, monkeypatch):
    cpus = int(ray.cluster_resources()["CPU"])
    n = 4 * cpus
    task = kernels._map_item
    submitted: list = []
    outstanding: list[int] = []

    class Counting:
        """``_map_item`` with the unfinished refs counted at each submit."""

        @staticmethod
        def remote(*args):
            _, pending = ray.wait(submitted, num_returns=len(submitted), timeout=0)
            outstanding.append(len(pending) + 1)
            submitted.append(task.remote(*args))
            return submitted[-1]

    monkeypatch.setattr(kernels, "_map_item", Counting)

    def slow(batch: pa.Table) -> pa.Table:
        i = batch["i"][0].as_py()
        time.sleep(0.02 * (n - i))  # later items finish first
        return pa.table({"i": [i, i], "sq": [i * i, -i]})

    rows = map_items(slow, [{"i": i} for i in range(n)])
    assert rows == [r for i in range(n) for r in ({"i": i, "sq": i * i}, {"i": i, "sq": -i})]
    assert len(outstanding) == n
    assert max(outstanding) == cpus, outstanding


def test_map_items_retries_system_errors_only(ray_session, tmp_path, monkeypatch):
    marker = str(tmp_path / "failed-once")
    first = _first_call(marker)

    def flaky(batch: pa.Table) -> pa.Table:
        if first():
            raise ray.exceptions.RaySystemError("injected system error")
        return batch

    assert map_items(flaky, [{"p": 1}, {"p": 2}]) == [{"p": 1}, {"p": 2}]
    assert os.path.exists(marker)

    calls = str(tmp_path / "calls")

    def broken(batch: pa.Table) -> pa.Table:
        with open(calls, "a") as f:
            f.write("x")
        raise ValueError("bad item")

    with pytest.raises(ValueError, match="bad item"):
        map_items(broken, [{"p": 1}])
    with open(calls) as f:
        assert f.read() == "x"  # a task's own error is not retried

    # a failure in the first item stops the fan-out: once the window of
    # one task per CPU is full, nothing more is submitted
    cpus = int(ray.cluster_resources()["CPU"])
    task = kernels._map_item
    submitted: list = []

    class Counting:
        @staticmethod
        def remote(*args):
            submitted.append(task.remote(*args))
            return submitted[-1]

    monkeypatch.setattr(kernels, "_map_item", Counting)

    def first_fails(batch: pa.Table) -> pa.Table:
        if batch["p"][0].as_py() == 0:
            raise ValueError("bad first item")
        time.sleep(2)
        return batch

    with pytest.raises(ValueError, match="bad first item"):
        map_items(first_fails, [{"p": p} for p in range(4 * cpus)])
    assert len(submitted) == cpus


def test_fold_task_crash_is_retried_with_identical_files(ray_session, tmp_path, monkeypatch):
    """A fold task whose worker dies is retried, and the epoch's files
    are byte-identical to those of a run with no crash."""
    res = generate_log(
        str(tmp_path / "log"), GenConfig(n_events=3000, n_docs=300, events_per_file=1000)
    )
    log_dir = os.path.dirname(res.files[0])
    cfg = EngineConfig(num_partitions=4, epoch_max_files=2)

    def data_files(root: str) -> dict[str, bytes]:
        d = os.path.join(root, "data")
        out = {}
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as f:
                out[name] = f.read()
        return out

    clean = str(tmp_path / "clean")
    CdcEngine(log_dir, clean, cfg).run_epoch()

    marker = str(tmp_path / "crashed-once")
    first = _first_call(marker)

    def crash_once(fn):
        def call(batch: pa.Table) -> pa.Table:
            rows = fn(batch)
            if first():
                os._exit(1)  # the worker dies after writing, before returning
            return rows

        return call

    monkeypatch.setattr(cdc, "map_items", lambda fn, items: map_items(crash_once(fn), items))
    crashed = str(tmp_path / "crashed")
    m = CdcEngine(log_dir, crashed, cfg).run_epoch()
    assert os.path.exists(marker)
    assert m.epoch == 1
    want = data_files(clean)
    assert any(n.startswith("part-") for n in want)
    assert data_files(crashed) == want
