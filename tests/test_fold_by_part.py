"""``stages/kernels.fold_by_part``: the one hash-partition fold every
keyed fold in the engine and the query pipelines runs on."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from tartare_ray.stages.kernels import fold_by_part, hash_partition_ids, part_ids


def _table(n: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "k": pa.array(rng.integers(0, 60, n), pa.int64()),
            "s": pa.array([f"d{i}" for i in rng.integers(0, 9, n)], pa.string()),
            "v": pa.array(rng.integers(0, 1000, n), pa.int64()),
        }
    )


def _collect(ds) -> pa.Table:
    return pa.concat_tables(ds.iter_batches(batch_format="pyarrow"))


def test_each_key_reaches_exactly_one_call(ray_session):
    t = _table(3000, 1)
    ds = ray.data.from_arrow([t.slice(0, 1000), t.slice(1000, 1000), t.slice(2000)])

    def one_row_per_call(g: pa.Table) -> pa.Table:
        parts = np.unique(g["part"].to_numpy())
        return pa.table(
            {
                "part": pa.array([int(parts[0])], pa.int64()),
                "n_parts_seen": pa.array([len(parts)], pa.int64()),
                "n": pa.array([len(g)], pa.int64()),
                "keys": pa.array([sorted(set(g["k"].to_pylist()))], pa.list_(pa.int64())),
            }
        )

    out = _collect(fold_by_part(ds, "k", one_row_per_call, n_parts=5)).to_pylist()
    # one call per non-empty part, and each call sees only its own part
    assert sorted(r["part"] for r in out) == sorted({r["part"] for r in out})
    assert all(r["n_parts_seen"] == 1 for r in out)
    assert sum(r["n"] for r in out) == len(t)
    seen = [k for r in out for k in r["keys"]]
    assert len(seen) == len(set(seen))  # no key split across calls
    assert set(seen) == set(t["k"].to_pylist())


def test_multi_key_fold_equals_in_process_fold(ray_session):
    t = _table(4000, 2)
    ds = ray.data.from_arrow([t.slice(0, 1500), t.slice(1500)])

    def agg(g: pa.Table) -> pa.Table:
        return g.group_by(["k", "s"]).aggregate([("v", "sum"), ("v", "count")])

    got = _collect(fold_by_part(ds, ["k", "s"], agg)).sort_by([("k", "ascending"), ("s", "ascending")])
    want = agg(t).sort_by([("k", "ascending"), ("s", "ascending")])
    assert got.to_pydict() == want.to_pydict()


def test_string_key_tag_is_the_table_routing(ray_session):
    t = _table(500, 3)
    assert np.array_equal(part_ids(t, ["s"], 7), hash_partition_ids(t["s"], 7))

    def parts(g: pa.Table) -> pa.Table:
        return g.select(["s", "part"])

    out = _collect(fold_by_part(ray.data.from_arrow(t), "s", parts, n_parts=7))
    assert out["part"].to_pylist() == hash_partition_ids(out["s"], 7).tolist()


def test_empty_input_returns_empty_result(ray_session):
    empty = _table(0, 4)

    def never(g: pa.Table) -> pa.Table:
        raise AssertionError("fn called on an empty input")

    assert fold_by_part(ray.data.from_arrow(empty), "k", never).take_all() == []
