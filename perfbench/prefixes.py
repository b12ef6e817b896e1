"""Cumulative stage prefixes of one epoch, for the traced run.

The epoch pipeline is rebuilt from the same public stage classes the
engine uses, and each prefix is run to completion on the epoch's log
files:

    1 read  2 +validate  3 +envelope  4 +exchange  5 +apply (null sink)
    6 +Parquet write  7 +commit

A layer's cost is the difference between two neighbouring prefixes.
The log files are read once before the sweep so that every prefix
starts from a warm page cache.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from tartare_ray.schema import CHANGE_SCHEMA, ENVELOPE_COLUMNS, schema_fingerprint
from tartare_ray.stages.apply import MergeApplier, SplitApplier
from tartare_ray.stages.kernels import latest_per_key
from tartare_ray.stages.validate import EnvelopeWinnerStage, ValidatePartitionStage
from tartare_ray.state.manifest import Manifest, PartitionLineage, commit_manifest


def _winners_null_sink(b: pa.Table) -> pa.Table:
    """The applier's reduce without the write: one row out per batch."""
    w = latest_per_key(b, "doc_id", "lsn", hash_col="doc_hash")
    return pa.table({"rows": pa.array([len(w)], pa.int64())})


def _identity(g: pa.Table) -> pa.Table:
    return g


def _winners_of_group(g: pa.Table) -> pa.Table:
    return latest_per_key(g, "doc_id", "lsn", hash_col="doc_hash")


def _timed(fn):
    t = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t


def prefix_sweep(
    *,
    files: list[str],
    watermark: int,
    num_partitions: int,
    snap_schema: pa.Schema,
    exchange: str,
    write_mode: str,
    late_materialization: bool,
    parent_chain: dict[int, list[dict]],
    parent_root: str | None,
    scratch_root: str,
    epoch: int,
) -> dict[str, float]:
    """Run the seven prefixes; returns per-layer values."""
    cpus = int(ray.cluster_resources().get("CPU", 2))
    change_schema = pa.schema(
        [CHANGE_SCHEMA.field(n) for n in ENVELOPE_COLUMNS] + list(snap_schema)
    )
    use_hash = exchange == "hash" and write_mode == "delta"
    metas = [pq.ParquetFile(f).metadata for f in files]
    events = sum(m.num_rows for m in metas)
    total_bytes = sum(m.row_group(i).total_byte_size for m in metas for i in range(m.num_row_groups))
    cap = 4 if use_hash else 2
    num_blocks = max(cpus, min(-(-total_bytes // (64 << 20)), cpus * cap))
    for f in files:  # warm the page cache
        with open(f, "rb") as fh:
            while fh.read(1 << 24):
                pass

    # the parent chain is read by the cow applier: give the scratch
    # table the parent's data files (hard links, no copy)
    os.makedirs(os.path.join(scratch_root, "data"), exist_ok=True)
    for chain in parent_chain.values():
        for e in chain:
            dst = os.path.join(scratch_root, e["file"])
            if not os.path.exists(dst):
                os.link(os.path.join(parent_root, e["file"]), dst)

    def read():
        return ray.data.read_parquet(files, override_num_blocks=num_blocks)

    def validated(winners_ref=None):
        return read().map_batches(
            ValidatePartitionStage(
                change_schema=change_schema,
                watermark=watermark,
                num_partitions=num_partitions,
                quarantine_dir=None,
                winners_ref=winners_ref,
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    def envelope_winners():
        env = (
            ray.data.read_parquet(files, columns=["lsn", "op", "doc_id"], override_num_blocks=cpus)
            .map_batches(
                EnvelopeWinnerStage(watermark, num_partitions),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .groupby("part")
            .map_groups(_winners_of_group, batch_format="pyarrow")
        )
        parts = [
            b["lsn"].combine_chunks().to_numpy(zero_copy_only=False)
            for b in env.select_columns(["lsn"]).iter_batches(batch_format="pyarrow", batch_size=None)
        ]
        lsns = np.sort(np.concatenate(parts)) if parts else np.empty(0, np.int64)
        return lsns

    out: dict[str, float] = {"validate.rows_in": float(events)}
    _, t_read = _timed(lambda: read().materialize())
    v, t_val = _timed(lambda: validated().materialize())
    out["validate.rows_out"] = float(v.count())
    del v

    # later prefixes reuse the winner set; each of their times carries
    # the envelope scan, so the prefixes stay cumulative
    winners_ref = None
    t_scan = 0.0
    t_env = t_val
    if late_materialization:
        lsns, t_scan = _timed(envelope_winners)
        winners_ref = ray.put(lsns)
        out["envelope.winner_ratio"] = len(lsns) / events if events else 0.0
        v, t = _timed(lambda: validated(winners_ref).materialize())
        t_env = t_scan + t
        del v

    ctx = ray.data.DataContext.get_current()
    prev = ctx.shuffle_strategy
    if use_hash:
        from ray.data.context import ShuffleStrategy

        ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    try:
        n_buckets = min(num_partitions, max(8, cpus))

        def exchanged():
            base = validated(winners_ref)
            if use_hash:
                return base.repartition(n_buckets, keys=["part"])
            return base.groupby("part").map_groups(_identity, batch_format="pyarrow")

        x, t_x = _timed(lambda: exchanged().materialize())
        t_x += t_scan
        out["exchange.bytes"] = float(x.size_bytes())
        del x

        def null_apply():
            if use_hash:
                ds = exchanged().map_batches(
                    _winners_null_sink, batch_format="pyarrow", batch_size=None
                )
            else:
                ds = (
                    validated(winners_ref)
                    .groupby("part")
                    .map_groups(_winners_of_group, batch_format="pyarrow")
                    .map_batches(_winners_null_sink, batch_format="pyarrow", batch_size=None)
                )
            return ds.take_all()

        _, t_null = _timed(null_apply)
        t_null += t_scan

        def write():
            if use_hash:
                ds = exchanged().map_batches(
                    SplitApplier(
                        table_root=scratch_root, epoch=epoch, snapshot_schema=snap_schema
                    ),
                    batch_format="pyarrow",
                    batch_size=None,
                    zero_copy_batch=True,
                )
            else:
                ds = validated(winners_ref).groupby("part").map_groups(
                    MergeApplier,
                    fn_constructor_kwargs=dict(
                        table_root=scratch_root,
                        epoch=epoch,
                        snapshot_schema=snap_schema,
                        parent_chain=parent_chain,
                        mode=write_mode,
                        compact_chain_len=10**6,
                    ),
                    batch_format="pyarrow",
                    concurrency=max(1, min(num_partitions, cpus // 2)),
                )
            return ds.take_all()

        lineage, t_write = _timed(write)
        t_write += t_scan
    finally:
        ctx.shuffle_strategy = prev

    def commit():
        parts = [
            PartitionLineage(
                p=int(r["p"]), file=r["file"], rows=int(r["rows"]),
                lsn_lo=int(r["lsn_lo"]), lsn_hi=int(r["lsn_hi"]),
                events_applied=int(r["events_applied"]), bytes=int(r["bytes"]),
                kind=r["kind"], epoch=epoch,
            )
            for r in lineage
        ]
        commit_manifest(
            scratch_root,
            Manifest(
                epoch=epoch,
                parent_epoch=None,
                watermark_lsn=max(int(r["lsn_hi"]) for r in lineage),
                schema_b64=Manifest.encode_schema(snap_schema),
                schema_fingerprint=schema_fingerprint(snap_schema),
                partitions=sorted(parts, key=lambda pl: (pl.p, pl.epoch)),
                num_partitions=num_partitions,
                parent_watermark_lsn=watermark,
                source_files=list(files),
            ),
        )

    _, t_commit = _timed(commit)
    t_full = t_write + t_commit
    out.update(
        {
            "read.s": t_read,
            "validate.s": t_val - t_read,
            "envelope.s": t_env - t_val,
            "exchange.s": t_x - t_env,
            "apply.s": t_null - t_x,
            "apply.write_s": t_write - t_null,
            "prefix.commit_s": t_commit,
            "prefix.full_s": t_full,
            "prefix.events_per_s": events / t_full if t_full > 0 else 0.0,
        }
    )
    return out
