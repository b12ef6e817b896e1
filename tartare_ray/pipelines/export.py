"""Training-shard export sink: committed snapshot → packed,
fixed-length training sequences as partitioned, RESUMABLE Parquet
shards.

One shard per snapshot partition, named deterministically
``shard-{p:05d}-e{epoch:06d}-g{generation}.parquet`` and written
through ``state/storage.publish`` — so a failed/killed export SKIPS
finished shards on re-run (the brief's resumable-output rule: never
one giant file, one unit per input shard).  A two-phase ``_export.json`` manifest commits
last: readers treat the export as complete only when it exists, and it
records the source (epoch, generation) so a post-rollback re-export
replaces rather than mixes.

Each shard task reads ONLY its partition's chain (PartitionMergeReader
— no shuffle), packs block-locally (stages/pack.py), and writes its
own file: the export is embarrassingly parallel and its memory bound
is one partition per task, same as the engine's apply.

INCREMENTAL re-export: each shard records a fingerprint of the chain
it was packed from.  On the next export (same out_dir, later epoch) a
partition whose chain is UNCHANGED — untouched by every intervening
epoch, the common case under zipf-hot workloads — is linked (or
copied, where the filesystem has no hardlinks) from the previous shard
before any shard task runs, instead of re-read and re-packed, so
re-export cost is proportional to TOUCHED partitions, not table
size.  Reuse requires
identical pack parameters and generation; a missing/mismatched prior
falls through to a full repack.

Reference analogue `[UNVERIFIED — empty checkout, SURVEY.md §0]`:
tartare's coverage export — the immutable, dated output artifact —
re-expressed as a partitioned training-data artifact.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import ray

from ..state.manifest import load_current, load_epoch, load_generation
from ..state.storage import link_or_copy, publish, storage_for
from ..stages.kernels import map_items
from ..stages.pack import pack_batch


def chain_fingerprint(chain_json: str) -> str:
    """Stable fingerprint of a partition chain descriptor (ordered
    file names + kinds) — equality means the pack input is
    byte-identical, because chain files are immutable and
    deterministically named."""
    import hashlib

    return hashlib.blake2b(chain_json.encode(), digest_size=12).hexdigest()


class ExportShardStage:
    """Partition-descriptor rows → one packed shard file each,
    skip-if-exists (resume).  Returns per-shard lineage rows."""

    def __init__(
        self,
        table_root: str,
        out_dir: str,
        schema_b64: str,
        epoch: int,
        generation: int,
        seq_len: int,
        eos: int | None,
        pad: int | None,
        drop_ref=None,
        drop_fp: str = "",
    ):
        import base64

        self.table_root = table_root
        self.out_dir = out_dir
        self.schema = pa.ipc.read_schema(pa.py_buffer(base64.b64decode(schema_b64)))
        self.epoch = epoch
        self.generation = generation
        self.seq_len = seq_len
        self.eos = eos
        self.pad = pad
        self.drop_ref = drop_ref
        # dedup exports live under distinct shard names so a same-epoch
        # resume can never adopt shards packed with a different filter
        self.tag = f"-dd{drop_fp[:8]}" if drop_fp else ""

    def shard_name(self, p: int) -> str:
        return f"shard-{p:05d}-e{self.epoch:06d}-g{self.generation}{self.tag}.parquet"

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        from ..stages.compact import read_chain

        out = []
        for row in batch.to_pylist():
            p = int(row["p"])
            name = self.shard_name(p)
            path = os.path.join(self.out_dir, name)
            fp = chain_fingerprint(row["chain_json"])
            if os.path.exists(path):  # resume: shard already finished
                md = pq.ParquetFile(path).metadata
                out.append((p, name, md.num_rows, "resumed", fp))
                continue
            chain = json.loads(row["chain_json"])
            live = read_chain(self.table_root, chain, self.schema)
            if self.drop_ref is not None:
                import numpy as np
                import ray

                drop = ray.get(self.drop_ref)  # node-local after first fetch
                if len(drop) and len(live):
                    ids = live["doc_id"].combine_chunks().to_numpy(
                        zero_copy_only=False
                    )
                    live = live.filter(pa.array(~np.isin(ids, drop)))
            packed = pack_batch(
                live.select(["tokens"]),
                seq_len=self.seq_len,
                eos=self.eos,
                pad=self.pad,
            )
            with publish(path) as tmp:
                pq.write_table(packed, tmp, compression="zstd")
            out.append((p, name, len(packed), "packed", fp))
        return pa.table(
            {
                "p": pa.array([r[0] for r in out], pa.int32()),
                "file": pa.array([r[1] for r in out], pa.string()),
                "n_seqs": pa.array([r[2] for r in out], pa.int64()),
                "how": pa.array([r[3] for r in out], pa.string()),
                "chain_fp": pa.array([r[4] for r in out], pa.string()),
            }
        )


def export_training_shards(
    engine,
    out_dir: str,
    seq_len: int = 2048,
    eos: int | None = 0,
    pad: int | None = None,
    epoch: int | None = None,
    drop_duplicates: bool = False,
    near_dup_threshold: float | None = None,
) -> dict:
    """Export the committed snapshot (or a time-travel ``epoch``) as
    packed training shards.  Idempotent + resumable; returns the export
    manifest (also written as ``out_dir/_export.json``).

    ``drop_duplicates=True`` composes the incrementally-maintained
    token dedup index (pipelines/dedup_index.py): exact token-sequence
    duplicates keep only the min-doc_id survivor.  The loser set —
    O(duplicate docs), the small side by construction — broadcasts via
    ``ray.put`` and each shard task filters before packing; incremental
    shard reuse is additionally gated on a fingerprint of the loser
    set, because a NEW duplicate elsewhere can change which doc an
    untouched partition must drop.

    ``near_dup_threshold`` additionally composes the incremental
    MINHASH index (pipelines/minhash_index.py): near-duplicate
    CLUSTERS (connected components over verified LSH pairs at the
    given signature-Jaccard threshold) also keep only their min-doc_id
    survivor; the near-dup losers union into the same broadcast filter
    and reuse fingerprint."""
    m = load_current(engine.table_root) if epoch is None else load_epoch(
        engine.table_root, epoch
    )
    if m is None:
        raise FileNotFoundError(f"nothing committed at {engine.table_root}")
    gen = load_generation(engine.table_root)
    os.makedirs(out_dir, exist_ok=True)
    drop_ref, drop_fp = None, ""
    if drop_duplicates or near_dup_threshold is not None:
        import hashlib

        import numpy as np

        loser_parts = []
        if drop_duplicates:
            from .dedup_index import TokenDedupIndex

            idx = TokenDedupIndex(engine)
            idx.update()
            loser_parts.extend(
                idx.duplicate_losers().iter_batches(batch_format="pyarrow")
            )
        if near_dup_threshold is not None:
            from .minhash_index import MinHashIndex

            midx = MinHashIndex(engine)
            midx.update()
            loser_parts.extend(
                midx.near_dup_losers(threshold=near_dup_threshold).iter_batches(
                    batch_format="pyarrow"
                )
            )
        losers = (
            pa.concat_tables(loser_parts)
            if loser_parts
            else pa.table({"doc_id": pa.array([], pa.string())})
        )
        drop = np.unique(
            np.asarray(losers["doc_id"].to_numpy(zero_copy_only=False), dtype=object)
        )
        drop_fp = hashlib.blake2b(
            (f"near={near_dup_threshold}\x01" + "\x00".join(map(str, drop))).encode(),
            digest_size=12,
        ).hexdigest()
        drop_ref = ray.put(drop)
    # incremental reuse: index the previous export (same out_dir) by
    # partition IF its generation + pack parameters match this one
    prior_by_p: dict[int, dict] = {}
    prior_path = os.path.join(out_dir, "_export.json")
    if os.path.exists(prior_path):
        with open(prior_path) as f:
            prev = json.load(f)
        if (
            prev.get("generation") == gen
            and prev.get("seq_len") == seq_len
            and prev.get("eos") == eos
            and prev.get("pad") == pad
            and prev.get("drop_fp", "") == drop_fp
        ):
            prior_by_p = {
                int(s["p"]): s for s in prev.get("shards", []) if s.get("chain_fp")
            }
    stage = ExportShardStage(
        engine.table_root, out_dir, m.schema_b64, m.epoch, gen, seq_len, eos, pad,
        drop_ref, drop_fp,
    )
    items, lineage = [], []
    for p, chain in sorted(engine._chains(m).items()):
        chain_json = json.dumps(chain)
        fp = chain_fingerprint(chain_json)
        name, prior = stage.shard_name(p), prior_by_p.get(p, {})
        src, path = os.path.join(out_dir, prior.get("file", "")), os.path.join(out_dir, name)
        if prior.get("chain_fp") == fp and os.path.isfile(src) and not os.path.exists(path):
            # incremental reuse: the chain this partition would be
            # packed from is byte-identical to the previous export's —
            # link its shard here instead of repacking it in a task
            with publish(path) as tmp:
                link_or_copy(src, tmp)
            lineage.append(
                {"p": p, "file": name, "n_seqs": int(prior["n_seqs"]), "how": "reused", "chain_fp": fp}
            )
        else:
            items.append({"p": p, "chain_json": chain_json})
    lineage += map_items(stage, items)  # O(partitions) descriptor rows
    shards = sorted(lineage, key=lambda r: int(r["p"]))
    manifest = {
        "source_table": engine.table_root,
        "epoch": m.epoch,
        "generation": gen,
        "seq_len": seq_len,
        "eos": eos,
        "pad": pad,
        "drop_fp": drop_fp,
        "n_seqs": int(sum(int(r["n_seqs"]) for r in shards)),
        "shards": [
            {
                "p": int(r["p"]),
                "file": r["file"],
                "n_seqs": int(r["n_seqs"]),
                "chain_fp": r["chain_fp"],
            }
            for r in shards
        ],
        "resumed_shards": int(sum(r["how"] == "resumed" for r in shards)),
        "reused_shards": int(sum(r["how"] == "reused" for r in shards)),
        "packed_shards": int(sum(r["how"] == "packed" for r in shards)),
    }
    storage_for(out_dir).write_atomic("_export.json", json.dumps(manifest, indent=1))
    return manifest
