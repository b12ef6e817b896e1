"""JSONL change-event source — the third log wire format next to
Parquet (native) and CSV (``csvsrc.py``): one JSON object per line,
``tokens`` as a real JSON array (unlike CSV's space-joined string),
the debezium/binlog-export shape a producer that can't write Parquet
typically ships.

``read_change_jsonl`` streams a JSONL log as a typed Dataset
(``ray.data.read_json`` + vectorized type conformance);
``jsonl_log_to_parquet`` normalizes a JSONL log directory into the
engine's Parquet log layout so the rest of the pipeline stays
source-agnostic.  Typing rules, all vectorized:

- ``lsn`` → int64; ``n_tok`` / ``schema_version`` → int32 (values are
  counts/versions — the narrow cast is checked);
- ``tokens`` (JSON parses as list<int64>) → list<int32> when every
  value fits, else KEPT int64 — a producer already shipping widened
  ids must not be silently truncated, and the engine's schema
  unification widens downstream consumers automatically;
- missing/null tokens (delete tombstones) stay null.

Reference analogue `[UNVERIFIED — empty checkout, SURVEY.md §0]`:
tartare ingests JSON configuration/metadata documents next to CSV
payloads; here JSONL is a first-class change-event wire format.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..schema import CHANGE_SCHEMA
from ..state.storage import publish

_SCALARS = (
    ("lsn", pa.int64()),
    ("op", pa.string()),
    ("doc_id", pa.string()),
    ("n_tok", pa.int32()),
    ("source", pa.string()),
    ("schema_version", pa.int32()),
)


def conform_json_batch(batch: pa.Table) -> pa.Table:
    """JSON-parsed batch → engine change-schema types (vectorized)."""
    cols = {}
    for name, typ in _SCALARS:
        if name in batch.schema.names:
            col = batch[name]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            cols[name] = pc.cast(col, typ)
        else:
            cols[name] = pa.nulls(len(batch), typ)
    toks = (
        batch["tokens"]
        if "tokens" in batch.schema.names
        else pa.nulls(len(batch), pa.list_(pa.int32()))
    )
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    try:
        toks = toks.cast(pa.list_(pa.int32()))
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        toks = toks.cast(pa.list_(pa.int64()))  # widened producer values
    cols["tokens"] = toks
    # any extra payload columns (schema evolution: e.g. quality) ride
    # through untouched, after the canonical envelope order
    order = [n for n, _ in _SCALARS[:3]] + ["tokens"] + [n for n, _ in _SCALARS[3:]]
    extra = [
        n for n in batch.schema.names if n not in cols and n != "tokens"
    ]
    return pa.table(
        {**{n: cols[n] for n in order}, **{n: batch[n] for n in extra}}
    )


def read_change_jsonl(paths: list[str] | str) -> ray.data.Dataset:
    """Stream a JSONL change log as a Dataset with the engine's change
    schema types, rows in file order (the read may split a file into
    several blocks, whose map outputs would otherwise arrive in
    task-completion order)."""
    ds = ray.data.read_json(paths).map_batches(
        conform_json_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    ds.context.execution_options.preserve_order = True
    return ds


def jsonl_log_to_parquet(jsonl_dir: str, parquet_dir: str) -> list[str]:
    """Normalize a directory of JSONL change files into the Parquet
    log layout (one output file per input, LSN order preserved by file
    name).  Small-file utility — runs driver-side; at scale this is a
    one-off ``read_json → conform → write_parquet`` Ray job instead."""
    import pyarrow.json as pajson
    import pyarrow.parquet as pq

    os.makedirs(parquet_dir, exist_ok=True)
    out = []
    i = 0
    for name in sorted(os.listdir(jsonl_dir)):
        if not (name.endswith(".jsonl") or name.endswith(".json")):
            continue
        tbl = conform_json_batch(pajson.read_json(os.path.join(jsonl_dir, name)))
        # narrow-token logs conform exactly to CHANGE_SCHEMA; widened
        # ones carry list<int64> tokens the engine unifies at apply
        if tbl.schema.names == list(CHANGE_SCHEMA.names):
            try:
                tbl = tbl.cast(CHANGE_SCHEMA)
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                pass
        path = os.path.join(parquet_dir, f"events-{i:06d}.parquet")
        with publish(path) as tmp:
            pq.write_table(tbl, tmp)
        out.append(path)
        i += 1
    return out
