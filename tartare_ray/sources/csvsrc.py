"""CSV change-event source — reference parity for tartare's CSV-table
feeds (GTFS member CSVs, `tartare/core/validity_period_finder.py` /
`calendar_handler.py` `[UNVERIFIED — empty checkout, SURVEY.md §0 /
§2A S5]`).

A CSV change log carries the scalar envelope + payload columns;
``tokens`` ride as a space-separated string column (CSV has no list
type) and are decoded vectorized (single split_pattern + cast over the
flattened values — no per-row Python).  ``csv_log_to_parquet``
normalizes a CSV log into the engine's Parquet log layout so the rest
of the pipeline is source-agnostic; ``read_change_csv`` streams it as
a Dataset for direct inspection.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.csv as pacsv
import ray.data

from ..state.storage import publish


def decode_tokens_batch(batch: pa.Table, col: str = "tokens") -> pa.Table:
    """'12 7 99' string column -> list<int32> (null-safe, vectorized)."""
    s = batch[col]
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    s = pc.cast(s, pa.string())
    # empty/blank token strings (delete tombstones) become null lists
    blank = pc.fill_null(pc.equal(pc.utf8_trim_whitespace(s), ""), True)
    s = pc.if_else(blank, pa.nulls(len(s), pa.string()), s)
    parts = pc.split_pattern(s, pattern=" ")
    ints = parts.cast(pa.list_(pa.int32()))
    idx = batch.schema.get_field_index(col)
    return batch.set_column(idx, col, ints)


def read_change_csv(paths: list[str] | str) -> ray.data.Dataset:
    """Stream a CSV change log as a Dataset with the engine's change
    schema (tokens decoded)."""
    ds = ray.data.read_csv(paths)
    return ds.map_batches(decode_tokens_batch, batch_format="pyarrow", zero_copy_batch=True)


def csv_log_to_parquet(csv_dir: str, parquet_dir: str) -> list[str]:
    """Normalize a directory of CSV change files into the Parquet log
    layout (one output file per input, LSN order preserved by file
    name).  Small-file utility — runs driver-side; at scale this is a
    one-off `read_csv → write_parquet` Ray job instead."""
    os.makedirs(parquet_dir, exist_ok=True)
    out = []
    for i, name in enumerate(sorted(os.listdir(csv_dir))):
        if not name.endswith(".csv"):
            continue
        tbl = pacsv.read_csv(os.path.join(csv_dir, name))
        tbl = decode_tokens_batch(tbl)
        import pyarrow.parquet as pq

        path = os.path.join(parquet_dir, f"events-{i:06d}.parquet")
        with publish(path) as tmp:
            pq.write_table(tbl, tmp)
        out.append(path)
    return out
