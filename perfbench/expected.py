"""Expected outputs computed apart from the engine, with DuckDB SQL
over the raw log files.

The final state of a table is the latest-LSN event per doc_id with
deletes removed.  The files are read with ``union_by_name`` so the
int32→int64 token widening and the added ``quality`` column line up.
The change feed of an epoch is the same fold over (parent watermark,
watermark], deletes kept.  Results are compared by row count and by
an order-insensitive hash of every column.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa

PAYLOAD = ("doc_id", "tokens", "n_tok", "source", "quality")
# canonical types both sides are cast to before hashing
_CANON = {
    "doc_id": "VARCHAR",
    "op": "VARCHAR",
    "lsn": "BIGINT",
    "tokens": "BIGINT[]",
    "n_tok": "BIGINT",
    "source": "VARCHAR",
    "quality": "DOUBLE",
}


class LogOracle:
    """DuckDB views over one change log."""

    def __init__(self, log_files: list[str]):
        self.con = duckdb.connect()
        files = ", ".join(f"'{f}'" for f in sorted(log_files))
        self.con.execute(
            f"CREATE VIEW ev AS SELECT * FROM read_parquet([{files}], union_by_name=true)"
        )
        have = {r[0] for r in self.con.execute("DESCRIBE ev").fetchall()}
        self.columns = [c for c in PAYLOAD if c in have]

    def _fold(self, lo: int, hi: int, keep_deletes: bool, extra: tuple = ()) -> str:
        cols = ", ".join([*extra, *self.columns])
        where = "" if keep_deletes else "WHERE op <> 'D'"
        return (
            f"SELECT {cols} FROM (SELECT * FROM ev WHERE lsn > {lo} AND lsn <= {hi} "
            "QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) = 1) "
            f"{where}"
        )

    def state(self, hi: int, lo: int = -1) -> pa.Table:
        """Live rows after every event with LSN in (lo, hi]."""
        return self.con.execute(self._fold(lo, hi, keep_deletes=False)).arrow()

    def feed(self, lo: int, hi: int) -> pa.Table:
        """Latest event per doc_id in (lo, hi], tombstones included."""
        return self.con.execute(
            self._fold(lo, hi, keep_deletes=True, extra=("op", "lsn"))
        ).arrow()

    def deleted_ids(self, hi: int) -> list[str]:
        """doc_ids whose latest event up to ``hi`` is a delete."""
        rows = self.con.execute(
            f"SELECT doc_id FROM ev WHERE lsn <= {hi} QUALIFY row_number() OVER "
            "(PARTITION BY doc_id ORDER BY lsn DESC) = 1 AND op = 'D' ORDER BY doc_id"
        ).fetchall()
        return [r[0] for r in rows]


def fingerprint(tbl: pa.Table, columns: list[str]) -> dict:
    """Row count plus an order-insensitive hash of each column.  A
    column the table lacks is hashed as all-NULL, which is what the
    engine's null backfill makes of it."""
    con = duckdb.connect()
    con.register("t", tbl)
    have = set(tbl.column_names)
    exprs = ["count(*)"]
    for c in columns:
        src = c if c in have else "NULL"
        exprs.append(f"sum(hash(CAST({src} AS {_CANON[c]})))::HUGEINT")
    row = con.execute(f"SELECT {', '.join(exprs)} FROM t").fetchone()
    con.close()
    return {"rows": int(row[0]), **{c: int(v or 0) for c, v in zip(columns, row[1:])}}


def same_rows(got: pa.Table, want: pa.Table, columns: list[str]) -> list[str]:
    """Differences between two fingerprints, empty when they agree."""
    a, b = fingerprint(got, columns), fingerprint(want, columns)
    return [f"{k}: got {a[k]} want {b[k]}" for k in a if a[k] != b[k]]


def rows_by_id(tbl: pa.Table) -> dict[str, dict]:
    return {r["doc_id"]: r for r in tbl.to_pylist()}


def lookup_row_ok(got: pa.Table, want: dict | None, columns: list[str]) -> bool:
    """One single-key lookup against the expected row (None = absent)."""
    if want is None:
        return got.num_rows == 0
    if got.num_rows != 1:
        return False
    row = got.to_pylist()[0]
    return all(row.get(c) == want.get(c) for c in columns)


# -- incremental views --------------------------------------------------------

def view_expectations(state: pa.Table) -> dict:
    """Per-source count/sum, min and exact n_tok lists of a state."""
    con = duckdb.connect()
    con.register("s", state)
    agg = {
        r[0]: (int(r[1]), float(r[2]), int(r[3]))
        for r in con.execute(
            "SELECT source, count(*), sum(n_tok), min(n_tok) FROM s GROUP BY source"
        ).fetchall()
    }
    vals = {
        r[0]: sorted(r[1])
        for r in con.execute("SELECT source, list(n_tok) FROM s GROUP BY source").fetchall()
    }
    return {"agg": agg, "vals": vals}


def check_agg_view(view: pa.Table, exp: dict) -> list[str]:
    got = {
        r["source"]: (r["n_docs"], r["sum_n_tok"]) for r in view.to_pylist()
    }
    want = {k: (v[0], v[1]) for k, v in exp["agg"].items()}
    return [] if got == want else [f"agg view differs on {sorted(set(got) ^ set(want)) or 'values'}"]


def check_minmax_view(view: pa.Table, exp: dict) -> list[str]:
    got = {r["source"]: r["min_n_tok"] for r in view.to_pylist()}
    want = {k: float(v[2]) for k, v in exp["agg"].items()}
    return [] if got == want else ["min view differs"]


def check_quantile_view(view: pa.Table, exp: dict, alpha: float) -> list[str]:
    """Each sketch quantile is within ``alpha`` relative error of the
    exact value at the same rank (the DDSketch guarantee)."""
    errs = []
    rows = {r["source"]: r for r in view.to_pylist()}
    if set(rows) != set(exp["vals"]):
        return ["quantile view groups differ"]
    for src, vals in exp["vals"].items():
        vals = [v for v in vals if v > 0]
        for q in (0.5, 0.9, 0.99):
            rank = max(1, int(np.ceil(q * len(vals))))
            exact = vals[rank - 1]
            est = rows[src][f"q{int(q * 100)}"]
            if abs(est - exact) > alpha * exact * (1 + 1e-9):
                errs.append(f"{src} q{q}: {est} vs {exact}")
    return errs
