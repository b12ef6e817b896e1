"""Driver-contract guards: the invariants the grading driver depends
on, enforced locally so a refactor can't silently break them."""

from __future__ import annotations

import glob
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALLOWED_RAY_INIT = {
    "tartare_ray/__main__.py",  # CLI owns its session (guarded)
}


def test_no_ray_init_in_library_code():
    """The driver initializes Ray BEFORE importing __ray_entry__ —
    library code must never init/shutdown a session."""
    import ast

    offenders = []
    files = glob.glob(os.path.join(REPO, "tartare_ray", "**", "*.py"), recursive=True)
    files.append(os.path.join(REPO, "__ray_entry__.py"))
    for p in files:
        rel = os.path.relpath(p, REPO)
        if rel in ALLOWED_RAY_INIT:
            continue
        tree = ast.parse(open(p).read())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("init", "shutdown")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "ray"
            ):
                offenders.append((rel, node.func.attr, node.lineno))
    assert not offenders, offenders


def test_entry_queries_oracle_contract(ray_session):
    import __ray_entry__ as e

    qs, sql = e.queries(), e.oracle_sql()
    assert set(sql) <= set(qs), "every oracle key must have a query"
    assert len(qs) >= 40 and len(sql) >= 25
    for name, fn in qs.items():
        assert callable(fn), name
    res = e.entry()
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    assert len(df) > 0
    assert list(df.columns)  # stable, non-empty schema


def test_oracle_sql_is_valid_duckdb(ray_session):
    """Every oracle parses and runs under DuckDB against sf0.001."""
    import duckdb

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('/root/testdata/sf0.001/{t}.parquet')"
        )
    for name, q in e.oracle_sql().items():
        con.execute(q).fetchall()  # raises on syntax/binder errors
