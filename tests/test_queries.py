"""Driver-oracle parity: every oracle-checkable query compared against
its DuckDB SQL at sf0.001 (mirrors the driver's CORRECTNESS gate)."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return con


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns), ignore_index=True)


def _oracle_keys():
    from tartare_ray.pipelines.queries import ORACLE_SQL

    return sorted(ORACLE_SQL)


@pytest.mark.parametrize("name", _oracle_keys())
def test_query_matches_oracle(name, duck, ray_session):
    from tartare_ray.pipelines.queries import ORACLE_SQL, QUERIES

    ray_df = QUERIES[name](SF)
    if hasattr(ray_df, "to_pandas"):
        ray_df = ray_df.to_pandas()
    sql_df = duck.sql(ORACLE_SQL[name]).df()
    assert len(ray_df) == len(sql_df), f"rowcount {len(ray_df)} != {len(sql_df)}"
    assert sorted(ray_df.columns) == sorted(sql_df.columns)
    a, b = _canon(ray_df), _canon(sql_df)
    for c in a.columns:
        av, bv = a[c].values, b[c].values
        if np.issubdtype(a[c].dtype, np.floating):
            ok = np.isclose(av.astype(float), bv.astype(float), rtol=0, atol=1e-9) | (
                pd.isna(av) & pd.isna(bv)
            )
        else:
            ok = (av == bv) | (pd.isna(av) & pd.isna(bv))
        assert ok.all(), f"{name}.{c}: first mismatch {av[~ok][:3]} vs {bv[~ok][:3]}"


def test_rows_only_queries_run(ray_session):
    """Non-SQL-expressible pipelines: schema-stable, deterministic rows."""
    from tartare_ray.pipelines.queries import ORACLE_SQL, QUERIES

    expected_cols = {
        # lang_id upgraded to a full value oracle in round 5 — covered
        # by the parametrized oracle test now
        "minhash_lsh_dedup": ["doc_a", "doc_b", "est_jaccard"],
        "simhash_dedup": ["doc_a", "doc_b", "hamming"],
        "ngram_jaccard_pairs": ["doc_a", "doc_b", "jaccard"],
        "ann_lsh_pairs": ["id_a", "id_b", "cos"],
    }
    for name, cols in expected_cols.items():
        assert name in QUERIES and name not in ORACLE_SQL
        df = QUERIES[name](SF)
        if hasattr(df, "to_pandas"):
            df = df.to_pandas()
        assert list(df.columns) == cols, name


def test_round4_verdict_queries_not_vacuous(ray_session):
    """The round-4 error-bound/recall verdict entries must be
    non-vacuous: rows exist and every verdict boolean is TRUE (the
    SQL-parity of the anchor columns is covered by the parametrized
    oracle test above)."""
    from tartare_ray.pipelines.queries import QUERIES

    for name, bool_cols in [
        ("approx_distinct_check", ["within_2pct"]),
        ("cdc_quantile_check", ["q50_within", "q90_within", "q99_within"]),
        ("minhash_recall", ["recall_ok"]),
        ("gram_containment", []),
        ("perplexity_filter", []),
    ]:
        df = QUERIES[name](SF)
        if hasattr(df, "to_pandas"):
            df = df.to_pandas()
        assert len(df) > 0, name
        for c in bool_cols:
            assert df[c].all(), f"{name}.{c}"


def test_grouped_quantile_exact_randomized(ray_session):
    """Histogram-refinement quantile == full-sort quantile on skewed
    data with heavy duplicates and tiny groups (rank = ceil(q*n)-1)."""
    import math

    import numpy as np
    import pyarrow as pa
    import ray

    from tartare_ray.stages.quantile import grouped_quantile_exact

    rng = np.random.default_rng(7)
    ks = rng.choice(["a", "b", "c", "tiny"], p=[0.5, 0.3, 0.199, 0.001], size=20000)
    vals = np.where(
        rng.random(20000) < 0.3,
        np.round(rng.exponential(100, 20000), 0),  # heavy duplicates
        rng.normal(0, 1000, 20000),
    )
    tbl = pa.table({"k": ks, "v": vals})
    qs = [0.01, 0.5, 0.9, 0.99]
    got = grouped_quantile_exact(
        lambda: ray.data.from_arrow(tbl).repartition(8), "k", "v", qs, bins=64
    ).to_pandas().set_index("k")
    for k in np.unique(ks):
        s = np.sort(vals[ks == k])
        for q in qs:
            r = max(0, math.ceil(q * len(s)) - 1)
            assert got.loc[k, f"p{round(q*100):02d}"] == s[r], (k, q)


def test_grouped_quantile_rebin_bounds_pull_on_duplicates(ray_session):
    """A 90%-duplicated value column: the duplicated value's bin holds
    ~90% of the group, far over max_candidates — re-binning must still
    return EXACT quantiles while every driver pull stays ≤
    max_candidates (point-mass windows resolve with no pull at all)."""
    import math

    import numpy as np
    import pyarrow as pa
    import ray

    from tartare_ray.stages.quantile import grouped_quantile_exact

    rng = np.random.default_rng(11)
    n = 50_000
    dup_val = 42.0
    vals = np.where(rng.random(n) < 0.9, dup_val, rng.normal(0, 1000, n))
    ks = rng.choice(["a", "b"], size=n)
    tbl = pa.table({"k": ks, "v": vals})
    qs = [0.05, 0.5, 0.95]
    max_cand = 500
    diag: dict = {}
    got = grouped_quantile_exact(
        lambda: ray.data.from_arrow(tbl).repartition(8),
        "k",
        "v",
        qs,
        bins=32,
        max_candidates=max_cand,
        diag=diag,
    ).to_pandas().set_index("k")
    for k in np.unique(ks):
        s = np.sort(vals[ks == k])
        for q in qs:
            r = max(0, math.ceil(q * len(s)) - 1)
            assert got.loc[k, f"p{round(q*100):02d}"] == s[r], (k, q)
    assert diag["refine_rounds"] >= 1
    assert all(c <= max_cand for c in diag["pulled"].values()), diag["pulled"]
    # the p50 of each group IS the duplicated value — resolved as a
    # point mass, so no (k, p50-index) pull should appear at all
    assert all(kk[1] != 1 for kk in diag["pulled"]), diag["pulled"]


def test_approx_count_distinct_accuracy(ray_session):
    """HLL estimate within 2% of exact per group (p=14 → ~0.8% typical),
    and invariant to block layout (register merge is associative)."""
    import duckdb

    from tartare_ray.pipelines.queries import approx_count_distinct

    got = approx_count_distinct(SF).to_pandas().set_index("event_type")
    exact = (
        duckdb.sql(
            f"SELECT event_type, count(DISTINCT user_id) n FROM "
            f"read_parquet('{SF}/events.parquet') GROUP BY 1"
        )
        .df()
        .set_index("event_type")
    )
    for et in exact.index:
        e, a = int(exact.loc[et, "n"]), int(got.loc[et, "approx_n_distinct"])
        assert abs(a - e) <= max(2, 0.02 * e), (et, a, e)


def test_hll_merge_is_block_invariant(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from tartare_ray.stages.sketch import grouped_approx_distinct

    rng = np.random.default_rng(3)
    t = pa.table(
        {"k": rng.choice(["x", "y"], 50000), "v": rng.integers(0, 8000, 50000)}
    )
    a = grouped_approx_distinct(ray.data.from_arrow(t), "k", "v").to_pylist()
    b = grouped_approx_distinct(
        ray.data.from_arrow(t).repartition(13), "k", "v"
    ).to_pylist()
    assert a == b


def test_pack_sequences_exact_semantics():
    """Block-local packing: EOS after each doc, reshape to seq_len,
    remainder dropped or padded — exact expected rows."""
    import pyarrow as pa

    from tartare_ray.stages.pack import pack_batch

    b = pa.table({"tokens": pa.array([[1, 2, 3], [4, 5], [6, 7, 8, 9], [10]], pa.list_(pa.int32()))})
    out = pack_batch(b, seq_len=4, eos=0)
    assert out["seq"].to_pylist() == [[1, 2, 3, 0], [4, 5, 0, 6], [7, 8, 9, 0]]
    out2 = pack_batch(b, seq_len=4, eos=0, pad=-1)
    assert out2["seq"].to_pylist()[-1] == [10, 0, -1, -1]
    assert out2["n_tok"].to_pylist() == [4, 4, 4, 2]
    assert pack_batch(b, seq_len=5)["seq"].to_pylist() == [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]


def test_cdc_pack_sequences_runs(ray_session):
    import numpy as np

    from tartare_ray.pipelines.queries import cdc_pack_sequences

    t = cdc_pack_sequences(SF, seq_len=64).to_pandas()
    assert len(t) > 0
    lens = {len(s) for s in t["seq"]}
    assert lens == {64}
    assert (t["n_tok"] == 64).all()  # drop-remainder mode: all full rows


def test_truncate_tokens_step():
    import pyarrow as pa

    from tartare_ray.functions.builtin_steps import truncate_tokens

    b = pa.table(
        {
            "tokens": pa.array([[1, 2, 3, 4], [5]], pa.list_(pa.int32())),
            "n_tok": pa.array([4, 1], pa.int32()),
        }
    )
    out = truncate_tokens(b, max_len=2)
    assert out["tokens"].to_pylist() == [[1, 2], [5]]
    assert out["n_tok"].to_pylist() == [2, 1]


def test_quantile_sketch_error_bound(ray_session):
    """DDSketch guarantee: each reported quantile within 1% RELATIVE
    error of the exact sample quantile (rank-matched) — checked on the
    raw sketch stage, then on the query's own verdict columns (the
    round-4 hash-oracle form)."""
    import numpy as np
    import ray.data

    from tartare_ray.pipelines.queries import quantile_sketch
    from tartare_ray.stages.sketch import grouped_quantile_sketch

    got = (
        grouped_quantile_sketch(
            ray.data.read_parquet(f"{SF}/events.parquet", columns=["event_type", "value"]),
            "event_type",
            "value",
        )
        .to_pandas()
        .set_index("event_type")
    )
    import duckdb

    con = duckdb.connect()
    exact = con.execute(
        f"""SELECT event_type,
                   quantile_disc(value, 0.5) q50,
                   quantile_disc(value, 0.9) q90,
                   quantile_disc(value, 0.99) q99
            FROM read_parquet('{SF}/events.parquet')
            WHERE value > 0 GROUP BY event_type"""
    ).df().set_index("event_type")
    for et in exact.index:
        for q in ("q50", "q90", "q99"):
            a, e = float(got.loc[et, q]), float(exact.loc[et, q])
            assert abs(a - e) <= 0.011 * e + 1e-9, (et, q, a, e)
    # the query's verdict form: exact quantiles match DuckDB, all
    # within-bound booleans TRUE
    v = quantile_sketch(SF).to_pandas().set_index("event_type")
    for et in exact.index:
        assert float(v.loc[et, "p50_exact"]) == float(exact.loc[et, "q50"])
        assert bool(v.loc[et, "q50_within"]) and bool(v.loc[et, "q99_within"])


def test_quantile_sketch_is_block_invariant(ray_session):
    """Merging partial bucket counts is exact: 1 block vs many blocks
    produce identical sketch output."""
    import pyarrow as pa
    import ray.data

    from tartare_ray.stages.sketch import grouped_quantile_sketch

    import numpy as np

    rng = np.random.default_rng(4)
    t = pa.table(
        {
            "k": pa.array(rng.choice(["a", "b"], 5000)),
            "v": pa.array(rng.lognormal(3, 2, 5000)),
        }
    )
    one = grouped_quantile_sketch(ray.data.from_arrow(t), "k", "v").to_pandas()
    many = grouped_quantile_sketch(
        ray.data.from_arrow(t).repartition(23), "k", "v"
    ).to_pandas()
    one = one.sort_values("k", ignore_index=True)
    many = many.sort_values("k", ignore_index=True)
    assert one.equals(many)


def test_corpus_shuffle_rank_is_exact_permutation(ray_session):
    """Distributed rank assignment (bucket prefix-sums) must produce
    exactly 0..n-1, ordered lexicographically by (h, doc_id), and be
    deterministic across runs."""
    from tartare_ray.pipelines.queries import corpus_shuffle

    df = corpus_shuffle(SF).to_pandas().sort_values("shuffle_rank", ignore_index=True)
    n = len(df)
    assert df["shuffle_rank"].tolist() == list(range(n))
    keys = list(zip(df["h"], df["doc_id"]))
    assert keys == sorted(keys)
    df2 = corpus_shuffle(SF).to_pandas().sort_values("shuffle_rank", ignore_index=True)
    assert df.equals(df2)


def test_funnel_depth_ordered_semantics(ray_session, tmp_path):
    """Hand-built edge cases: same-microsecond ties do NOT advance,
    stages out of order do NOT count, min-time semantics per stage."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tartare_ray.pipelines.queries import funnel_depth

    us = 1_000_000
    rows = [
        # user 1: click ties the view's timestamp -> strictly-after fails
        (1, 10 * us, "view"), (1, 10 * us, "click"), (1, 20 * us, "purchase"),
        # user 2: clean 3-stage funnel
        (2, 10 * us, "view"), (2, 11 * us, "click"), (2, 12 * us, "purchase"),
        # user 3: click BEFORE the first view -> only depth 1
        (3, 10 * us, "click"), (3, 11 * us, "view"), (3, 12 * us, "purchase"),
        # user 4: purchase only -> depth 0
        (4, 10 * us, "purchase"),
        # user 5: two views, min view counts; late click after 2nd view
        (5, 10 * us, "view"), (5, 30 * us, "view"), (5, 20 * us, "click"),
        # user 6: non-stage events only -> excluded from the universe
        (6, 10 * us, "error"),
    ]
    t = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "event_type": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    got = dict(
        zip(
            *(
                funnel_depth(str(tmp_path)).to_pandas()
                .sort_values("user_id")[["user_id", "funnel_depth"]]
                .T.values.tolist()
            )
        )
    )
    # user 1: purchase at 20us follows... click never completed -> depth 1
    assert got == {1: 1, 2: 3, 3: 1, 4: 0, 5: 2}


def test_heavy_hitters_matches_exact_counts(ray_session):
    """Two-pass candidate/recount output == exact pandas counts with
    the same phi = 1/33 threshold (no false positives or negatives)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from tartare_ray.pipelines.queries import heavy_hitters

    got = heavy_hitters(SF).to_pandas().sort_values("word", ignore_index=True)
    text = pq.read_table(f"{SF}/documents.parquet", columns=["text"])["text"]
    toks = [w for s in text.to_pylist() for w in s.strip().split()]
    c = pd.Series(toks).value_counts()
    want = c[c * 33 > len(toks)].rename_axis("word").reset_index(name="cnt")
    want = want.sort_values("word", ignore_index=True)
    assert got["word"].tolist() == want["word"].tolist()
    assert got["cnt"].tolist() == want["cnt"].tolist()


def test_size_parts_caps_concurrent_join_aggregator_demand(ray_session):
    """Regression for the 10^7-doc campaign deadlock: Ray's join
    operator statically reserves 0.125 CPU per partition per join, so
    a plan holding two joins at the single-join cap (4x cluster CPUs)
    reserves 100% of the cluster and starves its own upstream map
    tasks.  concurrent_joins must divide the cap."""
    import ray as _ray

    from tartare_ray.pipelines.queries import _size_parts

    cpus = int(_ray.cluster_resources()["CPU"])
    # lazy range: size_bytes comes from metadata (8 B/row), nothing
    # materializes — 10^10 rows = 80 GB >> any cap * 128 MB
    big = _ray.data.range(10_000_000_000)
    one = _size_parts(big)
    two = _size_parts(big, concurrent_joins=2)
    cap = 4 * max(4, cpus)
    assert one == cap  # cap actually binds at this size
    # two concurrent joins: combined static demand == the one-join cap
    assert 2 * two <= cap + 1
    assert two == max(2, cap // 2)


def test_curation_pipeline_keeps_no_document(ray_session, tmp_path):
    """The gen corpus has no stop words, so curation_pipeline's quality
    filter keeps no document: the answer is the empty sample in the
    oracle's schema, not an ArrowInvalid from the dedup join."""
    from tartare_ray.gen import generate_documents
    from tartare_ray.pipelines.queries import ORACLE_SQL, QUERIES

    generate_documents(str(tmp_path), 200, docs_per_file=100, seed=7)
    ds = QUERIES["curation_pipeline"](str(tmp_path))
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet/*.parquet')"
    )
    want = con.sql(ORACLE_SQL["curation_pipeline"]).df()
    assert len(want) == 0 and ds.count() == 0
    assert sorted(ds.schema().names) == sorted(want.columns)
