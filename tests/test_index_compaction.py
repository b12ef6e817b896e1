"""EpochDeltaIndex compaction (pipelines/dedup_index.py): folding
per-epoch deltas into a consolidated base, incremental consumption on
top of a base, crash hygiene, and the rollback-past-compaction rebuild
from the snapshot."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
from tartare_ray.pipelines.dedup_index import TokenDedupIndex
from tartare_ray.pipelines.inverted_index import InvertedIndex
from tartare_ray.pipelines.minhash_index import MinHashIndex
from tartare_ray.schema import CHANGE_SCHEMA


def _write_events(path: str, rows: list[tuple]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tbl = pa.table(
        {
            "lsn": pa.array([r[0] for r in rows], pa.int64()),
            "op": pa.array([r[1] for r in rows], pa.string()),
            "doc_id": pa.array([r[2] for r in rows], pa.string()),
            "tokens": pa.array([r[3] for r in rows], pa.list_(pa.int32())),
            "n_tok": pa.array(
                [len(r[3]) if r[3] is not None else None for r in rows], pa.int32()
            ),
            "source": pa.array(
                ["s" if r[3] is not None else None for r in rows], pa.string()
            ),
            "schema_version": pa.array([1] * len(rows), pa.int32()),
        },
        schema=CHANGE_SCHEMA,
    )
    pq.write_table(tbl, path)


def _fps(idx) -> dict[str, int]:
    t = pa.concat_tables(idx.live_fingerprints().iter_batches(batch_format="pyarrow"))
    d = t.to_pydict()
    return dict(zip(d["doc_id"], d["fp"]))


def _stats(idx) -> dict:
    t = pa.concat_tables(idx.term_stats().iter_batches(batch_format="pyarrow"))
    return t.sort_by("term").to_pydict()


def _dirs(idx, prefix: str) -> list[str]:
    return sorted(n for n in os.listdir(idx.dir) if n.startswith(prefix))


def _three_epoch_engine(tmp_path):
    log = str(tmp_path / "log")
    _write_events(
        f"{log}/events-000000.parquet",
        [(1, "I", "a", [1, 2, 3]), (2, "I", "b", [1, 2, 3]), (3, "I", "c", [9])],
    )
    _write_events(
        f"{log}/events-000001.parquet",
        [(4, "D", "b", None), (5, "U", "c", [7, 7]), (6, "I", "d", [9])],
    )
    _write_events(
        f"{log}/events-000002.parquet",
        [(7, "I", "e", [1, 2, 3]), (8, "U", "a", [5])],
    )
    eng = CdcEngine(
        log, str(tmp_path / "tbl"), EngineConfig(num_partitions=2, epoch_max_files=1)
    )
    eng.replay()
    return log, eng


def test_compact_preserves_state_and_bounds_dirs(ray_session, tmp_path):
    _, eng = _three_epoch_engine(tmp_path)
    idx = TokenDedupIndex(eng)
    assert idx.update() == [1, 2, 3]
    before = _fps(idx)
    assert set(before) == {"a", "c", "d", "e"}
    assert len(_dirs(idx, "fp-e")) == 3

    assert idx.compact() == 3
    assert _dirs(idx, "base-e") == ["base-e000003"]
    assert _dirs(idx, "fp-e") == []
    assert _fps(idx) == before
    # idempotent no-op when nothing new to fold
    assert idx.compact() == 3
    assert _fps(idx) == before

    # group census keeps working from the base (no dup fps remain at
    # epoch 3, so min_copies=1 — the full census of 4 live docs)
    dups = pa.concat_tables(
        idx.duplicate_groups(min_copies=1).iter_batches(batch_format="pyarrow")
    ).to_pydict()
    assert sorted(dups["survivor"]) == ["a", "c", "d", "e"]
    assert all(n == 1 for n in dups["n_copies"])


def test_incremental_on_top_of_base(ray_session, tmp_path):
    log, eng = _three_epoch_engine(tmp_path)
    idx = TokenDedupIndex(eng)
    idx.update()
    idx.compact()
    _write_events(
        f"{log}/events-000003.parquet", [(9, "D", "a", None), (10, "U", "d", [1])]
    )
    eng.replay()
    assert idx.update() == [4]
    fps = _fps(idx)
    assert set(fps) == {"c", "d", "e"}
    # second compact folds base + new delta
    assert idx.compact() == 4
    assert _dirs(idx, "base-e") == ["base-e000004"]
    assert _dirs(idx, "fp-e") == []
    assert _fps(idx) == fps


def test_crashed_compact_leftovers_are_skipped_and_cleaned(ray_session, tmp_path):
    _, eng = _three_epoch_engine(tmp_path)
    idx = TokenDedupIndex(eng)
    idx.update()
    # keep a covered delta dir aside, compact, then restore it — the
    # "crash between base rename and covered-dir cleanup" state
    kept = os.path.join(idx.dir, "fp-e000002")
    aside = str(tmp_path / "aside")
    shutil.copytree(kept, aside)
    before = _fps(idx)
    idx.compact()
    shutil.copytree(aside, kept)
    # a stale inprogress dir too
    os.makedirs(os.path.join(idx.dir, "base-e000009.inprogress"))
    # readers skip covered dirs (epoch <= base epoch)
    assert _fps(idx) == before
    # update() removes the leftovers
    assert idx.update() == []
    assert _dirs(idx, "fp-e") == []
    assert _dirs(idx, "base-e") == ["base-e000003"]
    assert _fps(idx) == before


def test_rollback_past_compaction_rebuilds_from_snapshot(ray_session, tmp_path):
    log, eng = _three_epoch_engine(tmp_path)
    idx = TokenDedupIndex(eng)
    idx.update()
    idx.compact()  # base at epoch 3

    # state the index must equal after rolling back to epoch 1 and
    # replaying: a fresh index over the same engine
    eng.rollback(1)
    eng.replay()  # re-applies epochs 2..3 from the untouched log
    assert idx.update() == [2, 3]
    got = _fps(idx)

    fresh = TokenDedupIndex(eng, name="fresh")
    fresh.update()
    assert got == _fps(fresh)
    # exactly one base (the rebuilt epoch-1 base was superseded or
    # folded away is fine; state equality is the contract)


@pytest.mark.slow
def test_cli_search_index_and_compact(tmp_path):
    """CLI surface: `search-index` updates + compacts the inverted
    index and serves term stats / a word search; `dedup-index
    --compact` reports the base epoch."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(
        os.environ,
        PYTHONPATH=repo + os.pathsep + os.environ.get("PYTHONPATH", ""),
        RAY_ADDRESS="local",
    )

    def cli(*args):
        r = subprocess.run(
            [sys.executable, "-m", "tartare_ray", *args],
            capture_output=True, text=True, timeout=300, env=env, cwd=repo,
        )
        assert r.returncode == 0, r.stderr[-1500:]
        return json.loads(r.stdout.strip().splitlines()[-1])

    log, table = str(tmp_path / "log"), str(tmp_path / "table")
    cli("gen", "--log-dir", log, "--n-events", "3000")
    cli("replay", "--log-dir", log, "--table-root", table, "--num-partitions", "4")
    out = cli(
        "search-index", "--log-dir", log, "--table-root", table,
        "--num-partitions", "4", "--compact",
    )
    assert out["ingested_epochs"] == [1] and out["base_epoch"] == 1
    assert len(out["top_terms"]) > 0 and out["top_terms"][0]["tf_total"] >= 1
    out2 = cli(
        "search-index", "--log-dir", log, "--table-root", table,
        "--num-partitions", "4", "--terms", "the,data", "--k", "3",
    )
    assert out2["ingested_epochs"] == [] and "hits" in out2
    out3 = cli(
        "dedup-index", "--log-dir", log, "--table-root", table,
        "--num-partitions", "4", "--compact",
    )
    assert out3["base_epoch"] == 1


def test_inverted_index_compacts_list_payloads(ray_session, tmp_path):
    """Multi-column list payloads survive the base fold byte-for-byte."""
    log, eng = _three_epoch_engine(tmp_path)
    idx = InvertedIndex(eng)
    idx.update()
    before = _stats(idx)
    assert idx.compact() == 3
    assert _stats(idx) == before
    _write_events(
        f"{log}/events-000003.parquet", [(9, "U", "e", [2, 2]), (10, "D", "d", None)]
    )
    eng.replay()
    idx.update()
    fresh = InvertedIndex(eng, name="fresh2")
    fresh.update()
    assert _stats(idx) == _stats(fresh)


def _add_epoch4(log, eng):
    _write_events(
        f"{log}/events-000003.parquet", [(9, "I", "f", [4, 4]), (10, "U", "c", [8])]
    )
    eng.replay()


def test_gc_pins_base_epoch_manifest(ray_session, tmp_path):
    """gc_epochs must not delete the manifest a compacted base's
    identity check depends on (ADVICE r4, high): base at epoch 3,
    epoch 4 committed, keep_last=1 — epoch 3's manifest survives via
    the index pin and the base stays valid."""
    from tartare_ray.state.manifest import gc_epochs

    log, eng = _three_epoch_engine(tmp_path)
    idx = TokenDedupIndex(eng)
    idx.update()
    idx.compact()  # base at epoch 3
    _add_epoch4(log, eng)
    idx.update()
    before = _fps(idx)
    assert set(before) == {"a", "c", "d", "e", "f"}

    gc_epochs(eng.table_root, keep_last=1)
    assert os.path.exists(
        os.path.join(eng.table_root, "_manifests", "e000003.json")
    ), "index base epoch manifest must be GC-pinned"
    assert _fps(idx) == before
    # compact after GC folds base+delta without losing pre-base state
    assert idx.compact() == 4
    assert _fps(idx) == before


def test_gcd_base_manifest_is_not_a_rollback(ray_session, tmp_path):
    """Generation fallback (ADVICE r4, high): even when the base
    epoch's manifest is GONE (legacy GC before the pin existed), an
    unchanged rollback generation means the base is still valid —
    previously it was silently invalidated and the next compact()
    permanently dropped all pre-base state (5 live docs -> 1)."""
    log, eng = _three_epoch_engine(tmp_path)
    idx = TokenDedupIndex(eng)
    idx.update()
    idx.compact()  # base at epoch 3
    _add_epoch4(log, eng)
    idx.update()
    before = _fps(idx)
    assert len(before) == 5

    os.remove(os.path.join(eng.table_root, "_manifests", "e000003.json"))
    assert _fps(idx) == before, "missing manifest + same generation => GC, not rollback"
    assert idx.compact() == 4
    assert _fps(idx) == before
    assert idx.update() == []
    assert _fps(idx) == before


def test_gcd_delta_manifests_do_not_invalidate_deltas(ray_session, tmp_path):
    """Acked per-epoch deltas below the cursor are valid regardless of
    manifest survival: gc_epochs(keep_last=1) drops old manifests but
    neither reads nor update() hygiene may drop the delta dirs."""
    from tartare_ray.state.manifest import gc_epochs, list_committed_epochs

    log, eng = _three_epoch_engine(tmp_path)
    idx = TokenDedupIndex(eng)
    idx.update()  # deltas e1..e3, no base
    _add_epoch4(log, eng)
    idx.update()
    before = _fps(idx)
    assert len(before) == 5

    gc_epochs(eng.table_root, keep_last=1)
    assert list_committed_epochs(eng.table_root) == [4]
    assert _fps(idx) == before
    assert idx.update() == []
    assert _dirs(idx, "fp-e") == [f"fp-e{e:06d}" for e in (1, 2, 3, 4)]
    assert _fps(idx) == before
    assert idx.compact() == 4
    assert _fps(idx) == before


def test_rollback_past_compaction_read_before_update_raises(ray_session, tmp_path):
    """ADVICE r4 (medium): between rollback-past-compaction and the
    next update() the index has no serveable state (base invalid, its
    covered deltas folded away) — reads must raise, not silently
    serve a truncated index."""
    _, eng = _three_epoch_engine(tmp_path)
    idx = TokenDedupIndex(eng)
    idx.update()
    idx.compact()  # base at epoch 3
    eng.rollback(1)
    with pytest.raises(RuntimeError, match="run update"):
        _fps(idx)
    idx.update()  # snapshot rebuild at the rollback target
    fresh = TokenDedupIndex(eng, name="fresh-rb")
    fresh.update()
    assert _fps(idx) == _fps(fresh)


def test_delta_filename_hash_covers_offsets(ray_session, tmp_path):
    """ADVICE r4 (low): ["ab","c"] vs ["a","bc"] share identical
    doc_id DATA bytes; with identical lsn bytes the two blocks must
    still write distinct delta files (offsets are hashed too)."""
    import ray

    _, eng = _three_epoch_engine(tmp_path)
    idx = TokenDedupIndex(eng)

    def block(ids):
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.string()),
                "fp": pa.array([1, 2], pa.int64()),
                "op": pa.array(["U", "U"], pa.string()),
                "lsn": pa.array([7, 7], pa.int64()),
            }
        )

    ds = ray.data.from_arrow([block(["ab", "c"]), block(["a", "bc"])])
    tmp = str(tmp_path / "hashdir")
    n = idx._write_rows_dir(tmp, ds, lambda b: b)
    assert n == 4
    files = [f for f in os.listdir(tmp) if f.endswith(".parquet")]
    assert len(files) == 2, f"filename collision lost a block: {files}"
    total = sum(pq.read_table(os.path.join(tmp, f)).num_rows for f in files)
    assert total == 4


def test_crashed_rebuild_keeps_tripwire_armed(ray_session, tmp_path):
    """A crash during the rollback-past-compaction snapshot rebuild
    must leave the invalid base dirs on disk so reads keep RAISING
    (no silent truncated serving) — update() deletes stale bases only
    AFTER the rebuilt base's rename lands."""
    _, eng = _three_epoch_engine(tmp_path)
    idx = TokenDedupIndex(eng)
    idx.update()
    idx.compact()  # base at epoch 3
    eng.rollback(1)

    real = TokenDedupIndex._write_rows_dir

    def crash(self, tmp, ds, rows_fn):
        raise RuntimeError("injected rebuild crash")

    TokenDedupIndex._write_rows_dir = crash
    try:
        with pytest.raises(RuntimeError, match="injected"):
            idx.update()
    finally:
        TokenDedupIndex._write_rows_dir = real
    # invalid base still on disk -> reads raise, never serve empty
    with pytest.raises(RuntimeError, match="run update"):
        idx.live_fingerprints()
    # recovery: a plain re-run rebuilds and serves the rollback state
    idx.update()
    fresh = TokenDedupIndex(eng, name="fresh-crash")
    fresh.update()
    assert _fps(idx) == _fps(fresh)


def _rows(idx) -> list[dict]:
    t = pa.concat_tables(idx._live_rows().iter_batches(batch_format="pyarrow"))
    return sorted(t.to_pylist(), key=lambda r: r["doc_id"])


@pytest.mark.parametrize("index_cls", [TokenDedupIndex, InvertedIndex, MinHashIndex])
def test_index_created_after_gc_serves_whole_snapshot(ray_session, tmp_path, index_cls):
    """An index first built on an aged table (gc_epochs dropped epochs
    it never consumed) must serve the whole snapshot, not only the docs
    the retained epochs touched: it rebuilds from the snapshot at the
    oldest retained epoch, then consumes the feed from there."""
    from tartare_ray.state.manifest import gc_epochs, list_committed_epochs

    log = str(tmp_path / "log")
    for i, rows in enumerate(
        [
            [(1, "I", "a1", [1, 2, 3, 4]), (2, "I", "a2", [5, 6, 7, 8])],
            [(3, "I", "b1", [1, 2, 3, 4])],
            [(4, "I", "c1", [9, 9, 8, 7])],
        ]
    ):
        _write_events(f"{log}/events-{i:06d}.parquet", rows)
    eng = CdcEngine(
        log, str(tmp_path / "tbl"), EngineConfig(num_partitions=2, epoch_max_files=1)
    )
    eng.replay()
    full = index_cls(eng, name="full")
    assert full.update() == [1, 2, 3]
    want = _rows(full)
    assert [r["doc_id"] for r in want] == ["a1", "a2", "b1", "c1"]

    gc_epochs(eng.table_root, keep_last=1)
    assert list_committed_epochs(eng.table_root) == [3]
    aged = index_cls(eng, name="aged")
    assert aged.update() == [3]
    assert _rows(aged) == want

    _write_events(f"{log}/events-000003.parquet", [(5, "D", "a1", None)])
    eng.replay()
    assert aged.update() == [4]
    assert [r["doc_id"] for r in _rows(aged)] == ["a2", "b1", "c1"]
