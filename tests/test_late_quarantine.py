"""Out-of-order tail hardening (pipelines/cdc.py::_quarantine_late):
a producer file whose LSNs fall entirely at/below the committed
watermark — and that no retained epoch consumed — must be
dead-lettered to ``_quarantine/late/`` with metrics, never silently
skipped and never allowed to regress the watermark."""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
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


def _state(eng) -> dict[str, int]:
    t = pa.concat_tables(
        eng.snapshot_dataset(columns=["doc_id", "n_tok"]).iter_batches(
            batch_format="pyarrow"
        )
    )
    d = t.to_pydict()
    return dict(zip(d["doc_id"], d["n_tok"]))


def _engine(tmp_path):
    log = str(tmp_path / "log")
    _write_events(
        f"{log}/events-000000.parquet", [(10, "I", "a", [1]), (11, "I", "b", [2, 2])]
    )
    _write_events(f"{log}/events-000001.parquet", [(20, "U", "a", [3, 3, 3])])
    eng = CdcEngine(
        log, str(tmp_path / "tbl"), EngineConfig(num_partitions=2, epoch_max_files=1)
    )
    eng.replay()
    return log, eng


def test_wholly_late_file_is_quarantined(ray_session, tmp_path):
    log, eng = _engine(tmp_path)
    wm = eng.history()[0]["watermark_lsn"]
    assert wm == 20
    before = _state(eng)
    # violating producer: new file entirely at/below the watermark
    _write_events(f"{log}/events-000002.parquet", [(5, "I", "z", [9]), (15, "U", "a", [9])])
    eng.replay()
    # watermark monotone, state unchanged, file dead-lettered + counted
    assert eng.history()[0]["watermark_lsn"] == wm
    assert _state(eng) == before
    assert not os.path.exists(f"{log}/events-000002.parquet")
    qp = os.path.join(eng.table_root, "_quarantine", "late", "events-000002.parquet")
    assert os.path.exists(qp)
    assert eng.late_quarantine_stats() == {"files": 1, "rows": 2}
    meta = [
        json.loads(line)
        for line in open(
            os.path.join(eng.table_root, "_quarantine", "late", "_late.jsonl")
        )
    ]
    assert meta[0]["max_lsn"] == 15 and meta[0]["watermark"] == 20


def test_straddling_file_applies_only_above_watermark(ray_session, tmp_path):
    log, eng = _engine(tmp_path)
    before = _state(eng)
    # straddler: one row below the watermark (row-dropped by the
    # validate stage — redelivery semantics), one above (applied)
    _write_events(
        f"{log}/events-000002.parquet", [(15, "U", "a", [9]), (30, "I", "c", [4])]
    )
    eng.replay()
    assert eng.history()[0]["watermark_lsn"] == 30
    got = _state(eng)
    assert got == dict(before, c=1)  # the lsn-15 update never lands
    assert eng.late_quarantine_stats()["files"] == 0
    assert os.path.exists(f"{log}/events-000002.parquet")  # not quarantined


def test_consumed_files_are_never_quarantined(ray_session, tmp_path):
    log, eng = _engine(tmp_path)
    before = _state(eng)
    eng.replay()  # no-op re-run: all files ≤ watermark but all consumed
    assert eng.late_quarantine_stats()["files"] == 0
    assert sorted(os.listdir(log)) == [
        "events-000000.parquet",
        "events-000001.parquet",
    ]
    assert _state(eng) == before


def test_legacy_manifests_disable_detection(ray_session, tmp_path):
    """A retained manifest without source_files (older table) keeps the
    legacy skip-silently behavior — no false quarantine."""
    log, eng = _engine(tmp_path)
    mp = os.path.join(eng.table_root, "_manifests", "e000001.json")
    d = json.load(open(mp))
    d.pop("source_files", None)
    with open(mp, "w") as f:
        json.dump(d, f)
    eng._consumed_cache = None
    _write_events(f"{log}/events-000002.parquet", [(5, "I", "z", [9])])
    eng.replay()
    assert eng.late_quarantine_stats()["files"] == 0
    assert os.path.exists(f"{log}/events-000002.parquet")


def test_log_dir_respelling_never_false_quarantines(ray_session, tmp_path):
    """Manifests may record source files under a different log-dir
    spelling (relative vs absolute, symlink); consumed-file matching
    is by basename, so reopening the table with another spelling must
    not quarantine already-applied files."""
    log, eng = _engine(tmp_path)
    link = str(tmp_path / "loglink")
    os.symlink(log, link)
    eng2 = CdcEngine(
        link, eng.table_root, EngineConfig(num_partitions=2, epoch_max_files=1)
    )
    eng2.replay()  # no-op; must not move anything
    assert eng2.late_quarantine_stats()["files"] == 0
    assert sorted(os.listdir(log)) == [
        "events-000000.parquet",
        "events-000001.parquet",
    ]


def test_consumed_cache_refreshes_across_rollback_generation(ray_session, tmp_path):
    """Rollback + replay can recommit the same epoch numbers with
    different source files; the consumed-set cache keys on the
    rollback generation so the post-rollback plan sees fresh lineage
    (a newly named replacement file must not be treated as late)."""
    log, eng = _engine(tmp_path)
    before = _state(eng)
    # prime the cache
    eng.replay()
    # incident: roll back to epoch 1, replace file 1 under a NEW name
    eng.rollback(1)
    os.remove(f"{log}/events-000001.parquet")
    _write_events(f"{log}/events-000001b.parquet", [(20, "U", "a", [3, 3, 3])])
    eng.replay()
    assert eng.late_quarantine_stats()["files"] == 0
    assert os.path.exists(f"{log}/events-000001b.parquet")
    assert _state(eng) == before


def test_n_tok_miscount_is_quarantined(ray_session, tmp_path):
    """A live row whose stored n_tok disagrees with len(tokens) is
    malformed (downstream consumers trust the column): quarantined,
    not applied; tombstones (both null) pass."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    log = str(tmp_path / "log")
    os.makedirs(log)
    tbl = pa.table(
        {
            "lsn": pa.array([1, 2, 3, 4], pa.int64()),
            "op": pa.array(["I", "I", "I", "D"], pa.string()),
            "doc_id": pa.array(["a", "b", "c", "a"], pa.string()),
            "tokens": pa.array([[1, 2], [5], [7, 7], None], pa.list_(pa.int32())),
            "n_tok": pa.array([2, 99, None, None], pa.int32()),  # b miscounts, c null
            "source": pa.array(["s", "s", "s", None], pa.string()),
            "schema_version": pa.array([1] * 4, pa.int32()),
        },
        schema=CHANGE_SCHEMA,
    )
    pq.write_table(tbl, f"{log}/events-000000.parquet")
    eng = CdcEngine(
        log, str(tmp_path / "tbl"), EngineConfig(num_partitions=2, epoch_max_files=1)
    )
    eng.replay()
    # a survives as inserted then deleted -> gone; b and c quarantined
    assert eng.snapshot_dataset(columns=["doc_id"]).count() == 0
    assert eng._quarantine_count(1) == 2


def test_n_tok_miscount_mode_semantics_are_pinned(ray_session, tmp_path):
    """Specified divergence (stages/validate.py): when a key's NEWEST
    same-epoch event is malformed (n_tok miscount) but an older one is
    valid, normal mode applies the older event while late-
    materialization mode holds the previous state (phase 1 is
    envelope-only and cannot see tokens).  Neither applies the
    malformed value; both quarantine it.  In every mode the epoch's
    change feed is exactly what it applied."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    def build(tag, **cfg):
        log = str(tmp_path / f"log-{tag}")
        os.makedirs(log)
        tbl = pa.table(
            {
                "lsn": pa.array([1, 2], pa.int64()),
                "op": pa.array(["I", "U"], pa.string()),
                "doc_id": pa.array(["a", "a"], pa.string()),
                "tokens": pa.array([[1, 2], [9]], pa.list_(pa.int32())),
                "n_tok": pa.array([2, 99], pa.int32()),  # newest miscounts
                "source": pa.array(["s", "s"], pa.string()),
                "schema_version": pa.array([1, 1], pa.int32()),
            },
            schema=CHANGE_SCHEMA,
        )
        pq.write_table(tbl, f"{log}/events-000000.parquet")
        eng = CdcEngine(
            log, str(tmp_path / f"tbl-{tag}"), EngineConfig(num_partitions=2, **cfg)
        )
        eng.replay()
        return eng

    def feed(eng):
        rows = []
        for b in eng.changes_dataset(1).iter_batches(batch_format="pyarrow"):
            rows += b.select(["op", "lsn", "doc_id", "tokens", "n_tok"]).to_pylist()
        return rows

    applied_lsn1 = [{"op": "I", "lsn": 1, "doc_id": "a", "tokens": [1, 2], "n_tok": 2}]
    for tag in ("cow", "delta"):
        normal = build(tag, write_mode=tag)
        assert _state(normal) == {"a": 2}  # older valid event wins
        assert normal._quarantine_count(1) == 1
        assert feed(normal) == applied_lsn1, tag
    late = build(
        "late", write_mode="delta", late_materialization=True
    )
    assert late.snapshot_dataset(columns=["doc_id"]).count() == 0  # holds prior (none)
    assert late._quarantine_count(1) == 1
    assert feed(late) == []


def test_torn_late_jsonl_line_does_not_wedge_replay(ray_session, tmp_path):
    """A crashed writer can leave a truncated final _late.jsonl line;
    the commit path and stats reader must tolerate it."""
    log, eng = _engine(tmp_path)
    _write_events(f"{log}/events-000002.parquet", [(5, "I", "z", [9])])
    eng.replay()  # quarantines the late file, writes one jsonl line
    meta = os.path.join(eng.table_root, "_quarantine", "late", "_late.jsonl")
    with open(meta, "a") as f:
        f.write('{"file": "torn')  # no newline, invalid json
    _write_events(f"{log}/events-000003.parquet", [(30, "I", "c", [4])])
    eng.replay()  # must not raise
    assert eng.history()[0]["watermark_lsn"] == 30
    assert eng.late_quarantine_stats() == {"files": 1, "rows": 1}
