"""The one publish primitive (``state/storage.py``): ``publish`` lands a
file or directory whole, ``link_or_copy`` survives filesystems without
hardlinks, and ``gc_orphans`` sweeps the one temp suffix from every
directory the table writes."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from tartare_ray.gen import GenConfig, generate_log
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
from tartare_ray.state.storage import TMP_SUFFIX, publish


def test_publish_replaces_file_and_directory(tmp_path):
    f = str(tmp_path / "f.txt")
    for body in ("one", "two"):
        with publish(f) as tmp:
            with open(tmp, "w") as fh:
                fh.write(body)
    assert open(f).read() == "two"
    d = str(tmp_path / "d")
    os.makedirs(d + TMP_SUFFIX)  # a crashed writer's leftover
    open(os.path.join(d + TMP_SUFFIX, "stale"), "w").close()
    for name in ("a", "b"):
        with publish(d) as tmp:
            os.makedirs(tmp)
            open(os.path.join(tmp, name), "w").close()
    assert os.listdir(d) == ["b"]
    assert sorted(os.listdir(tmp_path)) == ["d", "f.txt"]


def test_next_epoch_sweeps_view_and_metrics_temp_files(ray_session, tmp_path):
    """A crash mid-write leaves a view checkpoint's and an epoch
    metrics record's temp file behind; the next ``run_epoch`` removes
    both, as it does for data and manifest temp files."""
    res = generate_log(str(tmp_path / "log"), GenConfig(n_events=2000, n_docs=200))
    root = str(tmp_path / "table")
    eng = CdcEngine(os.path.dirname(res.files[0]), root, EngineConfig(num_partitions=2))
    eng.replay()
    planted = [
        os.path.join(root, "_views", "v", "e000001.json" + TMP_SUFFIX),
        os.path.join(root, "_metrics", "e000002.json" + TMP_SUFFIX),
    ]
    for p in planted:
        os.makedirs(os.path.dirname(p), exist_ok=True)
        with open(p, "w") as f:
            f.write("{")
    eng.run_epoch()
    assert not [p for p in planted if os.path.exists(p)]


def test_publish_and_export_reuse_without_hardlinks(ray_session, tmp_path, monkeypatch):
    """With ``os.link`` failing (a filesystem without hardlinks),
    snapshot publication and an incremental export's shard reuse fall
    back to copies and still succeed."""
    from tartare_ray.pipelines.export import export_training_shards
    from tartare_ray.state.manifest import load_current
    from tartare_ray.state.publish import publish_snapshot

    log = str(tmp_path / "log")
    generate_log(log, GenConfig(n_events=3000, n_docs=300, events_per_file=1500))
    eng = CdcEngine(log, str(tmp_path / "tbl"), EngineConfig(num_partitions=4))
    eng.replay()
    out = str(tmp_path / "out")
    first = export_training_shards(eng, out, seq_len=64, eos=0)
    assert first["packed_shards"] == 4

    def no_link(src, dst, *a, **k):
        raise OSError(95, "hardlinks not supported")

    monkeypatch.setattr(os, "link", no_link)

    dest = str(tmp_path / "dest")
    m = publish_snapshot(eng.table_root, dest)
    assert load_current(dest).epoch == m.epoch
    for rel in m.referenced_files():
        a, b = os.path.join(eng.table_root, rel), os.path.join(dest, rel)
        assert not os.path.samestat(os.stat(a), os.stat(b))
        assert pq.read_table(a).equals(pq.read_table(b))

    # one new event touches one partition; the other three shards reuse
    doc = eng.snapshot_table()["doc_id"][0].as_py()
    upd = pa.table(
        {
            "lsn": pa.array([m.watermark_lsn + 1], pa.int64()),
            "op": pa.array(["U"], pa.string()),
            "doc_id": pa.array([doc], pa.string()),
            "tokens": pa.array([[1, 2, 3]], pa.list_(pa.int32())),
            "n_tok": pa.array([3], pa.int32()),
            "source": pa.array(["src0"], pa.string()),
            "schema_version": pa.array([1], pa.int32()),
        }
    )
    pq.write_table(upd, os.path.join(log, "events-000099.parquet"))
    eng.replay()
    second = export_training_shards(eng, out, seq_len=64, eos=0)
    assert second["reused_shards"] == 3 and second["packed_shards"] == 1
    before = {s["p"]: s for s in first["shards"]}
    reused = [s for s in second["shards"] if s["chain_fp"] == before[s["p"]]["chain_fp"]]
    assert len(reused) == 3
    for s in reused:
        a, b = os.path.join(out, before[s["p"]]["file"]), os.path.join(out, s["file"])
        assert not os.path.samestat(os.stat(a), os.stat(b))
        assert open(a, "rb").read() == open(b, "rb").read()
