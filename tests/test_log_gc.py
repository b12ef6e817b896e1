"""gc_log (WAL archival): every log file at or below the committed
watermark is trimmed, and never one above it.  Every retained epoch
serves its change feed from its own winners files, so the feeds
survive the trim."""

from __future__ import annotations

import os

from tartare_ray.gen import GenConfig, generate_log
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
from tartare_ray.state.manifest import gc_epochs, gc_log, list_committed_epochs


def _feed(eng, epoch: int) -> list[dict]:
    import pyarrow as pa

    tbl = pa.concat_tables(
        eng.changes_dataset(epoch).iter_batches(batch_format="pyarrow", batch_size=None)
    )
    return sorted(tbl.to_pylist(), key=lambda r: r["doc_id"])


def _log_files(log_dir: str) -> list[str]:
    return sorted(n for n in os.listdir(log_dir) if n.endswith(".parquet"))


def _make(tmp_path, mode: str):
    res = generate_log(
        str(tmp_path / "log"),
        GenConfig(n_events=6000, n_docs=400, events_per_file=2000),
    )
    log = os.path.dirname(res.files[0])
    eng = CdcEngine(
        log,
        str(tmp_path / f"t-{mode}"),
        EngineConfig(num_partitions=4, write_mode=mode, epoch_max_files=1),
    )
    eng.replay()
    return res, log, eng


def test_log_gc_cow_epochs_free_the_whole_log(ray_session, tmp_path):
    """cow epochs keep their winners files, so with every epoch
    retained the whole applied log goes and each epoch's feed reads
    back unchanged from the stored files."""
    _, log, eng = _make(tmp_path, "cow")
    epochs = list_committed_epochs(eng.table_root)
    assert len(epochs) == 3
    feeds = {e: _feed(eng, e) for e in epochs}
    assert all(feeds.values())
    assert gc_log(eng.table_root, log) == 3
    assert _log_files(log) == []
    assert {e: _feed(eng, e) for e in epochs} == feeds
    assert eng.replay().epoch == epochs[-1]


def test_log_gc_trims_below_oldest_cow_epoch(ray_session, tmp_path):
    import shutil

    # stage 4 files; the live log starts with the first 3
    staging = str(tmp_path / "staging")
    res = generate_log(
        staging, GenConfig(n_events=8000, n_docs=400, events_per_file=2000)
    )
    log = str(tmp_path / "log")
    os.makedirs(log)
    for f in res.files[:3]:
        shutil.copy(f, log)
    eng = CdcEngine(
        log,
        str(tmp_path / "t"),
        EngineConfig(num_partitions=4, write_mode="cow", epoch_max_files=1),
    )
    eng.replay()
    snap_before = eng.snapshot_table().sort_by("doc_id")
    head_feed = _feed(eng, 3)
    gc_epochs(eng.table_root, keep_last=1)
    head = list_committed_epochs(eng.table_root)
    assert head == [3]
    # the dropped epochs' winners files went with them; the head's stay
    data = os.listdir(os.path.join(eng.table_root, "data"))
    assert not any(n.startswith("delta-") and "-e000003" not in n for n in data)
    assert any(n.startswith("delta-") and "-e000003" in n for n in data)
    # every log file is at or below the watermark
    removed = gc_log(eng.table_root, log)
    assert removed == 3
    # committed state is untouched and replay stays a no-op
    assert eng.snapshot_table().sort_by("doc_id").to_pylist() == snap_before.to_pylist()
    assert eng.replay().epoch == head[0]
    # the head epoch's change feed is served from its winners files
    assert head_feed and _feed(eng, head[0]) == head_feed
    # the tail keeps working: new events extend the trimmed log
    shutil.copy(res.files[3], log)
    m = eng.replay()
    assert m.epoch == head[0] + 1 and m.watermark_lsn == res.max_lsn


def test_log_gc_delta_epochs_free_the_whole_log(ray_session, tmp_path):
    """Delta-mode epochs serve their feed from delta files, so even
    with every epoch retained the log is archivable up to the
    watermark."""
    _, log, eng = _make(tmp_path, "delta")
    assert len(list_committed_epochs(eng.table_root)) == 3
    removed = gc_log(eng.table_root, log)
    assert removed == 3
    # feeds still served (delta-direct), replay still a no-op
    for e in list_committed_epochs(eng.table_root):
        assert eng.changes_dataset(e).count() > 0
    assert eng.replay() is not None


def test_log_gc_respects_consumer_pin_on_cow(ray_session, tmp_path):
    """A lagging consumer pins old cow epochs via gc_epochs; the pinned
    epochs' feeds need no log, so the consumer drains them all after
    the log is trimmed."""
    _, log, eng = _make(tmp_path, "cow")
    epochs = list_committed_epochs(eng.table_root)
    feeds = {e: _feed(eng, e) for e in epochs}
    eng.subscribe("laggard")
    gc_epochs(eng.table_root, keep_last=1)  # consumer floor keeps all
    assert list_committed_epochs(eng.table_root) == epochs
    assert gc_log(eng.table_root, log) == 3
    # consumer catches up from stored feeds -> epochs collapse
    drained = {}
    for e, _ds in eng.consume("laggard"):
        drained[e] = _feed(eng, e)
        eng.ack_changes("laggard", e)
    assert drained == feeds and all(drained.values())
    gc_epochs(eng.table_root, keep_last=1)
    assert list_committed_epochs(eng.table_root) == [epochs[-1]]


def test_cow_feed_of_pre_feed_file_manifest_raises(ray_session, tmp_path):
    """A cow epoch whose manifest predates stored feed files cannot
    serve its feed: changes_dataset names the epoch instead of
    answering with an empty (or log-derived) feed."""
    import json

    import pytest

    _, _log, eng = _make(tmp_path, "cow")
    path = os.path.join(eng.table_root, "_manifests", "e000002.json")
    with open(path) as f:
        d = json.load(f)
    for pl in d["partitions"]:
        del pl["feed_file"]
    with open(path, "w") as f:
        json.dump(d, f)
    with pytest.raises(LookupError, match="epoch 2 "):
        eng.changes_dataset(2)
    assert len(_feed(eng, 3)) > 0  # other epochs are unaffected
