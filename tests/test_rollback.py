"""rollback_to: discard epochs, replay re-applies the log — the
bad-data incident workflow (fix log, roll back, replay)."""

from __future__ import annotations

import os

import pytest

from tartare_ray.gen import GenConfig, generate_log
from tartare_ray.oracle import replay_oracle
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
from tartare_ray.state.manifest import list_committed_epochs, rollback_to


def _assert_eq(snap, want):
    assert snap["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    for col in want.schema.names:
        assert snap[col].to_pylist() == want[col].to_pylist(), col


def _make(tmp_path, mode="delta"):
    res = generate_log(
        str(tmp_path / "log"),
        GenConfig(n_events=6000, n_docs=400, events_per_file=2000),
    )
    eng = CdcEngine(
        os.path.dirname(res.files[0]),
        str(tmp_path / "t"),
        EngineConfig(num_partitions=4, write_mode=mode, epoch_max_files=1),
    )
    eng.replay()
    return res, eng


@pytest.mark.parametrize("mode", ["delta", "cow"])
def test_rollback_then_replay_reconverges(ray_session, tmp_path, mode):
    res, eng = _make(tmp_path, mode)
    assert list_committed_epochs(eng.table_root) == [1, 2, 3]
    want_e1 = eng.snapshot_table(epoch=1)
    # both modes keep each epoch's winners files (cow: the feed files)
    data = os.listdir(os.path.join(eng.table_root, "data"))
    assert any(f.startswith("delta-") and "-e000003" in f for f in data)

    m = eng.rollback(1)
    assert m.epoch == 1
    assert list_committed_epochs(eng.table_root) == [1]
    _assert_eq(eng.snapshot_table(), want_e1)
    # dropped epochs' exclusive data and winners files are gone from disk
    data = os.listdir(os.path.join(eng.table_root, "data"))
    assert not any("-e000002" in f or "-e000003" in f for f in data)

    # the log was untouched: replay re-applies epochs 2 and 3
    m2 = eng.replay()
    assert m2.epoch == 3
    _assert_eq(eng.snapshot_table(), replay_oracle(res.files))


def test_rollback_clamps_consumers_for_redelivery(ray_session, tmp_path):
    res, eng = _make(tmp_path)
    eng.subscribe("replica")
    for e, _feed in eng.consume("replica"):
        eng.ack_changes("replica", e)
    assert eng.consumers() == {"replica": 3}

    r = rollback_to(eng.table_root, 1)
    assert r["consumers_clamped"] == 1
    assert eng.consumers() == {"replica": 1}
    eng.replay()
    # unacked pass: both re-applied epochs are delivered again
    redelivered = [e for e, _ in eng.consume("replica")]
    assert redelivered == [2, 3]
    # cursor untouched without acks -> a fresh pass re-delivers; ack drains
    drained = []
    for e, _feed in eng.consume("replica"):
        eng.ack_changes("replica", e)
        drained.append(e)
    assert drained == [2, 3]
    assert eng.consumers() == {"replica": 3}


@pytest.mark.slow
def test_rollback_drops_view_checkpoints(ray_session, tmp_path):
    from tartare_ray.pipelines.views import IncrementalAggView

    res, eng = _make(tmp_path)
    view = IncrementalAggView(eng, "by_source", "source", "n_tok")
    view.update_to()  # checkpoints through epoch 3
    vdir = os.path.join(eng.table_root, "_views", "by_source")
    assert any(n > "e000001" for n in os.listdir(vdir))

    r = rollback_to(eng.table_root, 1)
    assert r["view_checkpoints_dropped"] >= 1
    assert all(int(n[1:7]) <= 1 for n in os.listdir(vdir) if n.endswith(".json"))
    # after replay the view rebuilds and matches the final table
    eng.replay()
    state = view.update_to()  # {group: [count, sum]}
    want = replay_oracle(res.files)
    import collections

    exp_sum: dict = collections.defaultdict(float)
    exp_cnt: dict = collections.defaultdict(int)
    for s, n in zip(want["source"].to_pylist(), want["n_tok"].to_pylist()):
        exp_sum[str(s)] += n
        exp_cnt[str(s)] += 1
    assert {k: int(v[0]) for k, v in state.items()} == dict(exp_cnt)
    assert {k: round(v[1], 6) for k, v in state.items()} == {
        k: round(v, 6) for k, v in exp_sum.items()
    }


def test_rollback_validation(ray_session, tmp_path):
    _, eng = _make(tmp_path)
    with pytest.raises(LookupError):
        eng.rollback(99)
    # rollback to HEAD is a harmless no-op
    r = rollback_to(eng.table_root, 3)
    assert r["epochs_dropped"] == 0
    assert list_committed_epochs(eng.table_root) == [1, 2, 3]


def test_rollback_crash_between_swap_and_cleanup(ray_session, tmp_path):
    """Crash-safety: CURRENT swaps first, so a rollback that dies
    before cleanup leaves a correctly rolled-back table with stale
    future-epoch artifacts; re-running the same rollback is idempotent
    and completes the cleanup."""
    res, eng = _make(tmp_path)
    # simulate the crash state by hand: CURRENT points at the target,
    # but the dropped epochs' manifests/files still exist
    cur_path = os.path.join(eng.table_root, "_manifests", "CURRENT")
    with open(cur_path, "w") as f:
        f.write("1")
    assert list_committed_epochs(eng.table_root) == [1, 2, 3]  # stale
    want_e1 = eng.snapshot_table()  # reads via CURRENT -> already rolled back

    r = rollback_to(eng.table_root, 1)  # completes the cleanup
    assert r["epochs_dropped"] == 2
    assert list_committed_epochs(eng.table_root) == [1]
    _assert_eq(eng.snapshot_table(), want_e1)

    # and the table reconverges on replay
    m = eng.replay()
    assert m.epoch == 3
    _assert_eq(eng.snapshot_table(), replay_oracle(res.files))
