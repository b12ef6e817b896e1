"""Change-feed consumer groups: persisted cursors, at-least-once
redelivery, and the GC retention pin for lagging consumers."""

from __future__ import annotations

import json
import os

import pytest

from tartare_ray.gen import GenConfig, generate_log
from tartare_ray.oracle import replay_oracle
from tartare_ray.pipelines.cdc import CdcEngine, EngineConfig
from tartare_ray.state.manifest import gc_epochs, list_committed_epochs


def _make(tmp_path, n_events=6000, n_docs=400):
    res = generate_log(
        str(tmp_path / "log"),
        GenConfig(n_events=n_events, n_docs=n_docs, events_per_file=2000),
    )
    eng = CdcEngine(
        os.path.dirname(res.files[0]),
        str(tmp_path / "t"),
        EngineConfig(num_partitions=4, write_mode="delta", epoch_max_files=1),
    )
    eng.replay()
    return res, eng


def _apply_feed(replica: dict, feed) -> None:
    """Reference downstream apply: latest-per-key upsert of one
    epoch's feed into a dict replica (tombstones delete)."""
    for row in feed.take_all():
        if row["op"] == "D":
            replica.pop(row["doc_id"], None)
        else:
            replica[row["doc_id"]] = row.get("tokens")


def test_consume_ack_reconstructs_table(ray_session, tmp_path):
    res, eng = _make(tmp_path)
    assert len(list_committed_epochs(eng.table_root)) >= 2
    assert eng.subscribe("replica-a") == 0
    replica: dict = {}
    seen = []
    for e, feed in eng.consume("replica-a"):
        _apply_feed(replica, feed)
        eng.ack_changes("replica-a", e)
        seen.append(e)
    assert seen == list_committed_epochs(eng.table_root)
    assert eng.consumers() == {"replica-a": seen[-1]}
    # the replica equals the oracle's final table: same live doc set,
    # token-array equality per doc_id (the north-star row invariant)
    want = replay_oracle(res.files)
    want_map = dict(zip(want["doc_id"].to_pylist(), want["tokens"].to_pylist()))
    assert replica == want_map
    # fully acked: nothing further to consume
    assert list(eng.consume("replica-a")) == []


def test_unacked_epoch_is_redelivered(ray_session, tmp_path):
    _, eng = _make(tmp_path, n_events=4000, n_docs=300)
    eng.subscribe("crashy")
    gen = eng.consume("crashy")
    e1, _feed = next(gen)
    gen.close()  # crash before ack
    e1_again, _feed = next(eng.consume("crashy"))
    assert e1_again == e1
    eng.ack_changes("crashy", e1)
    nxt, _ = next(eng.consume("crashy"))
    assert nxt == e1 + 1
    # duplicate/late ack is a monotone no-op
    assert eng.ack_changes("crashy", e1) == e1
    assert eng.consumers()["crashy"] == e1


def test_gc_pins_unacked_epochs(ray_session, tmp_path):
    res, eng = _make(tmp_path)
    epochs = list_committed_epochs(eng.table_root)
    assert len(epochs) >= 3
    eng.subscribe("laggard")  # cursor 0: every epoch pinned
    assert gc_epochs(eng.table_root, keep_last=1) == 0
    assert list_committed_epochs(eng.table_root) == epochs
    # the lagging consumer can still drain the full history
    replica: dict = {}
    for e, feed in eng.consume("laggard"):
        _apply_feed(replica, feed)
        eng.ack_changes("laggard", e)
    want = replay_oracle(res.files)
    assert set(replica) == set(want["doc_id"].to_pylist())
    # caught up: GC may now reclaim (only head + acked-parent retained)
    gc_epochs(eng.table_root, keep_last=1)
    assert list_committed_epochs(eng.table_root) == [epochs[-1]]


def test_ack_and_subscribe_validation(ray_session, tmp_path):
    _, eng = _make(tmp_path, n_events=2000, n_docs=200)
    with pytest.raises(LookupError):
        eng.ack_changes("ghost", 1)
    with pytest.raises(LookupError):
        next(eng.consume("ghost"))
    eng.subscribe("c1")
    head = list_committed_epochs(eng.table_root)[-1]
    with pytest.raises(ValueError):
        eng.ack_changes("c1", head + 1)
    with pytest.raises(ValueError):
        from tartare_ray.state.consumers import _ckey

        _ckey("../evil")
    # idempotent subscribe never regresses a moved cursor
    eng.ack_changes("c1", head)
    assert eng.subscribe("c1") == head


def test_drop_consumer_releases_pin(ray_session, tmp_path):
    _, eng = _make(tmp_path)
    from tartare_ray.state.consumers import drop_consumer

    eng.subscribe("temp")
    epochs = list_committed_epochs(eng.table_root)
    assert gc_epochs(eng.table_root, keep_last=1) == 0
    assert drop_consumer(eng.table_root, "temp") is True
    gc_epochs(eng.table_root, keep_last=1)
    assert list_committed_epochs(eng.table_root) == [epochs[-1]]


def test_cli_ack_refuses_uncommitted_epoch(tmp_path, capsys):
    """The ``consumers`` verb acks through the same committed-epoch
    check as ``ack_changes`` and prints the head beside the cursors."""
    from tartare_ray.__main__ import main

    cli = ["consumers", "--table-root", str(tmp_path / "t")]
    assert main(cli + ["--subscribe", "c1"]) == 0
    with pytest.raises(ValueError):
        main(cli + ["--ack", "c1", "--epoch", "999"])
    capsys.readouterr()
    assert main(cli) == 0
    assert json.loads(capsys.readouterr().out) == {"head": 0, "consumers": {"c1": 0}}
