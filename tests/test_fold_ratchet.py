"""Ratchet on hand-rolled ``groupby(...).map_groups`` folds: a fold
that only tags a hash column in order to group on it goes through
``stages/kernels.fold_by_part``.  The ``map_groups`` calls left outside
it are listed here per file; a new one fails this test until it is
migrated or listed with its reason, and a migration lowers its count.

``fold_by_part`` itself is a hash shuffle, so its call sites are
listed too.  A change-feed consumer needs none: a feed holds at most
one row per doc_id, so the views fold it map-only and
``pipelines/views.py`` stays at 0.

A map over an O(partitions) list of descriptors runs as plain Ray
tasks (``stages/kernels.map_items``), not as a ``ray.data.from_items``
execution, so the ``from_items`` calls under ``tartare_ray/`` are
listed too: only those that return a lazy ``Dataset`` stay."""

from __future__ import annotations

import ast
import pathlib
from collections import Counter

REPO = pathlib.Path(__file__).resolve().parent.parent

ALLOWED = {
    # natural keys (event_type ×2, event_type quartiles, lang ×2, q_id ×3,
    # source, o_orderpriority) and corpus_shuffle's range buckets, whose
    # rank offsets depend on the bucket
    "tartare_ray/pipelines/queries.py": 11,
    # repartition_table: needs doc_hash beside the new part
    "tartare_ray/pipelines/cdc.py": 1,
    # range-bucketed rank fold whose offsets depend on the bucket
    "tartare_ray/stages/graph.py": 1,
    # finalize per sketch key
    "tartare_ray/stages/sketch.py": 1,
}

FOLD_SITES = {
    # queries over raw logs and corpora, whose keys (user_id ×9, doc_id ×3,
    # o_custkey, chunk, fp, LSH bucket, cluster, scrub group) have rows in
    # many input blocks; and snapshot_diff's doc_id over a feed of many
    # epochs (changes_between), which holds one row per doc per epoch
    "tartare_ray/pipelines/queries.py": 19,
    # a doc's rows across the index's epoch files (_live_rows), and the
    # docs of one fingerprint across blocks (losers, groups)
    "tartare_ray/pipelines/dedup_index.py": 3,
    # a term's postings and a doc's partial scores across blocks
    "tartare_ray/pipelines/inverted_index.py": 2,
    # the members of one LSH bucket across blocks
    "tartare_ray/stages/dedup.py": 1,
    # a doc's events across log files
    "tools/multi_table_campaign.py": 1,
}

FROM_ITEMS_SITES = {
    # snapshot_dataset's per-partition chain merge reader, and
    # changes_dataset's fold of the split files of an epoch written by
    # the earlier hash exchange: each is the lazy Dataset its caller
    # streams
    "tartare_ray/pipelines/cdc.py": 2,
}


def _calls(name: str) -> Counter:
    found: Counter = Counter()
    files = [*REPO.glob("tartare_ray/**/*.py"), *REPO.glob("tools/*.py")]
    for p in files:
        rel = p.relative_to(REPO).as_posix()
        if rel == "tartare_ray/stages/kernels.py":
            continue
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "attr", None),
                getattr(node.func, "id", None),
            ):
                found[rel] += 1
    return found


def test_map_groups_outside_fold_by_part_are_listed():
    assert dict(_calls("map_groups")) == ALLOWED


def test_fold_by_part_sites_are_listed():
    sites = _calls("fold_by_part")
    assert sites["tartare_ray/pipelines/views.py"] == 0
    assert dict(sites) == FOLD_SITES


def test_from_items_sites_are_listed():
    sites = {f: n for f, n in _calls("from_items").items() if f.startswith("tartare_ray/")}
    assert sites == FROM_ITEMS_SITES
