"""Ratchet on hand-rolled ``groupby(...).map_groups`` folds: a fold
that only tags a hash column in order to group on it goes through
``stages/kernels.fold_by_part``.  The ``map_groups`` calls left outside
it are listed here per file; a new one fails this test until it is
migrated or listed with its reason, and a migration lowers its count."""

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


def _map_groups_calls() -> Counter:
    found: Counter = Counter()
    files = [*REPO.glob("tartare_ray/**/*.py"), *REPO.glob("tools/*.py")]
    for p in files:
        rel = p.relative_to(REPO).as_posix()
        if rel == "tartare_ray/stages/kernels.py":
            continue
        for node in ast.walk(ast.parse(p.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_groups"
            ):
                found[rel] += 1
    return found


def test_map_groups_outside_fold_by_part_are_listed():
    assert dict(_map_groups_calls()) == ALLOWED
