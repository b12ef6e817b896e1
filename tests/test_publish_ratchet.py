"""Ratchet on hand-rolled atomic publishes: every file, directory and
JSON record the engine makes visible goes through ``state/storage.py``
(``publish``, ``link_or_copy``, ``Storage.write_atomic``), so how a
write becomes visible is one decision in one module.  The raw
``os.replace`` / ``os.rename`` / ``os.link`` calls left outside it are
listed here per file; a new one fails this test until it is routed
through the storage module or listed with its reason."""

from __future__ import annotations

import ast
import pathlib
import re
from collections import Counter

REPO = pathlib.Path(__file__).resolve().parent.parent
STORAGE = "tartare_ray/state/storage.py"

ALLOWED = {
    # quarantine_late moves a late producer file out of the log into
    # _quarantine/late: a move of an existing file, not a publish
    "tartare_ray/state/late.py": 1,
}


def _sources():
    for p in sorted(REPO.glob("tartare_ray/**/*.py")):
        yield p.relative_to(REPO).as_posix(), p.read_text()


def test_raw_renames_and_links_outside_storage_are_listed():
    found: Counter = Counter()
    for rel, src in _sources():
        if rel == STORAGE:
            continue
        for node in ast.walk(ast.parse(src)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("replace", "rename", "link")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
            ):
                found[rel] += 1
    assert dict(found) == ALLOWED


def test_temp_suffix_literal_lives_only_in_storage():
    """One temp suffix, spelled once: every other module imports
    ``TMP_SUFFIX`` (the old ``.tmp`` spelling is gone too)."""
    pat = re.compile(r"""["'][^"'\n]*\.(?:inprogress|tmp)["']""")
    hits = [(rel, m.group()) for rel, src in _sources() for m in pat.finditer(src)]
    assert hits == [(STORAGE, '".inprogress"')]
