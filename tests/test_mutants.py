"""Every mutant in ``tests/mutants.py`` still applies as written.

Running the mutants takes a pytest process each, so tier-1 checks only that
each one's old text occurs exactly once in its file and that each test it
names exists; ``python tests/mutants.py`` runs them.
"""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT, text_problems


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_mutant_applies_once(mutant):
    assert text_problems(mutant) == []


def _test_functions(path: Path) -> set:
    return {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_every_mutant_names_existing_tests():
    names = set()
    for mutant in MUTANTS:
        assert mutant["tests"], mutant["name"]
        for test_id in mutant["tests"]:
            path, _, name = test_id.partition("::")
            assert name in _test_functions(ROOT / path), test_id
        names.add(mutant["name"])
    assert len(names) == len(MUTANTS)
