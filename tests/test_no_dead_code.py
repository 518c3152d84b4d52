"""Every class, function, method and stored attribute of the package is used
by the package itself.

A re-export in ``__init__.py`` is not a use, so that file is not read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coprimelab"
# ``entrypoint`` is named by pyproject.toml as the console script, not by the
# package; ``quotient_group`` is the tests' reference for the in-G coset
# checks, and perfbench/tracer.py spans it (tests/test_bench_contract.py
# pins the names it spans)
EXEMPT = {"entrypoint", "quotient_group"}
# ``FiniteGroup.elements`` is the tuple view of the element store for readers
# outside the package: the benchmark's output checks index it
EXEMPT_ATTRIBUTES = {"elements"}


def _trees():
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_every_function_is_referenced_in_src():
    defined, referenced = {}, set()
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.asname or node.name)
    dead = sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in referenced and name not in EXEMPT
                  and not (name.startswith("__") and name.endswith("__")))
    assert not dead, "defined but never referenced in src/: " + ", ".join(dead)


def test_every_stored_attribute_is_read_in_src():
    stored, loaded = {}, set()
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.attr, f"{name}:{node.lineno}")
                else:
                    loaded.add(node.attr)
    unread = sorted(f"{where} {attr}" for attr, where in stored.items()
                    if attr not in loaded and attr not in EXEMPT_ATTRIBUTES)
    assert not unread, "stored but never read in src/: " + ", ".join(unread)
