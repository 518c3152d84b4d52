"""Every function and method of the package is used by the package itself.

A re-export in ``__init__.py`` is not a use, so that file is not read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coprimelab"
# named by pyproject.toml as the console script, not by the package
EXEMPT = {"entrypoint"}


def test_every_function_is_referenced_in_src():
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
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
