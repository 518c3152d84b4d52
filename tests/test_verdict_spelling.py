"""Only ``report.py`` spells the verdicts "pass" and "fail": every check
elsewhere in the package returns None or its first witness, and the report
turns that into a verdict. Docstrings may name the verdicts."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coprimelab"


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def test_only_the_report_spells_pass_and_fail():
    spelled = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "report.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = set(map(id, _docstrings(tree)))
        spelled += [f"{path.name}:{node.lineno} {node.value!r}" for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and node.value in ("pass", "fail")
                    and id(node) not in docstrings]
    assert spelled == []
