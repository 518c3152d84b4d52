"""The runtime depends on the standard library alone, and a process pays
only for the modules its command runs.

Every top-level import of ``src/coprimelab/*.py`` must be relative,
``__future__`` or a standard-library module. Importing the CLI must not load
the process pool, which only ``suite --jobs`` of 2 or more uses, nor
``dataclasses`` and the ``inspect`` module it pulls in.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "coprimelab"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_stdlib_only(path):
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                continue
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert top == "__future__" or top in sys.stdlib_module_names, \
                f"{path.name}:{node.lineno} imports {name}"


def test_cli_import_loads_no_pool_and_no_dataclasses():
    # compared with the modules loaded before the import, because ``site``
    # preloads some modules on some hosts
    code = ("import json, sys; before = set(sys.modules); import coprimelab.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    added = set(json.loads(out))
    assert "coprimelab.cli" in added
    unwanted = {"concurrent.futures.process", "multiprocessing", "dataclasses", "inspect"}
    assert not added & unwanted, sorted(added & unwanted)
