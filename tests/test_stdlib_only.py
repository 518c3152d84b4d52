"""The runtime depends on the standard library alone, and a process pays
only for the modules its command runs.

Every top-level import of ``src/coprimelab/*.py`` must be relative,
``__future__`` or a standard-library module. Importing the CLI must not load
the process pool, which only ``suite --jobs`` of 2 or more uses, nor
``dataclasses`` and the ``inspect`` module it pulls in; it loads every module
a command runs, so that no command compiles one inside its own time.
Importing the package loads no submodule, and building a group that needs
no finite field loads only the four modules that build it, none of the
analysis in ``automorphisms`` or ``structure``.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coprimelab

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


def _modules_added_by(code: str) -> set:
    """The modules that running ``code`` in a fresh interpreter adds to
    ``sys.modules``; compared with the modules loaded before it, because
    ``site`` preloads some modules on some hosts."""
    script = (f"import json, sys; before = set(sys.modules)\n{code}\n"
              "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_cli_import_loads_no_pool_and_no_dataclasses():
    added = _modules_added_by("import coprimelab.cli")
    assert "coprimelab.cli" in added
    unwanted = {"concurrent.futures.process", "multiprocessing", "dataclasses", "inspect"}
    assert not added & unwanted, sorted(added & unwanted)


def test_cli_import_loads_every_module_a_command_runs():
    added = _modules_added_by("import coprimelab.cli")
    modules = {f"coprimelab.{path.stem}" for path in SRC.glob("*.py")
               if path.stem not in ("__init__", "__main__")}
    assert modules <= added, sorted(modules - added)


def test_package_import_loads_no_submodule():
    added = _modules_added_by("import coprimelab")
    assert "coprimelab" in added
    assert not {name for name in added if name.startswith("coprimelab.")}


def test_building_a_group_loads_only_the_construction_modules():
    added = _modules_added_by(
        "from coprimelab import corpus\n"
        "corpus.load_instance({'name': 'heisenberg', 'params': {'p': 3},"
        " 'automorphism': {'recipe': 'power', 'k': -1}})")
    package = {name for name in added if name.startswith("coprimelab")}
    assert package == {"coprimelab", "coprimelab.corpus", "coprimelab.groups",
                       "coprimelab.errors", "coprimelab.numutil"}, sorted(package)


@pytest.mark.parametrize("name", coprimelab.__all__)
def test_package_names_are_their_home_module_objects(name):
    home = importlib.import_module(f"coprimelab.{coprimelab._HOME[name]}")
    value = getattr(coprimelab, name)
    assert value is getattr(home, name)
    if callable(value):  # a class or function, defined where the package says
        assert value.__module__ == home.__name__


def test_package_submodules_are_attributes():
    for name in coprimelab._SUBMODULES:
        assert getattr(coprimelab, name) is importlib.import_module(f"coprimelab.{name}")


def test_readme_library_example_runs():
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    _modules_added_by(example)
