"""The traced benchmark run wraps program functions by name; keep them there.

``perfbench/tracer.py`` lists in SPANNED the functions it wraps as
``coprimelab.<module>.<function>`` and counts ``FiniteGroup.mul`` calls by
replacing the class attribute. A rename or a move makes the traced run die
with AttributeError, so this file fails first.
"""

import ast
import importlib
import inspect
from pathlib import Path

from coprimelab.groups import FiniteGroup

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spanned() -> dict:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no SPANNED")


def test_every_spanned_function_is_a_module_level_function():
    spanned = _spanned()
    assert spanned
    for module, names in spanned.items():
        mod = importlib.import_module(f"coprimelab.{module}")
        for name in names:
            assert inspect.isfunction(getattr(mod, name, None)), f"coprimelab.{module}.{name}"


def test_finite_group_mul_is_a_plain_method():
    assert inspect.isfunction(FiniteGroup.__dict__["mul"])
