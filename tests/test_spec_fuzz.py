"""Malformed and oversized instance files through ``coprimelab info``.

Every generated file is wrong in one known place. ``info`` must exit 2 with an
error line that starts with the JSON path of that place (the file's own path
when the file holds no JSON object), print nothing to stdout, and never raise.
Oversized parameters are drawn where the order and store-budget estimators
refuse them, so no example builds a large group.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprimelab import corpus
from coprimelab.cli import main
from coprimelab.groups import DEFAULT_CAP, column_bytes, degree_bytes, element_bytes

# Small valid inputs; each example corrupts one of them in one place.
BASES = {
    "cyclic": {"name": "cyclic", "params": {"m": 6},
               "automorphism": {"recipe": "power", "k": 5}},
    "heisenberg": {"name": "heisenberg", "params": {"p": 3},
                   "automorphism": {"recipe": "gen_powers", "powers": [2, 1]}},
    "affine": {"name": "affine", "params": {"p": 2, "k": 2},
               "automorphism": {"recipe": "frobenius"}},
    "product": {"name": "direct_product",
                "params": {"factors": [{"name": "cyclic", "params": {"m": 3}},
                                       {"name": "cyclic", "params": {"m": 3}}]},
                "automorphism": {"recipe": "swap"}},
    "raw": {"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]],
            "automorphism": {"images": [[1], [2]]}},
}

# (base, path, kind the program expects there)
TYPED_FIELDS = [
    ("cyclic", ("name",), str), ("cyclic", ("params",), dict), ("cyclic", ("params", "m"), int),
    ("cyclic", ("automorphism",), dict), ("cyclic", ("automorphism", "k"), int),
    ("heisenberg", ("automorphism", "powers"), list),
    ("heisenberg", ("automorphism", "powers", 0), int), ("affine", ("params", "k"), int),
    ("product", ("params", "factors"), list), ("product", ("params", "factors", 1), dict),
    ("product", ("params", "factors", 0, "params", "m"), int),
    ("raw", ("degree",), int), ("raw", ("generators",), list),
    ("raw", ("automorphism", "images"), list),
]

REQUIRED_FIELDS = [("cyclic", ("name",)), ("cyclic", ("params", "m")),
                   ("cyclic", ("automorphism", "k")), ("affine", ("params", "p")),
                   ("product", ("params", "factors")), ("raw", ("automorphism", "images"))]

JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-10 ** 6, 10 ** 6),
                        st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
                        st.lists(st.integers(-3, 3), max_size=3),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def _path(keys) -> str:
    out = ""
    for k in keys:
        out += f"[{k}]" if isinstance(k, int) else f".{k}" if out else k
    return out


def _edit(base: str, keys, value=None, drop=False) -> dict:
    spec = copy.deepcopy(BASES[base])
    node = spec
    for k in keys[:-1]:
        node = node[k]
    if drop:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return spec


def _is_kind(value, kind) -> bool:
    return isinstance(value, kind) and not (kind is int and type(value) is bool)


@st.composite
def wrong_types(draw):
    base, keys, kind = draw(st.sampled_from(TYPED_FIELDS))
    value = draw(JSON_VALUES.filter(lambda v: not _is_kind(v, kind)))
    return _edit(base, keys, value), _path(keys)


@st.composite
def missing_fields(draw):
    base, keys = draw(st.sampled_from(REQUIRED_FIELDS))
    return _edit(base, keys, drop=True), _path(keys)


RECIPES = {"identity", "power", "gen_powers", "swap", "frobenius"}


def _not_odd_prime(p: int) -> bool:
    return p == 2 or not corpus.is_prime(p)


SMALL = st.integers(-10 ** 6, 10 ** 6)


def _cases(base, keys, values, where):
    return values.map(lambda v: (_edit(base, keys, v), where))


# Values of the right type that the program must refuse.
BAD_VALUES = {
    "cyclic_m": _cases("cyclic", ("params", "m"), SMALL.filter(lambda m: m < 1), "params"),
    "heisenberg_p": _cases("heisenberg", ("params", "p"), SMALL.filter(_not_odd_prime), "params"),
    "affine_k": _cases("affine", ("params", "k"), SMALL.filter(lambda k: not 1 <= k <= 64),
                       "params"),
    "zero_power": _cases("cyclic", ("automorphism", "k"), st.just(0), "automorphism.k"),
    "non_unit_power": _cases("cyclic", ("automorphism", "k"),
                             SMALL.filter(lambda k: k and math.gcd(k, 6) > 1), "automorphism"),
    "raw_degree": _cases("raw", ("degree",), SMALL.filter(lambda d: d < 0), "degree"),
    "raw_generator": _cases("raw", ("generators", 0), st.lists(SMALL, min_size=3, max_size=3)
                            .filter(lambda g: sorted(g) != [0, 1, 2]), "generators"),
    "image_count": _cases("raw", ("automorphism", "images"), st.lists(SMALL, max_size=2)
                          .map(lambda w: [w]), "automorphism.images"),
    "name": _cases("cyclic", ("name",), st.text(max_size=8).filter(
        lambda n: n not in corpus._NAMED and n != "direct_product"), "name"),
    "recipe": _cases("cyclic", ("automorphism", "recipe"),
                     st.text(max_size=8).filter(lambda r: r not in RECIPES), "automorphism.recipe"),
    "recipe_shape": _cases("cyclic", ("automorphism", "recipe"),
                           st.sampled_from(["swap", "frobenius"]), "automorphism.recipe"),
    "blocks": _cases("product", ("automorphism", "blocks"), st.lists(SMALL, max_size=3).filter(
        lambda b: len(b) != 2 or not set(b) <= {0, 1}), "automorphism.blocks"),
    "images": _cases("raw", ("automorphism", "images"),
                     st.sampled_from([[[1], [1]], [[2], [2]], [[1, 2], [1, 2]]]), "automorphism"),
}


def _over_the_estimates(name: str, *args) -> bool:
    """True when the program's order and store estimates for these valid
    parameters are over the default cap or the store budget (a named family
    is charged Cayley columns for two generators)."""
    _, _, _, order, degree, _ = corpus._NAMED[name]
    n = order(*args)
    return (n > DEFAULT_CAP
            or n * (element_bytes(degree(*args)) + column_bytes(2)) > corpus.STORE_BUDGET)


@st.composite
def _oversized_affine(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 101, 65537]))
    k = draw(st.integers(1, 64).filter(lambda k: _over_the_estimates("affine", p, k)))
    return _edit("affine", ("params",), {"p": p, "k": k}), "params"


@st.composite
def _oversized_product(draw):
    count = draw(st.integers(2, 40))
    m = draw(st.integers(2, 10 ** 6).filter(lambda m: m ** count > DEFAULT_CAP))
    return _edit("product", ("params", "factors"),
                 [{"name": "cyclic", "params": {"m": m}}] * count), "params"


# Sizes that the order and store-budget estimators refuse before anything is built.
OVERSIZED = {
    "big_cyclic": _cases("cyclic", ("params", "m"), st.integers(DEFAULT_CAP + 1, 10 ** 4000),
                         "params"),
    # from 59 up, p**3 is over the cap, if p is an odd prime at all
    "big_heisenberg": _cases("heisenberg", ("params", "p"), st.integers(59, 10 ** 30), "params"),
    "big_affine": _oversized_affine(),
    "big_product": _oversized_product(),
    # one element and the per-point structures of enumeration over the budget
    "big_raw_degree": _cases("raw", ("degree",), st.integers(
        corpus.STORE_BUDGET // 88, 10 ** 4000).filter(
        lambda d: element_bytes(d) + degree_bytes(d) > corpus.STORE_BUDGET), "degree"),
}

CASES = {"wrong_type": wrong_types(), "missing": missing_fields(), **BAD_VALUES, **OVERSIZED}


NOT_AN_OBJECT = st.one_of(
    st.text(max_size=12).filter(lambda t: not t.strip().startswith("{")),
    st.just("[" * 100_000),
    st.integers(4301, 6000).map(lambda n: '{"name": "cyclic", "params": {"m": %s}}' % ("9" * n)),
)


def _info(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["info", path])
    return code, out.getvalue(), err.getvalue(), path


@pytest.mark.parametrize("base", BASES)
def test_every_base_spec_is_valid(base):
    code, _, err, _ = _info(json.dumps(BASES[base]))
    assert code == 0, err


def _check_refused(spec, where):
    code, out, err, _ = _info(json.dumps(spec))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where}"), err


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_malformed_or_oversized_spec_exits_2_naming_its_path(case, data):
    _check_refused(*data.draw(CASES[case]))


# Inputs that once raised, exited 0 or named no path, and the two refusals of
# a named group's size: heisenberg(53) is within the cap and over the store
# budget, heisenberg(59) over the cap.
@pytest.mark.parametrize("spec, where", [
    (_edit("cyclic", ("name",), None), "name"),
    (_edit("cyclic", ("name",), ["cyclic"]), "name"),
    (_edit("cyclic", ("params", "m"), True), "params.m"),
    (_edit("heisenberg", ("params", "p"), 53), "params"),
    (_edit("heisenberg", ("params", "p"), 59), "params"),
    (_edit("cyclic", ("params", "m"), 0), "params"),
    (_edit("affine", ("params",), {"p": 2, "k": 20000}), "params"),
    (_edit("cyclic", ("automorphism", "k"), 2), "automorphism"),
    (_edit("raw", ("generators", 0), [0, 0, 1]), "generators"),
    (_edit("product", ("params", "factors"), [{"name": "cyclic", "params": {"m": 10 ** 9}}] * 500),
     "params"),
])
def test_known_bad_spec_exits_2_naming_its_path(spec, where):
    _check_refused(spec, where)


@settings(max_examples=30, deadline=None)
@given(NOT_AN_OBJECT)
def test_file_without_a_json_object_exits_2_naming_the_file(text):
    code, out, err, path = _info(text)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}"), err
