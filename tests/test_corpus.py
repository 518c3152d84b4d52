import json
import random
import re
import time

import pytest

from coprimelab.corpus import (build_corpus_instance, build_glauberman_example,
                               default_corpus, instance_id, load_instance)
from coprimelab import corpus, gf
from coprimelab.errors import CapExceeded, NotBijective, ParseError, UnknownSpec
from coprimelab.groups import BYTES_MAX_DEGREE, element_bytes, generate_group
from coprimelab.structure import lower_central_series
from helpers import load_workloads, regular_heisenberg


WORKLOADS = load_workloads()


@pytest.mark.parametrize("spec, order", [
    ({"name": "cyclic", "params": {"m": 1}}, 1),
    ({"name": "cyclic", "params": {"m": 7}}, 7),
    ({"name": "dihedral", "params": {"m": 4}}, 8),
    ({"name": "dihedral", "params": {"m": 32}}, 64),
    ({"name": "symmetric", "params": {"m": 2}}, 2),
    ({"name": "symmetric", "params": {"m": 4}}, 24),
    ({"name": "heisenberg", "params": {"p": 3}}, 27),
    ({"name": "modular", "params": {"p": 3}}, 27),
    ({"name": "affine", "params": {"p": 2, "k": 3}}, 56),
    ({"name": "direct_product",
      "params": {"factors": [{"name": "cyclic", "params": {"m": 3}},
                             {"name": "cyclic", "params": {"m": 5}}]}}, 15),
])
def test_factory_orders(spec, order):
    G, phi = build_corpus_instance(spec)
    assert G.order == order
    assert phi is None


def test_heisenberg_shape():
    G, _ = build_corpus_instance({"name": "heisenberg", "params": {"p": 3}})
    assert G.exponent() == 3
    assert lower_central_series(G).nilpotency_class == 2


def _factors(spec: dict) -> list:
    """A group spec's direct factors, products flattened; [spec] for a named group."""
    if spec["name"] != "direct_product":
        return [spec]
    return [f for factor in spec["params"]["factors"] for f in _factors(factor)]


def _heisenberg_7_templates() -> dict:
    """The benchmark templates with a heisenberg(7) factor, instantiated."""
    heis7 = {"name": "heisenberg", "params": {"p": 7}}
    rng = random.Random(7)
    found = {}
    for name, template in WORKLOADS.TEMPLATES.items():
        if heis7 in _factors(template[1]):
            # a product with a heisenberg(7) factor would need a product oracle
            assert template[1] == heis7, name
            found[name] = WORKLOADS.instantiate(template, rng)
    return found


HEIS7_TEMPLATES = _heisenberg_7_templates()
REGULAR_CASES = {
    "heisenberg(7)": {"name": "heisenberg", "params": {"p": 7},
                      "automorphism": {"recipe": "gen_powers", "powers": [2, 3]}},
    "heisenberg(11)": {"name": "heisenberg", "params": {"p": 11},
                       "automorphism": {"recipe": "gen_powers", "powers": [2, 3]}},
    **HEIS7_TEMPLATES,
}


def test_the_heisenberg_7_templates_are_covered():
    assert sorted(HEIS7_TEMPLATES) == ["heis7_inv", "heis7_ord6"]


@pytest.mark.parametrize("name", REGULAR_CASES)
def test_heisenberg_on_p_squared_points_matches_the_regular_action(name):
    # the same generators of the same group: enumeration walks the same
    # Cayley graph, whatever points the group acts on
    spec = REGULAR_CASES[name]
    p = spec["params"]["p"]
    G, phi = build_corpus_instance(spec)
    R = regular_heisenberg(p)
    assert (G.degree, R.degree) == (p * p, p ** 3)
    assert G.order == R.order == p ** 3
    assert G._tree_parent == R._tree_parent and G._tree_gen == R._tree_gen
    assert G._right == R._right
    assert G._orders == R._orders and G._inverses == R._inverses
    assert list(map(G.word, range(G.order))) == list(map(R.word, range(R.order)))
    assert phi.table == corpus._spec_automorphism(R, spec, {}).table


@pytest.mark.parametrize("p", [3, 5])
def test_heisenberg_keeps_the_regular_action_up_to_the_bytes_degree(p):
    G = build_corpus_instance({"name": "heisenberg", "params": {"p": p}})[0]
    assert G.degree == p ** 3 <= BYTES_MAX_DEGREE
    assert G.generators == regular_heisenberg(p).generators


def test_every_corpus_and_benchmark_group_is_stored_as_bytes():
    specs = (default_corpus()["instances"] + [t[1] for t in WORKLOADS.TEMPLATES.values()]
             + [WORKLOADS.GLAUBERMAN_SPEC, WORKLOADS.MUL_SMALL_SPEC])
    for spec in specs:
        G = build_corpus_instance(spec)[0]
        assert G.degree <= BYTES_MAX_DEGREE and type(G._store[0]) is bytes, spec


def test_a_construction_of_the_wrong_order_or_degree_is_a_bug(monkeypatch):
    keys, requirement, valid, order, degree, build = corpus._NAMED["dihedral"]
    # the rotation alone: order m, not 2m
    monkeypatch.setitem(corpus._NAMED, "dihedral", (
        keys, requirement, valid, order, degree, lambda m: (m, build(m)[1][:1], {})))
    with pytest.raises(AssertionError, match="^params: construction has order 5, not 10"):
        build_corpus_instance({"name": "dihedral", "params": {"m": 5}})
    monkeypatch.setitem(corpus._NAMED, "dihedral", (
        keys, requirement, valid, order, lambda m: m + 1, build))
    with pytest.raises(AssertionError, match="^params: construction has degree 5, not 6"):
        build_corpus_instance({"name": "dihedral", "params": {"m": 5}})


def test_unknown_spec():
    with pytest.raises(UnknownSpec):
        build_corpus_instance({"name": "monster", "params": {}})
    with pytest.raises(UnknownSpec):
        build_corpus_instance({"name": "symmetric", "params": {"m": 6}})
    with pytest.raises(UnknownSpec):
        build_corpus_instance({"name": "heisenberg", "params": {"p": 4}})


def test_power_recipe_requires_bijection():
    with pytest.raises(NotBijective):
        build_corpus_instance({"name": "cyclic", "params": {"m": 4},
                               "automorphism": {"recipe": "power", "k": 2}})


@pytest.mark.parametrize("recipe, small", [
    ({"recipe": "power", "k": 10 ** 12 + 2}, {"recipe": "power", "k": 2}),
    ({"recipe": "power", "k": -(10 ** 12 + 2)}, {"recipe": "power", "k": -2}),
    ({"recipe": "gen_powers", "powers": [10 ** 12 + 2]}, {"recipe": "gen_powers", "powers": [2]}),
])
def test_power_exponent_is_reduced_modulo_the_generator_order(recipe, small):
    spec = {"name": "cyclic", "params": {"m": 5}}
    start = time.perf_counter()
    phi = build_corpus_instance({**spec, "automorphism": recipe})[1]
    assert time.perf_counter() - start < 0.5
    assert phi.table == build_corpus_instance({**spec, "automorphism": small})[1].table


def test_swap_recipe_requires_equal_factors():
    with pytest.raises(UnknownSpec):
        build_corpus_instance(
            {"name": "direct_product",
             "params": {"factors": [{"name": "cyclic", "params": {"m": 3}},
                                    {"name": "cyclic", "params": {"m": 5}}]},
             "automorphism": {"recipe": "swap"}})


def test_frobenius_recipe_needs_field_shape():
    with pytest.raises(UnknownSpec):
        build_corpus_instance(
            {"name": "direct_product",
             "params": {"factors": [{"name": "cyclic", "params": {"m": 3}},
                                    {"name": "cyclic", "params": {"m": 5}}]},
             "automorphism": {"recipe": "frobenius"}})


def test_glauberman_builder_asserts():
    G, phi = build_glauberman_example()
    assert G.order == 15500
    assert phi.order_n == 3


def test_load_instance_raw_format():
    data = {"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]],
            "automorphism": {"images": [[1], [2]]}}
    G, phi, inst = load_instance(data)
    assert G.order == 6
    assert phi.order_n == 1


def test_default_corpus_loads_and_builds():
    corpus = default_corpus()
    assert corpus["schema"] == 1
    instances = corpus["instances"]
    assert len(instances) >= 25
    ids = [instance_id(s) for s in instances]
    assert len(ids) == len(set(ids))
    total_coprime = 0
    for spec in instances:
        G, phi = build_corpus_instance(spec)
        assert G.order <= 20000
        if phi is not None and phi.coprime:
            total_coprime += 1
    assert total_coprime >= 20


def test_corpus_has_noncoprime_instance():
    corpus = default_corpus()
    flags = []
    for spec in corpus["instances"]:
        G, phi = build_corpus_instance(spec)
        if phi is not None:
            flags.append(phi.coprime)
    assert False in flags


@pytest.mark.parametrize("spec", [
    {"name": "cyclic", "params": {"m": 300000}},
    {"name": "dihedral", "params": {"m": 150000}},
    {"name": "heisenberg", "params": {"p": 61}},
    {"name": "modular", "params": {"p": 59}},
    {"name": "affine", "params": {"p": 31, "k": 2}},
    {"name": "direct_product",
     "params": {"factors": [{"name": "cyclic", "params": {"m": 500}}] * 2}},
])
def test_cap_checked_before_anything_is_built(spec, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a group above the cap")
    monkeypatch.setattr(corpus, "generate_group", refuse)
    monkeypatch.setattr(gf, "FiniteField", refuse)
    with pytest.raises(CapExceeded, match=r"^params: order \d+ exceeds cap=200000$"):
        build_corpus_instance(spec)


def _refuse_to_build(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a group above the store budget")
    monkeypatch.setattr(corpus, "generate_group", refuse)
    monkeypatch.setattr(gf, "FiniteField", refuse)


# Each is within a cap of 10^6; its elements would take about the given number of MB.
@pytest.mark.parametrize("spec, path, megabytes", [
    ({"name": "cyclic", "params": {"m": 199999}}, "params", 320007),
    ({"name": "dihedral", "params": {"m": 99999}}, "params", 160007),
    ({"name": "heisenberg", "params": {"p": 61}}, "params", 6769),
    ({"name": "direct_product",
      "params": {"factors": [{"name": "cyclic", "params": {"m": 500}},
                             {"name": "cyclic", "params": {"m": 399}}]}}, "params", 1445),
])
def test_store_budget_checked_before_anything_is_built(spec, path, megabytes, monkeypatch):
    _refuse_to_build(monkeypatch)
    monkeypatch.setattr(corpus, "DEFAULT_CAP", 10 ** 6)
    with pytest.raises(CapExceeded, match=rf"^{path}: .* about {megabytes} MB of elements"):
        build_corpus_instance(spec)


def test_named_groups_are_charged_for_their_cayley_columns(monkeypatch):
    # 2^23 elements on 46 points fit the budget (about 662 MB); their columns,
    # at most two generators per factor, take about 3087 MB more
    _refuse_to_build(monkeypatch)
    monkeypatch.setattr(corpus, "DEFAULT_CAP", 10 ** 7)
    spec = {"name": "direct_product",
            "params": {"factors": [{"name": "cyclic", "params": {"m": 2}}] * 23}}
    with pytest.raises(CapExceeded, match=r"^params: order 8388608 on 46 points needs about "
                                          r"662 MB of elements and 3087 MB of Cayley columns"):
        build_corpus_instance(spec)


def test_cli_store_budget_exits_2_with_the_path(tmp_path, capsys, monkeypatch):
    from coprimelab.cli import main
    _refuse_to_build(monkeypatch)
    monkeypatch.setattr(corpus, "DEFAULT_CAP", 10 ** 6)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "direct_product", "params": {"factors": [
        {"name": "cyclic", "params": {"m": 3}},
        {"name": "cyclic", "params": {"m": 199999}}]}}), encoding="utf-8")
    assert main(["info", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: params: order 599997 on 200002 points")


def test_raw_degree_over_the_store_budget_builds_nothing(monkeypatch):
    _refuse_to_build(monkeypatch)
    degree = corpus.STORE_BUDGET // 8
    with pytest.raises(CapExceeded, match=rf"^degree: one element on {degree} points"):
        load_instance({"degree": degree, "generators": []})
    with pytest.raises(ParseError, match="^degree: "):
        load_instance({"degree": -40, "generators": []})


def test_raw_degree_is_charged_for_its_points_before_anything_is_built(monkeypatch):
    # one element takes 160 MB, under the budget; the identity's 20M point ints
    # and the sorted copies that check a generator take far more
    _refuse_to_build(monkeypatch)
    degree = 2 * 10 ** 7
    assert element_bytes(degree) < corpus.STORE_BUDGET
    with pytest.raises(CapExceeded, match=rf"^degree: one element on {degree} points and "
                                          rf"the points themselves need about 1760 MB"):
        load_instance({"degree": degree, "generators": []})


def test_raw_degree_caps_enumeration_by_the_store_budget(monkeypatch):
    caps = []
    monkeypatch.setattr(corpus, "generate_group",
                        lambda degree, gens, cap: caps.append(cap) or generate_group(1, []))
    load_instance({"degree": 3 * 10 ** 6, "generators": []})
    # a "cap" key is not read: the cap is DEFAULT_CAP unless the budget lowers it
    load_instance({"degree": 3, "generators": [], "cap": 7})
    monkeypatch.setattr(corpus, "DEFAULT_CAP", 7)
    load_instance({"degree": 3, "generators": []})
    # the 240 MB charged for the points leave room for 31 elements, not 41
    assert caps == [31, 200000, 7]


def test_raw_generators_are_charged_for_their_cayley_columns(monkeypatch):
    # each generator keeps one column entry (8 bytes) per element, so many
    # copies of a generator shrink the cap instead of the free memory
    caps = []
    monkeypatch.setattr(corpus, "generate_group",
                        lambda degree, gens, cap: caps.append(cap) or generate_group(1, []))
    cycle, swap = list(range(1, 10)) + [0], [1, 0] + list(range(2, 10))
    load_instance({"degree": 10, "generators": [cycle, swap] * 3000})
    assert caps == [corpus.STORE_BUDGET // (10 + 33 + 8 * 6000)]
    monkeypatch.undo()
    # S_5 (order 120) fits a 1 MB budget with 2 generators; with 2000 their
    # columns take 16,000 bytes per element and the cap falls to 62
    monkeypatch.setattr(corpus, "STORE_BUDGET", 10 ** 6)
    cycle, swap = [1, 2, 3, 4, 0], [1, 0, 2, 3, 4]
    assert load_instance({"degree": 5, "generators": [cycle, swap]})[0].order == 120
    with pytest.raises(CapExceeded, match="cap=62 "):
        load_instance({"degree": 5, "generators": [cycle, swap] * 1000})


def test_cli_raw_group_over_the_cap_exits_2_naming_its_generators(tmp_path, capsys,
                                                                  monkeypatch):
    from coprimelab.cli import main
    monkeypatch.setattr(corpus, "DEFAULT_CAP", 3)
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"degree": 5, "generators": [[1, 2, 3, 4, 0]]}),
                    encoding="utf-8")
    assert main(["info", str(path)]) == 2
    assert capsys.readouterr().err == ("error: generators: closure exceeded cap=3 "
                                       "(degree 5, 1 generators)\n")


def test_cli_raw_degree_over_the_store_budget_exits_2(tmp_path, capsys, monkeypatch):
    from coprimelab.cli import main
    _refuse_to_build(monkeypatch)
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"degree": 10 ** 9, "generators": []}), encoding="utf-8")
    assert main(["info", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: degree: ")


@pytest.mark.parametrize("spec, path", [
    ({"name": "heisenberg", "params": {"p": 2 ** 61 - 1}}, "params.p"),
    ({"name": "affine", "params": {"p": 2, "k": 10 ** 10}}, "params.k"),
    ({"name": "cyclic", "params": {"m": 10 ** 4000}}, "params.m"),
])
def test_parameter_above_the_store_budget_is_refused_before_any_arithmetic(spec, path,
                                                                             monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("computed with a parameter above the store budget")
    _refuse_to_build(monkeypatch)
    monkeypatch.setattr(corpus, "is_prime", refuse)
    with pytest.raises(CapExceeded, match=rf"^{re.escape(path)}: "):
        build_corpus_instance(spec)
