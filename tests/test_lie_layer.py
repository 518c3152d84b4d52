"""The Lie layer's shortcuts against per-element oracles, and pinned counts
that fail if the layer goes back to per-element work.

``check_lazard_all`` brackets once per (layer, coordinate vector), and not
at all where x^p lies in the top layer or past it; it reads each element's
layer off ``NpSeries.weight`` and p-th powers off ``FiniteGroup.power_map``,
which walks each cyclic subgroup once. The oracle ``per_element_lazard_all``
redoes both sides for every element, with the layer from the terms' member
sets and x^p by plain tuple arithmetic; the power map is checked against the
same tuple arithmetic on a sample of elements.
"""

import functools
import json
import random

import pytest

from coprimelab import cli, groups, lie, report
from coprimelab.corpus import build_corpus_instance, default_corpus
from coprimelab.lie import NpSeries, build_graded_lie, check_lazard_all, jlz_series
from coprimelab.numutil import prime_factors, prime_power_base
from coprimelab.structure import is_powerful, power_subgroup
from helpers import (cyclic_spec, heisenberg_spec, modular_spec, per_element_lazard,
                     per_element_lazard_all, product_spec, tuple_power)


CORPUS = {spec["id"]: spec for spec in default_corpus()["instances"]}
# The groups of the benchmark's nilpotent_pairs templates and cli_commands
# files; the Lazard check does not read the automorphism.
BENCH_GROUPS = {
    "heis7": heisenberg_spec(7),
    "heis5": heisenberg_spec(5),
    "c125": cyclic_spec(125),
    "mod7": modular_spec(7),
    "heis3_c9": product_spec(heisenberg_spec(3), cyclic_spec(9)),
    "c25_c5": product_spec(cyclic_spec(25), cyclic_spec(5)),
    "heis5_c25": product_spec(heisenberg_spec(5), cyclic_spec(25)),
    "c5x5": product_spec(*[cyclic_spec(5)] * 5),
    "mod5_c25": product_spec(modular_spec(5), cyclic_spec(25)),
}


# degree 300 > BYTES_MAX_DEGREE: elements are stored as tuples
TUPLE_STORE = {"d300": {"name": "dihedral", "params": {"m": 300}}}


@functools.cache
def _group(name: str):
    return build_corpus_instance({**CORPUS, **BENCH_GROUPS, **TUPLE_STORE}[name])[0]


P_GROUPS = [spec_id for spec_id in CORPUS if prime_power_base(_group(spec_id).order)]


def _algebra(name: str):
    G = _group(name)
    return build_graded_lie(jlz_series(G, prime_power_base(G.order)))


class _Calls:
    """Counts calls of ``owner.name`` while installed."""

    def __init__(self, monkeypatch, owner, name):
        self.count = 0
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            self.count += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def test_every_corpus_p_group_is_covered():
    assert len(P_GROUPS) == 22 and "trivial" not in P_GROUPS and "glauberman" not in P_GROUPS


@pytest.mark.parametrize("name", P_GROUPS + list(BENCH_GROUPS))
def test_check_lazard_all_matches_the_per_element_oracle(name):
    A = _algebra(name)
    assert check_lazard_all(A) is None
    assert per_element_lazard_all(A) is None


def test_a_corrupted_structure_constant_fails_where_the_oracle_fails():
    # [u, u] = u' for the basis vector u of layer 2 of D32 and u' of layer 4:
    # the 16 elements whose class in layer 1 is (1, 0) now fail, the least
    # of them first
    A = _algebra("d32")
    assert (2, 0, 2, 0) not in A.brackets and A.dims[3] == 1
    A.brackets[(2, 0, 2, 0)] = (1,)
    witness = check_lazard_all(A)
    assert witness == per_element_lazard_all(A) == 1
    assert A.coords(1, witness) == (1, 0)
    assert not per_element_lazard(A, witness, A.group.power_map(2)[witness])


def test_a_series_that_breaks_the_power_axiom_fails_where_the_oracle_fails():
    # C16 > C8 > C4 > C2 > 1: x^2 of a generator of C8 (layer 2) generates
    # C4, outside term 4, and x^2 of a generator of C16 lies past the top
    G = _group("c16")
    terms = tuple(power_subgroup(G, 2 ** k) for k in range(5))
    A = build_graded_lie(NpSeries(G, 2, terms))
    assert A.dims == (1, 1, 1, 1)
    witness = check_lazard_all(A)
    assert witness == per_element_lazard_all(A)
    assert A.weight[witness] == 2 and A.weight[A.group.power_map(2)[witness]] < 4


def _exponents(G) -> set:
    e = G.exponent()
    out = {2, 3, 4, 5, e, e + 1}
    for p in prime_factors(G.order):
        out |= {p, p * p}
    return out


def test_dihedral_300_is_stored_as_tuples():
    G = _group("d300")
    assert G.degree == 300 > groups.BYTES_MAX_DEGREE and type(G._store[1]) is tuple


@pytest.mark.parametrize("name", list(CORPUS) + ["heis7", "d300"])
def test_power_map_matches_power(name):
    G = _group(name)
    sample = random.Random(name).sample(range(G.order), min(G.order, 64))
    for m in sorted(_exponents(G)):
        table = G.power_map(m)
        for x in sample:
            assert G.elements[table[x]] == tuple_power(G.elements[x], m), (name, m, x)
        assert table is G.cache[("power", m)]


def test_building_a_group_builds_no_power_map():
    G = build_corpus_instance(BENCH_GROUPS["heis5_c25"])[0]
    assert not [key for key in G.cache if isinstance(key, tuple) and key[0] == "power"]


# Bracket calls of check_lazard_all. Per element, with both sides bracketed
# out for every element, it made 36,240 on heisenberg(5) x C25 and 820 on D32.
# On heisenberg(5) x C25 every x^p lies in the top layer or past it, so
# both sides vanish without a bracket.
LAZARD_BRACKETS = {"heis5_c25": 0, "d32": 58}


@pytest.mark.parametrize("name", LAZARD_BRACKETS)
def test_lazard_brackets_once_per_layer_and_coordinate_vector(name, monkeypatch):
    A = _algebra(name)
    calls = _Calls(monkeypatch, lie.GradedLieAlgebra, "bracket")
    assert check_lazard_all(A) is None
    assert calls.count == LAZARD_BRACKETS[name]


def test_power_subgroups_and_jennings_terms_of_heis5_c25():
    G = build_corpus_instance(BENCH_GROUPS["heis5_c25"])[0]
    S = jlz_series(G, 5)
    assert is_powerful(G, 5) is False
    assert power_subgroup(G, 25).is_trivial and power_subgroup(G, 5).order == 5
    assert [t.order for t in S.terms] == [3125, 25, 5, 5, 5, 1]


def test_the_lie_class_is_bracketed_out_once_per_algebra(monkeypatch, tmp_path, capsys):
    # the report's Lie section and the ``lie`` command read the class, and
    # check_riley reads it again
    walks = []
    steps = lie.GradedLieAlgebra.bracket_steps

    def counted(self, X, K):
        walks.append(X is self.lp_layers and K is self.lp_layers)
        return steps(self, X, K)

    monkeypatch.setattr(lie.GradedLieAlgebra, "bracket_steps", counted)
    G = _group("heis5")
    assert report._lie_section(G, None, 5)["lie_class"] == 2
    assert walks.count(True) == 1
    walks.clear()
    path = tmp_path / "heis5.json"
    path.write_text(json.dumps(BENCH_GROUPS["heis5"]), encoding="utf-8")
    assert cli.main(["lie", str(path)]) == 0
    assert '"lie_class":2' in capsys.readouterr().out
    assert walks.count(True) == 1
