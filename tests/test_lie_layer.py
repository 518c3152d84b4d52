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
from coprimelab.automorphisms import phi_invariant_closure, twisted_data
from coprimelab.corpus import build_corpus_instance, default_corpus, load_instance
from coprimelab.groups import center
from coprimelab.lie import (NpSeries, build_graded_lie, check_lazard_all, jlz_series,
                            subalgebra_of_subgroup)
from coprimelab.linalg import rref
from coprimelab.numutil import factorization, prime_power_base
from coprimelab.structure import is_powerful, power_subgroup
from helpers import (algebra_class, cyclic_spec, heisenberg_spec, modular_spec,
                     per_element_lazard, per_element_lazard_all, product_spec, tuple_power,
                     unitriangular_spec, wreath_spec)


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
    for p in factorization(G.order):
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
    # check_riley reads it again; the walk of ``lie_class`` starts with the
    # one bracketing of the kept ``lp_layers`` by themselves, which
    # ``lp_layers`` itself never makes, as it is not kept while it grows
    walks = []
    spans = lie.GradedLieAlgebra.bracket_spans

    def counted(self, X, K):
        walks.append(X is K is self.__dict__.get("lp_layers"))
        return spans(self, X, K)

    monkeypatch.setattr(lie.GradedLieAlgebra, "bracket_spans", counted)
    G = _group("heis5")
    assert report._lie_section(G, None, 5)["lie_class"] == 2
    assert walks.count(True) == 1
    walks.clear()
    path = tmp_path / "heis5.json"
    path.write_text(json.dumps(BENCH_GROUPS["heis5"]), encoding="utf-8")
    assert cli.main(["lie", str(path)]) == 0
    assert '"lie_class":2' in capsys.readouterr().out
    assert walks.count(True) == 1


# Inputs whose algebras bracket above layer 1, so that Jacobi, Lazard's
# deeper brackets, Riley's term and the product rule have something to
# test: UT_4(p) with phi inverting its third elementary generator, of class
# 3, and the maximal-class subgroups of C_p wr C_p of order p^(k+1), of
# class k, with phi of order 2 (the identity for p = 2). Raw specs written
# from tuples; none is in the shipped corpus. name -> (spec maker, its
# arguments, the Lie class).
DEEP = {"ut4_3": (unitriangular_spec, (3, 4, [[1], [2], [-3]]), 3),
        "ut4_5": (unitriangular_spec, (5, 4, [[1], [2], [-3]]), 3),
        **{f"c{p}_wr_c{p}_{k}": (wreath_spec, (p, k), k) for p in (2, 3, 5)
           for k in range(2, p + 1)}}


@functools.cache
def _deep(name: str) -> tuple:
    make, args, _ = DEEP[name]
    return load_instance(make(*args))[:2]


@pytest.mark.parametrize("name", DEEP)
def test_every_lie_verdict_passes_on_deep_layer_inputs(name):
    G, phi = _deep(name)
    section = report._lie_section(G, phi, prime_power_base(G.order))
    assert section["lie_class"] == DEEP[name][2] == len(section["layer_dims"])
    verdicts = {key: section[key] for key in ("np_series", "lazard", "riley", "bracket_axioms",
                                              "exponent_split")}
    if phi.order_n == 1:
        # the identity (p = 2) gives the statements about phi nothing to say
        assert section["fixed_subalgebra"] == section["eigen"] == "skipped: phi acts trivially"
    else:
        verdicts["fixed_subalgebra"] = section["fixed_subalgebra"]
        verdicts["product_rule"] = section["eigen"]["product_rule"]
    assert set(verdicts.values()) == {"pass"}, verdicts
    assert section["powerful_generation"] == "skipped: group is not powerful"


def test_theorem_1_has_something_to_bound_on_ut4_3():
    # the closures of fixed and twisted elements have exponent 3, and G has 9
    make, args, _ = DEEP["ut4_3"]
    out = report.analyze_instance(make(*args))
    assert out["probes"]["theorem1"]["e_star"] == 3
    assert out["group"]["exponent"] == 9


CLOSURE_INPUTS = [*P_GROUPS, *DEEP]


def _instance(name: str) -> tuple:
    return _deep(name) if name in DEEP else build_corpus_instance(CORPUS[name])


@pytest.mark.parametrize("name", CLOSURE_INPUTS)
def test_the_span_of_a_subgroup_is_closed_under_the_bracket(name):
    # [H & D_i, H & D_j] <= H & D_(i+j) for every subgroup H, so the images
    # of H span a subalgebra: checked on the centre, and for phi on C_G(phi),
    # [G, phi] and the closures theorem 1 walks
    G, phi = _instance(name)
    A = build_graded_lie(jlz_series(G, prime_power_base(G.order)))
    subgroups = [center(G)]
    if phi is not None:
        td = twisted_data(phi)
        subgroups += [td.fixed, td.commutator_phi]
        if phi.coprime:
            subgroups += [phi_invariant_closure(phi, {x}) for x in td.orbit_reps]
    for H in {H.member_set: H for H in subgroups}.values():
        K = subalgebra_of_subgroup(A, H)
        for k, span in enumerate(A.bracket_spans(K, K)):
            assert rref(K[k] + span, A.field) == K[k], (name, H.order, k + 1)


@pytest.mark.parametrize("name", CLOSURE_INPUTS)
def test_the_first_layer_algebra_has_the_class_of_the_whole_algebra(name):
    # Jennings: layer 1 generates the algebra as a restricted algebra, and
    # by Lazard's identity [x^p, y] = ad(x)^p y (the ``lazard`` verdict) the
    # p-th powers add no bracket that layer 1 does not make
    G, _ = _instance(name)
    A = build_graded_lie(jlz_series(G, prime_power_base(G.order)))
    assert algebra_class(A) == A.lie_class
