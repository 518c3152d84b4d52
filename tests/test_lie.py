import itertools

import pytest

from coprimelab.automorphisms import build_automorphism
from coprimelab.corpus import build_corpus_instance, default_corpus
from coprimelab.errors import NotAPGroup, NotCoprime, PreconditionViolated
from coprimelab.groups import Automorphism, center, generate_group
from coprimelab import lie
from coprimelab.lie import (NpSeries, build_graded_lie, check_lazard_all, check_riley,
                            extend_and_eigendecompose, jlz_series, lie_fixed_points,
                            subalgebra_LGH, verify_eigen_product_rule, verify_np_series)
from coprimelab.numutil import prime_power_base
from coprimelab.structure import lower_central_series, power_subgroup
from helpers import (C2_10_ORDER_889, C2_13_ORDER_6141, generated_members,
                     identity_automorphism, load_workloads, per_element_lazard,
                     quaternion_group)

WORKLOADS = load_workloads()


def algebra_for(spec, p):
    G = build_corpus_instance(spec)[0]
    return G, build_graded_lie(jlz_series(G, p))


def test_jlz_rejects_non_p_group(s3):
    with pytest.raises(NotAPGroup):
        jlz_series(s3, 2)


def test_jlz_golden_c9(c9):
    S = jlz_series(c9, 3)
    assert build_graded_lie(S).dims == (1, 0, 1)
    assert [t.order for t in S.terms] == [9, 3, 3, 1]


def test_jlz_golden_heisenberg(heis3):
    S = jlz_series(heis3, 3)
    assert build_graded_lie(S).dims == (2, 1)
    assert [t.order for t in S.terms] == [27, 3, 1]


def test_jlz_golden_modular27():
    G = build_corpus_instance({"name": "modular", "params": {"p": 3}})[0]
    S = jlz_series(G, 3)
    assert build_graded_lie(S).dims == (2, 0, 1)


def test_jlz_elementary_abelian():
    G = build_corpus_instance(
        {"name": "direct_product",
         "params": {"factors": [{"name": "cyclic", "params": {"m": 3}}] * 3}})[0]
    S = jlz_series(G, 3)
    assert build_graded_lie(S).dims == (3,)


def _oracle_groups():
    """(label, group, p): every p-group of the shipped corpus, the groups of
    the benchmark's nilpotent_pairs templates and of its cli_commands files
    (seed 1), D8 and D16, and two 2-groups of class 3 whose term D_3 is not
    covered by p-th powers: C2 wr C4 and C2 wr C2 wr C2, on 8 points."""
    specs = [(spec["id"], spec) for spec in default_corpus()["instances"]]
    specs += [(t[0], t[1]) for t in WORKLOADS.PAIR_TEMPLATES]
    specs += sorted(WORKLOADS.cli_plan(1)["files"].items())
    specs += [(f"d{2 * m}", {"name": "dihedral", "params": {"m": m}}) for m in (4, 8)]
    for label, spec in specs:
        G = build_corpus_instance(spec)[0]
        p = prime_power_base(G.order)
        if p is not None:
            yield label, G, p
    swap = (1, 0, 2, 3, 4, 5, 6, 7)
    yield "c2_wr_c4", generate_group(8, [swap, (2, 3, 4, 5, 6, 7, 0, 1)]), 2
    yield "c2_wr_c2_wr_c2", generate_group(8, [swap, (2, 3, 0, 1, 4, 5, 6, 7),
                                               (4, 5, 6, 7, 0, 1, 2, 3)]), 2


def test_jlz_terms_against_product_of_powers_oracle():
    # independent recomputation: D_i = product of gamma_j^(p^k) over j*p^k >= i,
    # where the least such k gives the largest factor for each j
    checked = 0
    for label, G, p in _oracle_groups():
        lcs = lower_central_series(G).terms
        S = jlz_series(G, p)
        pieces = {}
        for i in range(1, len(S.terms) + 2):
            gens = set()
            for j, term in enumerate(lcs, start=1):
                k = 0
                while j * p ** k < i:
                    k += 1
                if (j, k) not in pieces:
                    pieces[j, k] = power_subgroup(G, p ** k, within=term).gens
                gens.update(pieces[j, k])
            assert S.term(i).member_set == generated_members(G, gens), (label, i)
        checked += 1
    assert checked >= 39


def test_verify_np_series_passes_for_jlz(heis3, c9, d4):
    for G, p in ((heis3, 3), (c9, 3), (d4, 2)):
        assert verify_np_series(jlz_series(G, p))["verdict"] == "pass"


def test_verify_np_series_detects_violation(heis3):
    bad = NpSeries(heis3, 3, (heis3.whole_subgroup(), heis3.trivial_subgroup()))
    out = verify_np_series(bad)
    assert out["verdict"] == "fail"
    assert out["commutator_failures"]


def test_lcs_of_exponent_p_group_is_np(heis3):
    lcs = lower_central_series(heis3)
    series = NpSeries(heis3, 3, tuple(lcs.terms))
    assert verify_np_series(series)["verdict"] == "pass"


def test_graded_lie_heisenberg(heis3):
    G, A = heis3, build_graded_lie(jlz_series(heis3, 3))
    assert A.dims == (2, 1)
    w = A.bracket(1, (1, 0), 1, (0, 1))
    assert w is not None and any(w)
    assert A.lie_class_of_generated() == 2
    assert A.lp_layers == A.units  # layer 1 generates every layer


def test_graded_lie_c9_generated_flags(c9):
    A = build_graded_lie(jlz_series(c9, 3))
    assert A.dims == (1, 0, 1)
    assert A.lp_layers[0] == ((1,),)
    assert A.lp_layers[2] == ()  # the deep layer is not generated by layer 1
    assert A.lie_class_of_generated() == 1


def test_antisymmetry_and_jacobi():
    for spec, p in (({"name": "heisenberg", "params": {"p": 3}}, 3),
                    ({"name": "modular", "params": {"p": 3}}, 3),
                    ({"name": "dihedral", "params": {"m": 4}}, 2)):
        G, A = algebra_for(spec, p)
        homog = [(i, u) for i, units in enumerate(A.units, start=1) for u in units]
        for (i, u), (j, v) in itertools.product(homog, repeat=2):
            uv = A.bracket(i, u, j, v)
            vu = A.bracket(j, v, i, u)
            if uv is None:
                assert vu is None or not any(vu)
            else:
                assert tuple((-c) % p for c in uv) == (vu or tuple([0] * len(uv)))
        for (i, u), (j, v), (k, w) in itertools.product(homog, repeat=3):
            terms = []
            for (a, x), (b, y), (c, z) in (((i, u), (j, v), (k, w)),
                                           ((j, v), (k, w), (i, u)),
                                           ((k, w), (i, u), (j, v))):
                inner = A.bracket(a, x, b, y)
                if inner is None:
                    continue
                outer = A.bracket(a + b, inner, c, z)
                if outer is not None:
                    terms.append(outer)
            if terms:
                total = [0] * len(terms[0])
                for t in terms:
                    total = [(s + c) % p for s, c in zip(total, t)]
                assert not any(total)


def test_bracket_well_defined_on_cosets(heis3):
    # the bracket of arbitrary coset representatives matches the bilinear value
    A = build_graded_lie(jlz_series(heis3, 3))
    G = heis3
    layer1 = A.layers[0]
    term2 = A.series.term(2).member_set
    for x in A.series.term(1).members:
        for y in A.series.term(1).members:
            u, v = layer1.coords_of(x), layer1.coords_of(y)
            expected = A.bracket(1, u, 1, v)
            got = A.layers[1].coords_of(G.commutator(x, y))
            assert (got if any(got) else None) == expected


def test_lazard_all_small_p_groups(heis3, c9, d4):
    for G, p in ((heis3, 3), (c9, 3), (d4, 2), (quaternion_group(), 2)):
        A = build_graded_lie(jlz_series(G, p))
        assert check_lazard_all(A)["verdict"] == "pass"


def test_lazard_exponent_p_vanishes(heis3):
    # x^p = 1, so both sides must be the zero map on every element
    A = build_graded_lie(jlz_series(heis3, 3))
    assert check_lazard_all(A) == {"verdict": "pass", "checked": 27, "failures": []}
    assert all(per_element_lazard(A, x) for x in range(heis3.order))


def test_riley(heis3, c9, d4):
    out = check_riley(build_graded_lie(jlz_series(heis3, 3)))
    assert out["verdict"] == "pass" and out["lie_class"] == 2 and out["term_order"] == 1
    out = check_riley(build_graded_lie(jlz_series(c9, 3)))
    assert out["verdict"] == "pass" and out["lie_class"] == 1 and out["term_order"] == 3
    assert check_riley(build_graded_lie(jlz_series(d4, 2)))["verdict"] == "pass"


def test_subalgebra_lgh(heis3):
    A = build_graded_lie(jlz_series(heis3, 3))
    trivial = subalgebra_LGH(A, heis3.trivial_subgroup())
    assert trivial["u"] == 1 and trivial["closed"]
    central = subalgebra_LGH(A, center(heis3))
    assert central["u"] == 1 and central["dims"] == (0, 1)
    whole = subalgebra_LGH(A, heis3.whole_subgroup())
    assert whole["u"] == 2 and whole["closed"]
    assert whole["u"] <= A.num_layers


def test_lie_fixed_points_identity(heis3):
    A = build_graded_lie(jlz_series(heis3, 3))
    out = lie_fixed_points(A, identity_automorphism(heis3))
    assert out["verdict"] == "pass"


def test_lie_fixed_points_frobenius_on_additive_gf125():
    G, phi = build_corpus_instance(
        {"name": "direct_product",
         "params": {"factors": [{"name": "cyclic", "params": {"m": 5}}] * 3},
         "automorphism": {"recipe": "frobenius"}})
    A = build_graded_lie(jlz_series(G, 5))
    out = lie_fixed_points(A, phi)
    assert out["verdict"] == "pass"
    assert out["layers"][0]["fixed_dim"] == 1  # the prime subfield


def test_lie_fixed_points_heisenberg_inversion(heis3):
    G, phi = build_corpus_instance({"name": "heisenberg", "params": {"p": 3},
                                    "automorphism": {"recipe": "power", "k": -1}})
    A = build_graded_lie(jlz_series(G, 3))
    out = lie_fixed_points(A, phi)
    assert out["verdict"] == "pass"
    assert out["layers"][0]["fixed_dim"] == 0
    assert out["layers"][1]["fixed_dim"] == 1  # the central layer is fixed


def test_eigen_gf125_frobenius():
    G, phi = build_corpus_instance(
        {"name": "direct_product",
         "params": {"factors": [{"name": "cyclic", "params": {"m": 5}}] * 3},
         "automorphism": {"recipe": "frobenius"}})
    A = build_graded_lie(jlz_series(G, 5))
    ext = extend_and_eigendecompose(A, phi)
    assert ext.field.k == 2                 # needs GF(25)
    assert ext.field.modulus == (1, 1, 1)   # t^2 + t + 1
    assert ext.dims == [[1, 1, 1]]
    assert verify_eigen_product_rule(ext)["verdict"] == "pass"


def test_eigen_c7_power2():
    G, phi = build_corpus_instance({"name": "cyclic", "params": {"m": 7},
                                    "automorphism": {"recipe": "power", "k": 2}})
    A = build_graded_lie(jlz_series(G, 7))
    ext = extend_and_eigendecompose(A, phi)
    assert ext.field.k == 1
    assert sum(ext.dims[0]) == 1
    assert sum(1 for d in ext.dims[0] if d) == 1
    j = ext.dims[0].index(1)
    assert ext.field.pow(ext.omega, j) == 2  # the eigenvalue is the map's multiplier


def test_eigen_trivial_n1(c9):
    A = build_graded_lie(jlz_series(c9, 3))
    ext = extend_and_eigendecompose(A, identity_automorphism(c9))
    assert ext.n == 1
    assert ext.dims == [[1], [0], [1]]


def test_eigen_rejects_characteristic_divisor(heis3):
    # conjugation by a generator of heisenberg(3) has order 3
    c = heis3.generator_indices[0]
    phi = Automorphism(heis3, [heis3.conjugate(g, c) for g in heis3.generator_indices])
    assert phi.order_n == 3
    with pytest.raises(NotCoprime, match="order 3 is divisible by the characteristic 3"):
        extend_and_eigendecompose(build_graded_lie(jlz_series(heis3, 3)), phi)


class _SearchReached(Exception):
    """Raised in place of the modulus search."""


def test_eigen_refuses_a_field_degree_above_the_bound_before_any_search(monkeypatch):
    def reached(n, p, d):
        raise _SearchReached(d)

    monkeypatch.setattr(lie, "_cyclotomic_modulus", reached)
    G, phi = build_corpus_instance(C2_10_ORDER_889)
    with pytest.raises(_SearchReached, match="21"):
        extend_and_eigendecompose(build_graded_lie(jlz_series(G, 2)), phi)
    G, phi = build_corpus_instance(C2_13_ORDER_6141)
    with pytest.raises(PreconditionViolated, match="degree above 21"):
        extend_and_eigendecompose(build_graded_lie(jlz_series(G, 2)), phi)


def test_eigen_heisenberg_inversion_product_rule():
    G, phi = build_corpus_instance({"name": "heisenberg", "params": {"p": 5},
                                    "automorphism": {"recipe": "power", "k": -1}})
    A = build_graded_lie(jlz_series(G, 5))
    ext = extend_and_eigendecompose(A, phi)
    assert ext.dims == [[0, 2], [1, 0]]
    out = verify_eigen_product_rule(ext)
    assert out["verdict"] == "pass"
    assert out["nonzero_brackets_checked"] > 0


def test_eigen_companion_order7_on_elementary_abelian():
    G, phi = build_corpus_instance(
        {"name": "direct_product",
         "params": {"factors": [{"name": "cyclic", "params": {"m": 2}}] * 3},
         "automorphism": {"images": [[2], [3], [1, 2]]}})
    assert phi.order_n == 7
    A = build_graded_lie(jlz_series(G, 2))
    ext = extend_and_eigendecompose(A, phi)
    assert ext.field.k == 3  # the multiplicative order of 2 mod 7
    assert sum(ext.dims[0]) == 3
    assert sorted(ext.dims[0], reverse=True) == [1, 1, 1, 0, 0, 0, 0]
