import itertools

import pytest

from coprimelab.automorphisms import twisted_data
from coprimelab.corpus import build_corpus_instance, default_corpus, load_instance
from coprimelab.errors import NotAPGroup, NotCoprime, PreconditionViolated
from coprimelab.groups import Automorphism, commutator_subgroup_pair, generate_group
from coprimelab import lie
from coprimelab.lie import (NpSeries, build_graded_lie, check_lazard_all, check_riley,
                            extend_and_eigendecompose, jlz_series, layer_matrices,
                            lie_fixed_points, verify_bracket_axioms, verify_eigen_product_rule,
                            verify_np_series)
from coprimelab.linalg import mat_vec, rref
from coprimelab.numutil import prime_power_base
from coprimelab.structure import is_powerful, lower_central_series, power_subgroup
from helpers import (C2_10_ORDER_889, C2_13_ORDER_6141, fixed_points_by_spans, generated_members,
                     identity_automorphism, load_workloads, per_element_lazard_all,
                     quaternion_group, subalgebra_of_subgroup, unitriangular_spec)

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


def test_weight_and_coordinate_tables_match_the_terms():
    # by definition, on the oracle groups: x lies in term i iff its weight is
    # at least i, and coords(i, .) is the quotient map of term i onto layer i
    checked = 0
    for label, G, p in _oracle_groups():
        S = jlz_series(G, p)
        A = build_graded_lie(S)
        for i in range(1, len(S.terms) + 1):
            inside = [x in S.term(i).member_set for x in range(G.order)]
            assert [S.weight[x] >= i for x in range(G.order)] == inside, (label, i)
        for i in range(1, A.num_layers + 1):
            term, below = S.term(i), S.term(i + 1).member_set
            # additive on all of term i, as it is so on x * g for every
            # generator g and vanishes on the identity
            for x in term.members:
                u = A.coords(i, x)
                assert (not any(u)) == (x in below), (label, i, x)
                for g in term.gens:
                    v, w = A.coords(i, g), A.coords(i, G.mul(x, g))
                    assert w == tuple((a + b) % p for a, b in zip(u, v)), (label, i, x, g)
            assert [A.coords(i, b) for b in A.bases[i - 1]] == list(A.units[i - 1]), (label, i)
            outside = next((x for x in range(G.order) if x not in term.member_set), None)
            if outside is not None:
                with pytest.raises(ValueError):
                    A.coords(i, outside)
        checked += 1
    assert checked >= 39


def test_verify_np_series_passes_for_jlz(heis3, c9, d4):
    for G, p in ((heis3, 3), (c9, 3), (d4, 2)):
        assert verify_np_series(jlz_series(G, p)) is None


def test_verify_np_series_detects_violation(heis3, c9):
    # [G, G] is the centre, outside term 2; x^3 of a generator of C9 lies
    # outside term 3. Each witness replays on the subgroups it names.
    bad = NpSeries(heis3, 3, (heis3.whole_subgroup(), heis3.trivial_subgroup()))
    assert verify_np_series(bad) == ("commutator", 1, 1)
    comm = commutator_subgroup_pair(heis3, bad.term(1), bad.term(1))
    assert not comm.member_set <= bad.term(2).member_set
    bad = NpSeries(c9, 3, (c9.whole_subgroup(), c9.whole_subgroup(), c9.trivial_subgroup()))
    assert verify_np_series(bad) == ("power", 1)
    assert not power_subgroup(c9, 3).member_set <= bad.term(3).member_set


def test_lcs_of_exponent_p_group_is_np(heis3):
    lcs = lower_central_series(heis3)
    series = NpSeries(heis3, 3, tuple(lcs.terms))
    assert verify_np_series(series) is None


def test_graded_lie_heisenberg(heis3):
    G, A = heis3, build_graded_lie(jlz_series(heis3, 3))
    assert A.dims == (2, 1)
    w = A.bracket(1, (1, 0), 1, (0, 1))
    assert w is not None and any(w)
    assert A.lie_class == 2
    assert A.lp_layers == A.units  # layer 1 generates every layer


def test_graded_lie_c9_generated_flags(c9):
    A = build_graded_lie(jlz_series(c9, 3))
    assert A.dims == (1, 0, 1)
    assert A.lp_layers[0] == ((1,),)
    assert A.lp_layers[2] == ()  # the deep layer is not generated by layer 1
    assert A.lie_class == 1


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
    for x in A.series.term(1).members:
        for y in A.series.term(1).members:
            u, v = A.coords(1, x), A.coords(1, y)
            expected = A.bracket(1, u, 1, v)
            got = A.coords(2, G.commutator(x, y))
            assert (got if any(got) else None) == expected


def test_lazard_all_small_p_groups(heis3, c9, d4):
    for G, p in ((heis3, 3), (c9, 3), (d4, 2), (quaternion_group(), 2)):
        A = build_graded_lie(jlz_series(G, p))
        assert check_lazard_all(A) is None


def test_lazard_exponent_p_vanishes(heis3):
    # x^p = 1, so both sides must be the zero map on every element
    A = build_graded_lie(jlz_series(heis3, 3))
    assert check_lazard_all(A) is None
    assert per_element_lazard_all(A) is None


def test_riley(heis3, c9, d4):
    A = build_graded_lie(jlz_series(heis3, 3))
    assert check_riley(A) is None and A.lie_class == 2 and A.series.term(3).order == 1
    A = build_graded_lie(jlz_series(c9, 3))
    assert check_riley(A) is None and A.lie_class == 1 and A.series.term(2).order == 3
    assert check_riley(build_graded_lie(jlz_series(d4, 2))) is None


def test_riley_fails_on_a_series_with_an_empty_first_layer(d4):
    # G, G, Z(G), 1: layer 1 is zero, so it generates the zero subalgebra, of
    # class 0, and term 1 is D8 itself, which is not powerful
    Z = lower_central_series(d4).terms[1]
    A = build_graded_lie(NpSeries(d4, 2, (d4.whole_subgroup(), d4.whole_subgroup(), Z,
                                          d4.trivial_subgroup())))
    assert A.dims == (0, 2, 1) and A.lie_class == 0
    witness = check_riley(A)
    assert witness == 1
    assert not is_powerful(d4, 2, subgroup=A.series.term(witness))


def test_a_one_sided_structure_constant_breaks_antisymmetry(heis3):
    A = build_graded_lie(jlz_series(heis3, 3))
    assert A.brackets[(1, 0, 1, 1)] == (2,) and A.brackets[(1, 1, 1, 0)] == (1,)
    A.brackets[(1, 1, 1, 0)] = (2,)
    witness = verify_bracket_axioms(A)
    assert witness == ((1, (1, 0)), (1, (0, 1)))
    (i, u), (j, v) = witness
    assert [(a + b) % 3 for a, b in zip(A.bracket(i, u, j, v), A.bracket(j, v, i, u))] == [1]


def test_a_consistent_pair_of_structure_constants_breaks_jacobi():
    # UT_4(3) has layers of dimension 3, 2, 1 and class 3: [e0, e1] = 2 f0,
    # [e1, e2] = 2 f1, [f0, e2] = 2 g and [f1, e0] = g, while e2 and e0
    # commute, so the Jacobi sum of (e0, e1, e2) is g + 2g = 0. Doubling
    # [e0, f1] together with its antisymmetric partner [f1, e0] keeps
    # antisymmetry and makes the sum g + g
    G = load_instance(unitriangular_spec(3, 4))[0]
    A = build_graded_lie(jlz_series(G, 3))
    assert A.dims == (3, 2, 1) and A.lie_class == 3 and verify_bracket_axioms(A) is None
    assert A.brackets[(1, 0, 2, 1)] == (2,) and A.brackets[(2, 1, 1, 0)] == (1,)
    A.brackets[(1, 0, 2, 1)], A.brackets[(2, 1, 1, 0)] = (1,), (2,)
    witness = verify_bracket_axioms(A)
    assert witness == ((1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1)))
    x, y, z = witness
    assert A.bracket(*z, *x) is None
    outer = [A.bracket(a[0] + b[0], A.bracket(*a, *b), *c) for a, b, c in ((x, y, z), (y, z, x))]
    assert outer == [(1,), (1,)]


def test_lie_fixed_points_identity(heis3, c9):
    assert lie_fixed_points(jlz_series(heis3, 3), identity_automorphism(heis3)) is None
    with pytest.raises(ValueError, match="different group"):
        lie_fixed_points(jlz_series(heis3, 3), identity_automorphism(c9))


def test_lie_fixed_points_frobenius_on_additive_gf125():
    G, phi = build_corpus_instance(
        {"name": "direct_product",
         "params": {"factors": [{"name": "cyclic", "params": {"m": 5}}] * 3},
         "automorphism": {"recipe": "frobenius"}})
    A = build_graded_lie(jlz_series(G, 5))
    assert lie_fixed_points(A.series, phi) is None
    # eigenvalue 1 (j = 0) is the fixed space: the prime subfield
    assert extend_and_eigendecompose(A, phi).dims[0][0] == 1


def test_lie_fixed_points_heisenberg_inversion(heis3):
    G, phi = build_corpus_instance({"name": "heisenberg", "params": {"p": 3},
                                    "automorphism": {"recipe": "power", "k": -1}})
    A = build_graded_lie(jlz_series(G, 3))
    assert lie_fixed_points(A.series, phi) is None
    dims = extend_and_eigendecompose(A, phi).dims
    assert [layer[0] for layer in dims] == [0, 1]  # the central layer is fixed


def test_lie_fixed_points_fail_where_the_fixed_subgroup_misses_a_fixed_layer():
    # phi inverts the generators of heisenberg(3) and fixes its centre, the
    # layer-2 unit; with C_G(phi) replaced by the trivial group, the count on
    # the central layer finds fixed cosets that no fixed element spans
    G, phi = build_corpus_instance({"name": "heisenberg", "params": {"p": 3},
                                    "automorphism": {"recipe": "power", "k": -1}})
    A = build_graded_lie(jlz_series(G, 3))
    twisted_data(phi).fixed = G.trivial_subgroup()
    witness = lie_fixed_points(A.series, phi)
    assert A.weight[witness] == 2
    assert witness == min(x for x in A.series.term(2).members if x)
    vec = A.coords(2, witness)
    assert mat_vec(layer_matrices(A, phi)[1], vec, A.field) == vec
    assert rref(A.lp_layers[1] + (vec,), A.field) == A.lp_layers[1]
    assert not subalgebra_of_subgroup(A, twisted_data(phi).fixed)[1]
    assert fixed_points_by_spans(A, phi, twisted_data(phi).fixed, A.units) == 2


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
    assert verify_eigen_product_rule(ext) is None


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
    with pytest.raises(NotCoprime, match="^action is not coprime$"):
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


def test_eigen_refuses_a_field_above_the_search_bound():
    # F_17 has its 7th roots of unity in degree 6, and 17^3 > gf.MAX_SEARCH
    assert lie.split_field_degree(13, 7) == 2
    with pytest.raises(PreconditionViolated, match=r"order 7 need GF\(17\^6\)"):
        lie.split_field_degree(17, 7)


def test_eigen_heisenberg_inversion_product_rule():
    G, phi = build_corpus_instance({"name": "heisenberg", "params": {"p": 5},
                                    "automorphism": {"recipe": "power", "k": -1}})
    A = build_graded_lie(jlz_series(G, 5))
    ext = extend_and_eigendecompose(A, phi)
    assert ext.dims == [[0, 2], [1, 0]]
    assert verify_eigen_product_rule(ext) is None


def test_a_changed_layer_matrix_breaks_the_eigen_product_rule():
    # layer 1 of heisenberg(5) is the eigenvalue -1 = omega, so brackets of
    # its eigenvectors must be fixed in layer 2; doubling the layer-2 matrix
    # breaks that for the first pair with a nonzero bracket
    G, phi = build_corpus_instance({"name": "heisenberg", "params": {"p": 5},
                                    "automorphism": {"recipe": "power", "k": -1}})
    A = build_graded_lie(jlz_series(G, 5))
    ext = extend_and_eigendecompose(A, phi)
    assert ext.matrices[1] == ((1,),)
    ext.matrices[1] = ((2,),)
    witness = verify_eigen_product_rule(ext)
    assert witness is not None
    (i, ji, u), (j, jj, v) = witness
    assert (i, ji, j, jj) == (1, 1, 1, 1)
    assert u in ext.eigenbases[i - 1][ji] and v in ext.eigenbases[j - 1][jj]
    F = ext.field
    w = A.bracket(i, u, j, v, F)
    lam = F.pow(ext.omega, (ji + jj) % ext.n)
    assert w is not None
    assert mat_vec(ext.matrices[i + j - 1], w, F) != tuple(F.mul(lam, c) for c in w)


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
