import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprimelab.errors import CapExceeded, InvalidPermutation, NotNormal
from coprimelab.groups import (are_conjugate, center, centralizer, commutator_subgroup_pair,
                               generate_group, quotient_group, subgroup_generated)
from helpers import (brute_closure, brute_commutator_members, brute_subgroup_members,
                     naive_element_order, naive_exponent, quaternion_group, quotient_projection,
                     scan_index)


def test_s3_order_matches_brute_closure(s3):
    oracle = brute_closure([(1, 2, 0), (1, 0, 2)])
    assert s3.order == len(oracle) == 6
    assert set(s3.elements) == oracle


def test_trivial_group_degree_one():
    G = generate_group(1, [])
    assert G.order == 1
    assert G.elements == [(0,)]


def test_identity_has_index_zero(s3, d4, heis3):
    for G in (s3, d4, heis3):
        assert G.elements[0] == tuple(range(G.degree))


def test_word_soundness(s3, d4, heis3):
    for G in (s3, d4, heis3):
        for e in range(G.order):
            assert G.evaluate_word(G.word(e)) == e


def test_signed_word_evaluation(s3):
    r = s3.generator_indices[0]
    assert s3.evaluate_word((-1,)) == s3.inv(r)
    assert s3.evaluate_word((1, -1)) == 0


@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
@settings(max_examples=50, deadline=None)
def test_closure_and_associativity(heis3, a, b, c):
    assert 0 <= heis3.mul(a, b) < heis3.order
    assert heis3.mul(heis3.mul(a, b), c) == heis3.mul(a, heis3.mul(b, c))
    assert heis3.mul(a, heis3.inv(a)) == 0
    assert heis3.mul(0, a) == a == heis3.mul(a, 0)


def test_element_order_against_naive(s3):
    for x in range(s3.order):
        assert s3.element_order(x) == naive_element_order(s3, x)
    three_cycle = scan_index(s3, (1, 2, 0))
    transposition = scan_index(s3, (1, 0, 2))
    assert s3.element_order(0) == 1
    assert s3.element_order(three_cycle) == 3
    assert s3.element_order(transposition) == 2


def test_group_exponent(s3, c9):
    assert s3.exponent() == naive_exponent(s3) == 6
    assert c9.exponent() == 9
    assert quaternion_group().exponent() == 4


def test_exponent_divisibility_chain(s3, s4, d4, heis3):
    for G in (s3, s4, d4, heis3):
        assert G.order % G.exponent() == 0
        assert all(G.exponent() % G.element_order(x) == 0 for x in range(G.order))


def test_subgroup_generated_empty_and_cycle(s3):
    assert subgroup_generated(s3, ()).members == (0,)
    three_cycle = scan_index(s3, (1, 2, 0))
    H = subgroup_generated(s3, {three_cycle})
    assert H.order == 3
    assert H.member_set == brute_subgroup_members(s3, {three_cycle})


def test_lagrange(s3, s4, d4):
    for G in (s3, s4, d4):
        for x in range(G.order):
            H = subgroup_generated(G, {x})
            assert G.order % H.order == 0


def test_subgroup_gens_generate(s4):
    H = subgroup_generated(s4, {1, 5, 7})
    assert brute_subgroup_members(s4, H.gens) == H.member_set


def test_commutator_subgroup_against_brute(s3, s4, d4):
    for G in (s3, s4, d4):
        whole = G.whole_subgroup()
        got = commutator_subgroup_pair(G, whole, whole)
        assert got.member_set == brute_commutator_members(G, whole, whole)
    derived_s3 = commutator_subgroup_pair(s3, s3.whole_subgroup(), s3.whole_subgroup())
    assert derived_s3.order == 3
    derived_d4 = commutator_subgroup_pair(d4, d4.whole_subgroup(), d4.whole_subgroup())
    assert derived_d4.order == 2
    assert derived_d4.member_set <= center(d4).member_set


def test_commutator_abelian_trivial(c9):
    whole = c9.whole_subgroup()
    assert commutator_subgroup_pair(c9, whole, whole).is_trivial


def test_are_conjugate(s3):
    assert are_conjugate(s3, 0, 0) == 0
    a = scan_index(s3, (1, 2, 0))
    b = scan_index(s3, (2, 0, 1))
    c = are_conjugate(s3, a, b)
    assert c is not None
    assert s3.conjugate(a, c) == b
    transposition = scan_index(s3, (1, 0, 2))
    assert are_conjugate(s3, a, transposition) is None


def test_center_and_centralizer(s3, d4, c9):
    assert center(c9).order == 9
    assert center(s3).is_trivial
    assert center(d4).order == 2
    assert center(quaternion_group()).order == 2
    r = d4.generator_indices[0]
    C = centralizer(d4, [r])
    assert all(d4.mul(g, r) == d4.mul(r, g) for g in C.members)
    assert r in C.member_set


def test_quotient_s3_by_a3(s3):
    A3 = subgroup_generated(s3, {scan_index(s3, (1, 2, 0))})
    Q = quotient_group(s3, A3)
    assert Q.order == 2
    assert Q.order * A3.order == s3.order
    to_q = quotient_projection(s3, Q)
    for x in range(s3.order):
        for y in range(s3.order):
            assert to_q[s3.mul(x, y)] == Q.mul(to_q[x], to_q[y])


def test_quotient_extremes(s3):
    whole = s3.whole_subgroup()
    assert quotient_group(s3, whole).order == 1
    Q = quotient_group(s3, s3.trivial_subgroup())
    assert Q.order == s3.order
    assert Q.exponent() == s3.exponent()


def test_quotient_rejects_non_normal(s3):
    H = subgroup_generated(s3, {scan_index(s3, (1, 0, 2))})
    with pytest.raises(NotNormal, match="generator witness"):
        quotient_group(s3, H)


def test_invalid_permutation_rejected():
    for images in [(0, 0, 1), (0, 1), [1.0, 2, 0], [0, "a", 1], 5]:
        with pytest.raises(InvalidPermutation):
            generate_group(3, [images])


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        generate_group(5, [(1, 2, 3, 4, 0)], cap=3)
    with pytest.raises(CapExceeded):
        generate_group(1, [], cap=0)
