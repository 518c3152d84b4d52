"""The theorem verdicts of the group and Lie sections on small p-groups drawn
from fixed pools, and the powerful 2-group on which the odd-p statement of
``powerful_generation`` fails.

In a powerful p-group the elements of order dividing m = p^i generate a
subgroup of exponent dividing m for odd p, and 2m for p = 2 (L. Wilson,
J. Group Theory 5, 2002; for m = p also Hethelyi and Levai, J. Algebra 270,
2003). The pools are permutation groups of degree at most 27, each given by
generators written as tuples.
"""

from hypothesis import given, settings, strategies as st

from coprimelab.groups import generate_group
from coprimelab.numutil import prime_power_base
from coprimelab.report import _group_section, _lie_section
from coprimelab.structure import is_powerful
from helpers import brute_closure, tuple_compose, tuple_inverse, tuple_order, tuple_power


def _wreath(m: int, k: int) -> tuple:
    """C_m wr C_k on m k points: an m-cycle on block 0 and the block shift."""
    degree = m * k
    cycle = tuple((x + 1) % m if x < m else x for x in range(degree))
    return degree, [cycle, tuple((x + m) % degree for x in range(degree))]


def _times_c9(degree: int, gens: list) -> tuple:
    """The pool times C9, which acts on 9 more points."""
    c9 = tuple(range(degree)) + tuple(degree + (x + 1) % 9 for x in range(9))
    return degree + 9, [g + tuple(range(degree, degree + 9)) for g in gens] + [c9]


# degree, generators: the Sylow 2-subgroup of S8 (C2 wr C2 wr C2), C4 wr C4,
# C8 wr C2, C9 wr C3 and (C3 wr C3) x C9
POOLS = {
    "s8_sylow_2": (8, [(1, 0, 2, 3, 4, 5, 6, 7), (2, 3, 0, 1, 4, 5, 6, 7),
                       (4, 5, 6, 7, 0, 1, 2, 3)]),
    "c4_wr_c4": _wreath(4, 4),
    "c8_wr_c2": _wreath(8, 2),
    "c9_wr_c3": _wreath(9, 3),
    "c3_wr_c3_x_c9": _times_c9(*_wreath(3, 3)),
}

# Generated by these, inside C8 wr C2 on 16 points: order 32, exponent 8,
# non-abelian, and powerful (|G'| = |G^4| = 2)
POWERFUL_32 = [(10, 11, 12, 13, 14, 15, 8, 9, 4, 5, 6, 7, 0, 1, 2, 3),
               (10, 11, 12, 13, 14, 15, 8, 9, 0, 1, 2, 3, 4, 5, 6, 7),
               (5, 6, 7, 0, 1, 2, 3, 4, 13, 14, 15, 8, 9, 10, 11, 12)]


def _omega_exponents(elements) -> dict:
    """m -> the exponent of the subgroup that the elements of order dividing
    m generate, for m = 2, 4, ... up to the exponent, on plain tuples."""
    orders = {e: tuple_order(e) for e in elements}
    out, m = {}, 2
    while m <= max(orders.values()):
        out[m] = max(map(tuple_order, brute_closure([e for e, k in orders.items()
                                                     if m % k == 0])))
        m *= 2
    return out


def test_powerful_generation_holds_on_a_powerful_2_group_of_exponent_8():
    elements = brute_closure(POWERFUL_32)
    assert len(elements) == 32 and max(map(tuple_order, elements)) == 8
    derived = brute_closure([tuple_compose(tuple_compose(tuple_inverse(a), tuple_inverse(b)),
                                           tuple_compose(a, b))
                             for a in elements for b in elements])
    fourth_powers = brute_closure([tuple_power(e, 4) for e in elements])
    assert len(derived) == 2 and derived <= fourth_powers
    # the involutions generate exponent 4: the bound m of odd p fails at
    # m = 2, and the bound 2m holds at every m
    assert _omega_exponents(elements) == {2: 4, 4: 4, 8: 8}
    G = generate_group(16, POWERFUL_32)
    assert G.order == 32 and is_powerful(G, 2)
    assert _lie_section(G, None, 2)["powerful_generation"] == "pass"


def _verdicts(section: dict) -> dict:
    return {key: value for key, value in section.items() if value in ("pass", "fail")}


def test_every_theorem_verdict_passes_on_small_p_groups_from_the_pools():
    # subgroups generated by two or three words in a pool's generators
    powerful_2_groups = []

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(st.sampled_from(sorted(POOLS)), st.data())
    def search(pool, data):
        degree, pool_gens = POOLS[pool]
        letter = st.integers(0, len(pool_gens) - 1)
        words = data.draw(st.lists(st.lists(letter, min_size=1, max_size=12),
                                   min_size=2, max_size=3))
        gens = []
        for word in words:
            x = tuple(range(degree))
            for k in word:
                x = tuple_compose(x, pool_gens[k])
            gens.append(x)
        G = generate_group(degree, gens)
        p = prime_power_base(G.order)
        if p is None:
            return
        verdicts = {**_verdicts(_group_section(G)), **_verdicts(_lie_section(G, None, p))}
        assert set(verdicts.values()) <= {"pass"}, (pool, gens, verdicts)
        if p == 2 and "powerful_generation" in verdicts and G.exponent() > 2:
            powerful_2_groups.append(G.order)

    search()
    assert len(powerful_2_groups) >= 5
