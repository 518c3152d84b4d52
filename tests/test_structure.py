import pytest

from coprimelab.corpus import build_corpus_instance, load_instance
from coprimelab.errors import NotAPGroup, NotSoluble
from coprimelab.groups import generate_group, is_normal, subgroup_generated
from coprimelab.structure import (derived_series, fitting_height, is_powerful,
                                  lower_central_series, power_subgroup)
from helpers import (brute_fitting, brute_power_members, brute_sylow,
                     fitting_height_by_quotients, load_workloads, quaternion_group, scan_index,
                     unitriangular_spec, wreath_spec)
from test_small_p_groups import POOLS


def test_derived_series_abelian(c9):
    s = derived_series(c9)
    assert s.orders == (9, 1)
    assert s.is_soluble and s.derived_length == 1


def test_derived_series_s4_chain(s4):
    s = derived_series(s4)
    # S4 > A4 > V4 > 1
    assert s.orders == (24, 12, 4, 1)
    assert s.derived_length == 3


def test_derived_series_s5_insoluble(s5):
    s = derived_series(s5)
    assert s.orders == (120, 60)
    assert not s.is_soluble
    assert s.derived_length is None


def test_trivial_group_series():
    G = build_corpus_instance({"name": "cyclic", "params": {"m": 1}})[0]
    assert derived_series(G).derived_length == 0
    assert lower_central_series(G).nilpotency_class == 0


def test_lower_central_series(d4, heis3, s3):
    assert lower_central_series(d4).nilpotency_class == 2
    assert lower_central_series(heis3).nilpotency_class == 2
    s = lower_central_series(s3)
    assert not s.is_nilpotent
    assert s.orders == (6, 3)


def test_nilpotent_implies_soluble(d4, heis3, c9):
    for G in (d4, heis3, c9):
        assert lower_central_series(G).is_nilpotent
        assert derived_series(G).is_soluble


def test_series_terms_are_normal(s4, d4):
    for G in (s4, d4):
        for series in (derived_series(G), lower_central_series(G)):
            assert all(is_normal(G, t) for t in series.terms)


# The Sylow subgroups and F(G) below are the oracles of tests/helpers.py,
# which the corpus-wide tests of normal_core and fitting_height rest on.
def test_sylow_subgroups(s3, s4, heis3):
    assert brute_sylow(s3, 3).order == 3
    assert brute_sylow(s3, 2).order == 2
    assert brute_sylow(s3, 5).order == 1
    assert brute_sylow(s4, 2).order == 8
    assert brute_sylow(s4, 3).order == 3
    assert brute_sylow(heis3, 3).order == 27


def test_sylow_order_is_exact_p_part(s4, s5, d4):
    for G, parts in ((s4, (8, 3, 1)), (s5, (8, 3, 5)), (d4, (8, 1, 1))):
        assert tuple(brute_sylow(G, p).order for p in (2, 3, 5)) == parts


def test_sylow_s3_is_a3(s3):
    P = brute_sylow(s3, 3)
    assert P.member_set == subgroup_generated(s3, {scan_index(s3, (1, 2, 0))}).member_set


def test_fitting_subgroup_and_height(s3, s4, heis3):
    assert brute_fitting(s3).order == 3
    assert fitting_height(s3) == 2
    F4 = brute_fitting(s4)
    assert F4.order == 4
    assert sorted(s4.element_order(x) for x in F4.members) == [1, 2, 2, 2]
    assert fitting_height(s4) == 3
    assert brute_fitting(heis3).order == 27
    assert fitting_height(heis3) == 1


def test_fitting_contains_normal_nilpotent(s4):
    F = brute_fitting(s4)
    assert lower_central_series(s4, F).is_nilpotent
    # the Klein subgroup of fixed-point-free involutions is normal nilpotent
    doubles = [x for x in range(s4.order)
               if x == 0 or (s4.element_order(x) == 2
                             and all(img != i for i, img in enumerate(s4.elements[x])))]
    k4 = subgroup_generated(s4, doubles)
    assert k4.order == 4
    assert is_normal(s4, k4)
    assert k4.member_set <= F.member_set


def test_fitting_height_insoluble(s5):
    with pytest.raises(NotSoluble):
        fitting_height(s5)


def _wreath(base: list, top: list) -> tuple:
    """(degree, generators) of B wr T on m k points, from the generators of B
    on m points and of T on k points: B acts on block 0, T moves the blocks."""
    m, k = len(base[0]), len(top[0])
    gens = [tuple(g[x] if x < m else x for x in range(m * k)) for g in base]
    gens += [tuple(m * t[x // m] + x % m for x in range(m * k)) for t in top]
    return m * k, gens


S3, S4 = [(1, 0, 2), (1, 2, 0)], [(1, 0, 2, 3), (1, 2, 3, 0)]
# base, top, order and Fitting height: S4 wr C2, S3 wr S3 and C3 wr S4
WREATHS = [(S4, [(1, 0)], 1152, 3), (S3, S3, 1296, 4), ([(1, 2, 0)], S4, 1944, 4)]


def test_fitting_height_matches_the_quotient_oracle():
    # the lower nilpotent series in G against G <- G/F(G) by quotient groups,
    # F(G) by brute force; the corpus and its quotients are compared in
    # test_group_layer.py
    workloads = load_workloads()
    specs = (workloads.nilpotent_corpus(1)["instances"]
             + list(workloads.cli_plan(1)["files"].values())
             + [unitriangular_spec(3, 4), unitriangular_spec(5, 4)]
             + [wreath_spec(p, k) for p in (2, 3, 5) for k in range(2, p + 1)])
    groups = [load_instance(spec)[0] for spec in specs]
    groups += [generate_group(degree, gens) for degree, gens in POOLS.values()]
    for base, top, order, height in WREATHS:
        G = generate_group(*_wreath(base, top))
        assert (G.order, fitting_height(G)) == (order, height)
        groups.append(G)
    for G in groups:
        assert fitting_height(G) == fitting_height_by_quotients(G), G.order
    assert len(groups) == 30


def test_is_powerful(d4, heis3, c9):
    assert is_powerful(c9, 3)
    assert not is_powerful(d4, 2)
    assert not is_powerful(heis3, 3)
    q8 = quaternion_group()
    # fourth powers collapse while the derived subgroup survives
    assert not is_powerful(q8, 2) or power_subgroup(q8, 4).order > 1
    c16 = build_corpus_instance({"name": "cyclic", "params": {"m": 16}})[0]
    assert is_powerful(c16, 2)


def test_is_powerful_rejects_non_p_group(s3):
    with pytest.raises(NotAPGroup):
        is_powerful(s3, 2)


def test_power_subgroup(c9, s3):
    assert power_subgroup(c9, 1).order == 9
    assert power_subgroup(c9, 3).order == 3
    assert power_subgroup(c9, 3).member_set == brute_power_members(c9, 3)
    sq = power_subgroup(s3, 2)
    assert sq.order == 3
    assert sq.member_set == brute_power_members(s3, 2)


def test_modular_group_shape():
    G, _ = build_corpus_instance({"name": "modular", "params": {"p": 3}})
    assert G.order == 27
    assert G.exponent() == 9
    assert lower_central_series(G).nilpotency_class == 2
