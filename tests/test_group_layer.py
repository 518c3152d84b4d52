"""The group layer against brute-force oracles on the whole corpus, and pinned
operation counts that fail if the layer goes back to |G|-wide scans.

The order and inverse tables come from one power walk per cyclic subgroup,
cores such as O_p(G) intersect conjugates by the generators only, the
Fitting height walks the lower nilpotent series inside G, and the centre is
scanned once per group. Each is checked here against an oracle that uses
none of those shortcuts, on every corpus group and on one quotient of each
nonabelian one.
"""

import collections
import functools
import gc
import weakref

import pytest

from coprimelab import groups, report
from coprimelab.corpus import build_corpus_instance, default_corpus, load_instance
from coprimelab.automorphisms import twisted_data
from coprimelab.groups import (Subgroup, center, is_normal, normal_core, quotient_group,
                               subgroup_generated)
from coprimelab.numutil import factorization
from coprimelab.structure import derived_series, fitting_height, lower_central_series
from helpers import (ProductCounter, brute_center, brute_core, brute_fitting,
                     brute_subgroup_members, brute_sylow, cycle_order, fitting_height_by_quotients,
                     load_workloads, naive_element_order, scan_inverses, series_orders_by_set)

# naive_element_order costs the sum of all element orders in products, about
# 1.3M on Glauberman's group; above this order the cycle lengths are the oracle.
NAIVE_ORDER_LIMIT = 1000


SPECS = {spec["id"]: spec for spec in default_corpus()["instances"]}


@functools.cache
def _groups(spec_id: str) -> tuple:
    """The corpus group, then, when it is nonabelian, its quotient by its last
    nontrivial derived term."""
    G = build_corpus_instance(SPECS[spec_id])[0]
    terms = derived_series(G).terms
    if len(terms) == 1 or terms[1].is_trivial:
        return (G,)
    N = next(t for t in reversed(terms) if not t.is_trivial)
    return G, quotient_group(G, N)


def test_nonabelian_corpus_groups_bring_a_quotient():
    for spec_id in ("s5", "d32", "heis5_inv", "glauberman"):
        G, Q = _groups(spec_id)
        assert 1 < Q.order < G.order, spec_id
    assert len(_groups("c64")) == 1


@pytest.mark.parametrize("spec_id", SPECS)
def test_orders_and_inverses_match_oracles(spec_id):
    for G in _groups(spec_id):
        naive = G.order <= NAIVE_ORDER_LIMIT
        for x in range(G.order):
            expected = naive_element_order(G, x) if naive else cycle_order(G.elements[x])
            assert G.element_order(x) == expected, (G, x)
        assert [G.inv(x) for x in range(G.order)] == scan_inverses(G), G


@pytest.mark.parametrize("spec_id", SPECS)
def test_center_matches_all_pairs_commutation(spec_id):
    for G in _groups(spec_id):
        assert center(G).member_set == brute_center(G), G
        # the second call reads the cache
        assert center(G).member_set == brute_center(G), G


@pytest.mark.parametrize("spec_id", SPECS)
def test_sylow_core_and_fitting_match_oracles(spec_id):
    # the core of a Sylow p-subgroup is O_p(G), and F(G) is the join of the
    # O_p(G); the Fitting height walks the lower nilpotent series
    for G in _groups(spec_id):
        cores = []
        for p, k in factorization(G.order).items():
            P = brute_sylow(G, p)
            assert P.order == p ** k, (G, p)
            assert brute_subgroup_members(G, P.gens) == P.member_set, (G, p)
            core = normal_core(G, P)
            assert core.member_set == brute_core(G, P), (G, p)
            cores.append(core)
        fitting = brute_subgroup_members(G, [x for core in cores for x in core.members])
        assert brute_fitting(G).member_set == fitting, G
        if derived_series(G).is_soluble:
            assert fitting_height(G) == fitting_height_by_quotients(G), G


def test_normal_core_matches_intersection_of_all_conjugates():
    # every Sylow subgroup, C_G(phi), [G, phi], Z(G) and the first non-normal
    # cyclic subgroup, on the corpus groups of order <= 2000 and the
    # nilpotent_pairs templates
    specs = list(SPECS.values()) + load_workloads().nilpotent_corpus(1)["instances"]
    checked = proper = 0
    for spec in specs:
        G, phi = build_corpus_instance(spec)
        if G.order > 2000:
            continue
        subgroups = [brute_sylow(G, p) for p in factorization(G.order)] + [center(G)]
        if phi is not None:
            td = twisted_data(phi)
            subgroups += [td.fixed, td.commutator_phi]
        cyclic = (subgroup_generated(G, [x]) for x in range(1, G.order))
        non_normal = next((C for C in cyclic if not is_normal(G, C)), None)
        if non_normal is not None:
            subgroups.append(non_normal)
        for H in subgroups:
            core = normal_core(G, H)
            assert core.member_set == brute_core(G, H), (spec.get("id"), H.order)
            assert brute_subgroup_members(G, core.gens) == core.member_set, spec.get("id")
            proper += core.order < H.order
            checked += 1
    assert checked >= 160 and proper >= 30, (checked, proper)


def _report_subgroups(G, phi) -> list:
    """(name, subgroup) for the subgroups of G that the report builds: the
    derived and lower central terms read back from ``G.cache``, the centre,
    the whole group, C_G(phi) and [G, phi]."""
    # the caches hold the series themselves
    assert derived_series(G) is G.cache["derived"] is derived_series(G)
    assert lower_central_series(G) is G.cache["lower-central"] is lower_central_series(G)
    out = [(f"{kind}[{i}]", term) for kind in ("derived", "lower-central")
           for i, term in enumerate(G.cache[kind].terms)]
    out += [("center", center(G)), ("whole", G.whole_subgroup())]
    if phi is not None:
        td = twisted_data(phi)
        out += [("fixed", td.fixed), ("commutator_phi", td.commutator_phi)]
    return out


def _built(H) -> bool:
    """Whether H's member set is in its slot, read past ``__getattr__``,
    which would build it."""
    try:
        Subgroup.member_set.__get__(H)
    except AttributeError:
        return False
    return True


def test_member_sets_built_on_first_read_keep_their_meaning():
    # on the corpus groups of order <= 2000 and the nilpotent_pairs templates
    specs = list(SPECS.values()) + load_workloads().nilpotent_corpus(1)["instances"]
    checked = unbuilt = 0
    for spec in specs:
        G, phi = build_corpus_instance(spec)
        if G.order > 2000:
            continue
        named = _report_subgroups(G, phi)
        for name, H in named:
            label = (spec.get("id"), name)
            unbuilt += not _built(H)
            assert H.member_set == frozenset(H.members), label
            assert _built(H) and Subgroup.member_set.__get__(H) is H.member_set, label
            eager = Subgroup(H.members, H.gens)
            assert eager.member_set == H.member_set and _built(eager), label
            lazy = Subgroup(H.members, H.gens)
            assert not _built(lazy), label
            assert lazy == eager and eager == lazy and hash(lazy) == hash(eager), label
            checked += 1
        # equal iff the member sets are equal, whatever has been built, and
        # comparing two fresh subgroups builds neither member set; the first
        # few subgroups of order 2 differ from each other in one member only
        involutions = [x for x in range(G.order) if G.element_order(x) == 2][:8]
        pool = named + [(f"<{x}>", Subgroup((0, x), (x,))) for x in involutions]
        for name, H in pool:
            lazy = Subgroup(H.members, H.gens)
            for other, K in pool:
                label = (spec.get("id"), name, other)
                same = frozenset(H.members) == frozenset(K.members)
                assert (lazy == K) == same and (K == lazy) == same, label
                fresh = Subgroup(K.members, K.gens)
                assert (lazy == fresh) == same and (fresh == lazy) == same, label
                assert not _built(lazy) and not _built(fresh), label
        # the series of G (cached) and of [G, phi]
        for H in [None] + ([twisted_data(phi).commutator_phi] if phi is not None else []):
            for series, kind in ((derived_series, "derived"),
                                 (lower_central_series, "lower-central")):
                expected = series_orders_by_set(G, H or G.whole_subgroup(), kind)
                assert series(G, H).orders == expected, (spec.get("id"), kind)
    # 313 subgroups, 203 of them not yet asked for their member set
    assert checked >= 300 and unbuilt >= 100, (checked, unbuilt)


# _group_section on Glauberman's affine(5,3), |G| = 15,500: series, exponent
# and Fitting height, counting ``mul`` calls and the pairs of ``products``
# batches alike. The height walks the lower nilpotent series inside G from
# the cached lower central series, with no Sylow subgroup, core or quotient
# group (with them it was 17,127). Of the 669, 174 are ``mul`` calls in
# conjugates and commutators and the rest are in batches; the powers of each
# closure's first generator come from a ``_cycle`` walk, which is not counted.
GLAUBERMAN_GROUP_SECTION_MULS = 669
GLAUBERMAN_GROUP_SECTION_SCALAR_MULS = 174


def test_glauberman_group_section_mul_count_is_pinned(monkeypatch):
    G, _, _ = load_instance(SPECS["glauberman"])
    products = ProductCounter(monkeypatch)
    report._group_section(G)
    assert products.count == GLAUBERMAN_GROUP_SECTION_MULS
    assert products.muls == GLAUBERMAN_GROUP_SECTION_SCALAR_MULS


def test_center_is_scanned_once_per_group(monkeypatch):
    scanned = []
    centralizer = groups.centralizer

    def counted(G, elems):
        scanned.append(G)
        return centralizer(G, elems)

    monkeypatch.setattr(groups, "centralizer", counted)
    for spec_id, spec in SPECS.items():
        scanned.clear()
        report.analyze_instance(spec)
        # the list keeps every group alive, so no two of them share an id
        assert len(scanned) == len({id(G) for G in scanned}), spec_id
        if spec_id == "glauberman":
            # asked for three times: default_normal_family runs twice and
            # check_coprime_facts asks once more
            assert len(scanned) == 1


def test_one_whole_subgroup_handle_per_group(monkeypatch):
    # over a corpus pass: which group each whole-subgroup handle came from,
    # and how many times each handle's member set was built
    handles = {}
    builds = collections.Counter()
    whole = groups.FiniteGroup.whole_subgroup
    build = Subgroup.__getattr__

    def recorded(G):
        H = whole(G)
        # the handle and its group stay alive, so no other object takes their ids
        handles[id(H)] = (G, H)
        return H

    def counted(H, name):
        if name == "member_set" and id(H) in handles:
            builds[id(H)] += 1
        return build(H, name)

    monkeypatch.setattr(groups.FiniteGroup, "whole_subgroup", recorded)
    monkeypatch.setattr(Subgroup, "__getattr__", counted)
    for spec in SPECS.values():
        report.analyze_instance(spec)
    per_group = collections.Counter()
    for G, H in handles.values():
        per_group[id(G)] += builds[id(H)]
    # 22 of the 31 groups build it once; fresh handles made 49 builds over 155 handles
    assert max(per_group.values()) == 1 and sum(per_group.values()) >= 20, per_group
    for G, H in list(handles.values()):
        assert G.whole_subgroup() is G.whole_subgroup() is H


def test_groups_are_freed_without_the_cycle_collector(monkeypatch):
    # the caches keep subgroups and series, which hold no reference to the group
    refs = []
    load = report.load_instance

    def loaded(spec):
        out = load(spec)
        refs.append((spec["id"], weakref.ref(out[0])))
        return out

    monkeypatch.setattr(report, "load_instance", loaded)
    gc.collect()
    gc.disable()
    try:
        for spec in SPECS.values():
            report.analyze_instance(spec)
        alive = [spec_id for spec_id, ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert len(refs) == len(SPECS)
    assert alive == []
