"""The automorphism section inside G, and the batched kernel under it.

``fixed_generation`` and the exponent and derived length of H = [G, phi]
read phi on H inside G, and the ``quotient_fixed_points`` check reads fixed
cosets off ``coset_labels``. The sections are compared here with the oracles in
``tests/helpers.py`` that re-enumerate H as a group of its own with the
restricted automorphism, and build each quotient group with its induced
automorphism. ``FiniteGroup.products`` is compared with ``mul``, and
``subgroup_generated``, which closes by whole cosets, with the pairwise
closure for its members and with the closure by elements for its ``gens``.
"""

import copy
import functools
import random

import pytest

from coprimelab import groups, lie, report
from coprimelab.automorphisms import (commutator_twisted_data, default_normal_family,
                                      fixed_generation_S, twisted_data)
from coprimelab.corpus import build_corpus_instance, default_corpus
from coprimelab.groups import coset_labels, subgroup_generated
from coprimelab.lie import NpSeries, jlz_series, verify_np_series
from coprimelab.numutil import prime_power_base
from coprimelab.structure import derived_series, lower_central_series
from helpers import (brute_subgroup_members, closure_by_elements, cyclic_spec, generated_members,
                     heisenberg_spec, modular_spec, per_pair_np_series, product_spec,
                     quotient_fixed_points_by_group, restrict_automorphism)


def _gen_powers(group, powers):
    return {**group, "automorphism": {"recipe": "gen_powers", "powers": list(powers)}}


CORPUS = {spec["id"]: spec for spec in default_corpus()["instances"]}
# The templates of the benchmark's nilpotent_pairs corpus and cli_commands
# files, with the automorphism each seeds a generator of.
TEMPLATES = {
    "heis7_ord6": _gen_powers(heisenberg_spec(7), (3, 5)),
    "heis5_ord4": _gen_powers(heisenberg_spec(5), (2, 2)),
    "c125_ord4": _gen_powers(cyclic_spec(125), (57,)),
    "mod7_ord3": _gen_powers(modular_spec(7), (30, 1)),
    "heis3_c9_inv": _gen_powers(product_spec(heisenberg_spec(3), cyclic_spec(9)), (-1, -1, -1)),
    "c25_c5_ord4": _gen_powers(product_spec(cyclic_spec(25), cyclic_spec(5)), (7, 2)),
    "heis5_fix5": _gen_powers(heisenberg_spec(5), (2, 3)),
    "heis5_c25": _gen_powers(product_spec(heisenberg_spec(5), cyclic_spec(25)), (2, 3, 7)),
    "c5x5": _gen_powers(product_spec(*[cyclic_spec(5)] * 5), (2, 3, 4, 2, 3)),
    "mod5_c25": _gen_powers(product_spec(modular_spec(5), cyclic_spec(25)), (7, 1, -1)),
    "heis7_inv": _gen_powers(heisenberg_spec(7), (-1, -1)),
}
SPECS = {**CORPUS, **TEMPLATES}


@functools.cache
def _group(spec_id: str):
    return build_corpus_instance(SPECS[spec_id])[0]


def _restricted_sections(G, phi) -> dict:
    """The fields of the automorphism section that read phi on H = [G, phi],
    as written from the re-enumerated H and the restriction; a phi that acts
    trivially (H = 1) has its statements skipped."""
    td = twisted_data(phi)
    Hg, rphi, _ = restrict_automorphism(phi, td.commutator_phi)
    out = {"commutator_exponent": Hg.exponent(),
           "commutator_derived_length": derived_series(Hg).derived_length}
    if lower_central_series(G).is_nilpotent:
        r = len(twisted_data(rphi).orbit_reps)
        if Hg.order == 1:
            out["fixed_generation"] = "skipped: phi acts trivially"
        elif r * (r + 1) // 2 > report.PAIR_CAP:
            out["fixed_generation"] = f"skipped: {r * (r + 1) // 2} orbit pairs above the pair cap"
        else:
            gen = fixed_generation_S(rphi)
            out["fixed_generation"] = {"S_size": gen["S_size"],
                                       "generates": "pass" if gen["generates"] else "fail"}
    return out


@pytest.mark.parametrize("spec_id", SPECS)
def test_auto_section_matches_the_restriction_and_quotient_oracles(spec_id):
    G, phi = build_corpus_instance(SPECS[spec_id])
    if phi is None or not phi.coprime:
        pytest.skip("no coprime automorphism")
    section = report._auto_section(G, phi)
    for key, expected in _restricted_sections(G, phi).items():
        assert section[key] == expected, key
    if section["commutator_order"] == 1:
        assert section["coprime_facts"] == "skipped: phi acts trivially"
        return
    family = dict(default_normal_family(phi))
    checks = section["coprime_facts"]["quotient_fixed_points"]
    assert [c["subgroup"] for c in checks] == list(family)
    for check in checks:
        expected = quotient_fixed_points_by_group(phi, family[check["subgroup"]])
        assert check["verdict"] == ("pass" if expected else "fail"), check


def test_every_in_place_section_is_compared():
    sections = {"fixed_generation": 0, "commutator_exponent": 0, "commutator_derived_length": 0,
                "proper": 0}
    for spec_id in SPECS:
        G, phi = build_corpus_instance(SPECS[spec_id])
        if phi is None or not phi.coprime:
            continue
        for key in _restricted_sections(G, phi):
            sections[key] += 1
        sections["proper"] += twisted_data(phi).commutator_phi.order < G.order
    assert sections["fixed_generation"] >= 25
    assert sections["commutator_exponent"] == sections["commutator_derived_length"] >= 35
    # [G, phi] < G, so the restriction is a second enumeration
    assert sections["proper"] >= 8


def test_auto_section_enumerates_no_group(monkeypatch):
    # at the parent of this layout the corpus made 58 calls here: one per
    # restriction and one per quotient of the quotient_fixed_points check
    calls = []
    generate = groups.generate_group

    def counted(*args, **kwargs):
        calls.append(args[0])
        return generate(*args, **kwargs)

    monkeypatch.setattr(groups, "generate_group", counted)
    checked = 0
    for spec in CORPUS.values():
        G, phi = build_corpus_instance(spec)
        if phi is None:
            continue
        calls.clear()
        report._auto_section(G, phi)
        assert calls == [], spec["id"]
        checked += 1
    assert checked >= 25


def test_commutator_exponent_reads_commutator_phi_on_glauberman():
    # [G, phi] is proper here, and its exponent is not that of G
    G, phi = build_corpus_instance(CORPUS["glauberman"])
    H = twisted_data(phi).commutator_phi
    assert 1 < H.order < G.order
    section = report._auto_section(G, phi)
    assert section["commutator_exponent"] == G.exponent_of(H.members) == 155
    assert G.exponent() == 620
    assert section["commutator_derived_length"] == 2


def test_a_coprime_phi_has_the_same_twisted_set_on_g_and_on_commutator_phi():
    """For coprime phi, G = [G, phi] C_G(phi) (Gorenstein, Finite Groups,
    ch. 5), so with H = [G, phi] the twisted set of phi on H has
    |H : C_H(phi)| = |G : C_G(phi)| elements and lies in that on G: the two
    are equal, which is why the report prints the exponent of the twisted
    set once, as theorem 2's ``e``."""
    checked = 0
    for spec_id, spec in SPECS.items():
        phi = build_corpus_instance(spec)[1]
        if phi is not None and phi.coprime:
            assert commutator_twisted_data(phi).twisted == twisted_data(phi).twisted, spec_id
            checked += 1
    assert checked == 39


def test_the_twisted_sets_differ_when_phi_is_not_coprime():
    G, phi = build_corpus_instance(CORPUS["aff9_frob"])
    assert not phi.coprime
    on_g, on_h = twisted_data(phi).twisted, commutator_twisted_data(phi).twisted
    assert (len(on_g), len(on_h)) == (12, 6) and set(on_h) < set(on_g)


def test_fixed_generation_walks_the_twisted_set_of_commutator_phi(monkeypatch):
    """The walk closes pairs of <phi>-orbit representatives of the twisted set
    that ``commutator_twisted_data`` gives, and reads its fixed points.

    Under a coprime action that set equals the twisted set of phi on G, so
    only a substitute tells the two apart: here the set is cut down to the
    identity and one <phi>-orbit."""
    from coprimelab import automorphisms
    G, phi = build_corpus_instance(CORPUS["heis3_c5_inv"])
    td = twisted_data(phi)
    inner = automorphisms.commutator_twisted_data(phi)
    assert inner.commutator_phi == td.commutator_phi and inner.fixed.order < td.fixed.order
    orbit = phi.orbit(inner.twisted[1])
    cut = tuple(sorted({0, *orbit}))
    substitute = copy.copy(inner)
    substitute.twisted = cut
    vars(substitute).pop("orbit_reps", None)  # read off the cut set on first read
    monkeypatch.setattr(automorphisms, "commutator_twisted_data", lambda phi: substitute)
    seeds = []
    closure = automorphisms.phi_invariant_closure

    def counted(phi, pair):
        seeds.append(frozenset(pair))
        return closure(phi, pair)

    monkeypatch.setattr(automorphisms, "phi_invariant_closure", counted)
    out = fixed_generation_S(phi)
    assert seeds == [frozenset({0}), frozenset({0, cut[1]}), frozenset({cut[1]})]
    # S meets the fixed points of phi on [G, phi] only
    assert out["S_size"] <= inner.fixed.order


@pytest.mark.parametrize("spec_id", CORPUS)
def test_products_match_mul(spec_id):
    G = _group(spec_id)
    rng = random.Random(spec_id)
    xs = [rng.randrange(G.order) for _ in range(300)]
    ys = [rng.randrange(G.order) for _ in range(300)]
    assert G.products(xs, ys) == [G.mul(x, y) for x, y in zip(xs, ys)]
    y = ys[0]
    assert G.products(xs, [y] * len(xs)) == [G.mul(x, y) for x in xs]
    assert G.products(iter(xs), iter(ys)) == G.products(xs, ys)
    assert G.products([], []) == []


def test_products_cover_every_base_length():
    lengths = {len(_group(spec_id).base) for spec_id in CORPUS}
    assert {1, 2} <= lengths and max(lengths) > 2


def _seed_sets(G, rng) -> list:
    picks = [[rng.randrange(G.order)] for _ in range(3)]
    picks += [rng.sample(range(G.order), min(2, G.order)) for _ in range(2)]
    picks.append(rng.sample(range(G.order), min(4, G.order)))
    return picks + [list(G.generator_indices), []]


@pytest.mark.parametrize("spec_id", CORPUS)
def test_subgroup_generated_matches_the_oracles(spec_id):
    G = _group(spec_id)
    rng = random.Random(spec_id)
    for seeds in _seed_sets(G, rng):
        H = subgroup_generated(G, seeds)
        members, gens = closure_by_elements(G, seeds)
        assert H.member_set == members == generated_members(G, seeds), seeds
        if H.order <= 400:
            assert H.member_set == brute_subgroup_members(G, seeds), seeds
        assert H.gens == gens, seeds


@pytest.mark.parametrize("spec_id", ["s3", "s4", "d5", "aff8_frob", "glauberman"])
def test_coset_labels_number_right_cosets(spec_id):
    """Labels follow N * x, also for a subgroup that is not normal, where
    x * N is a different partition."""
    G = _group(spec_id)
    rng = random.Random(spec_id)
    for seeds in ([G.generator_indices[0]], [rng.randrange(G.order)]):
        N = subgroup_generated(G, seeds)
        labels, reps = coset_labels(G, N)
        cosets = {}
        for x in range(G.order):
            cosets.setdefault(frozenset(G.mul(n, x) for n in N.members), x)
        assert reps == sorted(cosets.values())
        for coset, least in cosets.items():
            assert {labels[x] for x in coset} == {reps.index(least)}
    H = subgroup_generated(G, [G.generator_indices[0]])
    labels, reps = coset_labels(G, G.trivial_subgroup(), within=H)
    assert reps == list(H.members)
    assert [x for x in range(G.order) if labels[x] < 0] == sorted(set(range(G.order))
                                                                   - H.member_set)


def test_some_coset_labelling_is_not_normal():
    G = _group("s3")
    N = subgroup_generated(G, [G.generator_indices[1]])
    right = {frozenset(G.mul(n, x) for n in N.members) for x in range(G.order)}
    left = {frozenset(G.mul(x, n) for n in N.members) for x in range(G.order)}
    assert right != left


def test_automorphism_order_is_the_order_of_its_element_permutation():
    for spec_id in SPECS:
        G, phi = build_corpus_instance(SPECS[spec_id])
        if phi is None:
            continue
        k, power = 1, list(phi.table)
        while power != list(range(G.order)):
            power = [phi.table[y] for y in power]
            k += 1
        assert phi.order_n == k, spec_id


P_GROUPS = [spec_id for spec_id in SPECS if prime_power_base(_group(spec_id).order)]


def test_np_series_check_matches_the_per_pair_walk():
    checked = 0
    for spec_id in P_GROUPS:
        G = _group(spec_id)
        p = prime_power_base(G.order)
        series = jlz_series(G, p)
        assert verify_np_series(series) == per_pair_np_series(series), spec_id
        checked += 1
    assert checked >= 25
    # series with repeated terms give the same first witness, or none
    G = _group("heis3_inv")
    whole, Z, one = G.whole_subgroup(), lower_central_series(G).terms[1], G.trivial_subgroup()
    C = _group("c9_inv")
    series = [NpSeries(G, 3, terms) for terms in [(whole, whole, one), (whole, Z, Z, one)]]
    series.append(NpSeries(C, 3, (C.whole_subgroup(), C.whole_subgroup(), C.trivial_subgroup())))
    witnesses = [verify_np_series(S) for S in series]
    assert witnesses == [per_pair_np_series(S) for S in series]
    assert witnesses == [("commutator", 1, 2), None, ("power", 1)]


def test_np_series_check_commutes_once_per_distinct_pair_of_terms(monkeypatch):
    G = _group("c125_ord4")
    series = jlz_series(G, 5)
    # the series of C125 repeats each of its four nontrivial terms
    assert len(series.terms) == 26 and len(set(series.terms)) == 4
    calls = []
    pair = lie.commutator_subgroup_pair

    def counted(G, H, K):
        calls.append((H, K))
        return pair(G, H, K)

    monkeypatch.setattr(lie, "commutator_subgroup_pair", counted)
    assert verify_np_series(series) is None
    # 325 at one subgroup per index pair
    assert len(calls) == 6
