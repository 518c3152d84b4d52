"""The base-image kernel and the element store against full-tuple arithmetic
and plain tuple enumeration on the whole corpus."""

import random

import pytest

from coprimelab.corpus import build_corpus_instance, default_corpus, load_instance
from coprimelab.groups import (BYTES_MAX_DEGREE, commutator_subgroup_pair, generate_group,
                               quotient_group)
from helpers import (load_workloads, scan_index, tuple_compose, tuple_enumeration, tuple_inverse,
                     tuple_order, tuple_power)

SAMPLES = 60
# degree 300 > BYTES_MAX_DEGREE: elements are stored as tuples. No corpus or
# benchmark group is; heisenberg(p) acts on p^2 points above that degree.
TUPLE_STORE_SPEC = {"id": "dihedral(300)", "name": "dihedral", "params": {"m": 300}}


def _corpus_groups():
    """Every shipped corpus group and dihedral(300), and G/G' for each
    nonabelian one."""
    out = []
    for spec in default_corpus()["instances"] + [TUPLE_STORE_SPEC]:
        G = build_corpus_instance(spec)[0]
        out.append((spec["id"], G))
        derived = commutator_subgroup_pair(G, G.whole_subgroup(), G.whole_subgroup())
        if not derived.is_trivial:
            out.append((spec["id"] + "/derived", quotient_group(G, derived)))
    return out


def test_kernel_matches_tuple_oracle_on_corpus():
    rng = random.Random(20260101)
    groups = _corpus_groups()
    assert sum(name.endswith("/derived") for name, _ in groups) >= 10
    for name, G in groups:
        for _ in range(SAMPLES):
            a, b = rng.randrange(G.order), rng.randrange(G.order)
            pa, pb = G.elements[a], G.elements[b]
            assert G.mul(a, b) == scan_index(G, tuple_compose(pa, pb)), name
            assert G.inv(a) == scan_index(G, tuple_inverse(pa)), name
            assert G.element_order(a) == tuple_order(pa), name
            m = rng.randrange(2, 6)
            assert G.power_map(m)[a] == scan_index(G, tuple_power(pa, m)), (name, m)


def test_generator_indices_are_the_first_entries_of_the_cayley_columns():
    # against a scan of the elements, on every corpus group, the benchmark's
    # nilpotent_pairs templates and cli_commands files (seed 1), and a raw
    # group with an identity generator and a repeated generator
    workloads = load_workloads()
    specs = default_corpus()["instances"] + [t[1] for t in workloads.PAIR_TEMPLATES]
    specs += workloads.cli_plan(1)["files"].values()
    assert len(specs) == 31 + 6 + 7
    groups = [build_corpus_instance(spec)[0] for spec in specs]
    raw = {"degree": 4, "generators": [[0, 1, 2, 3], [1, 2, 3, 0], [1, 0, 2, 3], [1, 2, 3, 0]]}
    groups.append(load_instance(raw)[0])
    assert groups[-1].generator_indices == (0, 1, 2, 1)
    for G in groups:
        assert G.generator_indices == tuple(scan_index(G, g) for g in G.generators)


def test_base_lengths(glauberman):
    assert glauberman[0].base == (0, 1)
    assert len(build_corpus_instance({"name": "cyclic", "params": {"m": 125}})[0].base) == 1


def test_store_type_follows_degree(glauberman):
    # the base-image columns too: a byte column holds one byte per element
    G = glauberman[0]
    assert type(G._store[1]) is bytes
    assert {type(column) for column in G._base_images} == {bytes}
    G = build_corpus_instance(TUPLE_STORE_SPEC)[0]
    assert G.degree > BYTES_MAX_DEGREE and type(G._store[1]) is tuple
    assert {type(column) for column in G._base_images} == {tuple}


def test_elements_and_words_match_tuple_enumeration_on_corpus():
    groups = _corpus_groups()
    assert any(G.degree > BYTES_MAX_DEGREE for _, G in groups)
    for name, G in groups:
        elements, words = tuple_enumeration(G.degree, G.generators)
        assert len(G.elements) == G.order == len(elements), name
        assert list(G.elements) == elements, name
        for e in range(G.order):
            assert G.elements[e] == elements[e] and G.word(e) == words[e], (name, e)
        for e in (-1, G.order):
            with pytest.raises(IndexError):
                G.word(e)


@pytest.mark.parametrize("m", [BYTES_MAX_DEGREE, BYTES_MAX_DEGREE + 1])
def test_cyclic_group_either_side_of_the_bytes_degree(m):
    gen = tuple((i + 1) % m for i in range(m))
    G = generate_group(m, [gen])
    assert (G.elements, list(map(G.word, range(m)))) == tuple_enumeration(m, [gen])
    for a in (1, m // 2, m - 1):
        pa = G.elements[a]
        assert G.mul(a, a) == scan_index(G, tuple_compose(pa, pa))
        assert scan_index(G, pa) == a and G.inv(a) == m - a
