"""The base-image kernel against full-tuple arithmetic on the whole corpus."""

import random

import pytest

from coprimelab.corpus import build_corpus_instance, default_corpus
from coprimelab.groups import commutator_subgroup_pair, quotient_group
from helpers import scan_index, tuple_compose, tuple_inverse, tuple_order, tuple_power

SAMPLES = 60


def _corpus_groups():
    """Every shipped corpus group, and G/G' for each nonabelian one."""
    out = []
    for spec in default_corpus()["instances"]:
        G = build_corpus_instance(spec)[0]
        out.append((spec["id"], G))
        derived = commutator_subgroup_pair(G, G.whole_subgroup(), G.whole_subgroup())
        if not derived.is_trivial:
            out.append((spec["id"] + "/derived", quotient_group(G, derived).quotient))
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
            k = rng.randrange(-2 * G.element_order(a) - 3, 2 * G.element_order(a) + 4)
            assert G.power(a, k) == scan_index(G, tuple_power(pa, k)), (name, k)
            assert G.element_index(pa) == a and pa in G


def test_non_member_with_member_base_images_is_rejected():
    G = build_corpus_instance({"name": "cyclic", "params": {"m": 5}})[0]
    assert G.base == (0,)
    transposition = (1, 0, 2, 3, 4)
    # it sends the base point 0 where the generator does
    assert G.elements[G.generator_indices[0]][0] == transposition[0]
    with pytest.raises(KeyError):
        G.element_index(transposition)
    assert transposition not in G
    assert (0, 1, 2) not in G


def test_base_lengths(glauberman):
    assert glauberman[0].base == (0, 1)
    assert len(build_corpus_instance({"name": "cyclic", "params": {"m": 125}})[0].base) == 1
