"""The Cayley columns that enumeration keeps, and the tree walks over them,
against ``mul`` on the whole corpus.

``G._right[i][x]`` is x * generator i. Automorphism tables, the homomorphism
check, quotient projections and the centre's membership test are walks over
such columns and make no ``mul`` call. Each is compared here with the ``mul``
walk or scan it replaced, on every corpus group, on the quotient by its last
nontrivial derived term (as in test_group_layer.py) and on the restriction
of the corpus automorphism to [G, phi]. ``are_conjugate`` compares a walk
from x with y's right column; it is compared with the full scan of
conjugators on every corpus group. Three hand-picked maps pin the outcomes
of the validation: a homomorphism with a kernel, a map that is neither
bijective nor a homomorphism, and a bijective non-homomorphism. Two tables
handed to ``Automorphism`` directly pin its own bounds.
"""

import functools
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from coprimelab import groups
from coprimelab.automorphisms import automorphism_from_images, twisted_data
from coprimelab.corpus import build_corpus_instance, default_corpus
from coprimelab.errors import NotBijective, NotHomomorphism
from coprimelab.groups import center, quotient_group, subgroup_generated
from coprimelab.structure import derived_series
from helpers import (ProductCounter, brute_center, double_scan_outcome,
                     least_conjugators_by_scan, mul_tree_walk, quotient_automorphism,
                     quotient_projection, restrict_automorphism)

SPECS = {spec["id"]: spec for spec in default_corpus()["instances"]}


def _last_derived(G):
    """The last nontrivial derived term of a nonabelian G, else None."""
    terms = derived_series(G).terms
    if len(terms) == 1 or terms[1].is_trivial:
        return None
    return next(t for t in reversed(terms) if not t.is_trivial)


@functools.cache
def _cases(spec_id: str) -> tuple:
    """(label, group, automorphism or None): the corpus group, its quotient by
    the last nontrivial derived term and the restriction to [G, phi]."""
    G, phi = build_corpus_instance(SPECS[spec_id])
    out = [(spec_id, G, phi)]
    N = _last_derived(G)
    if N is not None:
        Q = quotient_group(G, N)
        # derived terms are characteristic, so phi induces a map on G/N
        out.append((spec_id + "/derived", Q,
                    quotient_automorphism(phi, N, Q) if phi is not None else None))
    if phi is not None:
        H, rphi, _ = restrict_automorphism(phi, twisted_data(phi).commutator_phi)
        if H is not G:
            out.append((spec_id + "/[G,phi]", H, rphi))
    return tuple(out)


def _images(G, phi) -> list:
    return [phi.table[g] for g in G.generator_indices]


def test_every_kind_of_case_is_covered():
    labels = [label for spec_id in SPECS for label, _, _ in _cases(spec_id)]
    assert sum(label.endswith("/derived") for label in labels) >= 10
    assert sum(label.endswith("/[G,phi]") for label in labels) >= 10


@pytest.mark.parametrize("spec_id", SPECS)
def test_cayley_columns_and_tree_match_mul(spec_id):
    for label, G, _ in _cases(spec_id):
        assert len(G._right) == len(G.generators), label
        for column, g in zip(G._right, G.generator_indices):
            assert column == [G.mul(x, g) for x in range(G.order)], label
        for y in range(1, G.order):
            g = G.generator_indices[G._tree_gen[y]]
            assert G.mul(G._tree_parent[y], g) == y, (label, y)


@pytest.mark.parametrize("spec_id", SPECS)
def test_left_walks_and_right_columns_match_mul(spec_id):
    rng = random.Random(spec_id)
    for label, G, _ in _cases(spec_id):
        for t in {0, G.order - 1, *(rng.randrange(G.order) for _ in range(3))}:
            assert G.extend_images(G._right, t) == [G.mul(t, x) for x in range(G.order)], label
            assert list(G.right_column(t)) == [G.mul(x, t) for x in range(G.order)], label


@pytest.mark.parametrize("spec_id", SPECS)
def test_are_conjugate_matches_the_full_scan(spec_id):
    """Every pair (x, y) up to order 200. Above it, three x, each against ten
    random y and ten random conjugates of x."""
    G = _cases(spec_id)[0][1]
    rng = random.Random(spec_id)
    small = G.order <= 200
    for x in range(G.order) if small else rng.sample(range(G.order), 3):
        least = least_conjugators_by_scan(G, x)
        ys = range(G.order) if small else (rng.sample(range(G.order), 10)
                                           + rng.sample(sorted(least), min(10, len(least))))
        for y in ys:
            assert groups.are_conjugate(G, x, y) == least.get(y), (spec_id, x, y)


@pytest.mark.parametrize("spec_id", SPECS)
def test_automorphism_tables_match_the_mul_walk(spec_id):
    for label, G, phi in _cases(spec_id):
        if phi is None:
            continue
        images = _images(G, phi)
        assert phi.table == tuple(mul_tree_walk(G, images, G.mul)), label
        assert automorphism_from_images(G, images).table == phi.table, label


def _outcome(G, images) -> tuple:
    try:
        return ("table", automorphism_from_images(G, images).table)
    except NotBijective:
        return ("NotBijective",)
    except NotHomomorphism as exc:
        return ("NotHomomorphism", str(exc), exc.witness)


def test_broken_images_fail_where_the_double_scan_fails():
    kinds = []
    for spec_id in SPECS:
        rng = random.Random(spec_id)
        for label, G, phi in _cases(spec_id):
            k = len(G.generator_indices)
            trials = [[rng.randrange(G.order) for _ in range(k)] for _ in range(6)]
            # a generator image moved to the next generator's
            trials += [list(G.generator_indices[1:] + G.generator_indices[:1])]
            if phi is not None:
                # phi with one image multiplied by another generator image
                images = _images(G, phi)
                trials.append([images[0] if i else G.mul(images[0], images[-1])
                               for i in range(k)] if k else [])
            for images in trials:
                expected = double_scan_outcome(G, images)
                assert _outcome(G, images) == expected, (label, images)
                kinds.append(expected[0])
    assert kinds.count("NotHomomorphism") >= 20, kinds.count("NotHomomorphism")
    assert "table" in kinds and "NotBijective" in kinds


@pytest.mark.parametrize("spec_id", SPECS)
def test_quotient_projection_matches_the_mul_walk(spec_id):
    G = _cases(spec_id)[0][1]
    N = _last_derived(G)
    for kernel in ([N] if N is not None else []) + [G.whole_subgroup()]:
        Q = quotient_group(G, kernel)
        expected = mul_tree_walk(G, Q.generator_indices, Q.mul)
        assert quotient_projection(G, Q) == expected, spec_id


@pytest.mark.parametrize("spec_id", SPECS)
def test_center_of_the_restriction_matches_all_pairs_commutation(spec_id):
    # the corpus groups and their quotients are in test_group_layer.py
    for label, H, _ in _cases(spec_id):
        if label.endswith("/[G,phi]"):
            assert center(H).member_set == brute_center(H), label


@pytest.mark.parametrize("spec_id", SPECS)
def test_walks_make_no_mul_call(spec_id, monkeypatch):
    G, phi = build_corpus_instance(SPECS[spec_id])
    N = _last_derived(G)
    images = _images(G, phi) if phi is not None else list(G.generator_indices)
    products = ProductCounter(monkeypatch)
    assert automorphism_from_images(G, images).table == (
        phi.table if phi is not None else tuple(range(G.order)))
    assert products.count == 0, spec_id
    # the centre's membership walk makes none: its products are those of
    # closing the members it finds, all in batches
    Z = center(G)
    closure = products.count
    subgroup_generated(G, Z.members)
    assert products.count == 2 * closure, spec_id
    assert products.muls == 0, spec_id
    if N is not None:
        before, muls_before = products.count, products.muls
        Q = quotient_group(G, N)
        # two products per conjugate of a kernel generator by a generator for
        # the normality check, the only ``mul`` calls; in batches, one per
        # element for the coset labels and one per generator and coset for
        # the coset action; none for the projection
        k = len(G.generators)
        assert products.muls - muls_before == 2 * k * len(N.gens), spec_id
        assert products.count - before == (2 * k * len(N.gens) + G.order
                                           + k * Q.order), spec_id


def _law_holds(G, table, images) -> bool:
    """table[x * g_i] == table[x] * images[i] for every x and generator i, by ``mul``."""
    return all(table[G.mul(x, s)] == G.mul(table[x], images[gi])
               for x in range(G.order) for gi, s in enumerate(G.generator_indices))


def test_a_homomorphism_with_a_kernel_is_not_bijective(monkeypatch):
    # t -> t^2 on cyclic(4) keeps the law; its kernel {1, t^2} has order 2
    G, _ = build_corpus_instance({"name": "cyclic", "params": {"m": 4}})
    (t,) = G.generator_indices
    images = [G.mul(t, t)]
    table = mul_tree_walk(G, images, G.mul)
    assert _law_holds(G, table, images)
    assert table.count(0) == 2

    def accepted(group, table):
        # an Automorphism of this map would walk the orbit of t forever
        raise AssertionError("a map with a kernel was accepted")

    monkeypatch.setattr(groups, "Automorphism", accepted)
    with pytest.raises(NotBijective):
        automorphism_from_images(G, images)


# Automorphism(G, table) in a child process under a timeout and this
# address-space limit, so that an orbit walk that never ends fails the test
# instead of filling the host's memory
CHILD_ADDRESS_SPACE = 256 << 20
AUTOMORPHISM_OF_TABLE = """
import ast, sys
from coprimelab.corpus import build_corpus_instance
from coprimelab.errors import NotBijective
from coprimelab.groups import Automorphism
G, _ = build_corpus_instance({"name": "cyclic", "params": {"m": 4}})
table = ast.literal_eval(sys.argv[1])
try:
    Automorphism(G, table)
except NotBijective as exc:
    print("NotBijective:", exc)
"""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize("square", [True, False], ids=["t_to_t_squared", "short_table"])
def test_automorphism_of_a_table_that_is_no_bijection_is_not_bijective(square):
    # t -> t^2 on cyclic(4) walks t, t^2, 1, 1, ... and never meets t again;
    # (0, 1) names two of the four elements
    G, _ = build_corpus_instance({"name": "cyclic", "params": {"m": 4}})
    (t,) = G.generator_indices
    table = tuple(mul_tree_walk(G, [G.mul(t, t)], G.mul)) if square else (0, 1)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", AUTOMORPHISM_OF_TABLE, repr(table)], env=env,
                         capture_output=True, text=True, timeout=60,
                         preexec_fn=_limit_address_space)
    assert (out.returncode, out.stdout) == (
        0, "NotBijective: generator images do not induce a bijection\n"), out.stderr


def test_a_map_that_is_neither_bijective_nor_a_homomorphism_is_not_bijective(s3):
    # both generators of S3 to the 3-cycle: the image is <3-cycle>, and the
    # transposition's square goes to the 3-cycle's square
    a, b = s3.generator_indices
    images = [a, a]
    table = mul_tree_walk(s3, images, s3.mul)
    assert len(set(table)) == 3 and not _law_holds(s3, table, images)
    assert double_scan_outcome(s3, images) == ("NotBijective",)
    with pytest.raises(NotBijective):
        automorphism_from_images(s3, images)


def test_a_bijective_non_homomorphism_names_the_least_broken_pair():
    G, _ = build_corpus_instance(SPECS["heis3_c5_inv"])
    images = [25, 47, 75]
    assert len(set(mul_tree_walk(G, images, G.mul))) == G.order
    expected = ("NotHomomorphism", "map breaks at element 3 times generator 0", (3, 1))
    assert double_scan_outcome(G, images) == expected
    assert _outcome(G, images) == expected
