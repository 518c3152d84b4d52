"""The Cayley columns that enumeration keeps, and the tree walks over them,
against ``mul`` on the whole corpus.

``G._right[i][x]`` is x * generator i. Automorphism tables, the homomorphism
check, quotient projections and the centre's membership test are walks over
such columns and make no ``mul`` call. Each is compared here with the ``mul``
walk or scan it replaced, on every corpus group, on the quotient by its last
nontrivial derived term (as in test_group_layer.py) and on the restriction
of the corpus automorphism to [G, phi]. ``are_conjugate`` compares a walk
from x with y's right column; it is compared with the full scan of
conjugators on every corpus group. ``Automorphism(G, images)`` is the one
way to build an automorphism. Three hand-picked maps pin the outcomes of its
validation: a homomorphism with a kernel, a map that is neither bijective
nor a homomorphism, and a bijective non-homomorphism. Images that are no
element indices, or too few or too many, are a ValueError before any walk,
and a fuzz over the small corpus groups holds every outcome to the ``mul``
double scan.
"""

import functools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprimelab import groups
from coprimelab.automorphisms import Automorphism, build_automorphism, twisted_data
from coprimelab.corpus import build_corpus_instance, default_corpus
from coprimelab.errors import NotBijective, NotHomomorphism
from coprimelab.groups import center, quotient_group, subgroup_generated
from coprimelab.structure import derived_series
from helpers import (ProductCounter, brute_center, cycle_order, double_scan_outcome,
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
        assert Automorphism(G, images).table == phi.table, label


def _outcome(G, images) -> tuple:
    try:
        return ("table", Automorphism(G, images).table)
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
    assert Automorphism(G, images).table == (
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


def _refuse_orbit_walks(monkeypatch):
    """Make the orbit walk fail: on a table that is no bijection, the walk
    from a generator never meets it again, so a map the constructor wrongly
    accepted would fail here instead of filling the host's memory."""
    def walk(phi, x):
        raise AssertionError("an orbit walk ran on a map the checks did not refuse")

    monkeypatch.setattr(groups.Automorphism, "orbit", walk)


def test_a_homomorphism_with_a_kernel_is_not_bijective(monkeypatch):
    # t -> t^2 on cyclic(4) keeps the law; its kernel {1, t^2} has order 2
    G, _ = build_corpus_instance({"name": "cyclic", "params": {"m": 4}})
    (t,) = G.generator_indices
    images = [G.mul(t, t)]
    table = mul_tree_walk(G, images, G.mul)
    assert _law_holds(G, table, images)
    assert table.count(0) == 2
    _refuse_orbit_walks(monkeypatch)
    with pytest.raises(NotBijective):
        Automorphism(G, images)


@pytest.mark.parametrize("square", [True, False], ids=["t_to_t_squared", "short_table"])
def test_automorphism_of_a_table_that_is_no_bijection_is_not_bijective(square, monkeypatch):
    # the table of t -> t^2 on cyclic(4), or (0, 1), which names two of its
    # four elements, is no list of one image per generator: it is refused
    # before any walk (t -> t^2 from its one image is the test above)
    G, _ = build_corpus_instance({"name": "cyclic", "params": {"m": 4}})
    (t,) = G.generator_indices
    table = tuple(mul_tree_walk(G, [G.mul(t, t)], G.mul)) if square else (0, 1)
    _refuse_orbit_walks(monkeypatch)
    with pytest.raises(ValueError, match="expected one element index"):
        Automorphism(G, table)


def test_a_map_that_is_neither_bijective_nor_a_homomorphism_is_not_bijective(s3):
    # both generators of S3 to the 3-cycle: the image is <3-cycle>, and the
    # transposition's square goes to the 3-cycle's square
    a, b = s3.generator_indices
    images = [a, a]
    table = mul_tree_walk(s3, images, s3.mul)
    assert len(set(table)) == 3 and not _law_holds(s3, table, images)
    assert double_scan_outcome(s3, images) == ("NotBijective",)
    with pytest.raises(NotBijective):
        Automorphism(s3, images)


def test_a_bijective_non_homomorphism_names_the_least_broken_pair():
    G, _ = build_corpus_instance(SPECS["heis3_c5_inv"])
    images = [25, 47, 75]
    assert len(set(mul_tree_walk(G, images, G.mul))) == G.order
    expected = ("NotHomomorphism", "map breaks at element 3 times generator 0", (3, 1))
    assert double_scan_outcome(G, images) == expected
    assert _outcome(G, images) == expected


def test_a_spec_automorphism_keeps_its_witness():
    G, _ = build_corpus_instance(SPECS["heis3_c5_inv"])
    spec = dict(SPECS["heis3_c5_inv"], automorphism={"images": [list(G.word(x))
                                                                for x in (25, 47, 75)]})
    with pytest.raises(NotHomomorphism, match="^automorphism: map breaks at element 3 times "
                                              "generator 0$") as raised:
        build_corpus_instance(spec)
    assert raised.value.witness == (3, 1)


def test_bad_images_get_an_honest_error_at_once(s3, monkeypatch):
    c4, c5 = (build_corpus_instance({"name": "cyclic", "params": {"m": m}})[0] for m in (4, 5))
    cases = []
    for G in (c4, c5, s3):
        # one bad entry in place of the first generator's image, none, one too many
        good = list(G.generator_indices)
        cases += [(G, [bad] + good[1:], ValueError) for bad in (max(5, G.order), -1, True, 2.0)]
        cases += [(G, [], ValueError), (G, good + [0], ValueError)]
    (t,) = c4.generator_indices
    a, _ = s3.generator_indices
    heis = _cases("heis3_c5_inv")[0][1]
    cases += [(c4, [c4.mul(t, t)], NotBijective), (s3, [a, a], NotBijective),
              (heis, [25, 47, 75], NotHomomorphism)]
    _refuse_orbit_walks(monkeypatch)
    for G, images, error in cases:
        start = time.perf_counter()
        with pytest.raises(error) as raised:
            Automorphism(G, images)
        assert time.perf_counter() - start < 1, (G.order, images)
    assert raised.value.witness == (3, 1)


@functools.cache
def _small_groups() -> tuple:
    """(group, its corpus automorphism's images or None) for every corpus
    group of order at most 2000."""
    return tuple((G, _images(G, phi) if phi is not None else None)
                 for G, phi in (_cases(spec_id)[0][1:] for spec_id in SPECS) if G.order <= 2000)


def _scan_outcome(G, images) -> tuple:
    """What ``Automorphism(G, images)`` must do: ("ValueError",) unless the
    images are a list or tuple of one element index per generator, else the
    outcome of the ``mul`` double scan."""
    if (not isinstance(images, (list, tuple)) or len(images) != len(G.generator_indices)
            or any(type(s) is not int or not 0 <= s < G.order for s in images)):
        return ("ValueError",)
    return double_scan_outcome(G, images)


def _word_by_mul(G, word) -> int:
    out = 0
    for k in word:
        g = G.generator_indices[abs(k) - 1]
        out = G.mul(out, g if k > 0 else G.inv(g))
    return out


def _call_outcome(call) -> tuple:
    try:
        phi = call()
    except ValueError:
        return ("ValueError",)
    except NotBijective:
        return ("NotBijective",)
    except NotHomomorphism as exc:
        return ("NotHomomorphism", str(exc), exc.witness)
    assert phi.order_n == cycle_order(phi.table)
    return ("table", phi.table)


JUNK = st.sampled_from([True, False, 2.0, 1.5, "1", None, (0,)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_images_and_words_fuzz(data):
    """Drawn generator images (in range, out of range, of the wrong type, too
    few or too many, about the identity's and the corpus automorphism's) and
    drawn image words: each call returns an automorphism that passes the
    double scan, or raises ValueError, NotBijective or NotHomomorphism as
    the double scan and the input's shape say."""
    G, phi_images = data.draw(st.sampled_from(_small_groups()))
    k, n = len(G.generator_indices), G.order
    entry = st.one_of(st.integers(0, n - 1), st.integers(-2, -1), st.integers(n, n + 2), JUNK)
    # the identity's images, the corpus automorphism's, that with one image
    # times another (sometimes a bijection that breaks the law), or random
    gens = list(G.generator_indices)
    phi_images = phi_images or gens
    broken = list(phi_images)
    if k:
        i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
        broken[i] = G.mul(broken[i], phi_images[j])
    images = data.draw(st.sampled_from([gens, phi_images, broken, broken, broken,
                                        [data.draw(st.integers(0, n - 1)) for _ in range(k)]]))
    edit = data.draw(st.sampled_from(["keep"] * 4 + ["replace", "replace", "drop", "append",
                                                     "tuple", "junk"]))
    if edit == "replace" and images:
        images = list(images)
        images[data.draw(st.integers(0, len(images) - 1))] = data.draw(entry)
    elif edit == "drop" and images:
        images = images[:-1]
    elif edit == "append":
        images = images + [data.draw(entry)]
    elif edit == "tuple":
        images = tuple(images)
    elif edit == "junk":
        images = data.draw(st.one_of(JUNK, st.integers(0, n - 1), st.just(range(k))))
    assert _call_outcome(lambda: Automorphism(G, images)) == _scan_outcome(G, images), images

    # on the trivial group, whose words are all empty, the letter 1 names no generator
    letter = st.sampled_from([x for x in range(-k, k + 1) if x] or [1])
    words = data.draw(st.lists(st.lists(letter, max_size=3), min_size=k, max_size=k))
    edit = data.draw(st.sampled_from(["keep", "keep", "replace", "drop", "append", "junk"]))
    bad = st.one_of(st.sampled_from([0, -k - 1, k + 1]), JUNK)
    if edit == "replace" and any(words):
        w = data.draw(st.sampled_from([w for w in words if w]))
        w[data.draw(st.integers(0, len(w) - 1))] = data.draw(bad)
    elif edit == "drop" and words:
        words.pop()
    elif edit == "append":
        words.append(data.draw(st.lists(letter, max_size=3)))
    elif edit == "junk":
        # a word, or the whole list of words, of the wrong type
        if words and data.draw(st.booleans()):
            words[data.draw(st.integers(0, len(words) - 1))] = data.draw(JUNK)
        else:
            words = data.draw(JUNK)
    if isinstance(words, (list, tuple)) and all(
            isinstance(w, (list, tuple)) and all(type(x) is int and 0 < abs(x) <= k for x in w)
            for w in words):
        expected = _scan_outcome(G, [_word_by_mul(G, w) for w in words])
    else:
        expected = ("ValueError",)
    assert _call_outcome(lambda: build_automorphism(G, words)) == expected, words
