"""A report does not depend on how its instance is written.

Each corpus instance is rewritten as a raw group file in another
presentation of an isomorphic (group, automorphism) pair:

- its points relabelled by a random permutation and its generators
  shuffled, with the automorphism's image words rewritten to match (the
  instances of order at most 5000);
- a redundant generator appended, the product of two others;
- phi replaced by psi = i_g^-1 phi i_g for the inner automorphism i_g of a
  random word g: i_g maps (G, phi) onto (G, psi), and psi's twisted set is
  the image of phi's.

So ``analyze_instance`` must give the same report, except for the instance
id and the witnesses, whose element indices depend on the presentation.
Replacing phi by phi^k, k prime to the order n of phi, keeps <phi> but is
not an isomorphism of pairs: theory fixes only the group and Lie sections,
C_G(phi), [G, phi] and the size of the twisted set, and the eigenspace of
omega^j under phi is that of omega^(jk) under phi^k. Each change works on
the generators as point lists and on phi's image words, never through the
group's own multiplication.
"""

import functools
import math
import random

import pytest

from coprimelab import corpus
from coprimelab.automorphisms import twisted_data
from coprimelab.corpus import default_corpus, load_instance
from coprimelab.report import analyze_instance

MAX_ORDER = 5000
CORPUS = {s["id"]: s for s in default_corpus()["instances"]}
SPECS = [s for s in CORPUS.values() if corpus._parse(s, "")[2] <= MAX_ORDER]
AUTO_SPECS = [s for s in CORPUS.values() if "automorphism" in s]


def _presentation(spec: dict) -> tuple:
    """(degree, generators as point lists, phi's image of each generator as
    a word in them, or None without phi) of the instance."""
    G, phi, _ = load_instance(spec)
    words = None if phi is None else [list(G.word(phi.table[g])) for g in G.generator_indices]
    return G.degree, [list(g) for g in G.generators], words


def _raw(degree: int, generators: list, words) -> dict:
    raw = {"degree": degree, "generators": generators}
    if words is not None:
        raw["automorphism"] = {"images": words}
    return raw


def _inverse(word: list) -> list:
    return [-k for k in reversed(word)]


def _rewritten(spec: dict, rng: random.Random) -> dict:
    """The instance with its points relabelled by a random sigma (point x
    becomes sigma[x]) and its generators in a random order; the image words
    name each generator by its new position."""
    degree, gens, words = _presentation(spec)
    sigma = list(range(degree))
    rng.shuffle(sigma)
    order = list(range(len(gens)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    generators = []
    for old in order:
        g = [0] * degree
        for x, y in enumerate(gens[old]):
            g[sigma[x]] = sigma[y]
        generators.append(g)
    if words is not None:
        words = [[position[k - 1] + 1 for k in words[old]] for old in order]
    return _raw(degree, generators, words)


def _with_redundant_generator(spec: dict, rng: random.Random) -> dict:
    """The instance with g_a g_b appended to its generators, for random a and
    b, and phi's image of it the image words of g_a and g_b in turn. The
    product x -> g_a[g_b[x]] is the one that words evaluate."""
    degree, gens, words = _presentation(spec)
    a, b = rng.randrange(len(gens)), rng.randrange(len(gens))
    gens.append([gens[a][y] for y in gens[b]])
    words.append(words[a] + words[b])
    return _raw(degree, gens, words)


def _substituted(word: list, words: list) -> list:
    """The word with each letter k replaced by words[k - 1], inverted where
    k < 0: the image of the word under phi when ``words`` are phi's."""
    return [m for k in word for m in (words[k - 1] if k > 0 else _inverse(words[-k - 1]))]


def _with_inner_conjugate(spec: dict, rng: random.Random) -> dict:
    """The instance with phi replaced by psi: x -> g^-1 (g x g^-1)^phi g for a
    random word g of three signed letters, that is, psi(x) = g^-1 phi(g)
    phi(x) phi(g)^-1 g on each generator x."""
    degree, gens, words = _presentation(spec)
    g = [rng.choice((1, -1)) * rng.randrange(1, len(gens) + 1) for _ in range(3)]
    phi_g = _substituted(g, words)
    words = [_inverse(g) + phi_g + word + _inverse(phi_g) + g for word in words]
    return _raw(degree, gens, words)


def _with_power_of_phi(spec: dict, k: int) -> dict:
    """The instance with phi replaced by phi^k: the image word of a generator
    under phi^(m+1) is its word under phi^m with phi applied to each letter."""
    degree, gens, words = _presentation(spec)
    powers = words
    for _ in range(k - 1):
        powers = [_substituted(word, words) for word in powers]
    return _raw(degree, gens, powers)


def _paths(node, path=""):
    """path -> value for every leaf of a report, without the witnesses."""
    if isinstance(node, dict):
        for key, value in node.items():
            if "witness" not in key:
                yield from _paths(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, f"{path}[{i}]")
    else:
        yield path, node


@functools.cache
def _report(spec_id: str) -> dict:
    return analyze_instance(CORPUS[spec_id])


@functools.cache
def _report_paths(spec_id: str) -> dict:
    """The leaf paths of the shipped instance's report, without its id."""
    paths = dict(_paths(_report(spec_id)))
    del paths[".id"]
    return paths


def _assert_same_report(spec: dict, rewritten: dict) -> None:
    paths = dict(_paths(analyze_instance(rewritten)))
    del paths[".id"]
    assert paths == _report_paths(spec["id"])


@pytest.mark.parametrize("spec", SPECS, ids=[s["id"] for s in SPECS])
def test_relabelled_points_and_shuffled_generators_give_the_same_report(spec):
    _assert_same_report(spec, _rewritten(spec, random.Random(spec["id"])))


@pytest.mark.parametrize("spec", AUTO_SPECS, ids=[s["id"] for s in AUTO_SPECS])
def test_a_redundant_generator_gives_the_same_report(spec):
    _assert_same_report(spec, _with_redundant_generator(spec, random.Random(spec["id"])))


@pytest.mark.parametrize("spec", AUTO_SPECS, ids=[s["id"] for s in AUTO_SPECS])
def test_an_inner_conjugate_of_phi_gives_the_same_report(spec):
    _assert_same_report(spec, _with_inner_conjugate(spec, random.Random(spec["id"])))


def test_the_inner_conjugates_move_the_twisted_set():
    # the same generators enumerate the same element indices, so a moved
    # twisted set shows that psi is not phi written another way
    moved = []
    for spec in AUTO_SPECS:
        _, phi, _ = load_instance(spec)
        _, psi, _ = load_instance(_with_inner_conjugate(spec, random.Random(spec["id"])))
        if twisted_data(psi).twisted != twisted_data(phi).twisted:
            moved.append(spec["id"])
    assert moved == ["heis3_inv", "heis5_inv", "heis3_c5_inv", "aff8_frob", "aff9_frob",
                     "glauberman"]


def _fixed_by_theory(report: dict, k: int) -> dict:
    """The fields of the report of phi^k that theory fixes when k is prime to
    the order n of phi, with the eigen dims of each layer read at jk mod n
    in place of j, so that they are phi's own at k = 1."""
    auto, lie = report["automorphism"], report["lie"]
    if isinstance(lie, dict) and isinstance(lie["eigen"], dict):
        n = lie["eigen"]["n"]
        dims = [[layer[j * k % n] for j in range(n)] for layer in lie["eigen"]["dims"]]
        lie = {**lie, "eigen": {**lie["eigen"], "dims": dims}}
    return {"group": report["group"], "lie": lie,
            **{key: auto[key] for key in ("order", "fixed_order", "commutator_order",
                                          "commutator_exponent", "commutator_derived_length",
                                          "twisted_size")}}


def test_a_power_of_phi_prime_to_its_order_keeps_what_theory_fixes():
    # 17 pairs (instance, k) with n >= 3; on 8 of them the eigen dims are
    # permuted, so the test reads them at jk mod n
    pairs, moved = [], []
    for spec in AUTO_SPECS:
        expected = _fixed_by_theory(_report(spec["id"]), 1)
        n = expected["order"]
        for k in (k for k in range(2, n) if math.gcd(k, n) == 1):
            report = analyze_instance(_with_power_of_phi(spec, k))
            assert _fixed_by_theory(report, k) == expected, (spec["id"], k)
            pairs.append((spec["id"], k))
            if _fixed_by_theory(report, 1) != expected:
                moved.append((spec["id"], k))
    assert len(pairs) == 17
    assert moved == [("c7_pow2", 2), ("c5_pow2", 3), ("c11_pow3", 2), ("c11_pow3", 3),
                     ("c11_pow3", 4), ("c2cube_m7", 3), ("c2cube_m7", 5), ("c2cube_m7", 6)]
