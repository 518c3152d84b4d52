"""A report does not depend on how its instance is written.

Each corpus instance of order at most 5000 is rewritten as a raw group file:
its points relabelled by a random permutation and its generators shuffled,
with the automorphism's image words rewritten to match. The result is an
isomorphic (group, automorphism) pair, so ``analyze_instance`` must give the
same report, except for the instance id and the witnesses, whose element
indices depend on the presentation.
"""

import random

import pytest

from coprimelab import corpus
from coprimelab.corpus import default_corpus, load_instance
from coprimelab.report import analyze_instance

MAX_ORDER = 5000
SPECS = [s for s in default_corpus()["instances"] if corpus._parse(s, "")[2] <= MAX_ORDER]


def _rewritten(spec: dict, rng: random.Random) -> dict:
    """The instance as a raw group file with its points relabelled by a
    random sigma (point x becomes sigma[x]) and its generators in a random
    order; the image words name each generator by its new position."""
    G, phi, _ = load_instance(spec)
    sigma = list(range(G.degree))
    rng.shuffle(sigma)
    order = list(range(len(G.generators)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    generators = []
    for old in order:
        g = [0] * G.degree
        for x, y in enumerate(G.generators[old]):
            g[sigma[x]] = sigma[y]
        generators.append(g)
    raw = {"degree": G.degree, "generators": generators}
    if phi is not None:
        words = [G.word(phi.table[G.generator_indices[old]]) for old in order]
        raw["automorphism"] = {"images": [[position[k - 1] + 1 for k in w] for w in words]}
    return raw


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


@pytest.mark.parametrize("spec", SPECS, ids=[s["id"] for s in SPECS])
def test_relabelled_points_and_shuffled_generators_give_the_same_report(spec):
    rng = random.Random(spec["id"])
    report = dict(_paths(analyze_instance(spec)))
    rewritten = dict(_paths(analyze_instance(_rewritten(spec, rng))))
    del report[".id"], rewritten[".id"]
    assert rewritten == report
