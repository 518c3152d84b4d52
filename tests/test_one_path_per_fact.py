"""One path per fact: no two number paths of the suite bundle repeat each
other, unless ``KEPT`` gives the pair a reason.

The bundle is the golden ``suite.jsonl``, which ``test_acceptance.py`` pins
against a fresh run. Each instance is flattened to its integer leaves, with
``id`` dropped and list indices written ``[]``, so a path under a list holds
the tuple of its values in list order. Two paths repeat one fact when they
are both numbers on at least ``MIN_SHARED`` instances and equal on every
instance where both are numbers.
"""

import json
from collections import defaultdict
from fnmatch import fnmatchcase
from itertools import combinations

from regen_golden import GOLDEN

MIN_SHARED = 3

# (path, path) -> why both stay; a "*" in a path matches any tail
KEPT = {
    ("probes.thompson.*", "*"):
        "the thompson probe leaves the bundle with the benchmark's tracer, "
        "which spans it (ROADMAP item 24)",
    ("group.p", "lie.p"):
        "the `lie` command prints `_lie_fields` on its own, and the suite's Lie "
        "section is built from the same function",
    ("automorphism.order", "lie.eigen.n"):
        "the `eigen` command prints `_eigen_fields` on its own, and the suite's "
        "eigen field is built from the same function",
    ("automorphism.commutator_derived_length", "probes.theorem2.d"):
        "d is the largest derived length of a twisted-pair closure, a different "
        "number that is at most dl([G, phi]); no input with a gap is known yet "
        "(ROADMAP item 22)",
    ("automorphism.commutator_exponent", "probes.theorem2.e"):
        "e is the exponent of the twisted set, a different number that divides "
        "exp([G, phi]); no input with a gap is known yet (ROADMAP item 22)",
}


def _leaves(node, path: str, out: dict) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            if path or key != "id":
                _leaves(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for value in node:
            _leaves(value, f"{path}[]", out)
    elif isinstance(node, int) and not isinstance(node, bool):
        out[path].append(node)


def number_paths(instance: dict) -> dict:
    """path -> the tuple of integer leaves at that path of one instance."""
    out = defaultdict(list)
    _leaves(instance, "", out)
    return {path: tuple(values) for path, values in out.items()}


def repeated_pairs(instances: list) -> list:
    """The (path, path) pairs, in path order, that are both numbers on at
    least ``MIN_SHARED`` instances and equal wherever both are."""
    flat = [number_paths(inst) for inst in instances]
    pairs = []
    for a, b in combinations(sorted(set().union(*flat)), 2):
        shared = [leaves for leaves in flat if a in leaves and b in leaves]
        if len(shared) >= MIN_SHARED and all(leaves[a] == leaves[b] for leaves in shared):
            pairs.append((a, b))
    return pairs


def _kept_by(pair: tuple):
    return next((key for key in KEPT
                 if any(fnmatchcase(x, key[0]) and fnmatchcase(y, key[1])
                        for x, y in (pair, pair[::-1]))), None)


def _golden_instances() -> list:
    return [json.loads(line)
            for line in (GOLDEN / "suite.jsonl").read_text(encoding="ascii").splitlines()[:-1]]


def test_no_two_bundle_paths_print_one_fact():
    repeated = repeated_pairs(_golden_instances())
    assert [pair for pair in repeated if _kept_by(pair) is None] == []
    # every reason still keeps a pair that repeats
    assert {_kept_by(pair) for pair in repeated} == set(KEPT)


def test_a_planted_copy_is_found():
    instances = _golden_instances()
    for inst in instances:
        if isinstance(inst["probes"]["theorem1"], dict):
            inst["probes"]["theorem1"]["exponent"] = inst["group"]["exponent"]
    repeated = repeated_pairs(instances)
    assert ("group.exponent", "probes.theorem1.exponent") in repeated
    # a path under a list compares as the tuple of its values
    assert number_paths({"id": 7, "a": [{"b": 1}, {"b": 2}], "c": [True]}) == {"a[].b": (1, 2)}
