"""Seeded inputs for the benchmark workloads.

Everything here is pure: a seed gives the same specs, files and command
lists every time, and nothing imports the program under test.

The seed changes the work of a workload very little. Where it picks an
automorphism exponent, it picks a generator of the same cyclic group of
automorphisms: if phi maps each generator g_i to g_i**k_i, then phi**j maps
g_i to g_i**(k_i**j), and for j coprime to the order of phi the two maps
generate the same group <phi>. They have the same fixed points, the same
invariant subgroups and twisted sets of the same size. On a nonabelian
group the twisted set {g^-1 g^phi} itself can differ, so the work is not
the same by construction; README.md gives the counts measured across seeds.
"""

from __future__ import annotations

import copy
import json
import math
import os
import random

GLAUBERMAN_SPEC = {"id": "glauberman", "name": "affine", "params": {"p": 5, "k": 3},
                   "automorphism": {"recipe": "frobenius"}}
# The small-degree group of the multiplication microbenchmark (degree 27).
MUL_SMALL_SPEC = {"id": "heis3", "name": "heisenberg", "params": {"p": 3}}


def _cyclic(m):
    return {"name": "cyclic", "params": {"m": m}}


def _heisenberg(p):
    return {"name": "heisenberg", "params": {"p": p}}


def _modular(p):
    return {"name": "modular", "params": {"p": p}}


def _product(*factors):
    return {"name": "direct_product", "params": {"factors": list(factors)}}


# (id, group, recipe, generator orders, base exponents). The order of phi is
# the least common multiple of the orders of the base exponents modulo the
# generator orders; every base exponent is a unit whose order divides p - 1,
# so phi is coprime to the p-group it acts on.
MOD7 = ("mod7_ord3", _modular(7), "gen_powers", (49, 7), (30, 1))
HEIS3_C9 = ("heis3_c9_inv", _product(_heisenberg(3), _cyclic(9)), "power", (3, 3, 9), (-1, -1, -1))

PAIR_TEMPLATES = [
    ("heis7_ord6", _heisenberg(7), "gen_powers", (7, 7), (3, 5)),
    ("heis5_ord4", _heisenberg(5), "power", (5, 5), (2, 2)),
    ("c125_ord4", _cyclic(125), "power", (125,), (57,)),
    MOD7,
    HEIS3_C9,
    ("c25_c5_ord4", _product(_cyclic(25), _cyclic(5)), "gen_powers", (25, 5), (7, 2)),
]

# Instance files for the cli_commands workload, by id.
FILE_TEMPLATES = {t[0]: t for t in [
    ("heis5_fix5", _heisenberg(5), "gen_powers", (5, 5), (2, 3)),
    MOD7,
    HEIS3_C9,
    ("heis5_c25", _product(_heisenberg(5), _cyclic(25)), "gen_powers", (5, 5, 25), (2, 3, 7)),
    ("c5x5", _product(*[_cyclic(5)] * 5), "gen_powers", (5,) * 5, (2, 3, 4, 2, 3)),
    ("mod5_c25", _product(_modular(5), _cyclic(25)), "gen_powers", (25, 5, 25), (7, 1, -1)),
    ("heis7_inv", _heisenberg(7), "power", (7, 7), (-1, -1)),
]}

TEMPLATES = {t[0]: t for t in PAIR_TEMPLATES + list(FILE_TEMPLATES.values())}

# One pass of cli_commands, in order. The order is fixed, because peak memory
# depends on which commands ran before the largest one. `info` and `auto` run
# the full analysis, so they stay on files with at most 81 twisted elements;
# `lie` and `eigen` go up to order 3125 and run on the same files, so each
# layer's eigenspace dimensions can be checked against that layer's
# dimension.
CLI_PLAN = (
    [("glauberman", None)]
    + [("info", "heis5_fix5"), ("info", "mod7_ord3")]
    + [("auto", "heis5_fix5"), ("auto", "heis3_c9_inv")]
    + [(cmd, f) for f in ("heis5_c25", "c5x5", "mod5_c25", "heis7_inv") for cmd in ("lie", "eigen")]
    + [("decompose", "mod7_ord3"), ("decompose", "mod7_ord3"),
       ("decompose", "heis5_fix5"), ("decompose", "heis5_fix5")]
)


def _symmetric_residue(x: int, m: int) -> int:
    x %= m
    return x - m if x > m // 2 else x


def _unit_order(k: int, m: int) -> int:
    k %= m
    x, order = k, 1
    while x != 1:
        x = x * k % m
        order += 1
    return order


def phi_order(template) -> int:
    _, _, _, moduli, base = template
    return math.lcm(*(_unit_order(k, m) for k, m in zip(base, moduli)))


def instantiate(template, rng: random.Random) -> dict:
    """A spec whose automorphism is a seeded generator of the template's <phi>."""
    inst_id, group, recipe, moduli, base = template
    order = phi_order(template)
    j = rng.choice([j for j in range(1, max(order, 2)) if math.gcd(j, order) == 1])
    powers = [_symmetric_residue(pow(k, j, m), m) for k, m in zip(base, moduli)]
    spec = {"id": inst_id, **copy.deepcopy(group)}
    if recipe == "power":
        spec["automorphism"] = {"recipe": "power", "k": powers[0]}
    else:
        spec["automorphism"] = {"recipe": "gen_powers", "powers": powers}
    return spec


def generator_powers(spec: dict) -> list:
    """The exponent k_i with phi(g_i) = g_i**k_i, for each generator of a spec
    made by `instantiate`."""
    auto = spec["automorphism"]
    if auto["recipe"] == "power":
        return [auto["k"]] * len(TEMPLATES[spec["id"]][3])
    return list(auto["powers"])


def nilpotent_corpus(seed: int) -> dict:
    """The nilpotent_pairs corpus: every template once, with seeded exponents."""
    rng = random.Random(f"nilpotent_pairs:{seed}")
    return {"schema": 1, "instances": [instantiate(t, rng) for t in PAIR_TEMPLATES]}


def _random_word(rng: random.Random, ngens: int) -> list:
    return [rng.choice([1, -1]) * rng.randint(1, ngens) for _ in range(rng.randint(4, 9))]


def cli_plan(seed: int) -> dict:
    """Instance specs and the ordered command list for cli_commands.

    Returns {"files": {name: spec}, "commands": [[command, file name or None,
    element word or None], ...]}.
    """
    rng = random.Random(f"cli_commands:{seed}")
    files = {name: instantiate(t, rng) for name, t in FILE_TEMPLATES.items()}
    commands = []
    for cmd, name in CLI_PLAN:
        word = _random_word(rng, len(FILE_TEMPLATES[name][3])) if cmd == "decompose" else None
        commands.append([cmd, name, word])
    return {"files": files, "commands": commands}


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


def cli_argv(command, files_dir: str) -> list:
    """The argument list for one planned command."""
    cmd, name, word = command
    argv = [cmd]
    if name is not None:
        argv.append(os.path.join(files_dir, name + ".json"))
    if word is not None:
        argv.append("--element=" + ",".join(str(k) for k in word))
    return argv
