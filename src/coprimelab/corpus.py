"""Instance factory: named group constructions, automorphism recipes, corpus loading.

Corpus spec format: {"name": str, "params": {...}, "automorphism": {...}} with
the automorphism given either by a recipe or by explicit generator-image
words. Raw group files instead carry {"degree": int, "generators": [[...]]}
plus an optional {"automorphism": {"images": [[signed ints], ...]}}.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from .errors import (CapExceeded, InvalidPermutation, NotBijective, NotHomomorphism,
                     ParseError, UnknownSpec)
from .groups import (BYTES_MAX_DEGREE, DEFAULT_CAP, FiniteGroup, build_automorphism,
                     column_bytes, degree_bytes, element_bytes, generate_group)
from .numutil import is_prime

# Bytes the element store and Cayley columns of a group may take: a named
# group's are estimated from its order, degree and generator count before
# anything is built. A raw group's degree is refused first when one element
# and the per-point structures of enumeration (``degree_bytes``) would take
# more; its cap is DEFAULT_CAP, or less when the budget left after those
# structures, divided by the bytes of one element and its columns, is less.
STORE_BUDGET = 10 ** 9


def _cyclic(m: int) -> tuple:
    if m == 1:
        return 1, [], {}
    return m, [tuple((i + 1) % m for i in range(m))], {}


def _dihedral(m: int) -> tuple:
    rot = tuple((i + 1) % m for i in range(m))
    flip = tuple((-i) % m for i in range(m))
    return m, [rot, flip], {}


def _symmetric(m: int) -> tuple:
    if m == 1:
        return 1, [], {}
    cycle = tuple((i + 1) % m for i in range(m))
    swap = tuple([1, 0] + list(range(2, m)))
    return m, [cycle, swap] if m > 2 else [swap], {}


def _heisenberg_degree(p: int) -> int:
    """p^3 points for the regular action while its elements fit the bytes
    store, else the p^2 points of ``_heisenberg``'s matrix action."""
    return p ** 3 if p ** 3 <= BYTES_MAX_DEGREE else p * p


def _heisenberg(p: int) -> tuple:
    """Upper unitriangular 3x3 matrices (a, b, c) over F_p, with
    (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a b'), generated by
    (1, 0, 0) and (0, 1, 0). Up to degree BYTES_MAX_DEGREE they act on
    themselves by left multiplication. Above it they act on the p^2 column
    vectors (x, y, 1), point x + p y, which (a, b, c) sends to
    (x + a y + c) + p (y + b): a faithful action on fewer points, and
    enumeration over the same generators walks the same Cayley graph."""
    if p ** 3 <= BYTES_MAX_DEGREE:
        elems = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
        index = {e: i for i, e in enumerate(elems)}

        def left(a, b, c):
            return tuple(index[(a + x) % p, (b + y) % p, (c + z + a * y) % p]
                         for x, y, z in elems)

        return p ** 3, [left(1, 0, 0), left(0, 1, 0)], {}
    points = [(x, y) for y in range(p) for x in range(p)]
    return p * p, [tuple((x + y) % p + p * y for x, y in points),
                   tuple(x + p * ((y + 1) % p) for x, y in points)], {}


def _modular(p: int) -> tuple:
    """Order p^3 with a cyclic maximal subgroup: x+1 and x*(1+p) on Z/p^2."""
    m = p * p
    add = tuple((i + 1) % m for i in range(m))
    scale = tuple((i * (1 + p)) % m for i in range(m))
    return m, [add, scale], {}


def _affine(p: int, k: int) -> tuple:
    """Full affine group x -> b*x + a of GF(p^k) on the field elements."""
    from .gf import FiniteField  # on first use: only affine(p, k) and its Frobenius need a field
    field = FiniteField(p, k)
    q = field.order
    g = field.multiplicative_generator()
    translate = tuple(field.add(x, 1) for x in range(q))
    scale = tuple(field.mul(g, x) for x in range(q))
    return q, [translate, scale] if q > 2 else [translate], {}


def _direct_product(factors: list, parsed: list) -> tuple:
    """The factors side by side: each factor's generators move its own block
    of points, which follows the blocks of the factors before it."""
    built = [build(*args) for build, args, *_ in parsed]
    degree = sum(factor[0] for factor in built)
    gens, gen_offsets, pos = [], [], 0
    for factor_degree, factor_gens, _ in built:
        gen_offsets.append(len(gens))
        for perm in factor_gens:
            gens.append(tuple(range(pos)) + tuple(pos + img for img in perm)
                        + tuple(range(pos + factor_degree, degree)))
        pos += factor_degree
    meta = {"factor_specs": factors, "factor_gen_offsets": gen_offsets,
            "factor_gen_counts": [len(factor[1]) for factor in built]}
    return degree, gens, meta


_REQUIRED = object()


def _field(obj: dict, key: str, where: str, kind: type = object, default=_REQUIRED):
    """obj[key], or ``default`` if given and the key is missing. A ParseError
    names the JSON path (``where`` is obj's path plus ".") when obj is no
    object, a required key is missing or the value is not a ``kind``."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where[:-1]}: expected dict, got {obj!r}")
    if key not in obj:
        if default is _REQUIRED:
            raise ParseError(f"{where}{key}: missing")
        return default
    if not isinstance(obj[key], kind) or (kind is int and type(obj[key]) is bool):
        raise ParseError(f"{where}{key}: expected {kind.__name__}, got {obj[key]!r}")
    return obj[key]


def _odd_prime(p: int) -> bool:
    return p != 2 and is_prime(p)


# Name -> (parameter keys, what they must satisfy, test of it, order, degree,
# constructor). Order and degree are read from valid parameters before the
# constructor runs, so a group above the cap or the store budget allocates
# nothing; the constructor returns the degree, the generator permutations and
# the metadata the automorphism recipes read. Every group here has order at
# least each of its parameters, so a parameter above STORE_BUDGET is refused
# before anything is computed from it; the bound on k keeps p ** k quick to
# compute.
_NAMED = {
    "cyclic": (("m",), "m >= 1", lambda m: m >= 1, lambda m: m, lambda m: m, _cyclic),
    "dihedral": (("m",), "m >= 3", lambda m: m >= 3, lambda m: 2 * m, lambda m: m, _dihedral),
    "symmetric": (("m",), "1 <= m <= 5", lambda m: 1 <= m <= 5, math.factorial, lambda m: m,
                  _symmetric),
    "heisenberg": (("p",), "an odd prime p", _odd_prime, lambda p: p ** 3, _heisenberg_degree,
                   _heisenberg),
    "modular": (("p",), "an odd prime p", _odd_prime, lambda p: p ** 3, lambda p: p * p,
                _modular),
    "affine": (("p", "k"), "a prime p and 1 <= k <= 64",
               lambda p, k: is_prime(p) and 1 <= k <= 64,
               lambda p, k: p ** k * (p ** k - 1), lambda p, k: p ** k, _affine),
}


def _parse(spec: dict, where: str) -> tuple:
    """(constructor, its arguments, order, degree, most generators, JSON path
    of the params) of a named group spec; ``where`` prefixes the JSON paths in
    errors. A named family has at most two generators, a direct product the
    sum of its factors'."""
    name = _field(spec, "name", where, str)
    params = _field(spec, "params", where, dict, {})
    if name == "direct_product":
        factors = _field(params, "factors", f"{where}params.", list)
        parsed = [_parse(f, f"{where}params.factors[{i}].") for i, f in enumerate(factors)]
        return (_direct_product, (factors, parsed), math.prod(f[2] for f in parsed),
                sum(f[3] for f in parsed), sum(f[4] for f in parsed), f"{where}params")
    if name not in _NAMED:
        raise UnknownSpec(f"{where}name: unrecognized instance name {name!r}")
    keys, requirement, valid, order, degree, build = _NAMED[name]
    args = [_field(params, key, f"{where}params.", int) for key in keys]
    for key, arg in zip(keys, args):
        if arg > STORE_BUDGET:
            raise CapExceeded(f"{where}params.{key}: {arg} is above {STORE_BUDGET}, and the "
                              f"group's order is at least each of its parameters")
    if not valid(*args):
        raise UnknownSpec(f"{where}params: {name} needs {requirement}, "
                          f"got {dict(zip(keys, args))}")
    return build, args, order(*args), degree(*args), 2, f"{where}params"


def _build_group(parsed: tuple) -> tuple:
    """(group, recipe metadata) of a parsed spec: its generators enumerated
    once, after checking its order against DEFAULT_CAP and the size of its
    element store and Cayley columns against STORE_BUDGET. A construction
    whose degree or order is not the parsed one is a bug: AssertionError."""
    build, args, order, degree, generators, where = parsed
    if order > DEFAULT_CAP:
        raise CapExceeded(f"{where}: order {_decimal(order)} exceeds cap={DEFAULT_CAP}")
    size, columns = order * element_bytes(degree), order * column_bytes(generators)
    if size + columns > STORE_BUDGET:
        raise CapExceeded(f"{where}: order {_decimal(order)} on {degree} points needs about "
                          f"{_decimal(size // 10 ** 6)} MB of elements and "
                          f"{_decimal(columns // 10 ** 6)} MB of Cayley columns, above the "
                          f"{STORE_BUDGET // 10 ** 6} MB budget")
    built_degree, gens, meta = build(*args)
    if built_degree != degree:
        raise AssertionError(f"{where}: construction has degree {built_degree}, not {degree}")
    G = generate_group(degree, gens)
    if G.order != order:
        raise AssertionError(f"{where}: construction has order {G.order}, not {order}")
    return G, meta


def _decimal(n: int) -> str:
    """n in decimal, or its size in bits when the decimal is too long to print
    (the product of many factors' orders can be)."""
    return str(n) if n.bit_length() < 10 ** 4 else f"of {n.bit_length()} bits"


def _power_word(G: FiniteGroup, gen_index: int, k: int, where: str) -> tuple:
    """Generator ``gen_index`` to the power k, spelled with |k| reduced modulo
    the generator's order, so a huge exponent does not spell a huge word;
    ``where`` is the JSON path of k."""
    if type(k) is not int or k == 0:
        raise UnknownSpec(f"{where}: power recipe needs a nonzero integer exponent, got {k!r}")
    letter = gen_index + 1 if k > 0 else -(gen_index + 1)
    return (letter,) * (abs(k) % G.element_order(G.generator_indices[gen_index]))


def _frobenius_images_additive(p: int, k: int) -> list:
    """Images of the coordinate translations of GF(p^k) under x -> x^p."""
    from .gf import FiniteField
    field = FiniteField(p, k)
    images = []
    for i in range(k):
        word = []
        for gi, coeff in enumerate(field.coeffs(field.pow(p ** i, p))):
            word.extend([gi + 1] * coeff)
        images.append(tuple(word))
    return images


def _recipe_images(G: FiniteGroup, spec: dict, meta: dict, recipe: dict) -> list:
    kind = recipe.get("recipe")
    ngens = len(G.generators)
    if kind == "identity":
        return [(i + 1,) for i in range(ngens)]
    if kind == "power":
        k = _field(recipe, "k", "automorphism.", int)
        return [_power_word(G, i, k, "automorphism.k") for i in range(ngens)]
    if kind == "gen_powers":
        powers = _field(recipe, "powers", "automorphism.", list)
        if len(powers) != ngens:
            raise UnknownSpec(f"automorphism.powers: gen_powers needs {ngens} exponents")
        return [_power_word(G, i, k, f"automorphism.powers[{i}]") for i, k in enumerate(powers)]
    if kind == "swap":
        blocks = _field(recipe, "blocks", "automorphism.", list, [0, 1])
        specs = meta.get("factor_specs")
        if specs is None:
            raise UnknownSpec("automorphism.recipe: swap applies to direct products only")
        if len(blocks) != 2 or not all(type(k) is int and 0 <= k < len(specs) for k in blocks):
            raise ParseError(f"automorphism.blocks: expected two factor positions "
                             f"below {len(specs)}, got {blocks!r}")
        a, b = blocks
        if specs[a] != specs[b]:
            raise UnknownSpec("automorphism.blocks: swap needs identical factors")
        offsets = meta["factor_gen_offsets"]
        counts = meta["factor_gen_counts"]
        mapping = list(range(len(G.generators)))
        for t in range(counts[a]):
            mapping[offsets[a] + t] = offsets[b] + t
            mapping[offsets[b] + t] = offsets[a] + t
        return [(mapping[i] + 1,) for i in range(ngens)]
    if kind == "frobenius":
        name = spec.get("name")
        params = spec.get("params", {})
        if name == "affine":
            p = int(params["p"])
            words = [(1,), (2,) * p]
            return words[: ngens]
        if name == "direct_product":
            specs = meta.get("factor_specs", [])
            if not specs or any(s.get("name") != "cyclic" for s in specs):
                raise UnknownSpec("automorphism.recipe: frobenius needs cyclic(p)^k factors")
            ps = {int(s["params"]["m"]) for s in specs}
            if len(ps) != 1:
                raise UnknownSpec("automorphism.recipe: frobenius needs equal cyclic factors")
            p = ps.pop()
            if not is_prime(p):
                raise UnknownSpec("automorphism.recipe: frobenius needs prime cyclic factors")
            return _frobenius_images_additive(p, len(specs))
        raise UnknownSpec(f"automorphism.recipe: frobenius does not apply to {name!r}")
    raise UnknownSpec(f"automorphism.recipe: unrecognized automorphism recipe {kind!r}")


def _spec_automorphism(G: FiniteGroup, spec: dict, meta: Optional[dict]):
    """The spec's automorphism from its image words, or from its recipe when the
    spec names its group (``meta`` is None for raw group files); None if absent."""
    auto = _field(spec, "automorphism", "", dict, None)
    if auto is None:
        return None
    if meta is not None and "images" not in auto:
        words = _recipe_images(G, spec, meta, auto)
    else:
        words = _field(auto, "images", "automorphism.", list)
        n = len(G.generators)
        if len(words) != n or not all(isinstance(w, list) and all(
                type(k) is int and 0 < abs(k) <= n for k in w) for w in words):
            raise ParseError(f"automorphism.images: expected {n} image words of generator "
                             f"numbers from -{n} to {n} but 0, got {words!r}")
    try:
        return build_automorphism(G, [tuple(w) for w in words])
    except NotBijective as exc:
        raise NotBijective(f"automorphism: {exc}") from exc
    except NotHomomorphism as exc:
        raise NotHomomorphism(f"automorphism: {exc}", exc.witness) from exc


def build_corpus_instance(spec: dict):
    """Build (group, automorphism-or-None) from a corpus instance spec."""
    G, meta = _build_group(_parse(spec, ""))
    return G, _spec_automorphism(G, spec, meta)


def build_glauberman_example():
    """The affine group of GF(125) with the automorphism induced by x -> x^5,
    the ``frobenius`` recipe on affine(5, 3).

    Generators are the translation by 1 and the scaling by the least
    multiplicative generator; the induced map fixes the translation and
    raises the scaling to its fifth power.
    """
    G, phi = build_corpus_instance({"name": "affine", "params": {"p": 5, "k": 3},
                                    "automorphism": {"recipe": "frobenius"}})
    if G.order != 15500:
        raise AssertionError(f"expected order 15500, got {G.order}")
    if phi.order_n != 3 or not phi.coprime:
        raise AssertionError("Frobenius conjugation should be coprime of order 3")
    return G, phi


def load_instance(data: dict):
    """Accept either a raw group file or a corpus instance spec.

    Returns (group, automorphism-or-None, instance id).
    """
    if "degree" in data:
        degree = _field(data, "degree", "", int)
        if degree < 0:
            raise ParseError(f"degree: expected a point count, got {degree}")
        size = element_bytes(degree)
        touched = size + degree_bytes(degree)
        if touched > STORE_BUDGET:
            raise CapExceeded(f"degree: one element on {degree} points and the points "
                              f"themselves need about {touched // 10 ** 6} MB, above the "
                              f"{STORE_BUDGET // 10 ** 6} MB budget")
        generators = _field(data, "generators", "", list, [])
        room = (STORE_BUDGET - degree_bytes(degree)) // (size + column_bytes(len(generators)))
        try:
            G = generate_group(degree, generators, cap=min(DEFAULT_CAP, room))
        except (InvalidPermutation, CapExceeded) as exc:
            raise type(exc)(f"generators: {exc}") from exc
        return G, _spec_automorphism(G, data, None), instance_id(data)
    if "name" in data:
        G, phi = build_corpus_instance(data)
        return G, phi, instance_id(data)
    raise ParseError("name: missing, and no 'degree' of a raw group file either")


def instance_id(spec: dict) -> str:
    if "id" in spec:
        return str(spec["id"])
    if "name" not in spec:
        return f"raw-degree-{spec['degree']}"
    params = spec.get("params", {})
    flat = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{spec['name']}({flat})"


def default_corpus() -> dict:
    """The versioned corpus shipped with the package."""
    from importlib import resources  # on first use: only the shipped corpus is a resource
    text = resources.files("coprimelab").joinpath("data/corpus.json").read_text("utf-8")
    return json.loads(text)
