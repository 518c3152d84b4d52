"""Instance factory: named group constructions, automorphism recipes, corpus loading.

Corpus spec format: {"name": str, "params": {...}, "automorphism": {...}} with
the automorphism given either by a recipe or by explicit generator-image
words. Raw group files instead carry {"degree": int, "generators": [[...]]}
plus an optional {"automorphism": {"images": [[signed ints], ...]}}.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Optional

from .automorphisms import build_automorphism
from .errors import ParseError, UnknownSpec
from .gf import FiniteField
from .groups import DEFAULT_CAP, FiniteGroup, generate_group
from .numutil import is_prime


def _left_regular(elems: list, mul, g) -> tuple:
    index = {e: i for i, e in enumerate(elems)}
    return tuple(index[mul(g, x)] for x in elems)


def _cyclic(m: int, cap: int) -> tuple:
    if m < 1:
        raise UnknownSpec(f"cyclic order must be positive, got {m}")
    if m == 1:
        return generate_group(1, [], cap=cap), {}
    gen = tuple((i + 1) % m for i in range(m))
    return generate_group(m, [gen], cap=cap), {}


def _dihedral(m: int, cap: int) -> tuple:
    if m < 3:
        raise UnknownSpec(f"dihedral parameter must be >= 3, got {m}")
    rot = tuple((i + 1) % m for i in range(m))
    flip = tuple((-i) % m for i in range(m))
    G = generate_group(m, [rot, flip], cap=cap)
    if G.order != 2 * m:
        raise AssertionError("dihedral construction has wrong order")
    return G, {}


def _symmetric(m: int, cap: int) -> tuple:
    if m > 5:
        raise UnknownSpec(f"symmetric degree capped at 5, got {m}")
    if m < 1:
        raise UnknownSpec(f"symmetric degree must be positive, got {m}")
    if m == 1:
        return generate_group(1, [], cap=cap), {}
    cycle = tuple((i + 1) % m for i in range(m))
    swap = tuple([1, 0] + list(range(2, m)))
    return generate_group(m, [cycle, swap] if m > 2 else [swap], cap=cap), {}


def _heisenberg(p: int, cap: int) -> tuple:
    """Upper unitriangular 3x3 matrices over F_p, acting on themselves."""
    if not is_prime(p) or p == 2:
        raise UnknownSpec(f"heisenberg parameter must be an odd prime, got {p}")
    elems = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]

    def mul(u, v):
        return ((u[0] + v[0]) % p, (u[1] + v[1]) % p,
                (u[2] + v[2] + u[0] * v[1]) % p)

    gens = [_left_regular(elems, mul, (1, 0, 0)), _left_regular(elems, mul, (0, 1, 0))]
    G = generate_group(p ** 3, gens, cap=cap)
    if G.order != p ** 3:
        raise AssertionError("heisenberg construction has wrong order")
    return G, {}


def _modular(p: int, cap: int) -> tuple:
    """Order p^3 with a cyclic maximal subgroup: x+1 and x*(1+p) on Z/p^2."""
    if not is_prime(p) or p == 2:
        raise UnknownSpec(f"modular parameter must be an odd prime, got {p}")
    m = p * p
    add = tuple((i + 1) % m for i in range(m))
    scale = tuple((i * (1 + p)) % m for i in range(m))
    G = generate_group(m, [add, scale], cap=cap)
    if G.order != p ** 3:
        raise AssertionError("modular construction has wrong order")
    return G, {}


def _affine(p: int, k: int, cap: int) -> tuple:
    """Full affine group x -> b*x + a of GF(p^k) on the field elements."""
    if not is_prime(p) or k < 1:
        raise UnknownSpec(f"affine parameters need a prime and k >= 1, got ({p}, {k})")
    field = FiniteField(p, k)
    q = field.order
    one = field.one
    g = field.multiplicative_generator()
    translate = tuple(field.index(field.from_index(i) + one) for i in range(q))
    scale = tuple(field.index(g * field.from_index(i)) for i in range(q))
    gens = [translate, scale] if q > 2 else [translate]
    G = generate_group(q, gens, cap=cap)
    if G.order != q * (q - 1):
        raise AssertionError("affine construction has wrong order")
    return G, {"field": field}


def _direct_product(factors: list, cap: int, where: str) -> tuple:
    built = []
    for i, f in enumerate(factors):
        sub, _ = _build_group(f, cap, f"{where}[{i}].")
        built.append(sub)
    degree = sum(g.degree for g in built)
    gens = []
    gen_offsets = []
    pos = 0
    gcount = 0
    for g in built:
        gen_offsets.append(gcount)
        for perm in g.generators:
            full = list(range(degree))
            for i, img in enumerate(perm):
                full[pos + i] = pos + img
            gens.append(tuple(full))
        pos += g.degree
        gcount += len(g.generators)
    G = generate_group(degree, gens, cap=cap)
    expected = 1
    for g in built:
        expected *= g.order
    if G.order != expected:
        raise AssertionError("direct product construction has wrong order")
    meta = {"factor_specs": factors, "factor_gen_offsets": gen_offsets,
            "factor_gen_counts": [len(g.generators) for g in built]}
    return G, meta


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
    if not isinstance(obj[key], kind):
        raise ParseError(f"{where}{key}: expected {kind.__name__}, got {obj[key]!r}")
    return obj[key]


def _build_group(spec: dict, cap: int, where: str = "") -> tuple:
    """Build the named group; ``where`` prefixes the JSON paths in errors."""
    name = _field(spec, "name", where)
    params = _field(spec, "params", where, dict, {})

    def param(key):
        return _field(params, key, f"{where}params.", int)

    if name == "cyclic":
        return _cyclic(param("m"), cap)
    if name == "dihedral":
        return _dihedral(param("m"), cap)
    if name == "symmetric":
        return _symmetric(param("m"), cap)
    if name == "heisenberg":
        return _heisenberg(param("p"), cap)
    if name == "modular":
        return _modular(param("p"), cap)
    if name == "affine":
        return _affine(param("p"), param("k"), cap)
    if name == "direct_product":
        factors = _field(params, "factors", f"{where}params.", list)
        return _direct_product(factors, cap, f"{where}params.factors")
    raise UnknownSpec(f"unrecognized instance name {name!r}")


def _power_word(gen_index: int, k: int) -> tuple:
    if not isinstance(k, int) or k == 0:
        raise UnknownSpec(f"power recipe needs a nonzero integer exponent, got {k!r}")
    if k > 0:
        return (gen_index + 1,) * k
    return (-(gen_index + 1),) * (-k)


def _frobenius_images_additive(p: int, k: int) -> list:
    """Images of the coordinate translations of GF(p^k) under x -> x^p."""
    field = FiniteField(p, k)
    images = []
    for i in range(k):
        basis = field.element(tuple(1 if t == i else 0 for t in range(k)))
        image = basis ** p
        word = []
        for gi, coeff in enumerate(image.coeffs):
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
        return [_power_word(i, k) for i in range(ngens)]
    if kind == "gen_powers":
        powers = _field(recipe, "powers", "automorphism.", list)
        if len(powers) != ngens:
            raise UnknownSpec(f"gen_powers needs {ngens} exponents")
        return [_power_word(i, k) for i, k in enumerate(powers)]
    if kind == "swap":
        blocks = _field(recipe, "blocks", "automorphism.", list, [0, 1])
        specs = meta.get("factor_specs")
        if specs is None:
            raise UnknownSpec("swap recipe applies to direct products only")
        if len(blocks) != 2 or not all(type(k) is int and 0 <= k < len(specs) for k in blocks):
            raise ParseError(f"automorphism.blocks: expected two factor positions "
                             f"below {len(specs)}, got {blocks!r}")
        a, b = blocks
        if specs[a] != specs[b]:
            raise UnknownSpec("swap recipe needs identical factors")
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
                raise UnknownSpec("frobenius recipe needs cyclic(p)^k factors")
            ps = {int(s["params"]["m"]) for s in specs}
            if len(ps) != 1:
                raise UnknownSpec("frobenius recipe needs equal cyclic factors")
            p = ps.pop()
            if not is_prime(p):
                raise UnknownSpec("frobenius recipe needs prime cyclic factors")
            return _frobenius_images_additive(p, len(specs))
        raise UnknownSpec(f"frobenius recipe does not apply to {name!r}")
    raise UnknownSpec(f"unrecognized automorphism recipe {kind!r}")


def _spec_automorphism(G: FiniteGroup, spec: dict, meta: Optional[dict]):
    """The spec's automorphism from its image words, or from its recipe when the
    spec names its group (``meta`` is None for raw group files); None if absent."""
    auto = _field(spec, "automorphism", "", dict, None)
    if auto is None:
        return None
    if meta is not None and "images" not in auto:
        return build_automorphism(G, _recipe_images(G, spec, meta, auto))
    words = _field(auto, "images", "automorphism.", list)
    n = len(G.generators)
    if len(words) != n or not all(isinstance(w, list) and all(
            type(k) is int and 0 < abs(k) <= n for k in w) for w in words):
        raise ParseError(f"automorphism.images: expected {n} image words of generator "
                         f"numbers from -{n} to {n} but 0, got {words!r}")
    return build_automorphism(G, [tuple(w) for w in words])


def build_corpus_instance(spec: dict, cap: Optional[int] = None):
    """Build (group, automorphism-or-None) from a corpus instance spec."""
    cap = cap if cap is not None else _field(spec, "cap", "", int, DEFAULT_CAP)
    G, meta = _build_group(spec, cap)
    return G, _spec_automorphism(G, spec, meta)


def build_glauberman_example(cap: Optional[int] = None):
    """The affine group of GF(125) with the automorphism induced by x -> x^5.

    Generators are the translation by 1 and the scaling by the least
    multiplicative generator; the induced map fixes the translation and
    raises the scaling to its fifth power.
    """
    cap = cap if cap is not None else DEFAULT_CAP
    G, meta = _affine(5, 3, cap)
    if G.order != 15500:
        raise AssertionError(f"expected order 15500, got {G.order}")
    phi = build_automorphism(G, [(1,), (2, 2, 2, 2, 2)])
    if phi.order_n != 3 or not phi.coprime:
        raise AssertionError("Frobenius conjugation should be coprime of order 3")
    return G, phi


def load_instance(data: dict, cap: Optional[int] = None):
    """Accept either a raw group file or a corpus instance spec.

    Returns (group, automorphism-or-None, instance id).
    """
    if "degree" in data:
        cap = cap if cap is not None else _field(data, "cap", "", int, DEFAULT_CAP)
        G = generate_group(_field(data, "degree", "", int),
                           _field(data, "generators", "", list, []), cap=cap)
        return G, _spec_automorphism(G, data, None), data.get("id", f"raw-degree-{data['degree']}")
    if "name" in data:
        G, phi = build_corpus_instance(data, cap=cap)
        return G, phi, instance_id(data)
    raise ParseError("input must carry either 'degree' or 'name'")


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
    text = resources.files("coprimelab").joinpath("data/corpus.json").read_text("utf-8")
    return json.loads(text)
