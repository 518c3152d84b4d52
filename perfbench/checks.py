"""Output checks for the benchmark, made apart from the program.

Nothing here imports coprimelab. Group orders come from closed formulas for
each spec, and witnesses are replayed by composing the permutation tuples of
the enumerated elements directly, never through ``FiniteGroup.mul``. Every
check raises CheckFailed with a message naming what broke.
"""

from __future__ import annotations

import math

GLAUBERMAN_ORDER = 125 * 124
GLAUBERMAN_FIXED = 20          # C_G(phi): the affine maps of GF(5) inside GF(125)
GLAUBERMAN_TWISTED = GLAUBERMAN_ORDER // GLAUBERMAN_FIXED
GLAUBERMAN_PHI_ORDER = 3       # x -> x^5 has order 3 on GF(5^3)
GLAUBERMAN_EXPONENT = math.lcm(5, 124)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# permutation tuples, composed as the program documents: (a*b)(x) = a(b(x))

def compose(a: tuple, b: tuple) -> tuple:
    return tuple(a[x] for x in b)


def inverse(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, img in enumerate(a):
        out[img] = i
    return tuple(out)


def power(a: tuple, k: int) -> tuple:
    base = a if k >= 0 else inverse(a)
    out = tuple(range(len(a)))
    for _ in range(abs(k)):
        out = compose(out, base)
    return out


def evaluate_word(word, generators, images=None) -> tuple:
    """Product of signed 1-based generator letters, left to right.

    With ``images``, letter i stands for ``images[i-1]`` instead of the
    generator itself, which evaluates the image of the word under a map.
    """
    gens = images if images is not None else generators
    out = tuple(range(len(generators[0])))
    for k in word:
        g = gens[abs(k) - 1]
        out = compose(out, g if k > 0 else inverse(g))
    return out


# group orders from the spec alone

def expected_order(spec: dict) -> int:
    name = spec["name"]
    params = spec.get("params", {})
    if name == "cyclic":
        return params["m"]
    if name == "dihedral":
        return 2 * params["m"]
    if name == "symmetric":
        return math.factorial(params["m"])
    if name in ("heisenberg", "modular"):
        return params["p"] ** 3
    if name == "affine":
        q = params["p"] ** params["k"]
        return q * (q - 1)
    if name == "direct_product":
        return math.prod(expected_order(f) for f in params["factors"])
    raise CheckFailed(f"no order formula for {name!r}")


def count_fails(node) -> int:
    if isinstance(node, str):
        return int(node == "fail")
    if isinstance(node, dict):
        return sum(count_fails(v) for v in node.values())
    if isinstance(node, list):
        return sum(count_fails(v) for v in node)
    return 0


def check_twisted_fixed(twisted_size: int, fixed_order: int, order: int, where: str) -> None:
    require(twisted_size * fixed_order == order,
            f"{where}: |twisted| * |fixed| = {twisted_size} * {fixed_order} != |G| = {order}")


def check_layer_dims(p: int, layer_dims: list, order: int, where: str) -> None:
    require(p ** sum(layer_dims) == order,
            f"{where}: Lie layer dimensions {layer_dims} do not sum to log_{p} {order}")


def check_eigen_dims(eigen_dims: list, layer_dims: list, where: str) -> None:
    require(len(eigen_dims) == len(layer_dims)
            and all(sum(e) == d for e, d in zip(eigen_dims, layer_dims)),
            f"{where}: eigen dimensions {eigen_dims} do not sum to the layer dimensions "
            f"{layer_dims}")


# the Glauberman counterexample

def frobenius_points(generators: list, p: int = 5) -> tuple:
    """The point permutation x -> x^p of the affine group's field.

    It is read off the generator tuples alone: the scaling generator fixes
    exactly the point 0, the translation sends 0 to 1, and the powers of the
    scaling generator applied to 1 list the nonzero points as g^0, g^1, ...
    """
    t, s = generators[0], generators[1]
    n = len(s)
    zeros = [x for x in range(n) if s[x] == x]
    require(len(zeros) == 1, "scaling generator must fix exactly one point")
    points = [t[zeros[0]]]
    while s[points[-1]] != points[0]:
        points.append(s[points[-1]])
    require(len(points) == n - 1, "scaling generator must be a multiplicative generator")
    frob = list(range(n))
    for k, x in enumerate(points):
        frob[x] = points[p * k % (n - 1)]
    frob = tuple(frob)
    # phi is conjugation by the Frobenius map: it fixes the translation and
    # raises the scaling to its p-th power.
    finv = inverse(frob)
    require(compose(compose(frob, t), finv) == t, "Frobenius must fix the translation")
    require(compose(compose(frob, s), finv) == power(s, p), "Frobenius must send s to s^p")
    return frob


def replay_glauberman_witness(witness: dict, elements: list, generators: list) -> None:
    """b^-1 b^phi = c^-1 a c with a != 1 fixed by phi: a nontrivial twisted
    element is conjugate into C_G(phi), so the product does not cover G."""
    require(isinstance(witness, dict), "product does not cover but no witness is given")
    a, b, c = (elements[witness[k]] for k in ("a", "b", "c"))
    twisted = elements[witness["twisted_element"]]
    frob = frobenius_points(generators)
    finv = inverse(frob)

    def phi(y):
        return compose(compose(frob, y), finv)

    identity = tuple(range(len(a)))
    require(a != identity and phi(a) == a, "witness a is not a nontrivial fixed element")
    lhs = compose(inverse(b), phi(b))
    rhs = compose(compose(inverse(c), a), c)
    require(lhs == twisted, "witness: b^-1 b^phi is not the twisted element")
    require(rhs == twisted, "witness: c^-1 a c is not the twisted element")


def check_glauberman(order, phi_order, fixed, twisted, product_covers, witness,
                     elements, generators, exponent=None) -> None:
    where = "glauberman"
    require(order == GLAUBERMAN_ORDER, f"{where}: |G| = {order}, expected {GLAUBERMAN_ORDER}")
    require(phi_order == GLAUBERMAN_PHI_ORDER, f"{where}: phi has order {phi_order}")
    require(fixed == GLAUBERMAN_FIXED, f"{where}: |C_G(phi)| = {fixed}")
    require(twisted == GLAUBERMAN_TWISTED, f"{where}: {twisted} twisted elements")
    if exponent is not None:
        require(exponent == GLAUBERMAN_EXPONENT, f"{where}: exponent {exponent}")
    require(product_covers is False, f"{where}: product_covers should be false")
    replay_glauberman_witness(witness, elements, generators)


# suite bundles

def check_instance(spec: dict, rep: dict) -> None:
    where = str(spec.get("id"))
    require(rep.get("id") == spec.get("id"), f"{where}: report carries id {rep.get('id')!r}")
    require("skipped" not in rep and "hard_error" not in rep, f"{where}: instance not analysed")
    order = expected_order(spec)
    require(rep["group"]["order"] == order,
            f"{where}: |G| = {rep['group']['order']}, formula gives {order}")
    auto = rep["automorphism"]
    if auto is not None:
        check_twisted_fixed(auto["twisted_size"], auto["fixed_order"], order, where)
    lie = rep["lie"]
    if isinstance(lie, dict):
        check_layer_dims(lie["p"], lie["layer_dims"], order, where)
        if isinstance(lie.get("eigen"), dict):
            check_eigen_dims(lie["eigen"]["dims"], lie["layer_dims"], where)


def check_suite(bundle: dict, specs: list) -> None:
    summary = bundle["summary"]
    reports = bundle["instances"]
    require(summary["fail"] == 0 and count_fails(reports) == 0,
            f"suite: {summary['fail']} fail verdicts")
    require(summary["hard_failures"] == [], f"suite: hard failures {summary['hard_failures']}")
    require(summary["instance_count"] == len(reports) == len(specs),
            f"suite: {len(reports)} reports for {len(specs)} instances")
    for spec, rep in zip(specs, reports):
        check_instance(spec, rep)


def check_suite_glauberman(rep: dict, elements: list, generators: list) -> None:
    auto = rep["automorphism"]
    check_glauberman(rep["group"]["order"], auto["order"], auto["fixed_order"],
                     auto["twisted_size"], auto["factorization"]["product_covers"],
                     auto["factorization"]["witness"], elements, generators,
                     exponent=rep["group"]["exponent"])


# single commands

def check_info(spec: dict, payload: dict) -> None:
    where = f"info {spec['id']}"
    order = expected_order(spec)
    require(payload["order"] == order, f"{where}: |G| = {payload['order']}, formula gives {order}")
    require(order % payload["exponent"] == 0, f"{where}: exponent does not divide |G|")
    require(count_fails(payload) == 0, f"{where}: fail verdict")


def check_auto(spec: dict, payload: dict) -> None:
    where = f"auto {spec['id']}"
    check_twisted_fixed(payload["twisted_size"], payload["fixed_order"], expected_order(spec), where)
    require(payload["coprime"] is True, f"{where}: action reported as not coprime")
    require(count_fails(payload) == 0, f"{where}: fail verdict")


def check_lie(spec: dict, payload: dict) -> None:
    where = f"lie {spec['id']}"
    check_layer_dims(payload["p"], payload["layer_dims"], expected_order(spec), where)
    require(payload["lazard"] == "pass" and payload["riley"] == "pass", f"{where}: fail verdict")


def check_eigen(spec: dict, payload: dict, layer_dims: list) -> None:
    where = f"eigen {spec['id']}"
    check_layer_dims(payload["p"], [sum(d) for d in payload["dims"]], expected_order(spec), where)
    check_eigen_dims(payload["dims"], layer_dims, where)
    require(payload["product_rule"] == "pass", f"{where}: fail verdict")


def check_glauberman_payload(payload: dict, elements: list, generators: list) -> None:
    require(payload["coprime"] is True, "glauberman: action reported as not coprime")
    check_glauberman(payload["group_order"], payload["automorphism_order"],
                     payload["fixed_order"], payload["twisted_size"],
                     payload["product_covers"], payload["witness"], elements, generators)


def check_decompose(word: list, payload: dict, elements: list, generators: list,
                    gen_powers: list) -> None:
    """x = g h with h fixed by phi, and g trivial or moved by phi.

    phi is applied as the map g_i -> g_i**k_i on the generator letters of a
    word for the element, so the check does not use the program's table.
    """
    where = f"decompose {word}"
    x, g, h = (elements[payload[k]] for k in ("element", "twisted_part", "fixed_part"))
    require(evaluate_word(word, generators) == x, f"{where}: element is not the queried word")
    require(compose(g, h) == x, f"{where}: twisted part times fixed part is not the element")
    images = [power(gen, k) for gen, k in zip(generators, gen_powers)]
    for key, elem in (("fixed", h), ("twisted", g)):
        word_k = payload[f"{key}_word"]
        require(evaluate_word(word_k, generators) == elem, f"{where}: {key} word mismatch")
        moved = evaluate_word(word_k, generators, images) != elem
        if key == "fixed":
            require(not moved, f"{where}: fixed part is moved by phi")
        else:
            # a twisted element fixed by a coprime phi is trivial
            require(moved or elem == tuple(range(len(elem))), f"{where}: twisted part is fixed")
