"""Command-line surface: canonical JSON to stdout, human summary to stderr.

Exit codes: 0 success, 1 invariant failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .automorphisms import factorization_status, nilpotent_decompose, twisted_data
from .corpus import build_glauberman_example, default_corpus, load_instance
from .errors import (CapExceeded, GroupTheoryError, InvalidPermutation, NotBijective,
                     NotHomomorphism, ParseError, UnknownSpec)
from .lie import (build_graded_lie, check_lazard_all, check_riley, extend_and_eigendecompose,
                  induced_action_order, jlz_series, verify_eigen_product_rule,
                  verify_np_series)
from .numutil import is_prime, prime_power_base
from .report import _auto_section, _group_section, canonical_json, count_verdicts, run_suite

_INPUT_ERRORS = (ParseError, UnknownSpec, InvalidPermutation, NotBijective,
                 NotHomomorphism, CapExceeded)

# `eigen --n` finds its field's modulus by trial division over up to p**degree
# polynomials: on heisenberg(5), degree 6 took 0.09 s and degree 10 took 81 s.
MAX_FIELD_DEGREE = 6


def _load_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    return data


def _emit(payload: dict) -> None:
    sys.stdout.write(canonical_json(payload) + "\n")


def cmd_info(args) -> int:
    G, _, _ = load_instance(_load_file(args.file), cap=args.cap)
    section = _group_section(G)
    _emit(section)
    print(f"info: order {section['order']}, exponent {section['exponent']}", file=sys.stderr)
    return 0


def cmd_auto(args) -> int:
    G, phi, _ = load_instance(_load_file(args.file), cap=args.cap)
    if phi is None:
        raise ParseError("input carries no automorphism")
    section = _auto_section(G, phi)
    _emit(section)
    fails = count_verdicts(section)["fail"]
    print(f"auto: {'ok' if not fails else f'{fails} failing checks'}", file=sys.stderr)
    return 1 if fails else 0


def cmd_decompose(args) -> int:
    spec = _load_file(args.file)
    G, phi, _ = load_instance(spec, cap=args.cap)
    if phi is None:
        raise ParseError("input carries no automorphism")
    try:
        x = G.evaluate_word(int(tok) for tok in args.element.split(",") if tok.strip())
    except ValueError as exc:
        raise ParseError(f"--element {args.element}: {exc}") from exc
    g, h = nilpotent_decompose(phi, x)
    payload = {
        "element": x, "element_word": list(G.words[x]),
        "twisted_part": g, "twisted_word": list(G.words[g]),
        "fixed_part": h, "fixed_word": list(G.words[h]),
        "verified": "pass" if G.mul(g, h) == x else "fail",
    }
    _emit(payload)
    print(f"decompose: {x} = {g} * {h}", file=sys.stderr)
    return 0 if payload["verified"] == "pass" else 1


def cmd_lie(args) -> int:
    spec = _load_file(args.file)
    G, phi, _ = load_instance(spec, cap=args.cap)
    p = prime_power_base(G.order)
    if args.p is not None:
        if not is_prime(args.p):
            raise ParseError(f"--p {args.p}: not a prime")
        if G.order > 1 and p != args.p:
            raise ParseError(f"--p {args.p}: group order {G.order} is not a power of it")
        p = args.p
    if p is None:
        raise ParseError("group order is not a prime power; pass --p")
    series = jlz_series(G, p)
    A = build_graded_lie(series)
    sparse = [[list(k), list(v)] for k, v in sorted(A.brackets.items())]
    payload = {
        "p": p,
        "layer_dims": list(A.dims),
        "np_series": verify_np_series(series)["verdict"],
        "lie_class": A.lie_class_of_generated(),
        "structure_constants": sparse,
        "lazard": check_lazard_all(A)["verdict"],
        "riley": check_riley(G, p, algebra=A)["verdict"],
    }
    _emit(payload)
    print(f"lie: dims {payload['layer_dims']}, class {payload['lie_class']}", file=sys.stderr)
    return 0 if payload["lazard"] == "pass" and payload["riley"] == "pass" else 1


def cmd_eigen(args) -> int:
    spec = _load_file(args.file)
    G, phi, _ = load_instance(spec, cap=args.cap)
    if phi is None:
        raise ParseError("input carries no automorphism")
    p = prime_power_base(G.order)
    if p is None:
        raise ParseError("group order is not a prime power")
    A = build_graded_lie(jlz_series(G, p))
    if args.n is not None:
        if args.n < 1:
            raise ParseError(f"--n {args.n}: not a positive integer")
        if math.gcd(args.n, p) != 1:
            raise ParseError(f"--n {args.n}: shares a factor with the characteristic {p}")
        # the field degree is the multiplicative order of p mod n
        if all(pow(p, d, args.n) != 1 % args.n for d in range(1, MAX_FIELD_DEGREE + 1)):
            raise ParseError(f"--n {args.n}: its roots of unity need an extension of F_{p} "
                             f"of degree above {MAX_FIELD_DEGREE}")
        m = induced_action_order(A, phi)
        if args.n % m:
            raise ParseError(f"--n {args.n}: the induced action has order {m}, "
                             f"which does not divide it")
    ext = extend_and_eigendecompose(A, phi, n=args.n)
    payload = {
        "p": p, "n": ext.n, "field_degree": ext.field.k,
        "modulus": list(ext.field.modulus),
        "dims": [list(d) for d in ext.dims],
        "product_rule": verify_eigen_product_rule(ext)["verdict"],
    }
    _emit(payload)
    print(f"eigen: dims {payload['dims']}", file=sys.stderr)
    return 0 if payload["product_rule"] == "pass" else 1


def cmd_glauberman(args) -> int:
    G, phi = build_glauberman_example(cap=args.cap)
    td = twisted_data(phi)
    status = factorization_status(phi)
    verified = "fail"
    if status.witness:
        w = status.witness
        lhs = G.mul(G.inv(w["b"]), phi.table[w["b"]])
        rhs = G.conjugate(w["a"], w["c"])
        verified = "pass" if lhs == rhs == w["twisted_element"] else "fail"
    payload = {
        "group_order": G.order,
        "automorphism_order": phi.order_n,
        "coprime": phi.coprime,
        "fixed_order": td.fixed.order,
        "twisted_size": len(td.twisted),
        "commutator_order": td.commutator_phi.order,
        "product_covers": status.product_covers,
        "criterion_holds": status.criterion_holds,
        "witness": status.witness,
        "witness_verified": verified,
    }
    _emit(payload)
    print(f"glauberman: |G|={G.order}, |fixed|={td.fixed.order}, "
          f"covers={status.product_covers}", file=sys.stderr)
    return 0 if verified == "pass" else 1


def cmd_suite(args) -> int:
    corpus = _load_file(args.file) if args.file else default_corpus()
    bundle, code = run_suite(corpus, jobs=args.jobs, cap=args.cap)
    _emit(bundle)
    s = bundle["summary"]
    print(f"suite: {s['instance_count']} instances, {s['pass']} pass, "
          f"{s['fail']} fail, {s['skipped']} skipped", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coprimelab",
        description="Finite groups with coprime automorphisms: analysis toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cap(p):
        p.add_argument("--cap", type=int, default=None,
                       help="enumeration cap (default 200000)")

    p = sub.add_parser("info", help="group statistics for an instance file")
    p.add_argument("file")
    add_cap(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("auto", help="automorphism analysis for an instance file")
    p.add_argument("file")
    add_cap(p)
    p.set_defaults(func=cmd_auto)

    p = sub.add_parser("decompose", help="twisted*fixed factorization of one element")
    p.add_argument("file")
    p.add_argument("--element", required=True,
                   help="comma-separated signed generator word, e.g. 1,2,-1")
    add_cap(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("lie", help="graded Lie algebra of a p-group instance")
    p.add_argument("file")
    p.add_argument("--p", type=int, default=None)
    add_cap(p)
    p.set_defaults(func=cmd_lie)

    p = sub.add_parser("eigen", help="eigenspace decomposition after scalar extension")
    p.add_argument("file")
    p.add_argument("--n", type=int, default=None)
    add_cap(p)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("glauberman", help="the affine GF(125) counterexample report")
    add_cap(p)
    p.set_defaults(func=cmd_glauberman)

    p = sub.add_parser("suite", help="run the corpus suite")
    p.add_argument("file", nargs="?", default=None,
                   help="corpus JSON (defaults to the shipped corpus)")
    p.add_argument("--jobs", type=int, default=1)
    add_cap(p)
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cap is not None and args.cap < 1:
            raise ParseError(f"--cap {args.cap}: must be at least 1")
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroupTheoryError as exc:
        print(f"invariant failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
