"""Command-line surface: canonical JSON to stdout, human summary to stderr.

Exit codes: 0 success, 1 invariant failure, 2 usage or input error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .automorphisms import factorization_status, nilpotent_decompose, twisted_data
from .corpus import build_glauberman_example, default_corpus, load_instance
from .errors import GroupTheoryError, InputError, ParseError, PreconditionViolated
from .lie import build_graded_lie, jlz_series, split_field_degree
from .numutil import prime_power_base
from .report import (_auto_section, _eigen_fields, _group_section, _lie_fields, _verdict,
                     canonical_json, outcome, run_suite)
from .structure import lower_central_series

# Imported at module level, so that a command's time holds no import, and
# after the package: argparse's modules alive while the package compiles
# raised the import's memory peak by 0.3 MB.
import argparse  # noqa: E402


def _load_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal too long to convert, or arrays nested too deep
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    return data


def _load_pair(args) -> tuple:
    """The group and automorphism of the input file, which must carry one."""
    G, phi, _ = load_instance(_load_file(args.file))
    if phi is None:
        raise ParseError("automorphism: missing")
    return G, phi


def _load_coprime_pair(args) -> tuple:
    """``_load_pair``, refused when the order of phi shares a factor with |G|."""
    G, phi = _load_pair(args)
    if not phi.coprime:
        raise ParseError(f"automorphism: its order {phi.order_n} shares a factor "
                         f"with the group order {G.order}")
    return G, phi


def _characteristic(G, path: str) -> int:
    """The prime p of a p-group; any other order, 1 included, is an input error."""
    p = prime_power_base(G.order)
    if p is None:
        raise ParseError(f"{path}: group order {G.order} is not a prime power")
    return p


def _emit(payload: dict) -> int:
    """Write the payload to stdout; the command's exit code (``report.outcome``)."""
    sys.stdout.write(canonical_json(payload) + "\n")
    return outcome(payload)[0]


def cmd_info(args) -> int:
    G, _, _ = load_instance(_load_file(args.file))
    section = _group_section(G)
    print(f"info: order {section['order']}, exponent {section['exponent']}", file=sys.stderr)
    return _emit(section)


def cmd_auto(args) -> int:
    G, phi = _load_pair(args)
    section = _auto_section(G, phi)
    print(f"auto: {outcome(section)[1]}", file=sys.stderr)
    return _emit(section)


def cmd_decompose(args) -> int:
    G, phi = _load_coprime_pair(args)
    if not lower_central_series(G).is_nilpotent:
        raise ParseError(f"{args.file}: group of order {G.order} is not nilpotent")
    try:
        x = G.evaluate_word(int(tok) for tok in args.element.split(",") if tok.strip())
    except ValueError as exc:
        raise ParseError(f"--element {args.element}: {exc}") from exc
    g, h = nilpotent_decompose(phi, x)
    payload = {
        "element": x, "element_word": list(G.word(x)),
        "twisted_part": g, "twisted_word": list(G.word(g)),
        "fixed_part": h, "fixed_word": list(G.word(h)),
        "verified": _verdict(G.mul(g, h) == x),
    }
    print(f"decompose: {x} = {g} * {h}", file=sys.stderr)
    return _emit(payload)


def cmd_lie(args) -> int:
    G, _, _ = load_instance(_load_file(args.file))
    A, payload = _lie_fields(G, _characteristic(G, args.file))
    payload["structure_constants"] = [[list(k), list(v)] for k, v in sorted(A.brackets.items())]
    print(f"lie: dims {payload['layer_dims']}, class {payload['lie_class']}", file=sys.stderr)
    return _emit(payload)


def cmd_eigen(args) -> int:
    G, phi = _load_coprime_pair(args)
    p = _characteristic(G, args.file)
    try:
        split_field_degree(p, phi.order_n)
    except PreconditionViolated as exc:
        raise ParseError(f"automorphism: {exc}") from exc
    ext, payload = _eigen_fields(build_graded_lie(jlz_series(G, p)), phi)
    payload.update(p=p, modulus=list(ext.field.modulus))
    print(f"eigen: dims {payload['dims']}", file=sys.stderr)
    return _emit(payload)


def cmd_glauberman(args) -> int:
    G, phi = build_glauberman_example()
    td = twisted_data(phi)
    product_covers, criterion_holds, w = factorization_status(phi)
    verified = w is not None and (G.mul(G.inv(w["b"]), phi.table[w["b"]])
                                  == G.conjugate(w["a"], w["c"]) == w["twisted_element"])
    payload = {
        "group_order": G.order,
        "automorphism_order": phi.order_n,
        "coprime": phi.coprime,
        "fixed_order": td.fixed.order,
        "twisted_size": len(td.twisted),
        "commutator_order": td.commutator_phi.order,
        "product_covers": product_covers,
        "criterion_holds": criterion_holds,
        "witness": w,
        "witness_verified": _verdict(verified),
    }
    print(f"glauberman: |G|={G.order}, |fixed|={td.fixed.order}, "
          f"covers={product_covers}", file=sys.stderr)
    return _emit(payload)


def cmd_suite(args) -> int:
    if args.jobs < 1:
        raise ParseError(f"--jobs {args.jobs}: must be at least 1")
    corpus = _load_file(args.file) if args.file else default_corpus()
    bundle, _ = run_suite(corpus, jobs=args.jobs)
    print(f"suite: {bundle['summary']['instance_count']} instances, {outcome(bundle)[1]}",
          file=sys.stderr)
    return _emit(bundle)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coprimelab",
        description="Finite groups with coprime automorphisms: analysis toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="group statistics for an instance file")
    p.add_argument("file")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("auto", help="automorphism analysis for an instance file")
    p.add_argument("file")
    p.set_defaults(func=cmd_auto)

    p = sub.add_parser("decompose", help="twisted*fixed factorization of one element")
    p.add_argument("file")
    p.add_argument("--element", required=True,
                   help="comma-separated signed generator word, e.g. 1,2,-1")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("lie", help="graded Lie algebra of a p-group instance")
    p.add_argument("file")
    p.set_defaults(func=cmd_lie)

    p = sub.add_parser("eigen", help="eigenspace decomposition after scalar extension")
    p.add_argument("file")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("glauberman", help="the affine GF(125) counterexample report")
    p.set_defaults(func=cmd_glauberman)

    p = sub.add_parser("suite", help="run the corpus suite")
    p.add_argument("file", nargs="?", default=None,
                   help="corpus JSON (defaults to the shipped corpus)")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_suite)
    return parser


# The parser of this process, built by the first ``main`` call and reused by
# every later one: building it takes about 1.5 ms, a third of a short
# command run in-process. It is not built at import, so that a caller may
# rebind the ``cmd_*`` functions before the first call and have them run.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroupTheoryError as exc:
        print(f"invariant failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
