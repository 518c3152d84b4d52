"""Per-instance analysis reports, exponent probes, and the suite runner.

Every verdict field is exactly "pass", "fail" or "skipped: <reason>"; reports
contain only ints, strings, bools, lists and dicts, and serialize to
byte-identical canonical JSON (sorted keys, no whitespace) across runs and
across worker counts.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .automorphisms import (Automorphism, TwistedData, check_coprime_facts,
                            commutator_derived_length, commutator_twisted_data,
                            decomposition_witness, default_normal_family,
                            factorization_status, fixed_generation_S,
                            fixed_points_of_product, is_phi_invariant, orbit_representatives,
                            phi_invariant_closure, soluble_exponent_probe, twisted_data,
                            twisted_orbit_representatives, twisted_pair_closures)
from .corpus import instance_id, load_instance
from .errors import (CapExceeded, GroupTheoryError, InvalidPermutation, NotBijective,
                     NotCoprime, NotHomomorphism, NotSoluble, ParseError, UnknownSpec)
from .groups import FiniteGroup, center, is_normal, subgroup_generated
from .lie import (build_graded_lie, check_lazard_all, check_riley, extend_and_eigendecompose,
                  jlz_series, lie_fixed_points, subalgebra_LGH, verify_bracket_axioms,
                  verify_eigen_product_rule, verify_np_series)
from .numutil import big_omega, prime_power_base
from .structure import derived_series, fitting_height, is_powerful, lower_central_series

PAIR_CAP = 1_000_000


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _skip(reason: str) -> str:
    return f"skipped: {reason}"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _above_pair_cap(phi: Automorphism, td: TwistedData) -> Optional[str]:
    """Why the walk over twisted pairs of ``td`` is skipped, or None when
    the r(r+1)/2 closures that ``twisted_pair_closures`` makes from r
    <phi>-orbits on its twisted set are at most ``PAIR_CAP``."""
    r = len(twisted_orbit_representatives(phi, td))
    pairs = r * (r + 1) // 2
    return f"{pairs} orbit pairs above the pair cap" if pairs > PAIR_CAP else None


def theorem1_probe(phi: Automorphism) -> dict:
    """Largest exponent of a minimal invariant closure of a fixed or twisted
    element, recorded against the group exponent.

    A fixed x is its own <phi>-orbit, so its closure is <x>, of exponent the
    order of x. A twisted closure lies in the phi-invariant [G, phi], so its
    exponent divides exp([G, phi]); the twisted set is a union of
    <phi> x C_G(phi) orbits and conjugate closures share their exponent, so
    one closure per orbit is walked, until e_star reaches exp([G, phi]).
    """
    if not phi.coprime:
        raise NotCoprime("probe requires a coprime action")
    G = phi.group
    td = twisted_data(phi)
    e_star = max(map(G.element_order, td.fixed.members))
    bound = G.exponent_of(td.commutator_phi.members)
    for x in orbit_representatives(phi, td.twisted_set):
        if e_star >= bound:
            break
        e_star = max(e_star, G.exponent_of(phi_invariant_closure(phi, {x}).members))
    return {"e_star": e_star, "n": phi.order_n, "exponent": G.exponent()}


def theorem2_probe(phi: Automorphism) -> dict:
    """Class of the fixed subgroup, twisted exponent bound, and the largest
    derived length over invariant closures of twisted pairs.

    The walk closes one pair per pair of <phi>-orbits on the twisted set
    (``twisted_pair_closures``), so d is exact. Every such closure lies in the
    phi-invariant [G, phi], so the walk stops once d reaches the derived
    length of [G, phi], which is computed once (``commutator_derived_length``);
    an insoluble [G, phi] gives no bound, so every closure is checked. Equal
    closures from different pairs share one derived series: the walk keeps
    one length per member set, [G, phi]'s among them. Above the pair cap the
    probe is skipped, and it is skipped first when the fixed subgroup is not
    nilpotent.
    """
    if not phi.coprime:
        raise NotCoprime("probe requires a coprime action")
    G = phi.group
    td = twisted_data(phi)
    fixed_lcs = lower_central_series(G, td.fixed)
    if not fixed_lcs.is_nilpotent:
        return {"skipped": "fixed-point subgroup is not nilpotent"}
    reason = _above_pair_cap(phi, td)
    if reason:
        return {"skipped": reason}
    bound = commutator_derived_length(phi)
    lengths = {td.commutator_phi.member_set: bound}  # derived length per distinct closure
    d = 0
    for K in twisted_pair_closures(phi, td):
        key = K.member_set
        if key not in lengths:
            lengths[key] = derived_series(G, K).derived_length
        dl = lengths[key]
        if dl is None:
            return {"skipped": "a twisted-pair closure is insoluble"}
        d = max(d, dl)
        if d == bound:
            break
    return {"c": fixed_lcs.nilpotency_class, "d": d, "e": G.exponent_of(td.twisted),
            "n": phi.order_n, "exponent_commutator": G.exponent_of(td.commutator_phi.members)}


def thompson_probe(phi: Automorphism) -> dict:
    """Record (prime divisor count of the automorphism order, Fitting height)."""
    if not phi.coprime:
        raise NotCoprime("probe requires a coprime action")
    G = phi.group
    if not derived_series(G).is_soluble:
        raise NotSoluble("Fitting height needs a soluble group")
    return {"omega_n": big_omega(phi.order_n), "n": phi.order_n,
            "fitting_height": fitting_height(G)}


def _group_section(G: FiniteGroup) -> dict:
    lcs = lower_central_series(G)
    ds = derived_series(G)
    p = prime_power_base(G.order)
    section = {
        "order": G.order,
        "degree": G.degree,
        "exponent": G.exponent(),
        "is_nilpotent": lcs.is_nilpotent,
        "nilpotency_class": lcs.nilpotency_class,
        "is_soluble": ds.is_soluble,
        "derived_length": ds.derived_length,
        "lower_central_orders": list(lcs.orders),
        "derived_orders": list(ds.orders),
        "is_p_group": p is not None,
        "p": p,
    }
    section["fitting_height"] = fitting_height(G) if ds.is_soluble else None
    if lcs.is_nilpotent:
        section["derived_length_class_bound"] = _verdict(
            ds.derived_length <= lcs.nilpotency_class + 1)
    else:
        section["derived_length_class_bound"] = _skip("group is not nilpotent")
    return section


def _auto_section(G: FiniteGroup, phi: Automorphism) -> dict:
    td = twisted_data(phi)
    cp = td.commutator_phi
    section: dict = {
        "order": phi.order_n,
        "coprime": phi.coprime,
        "fixed_order": td.fixed.order,
        "twisted_size": len(td.twisted),
        "commutator_order": cp.order,
        "commutator_normal_invariant": _verdict(is_phi_invariant(phi, cp) and is_normal(G, cp)),
    }
    if not phi.coprime:
        for key in ("factorization", "coprime_facts", "product_fixed_points",
                    "unique_decomposition", "fixed_generation", "soluble_exponent",
                    "soluble_when_fixed_nilpotent"):
            section[key] = _skip("action is not coprime")
        return section

    status = factorization_status(phi)
    section["factorization"] = {
        "product_covers": status.product_covers,
        "criterion_holds": status.criterion_holds,
        "equivalence": _verdict(status.product_covers == status.criterion_holds),
        "witness": status.witness,
    }
    section["coprime_facts"] = check_coprime_facts(phi)
    family = default_normal_family(phi)
    section["product_fixed_points"] = (fixed_points_of_product(phi, family)
                                       if family else _skip("no nontrivial invariant normals"))

    fixed_nilpotent = lower_central_series(G, td.fixed).is_nilpotent
    if fixed_nilpotent:
        section["soluble_when_fixed_nilpotent"] = _verdict(derived_series(G).is_soluble)
    else:
        section["soluble_when_fixed_nilpotent"] = _skip("fixed-point subgroup not nilpotent")

    # fixed_generation and soluble_exponent analyse phi on [G, phi] inside G
    nilpotent = lower_central_series(G).is_nilpotent
    if nilpotent:
        witness = decomposition_witness(phi)
        section["unique_decomposition"] = _verdict(witness is None)
        if witness:
            section["unique_decomposition_witness"] = witness
        reason = _above_pair_cap(phi, commutator_twisted_data(phi))
        if reason:
            section["fixed_generation"] = _skip(reason)
        else:
            gen_report = fixed_generation_S(phi)
            section["fixed_generation"] = {
                "restricted_to_commutator_order": cp.order,
                "S_size": gen_report["S_size"],
                "generates": _verdict(gen_report["generates"]),
            }
    else:
        section["unique_decomposition"] = _skip("group is not nilpotent")
        section["fixed_generation"] = _skip("group is not nilpotent")

    if derived_series(G).is_soluble:
        section["soluble_exponent"] = soluble_exponent_probe(phi)
    else:
        section["soluble_exponent"] = _skip("group is not soluble")
    return section


def _lie_section(G: FiniteGroup, phi: Optional[Automorphism], p: int) -> dict:
    series = jlz_series(G, p)
    np_report = verify_np_series(series)
    A = build_graded_lie(series)
    c = A.lie_class_of_generated()
    section: dict = {
        "p": p,
        "layer_dims": list(A.dims),
        "np_series": np_report["verdict"],
        "bracket_axioms": verify_bracket_axioms(A)["verdict"],
        "lie_class": c,
        "lazard": check_lazard_all(A)["verdict"],
    }
    riley = check_riley(A)
    section["riley"] = riley["verdict"]
    section["riley_term_order"] = riley["term_order"]
    term = A.series.term(c + 1)
    bound = G.exponent_of(term.members) * p ** c
    section["exponent_split"] = _verdict(bound % G.exponent() == 0)
    if is_powerful(G, p):
        # powerful p-groups: elements of order dividing m generate exponent-m subgroups
        ok = True
        m = p
        while m <= G.exponent():
            seeds = {x for x in range(G.order) if m % G.element_order(x) == 0}
            if m % G.exponent_of(subgroup_generated(G, seeds).members) != 0:
                ok = False
            m *= p
        section["powerful_generation"] = _verdict(ok)
    else:
        section["powerful_generation"] = _skip("group is not powerful")
    lgh = []
    for name, H in (("center", center(G)), ("whole", G.whole_subgroup())):
        res = subalgebra_LGH(A, H)
        lgh.append({"subgroup": name, "u": res["u"], "dims": list(res["dims"]),
                    "closed": _verdict(res["closed"])})
    section["span_subalgebras"] = lgh
    if phi is not None and phi.coprime:
        section["fixed_subalgebra"] = lie_fixed_points(A, phi)["verdict"]
        ext = extend_and_eigendecompose(A, phi)
        section["eigen"] = {
            "n": ext.n,
            "field_degree": ext.field.k,
            "dims": [list(d) for d in ext.dims],
            "product_rule": verify_eigen_product_rule(ext)["verdict"],
        }
    else:
        reason = "no automorphism supplied" if phi is None else "action is not coprime"
        for key in ("fixed_subalgebra", "eigen"):
            section[key] = _skip(reason)
    return section


def _probe_section(G: FiniteGroup, phi: Optional[Automorphism]) -> dict:
    if phi is None or not phi.coprime:
        reason = "no automorphism supplied" if phi is None else "action is not coprime"
        return {key: _skip(reason) for key in ("theorem1", "theorem2", "thompson")}
    section = {"theorem1": theorem1_probe(phi), "theorem2": theorem2_probe(phi)}
    if derived_series(G).is_soluble:
        section["thompson"] = thompson_probe(phi)
    else:
        section["thompson"] = _skip("group is not soluble")
    return section


def analyze_instance(spec: dict, cap: Optional[int] = None) -> dict:
    """Full analysis report for one corpus instance spec. A spec that does not
    load raises ParseError, except that CapExceeded passes through."""
    try:
        G, phi, inst_id = load_instance(spec, cap=cap)
    except (UnknownSpec, InvalidPermutation, NotBijective, NotHomomorphism) as exc:
        raise ParseError(str(exc)) from exc
    report = {"id": inst_id, "group": _group_section(G)}
    report["automorphism"] = _auto_section(G, phi) if phi is not None else None
    p = report["group"]["p"]
    if p is not None:
        report["lie"] = _lie_section(G, phi, p)
    else:
        reason = "trivial group" if G.order == 1 else "order is not a prime power"
        report["lie"] = _skip(reason)
    report["probes"] = _probe_section(G, phi)
    return report


def _analyze_for_suite(args) -> dict:
    pos, spec, cap = args
    try:
        return analyze_instance(spec, cap=cap)
    except ParseError as exc:
        raise ParseError(f"instances[{pos}].{exc}") from exc
    except CapExceeded as exc:
        return {"id": instance_id(spec), "skipped": f"cap exceeded: {exc}"}
    except GroupTheoryError as exc:
        return {"id": instance_id(spec),
                "hard_error": f"{type(exc).__name__}: {exc}", "verdict": "fail"}


def count_verdicts(obj) -> dict:
    counts = {"pass": 0, "fail": 0, "skipped": 0}

    def walk(node):
        if isinstance(node, str):
            if node == "pass":
                counts["pass"] += 1
            elif node == "fail":
                counts["fail"] += 1
            elif node.startswith("skipped:"):
                counts["skipped"] += 1
        elif isinstance(node, dict):
            if "skipped" in node:
                counts["skipped"] += 1
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(obj)
    return counts


def validate_corpus(corpus: dict) -> list:
    if not isinstance(corpus, dict):
        raise ParseError("corpus must be a JSON object")
    if corpus.get("schema") != 1:
        raise ParseError(f"unsupported corpus schema {corpus.get('schema')!r}")
    instances = corpus.get("instances")
    if not isinstance(instances, list):
        raise ParseError("corpus.instances must be a list")
    for pos, inst in enumerate(instances):
        if not isinstance(inst, dict) or ("name" not in inst and "degree" not in inst):
            raise ParseError(f"corpus.instances[{pos}] lacks a 'name' or 'degree'")
    return instances


def run_suite(corpus: dict, jobs: int = 1, cap: Optional[int] = None) -> tuple:
    """Analyze every corpus instance; deterministic output independent of jobs.

    Returns (bundle, exit_code); exit code 1 iff any hard invariant failed.
    """
    instances = validate_corpus(corpus)
    work = [(pos, spec, cap) for pos, spec in enumerate(instances)]
    # a fork pool starts all its workers at once, so never more than can be busy
    workers = min(jobs, len(work), os.cpu_count() or 1)
    if workers <= 1:
        reports = [_analyze_for_suite(w) for w in work]
    else:
        # imported here: the pool module costs more to import than most
        # commands take to run, and only a pool of two or more needs it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_analyze_for_suite, work))
    per_instance = [count_verdicts(rep) for rep in reports]
    hard_failures = [rep["id"] for rep, inst_counts in zip(reports, per_instance)
                     if inst_counts["fail"] or "hard_error" in rep]
    counts = {key: sum(c[key] for c in per_instance) for key in ("pass", "fail", "skipped")}
    bundle = {
        "schema": 1,
        "instances": reports,
        "summary": {
            "instance_count": len(reports),
            "pass": counts["pass"],
            "fail": counts["fail"],
            "skipped": counts["skipped"],
            "hard_failures": hard_failures,
        },
    }
    return bundle, (1 if hard_failures else 0)
