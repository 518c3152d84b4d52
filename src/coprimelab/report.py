"""Per-instance analysis reports, exponent probes, and the suite runner.

Every verdict field is exactly "pass", "fail" or "skipped: <reason>"; reports
contain only ints, strings, bools, lists and dicts, and serialize to
byte-identical canonical JSON (sorted keys, no whitespace) across runs and
across worker counts.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from .automorphisms import (Automorphism, check_coprime_facts, default_normal_family,
                            factorization_status, fixed_generation_S, fixed_points_of_product,
                            is_phi_invariant, nilpotent_decompose, orbit_representatives,
                            phi_invariant_closure, restrict_automorphism, soluble_exponent_probe,
                            twisted_data)
from .corpus import instance_id, load_instance
from .errors import CapExceeded, GroupTheoryError, NotCoprime, NotSoluble, ParseError
from .groups import FiniteGroup, center, is_normal, subgroup_generated
from .lie import (build_graded_lie, check_lazard_all, check_riley, extend_and_eigendecompose,
                  jlz_series, lie_fixed_points, subalgebra_LGH, verify_bracket_axioms,
                  verify_eigen_product_rule, verify_np_series)
from .numutil import big_omega, prime_power_base
from .structure import derived_series, fitting_height, is_powerful, lower_central_series

PAIR_CAP = 1_000_000
FULL_PAIR_LIMIT = 1000
LAZARD_FULL_LIMIT = 1024


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _skip(reason: str) -> str:
    return f"skipped: {reason}"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def theorem1_probe(phi: Automorphism) -> dict:
    """Largest exponent of a minimal invariant closure of a fixed or twisted
    element, recorded against the group exponent.

    Both seed sets are unions of <phi> x C_G(phi) orbits and conjugate
    closures share their exponent, so one closure per orbit suffices.
    """
    if not phi.coprime:
        raise NotCoprime("probe requires a coprime action")
    G = phi.group
    td = twisted_data(phi)
    e_star = 1
    for x in orbit_representatives(phi, set(td.fixed.members) | td.twisted_set):
        closure = phi_invariant_closure(phi, {x})
        e_star = max(e_star, closure.exponent())
    exponent = G.exponent()
    return {"e_star": e_star, "n": phi.order_n, "exponent": exponent,
            "e_star_divides_exponent": _verdict(exponent % e_star == 0)}


def theorem2_probe(phi: Automorphism, pair_cap: int = PAIR_CAP,
                   full_limit: int = FULL_PAIR_LIMIT) -> dict:
    """Class of the fixed subgroup, twisted exponent bound, and the largest
    derived length over invariant closures of twisted pairs.

    The pair loop runs in full up to ``full_limit`` twisted elements (or
    ``pair_cap`` pairs) and switches to deterministic stride sampling beyond
    that, in which case the reported maximum is only a lower bound.
    """
    if not phi.coprime:
        raise NotCoprime("probe requires a coprime action")
    G = phi.group
    td = twisted_data(phi)
    fixed_lcs = lower_central_series(G, td.fixed)
    if not fixed_lcs.is_nilpotent:
        return {"skipped": "fixed-point subgroup is not nilpotent"}
    c = fixed_lcs.nilpotency_class
    tw = td.twisted
    e = G.exponent_of(tw)
    m = len(tw)
    total = m * m
    sampled = not (m <= full_limit or total <= pair_cap)
    d = 0
    length_cache: dict = {}
    insoluble = False

    def closure_derived_length(x1: int, x2: int) -> Optional[int]:
        K = phi_invariant_closure(phi, {x1, x2})
        key = K.member_set
        if key not in length_cache:
            length_cache[key] = derived_series(G, K).derived_length
        return length_cache[key]

    if not sampled:
        for i, x1 in enumerate(tw):
            for x2 in tw[i:]:
                dl = closure_derived_length(x1, x2)
                if dl is None:
                    insoluble = True
                    break
                d = max(d, dl)
            if insoluble:
                break
    else:
        stride = -(-total // pair_cap)
        for k in range(0, total, stride):
            i, j = divmod(k, m)
            dl = closure_derived_length(tw[i], tw[j])
            if dl is None:
                insoluble = True
                break
            d = max(d, dl)
    if insoluble:
        return {"skipped": "a twisted-pair closure is insoluble"}
    exp_comm = td.commutator_phi.exponent()
    exponent = G.exponent()
    return {"c": c, "d": d, "d_is_lower_bound": sampled, "e": e, "n": phi.order_n,
            "exponent_commutator": exp_comm,
            "commutator_exponent_divides": _verdict(exponent % exp_comm == 0),
            "e_divides_exponent": _verdict(exponent % e == 0)}


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
        section["nilpotent_implies_soluble"] = _verdict(ds.is_soluble)
        section["derived_length_class_bound"] = _verdict(
            ds.derived_length <= lcs.nilpotency_class + 1)
    else:
        section["nilpotent_implies_soluble"] = _skip("group is not nilpotent")
        section["derived_length_class_bound"] = _skip("group is not nilpotent")
    return section


def _auto_section(G: FiniteGroup, phi: Automorphism) -> dict:
    td = twisted_data(phi)
    cp = td.commutator_phi
    section: dict = {
        "order": phi.order_n,
        "coprime": td.coprime,
        "fixed_order": td.fixed.order,
        "twisted_size": len(td.twisted),
        "commutator_order": cp.order,
        "commutator_normal_invariant": _verdict(is_phi_invariant(phi, cp) and is_normal(G, cp)),
        "order_product_identity": _verdict(
            len(td.twisted) * td.fixed.order == G.order),
    }
    if not td.coprime:
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

    nilpotent = lower_central_series(G).is_nilpotent
    soluble = derived_series(G).is_soluble
    if nilpotent or soluble:
        Hg, rphi, _ = restrict_automorphism(phi, cp)
    if nilpotent:
        ok = True
        witness = None
        for x in range(G.order):
            try:
                g, h = nilpotent_decompose(phi, x)
            except GroupTheoryError as exc:
                ok = False
                witness = {"element": x, "error": str(exc)}
                break
            if G.mul(g, h) != x:
                ok = False
                witness = {"element": x, "error": "product mismatch"}
                break
        section["unique_decomposition"] = _verdict(ok)
        if witness:
            section["unique_decomposition_witness"] = witness
        gen_report = fixed_generation_S(rphi)
        section["fixed_generation"] = {
            "restricted_to_commutator_order": Hg.order,
            "S_size": gen_report["S_size"],
            "generates": _verdict(gen_report["generates"]),
        }
    else:
        section["unique_decomposition"] = _skip("group is not nilpotent")
        section["fixed_generation"] = _skip("group is not nilpotent")

    if soluble:
        probe = soluble_exponent_probe(rphi)
        probe["exponent_consistent"] = _verdict(G.exponent() % probe["exponent"] == 0)
        section["soluble_exponent"] = probe
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
    }
    if G.order <= LAZARD_FULL_LIMIT:
        section["lazard"] = check_lazard_all(A)["verdict"]
    else:
        section["lazard"] = _skip(f"order {G.order} above the full-scan limit")
    riley = check_riley(G, p, algebra=A)
    section["riley"] = riley["verdict"]
    section["riley_term_order"] = riley["term_order"]
    term = A.series.term(c + 1)
    bound = term.exponent() * p ** c
    section["exponent_split"] = _verdict(bound % G.exponent() == 0)
    if is_powerful(G, p):
        # powerful p-groups: elements of order dividing m generate exponent-m subgroups
        ok = True
        m = p
        while m <= G.exponent():
            seeds = {x for x in range(G.order) if m % G.element_order(x) == 0}
            if m % subgroup_generated(G, seeds).exponent() != 0:
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
    """Full analysis report for one corpus instance spec."""
    G, phi, inst_id = load_instance(spec, cap=cap)
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
    if jobs <= 1 or len(work) <= 1:
        reports = [_analyze_for_suite(w) for w in work]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_analyze_for_suite, work))
    counts = count_verdicts(reports)
    hard_failures = []
    for rep in reports:
        inst_counts = count_verdicts(rep)
        if inst_counts["fail"] or "hard_error" in rep:
            hard_failures.append(rep["id"])
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
