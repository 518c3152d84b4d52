"""Per-instance analysis reports, exponent probes, and the suite runner.

Every verdict field is exactly "pass", "fail" or "skipped: <reason>", spelled
here only: the checks return None or their first witness. Reports contain
only ints, strings, bools, lists and dicts, and serialize to byte-identical
canonical JSON (sorted keys, no whitespace) across runs and worker counts.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .automorphisms import (Automorphism, TwistedData, check_coprime_facts,
                            commutator_twisted_data, decomposition_witness,
                            default_normal_family, factorization_status, fixed_generation_S,
                            fixed_points_of_product, nilpotent_fixed_series,
                            phi_invariant_closure, require_coprime, twisted_data,
                            twisted_pair_closures)
from .corpus import _field, instance_id, load_instance
from .errors import (CapExceeded, GroupTheoryError, InputError, NotCoprime, NotNilpotent,
                     NotSoluble, ParseError, PreconditionViolated)
from .groups import FiniteGroup, subgroup_generated
from .lie import (GradedLieAlgebra, build_graded_lie, check_lazard_all, check_riley,
                  extend_and_eigendecompose, jlz_series, lie_fixed_points, split_field_degree,
                  verify_bracket_axioms, verify_eigen_product_rule, verify_np_series)
from .numutil import big_omega, prime_power_base
from .structure import (derived_series, fitting_height, is_powerful, lower_central_series,
                        require_nilpotent)

PAIR_CAP = 1_000_000


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _witnessed(G: FiniteGroup, witness, *keys: str) -> dict:
    """{"verdict": "pass"} for no witness, else "fail" and the witness (one
    element per key) as generator words, which replay on a fresh enumeration."""
    check = {"verdict": _verdict(witness is None)}
    if witness is not None:
        elements = witness if len(keys) > 1 else (witness,)
        check["witness"] = {key: list(G.word(x)) for key, x in zip(keys, elements)}
    return check


def _skip(reason: str) -> str:
    return f"skipped: {reason}"


def _or_skip(f, *args):
    """f(*args), or "skipped: <message>" when f refuses an input that is not
    coprime, nilpotent or soluble; any other error passes through."""
    try:
        return f(*args)
    except (NotCoprime, NotNilpotent, NotSoluble) as exc:
        return _skip(str(exc))


def _about_phi(f, phi: Automorphism, *args):
    """``_or_skip(f, phi, *args)`` for a statement about phi, skipped first when
    phi acts trivially: [G, phi] = 1, C_G(phi) = G, and the statement reads X = X."""
    if twisted_data(phi).commutator_phi.is_trivial:
        return _skip("phi acts trivially")
    return _or_skip(f, phi, *args)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _above_pair_cap(td: TwistedData) -> Optional[str]:
    """Why the walk over twisted pairs of ``td`` is skipped, or None when
    the r(r+1)/2 closures that ``twisted_pair_closures`` makes from the r
    <phi>-orbits on its twisted set (``td.orbit_reps``) are at most
    ``PAIR_CAP``."""
    r = len(td.orbit_reps)
    pairs = r * (r + 1) // 2
    return f"{pairs} orbit pairs above the pair cap" if pairs > PAIR_CAP else None


def theorem1_probe(phi: Automorphism) -> dict:
    """Largest exponent of a minimal invariant closure of a fixed or twisted
    element, which the report sets against the group's exponent.

    A fixed x is its own <phi>-orbit, so its closure is <x>, of exponent the
    order of x. The closure of a twisted x is generated by its <phi>-orbit,
    so one closure per <phi>-orbit on the twisted set is walked, from the
    list the pair walks read (``TwistedData.orbit_reps``). Each lies
    in the phi-invariant [G, phi], so its exponent divides exp([G, phi]),
    and the walk stops once e_star reaches it. NotCoprime unless phi is
    coprime.
    """
    require_coprime(phi)
    G = phi.group
    td = twisted_data(phi)
    e_star = max(map(G.element_order, td.fixed.members))
    bound = G.exponent_of(td.commutator_phi.members)
    for x in td.orbit_reps:
        if e_star >= bound:
            break
        e_star = max(e_star, G.exponent_of(phi_invariant_closure(phi, {x}).members))
    return {"e_star": e_star}


def theorem2_probe(phi: Automorphism) -> dict | str:
    """Class of the fixed subgroup, twisted exponent bound, and the largest
    derived length over invariant closures of twisted pairs.

    The walk closes one pair per pair of <phi>-orbits on the twisted set
    (``twisted_pair_closures``), so d is exact. Every such closure lies in the
    phi-invariant [G, phi], so the walk stops once d reaches the derived
    length of [G, phi], computed once (``TwistedData.commutator_derived_length``);
    an insoluble [G, phi] gives no bound, so every closure is checked. Equal
    closures from different pairs share one derived series: the walk keeps
    one length per member set, [G, phi]'s among them.

    Raises NotCoprime unless phi is coprime, then NotNilpotent unless the
    fixed subgroup is nilpotent (``nilpotent_fixed_series``). Above the pair
    cap, and if a pair closure is insoluble, it returns the skip string.
    """
    fixed_lcs = nilpotent_fixed_series(phi)
    G = phi.group
    td = twisted_data(phi)
    reason = _above_pair_cap(td)
    if reason:
        return _skip(reason)
    bound = td.commutator_derived_length
    lengths = {td.commutator_phi.member_set: bound}  # derived length per distinct closure
    d = 0
    for K in twisted_pair_closures(phi, td):
        key = K.member_set
        if key not in lengths:
            lengths[key] = derived_series(G, K).derived_length
        dl = lengths[key]
        if dl is None:
            return _skip("a twisted-pair closure is insoluble")
        d = max(d, dl)
        if d == bound:
            break
    return {"c": fixed_lcs.nilpotency_class, "d": d, "e": G.exponent_of(td.twisted)}


def thompson_probe(phi: Automorphism) -> dict:
    """Record (prime divisor count of the automorphism order, Fitting height);
    NotCoprime unless phi is coprime, then NotSoluble unless G is soluble
    (``fitting_height``)."""
    require_coprime(phi)
    return {"omega_n": big_omega(phi.order_n), "n": phi.order_n,
            "fitting_height": fitting_height(phi.group)}


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
    # G^(k) <= gamma_(2^k), so dl <= floor(log2 c) + 1, and 0 for c = 0
    section["derived_length_class_bound"] = _or_skip(
        lambda: _verdict(ds.derived_length <= require_nilpotent(G).nilpotency_class.bit_length()))
    return section


def _factorization(phi: Automorphism) -> dict:
    product_covers, criterion_holds, witness = factorization_status(phi)
    return {"product_covers": product_covers, "criterion_holds": criterion_holds,
            "equivalence": _verdict(product_covers == criterion_holds), "witness": witness}


def _coprime_facts(phi: Automorphism) -> dict:
    G = phi.group
    unstable, quotients, central = check_coprime_facts(phi)
    return {"commutator_stable": _verdict(unstable is None),
            "quotient_fixed_points": [{"subgroup": name, "kernel_order": N.order,
                                       **_witnessed(G, x, "x")} for name, N, x in quotients],
            "centralizing": [{"subgroup": name, "order": N.order, **_witnessed(G, pair, "m", "x")}
                             for name, N, pair in central],
            "verdict": _verdict(unstable is None
                                and all(w is None for _, _, w in quotients + central))}


def _product_fixed_points(phi: Automorphism) -> dict | str:
    """The product check on the family, skipped unless the product is larger
    than each member: a product that is a member N reads C_N(phi) = <C_N(phi)>."""
    family = default_normal_family(phi)
    if not family or any(all(M.member_set <= N.member_set for _, M in family)
                         for _, N in family):
        return _skip("no product of invariant normals larger than each")
    product, x = fixed_points_of_product(phi, family)
    return {"product_order": product, **_witnessed(phi.group, x, "x")}


def _soluble_when_fixed_nilpotent(phi: Automorphism) -> str:
    nilpotent_fixed_series(phi)
    return _verdict(derived_series(phi.group).is_soluble)


def _unique_decomposition(phi: Automorphism, section: dict) -> str:
    """The verdict; a failure also writes its witness into ``section``."""
    witness = decomposition_witness(phi)
    if witness:
        section["unique_decomposition_witness"] = witness
    return _verdict(witness is None)


def _fixed_generation(phi: Automorphism) -> dict | str:
    """``fixed_generation_S`` on [G, phi] as the section prints it, or the
    skip of the pair cap, which is counted once its hypotheses hold."""
    require_coprime(phi)
    require_nilpotent(phi.group)
    reason = _above_pair_cap(commutator_twisted_data(phi))
    if reason:
        return _skip(reason)
    gen_report = fixed_generation_S(phi)
    return {"S_size": gen_report["S_size"], "generates": _verdict(gen_report["generates"])}


def _auto_section(G: FiniteGroup, phi: Automorphism) -> dict:
    td = twisted_data(phi)
    cp = td.commutator_phi
    section: dict = {
        "order": phi.order_n,
        "coprime": phi.coprime,
        "fixed_order": td.fixed.order,
        "twisted_size": len(td.twisted),
        # H = [G, phi]: theorem 2 bounds exp H, and its pair walk stops at
        # dl H (null if H is insoluble); both print here once, for every phi
        "commutator_order": cp.order,
        "commutator_exponent": G.exponent_of(cp.members),
        "commutator_derived_length": td.commutator_derived_length,
    }
    section["factorization"] = _about_phi(_factorization, phi)
    section["coprime_facts"] = _about_phi(_coprime_facts, phi)
    section["product_fixed_points"] = _about_phi(_product_fixed_points, phi)
    section["soluble_when_fixed_nilpotent"] = _about_phi(_soluble_when_fixed_nilpotent, phi)
    section["unique_decomposition"] = _about_phi(_unique_decomposition, phi, section)
    # fixed_generation analyses phi on [G, phi] inside G
    section["fixed_generation"] = _about_phi(_fixed_generation, phi)
    return section


def _lie_fields(G: FiniteGroup, p: int) -> tuple:
    """The graded Lie algebra of the Jennings series of the p-group G, and
    the six fields of it that ``lie`` and the suite's Lie section share."""
    series = jlz_series(G, p)
    np_series = _verdict(verify_np_series(series) is None)  # its caches freed before A is built
    A = build_graded_lie(series)
    return A, {"p": p, "layer_dims": list(A.dims), "np_series": np_series,
               "lie_class": A.lie_class,
               "lazard": _verdict(check_lazard_all(A) is None),
               "riley": _verdict(check_riley(A) is None)}


def _eigen_fields(A: GradedLieAlgebra, phi: Automorphism) -> tuple:
    """The eigen split of A by the coprime phi and the four fields of it that
    ``eigen`` and the suite share; None and the skip string when its field is
    too large (``split_field_degree``)."""
    try:
        split_field_degree(A.p, phi.order_n)
    except PreconditionViolated as exc:
        return None, _skip(str(exc))
    ext = extend_and_eigendecompose(A, phi)
    return ext, {"n": ext.n, "field_degree": ext.field.k, "dims": [list(d) for d in ext.dims],
                 "product_rule": _verdict(verify_eigen_product_rule(ext) is None)}


def _lie_section(G: FiniteGroup, phi: Optional[Automorphism], p: int) -> dict:
    A, section = _lie_fields(G, p)
    section["bracket_axioms"] = _verdict(verify_bracket_axioms(A) is None)
    c = section["lie_class"]
    term = A.series.term(c + 1)
    section["riley_term_order"] = term.order
    bound = G.exponent_of(term.members) * p ** c
    section["exponent_split"] = _verdict(bound % G.exponent() == 0)
    if is_powerful(G, p):
        # in a powerful p-group the elements of order dividing m = p^i generate
        # a subgroup of exponent dividing m for odd p, and 2m for p = 2
        # (L. Wilson, J. Group Theory 5, 2002; for m = p also Hethelyi and
        # Levai, J. Algebra 270, 2003)
        ok = True
        m = p
        while m <= G.exponent():
            seeds = {x for x in range(G.order) if m % G.element_order(x) == 0}
            bound = 2 * m if p == 2 else m
            if bound % G.exponent_of(subgroup_generated(G, seeds).members) != 0:
                ok = False
            m *= p
        section["powerful_generation"] = _verdict(ok)
    else:
        section["powerful_generation"] = _skip("group is not powerful")
    if phi is None:
        section["fixed_subalgebra"] = section["eigen"] = _skip("no automorphism supplied")
    else:
        section["fixed_subalgebra"] = _about_phi(
            lambda phi: _verdict(lie_fixed_points(A.series, phi) is None), phi)
        section["eigen"] = _about_phi(lambda phi: _eigen_fields(A, phi)[1], phi)
    return section


def _probe_section(phi: Optional[Automorphism]) -> dict:
    probes = {"theorem1": theorem1_probe, "theorem2": theorem2_probe, "thompson": thompson_probe}
    if phi is None:
        return dict.fromkeys(probes, _skip("no automorphism supplied"))
    return {key: _or_skip(probe, phi) for key, probe in probes.items()}


def analyze_instance(spec: dict) -> dict:
    """Full analysis report for one corpus instance spec. A spec that does not
    load raises its InputError."""
    G, phi, inst_id = load_instance(spec)
    report = {"id": inst_id, "group": _group_section(G)}
    report["automorphism"] = _auto_section(G, phi) if phi is not None else None
    p = report["group"]["p"]
    if p is not None:
        report["lie"] = _lie_section(G, phi, p)
    else:
        reason = "trivial group" if G.order == 1 else "order is not a prime power"
        report["lie"] = _skip(reason)
    report["probes"] = _probe_section(phi)
    return report


def _analyze_for_suite(args) -> dict:
    pos, spec = args
    try:
        return analyze_instance(spec)
    except CapExceeded as exc:
        return {"id": instance_id(spec), "skipped": f"cap exceeded: {exc}"}
    except InputError as exc:
        raise ParseError(f"instances[{pos}].{exc}") from exc
    except GroupTheoryError as exc:
        return {"id": instance_id(spec),
                "hard_error": f"{type(exc).__name__}: {exc}", "verdict": "fail"}


def count_verdicts(obj) -> dict:
    """The verdicts in a report by kind; an ``id`` is no verdict, whatever it spells."""
    counts = {"pass": 0, "fail": 0, "skipped": 0}

    def walk(node):
        if node in ("pass", "fail"):
            counts[node] += 1
        elif isinstance(node, str) and node.startswith("skipped:"):
            counts["skipped"] += 1
        elif isinstance(node, dict):
            walk([v for key, v in node.items() if key != "id"])
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(obj)
    return counts


def outcome(payload: dict) -> tuple:
    """(exit code, verdict counts in words) of a command printing ``payload``:
    1 iff it holds a fail verdict, every command's rule. A suite bundle is
    counted by its summary, where an instance over the cap is one skip."""
    counts = payload.get("summary") or count_verdicts(payload)
    return (1 if counts["fail"] else 0,
            f"{counts['pass']} pass, {counts['fail']} fail, {counts['skipped']} skipped")


def validate_corpus(corpus: dict) -> list:
    """The corpus's instances; a ParseError names the first place where the
    corpus is not schema 1 with a list of objects, each with a 'name' or a
    'degree'."""
    if not isinstance(corpus, dict):
        raise ParseError("corpus must be a JSON object")
    schema = _field(corpus, "schema", "", int)
    if schema != 1:
        raise ParseError(f"schema: unsupported corpus schema {schema}")
    instances = _field(corpus, "instances", "", list)
    for pos, inst in enumerate(instances):
        if not isinstance(inst, dict) or ("name" not in inst and "degree" not in inst):
            raise ParseError(f"instances[{pos}]: lacks a 'name' or 'degree'")
    return instances


def run_suite(corpus: dict, jobs: int = 1) -> tuple:
    """Analyze every corpus instance; deterministic output independent of jobs.

    Returns (bundle, exit_code); exit code 1 iff any hard invariant failed.
    """
    instances = validate_corpus(corpus)
    # a fork pool starts all its workers at once, so never more than can be busy
    workers = min(jobs, len(instances), os.cpu_count() or 1)
    if workers <= 1:
        reports = list(map(_analyze_for_suite, enumerate(instances)))
    else:
        # imported here: the pool module costs more to import than most
        # commands take to run, and only a pool of two or more needs it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_analyze_for_suite, enumerate(instances)))
    # a cap-exceeded instance record counts as one skip
    per_instance = [count_verdicts(_skip(rep["skipped"]) if "skipped" in rep else rep)
                    for rep in reports]
    hard_failures = [rep["id"] for rep, inst_counts in zip(reports, per_instance)
                     if inst_counts["fail"] or "hard_error" in rep]
    counts = {key: sum(c[key] for c in per_instance) for key in ("pass", "fail", "skipped")}
    bundle = {"schema": 1, "instances": reports,
              "summary": {"instance_count": len(reports), **counts, "hard_failures": hard_failures}}
    return bundle, (1 if hard_failures else 0)
