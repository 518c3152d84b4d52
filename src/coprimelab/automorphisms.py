"""Fixed and twisted sets of an automorphism, and the checks built on them.

The automorphism of an enumerated group is stored as a full element-index
permutation (``table``). ``Automorphism(G, images)``, the one constructor,
which checks its generator images, and ``build_automorphism``, which
evaluates image words for it, live in ``groups``, next to the Cayley-graph
walks that build the table, so that building an instance compiles none of
the analysis here; they are re-exported from this module.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (GroupTheoryError, NotCoprime, NotInvariant, NotNilpotent,
                     DecompositionNotFound, NonUniqueDecomposition, PreconditionViolated)
from .groups import (Automorphism, FiniteGroup, Subgroup, are_conjugate,  # noqa: F401
                     build_automorphism, center, coset_labels, is_normal, normal_core,
                     product_of_subgroups, subgroup_generated)
from .structure import (SubgroupSeries, derived_series, lower_central_series,
                        require_nilpotent, require_soluble)


# what TwistedData.commutator_derived_length holds until it is asked for
_NOT_COMPUTED = object()


class TwistedData:
    """Fixed-point subgroup, twisted set and the subgroup it generates, of phi
    on G or on a phi-invariant subgroup; the <phi>-orbit representatives on
    the twisted set once they are asked for, and, on G, the same data on
    [G, phi] (``commutator_twisted_data``) and the derived length of [G, phi]
    (``commutator_derived_length``) once they are asked for."""

    def __init__(self, fixed: Subgroup, twisted: tuple, producers: Optional[dict],
                 commutator_phi: Subgroup):
        self.fixed = fixed
        self.twisted = twisted
        self.producers = producers
        self.commutator_phi = commutator_phi
        self.orbit_reps: Optional[list] = None
        self.inner: Optional[TwistedData] = None
        self.commutator_derived_length = _NOT_COMPUTED


def _twisted_images(phi: Automorphism, elements: Sequence[int]) -> list:
    """[x^-1 x^phi for x in elements], in one batch of products."""
    G = phi.group
    return G.products(map(G._inverses.__getitem__, elements), map(phi.table.__getitem__, elements))


def _twisted_on(phi: Automorphism, elements: Sequence[int]) -> TwistedData:
    """Twisted data of phi on the phi-invariant subgroup with these members,
    in increasing order: its fixed points, its twisted set and the subgroup it
    generates; on G also the least x with x^-1 x^phi = t for each twisted t,
    which only ``factorization_status`` reads (None on a proper subgroup)."""
    G = phi.group
    table = phi.table
    fixed = subgroup_generated(G, [x for x in elements if table[x] == x])
    images = _twisted_images(phi, elements)
    twisted = tuple(sorted(set(images)))
    # walked backwards, so that the least x producing t is written last
    producers = (dict(zip(reversed(images), reversed(elements)))
                 if len(elements) == G.order else None)
    return TwistedData(fixed=fixed, twisted=twisted, producers=producers,
                       commutator_phi=subgroup_generated(G, twisted))


def twisted_data(phi: Automorphism) -> TwistedData:
    """Compute {x : x^phi = x}, {x^-1 x^phi} and the subgroup the latter generates."""
    if phi._twisted is None:
        phi._twisted = _twisted_on(phi, range(phi.group.order))
    return phi._twisted


def require_coprime(phi: Automorphism) -> None:
    """NotCoprime unless the order of phi is prime to |G|: the first guard of
    every check here. Its message, like every guard's, is the report's skip."""
    if not phi.coprime:
        raise NotCoprime("action is not coprime")


def nilpotent_fixed_series(phi: Automorphism) -> SubgroupSeries:
    """The lower central series of C_G(phi), under the hypotheses of
    theorem 2: NotCoprime, then NotNilpotent unless C_G(phi) is nilpotent."""
    require_coprime(phi)
    lcs = lower_central_series(phi.group, twisted_data(phi).fixed)
    if not lcs.is_nilpotent:
        raise NotNilpotent("fixed-point subgroup is not nilpotent")
    return lcs


def commutator_twisted_data(phi: Automorphism) -> TwistedData:
    """The twisted data of phi restricted to H = [G, phi], computed inside G:
    C_H(phi) = H & C_G(phi), the twisted set of phi on H (|H| products) and
    [H, phi]. Kept on ``twisted_data(phi)``, or that data itself when H = G."""
    td = twisted_data(phi)
    if td.commutator_phi.order == phi.group.order:
        return td
    if td.inner is None:
        td.inner = _twisted_on(phi, td.commutator_phi.members)
    return td.inner


def commutator_derived_length(phi: Automorphism) -> Optional[int]:
    """The derived length of [G, phi], None when it is insoluble: one derived
    series per automorphism, its length kept on ``twisted_data(phi)``."""
    td = twisted_data(phi)
    if td.commutator_derived_length is _NOT_COMPUTED:
        td.commutator_derived_length = derived_series(phi.group,
                                                      td.commutator_phi).derived_length
    return td.commutator_derived_length


def phi_invariant_closure(phi: Automorphism, seeds: Iterable[int]) -> Subgroup:
    """Minimal phi-invariant subgroup containing the seeds: the subgroup
    generated by their <phi>-orbits."""
    return subgroup_generated(phi.group, {y for s in set(seeds) for y in phi.orbit(s)})


def _orbits(starts: Iterable[int], moves) -> list[list[int]]:
    """The orbits through ``starts`` of the group generated by the maps that
    send x to each of ``moves(x)``, each listed from the first start in it."""
    seen: set[int] = set()
    orbits = []
    for s in starts:
        if s in seen:
            continue
        seen.add(s)
        orbit = [s]
        for x in orbit:
            for y in moves(x):
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        orbits.append(orbit)
    return orbits


def is_phi_invariant(phi: Automorphism, H: Subgroup) -> bool:
    return all(phi.table[t] in H.member_set for t in H.gens)


def _factorization_counts(phi: Automorphism) -> list[int]:
    """counts[x] is the number of pairs (g, h), g twisted and h fixed, with
    g h = x: one batch of |twisted| products per fixed h, |G| in all."""
    G = phi.group
    td = twisted_data(phi)
    counts = [0] * G.order
    for h in td.fixed.members:
        for x in G.products(td.twisted, repeat(h)):
            counts[x] += 1
    return counts


def factorization_status(phi: Automorphism) -> tuple:
    """(product_covers, criterion_holds, witness): whether the twisted-times-fixed
    product covers G, whether the conjugacy criterion that is equivalent to it
    holds, and a witness triple when it fails, else None."""
    require_coprime(phi)
    G = phi.group
    td = twisted_data(phi)
    product_covers = 0 not in _factorization_counts(phi)
    # the union of the conjugacy classes that meet the fixed points
    conj_union = set().union(*_orbits(td.fixed.members,
                                      lambda x: [G.conjugate(x, g) for g in G.generator_indices]))
    bad = [x for x in td.twisted if x != 0 and x in conj_union]
    criterion_holds = not bad
    witness = None
    if bad:
        x = bad[0]
        for a in td.fixed.members:
            if a == 0:
                continue
            c = are_conjugate(G, a, x)
            if c is not None:
                witness = {"a": a, "b": td.producers[x], "c": c, "twisted_element": x}
                break
    return product_covers, criterion_holds, witness


def _decomposition_error(x: int, count: int) -> GroupTheoryError:
    if count == 0:
        return DecompositionNotFound(f"element {x} admits no twisted*fixed factorization")
    return NonUniqueDecomposition(f"element {x} admits {count} factorizations")


def nilpotent_decompose(phi: Automorphism, x: int) -> tuple:
    """The unique (g, h) with x = g h, g twisted and h fixed, by full scan.

    Valid for nilpotent groups under coprime actions; a missing or ambiguous
    answer means the input violates those hypotheses and is a hard error.
    """
    require_coprime(phi)
    require_nilpotent(phi.group)
    G = phi.group
    td = twisted_data(phi)
    solutions = []
    for g in td.twisted:
        h = G.mul(G.inv(g), x)
        if h in td.fixed.member_set:
            solutions.append((g, h))
    if len(solutions) != 1:
        raise _decomposition_error(x, len(solutions))
    return solutions[0]


def decomposition_witness(phi: Automorphism) -> Optional[dict]:
    """None when every element has exactly one ``nilpotent_decompose``
    factorization; else the first element that has not, with the error
    ``nilpotent_decompose`` raises for it.

    One walk over twisted x fixed counts the factorizations of every element
    at once, where asking ``nilpotent_decompose`` element by element costs
    |G| * |twisted| products.
    """
    require_coprime(phi)
    require_nilpotent(phi.group)
    for x, count in enumerate(_factorization_counts(phi)):
        if count != 1:
            return {"element": x, "error": str(_decomposition_error(x, count))}
    return None


def default_normal_family(phi: Automorphism) -> list[tuple]:
    """Canonical nontrivial phi-invariant normal subgroups for the lemma
    checks, which need a coprime phi (else NotCoprime)."""
    require_coprime(phi)
    G = phi.group
    td = twisted_data(phi)
    derived = derived_series(G).terms
    candidates = [
        ("commutator_phi", td.commutator_phi),
        ("derived", derived[1] if len(derived) > 1 else G.trivial_subgroup()),
        ("center", center(G)),
    ]
    family = []
    seen = set()
    for name, N in candidates:
        if N.is_trivial or N.member_set in seen:
            continue
        if is_normal(G, N) and is_phi_invariant(phi, N):
            seen.add(N.member_set)
            family.append((name, N))
    return family


def _checked_family(phi: Automorphism, family: Sequence[tuple]) -> Sequence[tuple]:
    """The (name, subgroup) family itself; NotInvariant if a member is not a
    phi-invariant normal subgroup."""
    for name, N in family:
        if not is_normal(phi.group, N):
            raise NotInvariant(f"family member {name} is not normal")
        if not is_phi_invariant(phi, N):
            raise NotInvariant(f"family member {name} is not phi-invariant")
    return family


def _central_candidates(phi: Automorphism, family: Sequence[tuple]) -> list[tuple]:
    """The (name, subgroup) pairs whose centralizing by [G, phi] fact (c)
    checks, each subgroup once under its first name: the family members
    inside the fixed points, then the core of the fixed points and the fixed
    part of the centre when they are nontrivial."""
    G = phi.group
    td = twisted_data(phi)
    fixed = td.fixed.member_set
    candidates = [(name, N) for name, N in family if N.member_set <= fixed]
    core = normal_core(G, td.fixed)
    if not core.is_trivial:
        candidates.append(("core_of_fixed", core))
    z_fixed = subgroup_generated(G, center(G).member_set & fixed)
    if not z_fixed.is_trivial:
        candidates.append(("central_fixed", z_fixed))
    unique: dict = {}
    for name, N in candidates:
        unique.setdefault(N.member_set, (name, N))
    return list(unique.values())


def _noncommuting_pair(G: FiniteGroup, H: Subgroup, N: Subgroup) -> Optional[tuple]:
    """The first (m, x), m in H and x in N in member order, with m x != x m;
    None when H centralizes N. Two subgroups commute elementwise iff their
    generators do, so the members are walked only when some pair of
    generators does not commute."""
    if all(G.mul(m, x) == G.mul(x, m) for m in H.gens for x in N.gens):
        return None
    return next((m, x) for m in H.members for x in N.members if G.mul(m, x) != G.mul(x, m))


def _bare_fixed_coset(phi: Automorphism, N: Subgroup) -> Optional[int]:
    """The least element of the first coset N x that phi fixes but that
    holds no fixed element, or None. Its labels go when it returns, so one
    family member's labels are alive at a time."""
    labels, reps = coset_labels(phi.group, N)
    # N is phi-invariant, so phi(N x) = N x^phi: coset k is fixed iff its
    # least element's image lies in it. A fixed element's coset is fixed.
    meets_fixed = {labels[x] for x in twisted_data(phi).fixed.members}
    return next((x for k, x in enumerate(reps)
                 if labels[phi.table[x]] == k and k not in meets_fixed), None)


def check_coprime_facts(phi: Automorphism, family: Optional[list] = None) -> dict:
    """Verify the three standard coprime-action facts.

    (a) twisting [G,phi] again reproduces it; (b) fixed points pass to
    quotients by invariant normal subgroups; (c) [G,phi] centralizes every
    invariant normal subgroup inside the fixed points. The (a) check reads
    [[G,phi],phi] off ``commutator_twisted_data``. The (b) check reads
    the fixed cosets off one ``coset_labels`` pass per subgroup
    (``_bare_fixed_coset``), with no quotient group. The (c) check
    multiplies generators only, unless some pair of them fails. Failed
    checks carry generator words under ``witness``: for (b) the least x
    whose coset is fixed but holds no fixed element, for (c) the first
    non-commuting pair m in [G,phi], x in the subgroup, in member order.
    """
    require_coprime(phi)
    G = phi.group
    td = twisted_data(phi)
    family = default_normal_family(phi) if family is None else _checked_family(phi, family)

    report: dict = {}
    twice = commutator_twisted_data(phi).commutator_phi
    report["commutator_stable"] = "pass" if twice == td.commutator_phi else "fail"

    quotient_checks = []
    for name, N in family:
        bare = _bare_fixed_coset(phi, N)
        check = {"subgroup": name, "kernel_order": N.order,
                 "verdict": "pass" if bare is None else "fail"}
        if bare is not None:
            check["witness"] = {"x": list(G.word(bare))}
        quotient_checks.append(check)
    report["quotient_fixed_points"] = quotient_checks

    central_checks = []
    for name, N in _central_candidates(phi, family):
        pair = _noncommuting_pair(G, td.commutator_phi, N)
        check = {"subgroup": name, "order": N.order, "verdict": "pass" if pair is None else "fail"}
        if pair is not None:
            # generator words, so the pair replays on a fresh enumeration
            check["witness"] = {"m": list(G.word(pair[0])), "x": list(G.word(pair[1]))}
        central_checks.append(check)
    report["centralizing"] = central_checks
    report["verdict"] = ("pass" if report["commutator_stable"] == "pass"
                         and all(c["verdict"] == "pass" for c in quotient_checks)
                         and all(c["verdict"] == "pass" for c in central_checks)
                         else "fail")
    return report


def fixed_points_of_product(phi: Automorphism, family: Sequence[tuple]) -> dict:
    """Check that fixed points of a product of invariant normal subgroups are
    generated by the factors' fixed points."""
    require_coprime(phi)
    G = phi.group
    td = twisted_data(phi)
    _checked_family(phi, family)
    product = product_of_subgroups(G, [N for _, N in family])
    lhs = product.member_set & td.fixed.member_set
    rhs = subgroup_generated(
        G, set().union(*(N.member_set & td.fixed.member_set for _, N in family))
        if family else {0})
    ok = lhs == rhs.member_set
    return {"product_order": product.order, "fixed_in_product": len(lhs),
            "generated_by_factor_fixed": rhs.order,
            "verdict": "pass" if ok else "fail"}


def twisted_orbit_representatives(phi: Automorphism, td: TwistedData) -> list[int]:
    """Least element of each <phi>-orbit on the twisted set of ``td``, which
    phi maps onto itself; kept on ``td``, so it is walked once."""
    if td.orbit_reps is None:
        td.orbit_reps = [orbit[0] for orbit in _orbits(td.twisted, lambda x: [phi.table[x]])]
    return td.orbit_reps


def twisted_pair_closures(phi: Automorphism, td: TwistedData) -> Iterator[Subgroup]:
    """The invariant closure of every pair of elements of the twisted set of
    ``td``, each once.

    The closure of {x, y} is generated by the <phi>-orbits of x and y, so
    one representative per orbit on the twisted set gives every pair
    closure: r orbits give r(r+1)/2 closures.
    """
    reps = twisted_orbit_representatives(phi, td)
    for i, x in enumerate(reps):
        for y in reps[i:]:
            yield phi_invariant_closure(phi, {x, y})


def _commutator_data(phi: Automorphism) -> tuple:
    """(H, data of phi on H) for H = [G, phi]; PreconditionViolated unless
    [H, phi] = H."""
    H = twisted_data(phi).commutator_phi
    inner = commutator_twisted_data(phi)
    if inner.commutator_phi.order != H.order:
        raise PreconditionViolated("[G, phi, phi] = [G, phi] required")
    return H, inner


def fixed_generation_S(phi: Automorphism) -> dict:
    """Fixed elements of H = [G, phi] reachable inside invariant closures of
    pairs of twisted elements of phi on H, all found inside G.

    Raises NotCoprime unless phi is coprime, then NotNilpotent unless G is
    nilpotent. Under those hypotheses [H, phi] = H (PreconditionViolated if
    not, an invariant failure) and the collected set S generates C_H(phi).
    The walk takes one pair per pair of <phi>-orbits on the twisted set of H
    (``twisted_pair_closures``) and stops once S is all of C_H(phi): S is a
    union of sets K & C_H(phi), so it cannot grow further, and it then
    generates C_H(phi) without a closure. So S either reaches C_H(phi) or is
    the whole union, whatever the order of the pairs.
    """
    G = phi.group
    require_coprime(phi)
    require_nilpotent(G)
    _, inner = _commutator_data(phi)
    fixed = inner.fixed.member_set
    S: set[int] = {0}
    closures = twisted_pair_closures(phi, inner)
    while len(S) < len(fixed) and (K := next(closures, None)) is not None:
        S.update(K.member_set & fixed)
    return {"S_size": len(S),
            "generates": len(S) == len(fixed)
            or subgroup_generated(G, S).member_set == fixed}


def soluble_exponent_probe(phi: Automorphism) -> dict:
    """Record (derived length, twisted exponent bound, exponent) of H = [G, phi]
    under phi, all found inside G. Raises NotCoprime unless phi is coprime,
    then NotSoluble unless G is soluble; PreconditionViolated if the
    invariant [H, phi] = H fails."""
    G = phi.group
    require_coprime(phi)
    require_soluble(G)
    H, inner = _commutator_data(phi)
    return {"d": commutator_derived_length(phi), "e": G.exponent_of(inner.twisted),
            "exponent": G.exponent_of(H.members)}
