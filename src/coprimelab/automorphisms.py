"""Fixed and twisted sets of an automorphism, and the checks built on them.

The automorphism of an enumerated group is stored as a full element-index
permutation (``table``). ``Automorphism(G, images)``, the one constructor,
which checks its generator images, and ``build_automorphism``, which
evaluates image words for it, live in ``groups``, next to the Cayley-graph
walks that build the table, so that building an instance compiles none of
the analysis here; they are re-exported from this module. The checks here
return None or their first witness; ``report`` alone spells verdicts.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (GroupTheoryError, NotCoprime, NotInvariant, NotNilpotent,
                     DecompositionNotFound, NonUniqueDecomposition, PreconditionViolated)
from .groups import (Automorphism, FiniteGroup, Subgroup, are_conjugate,  # noqa: F401
                     build_automorphism, center, coset_labels, is_normal, normal_core,
                     product_of_subgroups, subgroup_generated)
from .structure import SubgroupSeries, derived_series, lower_central_series, require_nilpotent


class TwistedData:
    """Of phi, given by its element ``table``, on the phi-invariant subgroup of
    G whose members are ``elements``, in increasing order: the fixed-point
    subgroup, the twisted set and the subgroup it generates; on G also the
    least x with x^-1 x^phi = t for each twisted t, which only
    ``factorization_status`` reads (None on a proper subgroup). The orbit
    representatives, the same data on [G, phi] (``inner``), the derived
    length of [G, phi] and ``product_covers`` are computed on first read and
    kept. It holds G and the table, never phi, so dropping phi frees it."""

    def __init__(self, group: FiniteGroup, table: tuple, elements: Sequence[int]):
        self.group = G = group
        self.table = table
        self.fixed = subgroup_generated(G, [x for x in elements if table[x] == x])
        images = G.products(map(G._inverses.__getitem__, elements),
                            map(table.__getitem__, elements))
        self.twisted = tuple(sorted(set(images)))
        # walked backwards, so that the least x producing t is written last
        self.producers = (dict(zip(reversed(images), reversed(elements)))
                          if len(elements) == G.order else None)
        self.commutator_phi = subgroup_generated(G, self.twisted)

    @cached_property
    def orbit_reps(self) -> list[int]:
        """Least element of each <phi>-orbit on the twisted set, which phi
        maps onto itself."""
        return [orbit[0] for orbit in _orbits(self.twisted, lambda x: [self.table[x]])]

    @cached_property
    def inner(self) -> TwistedData:
        """The same data of phi on [G, phi]."""
        return TwistedData(self.group, self.table, self.commutator_phi.members)

    @cached_property
    def commutator_derived_length(self) -> Optional[int]:
        """The derived length of [G, phi], None when it is insoluble."""
        return derived_series(self.group, self.commutator_phi).derived_length

    @cached_property
    def product_covers(self) -> bool:
        """Whether twisted times fixed is all of G (data on G only). As
        x^-1 x^phi = y^-1 y^phi iff y x^-1 is fixed, |twisted| |fixed| = |G|,
        so it covers G iff each element is such a product exactly once."""
        return 0 not in _factorization_counts(self)


def twisted_data(phi: Automorphism) -> TwistedData:
    """Compute {x : x^phi = x}, {x^-1 x^phi} and the subgroup the latter generates."""
    if phi._twisted is None:
        phi._twisted = TwistedData(phi.group, phi.table, range(phi.group.order))
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
    [H, phi]. That is ``twisted_data(phi).inner``, or the data itself when
    H = G, which is never stored as its own ``inner``."""
    td = twisted_data(phi)
    return td if td.commutator_phi.order == phi.group.order else td.inner


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


def _factorization_counts(td: TwistedData) -> list[int]:
    """counts[x] is the number of pairs (g, h), g twisted and h fixed, with
    g h = x, on G: one batch of |twisted| products per fixed h, |G| in all."""
    G = td.group
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
    return td.product_covers, criterion_holds, witness


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

    Every element has one iff the product covers G (``product_covers``, as
    ``factorization_status`` reads it), so they are counted only to find
    the witness of a product that does not cover.
    """
    require_coprime(phi)
    require_nilpotent(phi.group)
    td = twisted_data(phi)
    if td.product_covers:
        return None
    x, count = next((x, c) for x, c in enumerate(_factorization_counts(td)) if c != 1)
    return {"element": x, "error": str(_decomposition_error(x, count))}


def default_normal_family(phi: Automorphism) -> list[tuple]:
    """Canonical phi-invariant normal subgroups other than 1 and G (fact (b)
    on G/G reads 1 = 1) for the lemma checks; NotCoprime unless phi is coprime.
    [G, phi] is normal and phi-invariant for every phi, and G' and Z(G) are
    characteristic; each subgroup is listed once, under its first name."""
    require_coprime(phi)
    G = phi.group
    derived = derived_series(G).terms
    family: dict = {}
    for name, N in (("commutator_phi", twisted_data(phi).commutator_phi),
                    ("derived", derived[1] if len(derived) > 1 else G), ("center", center(G))):
        if 1 < N.order < G.order:
            family.setdefault(N.member_set, (name, N))
    return list(family.values())


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
    inside the fixed points, then the core of the fixed points. A central
    subgroup is left out, since every subgroup centralizes it."""
    G = phi.group
    td = twisted_data(phi)
    fixed, central = td.fixed.member_set, center(G).member_set
    candidates = [*((name, N) for name, N in family if N.member_set <= fixed),
                  ("core_of_fixed", normal_core(G, td.fixed))]
    unique: dict = {}
    for name, N in candidates:
        if not N.member_set <= central:
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


def check_coprime_facts(phi: Automorphism, family: Optional[list] = None) -> tuple:
    """The three standard coprime-action facts, (a, b, c), with None where
    each holds. (a) [[G,phi],phi] = [G,phi]: None or the least element of
    [G,phi] outside it. (b) Fixed points pass to quotients by invariant
    normal subgroups: per family member (name, N, x), x the least element of
    a coset N x that phi fixes and that holds no fixed element, read off one
    ``coset_labels`` pass (``_bare_fixed_coset``). (c) [G,phi] centralizes
    the non-central invariant normal subgroups inside the fixed points: per
    candidate (name, N, pair), pair the first non-commuting (m, x), m in
    [G,phi] and x in N, in member order, found by generators unless some
    pair fails."""
    require_coprime(phi)
    G = phi.group
    H = twisted_data(phi).commutator_phi
    family = default_normal_family(phi) if family is None else _checked_family(phi, family)
    twice = commutator_twisted_data(phi).commutator_phi
    unstable = None if twice == H else min(H.member_set - twice.member_set)
    return (unstable,
            [(name, N, _bare_fixed_coset(phi, N)) for name, N in family],
            [(name, N, _noncommuting_pair(G, H, N)) for name, N in _central_candidates(phi, family)])


def fixed_points_of_product(phi: Automorphism, family: Sequence[tuple]) -> tuple:
    """The fixed points of a product of invariant normal subgroups are
    generated by the factors' fixed points: the order of the product, and
    None or the least fixed element of the product outside the subgroup
    that the factors' fixed points generate."""
    require_coprime(phi)
    G = phi.group
    fixed = twisted_data(phi).fixed.member_set
    _checked_family(phi, family)
    product = product_of_subgroups(G, [N for _, N in family])
    lhs = product.member_set & fixed
    rhs = subgroup_generated(G, {0}.union(*(N.member_set & fixed for _, N in family)))
    return product.order, min(lhs - rhs.member_set, default=None)


def twisted_pair_closures(phi: Automorphism, td: TwistedData) -> Iterator[Subgroup]:
    """The invariant closure of every pair of elements of the twisted set of
    ``td``, each once.

    The closure of {x, y} is generated by the <phi>-orbits of x and y, so
    one representative per orbit on the twisted set gives every pair
    closure: r orbits give r(r+1)/2 closures.
    """
    reps = td.orbit_reps
    for i, x in enumerate(reps):
        for y in reps[i:]:
            yield phi_invariant_closure(phi, {x, y})


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
    inner = commutator_twisted_data(phi)
    if inner.commutator_phi.order != twisted_data(phi).commutator_phi.order:
        raise PreconditionViolated("[G, phi, phi] = [G, phi] required")
    fixed = inner.fixed.member_set
    S: set[int] = {0}
    closures = twisted_pair_closures(phi, inner)
    while len(S) < len(fixed) and (K := next(closures, None)) is not None:
        S.update(K.member_set & fixed)
    return {"S_size": len(S),
            "generates": len(S) == len(fixed)
            or subgroup_generated(G, S).member_set == fixed}
