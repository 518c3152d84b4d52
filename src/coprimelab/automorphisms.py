"""Automorphisms given by generator images; fixed/twisted sets and their checks.

The automorphism of an enumerated group is stored as a full element-index
permutation (``table``). Every automorphism is built from the element indices
of its generator images: ``FiniteGroup.extend_images`` walks the enumeration
tree over the right-multiplication columns of the images, and the result is
checked for bijectivity and for the generator-wise homomorphism law, which
suffices for full multiplicativity. The check compares the group's Cayley
columns, pulled through the table, with the image columns: no ``mul`` call.
"""

from __future__ import annotations

import math
from itertools import compress, count, repeat
from operator import ne
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (GroupTheoryError, NotBijective, NotCoprime, NotHomomorphism, NotInvariant,
                     NotNilpotent, DecompositionNotFound, NonUniqueDecomposition,
                     PreconditionViolated)
from .groups import (FiniteGroup, Subgroup, are_conjugate, center, coset_labels, is_normal,
                     product_of_subgroups, subgroup_generated)
from .structure import derived_series, lower_central_series


class Automorphism:
    """Bijective endomorphism of an enumerated group.

    ``table[x]`` is the image of element x; ``order_n`` is the order of the
    map: phi^k is the identity iff it fixes every generator, so it is the lcm
    of the lengths of the <phi>-orbits of the generators.
    """

    def __init__(self, group: FiniteGroup, table: tuple):
        self.group = group
        self.table = table
        self.order_n = math.lcm(*(len(self.orbit(g)) for g in group.generator_indices))
        self._twisted: Optional[TwistedData] = None

    def orbit(self, x: int) -> list[int]:
        out = [x]
        y = self.table[x]
        while y != x:
            out.append(y)
            y = self.table[y]
        return out

    @property
    def coprime(self) -> bool:
        return math.gcd(self.group.order, self.order_n) == 1


def automorphism_from_images(G: FiniteGroup, images: Sequence[int]) -> Automorphism:
    """The automorphism that sends generator i to element ``images[i]``;
    NotBijective or NotHomomorphism when these images define none.

    The table is one tree walk over the right-multiplication columns of the
    images, and the law table[x * g_i] = table[x] * images[i] is checked one
    generator column at a time: no ``mul`` call."""
    columns = [G.right_column(s) for s in images]
    table = G.extend_images(columns)
    if len(set(table)) != G.order:
        raise NotBijective("generator images do not induce a bijection")
    broken = []
    for gi, (right, column) in enumerate(zip(G._right, columns)):
        # the least x with table[x * g_i] != table[x] * images[i], if any
        x = next(compress(count(), map(ne, map(table.__getitem__, right),
                                       map(column.__getitem__, table))), None)
        if x is not None:
            broken.append((x, gi))
    if broken:
        x, gi = min(broken)
        raise NotHomomorphism(f"map breaks at element {x} times generator {gi}",
                              witness=(x, G.generator_indices[gi]))
    return Automorphism(G, tuple(table))


def build_automorphism(G: FiniteGroup, gen_images: Sequence[Iterable[int]]) -> Automorphism:
    """Evaluate generator-image words and extend them to the whole group."""
    if len(gen_images) != len(G.generators):
        raise ValueError(f"expected {len(G.generators)} image words, got {len(gen_images)}")
    return automorphism_from_images(G, [G.evaluate_word(w) for w in gen_images])


# what TwistedData.commutator_derived_length holds until it is asked for
_NOT_COMPUTED = object()


class TwistedData:
    """Fixed-point subgroup, twisted set and the subgroup it generates, of phi
    on G or on a phi-invariant subgroup; the <phi>-orbit representatives on
    the twisted set once they are asked for, and, on G, the same data on
    [G, phi] (``commutator_twisted_data``) and the derived length of [G, phi]
    (``commutator_derived_length``) once they are asked for."""

    def __init__(self, fixed: Subgroup, twisted: tuple, twisted_set: frozenset,
                 producers: Optional[dict], commutator_phi: Subgroup, coprime: bool,
                 orbit_reps: Optional[list] = None):
        self.fixed = fixed
        self.twisted = twisted
        self.twisted_set = twisted_set
        self.producers = producers
        self.commutator_phi = commutator_phi
        self.coprime = coprime
        self.orbit_reps = orbit_reps
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
    return TwistedData(fixed=fixed, twisted=twisted, twisted_set=frozenset(twisted),
                       producers=producers, commutator_phi=subgroup_generated(G, twisted),
                       coprime=phi.coprime)


def twisted_data(phi: Automorphism) -> TwistedData:
    """Compute {x : x^phi = x}, {x^-1 x^phi} and the subgroup the latter generates."""
    if phi._twisted is None:
        phi._twisted = _twisted_on(phi, range(phi.group.order))
    return phi._twisted


def commutator_twisted_data(phi: Automorphism) -> TwistedData:
    """The twisted data of phi restricted to H = [G, phi], computed inside G:
    C_H(phi) = H & C_G(phi), the twisted set of phi on H (|H| products) and
    [H, phi]. Kept on ``twisted_data(phi)``, or that data itself when H = G."""
    td = twisted_data(phi)
    if td.commutator_phi.is_whole:
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


def _fixed_classes(phi: Automorphism) -> list[list[int]]:
    """The conjugacy classes of G that meet the fixed-point subgroup."""
    G = phi.group
    return _orbits(twisted_data(phi).fixed.members,
                   lambda x: [G.conjugate(x, g) for g in G.generator_indices])


def orbit_representatives(phi: Automorphism, seeds: Iterable[int]) -> list[int]:
    """Least element of each orbit of <phi> x C_G(phi) on the seed set.

    The group acts by phi and by conjugation with the fixed-point subgroup.
    Conjugation by a fixed c commutes with phi, so closure(x^c) is
    closure(x)^c and one invariant closure per orbit decides any
    conjugation-invariant property of them all. The seed set must be a union
    of orbits; an orbit that leaves it raises NotInvariant.
    """
    G = phi.group
    fixed_gens = twisted_data(phi).fixed.gens
    seed_set = set(seeds)
    orbits = _orbits(sorted(seed_set), lambda x: [phi.table[x],
                                                  *(G.conjugate(x, c) for c in fixed_gens)])
    for orbit in orbits:
        outside = [y for y in orbit if y not in seed_set]
        if outside:
            raise NotInvariant(f"element {outside[0]} of the orbit of seed {orbit[0]} "
                               f"is not a seed")
    return [orbit[0] for orbit in orbits]


def is_phi_invariant(phi: Automorphism, H: Subgroup) -> bool:
    return all(phi.table[t] in H.member_set for t in H.gens)


class FactorizationStatus:
    """Verdicts for the product-covering criterion with an optional witness."""

    def __init__(self, product_covers: bool, criterion_holds: bool, witness: Optional[dict]):
        self.product_covers = product_covers
        self.criterion_holds = criterion_holds
        self.witness = witness


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


def factorization_status(phi: Automorphism) -> FactorizationStatus:
    """Whether the twisted-times-fixed product covers G, and the conjugacy
    criterion that is equivalent to it; returns a witness triple on failure."""
    if not phi.coprime:
        raise NotCoprime("factorization criterion is stated for coprime actions")
    G = phi.group
    td = twisted_data(phi)
    product_covers = 0 not in _factorization_counts(phi)
    conj_union = set().union(*_fixed_classes(phi))
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
    return FactorizationStatus(product_covers, criterion_holds, witness)


def _decomposition_data(phi: Automorphism) -> TwistedData:
    """Twisted data of phi, after checking that unique decomposition applies."""
    G = phi.group
    if not phi.coprime:
        raise NotCoprime("unique decomposition needs a coprime action")
    if not lower_central_series(G).is_nilpotent:
        raise NotNilpotent(f"group of order {G.order} is not nilpotent")
    return twisted_data(phi)


def _decomposition_error(x: int, count: int) -> GroupTheoryError:
    if count == 0:
        return DecompositionNotFound(f"element {x} admits no twisted*fixed factorization")
    return NonUniqueDecomposition(f"element {x} admits {count} factorizations")


def nilpotent_decompose(phi: Automorphism, x: int) -> tuple:
    """The unique (g, h) with x = g h, g twisted and h fixed, by full scan.

    Valid for nilpotent groups under coprime actions; a missing or ambiguous
    answer means the input violates those hypotheses and is a hard error.
    """
    G = phi.group
    td = _decomposition_data(phi)
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
    _decomposition_data(phi)
    for x, count in enumerate(_factorization_counts(phi)):
        if count != 1:
            return {"element": x, "error": str(_decomposition_error(x, count))}
    return None


def default_normal_family(phi: Automorphism) -> list[tuple]:
    """Canonical nontrivial phi-invariant normal subgroups for the lemma checks."""
    G = phi.group
    td = twisted_data(phi)
    candidates = [
        ("commutator_phi", td.commutator_phi),
        ("derived", derived_series(G).terms[1] if len(derived_series(G).terms) > 1
         else G.trivial_subgroup()),
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


def _core_of_fixed(phi: Automorphism) -> Subgroup:
    """Largest normal subgroup of G inside the fixed-point subgroup.

    It is the union of the conjugacy classes that lie inside the fixed set.
    """
    fixed = twisted_data(phi).fixed.member_set
    return subgroup_generated(phi.group, [x for cls in _fixed_classes(phi)
                                          if fixed.issuperset(cls) for x in cls])


def _checked_family(phi: Automorphism, family: Sequence[tuple]) -> Sequence[tuple]:
    """The (name, subgroup) family itself; NotInvariant if a member is not a
    phi-invariant normal subgroup."""
    for name, N in family:
        if not is_normal(phi.group, N):
            raise NotInvariant(f"family member {name} is not normal")
        if not is_phi_invariant(phi, N):
            raise NotInvariant(f"family member {name} is not phi-invariant")
    return family


def check_coprime_facts(phi: Automorphism, family: Optional[list] = None) -> dict:
    """Verify the three standard coprime-action facts.

    (a) twisting [G,phi] again reproduces it; (b) fixed points pass to
    quotients by invariant normal subgroups; (c) [G,phi] centralizes every
    invariant normal subgroup inside the fixed points. The (a) check reads
    [[G,phi],phi] off ``commutator_twisted_data``. The (b) check reads
    the fixed cosets off one ``coset_labels`` pass per subgroup, with no
    quotient group. Failed checks carry generator words under ``witness``:
    for (b) the least x whose coset is fixed but holds no fixed element, for
    (c) a non-commuting pair m in [G,phi], x in the subgroup.
    """
    if not phi.coprime:
        raise NotCoprime("the coprime facts require gcd(|G|, |phi|) = 1")
    G = phi.group
    td = twisted_data(phi)
    family = default_normal_family(phi) if family is None else _checked_family(phi, family)

    report: dict = {}
    twice = commutator_twisted_data(phi).commutator_phi
    report["commutator_stable"] = "pass" if twice == td.commutator_phi else "fail"

    quotient_checks = []
    for name, N in family:
        labels, reps = coset_labels(G, N)
        # N is phi-invariant, so phi(N x) = N x^phi: coset k is fixed iff its
        # least element's image lies in it. A fixed element's coset is fixed.
        meets_fixed = {labels[x] for x in td.fixed.members}
        bare = next((x for k, x in enumerate(reps)
                     if labels[phi.table[x]] == k and k not in meets_fixed), None)
        check = {"subgroup": name, "kernel_order": N.order,
                 "verdict": "pass" if bare is None else "fail"}
        if bare is not None:
            check["witness"] = {"x": list(G.words[bare])}
        quotient_checks.append(check)
    report["quotient_fixed_points"] = quotient_checks

    central_candidates = [(name, N) for name, N in family
                          if N.member_set <= td.fixed.member_set]
    core = _core_of_fixed(phi)
    if not core.is_trivial:
        central_candidates.append(("core_of_fixed", core))
    z_fixed = subgroup_generated(
        G, center(G).member_set & td.fixed.member_set)
    if not z_fixed.is_trivial:
        central_candidates.append(("central_fixed", z_fixed))
    central_checks = []
    seen = set()
    for name, N in central_candidates:
        if N.member_set in seen:
            continue
        seen.add(N.member_set)
        pair = next(((m, x) for m in td.commutator_phi.members for x in N.members
                     if G.mul(m, x) != G.mul(x, m)), None)
        check = {"subgroup": name, "order": N.order, "verdict": "pass" if pair is None else "fail"}
        if pair is not None:
            # generator words, so the pair replays on a fresh enumeration
            check["witness"] = {"m": list(G.words[pair[0]]), "x": list(G.words[pair[1]])}
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
    if not phi.coprime:
        raise NotCoprime("the product formula requires a coprime action")
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

    Requires a nilpotent group and a coprime action, so that [H, phi] = H;
    under those hypotheses the collected set S generates C_H(phi). The walk
    takes one pair per pair of <phi>-orbits on the twisted set of H
    (``twisted_pair_closures``) and stops once S is all of C_H(phi): S is a
    union of sets K & C_H(phi), so it cannot grow further, and it then
    generates C_H(phi) without a closure. So S either reaches C_H(phi) or is
    the whole union, whatever the order of the pairs.
    """
    G = phi.group
    if not phi.coprime:
        raise PreconditionViolated("coprime action required")
    if not lower_central_series(G).is_nilpotent:
        raise PreconditionViolated("nilpotent group required")
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
    under phi, all found inside G; requires a soluble G and a coprime action."""
    G = phi.group
    if not phi.coprime:
        raise PreconditionViolated("coprime action required")
    if not derived_series(G).is_soluble:
        raise PreconditionViolated("soluble group required")
    H, inner = _commutator_data(phi)
    return {"d": commutator_derived_length(phi), "e": G.exponent_of(inner.twisted),
            "exponent": H.exponent()}
