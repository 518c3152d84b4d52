"""Automorphisms given by generator-image words; fixed/twisted sets and their checks.

The automorphism of an enumerated group is stored as a full element-index
permutation (``table``). Building from generator images extends along the
BFS factorization words, then validates bijectivity and the generator-wise
homomorphism law, which suffices for full multiplicativity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (NotBijective, NotCoprime, NotHomomorphism, NotInvariant,
                     NotNilpotent, DecompositionNotFound, NonUniqueDecomposition,
                     PreconditionViolated, SylowNotFound)
from .groups import (FiniteGroup, Subgroup, are_conjugate, center, is_normal,
                     perm_order, product_of_subgroups, quotient_group,
                     subgroup_as_group, subgroup_generated)
from .structure import derived_series, lower_central_series, sylow_subgroup


class Automorphism:
    """Bijective endomorphism of an enumerated group.

    ``table[x]`` is the image of element x; ``gen_images`` are the signed
    1-based generator words that define the map; ``order_n`` is the order of
    the permutation the map induces on element indices.
    """

    def __init__(self, group: FiniteGroup, gen_images: Sequence[tuple], table: tuple):
        self.group = group
        self.gen_images = tuple(tuple(w) for w in gen_images)
        self.table = table
        self.order_n = perm_order(table)
        self._twisted: Optional[TwistedData] = None
        self.closure_cache: dict = {}

    def orbit(self, x: int) -> list[int]:
        out = [x]
        y = self.table[x]
        while y != x:
            out.append(y)
            y = self.table[y]
        return out

    @property
    def is_identity(self) -> bool:
        return self.order_n == 1

    @property
    def coprime(self) -> bool:
        return math.gcd(self.group.order, self.order_n) == 1

    def __repr__(self) -> str:
        return f"Automorphism(order={self.order_n} on group of order {self.group.order})"


def build_automorphism(G: FiniteGroup, gen_images: Sequence[Iterable[int]]) -> Automorphism:
    """Extend generator-image words to the whole group and validate the result."""
    if len(gen_images) != len(G.generators):
        raise ValueError(f"expected {len(G.generators)} image words, got {len(gen_images)}")
    images = [G.evaluate_word(w) for w in gen_images]
    table = [0] * G.order
    for y in range(1, G.order):
        px, gi = G._parents[y]
        table[y] = G.mul(table[px], images[gi])
    if len(set(table)) != G.order:
        raise NotBijective("generator images do not induce a bijection")
    for x in range(G.order):
        for gi, s in enumerate(G.generator_indices):
            if table[G.mul(x, s)] != G.mul(table[x], images[gi]):
                raise NotHomomorphism(
                    f"map breaks at element {x} times generator {gi}", witness=(x, s))
    return Automorphism(G, [tuple(w) for w in gen_images], tuple(table))


def automorphism_from_table(G: FiniteGroup, table: Sequence[int]) -> Automorphism:
    """Wrap a raw element permutation, validating the homomorphism law."""
    table = tuple(table)
    if sorted(table) != list(range(G.order)):
        raise NotBijective("table is not a permutation of the element indices")
    for x in range(G.order):
        for s in G.generator_indices:
            if table[G.mul(x, s)] != G.mul(table[x], table[s]):
                raise NotHomomorphism(
                    f"table breaks at element {x} times generator {s}", witness=(x, s))
    gen_images = [G.words[table[g]] for g in G.generator_indices]
    return Automorphism(G, gen_images, table)


def identity_automorphism(G: FiniteGroup) -> Automorphism:
    return Automorphism(G, [(i + 1,) for i in range(len(G.generators))],
                        tuple(range(G.order)))


@dataclass
class TwistedData:
    """Fixed-point subgroup, twisted set and the subgroup it generates."""

    fixed: Subgroup
    twisted: tuple
    twisted_set: frozenset
    producers: dict
    commutator_phi: Subgroup
    coprime: bool


def twisted_data(phi: Automorphism) -> TwistedData:
    """Compute {x : x^phi = x}, {x^-1 x^phi} and the subgroup the latter generates."""
    if phi._twisted is not None:
        return phi._twisted
    G = phi.group
    fixed_members = [x for x in range(G.order) if phi.table[x] == x]
    fixed = subgroup_generated(G, fixed_members)
    producers: dict[int, int] = {}
    for x in range(G.order):
        t = G.mul(G.inv(x), phi.table[x])
        if t not in producers:
            producers[t] = x
    twisted = tuple(sorted(producers))
    data = TwistedData(
        fixed=fixed,
        twisted=twisted,
        twisted_set=frozenset(twisted),
        producers=producers,
        commutator_phi=subgroup_generated(G, twisted),
        coprime=phi.coprime,
    )
    phi._twisted = data
    return data


def commutator_with_automorphism(phi: Automorphism, H: Subgroup) -> Subgroup:
    """[H, phi] = subgroup generated by {h^-1 h^phi : h in H}."""
    G = phi.group
    return subgroup_generated(G, {G.mul(G.inv(h), phi.table[h]) for h in H.members})


def phi_invariant_closure(phi: Automorphism, seeds: Iterable[int]) -> Subgroup:
    """Minimal phi-invariant subgroup containing the seeds.

    Cached by the orbit-expanded seed set, so seed sets differing only by
    powers of phi share one closure.
    """
    orbit_seeds: set[int] = set()
    for s in set(seeds):
        orbit_seeds.update(phi.orbit(s))
    key = frozenset(orbit_seeds)
    cached = phi.closure_cache.get(key)
    if cached is not None:
        return cached
    out = subgroup_generated(phi.group, orbit_seeds)
    phi.closure_cache[key] = out
    return out


def orbit_representatives(phi: Automorphism, seeds: Iterable[int]) -> list[int]:
    """Least element of each orbit of <phi> x C_G(phi) on the seed set.

    The group acts by phi and by conjugation with the fixed-point subgroup.
    Conjugation by a fixed c commutes with phi, so closure(x^c) is
    closure(x)^c and one invariant closure per orbit decides any
    conjugation-invariant property of them all. The seed set must be a union
    of orbits; a walk that leaves it raises NotInvariant.
    """
    G = phi.group
    fixed_gens = twisted_data(phi).fixed.gens
    seed_set = set(seeds)
    seen: set[int] = set()
    reps = []
    for s in sorted(seed_set):
        if s in seen:
            continue
        reps.append(s)
        seen.add(s)
        queue = [s]
        while queue:
            x = queue.pop()
            for y in [phi.table[x], *(G.conjugate(x, c) for c in fixed_gens)]:
                if y in seen:
                    continue
                if y not in seed_set:
                    raise NotInvariant(
                        f"element {y} of the orbit of seed {s} is not a seed")
                seen.add(y)
                queue.append(y)
    return reps


def is_phi_invariant(phi: Automorphism, H: Subgroup) -> bool:
    return all(phi.table[t] in H.member_set for t in H.gens)


def phi_invariant_sylow(phi: Automorphism, p: int,
                        container: Optional[Subgroup] = None) -> Subgroup:
    """A phi-invariant Sylow p-subgroup, found by scanning conjugates.

    Coprimality guarantees existence; ``container``, when given, must be a
    phi-invariant p-subgroup and the result contains it.
    """
    if not phi.coprime:
        raise NotCoprime("phi-invariant Sylow subgroups need a coprime action")
    G = phi.group
    P = sylow_subgroup(G, p)
    if container is not None and not is_phi_invariant(phi, container):
        raise NotInvariant("container subgroup is not phi-invariant")

    def good(members: frozenset) -> bool:
        if container is not None and not container.member_set <= members:
            return False
        return all(phi.table[m] in members for m in members)

    if good(P.member_set):
        return P
    seen = set()
    for c in range(G.order):
        conj = frozenset(G.conjugate(m, c) for m in P.members)
        if conj in seen:
            continue
        seen.add(conj)
        if good(conj):
            return subgroup_generated(G, conj)
    raise SylowNotFound(f"no phi-invariant Sylow {p}-subgroup (non-coprime input?)")


@dataclass
class FactorizationStatus:
    """Verdicts for the product-covering criterion with an optional witness."""

    product_covers: bool
    criterion_holds: bool
    witness: Optional[dict]


def _fixed_conjugates(G: FiniteGroup, fixed: Subgroup) -> set[int]:
    """Union of the conjugacy classes meeting the fixed-point subgroup."""
    seen = set(fixed.members)
    queue = list(fixed.members)
    gens = G.generator_indices
    while queue:
        x = queue.pop()
        for g in gens:
            y = G.conjugate(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def factorization_status(phi: Automorphism) -> FactorizationStatus:
    """Whether the twisted-times-fixed product covers G, and the conjugacy
    criterion that is equivalent to it; returns a witness triple on failure."""
    if not phi.coprime:
        raise NotCoprime("factorization criterion is stated for coprime actions")
    G = phi.group
    td = twisted_data(phi)
    product = set()
    for g in td.twisted:
        for h in td.fixed.members:
            product.add(G.mul(g, h))
    product_covers = len(product) == G.order
    conj_union = _fixed_conjugates(G, td.fixed)
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


def nilpotent_decompose(phi: Automorphism, x: int) -> tuple:
    """The unique (g, h) with x = g h, g twisted and h fixed, by full scan.

    Valid for nilpotent groups under coprime actions; a missing or ambiguous
    answer means the input violates those hypotheses and is a hard error.
    """
    G = phi.group
    if not phi.coprime:
        raise NotCoprime("unique decomposition needs a coprime action")
    if not lower_central_series(G).is_nilpotent:
        raise NotNilpotent(f"group of order {G.order} is not nilpotent")
    td = twisted_data(phi)
    solutions = []
    for g in td.twisted:
        h = G.mul(G.inv(g), x)
        if h in td.fixed.member_set:
            solutions.append((g, h))
    if not solutions:
        raise DecompositionNotFound(f"element {x} admits no twisted*fixed factorization")
    if len(solutions) > 1:
        raise NonUniqueDecomposition(f"element {x} admits {len(solutions)} factorizations")
    return solutions[0]


def restrict_automorphism(phi: Automorphism, H: Subgroup):
    """Restriction of phi to an invariant subgroup, as a standalone group.

    Returns (group, automorphism, to_parent).
    """
    G = phi.group
    if not is_phi_invariant(phi, H):
        raise NotInvariant("cannot restrict to a non-invariant subgroup")
    if H.is_whole:
        return G, phi, tuple(range(G.order))
    Hg, to_parent, from_parent = subgroup_as_group(G, H)
    gen_images = []
    for g in Hg.generator_indices:
        img_parent = phi.table[to_parent[g]]
        gen_images.append(Hg.words[from_parent[img_parent]])
    return Hg, build_automorphism(Hg, gen_images), to_parent


def quotient_automorphism(phi: Automorphism, Q) -> Automorphism:
    """Automorphism induced on a quotient by a phi-invariant normal kernel."""
    G = phi.group
    if not is_phi_invariant(phi, Q.kernel):
        raise NotInvariant("kernel is not phi-invariant")
    induced = build_automorphism(Q.quotient, phi.gen_images)
    for x in range(G.order):
        if Q.to_quotient[phi.table[x]] != induced.table[Q.to_quotient[x]]:
            raise NotInvariant("induced quotient map is not well defined")
    return induced


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

    An element belongs iff its whole conjugacy class stays inside the fixed
    set, so each member is tested by an orbit walk with early bailout.
    """
    G = phi.group
    fixed = twisted_data(phi).fixed
    core = set()
    for m in fixed.members:
        orbit = {m}
        queue = [m]
        inside = True
        while queue and inside:
            x = queue.pop()
            for g in G.generator_indices:
                y = G.conjugate(x, g)
                if y not in fixed.member_set:
                    inside = False
                    break
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        if inside:
            core.add(m)
    return subgroup_generated(G, core)


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
    invariant normal subgroup inside the fixed points.
    """
    if not phi.coprime:
        raise NotCoprime("the coprime facts require gcd(|G|, |phi|) = 1")
    G = phi.group
    td = twisted_data(phi)
    family = default_normal_family(phi) if family is None else _checked_family(phi, family)

    report: dict = {}
    twice = commutator_with_automorphism(phi, td.commutator_phi)
    report["commutator_stable"] = "pass" if twice == td.commutator_phi else "fail"

    quotient_checks = []
    for name, N in family:
        Q = quotient_group(G, N)
        ctable = [-1] * Q.quotient.order
        well_defined = True
        for x in range(G.order):
            src = Q.to_quotient[x]
            dst = Q.to_quotient[phi.table[x]]
            if ctable[src] == -1:
                ctable[src] = dst
            elif ctable[src] != dst:
                well_defined = False
                break
        if not well_defined:
            quotient_checks.append({"subgroup": name, "verdict": "fail",
                                    "reason": "induced map not well defined"})
            continue
        quotient_fixed = {q for q in range(Q.quotient.order) if ctable[q] == q}
        image_of_fixed = {Q.to_quotient[x] for x in td.fixed.members}
        ok = quotient_fixed == image_of_fixed
        quotient_checks.append({"subgroup": name, "kernel_order": N.order,
                                "verdict": "pass" if ok else "fail"})
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
        witness = None
        for m in td.commutator_phi.members:
            for x in N.members:
                if G.mul(m, x) != G.mul(x, m):
                    witness = (m, x)
                    break
            if witness:
                break
        central_checks.append({"subgroup": name, "order": N.order,
                               "verdict": "pass" if witness is None else "fail"})
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


def fixed_generation_S(phi: Automorphism) -> dict:
    """Fixed elements reachable inside invariant closures of twisted pairs.

    Requires a nilpotent group, coprime action and G = [G, phi]; under those
    hypotheses the collected set S generates the whole fixed-point subgroup.
    """
    G = phi.group
    if not phi.coprime:
        raise PreconditionViolated("coprime action required")
    if not lower_central_series(G).is_nilpotent:
        raise PreconditionViolated("nilpotent group required")
    td = twisted_data(phi)
    if td.commutator_phi.order != G.order:
        raise PreconditionViolated("G = [G, phi] required")
    S: set[int] = {0}
    tw = td.twisted
    for i, x1 in enumerate(tw):
        for x2 in tw[i:]:
            K = phi_invariant_closure(phi, {x1, x2})
            S.update(K.member_set & td.fixed.member_set)
    generated = subgroup_generated(G, S)
    return {"S_size": len(S),
            "generates": generated.member_set == td.fixed.member_set}


def soluble_exponent_probe(phi: Automorphism) -> dict:
    """Record (derived length, twisted exponent bound, group exponent)."""
    G = phi.group
    if not phi.coprime:
        raise PreconditionViolated("coprime action required")
    series = derived_series(G)
    if not series.is_soluble:
        raise PreconditionViolated("soluble group required")
    td = twisted_data(phi)
    if td.commutator_phi.order != G.order:
        raise PreconditionViolated("G = [G, phi] required")
    return {"d": series.derived_length, "e": G.exponent_of(td.twisted),
            "exponent": G.exponent()}
