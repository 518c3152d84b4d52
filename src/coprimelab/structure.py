"""Classical structure theory: series, Sylow subgroups, Fitting, powerful p-groups."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NotAPGroup, NotSoluble
from .groups import (FiniteGroup, Subgroup, commutator_subgroup_pair, normality_witness,
                     product_of_subgroups, quotient_group, subgroup_generated)
from .numutil import is_prime, p_part, prime_factors, prime_power_base


@dataclass(frozen=True)
class SubgroupSeries:
    """Descending subgroup series with strict terms only."""

    terms: tuple
    kind: str

    @property
    def reaches_trivial(self) -> bool:
        return self.terms[-1].is_trivial

    @property
    def length(self) -> int:
        """Number of strict steps."""
        return len(self.terms) - 1

    @property
    def orders(self) -> tuple:
        return tuple(t.order for t in self.terms)

    @property
    def is_soluble(self) -> bool:
        return self.reaches_trivial

    @property
    def is_nilpotent(self) -> bool:
        return self.reaches_trivial

    @property
    def derived_length(self) -> Optional[int]:
        return self.length if self.reaches_trivial else None

    @property
    def nilpotency_class(self) -> Optional[int]:
        return self.length if self.reaches_trivial else None


def _commutator_series(G: FiniteGroup, H: Optional[Subgroup], kind: str) -> SubgroupSeries:
    """Commutate each term with itself ("derived") or with H ("lower-central")
    until stable; the series of G itself (H None) is cached in G.cache[kind]."""
    if H is None:
        cached = G.cache.get(kind)
        if cached is not None:
            return cached
    top = cur = H if H is not None else G.whole_subgroup()
    terms = [cur]
    while True:
        nxt = commutator_subgroup_pair(G, cur, cur if kind == "derived" else top)
        if nxt.member_set == cur.member_set:
            break
        terms.append(nxt)
        cur = nxt
        if cur.is_trivial:
            break
    series = SubgroupSeries(tuple(terms), kind)
    if H is None:
        G.cache[kind] = series
    return series


def derived_series(G: FiniteGroup, H: Optional[Subgroup] = None) -> SubgroupSeries:
    """H >= H' >= H'' >= ... until stable; soluble iff it reaches the trivial group."""
    return _commutator_series(G, H, "derived")


def lower_central_series(G: FiniteGroup, H: Optional[Subgroup] = None) -> SubgroupSeries:
    """H = γ1 >= γ2 = [H,H] >= γ3 = [γ2,H] >= ... until stable."""
    return _commutator_series(G, H, "lower-central")


def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, built deterministically by normalizer extension.

    Starting from the trivial subgroup, repeatedly adjoin the p-part of the
    least normalizer element falling outside the current subgroup; each step
    stays inside a p-group and strictly grows, so no retries are needed.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    pk = p_part(G.order, p)
    if pk == 1:
        return G.trivial_subgroup()
    if pk == G.order:
        return G.whole_subgroup()
    from .groups import normalizer

    P = G.trivial_subgroup()
    while P.order < pk:
        N = normalizer(G, P)
        z = None
        for x in N.members:
            if x in P.member_set:
                continue
            o = G.element_order(x)
            power_of_p = p_part(o, p)
            if power_of_p == 1:
                continue
            cand = G.power(x, o // power_of_p)
            if cand not in P.member_set:
                z = cand
                break
        if z is None:
            raise AssertionError("Sylow extension exhausted below the p-part")
        P = subgroup_generated(G, set(P.gens) | {z})
    return P


def p_core(G: FiniteGroup, p: int) -> Subgroup:
    """O_p(G): intersection of all conjugates of one Sylow p-subgroup."""
    P = sylow_subgroup(G, p)
    if P.is_whole:
        return P
    current = P.member_set
    changed = True
    for g in range(G.order):
        if len(current) == 1:
            break
        if changed and normality_witness(G, current, current) is None:
            break
        conj = frozenset(G.conjugate(m, g) for m in P.members)
        reduced = current & conj
        changed = reduced != current
        current = reduced
    return subgroup_generated(G, current)


def fitting_subgroup(G: FiniteGroup) -> Subgroup:
    """F(G): product of the p-cores over the primes dividing |G|."""
    cores = [p_core(G, p) for p in prime_factors(G.order)]
    if not cores:
        return G.trivial_subgroup()
    return product_of_subgroups(G, cores)


def fitting_height(G: FiniteGroup) -> int:
    """Number of iterations of G <- G/F(G) until trivial; requires solubility."""
    cached = G.cache.get("fitting_height")
    if cached is not None:
        return cached
    if not derived_series(G).is_soluble:
        raise NotSoluble(f"group of order {G.order} is not soluble")
    height = 0
    cur = G
    while cur.order > 1:
        F = fitting_subgroup(cur)
        if F.is_trivial:
            raise AssertionError("nontrivial soluble group has trivial Fitting subgroup")
        cur = quotient_group(cur, F).quotient
        height += 1
    G.cache["fitting_height"] = height
    return height


def power_subgroup(G: FiniteGroup, m: int, within: Optional[Subgroup] = None) -> Subgroup:
    """Subgroup generated by the m-th powers of all elements (of ``within``)."""
    if m < 1:
        raise ValueError("power exponent must be >= 1")
    H = within if within is not None else G.whole_subgroup()
    if m == 1:
        return H
    return subgroup_generated(G, {G.power(x, m) for x in H.members})


def is_powerful(G: FiniteGroup, p: int, subgroup: Optional[Subgroup] = None) -> bool:
    """True iff p-th powers (4th for p=2) generate a subgroup containing [G,G]."""
    H = subgroup if subgroup is not None else G.whole_subgroup()
    if H.order > 1 and prime_power_base(H.order) != p:
        raise NotAPGroup(f"order {H.order} is not a power of {p}")
    powers = power_subgroup(G, 4 if p == 2 else p, within=H)
    derived = commutator_subgroup_pair(G, H, H)
    return derived.member_set <= powers.member_set
