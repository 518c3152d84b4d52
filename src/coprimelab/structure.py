"""Classical structure theory: series, Sylow subgroups, Fitting, powerful p-groups."""

from __future__ import annotations

from typing import Optional

from .errors import NotAPGroup, NotNilpotent, NotSoluble
from .groups import (FiniteGroup, Subgroup, commutator_subgroup_pair, normal_core,
                     normality_witness, product_of_subgroups, quotient_group,
                     subgroup_generated)
from .numutil import is_prime, p_part, prime_factors, prime_power_base


class SubgroupSeries:
    """Descending subgroup series with strict terms only. The derived series
    of H reaches the trivial group iff H is soluble, its lower central series
    iff H is nilpotent; the number of steps is then the derived length or the
    nilpotency class, else None."""

    def __init__(self, terms: tuple):
        self.terms = terms

    @property
    def orders(self) -> tuple:
        return tuple(t.order for t in self.terms)

    @property
    def is_soluble(self) -> bool:
        return self.terms[-1].is_trivial

    @property
    def derived_length(self) -> Optional[int]:
        return len(self.terms) - 1 if self.is_soluble else None

    is_nilpotent = is_soluble
    nilpotency_class = derived_length


def _commutator_series(G: FiniteGroup, H: Optional[Subgroup], kind: str) -> SubgroupSeries:
    """Commutate each term with itself ("derived") or with H ("lower-central")
    until stable; the series of G itself (H None) is kept in G.cache[kind].
    Each term lies in the one before it, so the series is stable once a term
    has the order of the one before it."""
    if H is None and kind in G.cache:
        return G.cache[kind]
    top = cur = H if H is not None else G.whole_subgroup()
    terms = [cur]
    while True:
        nxt = commutator_subgroup_pair(G, cur, cur if kind == "derived" else top)
        if nxt.order == cur.order:
            break
        terms.append(nxt)
        cur = nxt
        if cur.is_trivial:
            break
    series = SubgroupSeries(tuple(terms))
    if H is None:
        G.cache[kind] = series
    return series


def derived_series(G: FiniteGroup, H: Optional[Subgroup] = None) -> SubgroupSeries:
    """H >= H' >= H'' >= ... until stable; soluble iff it reaches the trivial group."""
    return _commutator_series(G, H, "derived")


def lower_central_series(G: FiniteGroup, H: Optional[Subgroup] = None) -> SubgroupSeries:
    """H = γ1 >= γ2 = [H,H] >= γ3 = [γ2,H] >= ... until stable."""
    return _commutator_series(G, H, "lower-central")


def require_nilpotent(G: FiniteGroup) -> SubgroupSeries:
    """The lower central series of G; NotNilpotent unless G is nilpotent."""
    lcs = lower_central_series(G)
    if not lcs.is_nilpotent:
        raise NotNilpotent("group is not nilpotent")
    return lcs


def require_soluble(G: FiniteGroup) -> None:
    """NotSoluble unless G is soluble."""
    if not derived_series(G).is_soluble:
        raise NotSoluble("group is not soluble")


def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, built deterministically by p-element extension.

    Starting from the trivial subgroup, repeatedly adjoin the least p-element
    outside P that normalizes P. While P is below a Sylow subgroup S, the
    normalizer of P in S is larger than P, so such an element exists, and
    adjoining it gives a larger p-group; no normalizer is ever built.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    pk = p_part(G.order, p)
    if pk == 1:
        return G.trivial_subgroup()
    if pk == G.order:
        return G.whole_subgroup()
    # an element order divides |G|, so it is a power of p iff it divides pk;
    # the scan stops at the first p-element that normalizes P
    orders = G._orders
    P = G.trivial_subgroup()
    while P.order < pk:
        z = next((x for x in range(1, G.order) if pk % orders[x] == 0 and x not in P.member_set
                  and normality_witness(G, P.gens, P.member_set, (x,)) is None), None)
        if z is None:
            raise AssertionError("Sylow extension exhausted below the p-part")
        P = subgroup_generated(G, P.gens + (z,))
    return P


def fitting_subgroup(G: FiniteGroup) -> Subgroup:
    """F(G): the join of the cores O_p(G) of the Sylow subgroups, over the
    primes dividing |G|."""
    cores = [normal_core(G, sylow_subgroup(G, p)) for p in prime_factors(G.order)]
    if not cores:
        return G.trivial_subgroup()
    return product_of_subgroups(G, cores)


def fitting_height(G: FiniteGroup) -> int:
    """Number of iterations of G <- G/F(G) until trivial; requires solubility."""
    cached = G.cache.get("fitting_height")
    if cached is not None:
        return cached
    require_soluble(G)
    height = 0
    cur = G
    while cur.order > 1:
        F = fitting_subgroup(cur)
        if F.is_trivial:
            raise AssertionError("nontrivial soluble group has trivial Fitting subgroup")
        cur = quotient_group(cur, F)
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
    return subgroup_generated(G, set(map(G.power_map(m).__getitem__, H.members)))


def is_powerful(G: FiniteGroup, p: int, subgroup: Optional[Subgroup] = None) -> bool:
    """True iff p-th powers (4th for p=2) generate a subgroup containing [G,G]."""
    H = subgroup if subgroup is not None else G.whole_subgroup()
    if H.order > 1 and prime_power_base(H.order) != p:
        raise NotAPGroup(f"order {H.order} is not a power of {p}")
    powers = power_subgroup(G, 4 if p == 2 else p, within=H)
    derived = commutator_subgroup_pair(G, H, H)
    return derived.member_set <= powers.member_set
