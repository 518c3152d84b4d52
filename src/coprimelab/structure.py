"""Classical structure theory: series, Fitting height, powerful p-groups."""

from __future__ import annotations

from typing import Optional

from .errors import NotAPGroup, NotNilpotent, NotSoluble
from .groups import FiniteGroup, Subgroup, commutator_subgroup_pair, subgroup_generated
from .numutil import prime_power_base


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


def fitting_height(G: FiniteGroup) -> int:
    """Length of the lower nilpotent series G = L_0 > L_1 > ... > L_h = 1, in
    which L_(i+1), the nilpotent residual of L_i, is the last term of the
    lower central series of L_i; NotSoluble unless G is soluble, since the
    series of an insoluble group stops above 1. For a soluble group h is the
    Fitting height, the length of the upper Fitting series (Huppert,
    *Endliche Gruppen I*, ch. VI). The first step reads the cached series of G."""
    require_soluble(G)
    if G.order == 1:
        return 0
    height, residual = 1, lower_central_series(G).terms[-1]
    while not residual.is_trivial:
        height, residual = height + 1, lower_central_series(G, residual).terms[-1]
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
