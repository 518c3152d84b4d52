"""Permutation-based finite group engine: enumeration, subgroups, quotients.

Every group is fully enumerated. Elements are permutations of {0..degree-1}
stored as tuples; element 0 is always the identity. Enumeration is
breadth-first from the generators with a fixed generator order, so element
indices, factorization words and every downstream report are reproducible.

Elements are keyed by their images on a base, a short list of points whose
images determine an element (Sims; Seress, *Permutation Group Algorithms*,
ch. 4). ``mul`` composes on the base points only, so it costs O(len(base))
lookups instead of a degree-n tuple.

Composition convention: ``mul(a, b)`` is the map "apply b, then a", i.e.
ordinary function composition a∘b. Conjugation is ``x^g = g⁻¹ x g``.

Groups and subgroups are immutable after construction and safe to share
between threads or worker processes; the few lazily cached values are
published by single attribute assignment.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from .errors import CapExceeded, InvalidPermutation, NotNormal

DEFAULT_CAP = 200_000

Perm = tuple


def compose(a: Perm, b: Perm) -> Perm:
    """Compose permutations: (a*b)(x) = a(b(x))."""
    return tuple(map(a.__getitem__, b))


def perm_order(a: Perm) -> int:
    seen = bytearray(len(a))
    order = 1
    for start in range(len(a)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            length += 1
            x = a[x]
        order = math.lcm(order, length)
    return order


def find_base(degree: int, elements: Sequence[Perm]) -> tuple:
    """Points whose images tell the elements apart. A point joins the base when
    an element fixing the base so far moves it, so in the end only the identity
    (element 0) fixes every base point."""
    stabilizer, base = elements[1:], []
    for pt in range(degree):
        if not stabilizer:
            break
        if any(perm[pt] != pt for perm in stabilizer):
            base.append(pt)
            stabilizer = [perm for perm in stabilizer if perm[pt] == pt]
    return tuple(base)


def validate_permutation(images: Sequence[int], degree: int) -> Perm:
    p = tuple(images) if isinstance(images, (list, tuple)) else None
    if (p is None or len(p) != degree or any(type(i) is not int for i in p)
            or sorted(p) != list(range(degree))):
        raise InvalidPermutation(f"image list {images!r} is not a bijection of {degree} points")
    return p


class FiniteGroup:
    """Fully enumerated permutation group with 0-based element indices.

    ``_base_images[i][e]`` is the image of ``base[i]`` under element e, and
    ``_key_index`` maps an element's key (see ``_key``) to its index: a list
    with -1 at unused keys when degree**len(base) <= 4*order, else a dict.
    """

    def __init__(self, degree: int, generators: Sequence[Perm], elements: list[Perm],
                 words: list[tuple], parents: list[tuple]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = elements
        self.order = len(elements)
        # words[e] is a factorization of element e over the generators found
        # during enumeration; entry k > 0 means generator k-1, k < 0 its inverse.
        self.words = words
        self._parents = parents
        self.base = find_base(degree, elements)
        self._base_images = tuple([perm[pt] for perm in elements] for pt in self.base)
        if degree ** len(self.base) <= 4 * self.order:
            self._key_index = [-1] * degree ** len(self.base)
            for i, perm in enumerate(elements):
                self._key_index[self._key(perm)] = i
        else:
            self._key_index = {self._key(perm): i for i, perm in enumerate(elements)}
        self._orders: list = [0] * len(elements)
        self.generator_indices = tuple(self.element_index(g) for g in self.generators)
        # y = parent * g along the enumeration tree, so y^-1 = g^-1 * parent^-1
        gen_inverses = [self.power(g, -1) for g in self.generator_indices]
        self._inverses = [0] * self.order
        for y in range(1, self.order):
            px, gi = parents[y]
            self._inverses[y] = self.mul(gen_inverses[gi], self._inverses[px])
        self._whole: Optional[Subgroup] = None
        self.cache: dict = {}

    # arithmetic on element indices

    def mul(self, a: int, b: int) -> int:
        """a*b from the images of the base points under a∘b: O(len(base))."""
        perm = self.elements[a]
        images = self._base_images
        length = len(images)
        if length == 1:
            return self._key_index[perm[images[0][b]]]
        if length == 2:
            return self._key_index[perm[images[0][b]] + self.degree * perm[images[1][b]]]
        key = 0
        for column in reversed(images):
            key = key * self.degree + perm[column[b]]
        return self._key_index[key]

    def inv(self, a: int) -> int:
        return self._inverses[a]

    def power(self, a: int, k: int) -> int:
        """a**k by binary powering; k may be negative."""
        k %= self.element_order(a)
        out = 0
        while k:
            if k & 1:
                out = self.mul(out, a)
            k >>= 1
            if k:
                a = self.mul(a, a)
        return out

    def conjugate(self, a: int, g: int) -> int:
        """x^g = g⁻¹ x g."""
        return self.mul(self.mul(self._inverses[g], a), g)

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a⁻¹ b⁻¹ a b."""
        return self.mul(self.mul(self.mul(self._inverses[a], self._inverses[b]), a), b)

    def element_order(self, a: int) -> int:
        """The lcm of the cycle lengths of the base points: a**k is the
        identity exactly when it fixes every base point."""
        order = self._orders[a]
        if order == 0:
            perm = self.elements[a]
            order = 1
            for pt in self.base:
                length, x = 1, perm[pt]
                while x != pt:
                    length, x = length + 1, perm[x]
                order = math.lcm(order, length)
            self._orders[a] = order
        return order

    def exponent_of(self, elems: Iterable[int]) -> int:
        """Least e with x^e = identity for every x in elems (lcm of orders)."""
        return math.lcm(*map(self.element_order, elems))

    def exponent(self) -> int:
        return self.whole_subgroup().exponent()

    def _key(self, perm: Perm) -> int:
        """The images of the base points under perm, as digits in radix degree."""
        key = 0
        for pt in reversed(self.base):
            key = key * self.degree + perm[pt]
        return key

    def element_index(self, perm: Perm) -> int:
        """Index of a member permutation; KeyError for anything else, also for a
        permutation that agrees with a member on the base only."""
        perm = tuple(perm)
        try:
            i = self._key_index[self._key(perm)]
        except (IndexError, KeyError):
            i = -1
        if i < 0 or self.elements[i] != perm:
            raise KeyError(perm)
        return i

    def __contains__(self, perm: Perm) -> bool:
        try:
            return self.element_index(perm) >= 0
        except KeyError:
            return False

    def evaluate_word(self, word: Iterable[int]) -> int:
        """Evaluate a signed 1-based generator word to an element index."""
        out = 0
        for k in word:
            if k == 0 or abs(k) > len(self.generator_indices):
                raise ValueError(f"word entry {k} does not name a generator")
            g = self.generator_indices[abs(k) - 1]
            out = self.mul(out, g if k > 0 else self._inverses[g])
        return out

    # subgroup handles

    def whole_subgroup(self) -> "Subgroup":
        if self._whole is None:
            self._whole = Subgroup(self, range(self.order), self.generator_indices)
        return self._whole

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,), ())

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteGroup(degree={self.degree}, order={self.order})"


class Subgroup:
    """Subgroup of an enumerated group, stored as a sorted member-index set.

    ``gens`` is a generating set discovered during closure; series and
    commutator routines iterate over it, so it stays small even when the
    member set is large.
    """

    __slots__ = ("parent", "members", "member_set", "gens", "_exponent")

    def __init__(self, parent: FiniteGroup, members: Iterable[int], gens: Iterable[int]):
        self.parent = parent
        self.members = tuple(sorted(members))
        self.member_set = frozenset(self.members)
        self.gens = tuple(gens)
        self._exponent = 0
        if not self.members or self.members[0] != 0:
            raise ValueError("a subgroup must contain the identity (index 0)")

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def is_trivial(self) -> bool:
        return len(self.members) == 1

    @property
    def is_whole(self) -> bool:
        return len(self.members) == self.parent.order

    def __contains__(self, x: int) -> bool:
        return x in self.member_set

    def __le__(self, other: "Subgroup") -> bool:
        return self.member_set <= other.member_set

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.parent is other.parent
                and self.member_set == other.member_set)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.member_set))

    def exponent(self) -> int:
        if self._exponent == 0:
            self._exponent = self.parent.exponent_of(self.members)
        return self._exponent

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.order})"


def generate_group(degree: int, generators: Sequence[Sequence[int]],
                   cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Enumerate the group generated by permutations of {0..degree-1}.

    Breadth-first closure: layer by layer, generators tried in index order,
    so the element order is deterministic. Raises CapExceeded when the
    closure would grow past ``cap`` elements.
    """
    if cap < 1:
        raise CapExceeded(f"cap={cap} leaves no room for the identity")
    gens = [validate_permutation(g, degree) for g in generators]
    identity = tuple(range(degree))
    elements: list[Perm] = [identity]
    index: dict[Perm, int] = {identity: 0}
    words: list[tuple] = [()]
    parents: list[tuple] = [(-1, -1)]
    frontier = [0]
    while frontier:
        nxt = []
        for ei in frontier:
            base = elements[ei]
            for gi, g in enumerate(gens):
                img = compose(base, g)
                if img not in index:
                    if len(elements) >= cap:
                        raise CapExceeded(
                            f"closure exceeded cap={cap} (degree {degree}, {len(gens)} generators)")
                    index[img] = len(elements)
                    elements.append(img)
                    words.append(words[ei] + (gi + 1,))
                    parents.append((ei, gi))
                    nxt.append(index[img])
        frontier = nxt
    del index
    return FiniteGroup(degree, gens, elements, words, parents)


def subgroup_generated(G: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the seed elements.

    Seeds are scanned in index order and only the ones that enlarge the
    current closure are kept as generators, which keeps ``gens`` short. Each
    kept seed extends the closure incrementally: old members times the new
    generator feed a worklist that is then closed under all generators.
    """
    gens: list[int] = []
    members: set[int] = {0}
    for s in sorted(set(seeds)):
        if not 0 <= s < G.order:
            raise ValueError(f"seed {s} is not an element index")
        if s in members:
            continue
        gens.append(s)
        queue = []
        for m in list(members):
            y = G.mul(m, s)
            if y not in members:
                members.add(y)
                queue.append(y)
        while queue:
            x = queue.pop()
            for g in gens:
                y = G.mul(x, g)
                if y not in members:
                    members.add(y)
                    queue.append(y)
    return Subgroup(G, members, gens)


def commutator_subgroup_pair(G: FiniteGroup, H: Subgroup, K: Subgroup) -> Subgroup:
    """Subgroup generated by all commutators [h, k], h in H, k in K.

    Computed as the normal closure, inside <H, K>, of the commutators of the
    stored generating sets; this equals the all-pairs generation but costs
    O(result * generators) instead of O(|H| * |K|).
    """
    seeds = {G.commutator(h, k) for h in H.gens for k in K.gens}
    join_gens = tuple(dict.fromkeys(H.gens + K.gens))
    current = subgroup_generated(G, seeds)
    while True:
        extra = set()
        for t in current.gens:
            for g in join_gens:
                c = G.conjugate(t, g)
                if c not in current.member_set:
                    extra.add(c)
        if not extra:
            return current
        current = subgroup_generated(G, set(current.gens) | extra)


def are_conjugate(G: FiniteGroup, x: int, y: int) -> Optional[int]:
    """Least c with c⁻¹ x c = y, or None if x and y are not conjugate."""
    for c in range(G.order):
        if G.conjugate(x, c) == y:
            return c
    return None


def centralizer(G: FiniteGroup, elems: Iterable[int]) -> Subgroup:
    """All g commuting with every element of ``elems`` (O(|G|*|S|) scan)."""
    targets = sorted(set(elems))
    members = [g for g in range(G.order)
               if all(G.mul(g, s) == G.mul(s, g) for s in targets)]
    return subgroup_generated(G, members)


def center(G: FiniteGroup) -> Subgroup:
    """Centralizer of the generators, which equals the center."""
    return centralizer(G, G.generator_indices)


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    members = [g for g in range(G.order)
               if all(G.conjugate(t, g) in H.member_set for t in H.gens)]
    if len(members) == G.order:
        return G.whole_subgroup()
    return subgroup_generated(G, members)


def normality_witness(G: FiniteGroup, gens: Iterable[int], members) -> Optional[tuple]:
    """The first (t, g), g a generator of G and t in ``gens``, with t^g outside
    ``members``; None when conjugation by G keeps the generated subgroup inside."""
    for g in G.generator_indices:
        for t in gens:
            if G.conjugate(t, g) not in members:
                return t, g
    return None


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    return normality_witness(G, H.gens, H.member_set) is None


def product_of_subgroups(G: FiniteGroup, subs: Sequence[Subgroup]) -> Subgroup:
    """Join <H_1, ..., H_n>; equals the setwise product when all are normal."""
    seeds: set[int] = set()
    for H in subs:
        seeds.update(H.gens)
    return subgroup_generated(G, seeds)


def subgroup_as_group(G: FiniteGroup, H: Subgroup):
    """Re-enumerate a subgroup as a standalone FiniteGroup.

    Returns (group, to_parent, from_parent) where to_parent[i] is the parent
    index of the standalone element i.
    """
    gen_perms = [G.elements[i] for i in H.gens]
    Hg = generate_group(G.degree, gen_perms, cap=H.order)
    if Hg.order != H.order:
        raise AssertionError("subgroup re-enumeration produced a different order")
    to_parent = tuple(G.element_index(p) for p in Hg.elements)
    from_parent = {pi: i for i, pi in enumerate(to_parent)}
    return Hg, to_parent, from_parent


class QuotientGroup:
    """Quotient G/N realized as permutations of coset indices.

    ``quotient`` is the coset-permutation group itself and ``to_quotient``
    maps a parent element to its image's element index there.
    """

    def __init__(self, parent, kernel, quotient, to_quotient):
        self.parent = parent
        self.kernel = kernel
        self.quotient = quotient
        self.to_quotient = to_quotient

    def __repr__(self) -> str:
        return f"QuotientGroup(order={self.quotient.order})"


def quotient_group(G: FiniteGroup, N: Subgroup) -> QuotientGroup:
    """Quotient by a normal subgroup; raises NotNormal otherwise."""
    witness = normality_witness(G, N.gens, N.member_set)
    if witness is not None:
        raise NotNormal(f"subgroup of order {N.order} is not normal "
                        f"(generator witness {witness[0]}^{witness[1]})")
    coset_index = [-1] * G.order
    reps: list[int] = []
    for x in range(G.order):
        if coset_index[x] >= 0:
            continue
        ci = len(reps)
        reps.append(x)
        for m in N.members:
            coset_index[G.mul(x, m)] = ci
    num = len(reps)
    qgens = [tuple(coset_index[G.mul(g, reps[j])] for j in range(num))
             for g in G.generator_indices]
    quotient = generate_group(num, qgens, cap=max(num, 1))
    if quotient.order * N.order != G.order:
        raise AssertionError("coset action has the wrong order; kernel is not normal")
    qgen_elem = [quotient.element_index(tuple(q)) for q in qgens]
    to_q = [0] * G.order
    for y in range(1, G.order):
        px, gi = G._parents[y]
        to_q[y] = quotient.mul(to_q[px], qgen_elem[gi])
    return QuotientGroup(G, N, quotient, tuple(to_q))
