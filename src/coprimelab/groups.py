"""Permutation-based finite group engine: enumeration, subgroups, quotients.

Every group is fully enumerated. Elements are permutations of {0..degree-1};
element 0 is always the identity. Enumeration is breadth-first from the
generators with a fixed generator order, so element indices, factorization
words and every downstream report are reproducible.

At degree <= 256 each element is stored as ``bytes``, one byte per image
(degree + 33 bytes against 8 * degree + 56 for a tuple), and enumeration
composes with ``bytes.translate``, a byte-to-byte map done in C. Larger
degrees store tuples and compose with ``operator.itemgetter``, also in C.
The store stays private: ``G.elements`` hands out tuples either way.
Factorization words are not stored either: ``G.word(e)`` walks up the
enumeration tree from e and spells the word enumeration found.

Enumeration keeps the Cayley graph it walks: ``G._right[i][x]`` is the index
of x times generator i, so ``G._right[i][0]`` is the index of generator i and
no permutation is looked up. ``G.extend_images(columns, start)`` walks the
tree over such columns with no ``mul`` call. Over ``G._right`` from s it gives
s * x for every x, and x * t = (t⁻¹ x⁻¹)⁻¹ gives the right-multiplication
column of any t (``right_column``). ``Automorphism(G, images)`` builds its
table and checks the homomorphism law that way, as do quotient projections,
the centre's membership test and the conjugacy search.

Elements are keyed by their images on a base, a short list of points whose
images determine an element (Sims; Seress, *Permutation Group Algorithms*,
ch. 4). ``mul`` composes on the base points only, so it costs O(len(base))
lookups instead of a degree-n tuple. ``products`` applies the same rule to
a whole batch of pairs in one comprehension; closures add whole cosets
(``subgroup_generated``) and cosets are labelled (``coset_labels``) in such
batches.

Composition convention: ``mul(a, b)`` is the map "apply b, then a", i.e.
ordinary function composition a∘b. Conjugation is ``x^g = g⁻¹ x g``.

Groups and subgroups are immutable after construction and safe to share
between threads or worker processes; the few lazily cached values are
published by single attribute assignment.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Sequence
from itertools import compress, count, islice, repeat
from operator import itemgetter
from typing import Iterable, Optional

from .errors import CapExceeded, InvalidPermutation, NotBijective, NotHomomorphism, NotNormal

DEFAULT_CAP = 200_000
# The highest degree whose elements are stored as bytes.
BYTES_MAX_DEGREE = 256

Perm = tuple


def element_bytes(degree: int) -> int:
    """About how many bytes one stored element of this degree takes."""
    return degree + 33 if degree <= BYTES_MAX_DEGREE else 8 * degree + 56


def column_bytes(generators: int) -> int:
    """About how many bytes per element the Cayley columns that enumeration
    keeps take: one list slot per generator."""
    return 8 * generators


def degree_bytes(degree: int) -> int:
    """About how many bytes enumeration on this many points touches besides
    its element store. Above BYTES_MAX_DEGREE, the identity holds one int
    object per point (28 bytes, shared by every element), and checking a
    generator sorts a copy of its images against a fresh list of the points
    (about 52 bytes per point); at lower degrees the points are bytes."""
    return 80 * degree if degree > BYTES_MAX_DEGREE else 0


def find_base(degree: int, elements: Sequence) -> tuple:
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


class _Elements(Sequence):
    """Read-only view of an element store that hands out tuples."""

    __slots__ = ("_store", "_encode")

    def __init__(self, store: list, encode):
        self._store = store
        self._encode = encode

    def __len__(self) -> int:
        return len(self._store)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [tuple(perm) for perm in self._store[i]]
        return tuple(self._store[i])

    def __iter__(self):
        return map(tuple, self._store)

    def index(self, perm) -> int:
        """Position of ``perm`` by a scan of the store; ValueError if absent."""
        try:
            return self._store.index(self._encode(tuple(perm)))
        except (TypeError, ValueError):
            raise ValueError(f"{perm!r} is not an element") from None

    def __eq__(self, other) -> bool:
        return list(self) == (list(other) if isinstance(other, _Elements) else other)

    __hash__ = None


class FiniteGroup:
    """Fully enumerated permutation group with 0-based element indices.

    ``_store[e]`` is element e as ``bytes`` at degree <= BYTES_MAX_DEGREE and
    as a tuple above; ``elements`` is the tuple view of it. The enumeration
    tree is two flat columns: e = ``_tree_parent[e]`` * generator
    ``_tree_gen[e]``; ``word`` reads factorizations off it. ``_right[i][x]``
    is the index of x * generator i for every element x: the Cayley graph
    that enumeration walks, kept, whose first entries are the
    ``generator_indices``. ``extend_images`` walks the tree over such
    columns, so automorphism tables, quotient projections and the centre's
    membership test need no ``mul`` call.
    ``_base_images[i][e]`` is the image of ``base[i]`` under element e, and
    ``_key_index`` maps an element's key (its base images, digits in radix
    degree) to its index: a list with -1 at unused keys when
    degree**len(base) <= 4*order, else a dict.
    ``_orders`` and ``_inverses`` are the tables ``_power_walk`` builds;
    ``power_map(m)`` keeps x**m for every x in ``cache``, as an ``array``.
    """

    def __init__(self, degree: int, generators: Sequence[Perm], store: list,
                 tree: tuple, right: list):
        self.degree = degree
        self.generators = tuple(generators)
        self._store = store
        encode = bytes if degree <= BYTES_MAX_DEGREE else tuple
        self.elements = _Elements(store, encode)
        self.order = len(store)
        self._tree_parent, self._tree_gen = tree
        self._right = right
        self.generator_indices = tuple(column[0] for column in right)
        self.base = find_base(degree, store)
        # in the store's encoding: bytes at degree <= BYTES_MAX_DEGREE, else tuples
        self._base_images = tuple(encode(map(itemgetter(pt), store)) for pt in self.base)
        # every element's key, from its base images as digits in radix degree
        keys = repeat(0, self.order)
        for column in reversed(self._base_images):
            keys = map(operator.add, map(operator.mul, keys, repeat(degree)), column)
        if degree ** len(self.base) <= 4 * self.order:
            self._key_index = [-1] * degree ** len(self.base)
            for key, i in zip(keys, self._indices()):
                self._key_index[key] = i
        else:
            self._key_index = dict(zip(keys, self._indices()))
        self._orders, self._inverses = self._power_walk()
        self._exponent = 0
        self._whole: Optional[Subgroup] = None
        self.cache: dict = {}

    # arithmetic on element indices

    def mul(self, a: int, b: int) -> int:
        """a*b from the images of the base points under a∘b: O(len(base))."""
        perm = self._store[a]
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

    def products(self, xs: Iterable[int], ys: Iterable[int]) -> list:
        """[x*y for x, y in zip(xs, ys)] by ``mul``'s rule, composed inline over
        the whole batch: no method call per pair, at any base length."""
        store, key_index, degree = self._store, self._key_index, self.degree
        images = self._base_images
        perms = map(store.__getitem__, xs)
        if len(images) == 1:
            (column,) = images
            return [key_index[perm[column[y]]] for perm, y in zip(perms, ys)]
        if len(images) == 2:
            low, high = images
            return [key_index[perm[low[y]] + degree * perm[high[y]]]
                    for perm, y in zip(perms, ys)]
        pairs = list(zip(perms, ys))
        keys = [0] * len(pairs)
        for column in reversed(images):
            keys = [key * degree + perm[column[y]] for key, (perm, y) in zip(keys, pairs)]
        return list(map(key_index.__getitem__, keys))

    def _indices(self) -> list:
        """[0, 1, ..., order - 1] as the int objects that enumeration made and
        the Cayley columns hold: element y is _right[gi][x] for its tree edge
        y = x * generator gi. Tables built from them hold no second copy."""
        return [0, *map(list.__getitem__, map(self._right.__getitem__, self._tree_gen[1:]),
                        self._tree_parent[1:])]

    def _cycle(self, a: int) -> list:
        """[0, a, a^2, ..., a^(o-1)] (0 is the identity) for a nonidentity a of
        order o, by one walk x -> x*a that composes on the base images of a,
        as ``mul`` does, inline."""
        store, key_index, degree = self._store, self._key_index, self.degree
        points = [column[a] for column in reversed(self._base_images)]
        powers = [0, a]
        x = a
        while True:
            perm = store[x]
            key = 0
            for pt in points:
                key = key * degree + perm[pt]
            x = key_index[key]
            if not x:
                return powers
            powers.append(x)

    def _power_walk(self) -> tuple:
        """Order and inverse tables from one ``_cycle`` walk for each element a
        whose order is still unknown: with o the order of a, its power a^k has
        order o/gcd(k, o) and inverse a^(o-k)."""
        orders, inverses = [0] * self.order, [0] * self.order
        orders[0] = 1
        power_orders: dict = {}
        # enumeration tends to reach the largest orders last, whose walks cover the rest
        for a in range(self.order - 1, 0, -1):
            if orders[a]:
                continue
            powers = self._cycle(a)
            o = len(powers)
            ratios = power_orders.get(o)
            if ratios is None:
                ratios = power_orders[o] = [o // math.gcd(k, o) for k in range(o)]
            for k in range(1, o):
                orders[powers[k]] = ratios[k]
                inverses[powers[k]] = powers[o - k]
        return orders, inverses

    def extend_images(self, columns: Sequence[Sequence[int]], start: int = 0) -> list:
        """out[0] = start and out[y] = columns[gi][out[x]] along every edge
        y = x * generator gi of the enumeration tree. Over ``_right`` this is
        out[x] = start * x; over the right-multiplication columns of generator
        images (``right_column``) it is the homomorphism with those images,
        where one exists, times ``start``."""
        out = [start]
        append = out.append
        for x, gi in islice(zip(self._tree_parent, self._tree_gen), 1, None):
            append(columns[gi][out[x]])
        return out

    def right_column(self, t: int) -> Sequence[int]:
        """[x * t for every element x]: ``_right`` for a generator, else
        x * t = (t⁻¹ * x⁻¹)⁻¹, one walk from t⁻¹ and two gathers through the
        inverse table."""
        if t in self.generator_indices:
            return self._right[self.generator_indices.index(t)]
        inv = self._inverses
        left = self.extend_images(self._right, inv[t])
        return list(map(inv.__getitem__, map(left.__getitem__, inv)))

    def power_map(self, m: int) -> array:
        """[x**m for every element x], built once per m and kept in ``cache``.
        An element whose order divides m goes to the identity; the rest are
        covered by one ``_cycle`` walk per cyclic subgroup, a^k -> a^(k*m mod o)."""
        table = self.cache.get(("power", m))
        if table is None:
            table = array("i", bytes(4 * self.order))
            done = bytearray(m % o == 0 for o in self._orders)
            for a in range(self.order - 1, 0, -1):
                if done[a]:
                    continue
                powers = self._cycle(a)
                o = len(powers)
                for k in range(1, o):
                    table[powers[k]] = powers[k * m % o]
                    done[powers[k]] = 1
            self.cache[("power", m)] = table
        return table

    def inv(self, a: int) -> int:
        return self._inverses[a]

    def conjugate(self, a: int, g: int) -> int:
        """x^g = g⁻¹ x g."""
        return self.mul(self.mul(self._inverses[g], a), g)

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a⁻¹ b⁻¹ a b."""
        return self.mul(self.mul(self.mul(self._inverses[a], self._inverses[b]), a), b)

    def element_order(self, a: int) -> int:
        return self._orders[a]

    def exponent_of(self, elems: Iterable[int]) -> int:
        """Least e with x^e = identity for every x in elems (lcm of orders)."""
        return math.lcm(*map(self._orders.__getitem__, elems))

    def exponent(self) -> int:
        if self._exponent == 0:
            self._exponent = self.exponent_of(range(self.order))
        return self._exponent

    def word(self, e: int) -> tuple:
        """Element e spelled over the generators along the enumeration tree:
        entry k means generator k-1. IndexError outside range(order)."""
        if not 0 <= e < self.order:
            raise IndexError(f"element index {e} out of range")
        word = []
        while e:
            word.append(self._tree_gen[e] + 1)
            e = self._tree_parent[e]
        return tuple(reversed(word))

    def evaluate_word(self, word: Iterable[int]) -> int:
        """Evaluate a signed 1-based generator word to an element index."""
        out = 0
        for k in word:
            if type(k) is not int or k == 0 or abs(k) > len(self.generator_indices):
                raise ValueError(f"word entry {k!r} does not name a generator")
            g = self.generator_indices[abs(k) - 1]
            out = self.mul(out, g if k > 0 else self._inverses[g])
        return out

    # subgroup handles

    def whole_subgroup(self) -> "Subgroup":
        """G as a subgroup of itself: one handle per group, made on first request."""
        if self._whole is None:
            self._whole = Subgroup(self._indices(), self.generator_indices)
        return self._whole

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup((0,), ())


class Subgroup:
    """Subgroup of an enumerated group, stored as a sorted member-index tuple.

    It holds no reference to its group: every function that reads a subgroup
    is passed the group too, and a group's caches keep subgroups with no
    cycle. Two subgroups are equal when their sorted member tuples are, so
    compare only subgroups of one group. ``gens`` is a generating set
    discovered during closure; series and commutator routines iterate over
    it, so it stays small even when the member set is large. ``member_set``, the
    frozenset of the members, is built on its first read and kept in its
    slot: the whole group of a large instance is often never asked for it.
    """

    __slots__ = ("members", "member_set", "gens")

    def __init__(self, members: Iterable[int], gens: Iterable[int]):
        self.members = tuple(sorted(members))
        self.gens = tuple(gens)
        if not self.members or self.members[0] != 0:
            raise ValueError("a subgroup must contain the identity (index 0)")

    def __getattr__(self, name: str):
        # called only for a slot that is unset: member_set before its first read
        if name != "member_set":
            raise AttributeError(f"'Subgroup' object has no attribute {name!r}")
        self.member_set = frozenset(self.members)
        return self.member_set

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def is_trivial(self) -> bool:
        return len(self.members) == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.member_set)


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
    if degree <= BYTES_MAX_DEGREE:
        # g.translate(base + pad) sends each image g[x] to base[g[x]], which is
        # base∘g; the pad fills out the 256-entry table that translate reads.
        pad = bytes(256 - degree)
        letters = [bytes(g).translate for g in gens]
        identity = bytes(range(degree))
    else:
        # itemgetter(*g)(base) is the tuple base∘g
        pad = None
        letters = [itemgetter(*g) for g in gens]
        identity = tuple(range(degree))
    store: list = [identity]
    index: dict = {identity: 0}
    get = index.get
    parent, gen = array("i", [-1]), array("i", [-1])
    right: list = [[] for _ in gens]
    steps = [(gi, letters[gi], right[gi].append) for gi in range(len(gens))]
    # the store is the breadth-first queue: elements are expanded in index
    # order, so each right[gi] grows by one entry per element in that order
    for ei, base in enumerate(store):
        table = base if pad is None else base + pad
        for gi, compose, append in steps:
            img = compose(table)
            j = get(img)
            if j is None:
                if len(store) >= cap:
                    raise CapExceeded(
                        f"closure exceeded cap={cap} (degree {degree}, {len(gens)} generators)")
                j = index[img] = len(store)
                store.append(img)
                parent.append(ei)
                gen.append(gi)
            append(j)
    del index, get
    return FiniteGroup(degree, gens, store, (parent, gen), right)


def subgroup_generated(G: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the seed elements.

    Seeds are scanned in index order and only the ones that enlarge the
    current closure are kept as generators, which keeps ``gens`` short. Each
    kept seed closes by whole right cosets (Dimino's method; Butler,
    *Fundamental Algorithms for Permutation Groups*, LNCS 559). The first
    gives the cyclic group of its powers, one ``_cycle`` walk. Each later
    seed s extends the closure H built so far: every coset representative r,
    starting from the identity, is tried against every generator, and each
    r * g outside the closure adds its coset H * (r * g) in one batch. The
    union of the cosets is closed under right multiplication by the
    generators, so it is <H, s>.
    """
    gens: list[int] = []
    members: set[int] = {0}
    for s in sorted(set(seeds)):
        if not 0 <= s < G.order:
            raise ValueError(f"seed {s} is not an element index")
        if s in members:
            continue
        gens.append(s)
        if len(gens) == 1:
            members.update(G._cycle(s))
            continue
        old = list(members)
        reps = [0]
        for r in reps:
            for y in G.products(repeat(r), gens):
                if y not in members:
                    members.update(G.products(old, repeat(y)))
                    reps.append(y)
    return Subgroup(members, gens)


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
    """Least c with c⁻¹ x c = y, i.e. x * c = c * y, or None if x and y are
    not conjugate: x * c for every c from one walk from x, against c * y
    from y's ``right_column``."""
    agree = map(operator.eq, G.extend_images(G._right, x), G.right_column(y))
    return next(compress(count(), agree), None)


def centralizer(G: FiniteGroup, elems: Iterable[int]) -> Subgroup:
    """All g commuting with every element s of ``elems``: s * g for every g
    from one walk from s, against g * s from s's ``right_column``."""
    members = range(G.order)
    for s in sorted(set(elems)):
        left, right = G.extend_images(G._right, s), G.right_column(s)
        members = [g for g in members if left[g] == right[g]]
    return subgroup_generated(G, members)


def center(G: FiniteGroup) -> Subgroup:
    """Centralizer of the generators, which equals the center. Computed once
    per group and kept in ``G.cache``."""
    Z = G.cache.get("center")
    if Z is None:
        Z = G.cache["center"] = centralizer(G, G.generator_indices)
    return Z


class Automorphism:
    """The automorphism of an enumerated group that sends generator i to the
    element of index ``images[i]``: the one way to build an automorphism.

    ValueError, before any walk, unless ``images`` is a list or tuple of one
    int (not ``bool``) in range(|G|) per generator. The table is one tree walk
    over the right-multiplication columns of the images; the law
    table[x * g_i] = table[x] * images[i] is checked one generator column at a
    time, with no ``mul`` call. A map that breaks it is NotHomomorphism if
    bijective, else NotBijective; a homomorphism is bijective iff its kernel,
    counted in the table, is trivial. ``order_n`` is the lcm of the lengths of
    the generators' <phi>-orbits, which close on a bijection. The analysis in
    ``automorphisms`` keeps its twisted data in ``_twisted``.
    """

    def __init__(self, group: FiniteGroup, images: Sequence[int]):
        self.group = G = group
        if (not isinstance(images, (list, tuple)) or len(images) != len(G.generators)
                or any(type(s) is not int or not 0 <= s < G.order for s in images)):
            raise ValueError(f"expected one element index below {G.order} for each of the "
                             f"{len(G.generators)} generators, got {images!r}")
        columns = [G.right_column(s) for s in images]
        table = G.extend_images(columns)
        broken = []
        for gi, (right, column) in enumerate(zip(G._right, columns)):
            # the least x with table[x * g_i] != table[x] * images[i], if any
            x = next(compress(count(), map(operator.ne, map(table.__getitem__, right),
                                           map(column.__getitem__, table))), None)
            if x is not None:
                broken.append((x, gi))
        if broken and len(set(table)) == G.order:
            x, gi = min(broken)
            raise NotHomomorphism(f"map breaks at element {x} times generator {gi}",
                                  witness=(x, G.generator_indices[gi]))
        if broken or table.count(0) != 1:
            raise NotBijective("generator images do not induce a bijection")
        self.table = tuple(table)
        self.order_n = math.lcm(*(len(self.orbit(g)) for g in G.generator_indices))
        self._twisted = None

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


def build_automorphism(G: FiniteGroup, gen_images: Sequence[Sequence[int]]) -> Automorphism:
    """The automorphism whose generator images are these words, lists of
    signed 1-based generator numbers (see ``evaluate_word``)."""
    if not isinstance(gen_images, (list, tuple)) or not all(
            isinstance(w, (list, tuple)) for w in gen_images):
        raise ValueError(f"expected a list of image words, got {gen_images!r}")
    return Automorphism(G, [G.evaluate_word(w) for w in gen_images])


def normality_witness(G: FiniteGroup, gens: Iterable[int], members) -> Optional[tuple]:
    """The first (t, g), g a generator of G and t in ``gens``, with t^g
    outside ``members``; None when the generated subgroup is normal."""
    for g in G.generator_indices:
        for t in gens:
            if G.conjugate(t, g) not in members:
                return t, g
    return None


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    return normality_witness(G, H.gens, H.member_set) is None


def normal_core(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """The core of H in G: the largest normal subgroup of G inside H.

    H itself when it is normal. Otherwise H is intersected with its
    conjugates by the generators of G until the set is stable or trivial.
    Every round is a subgroup containing the core, and the fixed point C has
    C^g = C for every generator g, so it is normal and is the core. Each
    round conjugates its members by every generator, x^g = g⁻¹ x g, in two
    batches of products.
    """
    if normality_witness(G, H.gens, H.member_set) is None:
        return H
    gens = G.generator_indices
    core = H.member_set
    while True:
        members = list(core)
        n = len(members)
        left = G.products([G._inverses[g] for g in gens for _ in range(n)], members * len(gens))
        conjugates = G.products(left, [g for g in gens for _ in range(n)])
        reduced = core.intersection(*(conjugates[k * n:(k + 1) * n] for k in range(len(gens))))
        if reduced == core or len(reduced) == 1:
            return subgroup_generated(G, reduced)
        core = reduced


def product_of_subgroups(G: FiniteGroup, subs: Sequence[Subgroup]) -> Subgroup:
    """Join <H_1, ..., H_n>; equals the setwise product when all are normal."""
    seeds: set[int] = set()
    for H in subs:
        seeds.update(H.gens)
    return subgroup_generated(G, seeds)


def coset_labels(G: FiniteGroup, N: Subgroup, within: Optional[Subgroup] = None) -> tuple:
    """(labels, reps) for the right cosets N * x of the members x of ``within``
    (all of G by default), which must contain N: ``reps[k]`` is the least
    element of coset k, cosets being numbered in the order of that element,
    and ``labels[x]`` is the number of the coset of x, or -1 for x outside
    ``within``. Each coset is one batch of |N| products, but a trivial N,
    for which a batch of one costs more than its product, gives each x a
    coset of its own. For a normal N, N * x is also the left coset x * N."""
    labels = [-1] * G.order
    reps: list[int] = []
    for x in (range(G.order) if within is None else within.members):
        if labels[x] < 0:
            k = len(reps)
            reps.append(x)
            for y in G.products(N.members, repeat(x)) if N.order > 1 else (x,):
                labels[y] = k
    return labels, reps


def quotient_group(G: FiniteGroup, N: Subgroup) -> FiniteGroup:
    """G/N as the permutations of the cosets of a normal subgroup N; raises
    NotNormal otherwise. Generator i of the quotient is the image of generator
    i of G, so ``G.extend_images(Q._right)`` is the projection onto Q."""
    witness = normality_witness(G, N.gens, N.member_set)
    if witness is not None:
        raise NotNormal(f"subgroup of order {N.order} is not normal "
                        f"(generator witness {witness[0]}^{witness[1]})")
    coset_index, reps = coset_labels(G, N)
    num = len(reps)
    qgens = [tuple(map(coset_index.__getitem__, G.products(repeat(g), reps)))
             for g in G.generator_indices]
    quotient = generate_group(num, qgens, cap=max(num, 1))
    if quotient.order * N.order != G.order:
        raise AssertionError("coset action has the wrong order; kernel is not normal")
    return quotient
