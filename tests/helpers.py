"""Independent oracles used to freeze expected values.

These deliberately avoid the library's closure and series code: closures are
done by repeated pairwise multiplication over whole member sets, orders by
repeated multiplication, so they stay independent of the paths they check.
"""

import importlib.util
import math
from functools import reduce
from pathlib import Path

from coprimelab.automorphisms import Automorphism, is_phi_invariant
from coprimelab.errors import NotInvariant
from coprimelab.groups import (FiniteGroup, Subgroup, commutator_subgroup_pair, generate_group,
                               quotient_group)
from coprimelab.numutil import factorization, prime_power_base


def load_workloads():
    """perfbench/workloads.py: the benchmark's group templates and specs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def identity_automorphism(G: FiniteGroup) -> Automorphism:
    return Automorphism(G, G.generator_indices)


def brute_closure(perms):
    """Close a set of permutations under composition by pairwise products."""
    elems = set(perms)
    if perms:
        elems.add(tuple(range(len(perms[0]))))
    while True:
        new = set()
        for a in elems:
            for b in elems:
                c = tuple_compose(a, b)
                if c not in elems:
                    new.add(c)
        if not new:
            return elems
        elems |= new


def brute_subgroup_members(G: FiniteGroup, seeds) -> frozenset:
    """Member indices of <seeds> by pairwise-product closure."""
    members = {0} | set(seeds)
    members |= {G.inv(x) for x in members}
    while True:
        new = set()
        for a in members:
            for b in members:
                c = G.mul(a, b)
                if c not in members:
                    new.add(c)
        if not new:
            return frozenset(members)
        members |= new


def brute_commutator_members(G: FiniteGroup, H, K) -> frozenset:
    """All-pairs commutator generation, the oracle for the normal-closure path."""
    seeds = {G.commutator(h, k) for h in H.members for k in K.members}
    return brute_subgroup_members(G, seeds)


def naive_element_order(G: FiniteGroup, x: int) -> int:
    k = 1
    y = x
    while y != 0:
        y = G.mul(y, x)
        k += 1
    return k


def brute_center(G: FiniteGroup) -> frozenset:
    """Elements that commute with every element, by all-pairs commutation."""
    return frozenset(z for z in range(G.order)
                     if all(G.mul(z, g) == G.mul(g, z) for g in range(G.order)))


def least_conjugators_by_scan(G: FiniteGroup, x: int) -> dict:
    """y -> least c with c⁻¹ x c = y, for every conjugate y of x: the full scan
    of c in index order with two ``mul`` calls per c, for all y at once."""
    least: dict = {}
    for c in range(G.order):
        least.setdefault(G.conjugate(x, c), c)
    return least


def mul_tree_walk(G: FiniteGroup, images, mul) -> list:
    """out[0] = 0 and out[y] = mul(out[x], images[gi]) along every enumeration
    tree edge y = x * generator gi: the walk that built automorphism tables and
    quotient projections before the Cayley columns were kept."""
    out = [0] * G.order
    for y in range(1, G.order):
        out[y] = mul(out[G._tree_parent[y]], images[G._tree_gen[y]])
    return out


def double_scan_outcome(G: FiniteGroup, images) -> tuple:
    """("table", table), ("NotBijective",) or ("NotHomomorphism", message,
    witness) for these generator images, by the ``mul`` tree walk and the scan
    of every x and then every generator i for table[x * g_i] != table[x] * images[i]."""
    table = mul_tree_walk(G, images, G.mul)
    if len(set(table)) != G.order:
        return ("NotBijective",)
    for x in range(G.order):
        for gi, s in enumerate(G.generator_indices):
            if table[G.mul(x, s)] != G.mul(table[x], images[gi]):
                return ("NotHomomorphism", f"map breaks at element {x} times generator {gi}",
                        (x, s))
    return ("table", tuple(table))


def brute_core(G: FiniteGroup, H) -> frozenset:
    """The core of H in G as the intersection of all conjugates H^g, g in G.
    H^(zg) = H^g for z in H, so one g from each coset Hg meets every conjugate."""
    core = set(H.members)
    covered = set()
    for g in range(G.order):
        if g not in covered:
            covered.update(G.mul(z, g) for z in H.members)
            core &= {G.conjugate(m, g) for m in H.members}
    return frozenset(core)


def series_orders_by_set(G: FiniteGroup, H, kind: str) -> tuple:
    """Orders of the derived ("derived") or lower central ("lower-central")
    series of H, stopped when a term's member set equals the one before it or
    is trivial: the stop test by sets, where ``structure`` compares orders."""
    orders = [len(H.members)]
    cur = H
    while len(cur.members) > 1:
        nxt = commutator_subgroup_pair(G, cur, cur if kind == "derived" else H)
        if frozenset(nxt.members) == frozenset(cur.members):
            break
        orders.append(len(nxt.members))
        cur = nxt
    return tuple(orders)


def scan_inverses(G: FiniteGroup) -> list:
    """inverses[x] by looking up the inverse permutation in a scan of the elements."""
    index = {perm: i for i, perm in enumerate(G.elements)}
    return [index[tuple_inverse(perm)] for perm in G.elements]


def naive_exponent(G: FiniteGroup) -> int:
    e = 1
    for x in range(G.order):
        e = math.lcm(e, naive_element_order(G, x))
    return e


def brute_power_members(G: FiniteGroup, m: int) -> frozenset:
    return brute_subgroup_members(G, tuple_powers(G, m))


_QUAT_MUL = {
    ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


def quaternion_group() -> FiniteGroup:
    """Q8 as left-multiplication permutations of its eight units."""
    units = [(1, "1"), (-1, "1"), (1, "i"), (-1, "i"),
             (1, "j"), (-1, "j"), (1, "k"), (-1, "k")]
    index = {u: t for t, u in enumerate(units)}

    def mul(u, v):
        su, au = u
        sv, av = v
        if au == "1":
            return (su * sv, av)
        if av == "1":
            return (su * sv, au)
        sg, ax = _QUAT_MUL[(au, av)]
        return (su * sv * sg, ax)

    def perm(g):
        return tuple(index[mul(g, x)] for x in units)

    G = generate_group(8, [perm((1, "i")), perm((1, "j"))])
    assert G.order == 8
    return G


def regular_heisenberg(p: int) -> FiniteGroup:
    """heisenberg(p) acting on its own p^3 elements (a, b, c) by left
    multiplication, generated by (1, 0, 0) and (0, 1, 0): the construction
    the corpus uses for heisenberg(p) up to degree 256, here at any p, and
    the oracle for its action on p^2 points above that degree."""
    elems = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(u, v):
        return (u[0] + v[0]) % p, (u[1] + v[1]) % p, (u[2] + v[2] + u[0] * v[1]) % p

    def left(g):
        return tuple(index[mul(g, x)] for x in elems)

    return generate_group(p ** 3, [left((1, 0, 0)), left((0, 1, 0))], cap=p ** 3)


def generated_members(G: FiniteGroup, seeds) -> frozenset:
    """Member indices of <seeds> by breadth-first right multiplication."""
    members = {0}
    queue = [0]
    for x in queue:
        for s in seeds:
            y = G.mul(x, s)
            if y not in members:
                members.add(y)
                queue.append(y)
    return frozenset(members)


def unreduced_theorem1(phi) -> dict:
    """The theorem 1 probe with one invariant closure per phi-orbit of seeds.

    No stop at exp([G, phi]) and no library closure or twisted-set code: the
    oracle for ``report.theorem1_probe``.
    """
    G = phi.group
    seeds = {x for x in range(G.order) if phi.table[x] == x}
    seeds |= {G.mul(G.inv(x), phi.table[x]) for x in range(G.order)}
    closed = set()
    e_star = 1
    for x in sorted(seeds):
        orbit = {x}
        y = phi.table[x]
        while y != x:
            orbit.add(y)
            y = phi.table[y]
        orbit = frozenset(orbit)
        if orbit in closed:
            continue
        closed.add(orbit)
        members = generated_members(G, orbit)
        e_star = max(e_star, reduce(math.lcm, (G.element_order(m) for m in members)))
    return {"e_star": e_star}


# Corpus specs of the named families, as the corpus file writes them.
def cyclic_spec(m: int) -> dict:
    return {"name": "cyclic", "params": {"m": m}}


def heisenberg_spec(p: int) -> dict:
    return {"name": "heisenberg", "params": {"p": p}}


def modular_spec(p: int) -> dict:
    return {"name": "modular", "params": {"p": p}}


def product_spec(*factors) -> dict:
    return {"name": "direct_product", "params": {"factors": list(factors)}}


def _c2_power(images) -> dict:
    """C2^k for k = len(images), with phi mapping generator i to the product
    of the generators listed in images[i - 1]."""
    return {"name": "direct_product",
            "params": {"factors": [{"name": "cyclic", "params": {"m": 2}}] * len(images)},
            "automorphism": {"images": images}}


# phi is the block sum of the companion matrices of x^3 + x + 1 and
# x^7 + x + 1, of order 889 = 7 * 127: its roots of unity need GF(2^21), the
# largest field that ``gf.MAX_DEGREE`` allows.
C2_10_ORDER_889 = _c2_power([[2], [3], [1, 2], [5], [6], [7], [8], [9], [10], [4, 5]])
# Companions of x^2 + x + 1 and x^11 + x^2 + 1, of order 6141 = 3 * 23 * 89:
# its roots of unity need GF(2^22).
C2_13_ORDER_6141 = _c2_power([[2], [1, 2], *([k] for k in range(4, 14)), [3, 5]])


def unitriangular_spec(p: int, n: int, images=None) -> dict:
    """A raw spec of UT_n(p), the upper unitriangular n x n matrices over F_p,
    acting on the p^(n-1) column vectors (x_1, ..., x_(n-1), 1), the point
    sum of x_i p^(i-1). Generator i is the elementary matrix 1 + E_(i,i+1),
    which adds x_(i+1) (1 for i = n - 1) to x_i. ``images``, when given, are
    phi's generator images as words."""
    vectors = [tuple((point // p ** i) % p for i in range(n - 1)) for point in range(p ** (n - 1))]
    generators = []
    for i in range(n - 1):
        perm = []
        for x in vectors:
            y = list(x)
            y[i] = (x[i] + (x[i + 1] if i + 1 < n - 1 else 1)) % p
            perm.append(sum(c * p ** k for k, c in enumerate(y)))
        generators.append(perm)
    spec = {"degree": p ** (n - 1), "generators": generators}
    if images is not None:
        spec["automorphism"] = {"images": images}
    return spec


def wreath_spec(p: int, k: int) -> dict:
    """A raw spec of the subgroup <t, f> of C_p wr C_p of order p^(k + 1), for
    1 <= k <= p, on the p^2 points (b, o), numbered p b + o: t moves the
    blocks, (b, o) -> (b + 1, o), and f shifts block b by the coefficient of
    x^b in (x - 1)^(p - k), so that its conjugates by t span the submodule
    (x - 1)^(p - k) F_p[x]/(x^p - 1) of the base group. For k = p that is
    C_p wr C_p itself, and every k gives maximal class. phi is conjugation
    by the point map (b, o) -> (-b, -o), which normalizes the subgroup, with
    its generator images as words read off ``tuple_enumeration``."""
    coeffs = [math.comb(p - k, b) * (-1) ** (p - k - b) % p if b <= p - k else 0
              for b in range(p)]
    points = [(b, o) for b in range(p) for o in range(p)]
    t = tuple(p * ((b + 1) % p) + o for b, o in points)
    f = tuple(p * b + (o + coeffs[b]) % p for b, o in points)
    flip = tuple(p * (-b % p) + (-o % p) for b, o in points)
    elements, words = tuple_enumeration(p * p, [t, f])
    index = dict(zip(elements, words))
    images = [list(index[tuple_compose(flip, tuple_compose(g, flip))]) for g in (t, f)]
    return {"degree": p * p, "generators": [list(t), list(f)],
            "automorphism": {"images": images}}


def algebra_class(A) -> int:
    """Nilpotency class of the whole graded algebra A: how many times the
    units of every layer are bracketed by all of them, with ``A.bracket``,
    before every bracket vanishes."""
    from coprimelab.linalg import rref
    X, steps = A.units, 0
    while any(X):
        out = [[] for _ in A.units]
        for i, xs in enumerate(X, start=1):
            for j, units in enumerate(A.units, start=1):
                for u in xs:
                    for v in units:
                        w = A.bracket(i, u, j, v)
                        if w is not None:
                            out[i + j - 1].append(w)
        X, steps = [rref(vecs, A.field) for vecs in out], steps + 1
    return steps


def per_element_lazard(A, x: int, xp: int) -> bool:
    """p-fold bracketing by the class of x equals bracketing by the class of
    xp = x^p, with the layer of x found by scanning the terms' member sets
    and both sides bracketed out for x alone, stopping at the first basis
    vector where they differ."""
    p = A.p
    if x == 0:
        return True
    i = max(k for k in range(1, A.num_layers + 1) if x in A.series.term(k).member_set)
    v = A.coords(i, x)
    ti = p * i
    w = None  # past the top: bracket returns None before it reads w
    if ti <= A.num_layers:
        if xp not in A.series.term(ti).member_set:
            return False
        w = A.coords(ti, xp)
    elif xp != 0:
        return False
    for j, units in enumerate(A.units, start=1):
        for unit in units:
            vec, layer_idx = unit, j
            for _ in range(p):
                vec = A.bracket(layer_idx, vec, i, v)
                if vec is None:
                    break
                layer_idx += i
            if vec != A.bracket(j, unit, ti, w):
                return False
    return True


def per_element_lazard_all(A):
    """The least element that fails ``per_element_lazard``, with x^p by
    ``tuple_powers``, or None: the oracle for ``lie.check_lazard_all``,
    which works once per (layer, coordinate vector) and reads x^p off
    ``G.power_map``."""
    powers = tuple_powers(A.group, A.p)
    return next((x for x in range(A.group.order) if not per_element_lazard(A, x, powers[x])),
                None)


# Plain tuple oracles for the base-image kernel: no library arithmetic, and
# element indices found by scanning the enumerated tuples.

def tuple_compose(a: tuple, b: tuple) -> tuple:
    """a∘b: apply b, then a."""
    return tuple(a[x] for x in b)


def tuple_inverse(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, img in enumerate(a):
        out[img] = i
    return tuple(out)


def tuple_order(a: tuple) -> int:
    identity = tuple(range(len(a)))
    k, y = 1, a
    while y != identity:
        y = tuple_compose(y, a)
        k += 1
    return k


def cycle_order(a: tuple) -> int:
    """The lcm of the cycle lengths of a permutation."""
    seen, order = set(), 1
    for start in range(len(a)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            length, x = length + 1, a[x]
        if length:
            order = math.lcm(order, length)
    return order


def tuple_power(a: tuple, k: int) -> tuple:
    """a^k for k >= 0 by square-and-multiply."""
    out = tuple(range(len(a)))
    while k:
        if k & 1:
            out = tuple_compose(out, a)
        k >>= 1
        if k:
            a = tuple_compose(a, a)
    return out


def tuple_powers(G: FiniteGroup, m: int) -> list:
    """[x^m for every element x], each by ``tuple_power`` and its index found
    in a dict of the enumerated tuples."""
    elements = list(G.elements)
    index = {perm: k for k, perm in enumerate(elements)}
    return [index[tuple_power(perm, m)] for perm in elements]


def scan_index(G: FiniteGroup, perm: tuple) -> int:
    return G.elements.index(perm)


def tuple_enumeration(degree: int, generators) -> tuple:
    """(elements, words) of the group the generators make, by breadth-first
    search on plain tuples with each word its parent's word plus one letter:
    the enumeration order ``generate_group`` promises, with nothing shared."""
    identity = tuple(range(degree))
    elements, words, seen = [identity], [()], {identity}
    frontier = [0]
    while frontier:
        layer = []
        for e in frontier:
            for k, g in enumerate(generators, start=1):
                img = tuple_compose(elements[e], g)
                if img not in seen:
                    seen.add(img)
                    layer.append(len(elements))
                    elements.append(img)
                    words.append(words[e] + (k,))
        frontier = layer
    return elements, words


class PolyField:
    """GF(p^k) on plain coefficient tuples (constant term first), to check the
    code arithmetic of ``coprimelab.gf``. Its modulus is the least monic
    polynomial of degree k, in base-p code order, that is no product of two
    monic polynomials of lower degree; inverses are found by search and powers
    by repeated multiplication."""

    def __init__(self, p: int, k: int):
        self.p, self.k, self.order = p, k, p ** k

        def monics(d):
            return [self.elem(c, d) + (1,) for c in range(p ** d)]
        reducible = {self._product(f, g) for d in range(1, k // 2 + 1)
                     for f in monics(d) for g in monics(k - d)}
        self.modulus = next(f for f in monics(k) if f not in reducible)

    def elem(self, code: int, k=None) -> tuple:
        """The coefficient tuple of an element code, read in base p."""
        return tuple(code // self.p ** i % self.p for i in range(self.k if k is None else k))

    def _product(self, a: tuple, b: tuple) -> tuple:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % self.p
        return tuple(out)

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a: tuple) -> tuple:
        return tuple(-x % self.p for x in a)

    def sub(self, a: tuple, b: tuple) -> tuple:
        return self.add(a, self.neg(b))

    def mul(self, a: tuple, b: tuple) -> tuple:
        out = list(self._product(a, b))
        for top in range(len(out) - 1, self.k - 1, -1):
            c = out[top]
            for i, m in enumerate(self.modulus):
                out[top - self.k + i] = (out[top - self.k + i] - c * m) % self.p
        return tuple(out[:self.k])

    def inv(self, a: tuple) -> tuple:
        one = self.elem(1)
        for code in range(1, self.order):
            if self.mul(a, self.elem(code)) == one:
                return self.elem(code)
        raise ZeroDivisionError("zero has no inverse")

    def pow(self, a: tuple, e: int) -> tuple:
        if e < 0:
            a, e = self.inv(a), -e
        out = self.elem(1)
        for _ in range(e):
            out = self.mul(out, a)
        return out


def per_element_decomposition_witness(phi):
    """The unique-decomposition witness found element by element: the first x
    for which ``nilpotent_decompose`` raises, or whose parts do not multiply
    back to x; the oracle for ``automorphisms.decomposition_witness``."""
    from coprimelab.automorphisms import nilpotent_decompose
    from coprimelab.errors import GroupTheoryError
    G = phi.group
    for x in range(G.order):
        try:
            g, h = nilpotent_decompose(phi, x)
        except GroupTheoryError as exc:
            return {"element": x, "error": str(exc)}
        if G.mul(g, h) != x:
            return {"element": x, "error": "product mismatch"}
    return None


def _all_twisted_pair_closures(phi):
    """The invariant closure of every pair i <= j of twisted elements, in order,
    with the twisted set computed here rather than by the library. Each
    distinct orbit-expanded seed set is closed once."""
    from coprimelab.automorphisms import phi_invariant_closure
    G = phi.group
    tw = sorted({G.mul(G.inv(x), phi.table[x]) for x in range(G.order)})
    orbit = {x: frozenset(phi.orbit(x)) for x in tw}
    closures = {}
    for i, x1 in enumerate(tw):
        for x2 in tw[i:]:
            seeds = orbit[x1] | orbit[x2]
            if seeds not in closures:
                closures[seeds] = phi_invariant_closure(phi, seeds)
            yield closures[seeds]


def all_pairs_fixed_generation_S(phi) -> dict:
    """``fixed_generation_S`` as the unreduced walk: every twisted pair, no
    early stop, and generation decided by breadth-first closure. The oracle for
    ``automorphisms.fixed_generation_S``."""
    G = phi.group
    fixed = frozenset(x for x in range(G.order) if phi.table[x] == x)
    S = {0}
    for K in _all_twisted_pair_closures(phi):
        S |= K.member_set & fixed
    return {"S_size": len(S), "generates": generated_members(G, S) == fixed}


def all_pairs_derived_length(phi):
    """The largest derived length over the invariant closures of every twisted
    pair, with no early stop; None when one of them is insoluble. The oracle
    for the full mode of ``report.theorem2_probe``."""
    from coprimelab.structure import derived_series
    lengths = {}
    for K in _all_twisted_pair_closures(phi):
        if K.member_set not in lengths:
            lengths[K.member_set] = derived_series(phi.group, K).derived_length
    return None if None in lengths.values() else max(lengths.values())


# A subgroup as a group of its own, and the automorphisms phi induces on an
# invariant subgroup and on a quotient: the second enumerations the library
# no longer makes, kept as oracles for the analyses it now makes inside G.

def subgroup_as_group(G: FiniteGroup, H):
    """Re-enumerate a subgroup as a standalone FiniteGroup.

    Returns (group, to_parent, from_parent) where to_parent[i] is the parent
    index of the standalone element i: one walk of the re-enumeration's tree
    over G's right-multiplication columns of the generators of H, the way
    ``Automorphism`` builds its table.
    """
    gen_perms = [G.elements[i] for i in H.gens]
    Hg = generate_group(G.degree, gen_perms, cap=H.order)
    if Hg.order != H.order:
        raise AssertionError("subgroup re-enumeration produced a different order")
    to_parent = tuple(Hg.extend_images([G.right_column(t) for t in H.gens]))
    from_parent = {pi: i for i, pi in enumerate(to_parent)}
    return Hg, to_parent, from_parent


def restrict_automorphism(phi, H):
    """Restriction of phi to an invariant subgroup, as a standalone group.

    Returns (group, automorphism, to_parent).
    """
    G = phi.group
    if not is_phi_invariant(phi, H):
        raise NotInvariant("cannot restrict to a non-invariant subgroup")
    if H.order == G.order:
        return G, phi, tuple(range(G.order))
    Hg, to_parent, from_parent = subgroup_as_group(G, H)
    images = [from_parent[phi.table[to_parent[g]]] for g in Hg.generator_indices]
    return Hg, Automorphism(Hg, images), to_parent


def quotient_projection(G: FiniteGroup, Q: FiniteGroup) -> list:
    """The index in Q = ``quotient_group(G, N)`` of the image of every element
    of G: generator i of Q is the image of generator i of G."""
    return G.extend_images(Q._right)


def quotient_automorphism(phi, N, Q) -> Automorphism:
    """Automorphism induced on Q = ``quotient_group(G, N)`` by phi, whose
    normal kernel N must be phi-invariant."""
    G = phi.group
    if not is_phi_invariant(phi, N):
        raise NotInvariant("kernel is not phi-invariant")
    to_q = quotient_projection(G, Q)
    induced = Automorphism(Q, [to_q[phi.table[g]] for g in G.generator_indices])
    if (list(map(to_q.__getitem__, phi.table))
            != list(map(induced.table.__getitem__, to_q))):
        raise NotInvariant("induced quotient map is not well defined")
    return induced


def quotient_fixed_points_by_group(phi, N) -> bool:
    """Whether the fixed points of the map phi induces on G/N are the image of
    the fixed points of phi, by the quotient group and its induced
    automorphism: the oracle for the ``quotient_fixed_points`` check."""
    Q = quotient_group(phi.group, N)
    qphi = quotient_automorphism(phi, N, Q)
    fixed = {q for q, image in enumerate(qphi.table) if image == q}
    to_q = quotient_projection(phi.group, Q)
    return fixed == {to_q[x] for x in range(phi.group.order) if phi.table[x] == x}


class ProductCounter:
    """Counts products while installed: one per ``FiniteGroup.mul`` call and
    one per pair of a ``FiniteGroup.products`` batch."""

    def __init__(self, monkeypatch):
        from coprimelab import groups
        self.muls = self.batched = 0
        mul, products = groups.FiniteGroup.mul, groups.FiniteGroup.products

        def counted_mul(group, a, b):
            self.muls += 1
            return mul(group, a, b)

        def counted_products(group, xs, ys):
            out = products(group, xs, ys)
            self.batched += len(out)
            return out

        monkeypatch.setattr(groups.FiniteGroup, "mul", counted_mul)
        monkeypatch.setattr(groups.FiniteGroup, "products", counted_products)

    @property
    def count(self) -> int:
        return self.muls + self.batched


def closure_by_elements(G: FiniteGroup, seeds) -> tuple:
    """(members, gens) of <seeds> by the closure ``subgroup_generated`` made
    before it closed by whole cosets: seeds in index order, each one outside
    the closure kept as a generator and closed in element by element with
    ``mul``. The oracle for its ``gens``."""
    gens, members = [], {0}
    for s in sorted(set(seeds)):
        if s in members:
            continue
        gens.append(s)
        queue = [y for y in (G.mul(m, s) for m in list(members)) if y not in members]
        members.update(queue)
        while queue:
            x = queue.pop()
            for g in gens:
                y = G.mul(x, g)
                if y not in members:
                    members.add(y)
                    queue.append(y)
    return frozenset(members), tuple(gens)


def _p_part(G: FiniteGroup, p: int) -> int:
    return p ** factorization(G.order).get(p, 0)


def _p_closure(G: FiniteGroup, seeds, p: int):
    """Member indices of <seeds> by breadth-first right multiplication, or
    None as soon as it has more elements than the p-part of |G| or meets an
    element whose order is not a power of p: a group has an element of order
    q for every prime q dividing its order, so <seeds> is a p-group iff all
    its elements have p-power order."""
    bound = _p_part(G, p)
    members = {0}
    queue = [0]
    for x in queue:
        for s in seeds:
            y = G.mul(x, s)
            if y not in members:
                if len(members) == bound or prime_power_base(G.element_order(y)) != p:
                    return None
                members.add(y)
                queue.append(y)
    return frozenset(members)


def brute_sylow(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup: the elements in index order, each one adjoined
    when it and the subgroup so far generate a p-group. A p-subgroup below a
    Sylow subgroup S is extended by an element of S, and a refused element
    stays refused as the subgroup grows, so the scan ends at a maximal
    p-subgroup, which is a Sylow subgroup."""
    order = _p_part(G, p)
    members, gens = frozenset((0,)), []
    for x in range(1, G.order):
        if len(members) == order:
            break
        if x not in members:
            grown = _p_closure(G, gens + [x], p)
            if grown is not None:
                members, gens = grown, gens + [x]
    return Subgroup(members, gens)


def brute_fitting(G: FiniteGroup) -> Subgroup:
    """F(G), the subgroup the O_p(G) generate. x lies in O_p(G) iff its
    normal closure, the subgroup its conjugacy class generates, is a p-group;
    the classes are the orbits of conjugation by the generators. A group of
    prime-power order is nilpotent, so it is its own F(G)."""
    if G.order == 1 or prime_power_base(G.order) is not None:
        return G.whole_subgroup()
    seeds, seen = [], {0}
    for x in range(1, G.order):
        p = prime_power_base(G.element_order(x))
        if x in seen or p is None:
            continue
        conj_class = [x]
        seen.add(x)
        for y in conj_class:
            for g in G.generator_indices:
                z = G.conjugate(y, g)
                if z not in seen:
                    seen.add(z)
                    conj_class.append(z)
        if _p_closure(G, conj_class, p) is not None:
            seeds += conj_class
    return Subgroup(*closure_by_elements(G, seeds))


def fitting_height_by_quotients(G: FiniteGroup) -> int:
    """The Fitting height as the length of the upper Fitting series: how
    many times G is replaced by G/F(G), built with ``quotient_group``, until
    it is trivial. F(G) is trivial only for a trivial or insoluble G."""
    height = 0
    while G.order > 1:
        F = brute_fitting(G)
        if F.is_trivial:
            raise AssertionError("a nontrivial group with trivial Fitting subgroup is insoluble")
        G = quotient_group(G, F)
        height += 1
    return height


def commutator_with_automorphism(phi, H) -> frozenset:
    """Members of [H, phi], the subgroup generated by h^-1 h^phi for every h
    in H: each one by ``mul``, closed by ``closure_by_elements``."""
    G = phi.group
    return closure_by_elements(G, {G.mul(G.inv(h), phi.table[h]) for h in H.members})[0]


def per_pair_np_series(S):
    """``lie.verify_np_series`` with one commutator subgroup per index pair
    and one power subgroup per index, repeated terms and all, and member
    sets in place of weights: the oracle for its deduplicated walk, with the
    same first witness in the same scan order, or None."""
    from coprimelab.structure import commutator_subgroup_pair, power_subgroup
    G, p, t = S.group, S.p, len(S.terms)
    for i in range(1, t + 1):
        if S.term(i).is_trivial:
            continue
        for j in range(i, t + 1):
            if S.term(j).is_trivial:
                continue
            comm = commutator_subgroup_pair(G, S.term(i), S.term(j))
            if not comm.member_set <= S.term(i + j).member_set:
                return ("commutator", i, j)
        powers = power_subgroup(G, p, within=S.term(i))
        if not powers.member_set <= S.term(p * i).member_set:
            return ("power", i)
    return None
