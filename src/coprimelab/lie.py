"""Filtration series of p-groups and the associated graded Lie algebra over F_p.

The canonical series is built by Jennings' recursion from commutators and
p-th powers; its layers are elementary abelian and carry a bracket induced by
group commutators. ``NpSeries.weight`` and ``GradedLieAlgebra.log`` give each
element's deepest term and its coordinates there. On top of that live the
power-compatibility check of the graded bracket, the powerful-quotient
criterion, the eigenspace decomposition after extending scalars by a root
of unity, and the fixed points of a coprime automorphism on whole layers:
fact (b) on each section D_i/D_(i+1), counted off the table of x^-1 x^phi,
whose witness is an element.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from typing import Optional

from .errors import NotAPGroup, NotCoprime, NotElementaryAbelianLayer, PreconditionViolated
from .gf import MAX_DEGREE, MAX_SEARCH, FiniteField, cyclotomic_polynomial, least_monic, poly_divmod
from .groups import FiniteGroup, Subgroup, coset_labels, subgroup_generated
from .linalg import mat_from_columns, identity_matrix, mat_vec, nullspace, rref
from .structure import commutator_subgroup_pair, is_powerful, power_subgroup
from .numutil import factorization, prime_power_base, root_field_degree


class NpSeries:
    """Descending filtration with the commutator and p-power compatibilities.

    ``terms[0]`` is the whole group and the last term is trivial; repeated
    terms are kept because the position index carries meaning. ``weight[x]``
    is the largest i with x in term i (the last term written over x, as the
    series descends), so x lies in term i iff ``weight[x] >= i``; the
    identity's weight is ``len(terms)``.
    """

    def __init__(self, group: FiniteGroup, p: int, terms: tuple):
        self.group = group
        self.p = p
        self.terms = terms
        self.weight = weight = [0] * group.order
        for i, term in enumerate(terms, start=1):
            for x in term.members:
                weight[x] = i

    def term(self, i: int) -> Subgroup:
        """1-based term; indices past the end mean the trivial subgroup."""
        if i <= len(self.terms):
            return self.terms[i - 1]
        return self.group.trivial_subgroup()


def jlz_series(G: FiniteGroup, p: int) -> NpSeries:
    """Canonical filtration by Jennings' recursion: D_1 = G and
    D_i = [D_(i-1), G] (D_ceil(i/p))^p. By Jennings' theorem (Jennings 1941,
    *Trans. AMS* 50; Dixon, du Sautoy, Mann and Segal, *Analytic pro-p Groups*,
    ch. 11) term i is the product of the p^k-th power subgroups of the j-th
    lower-central terms over all j * p^k >= i. Both factors are normal, so the
    term is generated by their generators together. The series repeats terms,
    so each p-th power subgroup is built once per distinct term."""
    if G.order > 1 and prime_power_base(G.order) != p:
        raise NotAPGroup(f"order {G.order} is not a power of {p}")
    whole = G.whole_subgroup()
    terms = [whole]
    powers: dict[Subgroup, Subgroup] = {}
    while not terms[-1].is_trivial:
        i = len(terms) + 1
        source = terms[(i - 1) // p]  # D_ceil(i/p)
        if source not in powers:
            powers[source] = power_subgroup(G, p, within=source)
        commutators = commutator_subgroup_pair(G, terms[-1], whole)
        terms.append(subgroup_generated(G, commutators.gens + powers[source].gens))
    return NpSeries(G, p, tuple(terms))


def verify_np_series(S: NpSeries) -> Optional[tuple]:
    """None when both filtration axioms hold for all index pairs, else the
    first failing one: ("commutator", i, j) when [D_i, D_j] is not in
    D_(i+j), or ("power", i) when D_i^p is not in D_(p i). i runs up, and
    at each i the commutators with j >= i come before the power.

    The series repeats terms, so each commutator subgroup is computed once
    per distinct pair of terms and each p-th power subgroup once per
    distinct term. A subgroup lies in term k iff its generators do, which
    ``weight`` tells; generators are never the identity, so past the last
    term, where term k is trivial, every generator fails."""
    G = S.group
    p = S.p
    t = len(S.terms)
    weight = S.weight
    commutators: dict = {}
    powers_of: dict = {}
    for i in range(1, t + 1):
        top = S.term(i)
        if top.is_trivial:
            continue
        for j in range(i, t + 1):
            other = S.term(j)
            if other.is_trivial:
                continue
            comm = commutators.get((top, other))
            if comm is None:
                comm = commutators[top, other] = commutator_subgroup_pair(G, top, other)
            if any(weight[g] < i + j for g in comm.gens):
                return ("commutator", i, j)
        powers = powers_of.get(top)
        if powers is None:
            powers = powers_of[top] = power_subgroup(G, p, within=top)
        if any(weight[g] < p * i for g in powers.gens):
            return ("power", i)
    return None


def _build_layer(G: FiniteGroup, p: int, index: int, top: Subgroup, bottom: Subgroup,
                 log: list) -> tuple:
    """The layer top/bottom: its cosets labelled by ``coset_labels`` (bottom
    is normal, coset 0), a basis picked in index order, and the coordinates
    of every coset from one batch of products per basis element and nonzero
    power. Writes ``log[x]`` for each x of top outside bottom and returns the
    basis."""
    rep = coset_labels(G, bottom, top)[0]
    expected = top.order // bottom.order
    basis: list[int] = []
    span: dict[int, tuple] = {0: ()}   # coset number -> coordinate vector so far
    elems: dict[int, int] = {0: 0}     # coset number -> one group representative
    for x in top.members:
        if rep[x] in span:
            continue
        basis.append(x)
        new_span: dict[int, tuple] = {}
        new_elems: dict[int, int] = {}
        row = list(elems.values())   # x^power times each representative
        for power in range(p):
            if power:
                row = G.products(repeat(x), row)
            for vec, e2 in zip(span.values(), row):
                k2 = rep[e2]
                if k2 < 0 or k2 in new_span:
                    raise NotElementaryAbelianLayer(
                        f"layer {index} quotient is not elementary abelian")
                new_span[k2] = vec + (power,)
                new_elems[k2] = e2
        span, elems = new_span, new_elems
    if len(span) != expected:
        raise NotElementaryAbelianLayer(
            f"layer {index} has index {expected} but spans {len(span)} cosets")
    for x in top.members:
        k = rep[x]
        if k:
            log[x] = span[k]
    return tuple(basis)


class GradedLieAlgebra:
    """Direct sum of the filtration layers with the commutator-induced bracket.

    Layer i is term i over term i + 1. ``bases[i - 1]`` holds the group
    elements whose cosets form its basis and ``dims[i - 1]`` its dimension.
    ``weight`` is the series' table and ``log[x]`` the coordinates of x in
    layer ``weight[x]`` (unset for the identity). A subspace is given per
    layer, as a list whose entry i - 1 holds vectors of layer i.
    ``units[i - 1]`` is the standard basis of layer i (the rows of the
    identity matrix), built once and shared by every caller. Structure
    constants are stored sparsely per basis pair. The subalgebra generated by
    the first layer (``lp_layers``, per-layer echelon bases) and its class
    (``lie_class``) are bracketed out on first read and kept.
    """

    def __init__(self, series: NpSeries, bases: list[tuple], log: list, brackets: dict):
        self.series = series
        self.group = series.group
        self.p = series.p
        self.bases = bases
        self.dims = tuple(map(len, bases))
        self.weight = series.weight
        self.log = log
        self.num_layers = len(bases)
        self.brackets = brackets
        self.field = FiniteField(self.p, 1)
        self.units = [identity_matrix(dim) for dim in self.dims]

    def coords(self, i: int, x: int) -> tuple:
        """Coordinates of the coset of x in layer i, for x in term i: zero
        when x lies in term i + 1; ValueError when x is outside term i."""
        weight = self.weight[x]
        if weight == i:
            return self.log[x]
        if weight > i:
            return (0,) * self.dims[i - 1]
        raise ValueError(f"element {x} is not in filtration term {i}")

    def bracket(self, i: int, u: tuple, j: int, v: tuple,
                F: Optional[FiniteField] = None) -> Optional[tuple]:
        """[u, v] for homogeneous u in layer i, v in layer j, with coordinates
        in F (by default the algebra's own F_p).

        None stands for the zero bracket, and only for it: past the top
        (i + j beyond the last layer, where u and v are not read) or when
        every coordinate vanishes."""
        if i + j > self.num_layers:
            return None
        F = F or self.field
        out = [0] * self.dims[i + j - 1]
        for a, ua in enumerate(u):
            if not ua:
                continue
            for b, vb in enumerate(v):
                if not vb:
                    continue
                cvec = self.brackets.get((i, a, j, b))
                if cvec is None:
                    continue
                scale = F.mul(ua, vb)
                for t, ct in enumerate(cvec):
                    if ct:
                        out[t] = F.add(out[t], F.mul(scale, ct))
        return tuple(out) if any(out) else None

    def bracket_spans(self, X: list, Y: list) -> list:
        """Per layer k, the echelon span of the nonzero brackets [u, v] with u in
        X[i-1], v in Y[j-1] and i + j = k."""
        out = [[] for _ in range(self.num_layers)]
        for i in range(1, self.num_layers + 1):
            for j in range(1, self.num_layers + 1 - i):
                for u in X[i - 1]:
                    for v in Y[j - 1]:
                        w = self.bracket(i, u, j, v)
                        if w is not None:
                            out[i + j - 1].append(w)
        return [rref(vecs, self.field) if vecs else () for vecs in out]

    @cached_property
    def lp_layers(self) -> list[tuple]:
        """Layer 1 and the brackets it generates, grown until no layer grows."""
        spans = [self.units[0] if k == 0 else () for k in range(self.num_layers)]
        while True:
            grown = [rref(s + b, self.field) if b else s
                     for s, b in zip(spans, self.bracket_spans(spans, spans))]
            if grown == spans:
                return spans
            spans = grown

    @cached_property
    def lie_class(self) -> int:
        """Nilpotency class of the subalgebra generated by the first layer: the
        least s >= 0 such that bracketing it s times by itself gives zero. Each
        step raises the least nonzero layer, so s is at most the number of
        layers."""
        X, steps = self.lp_layers, 0
        while any(X):
            X = self.bracket_spans(X, self.lp_layers)
            steps += 1
        return steps


def build_graded_lie(series: NpSeries) -> GradedLieAlgebra:
    """Layer bases, the log table and structure constants from a verified
    series. The layers are built from the last one up and each writes ``log``
    only outside its bottom term, so no layer overwrites the coordinates a
    deeper one wrote."""
    G = series.group
    p = series.p
    weight = series.weight
    num = len(series.terms) - 1
    log: list = [None] * G.order
    bases = [()] * num
    for i in range(num, 0, -1):
        bases[i - 1] = _build_layer(G, p, i, series.term(i), series.term(i + 1), log)
    brackets = {}
    for i in range(1, num + 1):
        for j in range(1, num + 1 - i):
            for a, xa in enumerate(bases[i - 1]):
                for b, yb in enumerate(bases[j - 1]):
                    c = G.commutator(xa, yb)
                    if weight[c] < i + j:
                        raise NotElementaryAbelianLayer(
                            f"commutator of layers {i},{j} escapes layer {i + j}")
                    if weight[c] == i + j:   # a deeper c has zero coordinates
                        brackets[(i, a, j, b)] = log[c]
    return GradedLieAlgebra(series, bases, log, brackets)


def check_lazard_all(A: GradedLieAlgebra) -> Optional[int]:
    """None when every x has x^p in term p*i, i the layer of x, and p-fold
    bracketing by the class of x equals bracketing by the class of x^p, else
    the least x for which either fails. With v the coordinates of x in layer
    i and w those of x^p in layer p*i, the first side depends on (i, v) only
    and the second on (p*i, w) only, so each is bracketed out once per key,
    for the whole basis, and the two are compared as tuples. When p*i is the
    top layer or past it, every bracket of both sides lands past the top and
    is zero, so only the place of x^p is checked."""
    G, p, top, weight = A.group, A.p, A.num_layers, A.weight
    powers = G.power_map(p)
    basis = [(j, unit) for j, units in enumerate(A.units, start=1) for unit in units]
    folded: dict = {}   # (i, v) -> [... [unit, v] ..., v], p brackets, per basis vector
    lifted: dict = {}   # (p*i, w) -> [unit, w] per basis vector
    for x in range(1, G.order):
        i = weight[x]
        ti = p * i
        if weight[powers[x]] < min(ti, top + 1):   # past the top, x^p = 1 of weight top + 1
            return x
        if ti >= top:
            continue
        v, w = A.coords(i, x), A.coords(ti, powers[x])
        left = folded.get((i, v))
        if left is None:
            left = folded[(i, v)] = tuple(_fold(A, j, unit, i, v) for j, unit in basis)
        right = lifted.get((ti, w))
        if right is None:
            right = lifted[(ti, w)] = tuple(A.bracket(j, unit, ti, w) for j, unit in basis)
        if left != right:
            return x
    return None


def _fold(A: GradedLieAlgebra, j: int, unit: tuple, i: int, v: tuple) -> Optional[tuple]:
    """[... [[unit, v], v] ..., v] with p brackets, unit in layer j, v in layer i."""
    for _ in range(A.p):
        unit = A.bracket(j, unit, i, v)
        if unit is None:
            return None
        j += i
    return unit


def verify_bracket_axioms(A: GradedLieAlgebra) -> Optional[tuple]:
    """None when antisymmetry holds on all homogeneous basis pairs and the
    Jacobi identity on all triples, else the first failing pair
    ((i, u), (j, v)) or, once every pair holds, triple ((i, u), (j, v),
    (k, w)) of basis vectors u of layer i, v of layer j and w of layer k."""
    F = A.field
    homog = [(i, u) for i, units in enumerate(A.units, start=1) for u in units]
    for (i, u) in homog:
        for (j, v) in homog:
            uv = A.bracket(i, u, j, v)
            minus_uv = None if uv is None else tuple(map(F.neg, uv))
            if minus_uv != A.bracket(j, v, i, u):
                return ((i, u), (j, v))
    for (i, u) in homog:
        for (j, v) in homog:
            for (k, w) in homog:
                acc = None
                for (a, x), (b, y), (c, z) in (((i, u), (j, v), (k, w)),
                                               ((j, v), (k, w), (i, u)),
                                               ((k, w), (i, u), (j, v))):
                    inner = A.bracket(a, x, b, y)
                    if inner is None:
                        continue
                    outer = A.bracket(a + b, inner, c, z)
                    if outer is None:
                        continue
                    acc = outer if acc is None else tuple(map(F.add, acc, outer))
                if acc is not None and any(acc):
                    return ((i, u), (j, v), (k, w))
    return None


def check_riley(A: GradedLieAlgebra) -> Optional[int]:
    """None when the (c+1)-st filtration term is powerful, c the class of the
    layer-1-generated subalgebra, else the index c + 1."""
    c = A.lie_class
    return None if is_powerful(A.group, A.p, subgroup=A.series.term(c + 1)) else c + 1


def layer_matrices(A: GradedLieAlgebra, phi) -> list[tuple]:
    """Per-layer matrices of the induced action of phi (columns = basis images)."""
    if phi.group is not A.group:
        raise ValueError("automorphism acts on a different group")
    mats = []
    for i, basis in enumerate(A.bases, start=1):
        cols = []
        for x in basis:
            image = phi.table[x]
            if A.weight[image] < i:
                raise PreconditionViolated(
                    f"automorphism does not preserve filtration term {i}")
            cols.append(A.coords(i, image))
        mats.append(mat_from_columns(cols))
    return mats


def lie_fixed_points(series: NpSeries, phi) -> Optional[int]:
    """None when on every layer D_i/D_(i+1) of the series the cosets that phi
    fixes are the images of C_G(phi) & D_i, else the least x of D_i on the
    first failing layer whose coset phi fixes while it holds no fixed element:
    fact (b) on each section (``automorphisms._bare_fixed_coset``), which the
    lemma C_(K/N)(phi) = C_K(phi) N / N for a coprime phi (Gorenstein,
    *Finite Groups*, ch. 6) makes hold. NotCoprime unless phi is coprime."""
    from .automorphisms import _bare_fixed_coset, require_coprime

    require_coprime(phi)
    if phi.group is not series.group:
        raise ValueError("automorphism acts on a different group")
    terms = series.terms
    return next((x for K, N in zip(terms, terms[1:])
                 if (x := _bare_fixed_coset(phi, K, N)) is not None), None)


class ExtendedAlgebra:
    """Scalar extension of a graded algebra by a primitive root of unity,
    with per-layer eigenspace bases for the induced automorphism."""

    def __init__(self, base: GradedLieAlgebra, n: int, field: FiniteField, omega: int,
                 matrices: list, eigenbases: list, dims: list):
        self.base = base
        self.n = n
        self.field = field
        self.omega = omega
        self.matrices = matrices      # per layer, over F_p; its codes are valid in the field
        self.eigenbases = eigenbases  # per layer: list over j of basis tuples
        self.dims = dims              # per layer: list over j of dimensions


def _cyclotomic_modulus(n: int, p: int, d: int) -> tuple:
    """Lexicographically least monic irreducible factor of the n-th
    cyclotomic polynomial over F_p, of degree d, found by trial division."""
    phi_n = cyclotomic_polynomial(n, p)
    f = least_monic(p, d, lambda f: not poly_divmod(phi_n, f, p)[1])
    if f is None:
        raise AssertionError("cyclotomic polynomial had no factor of the expected degree")
    return f


def split_field_degree(p: int, n: int) -> int:
    """Degree over F_p of the n-th roots of unity, the field of the eigen split
    by phi of order n. p must not divide n (else NotCoprime), and ``FiniteField``
    must take the field (else PreconditionViolated; its text is the reason)."""
    if not (type(p) is type(n) is int and p > 1 and n > 0):
        raise ValueError(f"need a characteristic p > 1 and a root order n > 0, got {p!r}, {n!r}")
    if n % p == 0:
        raise NotCoprime("action is not coprime")
    degree = root_field_degree(p, n, MAX_DEGREE)
    if degree is None:
        raise PreconditionViolated(f"roots of unity of order {n} need an extension of F_{p} "
                                   f"of degree above {MAX_DEGREE}")
    if p ** (degree // 2) > MAX_SEARCH:
        raise PreconditionViolated(f"roots of unity of order {n} need GF({p}^{degree}), "
                                   f"and {p}^{degree // 2} is above {MAX_SEARCH}")
    return degree


def extend_and_eigendecompose(A: GradedLieAlgebra, phi) -> ExtendedAlgebra:
    """Extend scalars so a primitive n-th root of unity exists, n the order
    of phi, then split every layer into eigenspaces of the induced action.

    Before any field search, the field degree passes ``split_field_degree``
    and phi must act on the group of A (else ValueError).
    """
    p, n = A.p, phi.order_n
    degree = split_field_degree(p, n)
    mats = layer_matrices(A, phi)
    modulus = _cyclotomic_modulus(n, p, degree)
    field = FiniteField(p, degree, modulus)
    omega = field.generator_element()   # the modulus root; 1 when n = 1
    if field.pow(omega, n) != 1:
        raise AssertionError("modulus root is not an n-th root of unity")
    for q in factorization(n):
        if field.pow(omega, n // q) == 1:
            raise AssertionError("modulus root is not primitive")
    omega_powers = [field.pow(omega, j) for j in range(n)]
    eigenbases = []
    dims = []
    for idx, M in enumerate(mats):
        dim = A.dims[idx]
        if dim == 0:
            eigenbases.append([() for _ in range(n)])
            dims.append([0] * n)
            continue
        per_j = []
        per_dim = []
        total = 0
        for j in range(n):
            shift = tuple(tuple(field.sub(c, omega_powers[j]) if t == r else c
                                for t, c in enumerate(row))
                          for r, row in enumerate(M))
            basis = nullspace(shift, dim, field)
            per_j.append(basis)
            per_dim.append(len(basis))
            total += len(basis)
        if total != dim:
            raise AssertionError(
                f"eigenspace dimensions {per_dim} do not fill layer {idx + 1} (dim {dim})")
        eigenbases.append(per_j)
        dims.append(per_dim)
    return ExtendedAlgebra(base=A, n=n, field=field, omega=omega,
                           matrices=mats, eigenbases=eigenbases, dims=dims)


def verify_eigen_product_rule(ext: ExtendedAlgebra) -> Optional[tuple]:
    """None when every bracket of two eigenbasis vectors lands in the
    eigenspace of the product of their eigenvalues, else the first failing
    pair ((i, ji, u), (j, jj, v)): u in layer i with eigenvalue omega^ji and
    v in layer j with eigenvalue omega^jj."""
    A = ext.base
    F = ext.field
    for i in range(1, A.num_layers + 1):
        for j in range(1, A.num_layers + 1 - i):
            for ji, basis_i in enumerate(ext.eigenbases[i - 1]):
                for jj, basis_j in enumerate(ext.eigenbases[j - 1]):
                    for u in basis_i:
                        for v in basis_j:
                            w = A.bracket(i, u, j, v, F)
                            if w is None:
                                continue
                            image = mat_vec(ext.matrices[i + j - 1], w, F)
                            lam = F.pow(ext.omega, (ji + jj) % ext.n)
                            expected = tuple(F.mul(lam, c) for c in w)
                            if image != expected:
                                return ((i, ji, u), (j, jj, v))
    return None
