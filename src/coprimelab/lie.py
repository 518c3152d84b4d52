"""Filtration series of p-groups and the associated graded Lie algebra over F_p.

The canonical series is built from lower-central terms and their p-power
subgroups; its layers are elementary abelian and carry a bracket induced by
group commutators. On top of that live the power-compatibility check of the
graded bracket, the powerful-quotient criterion, span subalgebras attached
to subgroups, fixed-point comparisons under a coprime automorphism, and the
eigenspace decomposition after extending scalars by a root of unity.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Optional

from .errors import (NotAPGroup, NotCoprime, NotCoprimeToP,
                     NotElementaryAbelianLayer, PreconditionViolated)
from .gf import FiniteField, cyclotomic_polynomial, least_monic, poly_divmod
from .groups import FiniteGroup, Subgroup, coset_labels, subgroup_generated
from .linalg import (in_span, intersect_spans, mat_from_columns, mat_mul, identity_matrix,
                     mat_sub, mat_vec, nullspace, rref, span_basis, spans_equal)
from .structure import (commutator_subgroup_pair, is_powerful, lower_central_series,
                        power_subgroup)
from .numutil import factorization, multiplicative_order_mod, prime_power_base


class NpSeries:
    """Descending filtration with the commutator and p-power compatibilities.

    ``terms[0]`` is the whole group and the last term is trivial; repeated
    terms are kept because the position index carries meaning.
    """

    def __init__(self, group: FiniteGroup, p: int, terms: tuple):
        self.group = group
        self.p = p
        self.terms = terms

    def term(self, i: int) -> Subgroup:
        """1-based term; indices past the end mean the trivial subgroup."""
        if i <= len(self.terms):
            return self.terms[i - 1]
        return self.group.trivial_subgroup()


def jlz_series(G: FiniteGroup, p: int) -> NpSeries:
    """Canonical filtration: term i is the product of the p^k-th power
    subgroups of the j-th lower-central terms over all j * p^k >= i."""
    base = prime_power_base(G.order)
    if G.order > 1 and base != p:
        raise NotAPGroup(f"order {G.order} is not a power of {p}")
    if G.order == 1:
        return NpSeries(G, p, (G.trivial_subgroup(),))
    lcs = lower_central_series(G)
    gammas = list(lcs.terms)  # strict; gamma_j trivial beyond

    def gamma(j: int) -> Subgroup:
        return gammas[j - 1] if j <= len(gammas) else G.trivial_subgroup()

    max_j = len(gammas)
    power_cache: dict[tuple, Subgroup] = {}

    def gamma_power(j: int, k: int) -> Subgroup:
        key = (j, k)
        if key not in power_cache:
            g = gamma(j)
            if k == 0:
                out = g
            elif g.is_trivial or p ** k >= g.exponent():
                # exponents in a p-group are p-powers, so p^k >= exp divides out
                out = G.trivial_subgroup()
            else:
                out = power_subgroup(G, p ** k, within=g)
            power_cache[key] = out
        return power_cache[key]

    max_k = 0
    while p ** max_k < G.exponent():
        max_k += 1
    terms = [G.whole_subgroup()]
    i = 2
    while not terms[-1].is_trivial:
        pieces = []
        for j in range(1, max_j + 1):
            if gamma(j).is_trivial:
                continue
            for k in range(0, max_k + 1):
                if j * p ** k >= i:
                    piece = gamma_power(j, k)
                    if not piece.is_trivial:
                        pieces.append(piece)
                    break  # larger k gives smaller subgroups, already covered
        if pieces:
            seeds: set[int] = set()
            for piece in pieces:
                seeds.update(piece.gens)
            terms.append(subgroup_generated(G, seeds))
        else:
            terms.append(G.trivial_subgroup())
        i += 1
    return NpSeries(G, p, tuple(terms))


def verify_np_series(S: NpSeries) -> dict:
    """Check both filtration axioms for all index pairs; report witnesses.

    The series repeats terms, so each commutator subgroup is computed once
    per distinct pair of terms and each p-th power subgroup once per
    distinct term."""
    G = S.group
    p = S.p
    t = len(S.terms)
    commutators: dict = {}
    powers_of: dict = {}
    commutator_failures = []
    power_failures = []
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
            if not comm.member_set <= S.term(i + j).member_set:
                commutator_failures.append({"i": i, "j": j, "commutator_order": comm.order,
                                            "target_order": S.term(i + j).order})
        powers = powers_of.get(top)
        if powers is None:
            powers = powers_of[top] = power_subgroup(G, p, within=top)
        if not powers.member_set <= S.term(p * i).member_set:
            power_failures.append({"i": i, "power_order": powers.order,
                                   "target_order": S.term(p * i).order})
    ok = not commutator_failures and not power_failures
    return {"verdict": "pass" if ok else "fail",
            "commutator_failures": commutator_failures,
            "power_failures": power_failures}


class Layer:
    """One elementary abelian quotient of the filtration, as an F_p space."""

    def __init__(self, index: int, dim: int, basis: tuple, rep: list, vectors: dict):
        self.index = index
        self.dim = dim
        self.basis = basis        # group element indices representing the basis cosets
        self.rep = rep            # element -> coset number, -1 outside the upper term
        self.vectors = vectors    # coset number -> coordinate tuple

    def coords_of(self, x: int) -> tuple:
        return self.vectors[self.rep[x]]


def _build_layer(G: FiniteGroup, p: int, index: int, top: Subgroup, bottom: Subgroup) -> Layer:
    """The layer top/bottom: its cosets labelled by ``coset_labels`` (bottom
    is normal), a basis picked in index order, and the coordinates of every
    coset from one batch of products per basis element and power."""
    rep = coset_labels(G, bottom, top)[0]
    expected = top.order // bottom.order
    basis: list[int] = []
    span: dict[int, tuple] = {rep[0]: ()}   # coset number -> coordinate vector so far
    elems: dict[int, int] = {rep[0]: 0}     # coset number -> one group representative
    for x in top.members:
        if rep[x] in span:
            continue
        basis.append(x)
        new_span: dict[int, tuple] = {}
        new_elems: dict[int, int] = {}
        for power in range(p):
            xj = G.power(x, power)
            for vec, e2 in zip(span.values(), G.products(repeat(xj), elems.values())):
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
    return Layer(index=index, dim=len(basis), basis=tuple(basis), rep=rep, vectors=span)


class GradedLieAlgebra:
    """Direct sum of the filtration layers with the commutator-induced bracket.

    A subspace is given per layer, as a list whose entry i - 1 holds vectors
    of layer i. ``units[i - 1]`` is the standard basis of layer i (the rows of
    the identity matrix), built once and shared by every caller. Structure
    constants are stored sparsely per basis pair; the subalgebra generated by
    the first layer is tracked as per-layer echelon bases.
    """

    def __init__(self, series: NpSeries, layers: list[Layer], brackets: dict):
        self.series = series
        self.group = series.group
        self.p = series.p
        self.layers = layers
        self.num_layers = len(layers)
        self.brackets = brackets
        self.field = FiniteField(self.p, 1)
        self.units = [identity_matrix(layer.dim) for layer in layers]
        self.lp_layers = self._generate_from_first_layer()
        self.lp_flags = [tuple(in_span(u, span, self.field) for u in units)
                         for units, span in zip(self.units, self.lp_layers)]

    @property
    def dims(self) -> tuple:
        return tuple(layer.dim for layer in self.layers)

    def depth(self, x: int) -> int:
        """Largest i with x in term i; the identity sinks past every layer."""
        d = 1
        while d <= self.num_layers and x in self.series.term(d + 1).member_set:
            d += 1
        if d > self.num_layers and x != 0:
            raise ValueError(f"element {x} is not in the filtration tail")
        return d if x != 0 else self.num_layers + 1

    def coords(self, i: int, x: int) -> tuple:
        return self.layers[i - 1].coords_of(x)

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
        out = [0] * self.layers[i + j - 1].dim
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

    def _generate_from_first_layer(self) -> list[tuple]:
        spans = [self.units[0] if k == 0 else () for k in range(self.num_layers)]
        while True:
            grown = [rref(s + b, self.field) if b else s
                     for s, b in zip(spans, self.bracket_spans(spans, spans))]
            if grown == spans:
                return spans
            spans = grown

    def bracket_steps(self, X: list, K: list) -> int:
        """Least s >= 0 such that bracketing the subspace X by K s times gives
        zero: X, [X, K], [[X, K], K], ... Each step raises the degree, so s is
        at most the number of layers. The class of the generated subalgebra
        and the u of `subalgebra_LGH` both count this."""
        steps = 0
        while any(X):
            if steps > self.num_layers:
                raise AssertionError("span bracketing failed to terminate")
            X = self.bracket_spans(X, K)
            steps += 1
        return steps

    def lie_class_of_generated(self) -> int:
        """Nilpotency class of the subalgebra generated by the first layer."""
        return self.bracket_steps(self.lp_layers, self.lp_layers)


def build_graded_lie(series: NpSeries) -> GradedLieAlgebra:
    """Layers, bases, log maps and structure constants from a verified series."""
    G = series.group
    p = series.p
    layers = []
    for i in range(1, len(series.terms)):
        layers.append(_build_layer(G, p, i, series.terms[i - 1], series.term(i + 1)))
    brackets = {}
    num = len(layers)
    for i in range(1, num + 1):
        for j in range(1, num + 1 - i):
            target = layers[i + j - 1]
            for a, xa in enumerate(layers[i - 1].basis):
                for b, yb in enumerate(layers[j - 1].basis):
                    c = G.commutator(xa, yb)
                    if target.rep[c] < 0:
                        raise NotElementaryAbelianLayer(
                            f"commutator of layers {i},{j} escapes layer {i + j}")
                    vec = target.coords_of(c)
                    if any(vec):
                        brackets[(i, a, j, b)] = vec
    return GradedLieAlgebra(series, layers, brackets)


def check_lazard_all(A: GradedLieAlgebra) -> dict:
    """For every x, p-fold bracketing by the class of x equals bracketing by
    the class of x^p. With i the layer of x, v its coordinates there and w
    those of x^p in layer p*i, the first side depends on (i, v) only and the
    second on (p*i, w) only, so each is bracketed out once per key, for the
    whole basis, and the two are compared as tuples. When p*i is the top layer
    or past it, every bracket of both sides lands past the top and is zero, so
    only the place of x^p is checked."""
    G, p, top = A.group, A.p, A.num_layers
    powers = G.power_map(p)
    basis = [(j, unit) for j, units in enumerate(A.units, start=1) for unit in units]
    folded: dict = {}   # (i, v) -> [... [unit, v] ..., v], p brackets, per basis vector
    lifted: dict = {}   # (p*i, w) -> [unit, w] per basis vector
    failures = []
    for x in range(1, G.order):
        i = A.depth(x)
        ti = p * i
        if ti <= top:
            if powers[x] not in A.series.term(ti).member_set:
                failures.append(x)
                continue
        elif powers[x] != 0:
            failures.append(x)
            continue
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
            failures.append(x)
    return {"verdict": "pass" if not failures else "fail",
            "checked": G.order, "failures": failures[:5]}


def _fold(A: GradedLieAlgebra, j: int, unit: tuple, i: int, v: tuple) -> Optional[tuple]:
    """[... [[unit, v], v] ..., v] with p brackets, unit in layer j, v in layer i."""
    for _ in range(A.p):
        unit = A.bracket(j, unit, i, v)
        if unit is None:
            return None
        j += i
    return unit


def verify_bracket_axioms(A: GradedLieAlgebra) -> dict:
    """Antisymmetry and the Jacobi identity on all homogeneous basis triples."""
    F = A.field
    homog = [(i, u) for i, units in enumerate(A.units, start=1) for u in units]
    anti_ok = True
    for (i, u) in homog:
        for (j, v) in homog:
            uv = A.bracket(i, u, j, v)
            minus_uv = None if uv is None else tuple(map(F.neg, uv))
            if minus_uv != A.bracket(j, v, i, u):
                anti_ok = False
    jacobi_ok = True
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
                    jacobi_ok = False
    return {"verdict": "pass" if anti_ok and jacobi_ok else "fail",
            "antisymmetry": anti_ok, "jacobi": jacobi_ok}


def check_riley(G: FiniteGroup, p: int, algebra: Optional[GradedLieAlgebra] = None) -> dict:
    """With c the class of the layer-1-generated subalgebra, the (c+1)-st
    filtration term must be powerful."""
    if algebra is None:
        algebra = build_graded_lie(jlz_series(G, p))
    c = algebra.lie_class_of_generated()
    term = algebra.series.term(c + 1)
    powerful = is_powerful(G, p, subgroup=term)
    return {"lie_class": c, "term_order": term.order,
            "verdict": "pass" if powerful else "fail"}


def subalgebra_of_subgroup(A: GradedLieAlgebra, H: Subgroup) -> list[tuple]:
    """Per-layer spans of the homogeneous images of H intersected with each term."""
    spans = []
    for i in range(1, A.num_layers + 1):
        term_members = A.series.term(i).member_set
        # the rref of a span is canonical, so each distinct vector is passed once
        vecs = dict.fromkeys(A.coords(i, h) for h in H.members if h in term_members)
        spans.append(span_basis([v for v in vecs if any(v)], A.field))
    return spans


def subalgebra_LGH(A: GradedLieAlgebra, H: Subgroup) -> dict:
    """Span subalgebra attached to a subgroup, with the least u such that
    bracketing the whole algebra u times by it vanishes."""
    K = subalgebra_of_subgroup(A, H)
    closed = all(in_span(w, K[k], A.field)
                 for k, span in enumerate(A.bracket_spans(K, K)) for w in span)
    return {"dims": tuple(len(b) for b in K), "closed": closed,
            "u": max(A.bracket_steps(A.units, K), 1)}


def layer_matrices(A: GradedLieAlgebra, phi) -> list[tuple]:
    """Per-layer matrices of the induced action of phi (columns = basis images)."""
    if phi.group is not A.group:
        raise ValueError("automorphism acts on a different group")
    mats = []
    for i in range(1, A.num_layers + 1):
        layer = A.layers[i - 1]
        cols = []
        for x in layer.basis:
            image = phi.table[x]
            if layer.rep[image] < 0:
                raise PreconditionViolated(
                    f"automorphism does not preserve filtration term {i}")
            cols.append(layer.coords_of(image))
        mats.append(mat_from_columns(cols))
    return mats


def induced_action_order(A: GradedLieAlgebra, phi) -> int:
    """Least m with phi^m acting trivially on every layer; it divides the
    order of phi, and a root order n suits the eigen split iff m divides n."""
    order = 1
    for M in layer_matrices(A, phi):
        if not M:
            continue
        identity = identity_matrix(len(M))
        power, k = M, 1
        while power != identity:
            power = mat_mul(power, M, A.field)
            k += 1
        order = math.lcm(order, k)
    return order


def lie_fixed_points(A: GradedLieAlgebra, phi) -> dict:
    """Fixed subspace of the generated subalgebra versus the span coming from
    the fixed-point subgroup; they must agree layer by layer."""
    if not phi.coprime:
        raise NotCoprime("fixed-point comparison requires a coprime action")
    from .automorphisms import twisted_data

    F = A.field
    mats = layer_matrices(A, phi)
    C = twisted_data(phi).fixed
    spans = subalgebra_of_subgroup(A, C)
    per_layer = []
    all_ok = True
    for i in range(1, A.num_layers + 1):
        dim = A.layers[i - 1].dim
        if dim == 0:
            per_layer.append({"layer": i, "dim": 0, "verdict": "pass"})
            continue
        M = mats[i - 1]
        delta = mat_sub(M, identity_matrix(dim), F)
        kernel = nullspace(delta, dim, F)
        lhs = intersect_spans(kernel, A.lp_layers[i - 1], F)
        rhs = intersect_spans(spans[i - 1], A.lp_layers[i - 1], F)
        ok = spans_equal(lhs, rhs, F)
        all_ok = all_ok and ok
        per_layer.append({"layer": i, "fixed_dim": len(lhs),
                          "span_dim": len(rhs), "verdict": "pass" if ok else "fail"})
    return {"verdict": "pass" if all_ok else "fail", "layers": per_layer}


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


def _cyclotomic_modulus(n: int, p: int) -> tuple:
    """Lexicographically least monic irreducible factor of the n-th
    cyclotomic polynomial over F_p, found by trial division."""
    phi_n = cyclotomic_polynomial(n, p)
    d = 1 if n == 1 else multiplicative_order_mod(p, n)
    f = least_monic(p, d, lambda f: not poly_divmod(phi_n, f, p)[1])
    if f is None:
        raise AssertionError("cyclotomic polynomial had no factor of the expected degree")
    return f


def extend_and_eigendecompose(A: GradedLieAlgebra, phi, n: Optional[int] = None) -> ExtendedAlgebra:
    """Extend scalars so a primitive n-th root of unity exists, then split
    every layer into eigenspaces of the induced action."""
    p = A.p
    if n is None:
        n = phi.order_n
    if math.gcd(n, p) != 1:
        raise NotCoprimeToP(f"root order {n} is divisible by the characteristic {p}")
    m = induced_action_order(A, phi)
    if n % m:
        raise PreconditionViolated(f"induced action has order {m}, which does not divide {n}")
    modulus = _cyclotomic_modulus(n, p)
    field = FiniteField(p, len(modulus) - 1, modulus)
    omega = field.generator_element()   # the modulus root; 1 when n = 1
    if field.pow(omega, n) != 1:
        raise AssertionError("modulus root is not an n-th root of unity")
    for q in factorization(n):
        if field.pow(omega, n // q) == 1:
            raise AssertionError("modulus root is not primitive")
    mats = layer_matrices(A, phi)
    omega_powers = [field.pow(omega, j) for j in range(n)]
    eigenbases = []
    dims = []
    for idx, M in enumerate(mats):
        dim = A.layers[idx].dim
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


def verify_eigen_product_rule(ext: ExtendedAlgebra) -> dict:
    """Brackets of eigenvectors land in the eigenspace of the eigenvalue product."""
    A = ext.base
    F = ext.field
    checked = 0
    failures = 0
    for i in range(1, A.num_layers + 1):
        for j in range(1, A.num_layers + 1 - i):
            for ji, basis_i in enumerate(ext.eigenbases[i - 1]):
                for jj, basis_j in enumerate(ext.eigenbases[j - 1]):
                    for u in basis_i:
                        for v in basis_j:
                            w = A.bracket(i, u, j, v, F)
                            if w is None:
                                continue
                            checked += 1
                            image = mat_vec(ext.matrices[i + j - 1], w, F)
                            lam = F.pow(ext.omega, (ji + jj) % ext.n)
                            expected = tuple(F.mul(lam, c) for c in w)
                            if image != expected:
                                failures += 1
    return {"verdict": "pass" if failures == 0 else "fail",
            "nonzero_brackets_checked": checked}
