"""GF(p^k) arithmetic via polynomials over F_p modulo a fixed irreducible.

Polynomials are coefficient tuples in ascending degree with no trailing
zeros; the zero polynomial is the empty tuple. Field elements are length-k
coefficient tuples and are indexed canonically by their base-p integer
value, which keeps permutation representations of field constructions
deterministic.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .numutil import divisors, factorization, is_prime


# polynomial helpers over F_p

def poly_trim(c: Sequence[int]) -> tuple:
    out = list(c)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_sub(a, b, p):
    n = max(len(a), len(b))
    return poly_trim([( (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) ) % p
                      for i in range(n)])


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return poly_trim(out)


def poly_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(poly_trim(a))
    b = poly_trim(b)
    inv_lead = pow(b[-1], p - 2, p)
    deg_b = len(b) - 1
    quot = [0] * max(len(a) - deg_b, 0)
    while len(a) - 1 >= deg_b and a:
        shift = len(a) - 1 - deg_b
        coeff = (a[-1] * inv_lead) % p
        quot[shift] = coeff
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - coeff * bi) % p
        while a and a[-1] == 0:
            a.pop()
    return poly_trim(quot), poly_trim(a)


def poly_mod(a, b, p):
    return poly_divmod(a, b, p)[1]


def poly_gcd(a, b, p):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(a, b, p)
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = poly_trim([(c * inv_lead) % p for c in a])
    return a


def poly_powmod(a, e, mod, p):
    result = (1,)
    base = poly_mod(a, mod, p)
    while e > 0:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), mod, p)
        base = poly_mod(poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


def poly_is_irreducible(f, p) -> bool:
    """Irreducibility over F_p: root scan up to degree 3, Rabin's test above."""
    f = poly_trim(f)
    deg = len(f) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    if deg <= 3:
        return all(_poly_eval(f, x, p) != 0 for x in range(p))
    x = (0, 1)
    # x^(p^deg) must equal x mod f, and x^(p^(deg/q)) - x must be coprime to f
    if poly_sub(poly_powmod(x, p ** deg, f, p), x, p) != ():
        return False
    for q in factorization(deg):
        g = poly_gcd(poly_sub(poly_powmod(x, p ** (deg // q), f, p), x, p), f, p)
        if g != (1,):
            return False
    return True


def _poly_eval(f, x, p) -> int:
    out = 0
    for c in reversed(f):
        out = (out * x + c) % p
    return out


def default_modulus(p: int, k: int) -> tuple:
    """Least monic irreducible of degree k, ordered by base-p code of the
    lower coefficients (constant term least significant)."""
    for code in range(p ** k):
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        f = tuple(coeffs) + (1,)
        if poly_is_irreducible(f, p):
            return f
    raise AssertionError(f"no irreducible of degree {k} over F_{p}")


def cyclotomic_polynomial(n: int, p: int) -> tuple:
    """The n-th cyclotomic polynomial reduced mod p, via exact division."""
    polys: dict[int, tuple] = {}
    for m in divisors(n):
        f = tuple([p - 1] + [0] * (m - 1) + [1])  # x^m - 1
        for d in divisors(m):
            if d < m:
                f, rem = poly_divmod(f, polys[d], p)
                if rem:
                    raise AssertionError("cyclotomic division left a remainder")
        polys[m] = f
    return polys[n]


class FieldElement:
    """Element of GF(p^k) as a length-k coefficient tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "FiniteField", coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        f = self.field
        return FieldElement(f, tuple((a + b) % f.p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        f = self.field
        return FieldElement(f, tuple((a - b) % f.p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        f = self.field
        return FieldElement(f, tuple((-a) % f.p for a in self.coeffs))

    def __mul__(self, other):
        f = self.field
        prod = poly_mod(poly_mul(poly_trim(self.coeffs), poly_trim(other.coeffs), f.p),
                        f.modulus, f.p)
        return f.element(prod)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        f = self.field
        return f.element(poly_powmod(poly_trim(self.coeffs), e, f.modulus, f.p)) if e else f.one

    def inverse(self) -> "FieldElement":
        f = self.field
        a = poly_trim(self.coeffs)
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        # extended Euclid over F_p[x]
        r0, r1 = f.modulus, a
        s0, s1 = (), (1,)
        while r1:
            q, rem = poly_divmod(r0, r1, f.p)
            r0, r1 = r1, rem
            s0, s1 = s1, poly_sub(s0, poly_mul(q, s1, f.p), f.p)
        scale = pow(r0[0], f.p - 2, f.p)
        return f.element(tuple((c * scale) % f.p for c in s0))

    def frobenius(self) -> "FieldElement":
        return self ** self.field.p

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def multiplicative_order(self) -> int:
        if self.is_zero:
            raise ZeroDivisionError("zero has no multiplicative order")
        n = self.field.order - 1
        order = n
        for q in factorization(n):
            while order % q == 0 and (self ** (order // q)) == self.field.one:
                order //= q
        return order

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return f"FieldElement{self.coeffs}"


class FiniteField:
    """GF(p^k) with a fixed monic irreducible modulus of degree k."""

    def __init__(self, p: int, k: int, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.order = p ** k
        if modulus is None:
            modulus = default_modulus(p, k)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {k}")
        if not poly_is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = modulus
        self.zero = FieldElement(self, (0,) * k)
        self.one = self.element((1,))

    def element(self, coeffs: Sequence[int]) -> FieldElement:
        c = [x % self.p for x in coeffs[: self.k]]
        if len(coeffs) > self.k:
            c = list(poly_mod(poly_trim(coeffs), self.modulus, self.p))
        c += [0] * (self.k - len(c))
        return FieldElement(self, tuple(c))

    def from_int(self, n: int) -> FieldElement:
        return self.element((n % self.p,))

    def from_index(self, i: int) -> FieldElement:
        coeffs = []
        for _ in range(self.k):
            coeffs.append(i % self.p)
            i //= self.p
        return FieldElement(self, tuple(coeffs))

    def index(self, a: FieldElement) -> int:
        out = 0
        for c in reversed(a.coeffs):
            out = out * self.p + c
        return out

    def elements(self):
        return (self.from_index(i) for i in range(self.order))

    def generator_element(self) -> FieldElement:
        """The class of x (for k >= 2) or the modulus root (k = 1)."""
        if self.k == 1:
            return self.element(((-self.modulus[0]) % self.p,))
        return self.element((0, 1))

    def multiplicative_generator(self) -> FieldElement:
        """Least element (in canonical index order) of full multiplicative order."""
        target = self.order - 1
        for i in range(1, self.order):
            a = self.from_index(i)
            if a.multiplicative_order() == target:
                return a
        raise AssertionError("no multiplicative generator found")

    def __repr__(self):
        return f"FiniteField(p={self.p}, k={self.k}, modulus={self.modulus})"
