"""GF(p^k) arithmetic on integer codes, modulo a fixed irreducible over F_p.

An element is the int 0..p^k-1 whose base-p digits are its coefficients,
constant term least significant. So a constant c is the code c, F_p is
FiniteField(p, 1), and F_p values are valid codes in every extension. Codes
are canonical: 0 and 1 are the field's zero and one, and equal elements are
equal ints, which keeps permutation representations of field constructions
deterministic.

Polynomials are coefficient tuples in ascending degree with no trailing
zeros; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .numutil import divisors, factorization, is_prime

# The highest extension degree FiniteField takes, set by the eigen split: a phi
# of order 889 = 7 * 127 on cyclic(2)^10 (C2_10_ORDER_889 in tests/helpers.py)
# needs GF(2^21). The frobenius recipe on cyclic(p)^k asks for GF(p^k), which
# DEFAULT_CAP stops at GF(2^17): cyclic(2)^18 has order 262144.
MAX_DEGREE = 21
# The largest p^(k // 2) it takes: about that many divisions find or check a
# modulus. On a 2-core Xeon GF(3^21) took 2.9 s and GF(7^21) over 25 s, while the
# largest field admitted for each p builds in under 0.05 s: GF(2^21), GF(3^15),
# GF(5^11), GF(7^9), GF(13^7), GF(61^5), GF(4093^3).
MAX_SEARCH = 4096

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


def digits(code: int, p: int, k: int) -> tuple:
    """The k base-p digits of code, least significant first."""
    out = []
    for _ in range(k):
        code, d = divmod(code, p)
        out.append(d)
    return tuple(out)


def least_monic(p: int, k: int, accept) -> Optional[tuple]:
    """Least monic polynomial of degree k that passes ``accept``, ordered by the
    base-p code of its lower coefficients; None if there is none."""
    for code in range(p ** k):
        f = digits(code, p, k) + (1,)
        if accept(f):
            return f
    return None


def poly_is_irreducible(f, p) -> bool:
    """Irreducibility over F_p by trial division: no monic polynomial of
    degree 1 to deg/2 divides f."""
    f = poly_trim(f)
    return len(f) > 1 and all(least_monic(p, d, lambda g: not poly_mod(f, g, p)) is None
                              for d in range(1, (len(f) - 1) // 2 + 1))


def default_modulus(p: int, k: int) -> tuple:
    """Least monic irreducible of degree k, in ``least_monic`` order."""
    f = least_monic(p, k, lambda f: poly_is_irreducible(f, p))
    if f is None:
        raise AssertionError(f"no irreducible of degree {k} over F_{p}")
    return f


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


class FiniteField:
    """GF(p^k) with a fixed monic irreducible modulus of degree k; its
    elements are the codes 0..p^k-1. For k = 1 each operation is residue
    arithmetic mod p; above that it goes through the polynomial helpers."""

    def __init__(self, p: int, k: int, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not 1 <= k <= MAX_DEGREE:
            raise ValueError(f"extension degree must be from 1 to {MAX_DEGREE}, got {k}")
        if p ** (k // 2) > MAX_SEARCH:
            raise ValueError(f"GF({p}^{k}) is too large: finding or checking its modulus "
                             f"takes {p}^{k // 2} divisions, above {MAX_SEARCH}")
        self.p = p
        self.k = k
        self.order = p ** k
        if modulus is None:
            modulus = default_modulus(p, k)  # irreducible by construction
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {k}")
            if not poly_is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = modulus

    def coeffs(self, a: int) -> tuple:
        return digits(a, self.p, self.k)

    def code(self, coeffs: Sequence[int]) -> int:
        """The element of a coefficient sequence of any length."""
        p = self.p
        coeffs = [c % p for c in coeffs]
        if len(coeffs) > self.k:
            coeffs = poly_mod(coeffs, self.modulus, p)
        out = 0
        for c in reversed(coeffs):
            out = out * p + c
        return out

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return self.code([x + y for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        return self.code([x - y for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        return self.code(poly_mul(self.coeffs(a), self.coeffs(b), self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        p = self.p
        if self.k == 1:
            return pow(a, p - 2, p)
        # extended Euclid over F_p[x]: s1 * a = r1 mod the modulus throughout
        r0, r1 = self.modulus, poly_trim(self.coeffs(a))
        s0, s1 = (), (1,)
        while r1:
            q, rem = poly_divmod(r0, r1, p)
            r0, r1 = r1, rem
            s0, s1 = s1, poly_sub(s0, poly_mul(q, s1, p), p)
        return self.code([c * pow(r0[0], p - 2, p) for c in s0])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        if self.k == 1:
            return pow(a, e, self.p)
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def multiplicative_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        order = self.order - 1
        for q in factorization(self.order - 1):
            while order % q == 0 and self.pow(a, order // q) == 1:
                order //= q
        return order

    def generator_element(self) -> int:
        """The class of x (for k >= 2) or the modulus root (k = 1)."""
        if self.k == 1:
            return (-self.modulus[0]) % self.p
        return self.p

    def multiplicative_generator(self) -> int:
        """Least element of full multiplicative order."""
        target = self.order - 1
        for a in range(1, self.order):
            if self.multiplicative_order(a) == target:
                return a
        raise AssertionError("no multiplicative generator found")
