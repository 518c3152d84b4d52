"""Small number-theory helpers: primality, factorization, divisors."""

from __future__ import annotations

import math
from typing import Optional


def is_prime(n: int) -> bool:
    if n <= 1:
        return False
    if n <= 3:
        return True
    if n % 2 == 0:
        return False
    r = math.isqrt(n)
    f = 3
    while f <= r:
        if n % f == 0:
            return False
        f += 2
    return True


def factorization(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: multiplicity}."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    m = n
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    f = 5
    while f * f <= m:
        while m % f == 0:
            out[f] = out.get(f, 0) + 1
            m //= f
        f += 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def prime_power_base(n: int) -> Optional[int]:
    """The prime p with n a power of p, or None (also for n = 1)."""
    fac = factorization(n) if n > 1 else {}
    return next(iter(fac)) if len(fac) == 1 else None


def divisors(n: int) -> list[int]:
    out = []
    r = math.isqrt(n)
    for d in range(1, r + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def root_field_degree(p: int, n: int, bound: int) -> Optional[int]:
    """Degree over F_p of the field of the n-th roots of unity, the least
    d >= 1 with p^d = 1 mod n, when it is at most ``bound``; else None.
    At most ``bound`` modular powers, whatever the size of n."""
    return next((d for d in range(1, bound + 1) if pow(p, d, n) == 1 % n), None)


def big_omega(n: int) -> int:
    """Number of prime divisors of n counted with multiplicity."""
    return sum(factorization(n).values()) if n > 1 else 0
