import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprimelab import corpus, gf
from coprimelab.errors import CapExceeded
from coprimelab.gf import (MAX_DEGREE, MAX_SEARCH, FiniteField, cyclotomic_polynomial,
                           default_modulus, digits, poly_divmod, poly_is_irreducible, poly_mul)
from coprimelab.numutil import divisors, factorization, root_field_degree

GF125 = FiniteField(5, 3)
GF8 = FiniteField(2, 3)


def test_default_modulus_gf125():
    # least monic irreducible cubic over F_5 in base-5 coefficient order
    assert GF125.modulus == (1, 1, 0, 1)


def test_default_modulus_gf8():
    assert GF8.modulus == (1, 1, 0, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FiniteField(2, 2, modulus=(1, 0, 1))  # (x+1)^2 over F_2
    with pytest.raises(ValueError):
        FiniteField(3, 4, modulus=(1, 0, 1, 0, 1))  # x^4+x^2+1 = (x^2+2)^2 over F_3


def test_default_modulus_is_tested_once(monkeypatch):
    tested = []
    inner = gf.poly_is_irreducible

    def counting(f, p):
        tested.append(f)
        return inner(f, p)

    monkeypatch.setattr(gf, "poly_is_irreducible", counting)
    F = FiniteField(2, 8)
    # the search tests each candidate once and stops at the modulus
    assert tested[-1] == F.modulus and tested.count(F.modulus) == 1
    tested.clear()
    FiniteField(2, 8, modulus=F.modulus)
    assert tested == [F.modulus]


def test_irreducibility_degree4_paths():
    assert poly_is_irreducible((1, 1, 0, 0, 1), 2)       # x^4+x+1
    assert poly_is_irreducible((1, 1, 1, 1, 1), 2)       # x^4+x^3+x^2+x+1
    assert not poly_is_irreducible((1, 0, 0, 0, 1), 2)   # x^4+1 = (x+1)^4
    assert not poly_is_irreducible((1, 0, 1, 0, 1), 2)   # (x^2+x+1)^2


def frobenius(a):
    return GF125.pow(a, 5)


def test_frobenius_fixes_prime_field():
    for c in range(5):
        assert frobenius(c) == c


def test_frobenius_cubed_is_identity():
    for a in range(0, 125, 7):
        assert frobenius(frobenius(frobenius(a))) == a


def test_inverse_roundtrip():
    for a in range(1, 125, 11):
        assert GF125.mul(a, GF125.inv(a)) == 1


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        GF125.inv(0)


@given(st.integers(0, 124), st.integers(0, 124), st.integers(0, 124))
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    add, mul = GF125.add, GF125.mul
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)


@given(st.integers(0, 124), st.integers(0, 124))
@settings(max_examples=40, deadline=None)
def test_frobenius_is_field_automorphism(a, b):
    assert frobenius(GF125.add(a, b)) == GF125.add(frobenius(a), frobenius(b))
    assert frobenius(GF125.mul(a, b)) == GF125.mul(frobenius(a), frobenius(b))


def test_multiplicative_generator_small_fields():
    assert FiniteField(5, 1).multiplicative_generator() == 2
    assert FiniteField(7, 1).multiplicative_generator() == 3
    g = GF125.multiplicative_generator()
    assert GF125.multiplicative_order(g) == 124


def test_index_roundtrip():
    # an element's code is its coefficient tuple read in base p
    for a in range(125):
        coeffs = GF125.coeffs(a)
        assert len(coeffs) == 3 and a == coeffs[0] + 5 * coeffs[1] + 25 * coeffs[2]
        assert GF125.code(coeffs) == a


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1, 5) == (4, 1)          # x - 1
    assert cyclotomic_polynomial(3, 5) == (1, 1, 1)       # x^2 + x + 1
    assert cyclotomic_polynomial(7, 2) == (1, 1, 1, 1, 1, 1, 1)
    # phi_5 over F_2 stays irreducible, phi_7 splits into two cubics
    phi7 = cyclotomic_polynomial(7, 2)
    q, r = poly_divmod(phi7, (1, 1, 0, 1), 2)
    assert r == ()
    assert q == (1, 0, 1, 1)  # x^3 + x^2 + 1


def test_poly_mul_and_divmod():
    f = poly_mul((1, 1), (2, 1), 5)
    assert poly_divmod(f, (1, 1), 5) == ((2, 1), ())
    assert poly_divmod(f, (0, 1), 5) == ((3, 1), (2,))


def _mobius(n: int) -> int:
    exponents = factorization(n).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


@pytest.mark.parametrize("p, k", [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
                                  for k in range(1, 11) if p ** k <= 3 ** 6 or p ** k <= 2 ** 10])
def test_irreducible_count_is_gauss_count(p, k):
    # Gauss: (1/k) * sum over d | k of mu(d) p^(k/d) monic irreducibles of degree k
    expected = sum(_mobius(d) * p ** (k // d) for d in divisors(k)) // k
    monics = (digits(code, p, k) + (1,) for code in range(p ** k))
    assert sum(poly_is_irreducible(f, p) for f in monics) == expected


@pytest.mark.parametrize("field", [GF125, FiniteField(2, 8)], ids=["gf125", "gf256"])
def test_pow_matches_repeated_mul(field):
    for a in range(field.order):
        power = 1
        for e in range(24):
            assert field.pow(a, e) == power, (a, e)
            power = field.mul(power, a)
        if a:
            assert field.pow(a, field.order - 1) == 1
            assert field.pow(a, -1) == field.inv(a)


def test_root_field_degree_is_the_order_of_p_up_to_its_bound():
    # 2 has order 21 mod 889 = 7 * 127 and order 22 mod 6141 = 3 * 23 * 89
    assert root_field_degree(2, 889, MAX_DEGREE) == 21
    assert root_field_degree(2, 889, 20) is None
    assert root_field_degree(2, 6141, MAX_DEGREE) is None
    assert root_field_degree(2, 6141, 22) == 22
    start = time.perf_counter()
    assert root_field_degree(3, 10 ** 400 + 1, MAX_DEGREE) is None
    assert time.perf_counter() - start < 0.1
    for p in (2, 3, 5, 7):
        for n in range(1, 120):
            if n % p:
                order, x = 1, p % n
                while x != 1 % n:
                    x, order = x * p % n, order + 1
                assert root_field_degree(p, n, 200) == order, (p, n)
                assert root_field_degree(p, n, order - 1) is None, (p, n)


def test_a_degree_above_the_bound_is_refused_before_any_search(monkeypatch):
    def search(*args):
        raise AssertionError("the modulus search started")

    monkeypatch.setattr(gf, "least_monic", search)
    for p in (2, 3, 5):
        for modulus in (None, (1,) * (MAX_DEGREE + 2)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"from 1 to {MAX_DEGREE}, got {MAX_DEGREE + 1}"):
                FiniteField(p, MAX_DEGREE + 1, modulus)
            assert time.perf_counter() - start < 0.1


class _Hung(Exception):
    pass


def _raise_hung(signum, frame):
    raise _Hung


def test_a_field_above_the_search_bound_is_refused_before_any_search(monkeypatch):
    # without the bound each takes seconds or more: GF(3^21) 2.9 s, GF(7^21)
    # over 25 s and GF(1000003^2) 5.6 s on a 2-core Xeon
    def search(*args):
        raise AssertionError("the modulus search or check started")

    monkeypatch.setattr(gf, "least_monic", search)
    previous = signal.signal(signal.SIGALRM, _raise_hung)
    signal.alarm(1)
    try:
        for p, k in ((3, 21), (7, 21), (1000003, 2), (4099, 2)):
            assert p ** (k // 2) > MAX_SEARCH
            for modulus in (None, (1,) * (k + 1)):
                start = time.perf_counter()
                with pytest.raises(ValueError, match=fr"GF\({p}\^{k}\) is too large"):
                    FiniteField(p, k, modulus)
                assert time.perf_counter() - start < 0.1, (p, k)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_the_largest_fields_under_the_search_bound_build():
    # the largest two k under the bound for p up to 13 (at most MAX_DEGREE), and
    # GF(61^5) and GF(4093^3), just under it
    cases = [(2, 21), (3, 14), (3, 15), (5, 10), (5, 11), (7, 8), (7, 9), (13, 6), (13, 7),
             (61, 5), (4093, 3)]
    previous = signal.signal(signal.SIGALRM, _raise_hung)
    signal.alarm(10)
    try:
        for p, k in cases:
            assert p ** (k // 2) <= MAX_SEARCH
            F = FiniteField(p, k)
            assert FiniteField(p, k, F.modulus).modulus == F.modulus
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class _Accepted(Exception):
    pass


def _corpus_accepts(p: int, k: int) -> bool:
    """Whether the corpus's order and store-budget checks accept cyclic(p)^k;
    the group itself is not enumerated."""
    spec = {"name": "direct_product",
            "params": {"factors": [{"name": "cyclic", "params": {"m": p}}] * k}}
    try:
        corpus._build_group(corpus._parse(spec, ""))
    except CapExceeded:
        return False
    except _Accepted:
        return True
    raise AssertionError("generate_group was not reached")


def test_the_largest_frobenius_spec_the_corpus_accepts_builds_its_field(monkeypatch):
    """The frobenius recipe on cyclic(p)^k needs GF(p^k). For each small prime
    the largest k that the corpus accepts is within MAX_DEGREE, with equality
    at p = 2, and its field and recipe images build. The cap is lifted, so
    that the store budget alone decides."""
    def stop(*args, **kwargs):
        raise _Accepted

    monkeypatch.setattr(corpus, "generate_group", stop)
    monkeypatch.setattr(corpus, "DEFAULT_CAP", 10 ** 30)
    largest = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        k = 1
        while _corpus_accepts(p, k + 1):
            k += 1
        largest[p] = k
        assert k <= MAX_DEGREE, (p, k)
        words = corpus._frobenius_images_additive(p, k)
        assert len(words) == k and all(0 < x <= k for w in words for x in w), (p, k)
    assert largest[2] == MAX_DEGREE, largest
