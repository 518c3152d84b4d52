"""FiniteField code arithmetic against the plain-tuple oracle in helpers."""

import itertools
import random

import pytest

from coprimelab.gf import FiniteField
from helpers import PolyField


def _check(F, O, a, b):
    x, y = O.elem(a), O.elem(b)
    assert O.elem(F.add(a, b)) == O.add(x, y)
    assert O.elem(F.sub(a, b)) == O.sub(x, y)
    assert O.elem(F.mul(a, b)) == O.mul(x, y)
    assert O.elem(F.neg(a)) == O.neg(x)
    if a:
        assert O.elem(F.inv(a)) == O.inv(x)
        e = b - F.order // 2   # exponents of both signs
        assert O.elem(F.pow(a, e)) == O.pow(x, e)
    else:
        with pytest.raises(ZeroDivisionError):
            F.inv(a)
        assert F.pow(a, b) == (1 if b == 0 else 0)


@pytest.mark.parametrize("p, k", [(2, 3), (3, 2), (7, 1), (2, 4)])
def test_field_matches_oracle_on_every_pair(p, k):
    F, O = FiniteField(p, k), PolyField(p, k)
    assert F.modulus == O.modulus
    for a, b in itertools.product(range(F.order), repeat=2):
        _check(F, O, a, b)


def test_field_matches_oracle_on_sample_gf125():
    F, O = FiniteField(5, 3), PolyField(5, 3)
    assert F.modulus == O.modulus
    rng = random.Random(125)
    for _ in range(400):
        _check(F, O, rng.randrange(F.order), rng.randrange(F.order))
