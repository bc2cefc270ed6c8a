"""Prime field arithmetic."""

import pytest

from charp.errors import NotPrimeError
from charp.gf import FieldContext, field_new


def test_field_new_accepts_primes():
    assert field_new(7).p == 7
    assert field_new(2).p == 2


@pytest.mark.parametrize("n", [0, 1, 4, 6, 9, 100, 2**31])
def test_field_new_rejects_non_primes(n):
    with pytest.raises(NotPrimeError):
        field_new(n)


def test_inverse_exhaustive_small_primes():
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97]:
        F = FieldContext(p)
        for a in range(1, p):
            assert a * F.inv(a) % p == 1


def test_inverse_of_zero_errors():
    with pytest.raises(ZeroDivisionError):
        field_new(5).inv(0)


def test_field_axioms_spot():
    # normalize is the residue in [0, p), also for negative and large integers
    F = field_new(13)
    for a in range(-40, 40):
        assert 0 <= F.normalize(a) < 13 and (F.normalize(a) - a) % 13 == 0
        assert F.normalize(a) + F.normalize(-a) in (0, 13)
