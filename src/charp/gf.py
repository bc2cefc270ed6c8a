"""Exact arithmetic in the prime field F_p.

Field elements are plain integers in [0, p); the modulus lives on a
FieldContext shared by every object of a computation job.
"""

from .errors import NotPrimeError


def _is_prime(n: int) -> bool:
    # trial division; p is desk-scale (< 2^31) by contract
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


class FieldContext:
    """The field F_p for a small prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        # the range check comes first: trial division of a large p takes hours
        if p >= 2**31:
            raise NotPrimeError(p, "is outside the supported range p < 2^31")
        if not _is_prime(p):
            raise NotPrimeError(p)
        self.p = p

    def normalize(self, a: int) -> int:
        return a % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, FieldContext) and other.p == self.p

    def __hash__(self):
        return hash(("FieldContext", self.p))

    def __repr__(self):
        return f"FieldContext(p={self.p})"


def field_new(p: int) -> FieldContext:
    """Build the field F_p, rejecting composite p."""
    return FieldContext(p)
