"""Localization at points off the origin.

LocalRingAtPoint keeps I in presentation coordinates and brackets
m_a = (x_i - a_i) as (x_i^q - a_i).  The reference route translates the
point to the origin with Polynomial.shift and computes there; both must
give the same integers.
"""

import random
from fractions import Fraction

import pytest

from charp.finv import (
    LocalRingAtPoint,
    classify,
    fedder_is_fpure,
    hk_function,
    nu_invariant,
    pair_splitting_number,
    splitting_number,
)
from charp.gf import field_new
from charp.ideal import Ideal, ideal_product, largest_free_sets, local_leading_monomials
from charp.poly import PolyRing

from oracles import modp_rank

QUADRIC = ("x", "y", "z"), ["x*y - z^2"]
TWISTED_CUBIC = ("x", "y", "z", "w"), ["x*z - y^2", "y*w - z^2", "x*w - y*z"]
PLANE_AND_LINE = ("x", "y", "z"), ["x*z", "y*z"]


def _ring(p, names):
    return PolyRing(field_new(p), names)


def _both_routes(p, ring, point):
    """(L at the point, L of the translated ideal at the origin, and the
    ideal (x_n - a_n) in each route's coordinates)."""
    names, srcs = ring
    R = _ring(p, names)
    gens = [R.parse(s) for s in srcs]
    L = LocalRingAtPoint(Ideal(R, gens), point)
    a = Ideal(R, (L.m0.gens[-1],))
    origin = LocalRingAtPoint(Ideal(R, [g.shift(point) for g in gens]),
                              (0,) * len(point))
    return L, origin, a, Ideal(R, [g.shift(point) for g in a.gens])


def _invariants(L, a, es):
    """lambda_e, a_e, pair a_e at t = 1/2 and nu(a) for e in es, then Fedder."""
    out = []
    for e in es:
        out += [
            hk_function(L, e).lam,
            splitting_number(L, e).a_e,
            pair_splitting_number(L, a, Fraction(1, 2), e).a_e,
            nu_invariant(L, a, e),
        ]
    return out + [fedder_is_fpure(L)]


# e <= 2 wherever the translated route stays cheap; on the F_7 quadric and
# the twisted cubic its dense e = 2 brackets take tens of seconds
@pytest.mark.parametrize("p, ring, point, es", [
    (5, QUADRIC, (1, 4, 2), (1, 2)),
    (7, QUADRIC, (1, 4, 2), (1,)),
    (3, TWISTED_CUBIC, (1, 1, 1, 1), (1,)),
    (5, PLANE_AND_LINE, (0, 0, 1), (1, 2)),
])
def test_twisted_brackets_match_translation(p, ring, point, es):
    L, origin, a, a_origin = _both_routes(p, ring, point)
    assert _invariants(L, a, es) == _invariants(origin, a_origin, es)


def test_twisted_cubic_e2_matches_translation():
    L, origin, a, a_origin = _both_routes(3, TWISTED_CUBIC, (1, 1, 1, 1))
    assert hk_function(L, 2).lam == hk_function(origin, 2).lam == 81
    assert nu_invariant(L, a, 2) == nu_invariant(origin, a_origin, 2)


def test_singular_point_off_the_origin_matches_the_origin():
    # g(x) = f(x - a) has the cone point of f = xy - z^2 at a = (1, 2, 3)
    R = _ring(5, QUADRIC[0])
    f = LocalRingAtPoint(Ideal(R, [R.parse("x*y - z^2")]), (0, 0, 0))
    g = LocalRingAtPoint(Ideal(R, [R.parse("(x - 1)*(y - 2) - (z - 3)^2")]),
                         (1, 2, 3))

    def invariants(L, a):
        return (
            [hk_function(L, e).lam for e in (1, 2)],
            [splitting_number(L, e).a_e for e in (1, 2)],
            fedder_is_fpure(L),
            nu_invariant(L, L.m0, 1),
            pair_splitting_number(L, Ideal(R, (R.parse(a),)), Fraction(1, 2), 2).a_e,
            classify(L, 2).as_dict(),
        )

    at_origin = invariants(f, "x")
    assert at_origin[3:5] == (6, 13)
    assert invariants(g, "x - 1") == at_origin


def test_nu_rejects_an_ideal_outside_the_point():
    R = _ring(5, QUADRIC[0])
    L = LocalRingAtPoint(Ideal(R, [R.parse("x*y - z^2")]), (1, 1, 1))
    with pytest.raises(ValueError):
        nu_invariant(L, Ideal(R, (R.parse("x"),)), 1)


def test_classify_smooth_point_off_the_origin():
    R = _ring(5, QUADRIC[0])
    flags = classify(LocalRingAtPoint(Ideal(R, [R.parse("x*y - z^2")]), (1, 4, 2)), 2)
    assert flags.regular
    assert flags.hilbert_samuel == 1


def test_local_dimension_of_unions_of_linear_subspaces():
    # V(I) is a union of affine subspaces V_i = {A_i x = b_i}, I the product
    # of their ideals; the local dimension at P is the largest dim V_i,
    # n - rank A_i, over the V_i through P (the first always passes)
    rng = random.Random(342)
    for _ in range(100):
        p, n = rng.choice((2, 3, 5, 7)), rng.choice((2, 3, 4))
        R = _ring(p, ("x", "y", "z", "w")[:n])
        P = tuple(rng.randrange(p) for _ in range(n))
        I, best = Ideal(R, (R.one(),)), 0
        for i in range(rng.randint(2, 3)):
            A = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(1, n))]
            b = [sum(a * x for a, x in zip(row, P)) % p if i == 0 or rng.random() < 0.3
                 else rng.randrange(p) for row in A]
            forms = [sum((R.gen(j).scale(a) for j, a in enumerate(row)), R.const(-c))
                     for row, c in zip(A, b)]
            I = ideal_product(I, Ideal(R, forms))
            if all(sum(a * x for a, x in zip(row, P)) % p == c for row, c in zip(A, b)):
                best = max(best, n - modp_rank(A, p))
        L = LocalRingAtPoint(I, P)
        lazard = len(largest_free_sets(local_leading_monomials(I, P), n)[0])
        assert L.d == lazard == best, (I, P)
