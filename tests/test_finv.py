"""Local F-invariants: Hilbert-Kunz, Fedder, splitting numbers, pairs."""

import math
from fractions import Fraction
from itertools import combinations, product

import pytest

from charp.errors import ExponentOverflowError, ZeroIdealError
from charp.gf import field_new
from charp.ideal import Budget, Ideal, bracket_power, ideal_equal, ideal_sum, length
from charp.finv import (
    LocalRingAtPoint,
    _is_ci,
    _multiplier,
    classify,
    fedder_is_fpure,
    fsig_estimate,
    hk_estimate,
    hk_function,
    is_regular,
    multiplicity,
    nu_invariant,
    pair_splitting_number,
    splitting_ideal,
    splitting_number,
)
from charp.poly import PolyRing
from charp.selftest import CORPUS
from charp.spectrum import RingComponent

from oracles import is_smooth_point, multiplication_image_rank, stanley_reisner_lambda


def local(p, names, srcs, point=None):
    R = PolyRing(field_new(p), names)
    gens = [R.parse(s) for s in srcs]
    if point is None:
        point = (0,) * len(names)
    return LocalRingAtPoint(Ideal(R, gens), point)


def test_point_must_lie_on_variety():
    R = PolyRing(field_new(5), ("x", "y"))
    with pytest.raises(ValueError):
        LocalRingAtPoint(Ideal(R, [R.parse("x*y")]), (1, 1))


def test_translation_off_origin():
    # smooth point (1,1,1) on the Fermat-like surface x*y - z^2
    L = local(7, ("x", "y", "z"), ["x*y - z^2"], (1, 1, 1))
    assert L.d == 2
    assert hk_function(L, 1).lam == 49  # regular point


# -- Hilbert-Kunz ------------------------------------------------------------

def test_hk_regular_is_q_to_d():
    L = local(5, ("x", "y"), [])
    assert hk_function(L, 2).lam == 625
    assert hk_function(L, 2).normalized == 1


def test_hk_node():
    L = local(5, ("x", "y"), ["x*y"])
    assert hk_function(L, 1).lam == 9  # 2q - 1
    assert L.d == 1


def test_hk_e0():
    # e = 0 is refused like every other e < 1
    L = local(5, ("x", "y"), ["x*y"])
    with pytest.raises(ValueError, match="e must be at least 1"):
        hk_function(L, 0)


def test_hk_node_estimate_converges_to_2():
    for p in (3, 5, 7):
        L = local(p, ("x", "y"), ["x*y"])
        est = hk_estimate(L, 3)
        assert est.value == 2  # the 1/q model is exact for lambda = 2q - 1
        # successive differences shrink by a factor ~1/p
        v1, v2, v3 = est.raw
        d1, d2 = v2 - v1, v3 - v2
        assert abs(float(d2 / d1) - 1 / p) < 0.05


def test_hk_quadric_estimate():
    L = local(7, ("x", "y", "z"), ["x*y - z^2"])
    est = hk_estimate(L, 2)
    assert abs(float(est.value) - 1.5) < 0.02
    assert est.raw == (Fraction(73, 49), Fraction(3601, 2401))


def test_hk_quadric_lambda_3_within_a_pair_budget():
    # a work guard by count, not time: this basis has 346 elements, and a
    # pair queue that grows like the square of that (59,685 pairs) fails
    L = local(7, ("x", "y", "z"), ["x*y - z^2"])
    with Budget(max_pairs=1_000, max_box=10**8):
        assert hk_function(L, 3).lam == 176473


def test_hk_estimate_regular_exact():
    est = hk_estimate(local(5, ("x", "y"), []), 2)
    assert est.value == 1 and est.confidence == "exact"
    assert est.raw == (Fraction(1), Fraction(1))


def test_equal_values_without_a_certificate_are_not_exact():
    # F_2[x,y,z]/(xz, x^2y^2) at the origin: the normalized lambda_e repeat
    # at e = 1, 2 and then fall, towards e_HK = e(R) = 1
    L = local(2, ("x", "y", "z"), ["x*z", "x^2*y^2"])
    est = hk_estimate(L, 2)
    assert est.raw == (Fraction(3, 2), Fraction(3, 2))
    assert est.confidence == "converged"
    assert hk_estimate(L, 4).raw == (Fraction(3, 2), Fraction(3, 2), Fraction(21, 16),
                                     Fraction(75, 64))
    assert multiplicity(L) == 1
    # the twisted cubic cone's s_e = 1/3 (the limit) carry no certificate either
    cubic = local(3, ("x", "y", "z", "w"), ["x*z - y^2", "y*w - z^2", "x*w - y*z"])
    est = fsig_estimate(cubic, 2)
    assert est.raw == (Fraction(1, 3), Fraction(1, 3))
    assert (est.value, est.confidence) == (Fraction(1, 3), "converged")


def test_kunz_lower_bound_and_regular_equivalence():
    # lambda >= q^d always; equality at e=1 iff the regular flag
    for p, gens, names in [(5, [], ("x", "y")), (5, ["x*y"], ("x", "y")),
                           (7, ["x*y - z^2"], ("x", "y", "z"))]:
        L = local(p, names, gens)
        recs = [hk_function(L, e) for e in (1, 2)]
        for r in recs:
            assert r.lam >= r.q**L.d
        eq1 = recs[0].lam == recs[0].q**L.d
        eq2 = recs[1].lam == recs[1].q**L.d
        assert eq1 == eq2 == (not gens)


def test_bounds_are_checked_at_run_time():
    # a wrong d breaks Kunz's lambda_e >= q^d, or a_e <= q^d
    L = local(5, ("x", "y"), [])
    L.d += 1
    with pytest.raises(RuntimeError, match="Kunz"):
        hk_function(L, 1)
    L = local(5, ("x", "y"), [])
    L.d -= 1
    with pytest.raises(RuntimeError, match=r"a_1 = 25 is outside \[0, q\^d = 5\]"):
        splitting_number(L, 1)


def test_a_broken_bound_is_an_internal_error(monkeypatch):
    from charp.jobs import build_presentation, run_task, validate_job
    from charp.spectrum import RingComponent

    local_at = RingComponent.local_at

    def wrong_dim(self, point):
        L = local_at(self, point)
        L.d += 1
        return L

    monkeypatch.setattr(RingComponent, "local_at", wrong_dim)
    job = validate_job({"p": 5, "components": [{"vars": ["x", "y"]}],
                        "tasks": [{"kind": "hk"}]})
    assert run_task(job, 0, build_presentation(job))["error"] == ("internal error: RuntimeError: lambda_1 = 25 "
                                         "< q^d = 125 breaks Kunz's bound")


def test_hk_sandwich():
    # lambda(R/m^(sq)) >= lambda(R/m^[q]) >= lambda(R/m^q), s = #gens of m
    from charp.ideal import bracket_power, ideal_power, ideal_sum

    L = local(3, ("x", "y"), ["x*y"])
    q, s = 3, 2
    m = L.m0
    lam_br = length(ideal_sum(L.ideal0, bracket_power(m, q)))
    lam_pow = length(ideal_sum(L.ideal0, ideal_power(m, q)))
    lam_spow = length(ideal_sum(L.ideal0, ideal_power(m, s * q)))
    assert lam_spow >= lam_br >= lam_pow


# -- Fedder ------------------------------------------------------------------

def test_fedder_regular():
    assert fedder_is_fpure(local(5, ("x", "y"), []))


def test_fedder_fermat_cubic_dichotomy():
    assert fedder_is_fpure(local(7, ("x", "y", "z"), ["x^3+y^3+z^3"]))
    assert not fedder_is_fpure(local(5, ("x", "y", "z"), ["x^3+y^3+z^3"]))


def test_fedder_matches_expansion_oracle():
    # independent route: expand f^(p-1) and test term-wise against m^[p]
    from charp.poly import poly_pow

    for p, src, names in [(7, "x^3+y^3+z^3", ("x", "y", "z")),
                          (5, "x^3+y^3+z^3", ("x", "y", "z")),
                          (5, "x*y", ("x", "y")),
                          (7, "x*y - z^2", ("x", "y", "z"))]:
        L = local(p, names, [src])
        f = L.ring.parse(src)
        fp = poly_pow(f, p - 1)
        outside = any(all(e < p for e in m) for m, _ in fp.terms)
        assert fedder_is_fpure(L) == outside


# -- splitting numbers -------------------------------------------------------

def test_splitting_regular():
    L = local(5, ("x",), [])
    rec = splitting_number(L, 1)
    assert rec.a_e == 5 and rec.s_e == 1
    # splitting ideal is m^[q]
    se = splitting_ideal(L, 1)
    assert ideal_equal(se, Ideal(L.ring, (L.ring.parse("x^5"),)))


def test_splitting_ideal_contains_base():
    from charp.ideal import bracket_power, ideal_contains_ideal, ideal_sum

    for p, names, gens in [(5, ("x", "y"), ["x*y"]),
                           (7, ("x", "y", "z"), ["x*y - z^2"])]:
        L = local(p, names, gens)
        se = splitting_ideal(L, 1)
        base = ideal_sum(L.ideal0, bracket_power(L.m0, p))
        assert ideal_contains_ideal(se, base)


def test_splitting_number_matches_ideal_route():
    # dual route: length of the colon ideal vs the length-difference formula
    for p, names, gens in [(5, ("x", "y"), ["x*y"]),
                           (5, ("x", "y", "z"), ["x*y - z^2"]),
                           (7, ("x", "y", "z"), ["x*y - z^2"]),
                           (7, ("x", "y", "z"), ["x^3+y^3+z^3"]),
                           (5, ("x", "y"), [])]:
        L = local(p, names, gens)
        rec = splitting_number(L, 1)
        assert rec.a_e == length(splitting_ideal(L, 1))


def test_splitting_number_matches_rank_oracle():
    # independent dense oracle: a_e = rank of mult-by-f^(q-1) on S/m^[q]
    from charp.poly import poly_pow

    cases = [(3, "x*y - z^2"), (5, "x*y - z^2"), (7, "x*y - z^2"),
             (7, "x^3+y^3+z^3")]
    for p, src in cases:
        L = local(p, ("x", "y", "z"), [src])
        u = poly_pow(L.ring.parse(src), p - 1)
        rank = multiplication_image_rank(u, (p, p, p), L.ring)
        assert splitting_number(L, 1).a_e == rank


def test_elliptic_cone_values():
    # Fermat cubic at p = 7 (p = 1 mod 3): F-split with a single free
    # summand at every e, so s = 0 while e_HK stays well above 1
    L = local(7, ("x", "y", "z"), ["x^3+y^3+z^3"])
    assert splitting_number(L, 1).a_e == 1
    assert splitting_number(L, 2).a_e == 1
    est = fsig_estimate(L, 2)
    assert est.value == 0  # clamped from the 1/q-model overshoot
    assert est.confidence == "inconclusive"
    hk = hk_estimate(L, 2)
    assert abs(float(hk.value) - 2.25) < 0.01


def test_splitting_union_of_planes_monomial_oracle():
    # I = (xy, xz): both colons stay monomial, so exponent arithmetic gives
    # a fully independent route to the splitting ideal
    from oracles import monomial_colon_oracle

    for p in (3, 5):
        L = local(p, ("x", "y", "z"), ["x*y", "x*z"])
        q = p
        gI = [(1, 1, 0), (1, 0, 1)]
        gIq = [tuple(q * e for e in m) for m in gI]
        K = monomial_colon_oracle(gIq, gI)
        mq = [(q, 0, 0), (0, q, 0), (0, 0, q)]
        expected_ideal = monomial_colon_oracle(mq, K)
        se = splitting_ideal(L, 1)
        from oracles import ideal_from_monomials

        assert ideal_equal(se, ideal_from_monomials(L.ring, expected_ideal))
        # the oracle chain gives the maximal ideal: a_e = 1 at every e
        assert sorted(expected_ideal) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert splitting_number(L, 1).a_e == 1
        assert splitting_number(L, 2).a_e == 1
        assert fedder_is_fpure(L)


def test_splitting_chain_equals_direct_definition():
    # the iterated-colon chain must reproduce (m^[q] : (I^[q]:I)) exactly
    from charp.ideal import bracket_power, colon

    L = local(5, ("x", "y", "z"), ["x*y - z^2"])
    K = colon(bracket_power(L.ideal0, 25), L.ideal0)
    direct = colon(bracket_power(L.m0, 25), K)
    assert ideal_equal(splitting_ideal(L, 2), direct)
    assert splitting_number(L, 2).a_e == length(direct)


def _random_cis(rng, R, point, count):
    """Random (f, g) of degree <= 2 over R, vanishing at the point, that
    form a complete intersection there (the multiplier route's test)."""
    monos = [m for m in product(range(3), repeat=R.nvars) if 0 < sum(m) <= 2]
    out = []
    while len(out) < count:
        gens = []
        for _ in range(2):
            f = R.from_dict({rng.choice(monos): rng.randint(1, R.p - 1)
                             for _ in range(rng.randint(1, 3))})
            gens.append(f - R.const(f.evaluate(point)))
        if any(f.is_zero() for f in gens):
            continue
        L = LocalRingAtPoint(Ideal(R, gens), point)
        if _is_ci(L):
            out.append(L)
    return out


def test_splitting_chain_random_hypersurfaces():
    # hypersurfaces and codimension-2 complete intersections, at the origin
    # and off it, against the definition (m^[q] : (I^[q] : I)); Fedder
    # against the colon's own normal-form test
    import random

    from charp.ideal import bracket_power, colon, normal_form

    rng = random.Random(77)
    R = PolyRing(field_new(3), ("x", "y"))
    cases = []
    while len(cases) < 10:
        d = {}
        for _ in range(rng.randint(1, 3)):
            m = (rng.randint(0, 2), rng.randint(0, 2))
            if m != (0, 0):
                d[m] = rng.randint(1, 2)
        f = R.from_dict(d)
        if f.is_zero():
            continue
        cases.append((LocalRingAtPoint(Ideal(R, [f]), (0, 0)), (2,)))
    R3 = PolyRing(field_new(3), ("x", "y", "z"))
    rng = random.Random(2)
    cases += [(L, (1, 2)) for L in _random_cis(rng, R3, (0, 0, 0), 3)]
    cases += [(L, (1, 2)) for L in _random_cis(rng, R3, (1, 2, 1), 3)]
    for L, es in cases:
        assert _is_ci(L)
        for e in es:
            q = 3**e
            K = colon(bracket_power(L.ideal0, q), L.ideal0)
            direct = colon(bracket_power(L.m0, q), K)
            assert splitting_number(L, e).a_e == length(direct), (L, e)
            assert ideal_equal(splitting_ideal(L, e), direct), (L, e)
        K = colon(bracket_power(L.ideal0, 3), L.ideal0)
        mp = bracket_power(L.m0, 3)
        assert fedder_is_fpure(L) == any(not normal_form(g, mp).is_zero() for g in K.gens)


_TWISTED_CUBIC = (("x", "y", "z", "w"), ["x*z - y^2", "y*w - z^2", "x*w - y*z"])


@pytest.mark.parametrize("p, names, srcs, point", [
    # a redundant generator list: I = (f) is a hypersurface with two generators
    (3, ("x", "y", "z"), ["x*y - z^2", "(x*y - z^2)*(x + y)"], (0, 0, 0)),
    # two generators of a height-1 ideal at a point of the plane z = 0
    (5, ("x", "y", "z"), ["x*z", "y*z"], (1, 1, 0)),
    # the twisted cubic cone: three generators, codimension 2
    (3, *_TWISTED_CUBIC, (0, 0, 0, 0)),
])
def test_non_ci_presentations_take_the_colon_route(p, names, srcs, point):
    from charp.ideal import bracket_power, colon

    L = local(p, names, srcs, point)
    assert not _is_ci(L)
    K = colon(bracket_power(L.ideal0, p), L.ideal0)
    with Budget():
        assert _multiplier(L, p).gens == K.gens
    for e in (1, 2):
        q = p**e
        K = colon(bracket_power(L.ideal0, q), L.ideal0)
        direct = colon(bracket_power(L.m0, q), K)
        assert splitting_number(L, e).a_e == length(direct)
        assert ideal_equal(splitting_ideal(L, e), direct)


def test_ci_of_lower_local_dimension_takes_fedders_chain():
    # (xz, yz) has dimension 2, but its local ring at (0,0,1) is regular of
    # dimension 1, where its two generators are a regular sequence
    from charp.ideal import bracket_power, colon

    L = local(5, ("x", "y", "z"), ["x*z", "y*z"], (0, 0, 1))
    assert L.d == 1 and _is_ci(L)
    for e in (1, 2):
        q = 5**e
        K = colon(bracket_power(L.ideal0, q), L.ideal0)
        direct = colon(bracket_power(L.m0, q), K)
        assert splitting_number(L, e).a_e == length(direct) == q
        assert ideal_equal(splitting_ideal(L, e), direct)


@pytest.mark.parametrize("names, srcs, a, t", [
    (*_TWISTED_CUBIC, ("x", "w"), Fraction(0)),
    (*_TWISTED_CUBIC, ("x", "w"), Fraction(1, 3)),
    (("x", "y", "z"), ["x*y - z^2"], ("x", "y"), Fraction(1, 2)),
])
def test_pair_splitting_number_matches_the_colon(names, srcs, a, t):
    from charp.ideal import bracket_power, colon, ideal_power, ideal_product

    L = local(3, names, srcs)
    a = Ideal(L.ring, [L.ring.parse(g) for g in a])
    for e in (1, 2):
        q = 3**e
        K = colon(bracket_power(L.ideal0, q), L.ideal0)
        U = ideal_product(ideal_power(a, math.ceil(t * (q - 1))), K)
        direct = length(colon(bracket_power(L.m0, q), U))
        assert pair_splitting_number(L, a, t, e).a_e == direct, e


@pytest.mark.parametrize("names, srcs, a, t, point", [
    (("x", "y", "z"), ["x*y - z^2"], ("x",), Fraction(4), None),
    (*_TWISTED_CUBIC, ("x", "w"), Fraction(5, 2), None),
    (("x", "y", "z"), ["x*y - z^2"], ("x - 1", "z - 1"), Fraction(3), (1, 1, 1)),
])
def test_a_pair_past_k_q_minus_1_matches_the_power_it_skips(monkeypatch, names, srcs, a, t, point):
    # N = ceil(t(q-1)) > k(q-1) for a's k generators, all in m: the old
    # route's U = a^N (I^[q] : I) lies in m^[q], and a_e = 0 without a^N
    import charp.finv
    from charp.ideal import bracket_power, ideal_power, ideal_product, ideal_sum

    L = local(3, names, srcs, point)
    a = Ideal(L.ring, [L.ring.parse(g) for g in a])
    old = []
    for e in (1, 2):
        q = 3**e
        U = ideal_product(ideal_power(a, math.ceil(t * (q - 1))), _multiplier(L, q))
        old.append(q**L.ring.nvars - length(ideal_sum(bracket_power(L.m0, q), U)))

    def fail(*args):
        raise AssertionError("ideal_power called")

    monkeypatch.setattr(charp.finv, "ideal_power", fail)
    assert [pair_splitting_number(L, a, t, e).a_e for e in (1, 2)] == old == [0, 0]


@pytest.mark.parametrize("names, srcs, a, point", [
    (("x", "y", "z"), ["x*y - z^2"], ("x + 1", "y"), None),
    (*_TWISTED_CUBIC, ("w - 1",), None),
    (("x", "y", "z"), ["x*y - z^2"], ("x", "z - 1"), (1, 1, 1)),
])
def test_a_pair_with_a_unit_generator_matches_the_power_it_skips(monkeypatch, names, srcs, a, point):
    # a generator off the point makes a^N R_m = R_m, so the old route's
    # U = a^N (I^[q] : I) gives the plain a_e, read with no work of its own
    import charp.finv
    from charp.ideal import bracket_power, ideal_power, ideal_product, ideal_sum

    L = local(3, names, srcs, point)
    a = Ideal(L.ring, [L.ring.parse(g) for g in a])
    old = []
    for e in (1, 2):
        q = 3**e
        U = ideal_product(ideal_power(a, math.ceil((q - 1) / 2)), _multiplier(L, q))
        old.append(q**L.ring.nvars - length(ideal_sum(bracket_power(L.m0, q), U)))
    plain = [splitting_number(L, e) for e in (1, 2)]

    def fail(*args):
        raise AssertionError("work outside the splitting route")

    for name in ("ideal_power", "colon", "length"):
        monkeypatch.setattr(charp.finv, name, fail)
    assert [pair_splitting_number(L, a, Fraction(1, 2), e) for e in (1, 2)] == plain
    assert [rec.a_e for rec in plain] == old


def test_a_pair_length_out_of_range_breaks_the_bound(monkeypatch):
    import charp.finv

    L = local(5, ("x", "y"), [])
    a = Ideal(L.ring, (L.ring.gen(0),))
    monkeypatch.setattr(charp.finv, "length", lambda I: -1)
    with pytest.raises(RuntimeError, match=r"a_1 = 26 is outside \[0, q\^d = 25\]"):
        pair_splitting_number(L, a, Fraction(1, 2), 1)


def test_splitting_number_past_the_exponent_bound_is_an_overflow():
    # 3^5000 passes the 32-bit bound; the complete intersection's walk
    # would recurse 5000 steps deep before forming it
    L = local(3, ("x", "y", "z"), ["x*y - z^2"])
    with pytest.raises(ExponentOverflowError, match="Frobenius power q exceeds 32-bit bound"):
        splitting_number(L, 5000)


def test_quadric_splitting_values():
    assert splitting_number(local(7, ("x", "y", "z"), ["x*y - z^2"]), 1).s_e == \
        Fraction(25, 49)
    assert abs(float(Fraction(25, 49)) - 0.5) < 0.05


def test_non_fpure_cubic_has_zero_splitting():
    L = local(5, ("x", "y", "z"), ["x^3+y^3+z^3"])
    assert splitting_number(L, 1).a_e == 0
    assert splitting_number(L, 2).a_e == 0
    # unit splitting ideal
    assert splitting_ideal(L, 1).is_unit()


def test_a1_consistency_with_fedder():
    for p, names, gens in [(5, ("x", "y"), ["x*y"]),
                           (7, ("x", "y", "z"), ["x^3+y^3+z^3"]),
                           (5, ("x", "y", "z"), ["x^3+y^3+z^3"]),
                           (5, ("x", "y"), [])]:
        L = local(p, names, gens)
        assert (splitting_number(L, 1).a_e > 0) == fedder_is_fpure(L)


def test_fsig_estimates():
    assert fsig_estimate(local(5, ("x", "y"), []), 2).value == 1
    assert fsig_estimate(local(5, ("x", "y"), []), 2).confidence == "exact"
    est = fsig_estimate(local(7, ("x", "y", "z"), ["x*y - z^2"]), 2)
    assert abs(float(est.value) - 0.5) < 0.01
    zero = fsig_estimate(local(5, ("x", "y", "z"), ["x^3+y^3+z^3"]), 2)
    assert zero.value == 0 and zero.confidence == "exact"


def test_fsig_node_is_zero_limit():
    # node: a_e = 1 for all e, s_e = 1/q -> 0; the 1/q model is exact
    L = local(5, ("x", "y"), ["x*y"])
    assert splitting_number(L, 1).a_e == 1
    assert splitting_number(L, 2).a_e == 1
    est = fsig_estimate(L, 2)
    assert est.value == 0


def test_segre_cone_values():
    # xy - zw in 4 variables: dense oracles pin e=1; at e=2 the quadric
    # self-duality lambda_e + a_e = 2*q^d cross-checks both routes
    from charp.poly import poly_pow

    expected = {3: (35, 19), 5: (165, 85)}
    for p in (3, 5):
        L = local(p, ("x", "y", "z", "w"), ["x*y - z*w"])
        assert L.d == 3
        f = L.ring.parse("x*y - z*w")
        lam1 = hk_function(L, 1).lam
        a1 = splitting_number(L, 1).a_e
        assert (lam1, a1) == expected[p]
        assert a1 == multiplication_image_rank(
            poly_pow(f, p - 1), (p, p, p, p), L.ring)
        for e in (1, 2):
            q = p**e
            assert hk_function(L, e).lam + splitting_number(L, e).a_e == 2 * q**3
        hk = hk_estimate(L, 2)
        fs = fsig_estimate(L, 2)
        assert abs(float(hk.value) - 4 / 3) < 0.02
        assert abs(float(fs.value) - 2 / 3) < 0.02
        flags = classify(L, 2)
        assert flags.hilbert_samuel == 2
        assert flags.hl_satisfied  # with equality: lambda_e + a_e = 2 q^d above


# -- pairs -------------------------------------------------------------------

def test_pair_t0_equals_splitting_number():
    # both against q^n - lambda(S/(m^[q] + (I^[q] : I))) with the colon by
    # elimination; at e = 2 the complete intersections' a_e comes from the walk
    from charp.ideal import bracket_power, colon, ideal_sum

    for p, names, gens in [(5, ("x", "y"), ["x*y"]),
                           (7, ("x", "y", "z"), ["x*y - z^2"]),
                           (5, ("x", "y"), []),
                           (3, *_TWISTED_CUBIC)]:
        L = local(p, names, gens)
        a = Ideal(L.ring, (L.ring.parse(names[0]),))
        for e in (1, 2):
            q = p**e
            K = colon(bracket_power(L.ideal0, q), L.ideal0)
            dual = q**L.ring.nvars - length(ideal_sum(bracket_power(L.m0, q), K))
            assert splitting_number(L, e).a_e == pair_splitting_number(L, a, 0, e).a_e == dual


def test_pair_one_variable_explicit():
    # S = F_p[x], a = (x), t = 1/2: s_e = (q - ceil((q-1)/2))/q
    for p in (5, 7):
        for e in (1, 2):
            q = p**e
            L = local(p, ("x",), [])
            a = Ideal(L.ring, (L.ring.gen(0),))
            rec = pair_splitting_number(L, a, Fraction(1, 2), e)
            assert rec.a_e == q - math.ceil((q - 1) / 2)


def test_pair_t1_vanishing_limit():
    # regular S, a = (x), t = 1: a_e = q^(d-1), s_e = 1/q
    for e in (1, 2):
        L = local(5, ("x", "y"), [])
        a = Ideal(L.ring, (L.ring.gen(0),))
        rec = pair_splitting_number(L, a, 1, e)
        assert rec.s_e == Fraction(1, 5**e)


def test_pair_monotone_in_t():
    L = local(5, ("x", "y"), [])
    a = Ideal(L.ring, (L.ring.gen(0),))
    values = [pair_splitting_number(L, a, t, 1).a_e
              for t in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)]
    assert values == sorted(values, reverse=True)


def test_pair_multi_generator_matches_monomial_oracle():
    # regular ambient, a = m = (x, y), t = 1/2: every colon stage is
    # monomial, so exponent arithmetic pins a_e independently
    import math

    from oracles import ideal_from_monomials, monomial_colon_oracle

    p, q = 5, 5
    L = local(p, ("x", "y"), [])
    a = Ideal(L.ring, (L.ring.gen(0), L.ring.gen(1)))
    n_mult = math.ceil(Fraction(1, 2) * (q - 1))
    mult = [(i, n_mult - i) for i in range(n_mult + 1)]  # gens of m^2
    expected = monomial_colon_oracle([(q, 0), (0, q)], mult)
    rec = pair_splitting_number(L, a, Fraction(1, 2), 1)
    assert rec.a_e == length(ideal_from_monomials(L.ring, expected))


def test_nu_at_e2():
    L = local(5, ("x",), [])
    a = Ideal(L.ring, (L.ring.gen(0),))
    assert nu_invariant(L, a, 2) == 24  # q - 1 at q = 25


def test_pair_zero_ideal_rejected():
    L = local(5, ("x", "y"), ["x"])
    a = Ideal(L.ring, (L.ring.parse("x"),))
    with pytest.raises(ZeroIdealError):
        pair_splitting_number(L, a, 1, 1)


# -- nu ----------------------------------------------------------------------

def test_nu_one_variable():
    L = local(5, ("x",), [])
    a = Ideal(L.ring, (L.ring.gen(0),))
    assert nu_invariant(L, a, 1) == 4  # p - 1


def test_nu_x_squared():
    L = local(5, ("x",), [])
    a = Ideal(L.ring, (L.ring.parse("x^2"),))
    assert nu_invariant(L, a, 1) == 2


def test_nu_square_of_maximal():
    L = local(5, ("x", "y"), [])
    a = Ideal(L.ring, tuple(L.ring.parse(s) for s in ("x^2", "x*y", "y^2")))
    assert nu_invariant(L, a, 1) == 4


def test_nu_bruteforce_cross_check():
    from charp.ideal import bracket_power, ideal_power, ideal_sum, normal_form

    L = local(3, ("x", "y"), ["x*y"])
    a = Ideal(L.ring, (L.ring.parse("x + y"),))
    M = ideal_sum(L.ideal0, bracket_power(L.m0, 3))
    expected = 0
    r = 1
    while True:
        gens = ideal_power(a, r).gens
        if all(normal_form(g, M).is_zero() for g in gens):
            break
        expected = r
        r += 1
    assert nu_invariant(L, a, 1) == expected


@pytest.mark.parametrize("p, names, srcs, point, a, e", [
    (5, ("x",), [], (0,), ["x"], 1),
    (5, ("x",), [], (0,), ["x"], 2),
    (5, ("x",), [], (0,), ["x^2"], 1),
    (5, ("x", "y"), [], (0, 0), ["x^2", "x*y", "y^2"], 1),
    (3, ("x", "y"), ["x*y"], (0, 0), ["x + y"], 1),
    (5, ("x", "y", "z"), ["x*y - z^2"], (1, 4, 2), ["z - 2"], 2),
    (3, ("x", "y", "z", "w"), ["x*z - y^2", "y*w - z^2", "x*w - y*z"],
     (1, 1, 1, 1), ["w - 1"], 2),
    (5, ("x", "y", "z"), ["x*y - z^2"], (0, 0, 0), ["x", "y", "z"], 1),
    # a = m_a off the origin: dense powers on the oracle's route
    (5, ("x", "y", "z"), ["x*y - z^2"], (1, 4, 2), None, 1),
    (3, ("x", "y", "z", "w"), ["x*z - y^2", "y*w - z^2", "x*w - y*z"],
     (1, 1, 1, 1), None, 1),
])
def test_nu_matches_binary_search_oracle(p, names, srcs, point, a, e):
    from oracles import nu_binary_search

    L = local(p, names, srcs, point)
    a = L.m0 if a is None else Ideal(L.ring, [L.ring.parse(s) for s in a])
    assert nu_invariant(L, a, e) == nu_binary_search(L, a, e)


def test_nu_pass_is_charged_to_the_box_budget():
    from charp.errors import ResourceBudgetError

    L = local(3, ("x", "y", "z"), ["x*y - z^2"])
    with Budget() as budget:
        assert nu_invariant(L, L.m0, 2) == 12  # 3(q - 1)/2
    assert budget.used_box > 1
    with pytest.raises(ResourceBudgetError), Budget(max_box=2):
        nu_invariant(L, L.m0, 2)


def test_local_ring_outside_a_budget_block_charges_one_budget(monkeypatch):
    # on a non-CI ideal with no basis yet, the dimension reads a basis of I
    # and a local standard basis: both charge the one budget that is active
    built = []
    init = Budget.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Budget, "__init__", counted)
    R = PolyRing(field_new(5), ("x", "y", "z"))
    L = LocalRingAtPoint(Ideal(R, [R.parse("x*z"), R.parse("y*z")]), (0, 0, 1))
    assert L.d == 1
    assert len(built) == 1


def test_nu_pass_reduces_packed_terms(monkeypatch):
    # the spans V_r stay packed: nu calls normal_form, through
    # Ideal.contains, only to check that a is nonzero modulo I, and its
    # first generator already is
    import charp.ideal

    calls = []

    def counted(*args, _fn=charp.ideal.normal_form, **kwargs):
        calls.append(args)
        return _fn(*args, **kwargs)
    monkeypatch.setattr(charp.ideal, "normal_form", counted)
    L = local(3, ("x", "y", "z"), ["x*y - z^2"])
    a = Ideal(L.ring, [L.ring.parse(g) for g in ("x", "y", "z")])
    assert nu_invariant(L, a, 3) == 39
    assert [(str(f), I) for f, I in calls] == [("x", L.ideal0)]


# -- classify ----------------------------------------------------------------

def test_classify_regular():
    flags = classify(local(5, ("x", "y"), []), 2)
    assert flags.regular and flags.f_pure
    assert flags.hilbert_samuel == 1
    assert flags.hl_satisfied is True  # lambda_e - q^d = 0 <= 0


def test_classify_quadric():
    flags = classify(local(7, ("x", "y", "z"), ["x*y - z^2"]), 2)
    assert not flags.regular
    assert flags.f_pure
    assert flags.hilbert_samuel == 2
    assert flags.hl_satisfied
    # the law holds with equality at every e: (2-1)(q^d - a_e) = lambda_e - q^d
    for h, s in zip(flags.hk.records, flags.fsig.records):
        assert h.lam - h.q**2 == s.q**2 - s.a_e


def test_classify_non_fpure_cubic():
    flags = classify(local(5, ("x", "y", "z"), ["x^3+y^3+z^3"]), 2)
    assert not flags.f_pure
    assert flags.fsig.value == 0


def test_classify_predicts_strong_f_regularity_only_when_f_pure():
    # F_2[x,y,z]/(xz, x^2y^2) at the origin: the estimate 3/2 is below the
    # threshold 2, but strong F-regularity implies F-purity, which fails
    flags = classify(local(2, ("x", "y", "z"), ["x*z", "x^2*y^2"]), 2)
    assert not flags.f_pure
    assert flags.hk.value == Fraction(3, 2) < flags.threshold == 2
    assert flags.predicted_sfr_gorenstein is False


def test_classify_hl_law_is_an_equality_on_the_f3_quadric():
    # lambda_e - q^d <= (e(R) - 1)(q^d - a_e): 13 - 9 = 4 = 9 - 5 and
    # 121 - 81 = 40 = 81 - 41
    flags = classify(local(3, ("x", "y", "z"), ["x*y - z^2"]), 2)
    assert [r.lam for r in flags.hk.records] == [13, 121]
    assert [r.a_e for r in flags.fsig.records] == [5, 41]
    assert flags.hilbert_samuel == 2 and flags.hl_satisfied is True


def test_classify_reports_no_hl_law_off_a_complete_intersection():
    # the F_2 ring is not Cohen-Macaulay: its hk estimate 3/2 exceeds e(R) = 1
    flags = classify(local(2, ("x", "y", "z"), ["x*z", "x^2*y^2"]), 2)
    assert flags.hilbert_samuel == 1 and flags.hk.value == Fraction(3, 2)
    assert flags.hl_satisfied is None
    # two planes meeting in a line over F_3 break the law at e = 1, so the
    # hypothesis is needed and a failure off it is no engine bug
    L = local(3, ("x", "y", "z"), ["x*z", "y*z"])
    flags = classify(L, 2)
    lam, a = hk_function(L, 1).lam, splitting_number(L, 1).a_e
    assert lam - 3**L.d > (flags.hilbert_samuel - 1) * (3**L.d - a)
    assert flags.hl_satisfied is None


def test_classify_raises_when_the_hl_law_breaks(monkeypatch):
    # one more free summand at e = 2 than the quadric has breaks 40 <= 40
    import charp.finv as finv

    def one_more_a2(L, e_max, _fn=finv.fsig_estimate):
        est = _fn(L, e_max)
        a1, a2 = est.records
        return est._replace(records=(a1, a2._replace(a_e=a2.a_e + 1)))

    monkeypatch.setattr(finv, "fsig_estimate", one_more_a2)
    with pytest.raises(RuntimeError, match=r"lambda_2 = 121 and a_2 = 42 break"):
        classify(local(3, ("x", "y", "z"), ["x*y - z^2"]), 2)


def test_estimates_raise_when_a_multiplicative_law_breaks(monkeypatch):
    # F^2_*R = F_*(F_*R) needs at most lambda_1^2 generators and has at
    # least a_1^2 free summands; each inflated record keeps Kunz's bound:
    # the node's lambda_2 = 26 >= 9 and the F_3 quadric's a_1 = 7 <= 9
    import charp.finv as finv

    def inflate(name, e, **value):
        real = getattr(finv, name)
        monkeypatch.setattr(finv, name, lambda L, k: real(L, k)._replace(**value) if k == e
                            else real(L, k))

    inflate("hk_function", 2, lam=26)
    with pytest.raises(RuntimeError, match=r"lambda_2 = 26 > lambda_1 lambda_1 = 25 breaks"):
        hk_estimate(local(3, ("x", "y"), ["x*y"]), 2)
    inflate("splitting_number", 1, a_e=7)
    with pytest.raises(RuntimeError, match=r"a_2 = 41 < a_1 a_1 = 49 breaks"):
        fsig_estimate(local(3, ("x", "y", "z"), ["x*y - z^2"]), 2)


@pytest.mark.parametrize("p", [2, 3])
def test_classify_integer_laws_on_random_ideals(p):
    # random ideals at the origin: the HL law is checked exactly at the
    # complete intersections, and in every local ring F^e_*R needs at most
    # lambda_1^2 generators at e = 2 and has at least a_1^2 free summands
    import random

    rng = random.Random(31 + p)
    R = PolyRing(field_new(p), ("x", "y", "z"))
    monos = [m for m in product(range(3), repeat=3) if 0 < sum(m) <= 3]
    checked = {True: 0, None: 0}
    for _ in range(50):
        gens = [R.from_dict({rng.choice(monos): rng.randint(1, p - 1)
                             for _ in range(rng.randint(1, 3))})
                for _ in range(rng.randint(1, 3))]
        L = LocalRingAtPoint(Ideal(R, gens), (0, 0, 0))
        flags = classify(L, 2)
        assert flags.hl_satisfied is (True if _is_ci(L) else None), gens
        checked[flags.hl_satisfied] += 1
        lam = [r.lam for r in flags.hk.records]
        a = [r.a_e for r in flags.fsig.records] + [0]
        assert lam[1] <= lam[0] ** 2 and a[1] >= a[0] ** 2, gens
    assert min(checked.values()) >= 5, checked


def _complexes(n):
    """Every simplicial complex on the vertices 0..n-1, each a vertex, as its
    antichain of minimal non-faces (sets of at least 2 vertices)."""
    sets = [F for k in range(2, n + 1) for F in combinations(range(n), k)]
    for chosen in product((False, True), repeat=len(sets)):
        N = [F for F, c in zip(sets, chosen) if c]
        if not any(set(A) < set(B) for A in N for B in N):
            yield N


def test_stanley_reisner_lambda_and_hl_flag():
    # lambda_e against the face count at p = 2, 3 and e = 1, 2; a monomial
    # ideal is a complete intersection iff its minimal generators have
    # disjoint supports, and exactly there the HL law is checked
    count = ci = 0
    for n in (2, 3, 4):
        names = ("x", "y", "z", "w")[:n]
        for N in _complexes(n):
            count += 1
            disjoint = sum(map(len, N)) == len(set().union(*N))
            ci += disjoint
            for p in (2, 3):
                R = PolyRing(field_new(p), names)
                gens = [R.parse("*".join(names[i] for i in F)) for F in N]
                flags = classify(LocalRingAtPoint(Ideal(R, gens), (0,) * n), 2)
                assert [r.lam for r in flags.hk.records] == \
                    [stanley_reisner_lambda(N, n, p**e) for e in (1, 2)], (N, p)
                assert flags.hl_satisfied is (True if disjoint else None), (N, p)
    assert (count, ci) == (125, 22)  # OEIS A006126: 2 + 9 + 114 complexes


# -- the Frobenius cache on the local ring -----------------------------------

def _counted(monkeypatch):
    """Count the colon and length calls made through `charp.finv`."""
    import charp.finv as finv

    calls = {"colon": 0, "length": 0}
    for name in calls:
        def counted(*args, _fn=getattr(finv, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(finv, name, counted)
    return calls


def test_fsig_walks_the_ci_chain_once(monkeypatch):
    # a_(e+1)'s lambda(S/M) is p^n a_e, and each J_e is one colon
    L = local(3, ("x", "y", "z"), ["x*y - z^2"])
    calls = _counted(monkeypatch)
    est = fsig_estimate(L, 4)
    assert [r.a_e for r in est.records] == [5, 41, 365, 3281]
    assert calls == {"colon": 3, "length": 4}


def test_classify_reads_one_multiplier_per_q(monkeypatch):
    # F-purity is a_1 > 0, read from (I^[3] : I); a_2 adds (I^[9] : I)
    L = local(3, *_TWISTED_CUBIC)
    calls = _counted(monkeypatch)
    flags = classify(L, 2)
    assert flags.f_pure and [r.a_e for r in flags.fsig.records] == [3, 27]
    assert calls["colon"] == 2


def test_pair_grid_reads_one_multiplier_per_q(monkeypatch):
    L = local(3, *_TWISTED_CUBIC)
    a = Ideal(L.ring, [L.ring.parse("x"), L.ring.parse("w")])
    calls = _counted(monkeypatch)
    for t in (Fraction(0), Fraction(1, 3)):
        for e in (1, 2):
            pair_splitting_number(L, a, t, e)
    assert calls == {"colon": 2, "length": 4}


@pytest.mark.parametrize("p, names, srcs", [
    (3, ("x", "y", "z"), ["x*y - z^2"]),
    (3, *_TWISTED_CUBIC),
])
def test_splitting_steps_out_of_order_match_a_fresh_ring(p, names, srcs):
    L = local(p, names, srcs)
    late = splitting_number(L, 3)
    assert [splitting_number(L, e) for e in (1, 2)] == \
        [splitting_number(local(p, names, srcs), e) for e in (1, 2)]
    assert late == splitting_number(local(p, names, srcs), 3)


def test_budget_error_mid_walk_leaves_the_cache_consistent():
    from charp.errors import ResourceBudgetError

    L = local(3, ("x", "y", "z"), ["x*y - z^2"])
    with pytest.raises(ResourceBudgetError), Budget(max_box=1000):
        # e = 3's colon completes; its length's box of 6075 does not
        splitting_number(L, 3)
    assert [k for k in (1, 2, 3) if ("step", L.point, k) in L._shared.items] == [1, 2]
    assert [r.a_e for r in fsig_estimate(L, 4).records] == [5, 41, 365, 3281]


# -- regular points: the Jacobian criterion ----------------------------------

# the CORPUS rings read over F_2 and F_3, and the F_5 rings of the benchmark's
# point sweep: the quadric and twisted cubic cones, and the plane and line
_REGULARITY_RINGS = [
    *((p, vars_, ideal) for p in (2, 3) for vars_, ideal in sorted({(c.vars, c.ideal) for c in CORPUS})),
    (5, "x y z", ("x*y - z^2",)),
    (5, "x y z w", _TWISTED_CUBIC[1]),
    (5, "x y z", ("x*z", "y*z")),
]


def _component(p, vars_, ideal):
    R = PolyRing(field_new(p), tuple(vars_.split()))
    return RingComponent(R, [R.parse(s) for s in ideal])


def _rational_points(comp):
    """Every F_p-rational point of V(I)."""
    return [pt for pt in product(range(comp.ring.p), repeat=comp.ring.nvars)
            if all(g.evaluate(pt) == 0 for g in comp.gens)]


_regularity_params = pytest.mark.parametrize("p, vars_, ideal", [
    pytest.param(p, vars_, ideal, id=f"F_{p}[{vars_}]/({', '.join(ideal)})")
    for p, vars_, ideal in _REGULARITY_RINGS])


@_regularity_params
def test_is_regular_is_lambda_1_equal_to_p_to_d(p, vars_, ideal):
    # Kunz: R_m is regular iff lambda_1 = p^d, read here from the length of
    # S/(I + m^[p]) itself; the oracle takes the Jacobian's rank by numpy
    comp = _component(p, vars_, ideal)
    for pt in _rational_points(comp):
        L = comp.local_at(pt)
        lam_1 = length(ideal_sum(L.ideal0, bracket_power(L.m0, p)))
        assert is_regular(L) == (lam_1 == p**L.d) == is_smooth_point(comp, pt), pt
        assert L._shared.items[("regular", L.point)][0] == is_regular(L)


@_regularity_params
def test_the_engine_route_gives_q_to_d_at_regular_points(monkeypatch, p, vars_, ideal):
    # with the flag bypassed, the Groebner route computes what the regular
    # route returns: lambda_e = a_e = q^d, and F-purity
    import charp.finv

    comp = _component(p, vars_, ideal)
    regular = [pt for pt in _rational_points(comp) if is_regular(comp.local_at(pt))]
    monkeypatch.setattr(charp.finv, "is_regular", lambda L: False)
    for pt in regular:
        L = comp.local_at(pt)
        assert fedder_is_fpure(L), pt
        for e in (1, 2):
            q = p**e
            assert hk_function(L, e).lam == splitting_number(L, e).a_e == q**L.d, (pt, e)


def test_a_regular_point_builds_no_groebner_basis(monkeypatch):
    # past the basis d comes from, hk, fsig and Fedder at a smooth point of
    # the F_5 quadric read the flag alone, to any e
    import charp.ideal

    L = local(5, ("x", "y", "z"), ["x*y - z^2"], (1, 4, 2))
    monkeypatch.setattr(charp.ideal, "_buchberger", None)
    assert is_regular(L) and fedder_is_fpure(L)
    for est in (hk_estimate(L, 6), fsig_estimate(L, 6)):
        assert est.value == 1 and est.confidence == "exact"
        assert [r.q for r in est.records] == [5**e for e in range(1, 7)]
    assert splitting_number(L, 6).a_e == hk_function(L, 6).lam == 5**12
