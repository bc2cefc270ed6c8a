"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line and enforcing its stated tolerance and time budget."""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from charp.finv import (
    LocalRingAtPoint,
    fedder_is_fpure,
    fsig_estimate,
    hk_estimate,
    hk_function,
    pair_splitting_number,
    splitting_number,
)
from charp.gf import field_new
from charp.ideal import (
    Ideal,
    bracket_power,
    colon,
    hilbert_samuel,
    ideal_contains_ideal,
    ideal_equal,
    ideal_power,
    ideal_sum,
    normal_form,
    s_polynomial,
)
from charp.poly import PolyRing, poly_pow
from charp.spectrum import (
    PrimeSample,
    RingComponent,
    RingPresentation,
    flat_extension_check,
    gamma_data,
    global_fsig,
    global_hk,
    is_smooth_point,
    semicontinuity_probe,
)

from oracles import ideal_from_monomials, monomial_colon_oracle, standard_count_bruteforce


@contextmanager
def criterion(n, name, budget_s):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {n} ({name}): FAIL")
        raise
    dt = time.time() - t0
    print(f"\nACCEPTANCE {n} ({name}): PASS  [{dt:.1f}s / budget {budget_s}s]")
    assert dt < budget_s, f"criterion {n} exceeded its {budget_s}s budget"


def _local(p, names, srcs, point=None):
    R = PolyRing(field_new(p), tuple(names))
    return LocalRingAtPoint(R, [R.parse(s) for s in srcs],
                            point or (0,) * len(names))


def test_criterion_1_kunz_exactness():
    with criterion(1, "Kunz exactness on regular rings", 10):
        L2 = _local(5, ("x", "y"), [])
        for e in (1, 2, 3):
            assert hk_function(L2, e).lam == 5 ** (2 * e)
        L3 = _local(7, ("x", "y", "z"), [])
        for e in (1, 2):
            assert hk_function(L3, e).lam == 7 ** (3 * e)


def test_criterion_2_node():
    with criterion(2, "node lambda(e) = 2p^e - 1 and limit 2", 30):
        for p in (3, 5, 7):
            L = _local(p, ("x", "y"), ["x*y"])
            for e in (1, 2, 3):
                q = p**e
                lam = hk_function(L, e).lam
                assert lam == 2 * q - 1
                # independent oracle: enumerate standard monomials directly
                assert lam == standard_count_bruteforce([(1, 1)], (q, q))
            est = hk_estimate(L, 3)
            assert est.value == 2
            d1, d2 = est.successive_diffs
            assert abs(float(d2 / d1) - 1 / p) < 0.02


def test_criterion_3_quadric_cross_validation():
    with criterion(3, "quadric cone estimates cross-validate via the "
                      "multiplicity bound", 300):
        for p in (5, 7):
            L = _local(p, ("x", "y", "z"), ["x*y - z^2"])
            hk = hk_estimate(L, 2)
            fs = fsig_estimate(L, 2)
            assert 1.45 <= float(hk.value) <= 1.55
            assert 0.45 <= float(fs.value) <= 0.55
            e_hs = hilbert_samuel(L.ideal0, 6).multiplicity
            assert e_hs == 2
            lhs = (e_hs - 1) * (1 - fs.value)
            rhs = hk.value - 1
            assert lhs >= rhs - Fraction(5, 100)
            assert abs(lhs - rhs) <= Fraction(5, 100)


def test_criterion_4_fedder_dichotomy():
    with criterion(4, "Fedder dichotomy for x^3+y^3+z^3", 60):
        for p, expected in ((7, True), (5, False)):
            L = _local(p, ("x", "y", "z"), ["x^3+y^3+z^3"])
            assert fedder_is_fpure(L) is expected
            a1 = splitting_number(L, 1).a_e
            assert (a1 > 0) is expected
            # independent expansion of f^(p-1) against m^[p]
            f = L.ring.parse("x^3+y^3+z^3")
            fp = poly_pow(f, p - 1)
            outside = any(all(e < p for e in m) for m, _ in fp.terms)
            assert outside is expected


def test_criterion_5_products_and_zero_rule():
    with criterion(5, "product example and the gamma-locus zero rule", 1):
        F5 = field_new(5)
        pt = lambda: RingComponent(PolyRing(F5, ()), [])  # noqa: E731
        pp = RingPresentation([pt(), pt()])
        gd = gamma_data(pp)
        assert gd.z_components == (0, 1) and gd.z_is_spec
        res = global_hk(pp, [PrimeSample(0, ()), PrimeSample(1, ())], 2)
        assert res.value == 1 and res.exact
        line = RingComponent(PolyRing(F5, ("x",)), [])
        lp = RingPresentation([line, pt()])
        zr = global_fsig(lp, [PrimeSample(0, (0,))], 2)
        assert zr.value == 0 and zr.exact


def test_criterion_6_flat_extension_equalities():
    with criterion(6, "flat extension: lambda scales by q, s_e unchanged", 120):
        R = PolyRing(field_new(5), ("x", "y", "z"))
        L = LocalRingAtPoint(R, [R.parse("x*y - z^2")], (0, 0, 0))
        rep = flat_extension_check(L, 1, 2)
        assert rep.ok
        for e, q, lam_r, lam_t, s_r, s_t, lam_ok, s_ok in rep.rows:
            assert lam_t == q * lam_r and s_t == s_r
        for p in (3, 5):
            R2 = PolyRing(field_new(p), ("x", "y"))
            L2 = LocalRingAtPoint(R2, [R2.parse("x*y")], (0, 0))
            rep2 = flat_extension_check(L2, 1, 2)
            assert rep2.ok
            for e, q, lam_r, lam_t, s_r, s_t, _, _ in rep2.rows:
                assert lam_t == q * lam_r and s_t == s_r


def test_criterion_7_semicontinuity():
    with criterion(7, "semicontinuity at the cone point", 60):
        p = 5
        comp = RingComponent(PolyRing(field_new(p), ("x", "y", "z")),
                             [PolyRing(field_new(p), ("x", "y", "z")).parse("x*y - z^2")])
        R = RingPresentation([comp])
        rng = random.Random(2024)
        points = []
        while len(points) < 5:
            s, t = rng.randint(0, p - 1), rng.randint(0, p - 1)
            pt = ((s * s) % p, (t * t) % p, (s * t) % p)
            if pt != (0, 0, 0) and pt not in points:
                points.append(pt)
        assert all(is_smooth_point(comp, pt) for pt in points)
        rep = semicontinuity_probe(R, PrimeSample(0, (0, 0, 0)),
                                   [PrimeSample(0, pt) for pt in points], 1)
        assert rep.ok
        for _, lam, norm in rep.rows:
            assert norm == 1
            assert rep.special_value > norm


def test_criterion_8_pair_sanity():
    with criterion(8, "pair splittings: t = 0 identity, 1-variable limit, "
                      "monotone grid", 60):
        corpus = [
            (5, ("x", "y"), []),
            (5, ("x", "y"), ["x*y"]),
            (5, ("x", "y", "z"), ["x*y - z^2"]),
            (7, ("x", "y", "z"), ["x*y - z^2"]),
            (7, ("x", "y", "z"), ["x^3+y^3+z^3"]),
        ]
        for p, names, srcs in corpus:
            L = _local(p, names, srcs)
            a = Ideal(L.ring, (L.ring.gen(0),))
            assert pair_splitting_number(L, a, 0, 1) == splitting_number(L, 1)
        for p in (5, 7):
            L = _local(p, ("x",), [])
            a = Ideal(L.ring, (L.ring.gen(0),))
            q = p * p
            rec = pair_splitting_number(L, a, Fraction(1, 2), 2)
            assert rec.a_e == q - math.ceil((q - 1) / 2)  # explicit 1-var colon
            assert abs(float(rec.s_e) - 0.5) <= 1 / p
        L = _local(5, ("x", "y"), [])
        a = Ideal(L.ring, (L.ring.gen(0),))
        grid = [pair_splitting_number(L, a, t, 1).a_e
                for t in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)]
        assert grid == sorted(grid, reverse=True)


def test_criterion_9_property_suites():
    with criterion(9, "randomized property suites (>= 200 instances)", 300):
        instances = 0
        rng = random.Random(90125)

        def rand_poly(ring, max_deg=2, max_terms=3):
            d = {}
            for _ in range(rng.randint(1, max_terms)):
                mono = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
                d[mono] = rng.randint(1, ring.p - 1)
            f = ring.from_dict(d)
            return f if not f.is_zero() else ring.one()

        # bracket-power laws (60 instances)
        for p in (2, 3, 5):
            R = PolyRing(field_new(p), ("x", "y"))
            for _ in range(20):
                A = Ideal(R, [rand_poly(R) for _ in range(2)])
                B = Ideal(R, [rand_poly(R) for _ in range(2)])
                assert ideal_equal(bracket_power(bracket_power(A, p), p),
                                   bracket_power(A, p * p))
                assert ideal_equal(
                    bracket_power(ideal_sum(A, B), p),
                    ideal_sum(bracket_power(A, p), bracket_power(B, p)))
                assert ideal_contains_ideal(bracket_power(ideal_sum(A, B), p),
                                            bracket_power(A, p))
                instances += 1

        # sandwich containments I^(sq) in I^[q] in I^q (45 instances)
        for p in (2, 3, 5):
            R = PolyRing(field_new(p), ("x", "y"))
            for _ in range(15):
                s = rng.randint(1, 2)
                A = Ideal(R, [rand_poly(R, max_terms=2) for _ in range(s)])
                br = bracket_power(A, p)
                assert ideal_contains_ideal(br, ideal_power(A, s * p))
                assert ideal_contains_ideal(ideal_power(A, p), br)
                instances += 1

        # Buchberger certificates (55 instances)
        for p in (2, 3, 5):
            R = PolyRing(field_new(p), ("x", "y"))
            count = 19 if p == 2 else 18
            for _ in range(count):
                J = Ideal(R, [rand_poly(R) for _ in range(rng.randint(1, 3))])
                gb = J.groebner_basis()
                for i in range(len(gb)):
                    for j in range(i + 1, len(gb)):
                        assert normal_form(s_polynomial(gb[i], gb[j]), J).is_zero()
                instances += 1

        # colon defining property + monomial oracle (45 instances)
        R = PolyRing(field_new(5), ("x", "y"))
        for _ in range(25):
            gI = [tuple(rng.randint(0, 4) for _ in range(2))
                  for _ in range(rng.randint(1, 3))]
            gJ = [tuple(rng.randint(0, 3) for _ in range(2))
                  for _ in range(rng.randint(1, 2))]
            A = ideal_from_monomials(R, gI)
            B = ideal_from_monomials(R, gJ)
            expected = ideal_from_monomials(R, monomial_colon_oracle(gI, gJ))
            assert ideal_equal(colon(A, B), expected)
            instances += 1
        R3 = PolyRing(field_new(3), ("x", "y"))
        for _ in range(20):
            A = Ideal(R3, [rand_poly(R3) for _ in range(2)])
            B = Ideal(R3, [rand_poly(R3)])
            C = colon(A, B)
            for g in C.gens:
                for h in B.gens:
                    assert normal_form(g * h, A).is_zero()
            instances += 1

        # node additivity at every e <= 3 (9 instances)
        for p in (3, 5, 7):
            R = PolyRing(field_new(p), ("x", "y"))
            Lxy = LocalRingAtPoint(R, [R.parse("x*y")], (0, 0))
            Lx = LocalRingAtPoint(R, [R.parse("x")], (0, 0))
            Ly = LocalRingAtPoint(R, [R.parse("y")], (0, 0))
            for e in (1, 2, 3):
                assert hk_function(Lxy, e).lam == \
                    hk_function(Lx, e).lam + hk_function(Ly, e).lam - 1
                instances += 1

        assert instances >= 200, f"only {instances} randomized instances"
        print(f"\n  property instances exercised: {instances}")


def test_selftest_passes():
    from charp.selftest import run_selftest

    lines = []
    assert run_selftest(lines.append) == 0, "\n".join(lines)
