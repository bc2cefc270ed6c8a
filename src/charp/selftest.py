"""Built-in golden corpus and property mini-suites for `charp selftest`.

Covers the regular rings, the coordinate-cross curve xy, the quadric cone
xy - z^2 (at its vertex and at a smooth point off the origin), the Fermat
cubics at p in {5, 7}, the codimension-2 complete intersection
(xy - z^2, zw - u^2) over F_3, and the F_p x F_p product, plus randomized
algebra properties.  Any violation makes the run fail.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .finv import (
    LocalRingAtPoint,
    classify,
    fedder_is_fpure,
    fsig_estimate,
    hk_estimate,
    hk_function,
    nu_invariant,
    pair_splitting_number,
    splitting_number,
)
from .gf import field_new
from .ideal import (
    Ideal,
    bracket_power,
    ideal_contains_ideal,
    ideal_equal,
    ideal_power,
    ideal_sum,
    normal_form,
    s_polynomial,
)
from .poly import PolyRing
from .spectrum import (
    PrimeSample,
    RingComponent,
    RingPresentation,
    flat_extension_check,
    gamma_data,
    global_fsig,
    global_hk,
    semicontinuity_probe,
)


def _local(p, names, srcs, point=None):
    R = PolyRing(field_new(p), tuple(names))
    gens = [R.parse(s) for s in srcs]
    return LocalRingAtPoint(R, gens, point or (0,) * len(names))


def _checks():
    yield "kunz exactness, regular rings", _check_kunz
    yield "smooth points off the origin: lambda_e = a_e = q^d", _check_smooth_off_origin
    yield "node lambda(e) = 2q - 1 and limit 2", _check_node
    yield "quadric cone estimates and multiplicity bound", _check_quadric
    yield "Fedder dichotomy for the Fermat cubic", _check_fedder
    yield "codimension-2 complete intersection: a_1 = 5, a_2 = 97", _check_ci
    yield "nu of the maximal ideal of the F_3 quadric at e = 3", _check_nu
    yield "product rings: global max and the zero rule", _check_products
    yield "flat extension equalities", _check_flat
    yield "semicontinuity at the cone point", _check_semicontinuity
    yield "pair splittings: t = 0, explicit 1-variable, monotone grid", _check_pairs
    yield "property suite: bracket-power laws", _check_bracket_laws
    yield "property suite: sandwich containments", _check_sandwich
    yield "property suite: Buchberger certificates", _check_certificates
    yield "property suite: colon defining property", _check_colon
    yield "property suite: node additivity", _check_additivity


def _check_kunz():
    L = _local(5, ("x", "y"), [])
    assert all(hk_function(L, e).lam == 5 ** (2 * e) for e in (1, 2, 3))
    L = _local(7, ("x", "y", "z"), [])
    assert all(hk_function(L, e).lam == 7 ** (3 * e) for e in (1, 2))


def _check_smooth_off_origin():
    L = _local(7, ("x", "y", "z"), ["x*y - z^2"], (1, 4, 2))
    for e in (1, 2):
        q = 7**e
        assert hk_function(L, e).lam == splitting_number(L, e).a_e == q**L.d


def _check_node():
    for p in (3, 5, 7):
        L = _local(p, ("x", "y"), ["x*y"])
        assert all(hk_function(L, e).lam == 2 * p**e - 1 for e in (1, 2, 3))
        assert hk_estimate(L, 3).value == 2
        assert splitting_number(L, 1).a_e == 1
        assert fsig_estimate(L, 2).value == 0


def _check_quadric():
    for p in (5, 7):
        L = _local(p, ("x", "y", "z"), ["x*y - z^2"])
        hk = hk_estimate(L, 2)
        fs = fsig_estimate(L, 2)
        assert abs(float(hk.value) - 1.5) < 0.05
        assert abs(float(fs.value) - 0.5) < 0.05
        flags = classify(L, 2)
        assert flags.hilbert_samuel == 2
        assert flags.hl_satisfied and flags.hl_near_equality


def _check_fedder():
    L7 = _local(7, ("x", "y", "z"), ["x^3+y^3+z^3"])
    L5 = _local(5, ("x", "y", "z"), ["x^3+y^3+z^3"])
    assert fedder_is_fpure(L7) and splitting_number(L7, 1).a_e > 0
    assert not fedder_is_fpure(L5) and splitting_number(L5, 1).a_e == 0


def _check_ci():
    L = _local(3, ("x", "y", "z", "w", "u"), ["x*y - z^2", "z*w - u^2"])
    assert [splitting_number(L, e).a_e for e in (1, 2)] == [5, 97]
    assert fedder_is_fpure(L)


def _check_nu():
    L = _local(3, ("x", "y", "z"), ["x*y - z^2"])
    assert nu_invariant(L, L.m0, 3) == 39  # 3(q - 1)/2


def _check_products():
    point = RingComponent(PolyRing(field_new(5), ()), [])
    line = RingComponent(PolyRing(field_new(5), ("x",)), [])
    pp = RingPresentation([point, RingComponent(PolyRing(field_new(5), ()), [])])
    gd = gamma_data(pp)
    assert gd.z_components == (0, 1)
    res = global_hk(pp, [PrimeSample(0, ()), PrimeSample(1, ())], 2)
    assert res.value == 1 and res.exact
    lp = RingPresentation([line, point])
    res = global_fsig(lp, [PrimeSample(0, (0,))], 2)
    assert res.value == 0 and res.exact


def _check_flat():
    R = PolyRing(field_new(5), ("x", "y", "z"))
    L = LocalRingAtPoint(R, [R.parse("x*y - z^2")], (0, 0, 0))
    assert flat_extension_check(L, 1, 2).ok
    R2 = PolyRing(field_new(3), ("x", "y"))
    L2 = LocalRingAtPoint(R2, [R2.parse("x*y")], (0, 0))
    assert flat_extension_check(L2, 1, 2).ok


def _check_semicontinuity():
    comp = RingComponent(
        PolyRing(field_new(5), ("x", "y", "z")),
        [PolyRing(field_new(5), ("x", "y", "z")).parse("x*y - z^2")],
    )
    R = RingPresentation([comp])
    nearby = [PrimeSample(0, ((s * s) % 5, (t * t) % 5, (s * t) % 5))
              for s, t in [(1, 1), (1, 2), (2, 1), (2, 3), (3, 4)]]
    rep = semicontinuity_probe(R, PrimeSample(0, (0, 0, 0)), nearby, 1)
    assert rep.ok and rep.special_value > 1
    assert all(norm == 1 for _, _, norm in rep.rows)


def _check_pairs():
    import math

    for p, names, srcs in [(5, ("x", "y"), ["x*y"]),
                           (7, ("x", "y", "z"), ["x*y - z^2"]),
                           (5, ("x",), [])]:
        L = _local(p, names, srcs)
        a = Ideal(L.ring, (L.ring.gen(0),))
        assert pair_splitting_number(L, a, 0, 1) == splitting_number(L, 1)
    for p in (5, 7):
        L = _local(p, ("x",), [])
        a = Ideal(L.ring, (L.ring.gen(0),))
        q = p * p
        rec = pair_splitting_number(L, a, Fraction(1, 2), 2)
        assert rec.a_e == q - math.ceil((q - 1) / 2)
        assert abs(float(rec.s_e) - 0.5) <= 1 / p
    L = _local(5, ("x", "y"), [])
    a = Ideal(L.ring, (L.ring.gen(0),))
    grid = [pair_splitting_number(L, a, t, 1).a_e
            for t in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)]
    assert grid == sorted(grid, reverse=True)


def _rand_poly(rng, ring, max_deg=2, max_terms=3):
    d = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        d[mono] = rng.randint(1, ring.p - 1)
    f = ring.from_dict(d)
    return f if not f.is_zero() else ring.one()


def _check_bracket_laws():
    rng = random.Random(101)
    for p in (2, 3):
        R = PolyRing(field_new(p), ("x", "y"))
        for _ in range(8):
            A = Ideal(R, [_rand_poly(rng, R) for _ in range(2)])
            B = Ideal(R, [_rand_poly(rng, R) for _ in range(2)])
            assert ideal_equal(bracket_power(bracket_power(A, p), p),
                               bracket_power(A, p * p))
            assert ideal_equal(bracket_power(ideal_sum(A, B), p),
                               ideal_sum(bracket_power(A, p), bracket_power(B, p)))


def _check_sandwich():
    rng = random.Random(103)
    for p in (2, 3):
        R = PolyRing(field_new(p), ("x", "y"))
        for _ in range(6):
            s = rng.randint(1, 2)
            A = Ideal(R, [_rand_poly(rng, R) for _ in range(s)])
            br = bracket_power(A, p)
            assert ideal_contains_ideal(br, ideal_power(A, s * p))
            assert ideal_contains_ideal(ideal_power(A, p), br)


def _check_certificates():
    rng = random.Random(107)
    R = PolyRing(field_new(3), ("x", "y"))
    for _ in range(8):
        J = Ideal(R, [_rand_poly(rng, R) for _ in range(2)])
        gb = J.groebner_basis()
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                assert normal_form(s_polynomial(gb[i], gb[j]), J).is_zero()


def _check_colon():
    from .ideal import colon

    rng = random.Random(109)
    R = PolyRing(field_new(3), ("x", "y"))
    for _ in range(6):
        A = Ideal(R, [_rand_poly(rng, R) for _ in range(2)])
        B = Ideal(R, [_rand_poly(rng, R)])
        C = colon(A, B)
        for g in C.gens:
            for h in B.gens:
                assert normal_form(g * h, A).is_zero()


def _check_additivity():
    # lambda_{xy}(e) = lambda_x(e) + lambda_y(e) - 1 at every e <= 3
    for p in (3, 5, 7):
        R = PolyRing(field_new(p), ("x", "y"))
        Lxy = LocalRingAtPoint(R, [R.parse("x*y")], (0, 0))
        Lx = LocalRingAtPoint(R, [R.parse("x")], (0, 0))
        Ly = LocalRingAtPoint(R, [R.parse("y")], (0, 0))
        for e in (1, 2, 3):
            lam = hk_function(Lxy, e).lam
            assert lam == hk_function(Lx, e).lam + hk_function(Ly, e).lam - 1


def run_selftest(out=print) -> int:
    """Run the corpus; returns 0 when everything passes."""
    failures = 0
    for name, check in _checks():
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            out(f"FAIL  {name}: {type(exc).__name__}: {exc}")
        else:
            out(f"ok    {name}")
    out(f"selftest: {'PASS' if failures == 0 else f'{failures} FAILURE(S)'}")
    return 0 if failures == 0 else 1
