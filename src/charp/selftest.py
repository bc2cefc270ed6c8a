"""The golden corpus of `charp selftest`, which the acceptance tests read too:
`CORPUS` rows (a local ring at a rational point and the values it pins,
checked by `check_case`), the non-local checks, and the property families,
each taking an `rng` and an instance count.  A failed check raises
`SelftestError`, which `python -O` keeps, unlike `assert`."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations

from .errors import CharpError
from .finv import (
    LocalRingAtPoint,
    _is_ci,
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
    colon,
    ideal_contains_ideal,
    ideal_equal,
    ideal_power,
    ideal_product,
    ideal_sum,
    length,
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


class SelftestError(CharpError):
    """A computed value disagrees with the golden value or law it is checked on."""


def _expect(ok, message: str) -> None:
    if not ok:
        raise SelftestError(message)


def local_ring(p, vars_, ideal=(), point=None) -> LocalRingAtPoint:
    """F_p[vars_]/(ideal) at `point` (the origin by default); `vars_` reads "x y"."""
    R = PolyRing(field_new(p), tuple(vars_.split()))
    return LocalRingAtPoint(Ideal(R, [R.parse(s) for s in ideal]),
                            point or (0,) * R.nvars)


@dataclass(frozen=True)
class Case:
    """One corpus row: a local ring and the values it pins."""
    criterion: int  # the acceptance criterion that owns the row
    p: int
    vars: str
    ideal: tuple = ()
    point: tuple | None = None  # the origin when None
    lam: dict = field(default_factory=dict)  # e -> lambda_e
    a: dict = field(default_factory=dict)  # e -> a_e
    fedder: bool | None = None  # F-pure, and a_1 > 0 exactly then
    nu: tuple | None = None  # (generators of a, e, nu)
    hk: tuple | None = None  # (limit, tolerance, e_max) of the estimate
    fsig: tuple | None = None
    hs: int | None = None  # e(R) through classify, which checks the HL law at a CI

    def local(self) -> LocalRingAtPoint:
        return local_ring(self.p, self.vars, self.ideal, self.point)

    def __str__(self):
        ideal = f"/({', '.join(self.ideal)})" if self.ideal else ""
        point = ",".join(map(str, self.point or (0,) * len(self.vars.split())))
        return f"F_{self.p}[{','.join(self.vars.split())}]{ideal} at ({point})"


_QUADRIC = ("x*y - z^2",)

CORPUS = (
    # 1. Kunz: lambda_e = q^d exactly on regular local rings, a_e too
    Case(1, 5, "x y", lam={1: 5**2, 2: 5**4, 3: 5**6}),
    Case(1, 7, "x y z", lam={1: 7**3, 2: 7**6}),
    Case(1, 7, "x y z", _QUADRIC, (1, 4, 2), lam={1: 7**2, 2: 7**4}, a={1: 7**2, 2: 7**4}),
    # a line off the plane of (xz, yz): regular of local dimension 1 < dim 2
    Case(1, 5, "x y z", ("x*z", "y*z"), (0, 0, 1), lam={1: 5, 2: 25}, a={1: 5, 2: 25}, hs=1),
    # 2. the node: lambda_e = 2q - 1, e_HK = 2, a_1 = 1, s = 0
    *(Case(2, p, "x y", ("x*y",), lam={1: 2 * p - 1, 2: 2 * p**2 - 1, 3: 2 * p**3 - 1},
           a={1: 1}, hk=(2, 0, 3), fsig=(0, 0, 2))
      for p in (3, 5, 7)),
    # 3. the quadric cone: e_HK = 3/2 (Monsky 1983), s = 1/2, e(R) = 2;
    #    over F_3, nu(m) = 3(q - 1)/2 at e = 3
    *(Case(3, p, "x y z", _QUADRIC, hk=(Fraction(3, 2), Fraction(1, 20), 2),
           fsig=(Fraction(1, 2), Fraction(1, 20), 2), hs=2,
           nu=(("x", "y", "z"), 3, 39) if p == 3 else None)
      for p in (3, 5, 7)),
    # e(R) = 1 although the tangent cone's Hilbert function stays 2 up to degree 9
    Case(3, 5, "x y", ("x^2", "x*y^9"), hs=1),
    # 4. Fedder: the Fermat cubic is F-pure iff p = 1 mod 3; a codim-2 CI
    Case(4, 7, "x y z", ("x^3+y^3+z^3",), fedder=True),
    Case(4, 5, "x y z", ("x^3+y^3+z^3",), fedder=False),
    Case(4, 3, "x y z w u", (*_QUADRIC, "z*w - u^2"), a={1: 5, 2: 97}, fedder=True),
)


def check_case(case: Case) -> None:
    """Check every value `case` pins."""
    L = case.local()
    for e, lam in case.lam.items():
        _expect((got := hk_function(L, e).lam) == lam, f"lambda_{e} = {got}, expected {lam}")
    for e, a_e in case.a.items():
        _expect((got := splitting_number(L, e).a_e) == a_e, f"a_{e} = {got}, expected {a_e}")
    if case.fedder is not None:
        _expect(fedder_is_fpure(L) is case.fedder, "Fedder's criterion")
        _expect((splitting_number(L, 1).a_e > 0) is case.fedder, "a_1 > 0 against Fedder")
    if case.nu is not None:
        gens, e, nu = case.nu
        a = Ideal(L.ring, [L.ring.parse(g) for g in gens])
        _expect((got := nu_invariant(L, a, e)) == nu, f"nu at e = {e} is {got}, expected {nu}")
    for name, estimate, lim in (("hk", hk_estimate, case.hk), ("fsig", fsig_estimate, case.fsig)):
        if lim is not None:
            value, tol, e_max = lim
            got = estimate(L, e_max).value
            _expect(abs(got - value) <= tol, f"{name} limit {got}, expected {value}")
    if case.hs is not None:
        flags = classify(L, case.hk[2] if case.hk else 2)
        _expect(flags.hilbert_samuel == case.hs, f"e(R) = {flags.hilbert_samuel}")
        _expect(flags.hl_satisfied is (True if _is_ci(L) else None), f"hl_satisfied {flags.hl_satisfied}")


def check_products() -> None:
    """Two points: e_HK = 1; a line and a point: s = 0 (the point misses gamma)."""
    F5 = field_new(5)
    pt = RingComponent(PolyRing(F5, ()), [])
    pp = RingPresentation([pt, RingComponent(PolyRing(F5, ()), [])])
    gd = gamma_data(pp)
    _expect(gd.z_components == (0, 1) and gd.z_is_spec, "gamma of two points")
    res = global_hk(pp, [PrimeSample(0, ()), PrimeSample(1, ())], 2)
    _expect(res.value == 1 and res.exact, "global e_HK of two points")
    lp = RingPresentation([RingComponent(PolyRing(F5, ("x",)), []), pt])
    res = global_fsig(lp, [PrimeSample(0, (0,))], 2)
    _expect(res.value == 0 and res.exact, "global s of a line and a point")


def check_flat() -> None:
    """Adjoining a free variable scales lambda_e by q and keeps s_e, e <= 2."""
    for L in (local_ring(5, "x y z", _QUADRIC), local_ring(3, "x y", ("x*y",)),
              local_ring(5, "x y", ("x*y",))):
        rep = flat_extension_check(L, 1, 2)
        _expect(rep.ok, "flat extension report")
        for (hr, sr), (ht, st) in rep.rows:
            _expect(ht.lam == hr.q * hr.lam and st.s_e == sr.s_e,
                    f"flat extension row at q = {hr.q}")


def check_semicontinuity(points=((1, 1, 1), (1, 4, 2), (4, 1, 2), (4, 4, 1))) -> None:
    """Normalized lambda_1 is 1 at smooth points of the F_5 cone, more at 0;
    the default points are (s^2, t^2, st) for (s, t) = (1, 1), (1, 2), (2, 1), (2, 3)."""
    R = PolyRing(field_new(5), ("x", "y", "z"))
    rep = semicontinuity_probe(RingComponent(R, [R.parse(_QUADRIC[0])]), (0, 0, 0), points, 1)
    _expect(rep.ok and len(rep.nearby) == len(points), "semicontinuity report")
    _expect(all(rec.normalized == 1 < rep.special[1].normalized for _, rec in rep.nearby),
            "normalized lambda_1 at the smooth points")


def check_pairs() -> None:
    """a_e and the pair at t = 0 against the duality formula
    q^n - lambda(S/(m^[q] + (I^[q] : I))), the colon by elimination, at
    e = 1, 2 (a complete intersection's walk starts at e = 2); the explicit
    F_p[x] colon at t = 1/2; monotone in t."""
    for L in [case.local() for case in CORPUS] + [local_ring(p, "x") for p in (5, 7)]:
        a = Ideal(L.ring, L.m0.gens[:1])
        for e in (1, 2):
            rec = splitting_number(L, e)
            K = colon(bracket_power(L.ideal0, rec.q), L.ideal0)
            dual = rec.q**L.ring.nvars - length(ideal_sum(bracket_power(L.m0, rec.q), K))
            _expect(rec.a_e == pair_splitting_number(L, a, 0, e).a_e == dual,
                    f"a_{e} and the pair at t = 0 against the duality formula")
    for p in (5, 7):
        L = local_ring(p, "x")
        rec = pair_splitting_number(L, Ideal(L.ring, L.m0.gens), Fraction(1, 2), 2)
        _expect(rec.a_e == rec.q - math.ceil((rec.q - 1) / 2),
                f"pair a_2 = {rec.a_e} over F_{p}[x]")
        _expect(abs(rec.s_e - Fraction(1, 2)) <= Fraction(1, p),
                f"pair s_2 = {rec.s_e} over F_{p}[x]")
    L = local_ring(5, "x y")
    a = Ideal(L.ring, L.m0.gens[:1])
    grid = [pair_splitting_number(L, a, Fraction(k, 4), 1).a_e for k in range(5)]
    _expect(grid == sorted(grid, reverse=True), f"pair grid {grid} is not monotone")


def rand_poly(rng, ring, max_terms=3):
    """A nonzero polynomial of partial degrees <= 2 with up to max_terms terms."""
    d = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        d[mono] = rng.randint(1, ring.p - 1)
    return ring.from_dict(d)


def instance_rings(count, primes=(2, 3, 5)):
    """F_p[x, y] for each of `count` instances, in equal blocks per prime."""
    rings = [PolyRing(field_new(p), ("x", "y")) for p in primes]
    return [rings[i * len(primes) // count] for i in range(count)]


def bracket_laws(rng, count) -> None:
    """(A^[p])^[p] = A^[p^2], (A + B)^[p] = A^[p] + B^[p] and it contains A^[p]."""
    for R in instance_rings(count):
        A = Ideal(R, [rand_poly(rng, R) for _ in range(2)])
        B = Ideal(R, [rand_poly(rng, R) for _ in range(2)])
        A_p, B_p = bracket_power(A, R.p), bracket_power(B, R.p)
        _expect(ideal_equal(bracket_power(A_p, R.p), bracket_power(A, R.p**2)),
                "(A^[p])^[p] = A^[p^2]")
        sum_p = bracket_power(ideal_sum(A, B), R.p)
        _expect(ideal_equal(sum_p, ideal_sum(A_p, B_p)), "(A + B)^[p] = A^[p] + B^[p]")
        _expect(ideal_contains_ideal(sum_p, A_p), "(A + B)^[p] contains A^[p]")


def sandwich(rng, count) -> None:
    """A^(s p) in A^[p] in A^p for A with s generators."""
    for R in instance_rings(count):
        s = rng.randint(1, 2)
        A = Ideal(R, [rand_poly(rng, R, max_terms=2) for _ in range(s)])
        br = bracket_power(A, R.p)
        _expect(ideal_contains_ideal(br, ideal_power(A, s * R.p)), "A^(s p) in A^[p]")
        _expect(ideal_contains_ideal(ideal_power(A, R.p), br), "A^[p] in A^p")


def certificates(rng, count) -> None:
    """Every S-polynomial of a computed basis reduces to zero."""
    for R in instance_rings(count):
        J = Ideal(R, [rand_poly(rng, R) for _ in range(rng.randint(1, 3))])
        for f, g in combinations(J.groebner_basis(), 2):
            _expect(J.contains(s_polynomial(f, g)), "S-polynomial reduces to zero")


def colon_property(rng, count) -> None:
    """(A : B) B lies in A, over F_3."""
    for R in instance_rings(count, (3,)):
        A = Ideal(R, [rand_poly(rng, R) for _ in range(2)])
        B = Ideal(R, [rand_poly(rng, R)])
        _expect(ideal_contains_ideal(A, ideal_product(colon(A, B), B)), "(A : B) B in A")


def node_additivity(rng, count) -> None:
    """lambda_xy(e) = lambda_x(e) + lambda_y(e) - 1 over fixed (p, e); no rng draws."""
    pairs = [(p, e) for p in (3, 5, 7) for e in (1, 2, 3)]
    for p, e in (pairs[i % len(pairs)] for i in range(count)):
        lam = [hk_function(local_ring(p, "x y", (g,)), e).lam for g in ("x*y", "x", "y")]
        _expect(lam[0] == lam[1] + lam[2] - 1, "node additivity")


# (name, family, instances per selftest run)
PROPERTIES = (
    ("bracket-power laws", bracket_laws, 16),
    ("sandwich containments", sandwich, 12),
    ("Buchberger certificates", certificates, 12),
    ("colon defining property", colon_property, 6),
    ("node additivity", node_additivity, 9),
)


def _checks():
    for case in CORPUS:
        yield str(case), partial(check_case, case)
    yield "product rings: global max and the zero rule", check_products
    yield "flat extension equalities", check_flat
    yield "semicontinuity at the cone point", check_semicontinuity
    yield "pair splittings: t = 0, explicit 1-variable, monotone grid", check_pairs
    for name, family, count in PROPERTIES:
        yield f"property suite: {name}", partial(family, random.Random(101), count)


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
