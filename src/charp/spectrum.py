"""Global invariants over Spec for finite products of polynomial quotients.

A product is given by its factors, a list of components F_p[x_1..x_n]/I
over one p, and a sample is an F_p-rational point of one of them, so the
residue-field degree correction vanishes at every sampled prime and each
sample's normalization exponent is its local dimension.  The global
functions build every sample's local ring, so a sample off its component
is an error, and the one locus test is that ring's dimension against
gamma, the largest component dimension.  The global Hilbert-Kunz value is
a max over the samples that pass it and the global F-signature a min,
which collapses to an exact zero when a component or a sample misses
gamma.  A sampled extremum is a bound, labelled exact only with a proof
over all of Spec: that zero, a certified local s = 0 for the minimum, or
zero ideals, where every point is regular and the value 1.  The note of
an exact value names its proof; any other note names the bound.
The semicontinuity probe compares raw lambda_e at points of one component,
which it alone reads, and blames the engine for a failure only where a
grading orders the points.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import UnitIdealError
from .finv import (
    LocalRingAtPoint,
    fsig_estimate,
    hk_estimate,
    hk_function,
    pair_splitting_number,
    splitting_number,
)
from .ideal import Ideal, Shared, active_budget, krull_dim
from .poly import PolyRing


class RingComponent:
    """One factor F_p[vars]/I of a product presentation, with I, checked
    proper when built, and the dimension of S/I.  It is the unit of shared work:
    one store (`ideal.Shared`) holds its local rings' data, keyed by point,
    and the multipliers (`finv._multiplier`), which they share because
    they depend on I alone.  A local ring is a view of the store, which
    holds no ring.  A budget is charged each item once, the first time it
    reads it."""

    __slots__ = ("ring", "gens", "ideal", "dim", "_shared")

    def __init__(self, ring: PolyRing, gens):
        self.ring = ring
        self.gens = tuple(gens)
        self.ideal = Ideal(ring, self.gens)
        if self.ideal.is_unit():
            raise UnitIdealError("component ideal is the unit ideal")
        self._shared = Shared()
        self.dim = krull_dim(self.ideal)

    def local_at(self, point) -> LocalRingAtPoint:
        """A view of the local ring at point, which reads and keeps its data
        in the component's store."""
        return LocalRingAtPoint(self.ideal, point, self._shared)

    def __repr__(self):
        return f"RingComponent(F_{self.ring.p}[{','.join(self.ring.names)}]/({', '.join(map(str, self.gens))}))"


class PrimeSample(NamedTuple):
    """A rational point on one component (empty point for 0-variable
    components, whose whole Spec is that single point)."""

    component: int
    point: tuple


class GammaData(NamedTuple):
    dims: tuple
    gamma: int
    z_components: tuple
    z_is_spec: bool


def gamma_data(components) -> GammaData:
    """Per-component dimension = gamma (rational closed points have alpha 0),
    the global gamma as their max, and the components attaining it.  The
    components, the factors of the product, are at least one and share
    the characteristic p."""
    if not components:
        raise ValueError("a presentation needs at least one component")
    if len({c.ring.p for c in components}) > 1:
        raise ValueError("all components must share the characteristic")
    dims = tuple(c.dim for c in components)
    gamma = max(dims)
    z = tuple(i for i, d in enumerate(dims) if d == gamma)
    return GammaData(
        dims=dims,
        gamma=gamma,
        z_components=z,
        z_is_spec=len(z) == len(dims),
    )


class GlobalInvariantResult(NamedTuple):
    value: Fraction
    exact: bool
    arg_sample: PrimeSample | None
    per_sample: tuple
    excluded: tuple
    note: str
    gamma: GammaData


def _regular_everywhere(components, gd: GammaData) -> str | None:
    """The proof, if every component attaining gamma, all a sampled extremum
    ranges over, has the zero ideal: every point is regular, where
    e_HK = s = 1."""
    if all(components[i].ideal.is_zero() for i in gd.z_components):
        return ("exact: every component attaining gamma has the zero ideal, "
                "so every point is regular and the value is 1")
    return None


def _local_rings(components, samples) -> list:
    """(sample, its local ring) for each sample; a sample's component index
    must name one of the components."""
    for s in samples:
        if not 0 <= s.component < len(components):
            raise ValueError(f"component index {s.component} out of range "
                             f"(presentation has {len(components)})")
    return [(s, components[s.component].local_at(s.point)) for s in samples]


def global_hk(components, samples, e_max: int) -> GlobalInvariantResult:
    """Max of the local Hilbert-Kunz estimates over the sampled primes of
    local dimension gamma, the one locus test: each sample's local ring on
    `components[s.component]` is built, so a sample that is not a point of
    its component raises, and one of lower local dimension is excluded.
    A sample sees only its own point, so a certified local value proves
    nothing about the max over Spec: the max, at the first sample attaining
    it, is a lower bound for the global value, exact, with a note that says
    so, only when every component attaining gamma has the zero ideal."""
    gd = gamma_data(components)
    rings = _local_rings(components, samples)
    per = tuple((s, hk_estimate(L, e_max)) for s, L in rings if L.d == gd.gamma)
    if not per:
        raise ValueError("no samples lie on the gamma-attaining locus")
    arg, est = max(per, key=lambda t: t[1].value)
    proof = _regular_everywhere(components, gd)
    return GlobalInvariantResult(
        value=est.value, exact=proof is not None, arg_sample=arg, per_sample=per,
        excluded=tuple(s for s, L in rings if L.d != gd.gamma), gamma=gd,
        note=proof or "max over sampled primes: a lower bound for the global "
                      "value under incomplete sampling")


def global_fsig(components, samples, e_max: int) -> GlobalInvariantResult:
    """Min of the local F-signature estimates over the sampled primes, or
    exactly 0 whenever some component, or the local ring at some sample,
    misses the global gamma (the free-rank of every module then grows a
    full power of p too slowly).  Each sample's local ring is built, as in
    `global_hk`, so a sample off its component raises.  The min, at the
    first sample attaining it, is an upper bound for the global value,
    exact, with a note that names the proof, only when a sample certifies
    s = 0 or every component has the zero ideal."""
    gd = gamma_data(components)
    rings = _local_rings(components, samples)
    low = [s for s, L in rings if L.d < gd.gamma]
    if low or not gd.z_is_spec:
        miss = f"the local ring at {low[0].point}" if gd.z_is_spec else "a component"
        return GlobalInvariantResult(
            value=Fraction(0), exact=True, arg_sample=None,
            per_sample=(), excluded=tuple(s for s, _ in rings), gamma=gd,
            note=f"exact 0: {miss} misses the global gamma, so free "
                 "summands are asymptotically negligible")
    if not rings:
        raise ValueError("global_fsig needs at least one sample")
    per = tuple((s, fsig_estimate(L, e_max)) for s, L in rings)
    # a certified local 0 (a_1 = 0) is the minimum, as s >= 0 everywhere
    zero = any(est.value == 0 and est.confidence == "exact" for _, est in per)
    proof = ("exact 0: a sample certifies a_1 = 0, and s >= 0 at every point"
             if zero else _regular_everywhere(components, gd))
    arg, est = min(per, key=lambda t: t[1].value)
    return GlobalInvariantResult(
        value=est.value, exact=proof is not None, arg_sample=arg, per_sample=per,
        excluded=(), gamma=gd,
        note=proof or "min over sampled primes: an upper bound for the global "
                      "value under incomplete sampling")


# ---------------------------------------------------------------------------
# semicontinuity

class SemicontinuityReport(NamedTuple):
    special: tuple  # (point, HKRecord)
    nearby: tuple  # (point, HKRecord) per nearby point
    ok: bool
    note: str


def semicontinuity_probe(comp: RingComponent, special: tuple, nearby,
                         e: int) -> SemicontinuityReport:
    """Check the raw lambda_e(special) >= lambda_e(P) for the nearby points
    P, tuples like special, of the one component comp.  At a rational point
    lambda_e is mu(F^e_* R), and the locus {mu >= k} is cut out by a Fitting
    ideal, homogeneous when every generator is homogeneous in total degree,
    so it holds the origin whenever it holds any point.  Only there is a
    violation an engine bug.  No theorem orders other closed points (Kunz
    1976), so elsewhere the note says so, and a violation names the missing
    order."""
    if not nearby:
        raise ValueError("semicontinuity needs at least one nearby sample")
    sp, *near = [(pt, hk_function(comp.local_at(pt), e)) for pt in [special, *nearby]]
    above = [(pt, rec) for pt, rec in near if rec.lam > sp[1].lam]
    degree = comp.ring.codec.degree
    if not any(a % comp.ring.p for a in special) and all(
            len({degree(m) for _, m, _ in g.packed}) <= 1 for g in comp.gens):
        note = ("VIOLATION: semicontinuity failed; this indicates an engine bug" if above
                else "upper semicontinuity holds on the sample")
    elif above:
        pt, rec = above[0]
        note = (f"lambda_{e} is {sp[1].lam} at {special} and {rec.lam} at "
                f"{pt}, but no theorem orders {special} against {pt}")
    else:
        note = ("lambda_e(special) >= lambda_e(P) on the sample, but no theorem "
                "orders the points: special is not the origin of a graded component")
    return SemicontinuityReport(special=sp, nearby=tuple(near), ok=not above, note=note)


# ---------------------------------------------------------------------------
# flat extension checks

class FlatExtensionReport(NamedTuple):
    rows: tuple  # per e: (HKRecord, SplitRecord) of R, the same of T
    pair_rows: tuple  # per e: the pair's (SplitRecord of R, SplitRecord of T)
    ok: bool


def flat_extension_check(L: LocalRingAtPoint, n_extra_vars: int, e_max: int,
                         pair=None) -> FlatExtensionReport:
    """Adjoin free variables #t1.. (a flat extension T with regular closed
    fiber) and verify, integer-exactly for each e, that lambda scales by q^k
    and the normalized splitting numbers are unchanged."""
    if n_extra_vars < 1:
        raise ValueError("need at least one extra variable")
    budget = active_budget()
    # every box counted over the extension holds at least p^k monomials (the
    # q-th powers of the k new variables alone); charge that first, a factor
    # p at a time, so a huge k stops at the first power of p past the cap
    box = 1
    for _ in range(n_extra_vars):
        box *= L.p
        budget.charge_box(box)
    # no parsed variable name starts with '#'
    ext = L.ring.extend(f"#t{i}" for i in range(1, n_extra_vars + 1))

    def lift(I):  # the new variables' fields follow the old ones, so m stays m
        return Ideal(ext, [ext.from_packed([(m, c) for _, m, c in f.packed]) for f in I.gens])

    LT = LocalRingAtPoint(lift(L.ideal0), L.point + (0,) * n_extra_vars)
    rows = []
    for e in range(1, e_max + 1):
        hr, ht = hk_function(L, e), hk_function(LT, e)
        rows.append(((hr, splitting_number(L, e)), (ht, splitting_number(LT, e))))
    pair_rows = []
    if pair is not None:
        a, t = pair
        a_ext = lift(a)
        pair_rows = [(pair_splitting_number(L, a, t, e), pair_splitting_number(LT, a_ext, t, e))
                     for e in range(1, e_max + 1)]
    ok = all(ht.lam == hr.lam * hr.q**n_extra_vars and st.s_e == sr.s_e
             for (hr, sr), (ht, st) in rows) and \
        all(pt.s_e == pr.s_e for pr, pt in pair_rows)
    return FlatExtensionReport(rows=tuple(rows), pair_rows=tuple(pair_rows), ok=ok)
