"""Local F-invariants at F_p-rational maximal ideals.

The ideal stays in its presentation coordinates; the point a enters only
through its maximal ideal m_a = (x_i - a_i).  Over F_p the Frobenius
bracket of m_a is generator-wise, (x_i - a_i)^q = x_i^q - a_i, so
m_a^[q] = (x_i^q - a_i) is as sparse as m_a itself.  Every quotient the
invariants measure, S/(I + m_a^[q]) for lambda_e and nu and
S/(m_a^[q] : K) for a_e, is supported at the single point a, so its length
over the polynomial ring S is the length over the local ring.  Rational
points have trivial residue-field degree, so every normalization exponent
is the local dimension d = dim R_m: dim(S/I) when n - dim(S/I) generators
present I (a complete intersection is unmixed), else read, with e(R_m),
from the leading ideal of one standard basis of I at the point.

Every function here takes q = p^e and m^[q] from one gate, `_frobenius`,
which refuses e < 1 and rejects a q past EXPONENT_LIMIT before forming p^e.
The records it returns (HKRecord, SplitRecord) carry q and the normalized
values lambda_e/q^d and a_e/q^d, and no other module forms them.

A regular point needs no Groebner basis, length or colon.  R_m is
regular iff the Jacobian of I's generators has rank n - d at the point:
that rank is the dimension of the span of their linear parts in m/m^2
over S, so n minus it is the embedding dimension of R_m.  There
lambda_e = a_e = q^d (Kunz) and R_m is F-pure, and `hk_function`,
`splitting_number`, `fedder_is_fpure` and `classify` read the cached
flag `is_regular` before any other work.  Pairs, nu and
`splitting_ideal` keep their routes, and so does every value at a
singular point.

Each computed estimate checks its records against the multiplicative laws
lambda_(i+j) <= lambda_i lambda_j and a_(i+j) >= a_i a_j, which hold in
every local ring, and raises on a violation, like Kunz's bound.
A limit estimate is labelled exact only under a certificate: lambda_1 = p^d
(R is regular, e_HK = 1), a_1 = p^d (s = 1) or a_1 = 0 (s = 0); any other
is labelled by its last step against the fixed CONVERGENCE_THRESHOLD.
Equal values alone prove nothing: F_2[x,y,z]/(xz, x^2y^2) at the origin
has lambda_e/q^2 = 3/2, 3/2, 21/16, ... and e_HK = e(R) = 1.

`classify` reads its exact flags from the flag and the same records:
regularity is `is_regular`, F-purity a_1 > 0, and where R_m is certified
Cohen-Macaulay (a complete intersection, `_is_ci`) it checks the integer
law of Huneke-Leuschke, lambda_e - q^d <= (e(R) - 1)(q^d - a_e), at every
e and raises on a violation, like Kunz's bound.  Elsewhere the law has no
hypothesis to stand on and is not reported: the F_2 ring above is not
Cohen-Macaulay.  Only the prediction of strong F-regularity reads an
estimate.

F-purity, splitting numbers and pairs read one multiplier (I^[q] : I): by
Fedder's lemma (F^(q-1)), F = f_1...f_c, when the generators are a complete
intersection at the point, else a colon by elimination.  Every splitting
number is one length difference, a_e = lambda(S/M) - lambda(S/(M + U)) for
the splitting ideal I_e = (M : U), checked against 0 <= a_e <= q^d; no
colon ideal is built for it.  A complete intersection walks a chain of
colons by F^(p-1) to M, and `splitting_ideal` builds I_e itself as the
oracle the tests compare against.  A pair (R, a^t) whose a^N is the unit
ideal at the point reads the plain a_e; otherwise its U = a^N (I^[q] : I)
enters the same difference over M = m^[q].

A LocalRingAtPoint is a view of an Ideal that may already hold its
Groebner basis.  Its data lives in one store (`ideal.Shared`), its
component's (`spectrum.RingComponent`), under keys that name the
normalized point a: the standard basis ("leads", a), the regularity
flag ("regular", a), lambda_e ("lam", a, e) and the walk's steps
("step", a, e).  Both multipliers, ("fedder", q) and ("colon", q),
depend on I alone, so each is computed once per q for all of the
component's points.  No function here takes a budget: the work charges
the active one (`with budget:`, see `ideal.Budget`), and a budget is
charged each shared item once, the first time it reads it, what
computing the item cost.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import ExponentOverflowError, ZeroIdealError
from .ideal import (
    Ideal,
    Shared,
    active_budget,
    bracket_power,
    colon,
    ideal_contains_ideal,
    ideal_power,
    ideal_product,
    ideal_sum,
    krull_dim,
    largest_free_sets,
    length,
    local_leading_monomials,
    power_spans,
    standard_count,
)
from .poly import EXPONENT_LIMIT, poly_pow


class LocalRingAtPoint:
    """R = S/I localized at a rational point a of V(I).

    ideal0 is I in presentation coordinates and m0 = (x_i - a_i) is the
    maximal ideal of a; bracket_power(m0, q) = (x_i^q - a_i).  A pair's
    ideal a is read in the same coordinates.  The ring stores nothing
    itself: its data is computed once in `_shared`, the store `shared` of
    its component (a fresh one if None), under keys that name the point.
    """

    __slots__ = ("ring", "gens", "point", "ideal0", "m0", "d", "_shared")

    def __init__(self, ideal: Ideal, point, shared: Shared | None = None):
        ring = ideal.ring
        point = tuple(ring.field.normalize(a) for a in point)
        if len(point) != ring.nvars:
            raise ValueError("point arity does not match the ring")
        for g in ideal.gens:
            if g.evaluate(point) != 0:
                raise ValueError(f"generator {g} does not vanish at {point}")
        self.ring = ring
        self.gens = ideal.gens
        self.point = point
        self.ideal0 = ideal
        self.m0 = Ideal(ring, [x - a for x, a in zip(ring.gens(), point)])
        self._shared = Shared() if shared is None else shared
        with active_budget():  # one budget for both steps, also outside any block
            self.d = self._dimension()

    def _dimension(self) -> int:
        d = krull_dim(self.ideal0)
        if len(self.gens) != self.ring.nvars - d:  # else unmixed: every point has d
            d = len(largest_free_sets(_leads(self), self.ring.nvars)[0])
        return d

    @property
    def p(self) -> int:
        return self.ring.p

    def __repr__(self):
        return f"LocalRingAtPoint({self.ideal0!r} at {self.point})"


def _leads(L: LocalRingAtPoint) -> tuple:
    """The packed leading monomials of a standard basis of I at the point."""
    return L._shared.get(("leads", L.point), lambda: local_leading_monomials(L.ideal0, L.point))


def _rank(rows, p: int) -> int:
    """The rank over F_p of a matrix given by its rows of integers in [0, p):
    each step takes one nonzero row as pivot, clears its first nonzero column
    from the others and drops the rows that vanish."""
    rank, rows = 0, [r for r in rows if any(r)]
    while rows:
        pivot = rows.pop()
        j = next(j for j, v in enumerate(pivot) if v)
        scale = pow(pivot[j], -1, p)
        rows = [r2 for r in rows
                if any(r2 := [(a - r[j] * scale * b) % p for a, b in zip(r, pivot)])]
        rank += 1
    return rank


def is_regular(L: LocalRingAtPoint) -> bool:
    """R_m is regular, by the Jacobian criterion at the rational point a:
    the linear parts of the generators in x - a, the rows
    (df/dx_j (a))_j, span the image of I in m/m^2, so R_m has embedding
    dimension n - rank, and is regular iff the rank is n - d.  Cached for
    the point; it reads d, and builds no Groebner basis of its own."""
    n = L.ring.nvars

    def jacobian():
        rows = [[g.derivative(j).evaluate(L.point) for j in range(n)] for g in L.gens]
        return _rank(rows, L.p) == n - L.d

    return L._shared.get(("regular", L.point), jacobian)


def multiplicity(L: LocalRingAtPoint) -> int:
    """e(R), that of S/L for the leading ideal L at the point: by the
    associativity formula, the sum over L's largest free sets U of the
    standard monomials of L in the other variables once x_U is set to 1."""
    leads, n = _leads(L), L.ring.nvars
    return sum(standard_count(leads, [j for j in range(n) if j not in U])
               for U in largest_free_sets(leads, n))


class HKRecord(NamedTuple):
    e: int
    q: int
    lam: int
    normalized: Fraction


class SplitRecord(NamedTuple):
    e: int
    q: int
    a_e: int
    s_e: Fraction


class LimitEstimate(NamedTuple):
    """Extrapolated limit of a normalized sequence.

    confidence is 'exact' only under a certificate: a normalized value 1 at
    e = 1 (lambda_1 = p^d: R is regular by Kunz, so e_HK = 1; a_1 = p^d:
    free summands push forward, so a_(e+1) >= a_1 a_e, which with
    a_e <= q^d gives a_e = q^d and s = 1), or a_1 = 0 (s = 0).  Otherwise it
    is 'converged' (the last step is below CONVERGENCE_THRESHOLD, a fixed
    0.01) or 'inconclusive', a heuristic label, never a proof: equal values
    need not stay equal, and the error constant of the underlying O(1/q)
    term is not effective.
    """

    value: Fraction
    raw: tuple
    confidence: str
    records: tuple  # the HKRecords or SplitRecords behind raw


# the last step below which an estimate is labelled 'converged'
CONVERGENCE_THRESHOLD = 1e-2


def _extrapolate(records, p: int, lo, hi=None) -> LimitEstimate:
    """The estimate from the records of e = 1, 2, ...: a normalized value 0
    or 1 at e = 1 certifies that limit, and every value must then be it."""
    values = [r.normalized if isinstance(r, HKRecord) else r.s_e for r in records]
    if values[0] in (0, 1):
        if any(v != values[0] for v in values):
            raise RuntimeError(f"normalized values {values} leave {values[0]} after a certificate")
        return LimitEstimate(values[0], tuple(values), "exact", tuple(records))
    # model v_e = v + c/p^e fitted on the last two points, clamped to the
    # invariant's a-priori range (the model can overshoot when the true
    # error term decays faster than 1/q)
    step = values[-1] - values[-2]
    value = values[-1] + step / (p - 1)
    if value < lo:
        value = Fraction(lo)
    if hi is not None and value > hi:
        value = Fraction(hi)
    conf = "converged" if abs(float(step)) < CONVERGENCE_THRESHOLD else "inconclusive"
    return LimitEstimate(value, tuple(values), conf, tuple(records))


def _frobenius(L: LocalRingAtPoint, e: int) -> tuple:
    """(q, m^[q]) for q = p^e with e >= 1: the one place e is checked and
    p^e formed.  p^e >= 2^e, so an e past the bit length of EXPONENT_LIMIT
    is rejected before p^e is formed."""
    if e < 1:
        raise ValueError("e must be at least 1")
    if e > EXPONENT_LIMIT.bit_length():
        raise ExponentOverflowError("Frobenius power q exceeds 32-bit bound")
    q = L.p**e
    return q, bracket_power(L.m0, q)


# ---------------------------------------------------------------------------
# Hilbert-Kunz

def hk_function(L: LocalRingAtPoint, e: int) -> HKRecord:
    """lambda_e = lambda(R/m^[q]R) for q = p^e and e >= 1: q^d at a regular
    point (Kunz), else cached for the point and checked against Kunz's
    lambda_e >= q^d."""
    q, mq = _frobenius(L, e)
    if is_regular(L):
        return HKRecord(e, q, q**L.d, Fraction(1))
    lam = L._shared.get(("lam", L.point, e), lambda: length(ideal_sum(L.ideal0, mq)))
    if lam < q**L.d:
        raise RuntimeError(f"lambda_{e} = {lam} < q^d = {q**L.d} breaks Kunz's bound")
    return HKRecord(e, q, lam, Fraction(lam, q**L.d))


def _products(values) -> list:
    """(i, j, v_i * v_j, v_(i+j)) for 1 <= i <= j and i + j <= e_max, where
    values = v_1..v_(e_max).  F^(i+j)_*R = F^i_*(F^j_*R), so the laws
    lambda_(i+j) <= lambda_i lambda_j (F^j_*R is a quotient of R^(lambda_j))
    and a_(i+j) >= a_i a_j (a free summand of a free summand is free) hold
    in every local ring."""
    return [(i, j, values[i - 1] * values[j - 1], values[i + j - 1])
            for i in range(1, len(values)) for j in range(i, len(values) - i + 1)]


def hk_estimate(L: LocalRingAtPoint, e_max: int) -> LimitEstimate:
    """Normalized Hilbert-Kunz sequence with a 1/q-model extrapolation,
    checked against lambda_(i+j) <= lambda_i lambda_j (`_products`)."""
    if e_max < 2:
        raise ValueError("e_max must be at least 2")
    recs = [hk_function(L, e) for e in range(1, e_max + 1)]
    for i, j, product, lam in _products([r.lam for r in recs]):
        if lam > product:
            raise RuntimeError(f"lambda_{i + j} = {lam} > lambda_{i} lambda_{j} = {product} "
                               "breaks the multiplicative law")
    return _extrapolate(recs, L.p, lo=1)


# ---------------------------------------------------------------------------
# Frobenius splitting

def _is_ci(L: LocalRingAtPoint) -> bool:
    """The c generators of I are a regular sequence at the point iff
    c = n - d: c bounds the local height n - d, and S_m is Cohen-Macaulay.
    A redundant generator list never passes."""
    return len(L.ideal0.gens) == L.ring.nvars - L.d


def _multiplier(L: LocalRingAtPoint, q: int) -> Ideal:
    """(I^[q] : I) up to I^[q], which lies in m^[q]: Fedder's (F^(q-1)) for a
    complete intersection at the point (F = 1 for I = 0), else the colon.
    Both depend on I alone, so both are cached for the component; only the
    choice between them reads the local d."""
    if not _is_ci(L):
        return L._shared.get(("colon", q), lambda: colon(bracket_power(L.ideal0, q), L.ideal0))

    def fedder():
        F = math.prod(L.ideal0.gens, start=L.ring.one())
        return Ideal(L.ring, (poly_pow(F, q - 1),))

    return L._shared.get(("fedder", q), fedder)


def _length_difference(L: LocalRingAtPoint, e: int, q: int, lam: int, M: Ideal, U: Ideal) -> int:
    """a_e = lambda(S/M) - lambda(S/(M + U)) for lam = lambda(S/M), checked
    against 0 <= a_e <= q^d."""
    a = lam - length(ideal_sum(M, U))
    if not 0 <= a <= q**L.d:
        raise RuntimeError(f"a_{e} = {a} is outside [0, q^d = {q**L.d}]")
    return a


def _splitting_step(L: LocalRingAtPoint, e: int):
    """(M, U, a_e) with I_e = (M : U) and a_e = lambda(S/I_e) =
    lambda(S/M) - lambda(S/(M + U)), cached for the point.  A complete
    intersection walks J_0 = m, J_k = (J_(k-1)^[p] : F^(p-1)) to
    M = J_(e-1)^[p]: Frobenius is flat over S, so J_e = (m^[q] : F^(q-1)),
    and the walk's next lambda(S/M) = lambda(S/J_e^[p]) is p^n a_e.
    Otherwise M = m^[q].  The difference is exact on both routes: U = (u) is
    principal on the first, and 0 -> S/(M:u) -u-> S/M -> S/(M+(u)) -> 0 is
    exact; on the second S/m^[q] is an Artinian complete intersection, hence
    Gorenstein, and Matlis duality gives lambda(0 :_A U) = lambda(A/UA) over
    A = S/M.  A step reads what it is built from, the multiplier or the
    step before, first, so its own Charges are its colon and length."""
    q, mq = _frobenius(L, e)  # before the walk recurses
    p, n = L.p, L.ring.nvars
    walk = e > 1 and _is_ci(L)
    if walk:
        M, U, a = _splitting_step(L, e - 1)
        lam = p**n * a
    else:
        M, U, lam = mq, _multiplier(L, q), q**n

    def work():
        Me = bracket_power(colon(M, U), p) if walk else M
        return Me, U, _length_difference(L, e, q, lam, Me, U)

    return L._shared.get(("step", L.point, e), work)


def fedder_is_fpure(L: LocalRingAtPoint) -> bool:
    """Fedder's criterion: F-pure iff (I^[p] : I) is not inside m^[p].  A
    regular ring is F-pure, and reads no multiplier."""
    p, mp = _frobenius(L, 1)
    if is_regular(L):
        return True
    return not ideal_contains_ideal(mp, _multiplier(L, p))


def splitting_ideal(L: LocalRingAtPoint, e: int) -> Ideal:
    """Lift of I_e = (m^[q] : (I^[q] : I)): the elements whose Frobenius
    images all land in m.  The invariants only need its length, which
    `splitting_number` reads without this colon; the ideal is the oracle."""
    M, U, _ = _splitting_step(L, e)
    return colon(M, U)


def splitting_number(L: LocalRingAtPoint, e: int) -> SplitRecord:
    """a_e = lambda(R/I_e), normalized by q^d: q^d at a regular point, where
    F^e_*R is free of rank q^d (Kunz), else the splitting step's."""
    q, _ = _frobenius(L, e)
    a_e = q**L.d if is_regular(L) else _splitting_step(L, e)[2]
    return SplitRecord(e, q, a_e, Fraction(a_e, q**L.d))


def fsig_estimate(L: LocalRingAtPoint, e_max: int) -> LimitEstimate:
    """F-signature estimate from the normalized splitting numbers.

    a_1 = 0 means R is not F-split, hence a_e = 0 for every e and the limit
    is exactly 0; that short-circuit is sound and is taken.  a_1 = p^d
    certifies s = 1 (`LimitEstimate`).  The records are checked against
    a_(i+j) >= a_i a_j (`_products`).
    """
    if e_max < 2:
        raise ValueError("e_max must be at least 2")
    recs = [splitting_number(L, 1)]
    if recs[0].a_e:
        recs += [splitting_number(L, e) for e in range(2, e_max + 1)]
    for i, j, product, a_e in _products([r.a_e for r in recs]):
        if a_e < product:
            raise RuntimeError(f"a_{i + j} = {a_e} < a_{i} a_{j} = {product} "
                               "breaks the multiplicative law")
    return _extrapolate(recs, L.p, lo=0, hi=1)


# ---------------------------------------------------------------------------
# pairs

def pair_splitting_number(L: LocalRingAtPoint, a: Ideal, t, e: int) -> SplitRecord:
    """Splitting number of the pair (R, a^t):
    a_e = lambda(S / (m^[q] : U)) = q^n - lambda(S / (m^[q] + U)) for
    U = a^N * (I^[q]:I), N = ceil(t(q-1)), by duality on S/m^[q].

    S/(m^[q] + U) is supported at the point, so only a^N R_m matters.  When
    N = 0 or a generator of a is a unit there, a^N R_m = R_m and the pair's
    a_e is the plain one, read from `splitting_number`.  When a's k
    generators all vanish at the point and N > k(q-1), each product of N of
    them has some factor g^q, g in m, so a^N lies in m^[q], U is 0 and
    a_e = 0, with no a^N, multiplier or length computed."""
    q, mq = _frobenius(L, e)
    t = Fraction(t)
    if t < 0:
        raise ValueError("t must be non-negative")
    if ideal_contains_ideal(L.ideal0, a):
        raise ZeroIdealError("pair ideal is zero modulo I")
    N = math.ceil(t * (q - 1))
    if N == 0 or any(g.evaluate(L.point) != 0 for g in a.gens):
        return splitting_number(L, e)
    if N > len(a.gens) * (q - 1):
        return SplitRecord(e, q, 0, Fraction(0))
    U = ideal_product(ideal_power(a, N), _multiplier(L, q))
    a_e = _length_difference(L, e, q, q**L.ring.nvars, mq, U)
    return SplitRecord(e, q, a_e, Fraction(a_e, q**L.d))


def nu_invariant(L: LocalRingAtPoint, a: Ideal, e: int) -> int:
    """nu(q) = max{r >= 0 : a^r not inside M = I + m^[q]}, in one pass over
    the spans V_r of the r-fold generator products mod M (`power_spans`):
    a^r lies in M iff V_r = 0.  Each |V_r| <= lambda(S/M) is charged to the
    box budget."""
    _, mq = _frobenius(L, e)
    budget = active_budget()
    if ideal_contains_ideal(L.ideal0, a):
        raise ZeroIdealError("nu of the zero ideal")
    for g in a.gens:
        if g.evaluate(L.point) != 0:
            raise ValueError("a must be contained in the maximal ideal")
    M = ideal_sum(L.ideal0, mq)
    for r, dim in enumerate(power_spans(a.gens, M)):
        if not dim:
            return r
        budget.charge_box(dim)


# ---------------------------------------------------------------------------
# classification

class DiagnosticFlags(NamedTuple):
    regular: bool
    f_pure: bool
    hk: LimitEstimate
    fsig: LimitEstimate
    hilbert_samuel: int
    threshold: Fraction
    predicted_sfr_gorenstein: bool
    hl_satisfied: bool | None  # None where R_m is not certified Cohen-Macaulay
    basis: str = "limit flags are estimate-based, never proved"

    def as_dict(self) -> dict:
        """The flags without the estimates, multiplicity and threshold as text."""
        out = {k: v for k, v in self._asdict().items() if k not in ("hk", "fsig")}
        return {**out, "hilbert_samuel": str(self.hilbert_samuel),
                "threshold": str(self.threshold)}


def classify(L: LocalRingAtPoint, e_max: int) -> DiagnosticFlags:
    """Diagnostic flags, read from the records of `hk_estimate`,
    `fsig_estimate` and `multiplicity`; only `predicted_sfr_gorenstein` reads
    an estimate.

    - `regular` is `is_regular`, the Jacobian criterion; it equals
      lambda_1 = p^d (Kunz).
    - `f_pure` is a_1 > 0.  a_1 = lambda(S/m^[p]) - lambda(S/(m^[p] + U))
      for Fedder's multiplier U = (I^[p] : I), so it is positive exactly when
      U is not inside m^[p], which is Fedder's criterion.
    - `hl_satisfied` is True once the integer law of Huneke-Leuschke,
      lambda_e - q^d <= (e(R) - 1)(q^d - a_e), has been checked at every
      e <= e_max, where R_m is certified Cohen-Macaulay (`_is_ci`); else
      None.  Proof: write F^e_*R as the direct sum of R^(a_e) and M.  It is
      maximal Cohen-Macaulay, so M is too, and mu(M) <= e(m, M) =
      (q^d - a_e) e(R), since e(m, F^e_*R) = q^d e(R) at a rational point
      over the perfect field F_p; and lambda_e = mu(F^e_*R) = a_e + mu(M).
      Divided by q^d, the law tends to (e(R) - 1)(1 - s) >= e_HK - 1.  A
      violation is an engine bug and raises, like Kunz's bound.  Off the
      hypothesis the law can fail: at the origin of F_3[x,y,z]/(xz, yz).
    - `predicted_sfr_gorenstein` is the strict small-multiplicity bound
      e_HK < 1 + max{1/d!, 1/e(R)} on the estimate (the node F_p[x,y]/(xy)
      sits on it, with e_HK = 2, and is not strongly F-regular), for an
      F-pure ring only, since strong F-regularity implies F-purity."""
    hk = hk_estimate(L, e_max)
    fsig = fsig_estimate(L, e_max)
    e_hs = multiplicity(L)
    threshold = 1 + max(Fraction(1, math.factorial(L.d)), Fraction(1, e_hs))
    f_pure = fsig.records[0].a_e > 0
    if cohen_macaulay := _is_ci(L):
        # a_1 = 0 ends fsig's records: R is not F-split, so every a_e is 0
        for r, a_e in zip(hk.records, [s.a_e for s in fsig.records] + [0] * e_max):
            if r.lam - r.q**L.d > (e_hs - 1) * (r.q**L.d - a_e):
                raise RuntimeError(f"lambda_{r.e} = {r.lam} and a_{r.e} = {a_e} break lambda_e - q^d "
                                   f"<= (e(R) - 1)(q^d - a_e) for e(R) = {e_hs}")
    return DiagnosticFlags(
        regular=is_regular(L),
        f_pure=f_pure,
        hk=hk,
        fsig=fsig,
        hilbert_samuel=e_hs,
        threshold=threshold,
        predicted_sfr_gorenstein=f_pure and hk.value < threshold,
        hl_satisfied=True if cohen_macaulay else None,
    )
