"""Groebner bases and ideal arithmetic over F_p[x_1..x_n].

Buchberger's algorithm with the normal pair-selection strategy (degree of
the lcm, then the monomial order, then pair indices) and the Gebauer-Moeller
pair update (criteria B, M and F and the product criterion).  Output bases
are reduced, hence canonical for a fixed ideal and order; every downstream
report inherits its determinism from that.

The engine reduces polynomials in the form `poly` stores them: each term
is (order key, packed monomial, coefficient), a packed monomial being one
integer with a bit-field per variable, so multiplication is integer
addition and divisibility is a guarded subtraction.  Order keys are the
ring's `MonomialOrder.key` of the packed monomial, which is linear, so the
key of a product is the sum of the keys.  A basis is read as its
polynomials' own terms, never repacked or copied.  No monomial here is an
exponent tuple: a pair's lcm is keyed as packed, `intersect` and Lazard's
homogenization move monomials by whole fields, and the counting layer
(`standard_count`, `largest_free_sets`, `length`, `krull_dim`) reads packed
leads, a variable set to 1 being a field masked to 0.

Terms are summed in `poly._TermSum`, the accumulator of all term
arithmetic.  Normal forms reduce into it, each S-polynomial is the sum of
its two shifted tails (`_s_sum`, which `s_polynomial` shares), and
`exact_divide` pops its quotient terms from it.
The key is injective on the exponents a polynomial admits, and the
remainder against a fixed ordered basis does not depend on how the running
sum is stored.

Reducers are found by one lead-divisibility index, `_Divisors`: per
variable, the sorted distinct lead exponents with a bitset of the basis
elements at or below each.  The leads dividing a monomial are the AND of
one bitset per variable, and the lowest set bit is the first of them in
basis order, the reducer a linear scan would pick.  The growing basis, the
final interreduction and `normal_form` all use it.  The pair update asks it
which leads a new lead divides, and reads from it the pure powers of the
monomial colon of the live leads by the new lead, which bound the leads
the new pairs can come from (`_new_pairs`).

`intersect` eliminates a fresh variable t (Becker-Weispfenning, 6.2):
given the block, `_buchberger` returns the reduced basis of the elements
free of t and interreduces only those.  `colon` keeps one running colon K
and takes each generator g of J by one elimination, K meet (I : g) =
(I intersect g*K) / g, or by none when g*K already lies in I, which normal
forms modulo I's basis decide.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from itertools import combinations, combinations_with_replacement, groupby, islice
from typing import NamedTuple

from .errors import (
    ExponentOverflowError,
    NotAPowerOfPError,
    ResourceBudgetError,
    UnitIdealError,
)
from .poly import (
    _FIELD_BITS,
    _FIELD_MASK,
    EXPONENT_LIMIT,
    MonomialOrder,
    Polynomial,
    PolyRing,
    _monic,
    _TermSum,
    poly_pow,
)

INFINITE = math.inf


class Charges(NamedTuple):
    """What one piece of work charged its budget: the pairs it popped and
    the largest basis and box it charged."""

    pairs: int = 0
    basis: int = 0
    box: int = 0


class Budget:
    """Resource caps plus usage counters, scoped like decimal.localcontext:
    inside `with budget:` every Buchberger run, standard-monomial count, nu
    pass, translation to a point and flat-extension box charges `budget`.
    Blocks nest, and leaving one, also by an exception, restores the budget
    it replaced.  Outside any block each such call charges a fresh default
    Budget.

    Work done once and read many times lives in a `Shared` store, which
    charges a budget each item once, the first time it reads it, so a
    budget's counters do not depend on who did the work first."""

    # the default caps, which the job keys' defaults read (`jobs._KEY_TYPES`)
    max_basis = 2000
    max_pairs = 200_000
    max_box = 1_000_000

    def __init__(self, max_basis=max_basis, max_pairs=max_pairs, max_box=max_box):
        self.max_basis, self.max_pairs, self.max_box = max_basis, max_pairs, max_box
        self.used_basis = self.used_pairs = self.used_box = 0
        self.charged: set = set()  # the (store, key) of each shared item paid for

    def charge_basis(self, n: int):
        self.used_basis = max(self.used_basis, n)
        if n > self.max_basis:
            raise ResourceBudgetError("basis size", n, self.max_basis)

    def charge_pair(self):
        self.used_pairs += 1
        if self.used_pairs > self.max_pairs:
            raise ResourceBudgetError("pair count", self.used_pairs, self.max_pairs)

    def charge_box(self, n: int):
        self.used_box = max(self.used_box, n)
        if n > self.max_box:
            raise ResourceBudgetError("standard monomial box", n, self.max_box)

    def snapshot(self) -> dict:
        """The caps and counters."""
        return dict(max_basis=self.max_basis, max_pairs=self.max_pairs, max_box=self.max_box,
                    used_basis=self.used_basis, used_pairs=self.used_pairs, used_box=self.used_box)

    def __repr__(self):
        return f"Budget({', '.join(f'{k}={v}' for k, v in self.snapshot().items())})"

    def __enter__(self):
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.pop()


_ACTIVE: list = []  # the entered budgets, innermost last


def active_budget() -> Budget:
    """The budget of the innermost `with` block, or a fresh default one."""
    return _ACTIVE[-1] if _ACTIVE else Budget()


class Shared:
    """Work computed once and read under many budgets: key -> (value, the
    Charges computing it made).  `get` charges the active budget each item
    once, the first time it reads it, what computing the item charged, so
    every budget pays what doing the work itself would cost.  Work that
    reads another item reads it first, outside the call, or its Charges
    would hold that item's too."""

    __slots__ = ("items",)

    def __init__(self):
        self.items: dict = {}

    def get(self, key, work):
        """Item `key`, computed by work() under the active budget if no
        budget has.  Where the stored Charges would pass a cap, the work is
        done again, which raises the real budget error.  An item is stored
        only once it completes, so a budget error leaves the store as it was."""
        budget = active_budget()
        value, done = self.items.get(key, (None, None))
        if (self, key) in budget.charged:
            return value
        if done is not None and (budget.used_pairs + done.pairs <= budget.max_pairs
                                 and done.basis <= budget.max_basis and done.box <= budget.max_box):
            budget.used_pairs += done.pairs
            budget.used_basis = max(budget.used_basis, done.basis)
            budget.used_box = max(budget.used_box, done.box)
        else:  # not computed yet, or computed again to raise the real error
            pairs, basis, box = budget.used_pairs, budget.used_basis, budget.used_box
            budget.used_basis = budget.used_box = 0  # so the peaks are work's own
            try:
                with budget:
                    value = work()
                done = Charges(budget.used_pairs - pairs, budget.used_basis, budget.used_box)
            finally:
                budget.used_basis = max(basis, budget.used_basis)
                budget.used_box = max(box, budget.used_box)
            value = self.items.setdefault(key, (value, done))[0]
        budget.charged.add((self, key))
        return value


# ---------------------------------------------------------------------------
# lead-divisibility index and reduction

class _Divisors:
    """Lead-divisibility index over a list of packed leads.

    For each variable it keeps the sorted distinct lead exponents and, per
    exponent, the bitset of list indices whose lead is at or below it in
    that variable.  The leads dividing m are then the AND of one bitset per
    variable, each found by bisection, and the lowest set bit is the first
    divisor in list order, the one a linear scan would find."""

    __slots__ = ("shifts", "vals", "bits", "all")

    def __init__(self, n: int, leads=()):
        self.shifts = tuple(j * _FIELD_BITS for j in range(n))
        self.vals: list = [[] for _ in range(n)]
        self.bits: list = [[] for _ in range(n)]
        self.all = 0  # bitset of every index
        for m in leads:
            self.add(m)

    def add(self, m: int):
        """Index packed lead m as the next list entry."""
        bit = self.all + 1
        self.all |= bit
        for s, vals, bits in zip(self.shifts, self.vals, self.bits):
            e = (m >> s) & _FIELD_MASK
            pos = bisect_left(vals, e)
            if pos == len(vals) or vals[pos] != e:
                vals.insert(pos, e)
                bits.insert(pos, bits[pos - 1] if pos else 0)
            for at in range(pos, len(bits)):
                bits[at] |= bit

    def first(self, m: int, skip: int = 0) -> int:
        """The lowest index whose lead divides packed m, leaving out the
        indices in the bitset skip; -1 if there is none."""
        acc = self.all & ~skip
        for s, vals, bits in zip(self.shifts, self.vals, self.bits):
            pos = bisect_right(vals, (m >> s) & _FIELD_MASK)
            if not pos:
                return -1
            acc &= bits[pos - 1]
            if not acc:
                return -1
        return (acc & -acc).bit_length() - 1

    def multiples(self, m: int) -> int:
        """The bitset of the indices whose lead packed m divides."""
        acc = self.all
        for s, vals, bits in zip(self.shifts, self.vals, self.bits):
            pos = bisect_left(vals, (m >> s) & _FIELD_MASK)
            if pos:
                acc &= ~bits[pos - 1]
        return acc

    def below(self, m: int) -> list:
        """Per variable, the bitset of the indices whose lead is at or below
        packed m in that variable."""
        out = []
        for s, vals, bits in zip(self.shifts, self.vals, self.bits):
            pos = bisect_right(vals, (m >> s) & _FIELD_MASK)
            out.append(bits[pos - 1] if pos else 0)
        return out

    def least(self, j: int, among: int) -> tuple:
        """For the least exponent c of x_j among the indices in the nonempty
        bitset among: the bitsets of the indices at or below c in x_j, and
        of those below c.  A binary search, as the bitsets grow with c."""
        bits = self.bits[j]
        lo, hi = 0, len(bits) - 1
        while lo < hi:
            mid = (lo + hi) >> 1
            if bits[mid] & among:
                hi = mid
            else:
                lo = mid + 1
        return bits[lo], bits[lo - 1] if lo else 0


def _members(bits: int) -> list:
    """The indices in a bitset, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _new_pairs(divs: _Divisors, live: int, leads, h: int, eng) -> list:
    """The pairs (degree, i, lcm) a new lead h, which no lead in divs
    divides, makes with the live leads (the bitset live of indices into
    leads) under criteria M and F: for each minimal generator g of the
    monomial colon (L : h), L the ideal of the live leads, the first live i
    in (degree, index) order with lcm(leads[i], h) = h*g, unless those two
    leads are coprime.

    The candidates come from the index, not from every live lead.  Where
    x_j^c is the least power of x_j in (L : h), c + h_j is the least x_j
    exponent among the live leads at or below h in every other variable,
    and the first of those at or below h_j + c in x_j gives that
    generator.  Every other minimal generator has x_j-degree below c, so
    its first lead is at or below h*x_j^(c-1) in each such variable j.  A
    colon with no pure power leaves every live lead a candidate."""
    below = divs.below(h)
    after = [live] * (len(below) + 1)  # live and at or below h from variable j on
    for j in range(len(below) - 1, -1, -1):
        after[j] = after[j + 1] & below[j]
    cand, firsts, before = live, 0, -1
    for j, b in enumerate(below):
        others = before & after[j + 1]
        before &= b
        if others:
            at, under = divs.least(j, others)
            first = others & at
            firsts |= first & -first
            cand &= under
    lcm, degree, div = eng.lcm, eng.degree, eng.div
    new = []
    for i in _members(cand | firsts):
        l = lcm(leads[i], h)
        new.append((degree(l), i, l))
    new.sort()
    kept: list = []  # lcms of the new pairs no other one divides
    out = []
    for deg, i, l in new:
        if any(div(l, m) is not None for m in kept):
            continue
        kept.append(l)
        if l != leads[i] + h:  # leads not coprime
            out.append((deg, i, l))
    return out


def _reduce_full(acc: _TermSum, basis, divs: _Divisors, skip: int = 0):
    """Full normal form of the sum in acc against basis entries, each a
    monic descending (key, mono, coeff) list indexed by divs, leaving out
    the entries in the bitset skip; returns the remainder as such a list.
    Heads pop in strictly descending order, so each is looked up once."""
    p = acc.p
    first = divs.first
    out = []
    while (head := acc.pop()) is not None:
        k0, m0, c0 = head
        idx = first(m0, skip)
        if idx < 0:
            out.append(head)
            continue
        terms = basis[idx]
        acc.add(islice(terms, 1, None), k0 - terms[0][0], m0 - terms[0][1], p - c0)
    return out


def _s_sum(fi, fj, l: int, lkey: int, p: int) -> _TermSum:
    """The S-polynomial of the monic term lists fi and fj, whose leads have
    the lcm l of order key lkey, as a running sum.  Its leading terms
    cancel, so only the two shifted tails are added."""
    acc = _TermSum(p)
    acc.add(islice(fi, 1, None), lkey - fi[0][0], l - fi[0][1], 1)
    acc.add(islice(fj, 1, None), lkey - fj[0][0], l - fj[0][1], p - 1)
    return acc


def _buchberger(gens, ring: PolyRing, eliminate: int = 0):
    """The reduced Groebner basis of gens, descending.  Each new element
    updates the pair queue as Gebauer and Moeller do (J. Symbolic Comput. 6,
    1988; Becker-Weispfenning, ch. 5): criterion B kills queued pairs, the
    new pairs keep one of each minimal lcm (criteria M and F) and drop
    coprime leads, and elements whose lead the new lead divides make no
    further pairs.  The minimal lcms of a new lead h are h times the
    minimal generators of the monomial colon of the live leads by h
    (Caboara-Kreuzer-Robbiano, J. Symbolic Comput. 38, 2004), and
    `_new_pairs` finds them through the lead index, not by a scan of every
    live lead.

    With eliminate = k > 0 the order must eliminate the first k variables,
    and the result is the reduced basis of the elements free of them, the
    elimination ideal's (Becker-Weispfenning, 6.2).  Only those elements
    are interreduced: a lead free of the block divides no monomial that is
    not, so their tails meet no other reducer."""
    budget = active_budget()
    eng = ring.codec
    field = ring.field
    p = ring.p
    key, div, lcm = ring.order.key, eng.div, eng.lcm
    basis: list = []
    leads: list = []  # the lead of each basis element
    divs = _Divisors(ring.nvars)  # the leads of basis, for reduction and the update
    live = 0  # the bitset of the elements whose lead no later lead divides
    heap: list = []  # (deg, key, i, j, packed) of each queued pair's lcm
    queued: dict = {}  # (i, j) -> packed lcm of each queued pair still alive

    def add(r):
        nonlocal live
        r = _monic(r, field)
        h = r[0][1]
        k = len(basis)
        for (i, j), l in list(queued.items()):  # criterion B
            if (div(l, h) is not None and l != lcm(leads[i], h)
                    and l != lcm(leads[j], h)):
                del queued[i, j]
        for deg, i, l in _new_pairs(divs, live, leads, h, eng):
            heapq.heappush(heap, (deg, key(l), i, k, l))
            queued[i, k] = l
        live = live & ~divs.multiples(h) | 1 << k
        basis.append(r)
        leads.append(h)
        divs.add(h)
        budget.charge_basis(len(basis))

    for f in gens:
        r = _reduce_full(_TermSum(p, f.packed), basis, divs)
        if r:
            add(r)

    while heap:
        _, lkey, i, j, l = heapq.heappop(heap)
        if queued.pop((i, j), None) is None:
            continue  # killed by criterion B after it was queued
        budget.charge_pair()
        r = _reduce_full(_s_sum(basis[i], basis[j], l, lkey, p), basis, divs)
        if r:
            add(r)

    # the live elements form a minimal basis; tail-reduce each by the others
    block = (1 << eliminate * _FIELD_BITS) - 1  # the block's exponent fields
    live = [i for i in _members(live) if not leads[i] & block]
    dead = divs.all
    for i in live:
        dead ^= 1 << i
    for i in live:
        basis[i] = _reduce_full(_TermSum(p, basis[i]), basis, divs, dead | 1 << i)
    minimal = sorted((basis[i] for i in live), key=lambda t: t[0][0], reverse=True)
    return tuple(Polynomial(ring, tuple(t)) for t in minimal)


# ---------------------------------------------------------------------------
# ideals

class Ideal:
    """Generator list with a write-once cache of its reduced Groebner basis
    and of that basis's lead index, for the reduction engine."""

    __slots__ = ("ring", "gens", "_gb", "_divs")

    def __init__(self, ring: PolyRing, gens):
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero())
        self._gb = None
        self._divs = None

    def groebner_basis(self):
        if self._gb is None:
            self._gb = _buchberger(self.gens, self.ring)
        return self._gb

    def is_unit(self) -> bool:
        gb = self.groebner_basis()
        return bool(gb) and not gb[0].packed[0][1]

    def is_zero(self) -> bool:
        return not self.gens

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero()

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens) or '0'})"


def _packed_basis(I: Ideal) -> tuple:
    """The packed terms of I's reduced Groebner basis, and its lead index."""
    gb = I.groebner_basis()
    if I._divs is None:
        I._divs = _Divisors(I.ring.nvars, [g.packed[0][1] for g in gb])
    return [g.packed for g in gb], I._divs


def normal_form(f: Polynomial, I: Ideal) -> Polynomial:
    """The unique fully reduced remainder of f modulo I."""
    return Polynomial(I.ring, tuple(_reduce_full(_TermSum(I.ring.p, f.packed), *_packed_basis(I))))


def power_spans(gens, I: Ideal):
    """Yield dim_k (a^r + I)/I for r = 1, 2, ..., a = (gens), without end.

    V_0 = {1}, and V_r is an echelon basis of the normal forms modulo I of
    g*v, g in gens and v in V_(r-1): it spans the image of a^r.  Vectors
    stay packed term lists; each product is summed in one _TermSum and
    reduced by I's basis, and the pivots are keyed by their leads' order
    keys.  V_r is computed only when its dimension is asked for."""
    p, field = I.ring.p, I.ring.field
    basis, divs = _packed_basis(I)
    V = [I.ring.one().packed]
    while True:
        pivots: dict = {}  # lead key -> monic echelon vector
        for g in gens:
            for v in V:
                acc = _TermSum(p)
                for k, m, c in g.packed:
                    acc.add(v, k, m, c)
                acc = _TermSum(p, _reduce_full(acc, basis, divs))
                w = []  # the normal form with every pivot lead cleared
                while (head := acc.pop()) is not None:
                    piv = pivots.get(head[0])
                    if piv is None:
                        w.append(head)
                    else:
                        acc.add(islice(piv, 1, None), 0, 0, p - head[2])
                if w:
                    pivots[w[0][0]] = _monic(w, field)
        V = list(pivots.values())
        yield len(V)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial of f and g, each scaled monic, by `_buchberger`'s
    route."""
    ring = f.ring
    fi, fj = _monic(f.packed, ring.field), _monic(g.packed, ring.field)
    l = ring.codec.lcm(fi[0][1], fj[0][1])
    acc = _s_sum(fi, fj, l, ring.order.key(l), ring.p)
    return Polynomial(ring, tuple(iter(acc.pop, None)))


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    return Ideal(I.ring, I.gens + J.gens)


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    return Ideal(I.ring, [f * g for f in I.gens for g in J.gens])


def ideal_power(I: Ideal, n: int) -> Ideal:
    """I^n generated by the products of n generators, each product taken
    as f_i^k_i over its distinct factors, so f^n costs O(log n) products."""
    if n == 0:
        return Ideal(I.ring, (I.ring.one(),))
    gens = []
    for combo in combinations_with_replacement(range(len(I.gens)), n):
        g = I.ring.one()
        for i, run in groupby(combo):
            g = g * poly_pow(I.gens[i], len(list(run)))
        gens.append(g)
    return Ideal(I.ring, gens)


def bracket_power(I: Ideal, q: int) -> Ideal:
    """Ideal generated by generator-wise q-th powers, q a power of p."""
    p = I.ring.p
    if q < 1:
        raise NotAPowerOfPError(q, p)
    if q > EXPONENT_LIMIT:
        raise ExponentOverflowError("Frobenius power q exceeds 32-bit bound")
    m = q
    while m % p == 0:
        m //= p
    if m != 1:
        raise NotAPowerOfPError(q, p)
    return Ideal(I.ring, [g.frobenius_power(q) for g in I.gens])


def exact_divide(h: Polynomial, g: Polynomial) -> Polynomial:
    """h / g for h in the principal ideal (g), by division with one running
    remainder; each quotient term is popped from it exactly once."""
    ring = h.ring
    p = ring.p
    glist = _monic(g.packed, ring.field)
    lt_key, lt_mono = glist[0][0], glist[0][1]
    work = _TermSum(p, h.packed)
    quot = []  # descending: each new leading term is below the last
    while (head := work.pop()) is not None:
        k0, m0, c0 = head
        s = ring.codec.div(m0, lt_mono)
        if s is None:
            raise ValueError("exact_divide: dividend not in the principal ideal")
        quot.append((k0 - lt_key, s, c0))
        work.add(islice(glist, 1, None), k0 - lt_key, s, p - c0)
    return Polynomial(ring, tuple(quot)).scale(ring.field.inv(g.lc()))


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I intersect J via elimination of a fresh leading variable t: the
    reduced basis of the t-free part of (t*I + (1-t)*J) under the block
    order, which `_buchberger` interreduces alone, with t stripped.  t is
    the first field of a packed monomial, so m << B lifts m and m >> B
    strips t from a t-free m."""
    ring, B = I.ring, _FIELD_BITS
    ext = PolyRing(ring.field, ("#t",) + ring.names, MonomialOrder.elimination(ring.nvars + 1, 1))

    def lift(f: Polynomial) -> Polynomial:
        return ext.from_packed([(m << B, c) for _, m, c in f.packed])

    t = ext.gen(0)
    one = ext.one()
    gens = [t * lift(f) for f in I.gens]
    gens += [(one - t) * lift(g) for g in J.gens]
    gb = _buchberger(gens, ext, 1)
    return Ideal(ring, [ring.from_packed([(m >> B, c) for _, m, c in g.packed]) for g in gb])


def colon(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = {f | f*J in I}, one generator g of J at a time: the colon
    so far, K = (I : (g_1..g_k)), meets (I : g) as (I intersect g*K) / g,
    since S is a domain and g is not 0 (K = (1) for the first generator).
    Where h*g is in I for every generator h of K, K lies in (I : g) and
    stays as it is, with no elimination run."""
    ring = I.ring
    acc = Ideal(ring, (ring.one(),))  # (I : 0) = (1)
    for k, g in enumerate(J.gens):
        products = [h * g for h in acc.gens]
        # the test starts at the second generator, so a principal J builds no basis of I
        if k and all(I.contains(f) for f in products):
            continue
        meet = intersect(I, Ideal(ring, products))
        acc = Ideal(ring, [exact_divide(h, g) for h in meet.gens])
    return acc


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    return all(I.contains(g) for g in J.gens) and all(J.contains(f) for f in I.gens)


def ideal_contains_ideal(I: Ideal, J: Ideal) -> bool:
    """J subset of I, by generator membership."""
    return all(I.contains(g) for g in J.gens)


# ---------------------------------------------------------------------------
# standard monomials, length, dimension

def _divides(a: int, b: int, guard: int) -> bool:
    """Whether packed a divides packed b: b - a borrows from no field, each
    field's guard bit (in the bitset guard) set first, and fields outside
    guard are 0 in both."""
    return ((b | guard) - a) & guard == guard


def _count_standard(gens, shifts, bounds, guard, cache):
    """Monomials in the box prod [0, b) over the fields at shifts (highest
    first) divisible by none of gens, a sorted tuple of packed monomials in
    the box that are 0 outside those fields; slab by slab of the first
    field, the highest, by which an integer sort groups gens."""
    if not shifts:
        return 0 if gens else 1
    key = (gens, bounds)
    hit = cache.get(key)
    if hit is not None:
        return hit
    s, rest, below = shifts[0], shifts[1:], bounds[1:]
    low = (1 << s) - 1  # the fields below this one
    total, done, active = 0, 0, []  # the projections at or below the cut, minimal
    for cut, group in groupby(gens, key=lambda g: g >> s):
        if cut > done:
            slab = _count_standard(tuple(sorted(active)), rest, below, guard, cache)
            total += (cut - done) * slab
            done = cut
        for g in group:
            h = g & low
            if not any(_divides(a, h, guard) for a in active):
                active = [a for a in active if not _divides(h, a, guard)]
                active.append(h)
    total += (bounds[0] - done) * _count_standard(tuple(sorted(active)), rest, below, guard, cache)
    cache[key] = total
    return total


def standard_count(leads, variables):
    """The number of monomials in the given variables (indices) divisible by
    none of the packed leads once every other variable is set to 1, or
    INFINITE.  Pure powers give the box; a recursion over the slabs of one
    variable excludes the rest, keeping each slab's generators minimal as
    the slabs grow (Bayer-Stillman, J. Symbolic Comput. 14 (1992)), so the
    cost scales with the generator structure rather than the box volume."""
    B = _FIELD_BITS
    shifts = tuple(sorted((j * B for j in variables), reverse=True))
    mask = sum(_FIELD_MASK << s for s in shifts)
    leads = {m & mask for m in leads}
    bounds = {}
    for m in leads:
        support = [s for s in shifts if m >> s & _FIELD_MASK]
        if len(support) == 1:
            s = support[0]
            bounds[s] = min(bounds.get(s, m >> s), m >> s)
    if len(bounds) < len(shifts):
        return INFINITE
    box = tuple(bounds[s] for s in shifts)
    active_budget().charge_box(math.prod(box))
    guard = sum(1 << (s + B - 1) for s in shifts)
    # the least pure power of x_i is its bound, so the box drops every pure power
    top = sum((b - 1) << s for b, s in zip(box, shifts))
    inside = [m for m in leads if _divides(m, top, guard)]
    return _count_standard(tuple(sorted(inside)), shifts, box, guard, {})


def _lead_monomials(I: Ideal) -> list:
    """The packed leading monomials of I's reduced Groebner basis."""
    return [g.packed[0][1] for g in I.groebner_basis()]


def length(I: Ideal):
    """dim_{F_p} S/I: the number of standard monomials, or INFINITE."""
    if I.is_unit():
        return 0
    return standard_count(_lead_monomials(I), range(I.ring.nvars))


def largest_free_sets(leads, n: int) -> list:
    """The largest sets U of variables (index tuples) supporting none of the
    non-constant packed monomials leads: their size is dim S/(leads), and
    they index its minimal primes of that dimension, (x_j : j not in U)."""
    for size in range(n, -1, -1):
        free = []
        for U in combinations(range(n), size):
            outside = ~sum(_FIELD_MASK << (j * _FIELD_BITS) for j in U)  # the other fields
            if all(m & outside for m in leads):
                free.append(U)
        if free:
            return free
    raise ValueError("a constant monomial supports every set")


def krull_dim(I: Ideal) -> int:
    """Dimension of S/I: that of its leading ideal."""
    if I.is_unit():
        raise UnitIdealError("krull_dim of the unit ideal")
    return len(largest_free_sets(_lead_monomials(I), I.ring.nvars)[0])


def local_leading_monomials(I: Ideal, point) -> tuple:
    """Generators of the leading ideal L of I at a rational point of V(I)
    for a local degree order in x - point, which has the Hilbert-Samuel
    function of the local ring there.  Lazard's method (Greuel-Pfister, A
    Singular Introduction to Commutative Algebra, 1.7): translate each
    generator by `Polynomial.shift`, the one translation route, which takes
    one coordinate per variable; then homogenize with t, and keep the
    x-parts of the packed leading monomials of a Groebner basis in the
    'lazard' order.  t is the first field, so (m << B) | k is t^k * m, and
    l >> B strips t from a lead l.  A translation turns each term x^m into
    at most prod (m_j + 1) terms, over the variables whose coordinate is
    not 0 mod p; each generator's sum of these bounds is charged to the box
    budget before it is translated.  The origin moves no variable and is
    not charged."""
    ring = I.ring
    B, degree = _FIELD_BITS, ring.codec.degree
    hom = PolyRing(ring.field, ("#t",) + ring.names, MonomialOrder("lazard", ring.nvars + 1))
    moved = [j * B for j, a in enumerate(point) if a % ring.p]  # the offsets of moved fields
    gens = []
    for g in I.gens:
        if moved:
            active_budget().charge_box(sum(math.prod((m >> o & _FIELD_MASK) + 1 for o in moved)
                                           for _, m, _ in g.packed))
        f = g.shift(point)
        top = f.degree()
        gens.append(hom.from_packed([((m << B) | (top - degree(m)), c) for _, m, c in f.packed]))
    return tuple(l >> B for l in _lead_monomials(Ideal(hom, gens)))
