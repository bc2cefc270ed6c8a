"""Independent brute-force oracles used to pin expected values.

Everything here avoids the engine's Groebner machinery: dense F_p linear
algebra (numpy), direct box enumeration, exponent arithmetic on monomial
ideals, and face counts of simplicial complexes.  The exceptions are
earlier engine routes kept to cross-check their replacements:
scan_new_pairs, parts_colon, nu_binary_search, hilbert_samuel_table, the Jacobian test
is_smooth_point, and the exponent-tuple dict arithmetic dict_sum,
dict_product and dict_power.
Monomials here are exponent tuples, multiplied, divided and lcm'd by the
helpers below, which share no code with the engine's packed monomials.
"""

from itertools import combinations, product

import numpy as np

from charp.ideal import (Ideal, bracket_power, exact_divide, ideal_power, ideal_sum, intersect,
                         length, normal_form)
from charp.errors import ExponentOverflowError
from charp.poly import EXPONENT_LIMIT, MonomialOrder, PolyRing


def mono_mul(a: tuple, b: tuple) -> tuple:
    out = tuple(x + y for x, y in zip(a, b))
    if any(e > EXPONENT_LIMIT for e in out):
        raise ExponentOverflowError("exponent exceeds 32-bit bound")
    return out


def mono_div(a: tuple, b: tuple):
    """a / b, or None when b does not divide a."""
    if any(x < y for x, y in zip(a, b)):
        return None
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def box_monomials(bounds):
    return list(product(*[range(b) for b in bounds]))


def modp_rank(rows, p):
    """Rank of an integer matrix over F_p by Gaussian elimination."""
    a = np.array(rows, dtype=np.int64) % p
    if a.size == 0:
        return 0
    nrows, ncols = a.shape
    rank = 0
    col = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if a[r, col] % p:
                piv = r
                break
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), -1, p)
        a[rank] = (a[rank] * inv) % p
        for r in range(nrows):
            if r != rank and a[r, col]:
                a[r] = (a[r] - a[r, col] * a[rank]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def quotient_length_bruteforce(gens, bounds, ring: PolyRing):
    """dim_k S/(gens + pure powers x_i^bounds_i) by dense linear algebra.

    The ambient quotient A = S/(x_i^b_i) has the box monomials as basis;
    the ideal generated by the gens inside A is the span of all monomial
    multiples, truncated by the box.
    """
    p = ring.p
    basis = box_monomials(bounds)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in gens:
        for mult in basis:
            row = [0] * len(basis)
            nonzero = False
            for m, c in g.terms:
                mm = mono_mul(m, mult)
                if all(e < b for e, b in zip(mm, bounds)):
                    row[index[mm]] = (row[index[mm]] + c) % p
                    nonzero = True
            if nonzero:
                rows.append(row)
    return len(basis) - modp_rank(rows, p)


def multiplication_image_rank(u, bounds, ring: PolyRing):
    """Rank of multiplication by u on S/(x_i^b_i): the length of
    S/((x_i^b_i) : u) via the multiplication-map image."""
    p = ring.p
    basis = box_monomials(bounds)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for mult in basis:
        row = [0] * len(basis)
        nonzero = False
        for m, c in u.terms:
            mm = mono_mul(m, mult)
            if all(e < b for e, b in zip(mm, bounds)):
                row[index[mm]] = (row[index[mm]] + c) % p
                nonzero = True
        if nonzero:
            rows.append(row)
    return modp_rank(rows, p)


def standard_count_bruteforce(lt_monomials, bounds):
    """Count box monomials divisible by none of the given monomials."""
    count = 0
    for m in box_monomials(bounds):
        if not any(mono_div(m, g) is not None for g in lt_monomials):
            count += 1
    return count


def monomial_colon_oracle(I_monos, J_monos):
    """(monomial ideal : monomial ideal) by exponent arithmetic:
    (I : (m)) = (u / gcd(u, m)) and (I : J) = intersection over J's gens,
    with monomial-ideal intersection given by pairwise lcms."""
    def colon_single(gens, m):
        return [tuple(max(e - f, 0) for e, f in zip(g, m)) for g in gens]

    def meet(a, b):
        return [tuple(max(e, f) for e, f in zip(g, h)) for g in a for h in b]

    def minimalize(gens):
        out = []
        for g in sorted(set(gens), key=lambda t: (sum(t), t)):
            if not any(mono_div(g, h) is not None for h in out):
                out.append(g)
        return out

    acc = None
    for m in J_monos:
        part = colon_single(I_monos, m)
        acc = part if acc is None else meet(acc, part)
    return minimalize(acc)


def dict_sum(a: dict, b: dict, p: int, sign: int = 1) -> dict:
    """a + sign*b for polynomials as dicts {exponent tuple: coefficient}."""
    d = dict(a)
    for m, c in b.items():
        nc = (d.get(m, 0) + sign * c) % p
        if nc:
            d[m] = nc
        else:
            d.pop(m, None)
    return d


def dict_product(a: dict, b: dict, p: int) -> dict:
    """a*b term by term; mono_mul raises ExponentOverflowError on every
    product monomial past EXPONENT_LIMIT, cancelled or not."""
    d: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            nc = (d.get(m, 0) + c1 * c2) % p
            if nc:
                d[m] = nc
            else:
                d.pop(m, None)
    return d


def dict_power(a: dict, n: int, p: int, nvars: int) -> dict:
    """a^n from the base-p digits of n, each p-th power by p - 1 products,
    so a Frobenius power never forms a dense intermediate power."""
    out = {(0,) * nvars: 1}
    while n:
        for _ in range(n % p):
            out = dict_product(out, a, p)
        n //= p
        if n:
            base = a
            for _ in range(p - 1):
                a = dict_product(a, base, p)
    return out


def ideal_from_monomials(ring: PolyRing, monos) -> Ideal:
    return Ideal(ring, [ring.monomial(m) for m in monos])


def random_poly(rng, ring: PolyRing, max_deg=3, max_terms=4):
    d: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg // 2 + 1) for _ in range(ring.nvars))
        d[mono] = rng.randint(0, ring.p - 1)
    return ring.from_dict(d)


def random_nonzero_poly(rng, ring: PolyRing, max_deg=3, max_terms=4):
    while True:
        f = random_poly(rng, ring, max_deg, max_terms)
        if not f.is_zero():
            return f


def textbook_remainder(f, divisors):
    """Remainder of f on division by the divisors, in Polynomial arithmetic:
    the leading term still left is cancelled with the first divisor, in list
    order, whose leading monomial divides it, or else moved to the remainder.
    Modulo a Groebner basis the remainder is unique, whatever the strategy."""
    ring = f.ring
    rem = ring.zero()
    while not f.is_zero():
        m, c = f.terms[0]
        for g in divisors:
            s = mono_div(m, g.lm())
            if s is not None:
                f = f - g * ring.monomial(s, c * ring.field.inv(g.lc()))
                break
        else:
            lead = ring.monomial(m, c)
            rem = rem + lead
            f = f - lead
    return rem


def textbook_groebner(gens):
    """The reduced Groebner basis of gens, descending, by Buchberger's
    algorithm as first stated: every pair is reduced, with no criterion, by
    textbook_remainder; then the basis is minimalized and interreduced."""
    basis = [g.monic() for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        r = textbook_remainder(textbook_s_polynomial(basis[i], basis[j]), basis)
        if not r.is_zero():
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(r.monic())
    minimal = []
    for g in basis:
        if not any(mono_div(g.lm(), h.lm()) is not None for h in minimal):
            minimal = [h for h in minimal if mono_div(h.lm(), g.lm()) is None] + [g]
    reduced = [textbook_remainder(g, minimal[:i] + minimal[i + 1:]).monic()
               for i, g in enumerate(minimal)]
    return tuple(sorted(reduced, key=lambda g: g.packed[0][0], reverse=True))


def textbook_s_polynomial(f, g):
    """(l / LT(f)) f - (l / LT(g)) g for l the lcm of the leading monomials,
    each leading term LT with its coefficient."""
    ring = f.ring
    l = mono_lcm(f.lm(), g.lm())
    return (f * ring.monomial(mono_div(l, f.lm()), ring.field.inv(f.lc()))
            - g * ring.monomial(mono_div(l, g.lm()), ring.field.inv(g.lc())))


def textbook_intersect(I: Ideal, J: Ideal, groebner=textbook_groebner) -> tuple:
    """The reduced basis of I intersect J in a grevlex ring: the t-free
    elements of groebner(t*I + (1-t)*J) under the order that eliminates a
    fresh first variable t, grevlex after it.  `groebner` is any routine
    returning the whole reduced basis, descending; inputs too large for
    textbook_groebner pass the engine's plain one."""
    ring = I.ring
    ext = PolyRing(ring.field, ("#t",) + ring.names,
                   MonomialOrder.elimination(ring.nvars + 1, 1))

    def lift(f, c):
        return ext.from_dict({(0,) + m: a for m, a in f.terms}) * c

    t = ext.gen(0)
    gb = groebner([lift(f, t) for f in I.gens] + [lift(g, ext.one() - t) for g in J.gens])
    return tuple(ring.from_dict({m[1:]: c for m, c in g.terms}) for g in gb
                 if all(m[0] == 0 for m, _ in g.terms))


def textbook_quotient(h, g):
    """h / g for h a multiple of g, by long division on leading terms."""
    ring = h.ring
    quot = ring.zero()
    while not h.is_zero():
        m, c = h.terms[0]
        s = mono_div(m, g.lm())
        assert s is not None, "not a multiple"
        term = ring.monomial(s, c * ring.field.inv(g.lc()))
        quot, h = quot + term, h - term * g
    return quot


def textbook_colon(I: Ideal, J: Ideal, groebner=textbook_groebner) -> tuple:
    """The reduced basis of (I : J), the intersection of (1) and, for each
    generator g of J, (I intersect (g)) / g: every meet is formed, each by
    textbook_intersect with `groebner`."""
    ring = I.ring
    acc = (ring.one(),)
    for g in J.gens:
        meet = textbook_intersect(I, Ideal(ring, (g,)), groebner)
        part = Ideal(ring, [textbook_quotient(h, g) for h in meet])
        acc = textbook_intersect(Ideal(ring, acc), part, groebner)
    return acc


def scan_new_pairs(live: int, leads, h: int, eng) -> list:
    """The pairs (degree, i, lcm) a new packed lead h makes with the live
    leads (the bitset live of indices into leads) by the engine's earlier
    Gebauer-Moeller scan: every live lead's lcm with h, sorted by degree
    and index, keeping each lcm no kept one divides (criteria M and F), and
    queueing it unless the two leads are coprime."""
    t = eng.unpack(h)
    new = sorted((sum(mono_lcm(eng.unpack(l), t)), i, mono_lcm(eng.unpack(l), t))
                 for i, l in enumerate(leads) if live >> i & 1)
    kept, out = [], []
    for deg, i, l in new:
        if any(mono_div(l, m) is not None for m in kept):
            continue
        kept.append(l)
        if l != mono_mul(eng.unpack(leads[i]), t):
            out.append((deg, i, eng.pack(l)))
    return out


def parts_colon(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) by the engine's earlier route: the parts (I intersect (g)) / g
    over the generators g of J, each formed by `intersect`, and intersected
    with the meet so far unless the part already contains it, which a
    remainder 0 on division by the part's generators proves."""
    ring = I.ring
    if J.is_zero():
        return Ideal(ring, (ring.one(),))
    acc = None
    for g in J.gens:
        part = Ideal(ring, [exact_divide(h, g) for h in intersect(I, Ideal(ring, (g,))).gens])
        if acc is None:
            acc = part
        elif not all(textbook_remainder(h, part.gens).is_zero() for h in acc.gens):
            acc = intersect(acc, part)
    return acc


def nu_binary_search(L, a: Ideal, e: int) -> int:
    """nu(q) = max{r : a^r not inside m^[q] + I} by binary search over the
    generators of a^r, which m^(n(q-1)+1), inside m^[q], bounds."""
    M = ideal_sum(L.ideal0, bracket_power(L.m0, L.p**e))

    def contained(r: int) -> bool:
        return all(normal_form(g, M).is_zero() for g in ideal_power(a, r).gens)

    lo, hi = 0, L.ring.nvars * (L.p**e - 1) + 1
    assert contained(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if contained(mid):
            hi = mid
        else:
            lo = mid
    return lo


def hilbert_samuel_table(I: Ideal, point, n_max: int):
    """(dim, e) of S/I at a rational point of V(I) from the difference table
    of n -> lambda(S/(I + m^n)), n <= n_max, or None if it has not settled.
    The function is a polynomial of degree dim with leading coefficient
    e/dim! for large n, so its dim-th differences end in the constant e;
    dim is taken as the least order whose last three differences agree.
    That stopping rule is a guess: a larger n_max can change the answer."""
    ring = I.ring
    m = Ideal(ring, [x - a for x, a in zip(ring.gens(), point)])
    diffs = [0] + [length(ideal_sum(I, ideal_power(m, n))) for n in range(1, n_max + 1)]
    for dim in range(ring.nvars + 1):
        if len(diffs) >= 3 and diffs[-1] == diffs[-2] == diffs[-3]:
            return dim, diffs[-1]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return None


def is_smooth_point(comp, point) -> bool:
    """Jacobian criterion at a rational point of a component: the local ring
    is regular iff the Jacobian of the generators has rank n - dim there,
    the local codimension."""
    L = comp.local_at(point)
    rows = [[g.derivative(j).evaluate(L.point) for j in range(L.ring.nvars)]
            for g in L.gens]
    return modp_rank(rows, L.p) == L.ring.nvars - L.d


def stanley_reisner_lambda(nonfaces, n: int, q: int) -> int:
    """lambda(S/(I + m^[q])) for the Stanley-Reisner ideal I of the simplicial
    complex on vertices 0..n-1 whose minimal non-faces are `nonfaces`
    (tuples of vertices).  The standard monomials of S/(I + m^[q]) are the
    monomials with exponents below q whose support is a face F, and there are
    (q - 1)^|F| of them for each F."""
    return sum((q - 1) ** k for k in range(n + 1) for F in combinations(range(n), k)
               if not any(set(N) <= set(F) for N in nonfaces))
