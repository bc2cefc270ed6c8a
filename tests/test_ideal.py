"""Groebner engine, colon ideals, lengths, dimension, Hilbert-Samuel."""

import math
import random
from itertools import combinations_with_replacement

import pytest

import charp.ideal
from charp.errors import (
    ExponentOverflowError,
    NotAPowerOfPError,
    ResourceBudgetError,
    UnitIdealError,
)
from charp.finv import LocalRingAtPoint, hk_function, multiplicity
from charp.gf import field_new
from charp.ideal import (
    INFINITE,
    Budget,
    Ideal,
    _buchberger,
    _Divisors,
    _new_pairs,
    active_budget,
    bracket_power,
    colon,
    exact_divide,
    ideal_contains_ideal,
    ideal_equal,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    krull_dim,
    length,
    local_leading_monomials,
    normal_form,
    s_polynomial,
    standard_count,
)
from charp.poly import EXPONENT_LIMIT, MonomialOrder, Polynomial, PolyRing, _Engine

from oracles import (
    box_monomials,
    hilbert_samuel_table,
    ideal_from_monomials,
    mono_div,
    monomial_colon_oracle,
    parts_colon,
    quotient_length_bruteforce,
    random_nonzero_poly,
    scan_new_pairs,
    standard_count_bruteforce,
    textbook_colon,
    textbook_groebner,
    textbook_intersect,
    textbook_remainder,
    textbook_s_polynomial,
)


def ring(p=5, names=("x", "y", "z")):
    return PolyRing(field_new(p), names)


def I(R, *srcs):
    return Ideal(R, [R.parse(s) for s in srcs])


# -- groebner ----------------------------------------------------------------

def test_gb_containment_collapse():
    R = PolyRing(field_new(5), ("x",))
    gb = I(R, "x^2", "x").groebner_basis()
    assert [str(g) for g in gb] == ["x"]


def test_gb_linear_elimination():
    R = ring(5, ("x", "y"))
    gb = I(R, "x + y", "y").groebner_basis()
    assert [str(g) for g in gb] == ["x", "y"]


def test_gb_node_bracket():
    # (xy - z^2, x^q, y^q, z^q): every S-polynomial of the output reduces to 0
    R = ring(5)
    J = I(R, "x*y - z^2", "x^5", "y^5", "z^5")
    _assert_buchberger_certificate(J)


def _assert_buchberger_certificate(J):
    gb = J.groebner_basis()
    G = Ideal(J.ring, gb)
    G._gb = gb
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            s = s_polynomial(gb[i], gb[j])
            assert normal_form(s, G).is_zero()


def test_gb_is_reduced():
    R = ring(7)
    gb = I(R, "x*y - z^2", "x^7", "y^7", "z^7").groebner_basis()
    lts = [g.lm() for g in gb]
    for i, g in enumerate(gb):
        assert g.lc() == 1
        # no term of g is divisible by another leading term
        for m, _ in g.terms:
            for j, lt in enumerate(lts):
                if j != i:
                    assert mono_div(m, lt) is None


def test_gb_deterministic():
    R = ring(7)
    a = I(R, "x*y - z^2", "x^7", "y^7", "z^7").groebner_basis()
    b = I(R, "x*y - z^2", "x^7", "y^7", "z^7").groebner_basis()
    assert [str(g) for g in a] == [str(g) for g in b]


def test_gb_certificates_random():
    rng = random.Random(42)
    R2 = ring(3, ("x", "y"))
    for _ in range(25):
        J = Ideal(R2, [random_nonzero_poly(rng, R2) for _ in range(rng.randint(1, 3))])
        _assert_buchberger_certificate(J)


GB_ORDERS = {
    "lex": MonomialOrder.lex(3),
    "grevlex": MonomialOrder.grevlex(3),
    "elim": MonomialOrder.elimination(3, 1),
    "lazard": MonomialOrder("lazard", 3),
}


@pytest.mark.parametrize("order", sorted(GB_ORDERS))
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gb_matches_the_textbook_algorithm(p, order):
    # random generators are not homogeneous; each ideal is also translated
    rng = random.Random(10 * p + sorted(GB_ORDERS).index(order))
    R = PolyRing(field_new(p), ("x", "y", "z"), GB_ORDERS[order])
    for _ in range(6):
        gens = [random_nonzero_poly(rng, R) for _ in range(rng.randint(1, 3))]
        point = tuple(rng.randrange(p) for _ in range(3))
        for G in (gens, [g.shift(point) for g in gens]):
            assert Ideal(R, G).groebner_basis() == textbook_groebner(G)


@pytest.mark.parametrize("order", sorted(GB_ORDERS))
@pytest.mark.parametrize("p", [3, 5, 7])
def test_s_polynomial_matches_the_textbook_one(p, order):
    # leading coefficients other than 1, coprime and equal leads included
    rng = random.Random(100 * p + sorted(GB_ORDERS).index(order))
    R = PolyRing(field_new(p), ("x", "y", "z"), GB_ORDERS[order])
    nonmonic = 0
    for _ in range(40):
        f, g = (random_nonzero_poly(rng, R).scale(rng.randint(1, p - 1)) for _ in range(2))
        if rng.random() < 0.1:
            g = f.scale(rng.randint(1, p - 1)) + R.monomial((0, 0, 1))
        nonmonic += f.lc() != 1 or g.lc() != 1
        assert s_polynomial(f, g) == textbook_s_polynomial(f, g)
        assert s_polynomial(f, f).is_zero()
    assert nonmonic > 20


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_divisor_index_matches_the_linear_scan(n):
    rng = random.Random(n)
    eng = PolyRing(field_new(5), tuple(f"x{j}" for j in range(n))).codec
    for size in (0, 1, 4, 30):
        leads = [eng.pack(tuple(rng.randrange(6) for _ in range(n))) for _ in range(size)]
        divs = _Divisors(n, leads)
        for _ in range(40):
            t = tuple(rng.randrange(8) for _ in range(n))
            m = eng.pack(t)
            skip = rng.getrandbits(size) if rng.random() < 0.5 else 0
            assert divs.first(m, skip) == next(
                (i for i, l in enumerate(leads)
                 if not skip >> i & 1 and eng.div(m, l) is not None), -1)
            assert divs.multiples(m) == sum(
                1 << i for i, l in enumerate(leads) if eng.div(l, m) is not None)
            for l in leads:
                assert eng.lcm(m, l) == eng.pack(tuple(map(max, t, eng.unpack(l))))
            assert eng.degree(m) == sum(t)
            exps = [eng.unpack(l) for l in leads]
            assert divs.below(m) == [sum(1 << i for i, u in enumerate(exps) if u[j] <= t[j])
                                     for j in range(n)]
            among = rng.getrandbits(size)
            for j in range(n if among else 0):
                c = min(u[j] for i, u in enumerate(exps) if among >> i & 1)
                assert divs.least(j, among) == (
                    sum(1 << i for i, u in enumerate(exps) if u[j] <= c),
                    sum(1 << i for i, u in enumerate(exps) if u[j] < c))


@pytest.mark.parametrize("n", range(1, 7))
def test_pairs_from_the_colon_match_the_scan_over_every_live_lead(n):
    # random lead sets, with repeated leads (ties for one lcm), pure powers
    # (a box) and any live subset; h is a lead no indexed lead divides
    rng = random.Random(n)
    eng = PolyRing(field_new(5), tuple(f"x{j}" for j in range(n))).codec

    def mono(top):
        return eng.pack(tuple(rng.randrange(top) if rng.random() < 0.6 else 0 for _ in range(n)))

    powers = 0
    for size in (0, 1, 3, 10, 40):
        for _ in range(40):
            leads = [mono(7) for _ in range(size)]
            if rng.random() < 0.5:
                leads += [eng.pack(tuple(8 * (k == j) for k in range(n))) for j in range(n)]
            leads += rng.sample(leads, len(leads) // 4)
            rng.shuffle(leads)
            h = mono(9)
            leads = [l for l in leads if eng.div(h, l) is None]
            divs = _Divisors(n, leads)
            live = rng.getrandbits(len(leads)) if rng.random() < 0.5 else divs.all
            pairs = _new_pairs(divs, live, leads, h, eng)
            assert pairs == scan_new_pairs(live, leads, h, eng), (leads, live, h)
            t = eng.unpack(h)
            powers += any(all(u[k] <= t[k] for k in range(n) if k != j)  # (L : h) has x_j^c
                          for i, u in enumerate(map(eng.unpack, leads)) if live >> i & 1
                          for j in range(n))
    assert powers > 50


def test_pairs_from_the_colon_match_the_scan_at_every_step_of_lambda_3(monkeypatch):
    steps = []
    new_pairs = charp.ideal._new_pairs

    def checked(divs, live, leads, h, eng):
        pairs = new_pairs(divs, live, leads, h, eng)
        assert pairs == scan_new_pairs(live, leads, h, eng)
        steps.append(len(pairs))
        return pairs

    monkeypatch.setattr(charp.ideal, "_new_pairs", checked)
    R = ring(7)
    for f, size in (("x*y - z^2", 346), ("x^3 + y^3 + z^3", 140)):
        box = [R.parse(f)] + [R.parse(f"{v}^343") for v in R.names]
        assert len(_buchberger(box, R)) == size
    assert len(steps) == 346 + 140 and sum(steps) > 0


def test_gb_budget():
    R = ring(5)
    J = I(R, "x*y - z^2", "x^5", "y^5", "z^5")
    with pytest.raises(ResourceBudgetError), Budget(max_basis=2):
        J.groebner_basis()


# -- normal form -------------------------------------------------------------

def test_normal_form_single_step():
    R = ring(5)
    J = I(R, "x*y - z^2")
    assert normal_form(R.parse("x*y"), J) == R.parse("z^2")


def test_normal_form_membership_and_idempotence():
    rng = random.Random(2)
    R = ring(5, ("x", "y"))
    for _ in range(20):
        gens = [random_nonzero_poly(rng, R) for _ in range(2)]
        J = Ideal(R, gens)
        # explicit combination of the generators is a member
        f = gens[0] * random_nonzero_poly(rng, R) + gens[1] * random_nonzero_poly(rng, R)
        assert normal_form(f, J).is_zero()
        g = random_nonzero_poly(rng, R)
        nf = normal_form(g, J)
        assert normal_form(nf, J) == nf


ORDERS = {
    "lex": MonomialOrder.lex(3),
    "grevlex": MonomialOrder.grevlex(3),
    "elim": MonomialOrder.elimination(3, 1),
}


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_normal_form_matches_textbook_division(p, order):
    # g = (p-1)f + r*f_1 makes f + g = r*f_1 a member, so the sum's terms cancel
    rng = random.Random(100 * p + len(order))
    R = PolyRing(field_new(p), ("x", "y", "z"), ORDERS[order])
    for _ in range(8):
        gens = [random_nonzero_poly(rng, R) for _ in range(rng.randint(1, 3))]
        J = Ideal(R, gens)
        gb = J.groebner_basis()
        f = random_nonzero_poly(rng, R, max_terms=6)
        g = f.scale(p - 1) + random_nonzero_poly(rng, R) * gens[0]
        for h in (f, g, f + g):
            assert normal_form(h, J) == textbook_remainder(h, gb)
        assert normal_form(f + g, J).is_zero()
        assert normal_form(f + g, J) == normal_form(f, J) + normal_form(g, J)


def test_membership_matches_dense_linear_algebra():
    # homogeneous toy case: degree-truncated quotient is exact, so the
    # linear-algebra membership oracle is definitive
    from oracles import box_monomials, modp_rank

    rng = random.Random(9)
    R = ring(5, ("x", "y"))
    gens = [R.parse("x^2 + 4*y^2"), R.parse("x*y")]
    J = Ideal(R, gens)
    deg = 4
    monos = [m for m in box_monomials((deg + 1, deg + 1)) if sum(m) <= deg]
    index = {m: i for i, m in enumerate(monos)}

    def vec(f):
        row = [0] * len(monos)
        for m, c in f.terms:
            row[index[m]] = c
        return row

    span = []
    for g in gens:
        for m in monos:
            if sum(m) + g.degree() <= deg:
                span.append(vec(g * R.monomial(m)))
    base_rank = modp_rank(span, 5)
    for _ in range(20):
        f = R.from_dict(
            {m: rng.randint(0, 4) for m in monos if rng.random() < 0.3}
        )
        if f.is_zero() or f.degree() > deg:
            continue
        by_rank = modp_rank(span + [vec(f)], 5) == base_rank
        # homogeneous components: membership in bounded degree is exact
        assert by_rank == normal_form(f, J).is_zero()


# -- bracket powers ----------------------------------------------------------

def test_bracket_power_examples():
    R2 = ring(2, ("x", "y"))
    J = bracket_power(I(R2, "x", "y^2"), 4)
    assert [str(g) for g in J.gens] == ["x^4", "y^8"]
    R3 = ring(3, ("x", "y"))
    assert [str(g) for g in bracket_power(I(R3, "x + y"), 3).gens] == ["x^3 + y^3"]
    K = I(R2, "x", "y^2")
    assert bracket_power(K, 1).gens == K.gens


def test_bracket_power_rejects_non_p_powers():
    R = ring(5, ("x",))
    with pytest.raises(NotAPowerOfPError):
        bracket_power(I(R, "x"), 10)
    with pytest.raises(NotAPowerOfPError):
        bracket_power(I(R, "x"), 0)


def test_bracket_power_laws_random():
    rng = random.Random(17)
    for p in (2, 3):
        R = ring(p, ("x", "y"))
        for _ in range(12):
            gensI = [random_nonzero_poly(rng, R, max_deg=2) for _ in range(2)]
            gensJ = [random_nonzero_poly(rng, R, max_deg=2) for _ in range(2)]
            A, B = Ideal(R, gensI), Ideal(R, gensJ)
            # (I^[p])^[p] = I^[p^2]
            assert ideal_equal(bracket_power(bracket_power(A, p), p),
                               bracket_power(A, p * p))
            # (I+J)^[q] = I^[q] + J^[q]
            assert ideal_equal(bracket_power(ideal_sum(A, B), p),
                               ideal_sum(bracket_power(A, p), bracket_power(B, p)))
            # I subset J implies I^[q] subset J^[q]
            AB = ideal_sum(A, B)
            assert ideal_contains_ideal(bracket_power(AB, p), bracket_power(A, p))


def test_bracket_power_independent_of_generators():
    # same ideal, different generating sets -> same bracket power
    R = ring(3, ("x", "y"))
    A = I(R, "x", "y")
    B = I(R, "x + y", "y", "x + 2*y")
    assert ideal_equal(A, B)
    assert ideal_equal(bracket_power(A, 3), bracket_power(B, 3))


def test_containment_chain_sandwich():
    # I^(s*q) subset I^[q] subset I^q for s-generated I, at e=1
    rng = random.Random(23)
    for p in (2, 3):
        R = ring(p, ("x", "y"))
        for _ in range(10):
            s = rng.randint(1, 2)
            gens = [random_nonzero_poly(rng, R, max_deg=2, max_terms=2)
                    for _ in range(s)]
            A = Ideal(R, gens)
            br = bracket_power(A, p)
            assert ideal_contains_ideal(br, ideal_power(A, s * p))
            assert ideal_contains_ideal(ideal_power(A, p), br)


# -- colon -------------------------------------------------------------------

def test_colon_principal_monomials():
    R = PolyRing(field_new(5), ("x",))
    assert [str(g) for g in colon(I(R, "x^2"), I(R, "x")).gens] == ["x"]


def test_colon_by_unit_is_identity():
    R = ring(5, ("x", "y"))
    A = I(R, "x^2", "x*y")
    C = colon(A, Ideal(R, (R.one(),)))
    assert ideal_equal(A, C)


def test_colon_hypersurface_frobenius():
    # ((f)^[q] : (f)) = (f^(q-1)) for small f, q
    for p in (3, 5):
        R = ring(p)
        f = R.parse("x*y - z^2")
        A = Ideal(R, (f,))
        C = colon(bracket_power(A, p), A)
        expected = Ideal(R, (f**(p - 1),))
        assert ideal_equal(C, expected)


def test_colon_matches_monomial_oracle():
    rng = random.Random(31)
    R = ring(5, ("x", "y"))
    for _ in range(20):
        gI = [tuple(rng.randint(0, 4) for _ in range(2)) for _ in range(rng.randint(1, 3))]
        gJ = [tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(rng.randint(1, 2))]
        A = ideal_from_monomials(R, gI)
        B = ideal_from_monomials(R, gJ)
        expected = ideal_from_monomials(R, monomial_colon_oracle(gI, gJ))
        assert ideal_equal(colon(A, B), expected)


def test_colon_defining_property_random():
    rng = random.Random(37)
    R = ring(3, ("x", "y"))
    for _ in range(15):
        A = Ideal(R, [random_nonzero_poly(rng, R, max_deg=2) for _ in range(2)])
        B = Ideal(R, [random_nonzero_poly(rng, R, max_deg=2)])
        with Budget(max_pairs=500_000):
            C = colon(A, B)
        for g in C.gens:
            for h in B.gens:
                assert normal_form(g * h, A).is_zero()
        # and members detected: r*J in I was sampled above; sample converse
        r = random_nonzero_poly(rng, R, max_deg=2)
        if all(normal_form(r * h, A).is_zero() for h in B.gens):
            assert C.contains(r)


def test_exact_divide():
    # a divisor with a constant term, a monomial divisor and the unit
    R = ring(5)
    for f, g in [("x*y - z^2", "x^2 + 3*y"), ("x^3 - y*z + 2*x + 1", "2*x*y + z + 3"),
                 ("x^3 - y*z + 2*x + 1", "4*x^2*z"), ("x^3 - y*z + 2*x + 1", "1")]:
        f, g = R.parse(f), R.parse(g)
        assert exact_divide(f * g, g) == f
    # random products in each order
    rng = random.Random(3)
    for order in ORDERS.values():
        R = PolyRing(field_new(5), ("x", "y", "z"), order)
        for _ in range(10):
            f = random_nonzero_poly(rng, R, max_terms=6)
            g = random_nonzero_poly(rng, R, max_terms=6)
            assert exact_divide(f * g, g) == f


def test_exact_divide_outside_the_principal_ideal():
    R = ring(5)
    with pytest.raises(ValueError, match="not in the principal ideal"):
        exact_divide(R.parse("x*y + z"), R.parse("x"))


def test_intersect_principal():
    R = ring(5, ("x", "y"))
    A = intersect(I(R, "x"), I(R, "y"))
    assert ideal_equal(A, I(R, "x*y"))


# -- intersection and colon against the textbook oracle ------------------------

def _random_ideal(rng, R, max_gens=3):
    """Zero, unit or 1..max_gens random generators, each of degree <= 2."""
    kind = rng.random()
    if kind < 0.1:
        return Ideal(R, ())
    if kind < 0.2:
        return Ideal(R, (R.one(),))
    return Ideal(R, [random_nonzero_poly(rng, R, max_deg=2, max_terms=3)
                     for _ in range(rng.randint(1, max_gens))])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_intersect_is_the_oracles_reduced_basis(p):
    rng = random.Random(100 + p)
    R = ring(p, ("x", "y"))
    for _ in range(25):
        A, B = _random_ideal(rng, R), _random_ideal(rng, R)
        meet = intersect(A, B)
        assert meet.gens == textbook_intersect(A, B) == meet.groebner_basis()
    # F_p itself, where t is every variable of the elimination ring
    R0 = ring(p, ())
    for A in (Ideal(R0, []), Ideal(R0, [R0.const(p - 1)])):
        for B in (Ideal(R0, []), Ideal(R0, [R0.one()])):
            meet = intersect(A, B)
            assert meet.gens == textbook_intersect(A, B) == meet.groebner_basis()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_colon_has_the_oracles_reduced_basis(p):
    # J's generators include members of I (unit parts) and I may be 0 (zero parts)
    rng = random.Random(200 + p)
    R = ring(p, ("x", "y"))
    for _ in range(20):
        A = _random_ideal(rng, R)
        B = _random_ideal(rng, R)
        if A.gens and rng.random() < 0.3:
            B = Ideal(R, B.gens + (A.gens[0] * random_nonzero_poly(rng, R, max_deg=1),))
        expected = textbook_colon(A, B)
        assert colon(A, B).groebner_basis() == expected == parts_colon(A, B).groebner_basis()


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_colon_in_any_order_is_the_oracles_ideal(order):
    # intersect eliminates with grevlex after t, whatever the ring's order
    rng = random.Random(17)
    Rg, Ro = ring(3), PolyRing(field_new(3), ("x", "y", "z"), ORDERS[order])
    for _ in range(8):
        A, B = _random_ideal(rng, Rg, 2), _random_ideal(rng, Rg, 2)
        if A.gens and rng.random() < 0.5:
            B = Ideal(Rg, B.gens + (A.gens[0] * random_nonzero_poly(rng, Rg, max_deg=1),))
        expected = Ideal(Ro, [Ro.from_dict(dict(g.terms)) for g in textbook_colon(A, B)])
        got = colon(*(Ideal(Ro, [Ro.from_dict(dict(g.terms)) for g in X.gens]) for X in (A, B)))
        assert got.groebner_basis() == expected.groebner_basis()


def test_twisted_cubic_multipliers_match_the_plain_elimination():
    # every meet formed and every elimination basis fully interreduced, by
    # the engine's plain Buchberger; q = 3 also by textbook_groebner
    R = ring(3, ("x", "y", "z", "w"))
    A = I(R, "x*z - y^2", "y*w - z^2", "x*w - y*z")

    def plain(gens):
        return Ideal(gens[0].ring, gens).groebner_basis()

    for q in (3, 9, 27):
        expected = textbook_colon(bracket_power(A, q), A, plain)
        assert colon(bracket_power(A, q), A).groebner_basis() == expected
    assert textbook_colon(bracket_power(A, 3), A) == colon(bracket_power(A, 3), A).groebner_basis()


# Fedder's multiplier (I^[q] : I) of rings that are not complete
# intersections, and the monomial (xz, yz)
TWISTED_CUBIC = (("x", "y", "z", "w"), ("x*z - y^2", "y*w - z^2", "x*w - y*z"))
PENTAGON_CONE = (("x0", "x1", "x2", "x3", "x4", "x5"),
                 ("x1*x4 - x0^2", "x3*x5 - x0^2", "x0*x2 - x1*x3", "x2*x4 - x0*x3",
                  "x2*x5 - x0*x1"))
SEGRE_2X3 = (("a", "b", "c", "d", "e", "f"), ("a*e - b*d", "a*f - c*d", "b*f - c*e"))


@pytest.mark.parametrize("p, ring_gens, q", [
    (2, PENTAGON_CONE, 2), (2, PENTAGON_CONE, 4), (2, SEGRE_2X3, 2), (2, SEGRE_2X3, 4),
    (5, TWISTED_CUBIC, 5), (5, TWISTED_CUBIC, 25),
    (5, (("x", "y", "z"), ("x*z", "y*z")), 5), (5, (("x", "y", "z"), ("x*z", "y*z")), 25),
], ids=["pentagon-2", "pentagon-4", "segre-2", "segre-4", "cubic-5", "cubic-25",
        "xz_yz-5", "xz_yz-25"])
def test_colon_has_the_parts_colons_reduced_basis(p, ring_gens, q):
    # one elimination per generator against the pairwise meet of the parts
    names, srcs = ring_gens
    A = I(ring(p, names), *srcs)
    Aq = bracket_power(A, q)
    assert colon(Aq, A).groebner_basis() == parts_colon(Aq, A).groebner_basis()


def _count_intersections(monkeypatch) -> list:
    calls = []

    def counted(*args, _fn=charp.ideal.intersect):
        calls.append(1)
        return _fn(*args)

    monkeypatch.setattr(charp.ideal, "intersect", counted)
    return calls


def test_a_generator_whose_part_holds_the_colon_so_far_is_not_eliminated(monkeypatch):
    # (I^[27] : I) of the twisted cubic: the first two generators each take
    # one elimination, and the third multiplies the colon so far into I^[27]
    names, srcs = TWISTED_CUBIC
    A = I(ring(3, names), *srcs)
    Aq = bracket_power(A, 27)
    calls = _count_intersections(monkeypatch)
    colon(Aq, A)
    assert len(calls) == 2


def test_colon_forms_each_product_once(monkeypatch):
    # (I^[27] : I) of the twisted cubic: the products h*g whose containment
    # test fails for the second generator also generate its meet
    names, srcs = TWISTED_CUBIC
    A = I(ring(3, names), *srcs)
    Aq = bracket_power(A, 27)
    products = []
    mul = Polynomial.__mul__

    def counted(f, g):
        if f.ring == A.ring:
            products.append(tuple(sorted((str(f), str(g)))))
        return mul(f, g)
    monkeypatch.setattr(Polynomial, "__mul__", counted)
    colon(Aq, A)
    assert len(products) > len(A.gens)
    assert len(set(products)) == len(products)


def test_a_multiple_of_an_earlier_generator_is_skipped(monkeypatch):
    # (I : (g, g*h)) = (I : g): g*h times any member of (I : g) lies in I
    names, srcs = TWISTED_CUBIC
    R = ring(3, names)
    A = bracket_power(I(R, *srcs), 3)
    g, h = R.parse("x*z - y^2"), R.parse("x + w")
    calls = _count_intersections(monkeypatch)
    got = colon(A, Ideal(R, (g, g * h)))
    assert len(calls) == 1
    assert got.groebner_basis() == colon(A, Ideal(R, (g,))).groebner_basis()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_elimination_basis_is_the_block_free_part_of_the_full_one(p):
    # the same main loop, so the same charges; only t-free elements interreduced
    rng = random.Random(300 + p)
    ext = PolyRing(field_new(p), ("t", "x", "y"), MonomialOrder.elimination(3, 1))
    for _ in range(15):
        gens = [random_nonzero_poly(rng, ext, max_deg=2, max_terms=3)
                for _ in range(rng.randint(1, 4))]
        with Budget() as full_charges:
            full = _buchberger(gens, ext)
        with Budget() as elim_charges:
            elim = _buchberger(gens, ext, 1)
        assert elim == tuple(g for g in full if all(m[0] == 0 for m, _ in g.terms))
        assert elim_charges.snapshot() == full_charges.snapshot()


# -- length ------------------------------------------------------------------

def test_length_box():
    R = ring(5, ("x", "y"))
    assert length(I(R, "x^2", "y^3")) == 6


def test_length_infinite():
    R = ring(5, ("x", "y"))
    assert length(I(R, "x")) == INFINITE
    assert length(I(R, "x")) == math.inf


def test_length_node_small():
    R = ring(3, ("x", "y"))
    assert length(I(R, "x*y", "x^3", "y^3")) == 5  # {1, x, x^2, y, y^2}


def test_length_unit_and_empty():
    R = ring(5, ("x", "y"))
    assert length(Ideal(R, (R.one(),))) == 0
    R0 = PolyRing(field_new(5), ())
    assert length(Ideal(R0, ())) == 1  # the field itself


def test_length_matches_bruteforce_random():
    rng = random.Random(41)
    R = ring(3, ("x", "y"))
    for _ in range(15):
        gens = [random_nonzero_poly(rng, R, max_deg=2) for _ in range(2)]
        q = 3
        full = gens + [R.parse("x^3"), R.parse("y^3")]
        lam = length(Ideal(R, full))
        oracle = quotient_length_bruteforce(gens, (q, q), R)
        assert lam == oracle


def test_length_quadric_bracket_small():
    # A1 quadric: lambda(q) for q=3,5 pinned by the dense oracle
    for p, expected in [(3, 13), (5, 37)]:
        R = ring(p)
        f = R.parse("x*y - z^2")
        J = ideal_sum(Ideal(R, (f,)), ideal_from_monomials(
            R, [(p, 0, 0), (0, p, 0), (0, 0, p)]))
        lam = length(J)
        assert lam == quotient_length_bruteforce([f], (p, p, p), R)
        assert lam == expected  # (3*q^2 - 1)/2


def test_length_monotone_in_containment():
    rng = random.Random(43)
    R = ring(3, ("x", "y"))
    for _ in range(10):
        gens = [random_nonzero_poly(rng, R, max_deg=2) for _ in range(2)]
        J = Ideal(R, gens)
        Jbig = Ideal(R, gens + [random_nonzero_poly(rng, R, max_deg=2)])
        assert length(J) >= length(Jbig)


def test_standard_monomial_basis():
    R = ring(3, ("x", "y"))
    J = I(R, "x*y", "x^3", "y^3")
    lms = [g.lm() for g in J.groebner_basis()]
    basis = [m for m in box_monomials((3, 3))
             if not any(all(a >= b for a, b in zip(m, lm)) for lm in lms)]
    assert set(basis) == {(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)}
    assert length(J) == len(basis) == 5
    assert length(I(R, "x")) == INFINITE


def test_count_recursion_matches_enumeration():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(1, 3)
        R = PolyRing(field_new(3), tuple(f"v{i}" for i in range(n)))
        bounds = tuple(rng.randint(1, 5) for _ in range(n))
        monos = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(0, 4))]
        monos = [m for m in monos if any(m)]
        gens = [R.monomial(tuple(b if i == j else 0 for j in range(n)), 1)
                for i, b in enumerate(bounds)]
        gens += [R.monomial(m) for m in monos]
        lam = length(Ideal(R, gens))
        assert lam == standard_count_bruteforce(monos, bounds)
    # raw generator lists, unlike the leads of a reduced basis: duplicates,
    # generators that others divide, chains of them, and several pure powers
    # of one variable
    for _ in range(300):
        n = rng.randint(1, 4)
        pack = PolyRing(field_new(3), tuple(f"v{i}" for i in range(n))).codec.pack
        bounds = [rng.randint(1, 5) for _ in range(n)]
        gens = [tuple(b + rng.choice((0, 0, 2)) if i == j else 0 for j in range(n))
                for i, b in enumerate(bounds)]
        gens += [tuple(b if i == j else 0 for j in range(n)) for i, b in enumerate(bounds)]
        mixed = [tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(0, 8))]
        mixed = [m for m in mixed if any(m)]
        for m in list(mixed):
            if rng.random() < 0.5:  # a multiple of m, and of that multiple
                i = rng.randrange(n)
                up = tuple(e + (j == i) for j, e in enumerate(m))
                mixed += [up, tuple(e + 1 for e in up), m]
        gens += mixed
        rng.shuffle(gens)
        assert standard_count(map(pack, gens), range(n)) == standard_count_bruteforce(gens, bounds)
    # counting over some of the variables, the others set to 1 (multiplicity's
    # route): a generator's projection drops the other variables' exponents
    for _ in range(300):
        n = rng.randint(1, 5)
        pack = PolyRing(field_new(3), tuple(f"v{i}" for i in range(n))).codec.pack
        variables = sorted(rng.sample(range(n), rng.randint(0, n)))
        bounds = [rng.randint(1, 5) for _ in variables]
        gens = [tuple(b if i == j else rng.choice((0, 0, 3)) * (j not in variables)
                      for j in range(n)) for i, b in zip(variables, bounds)]
        gens += [tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(0, 8))]
        gens = [m for m in gens if any(m)]
        rng.shuffle(gens)
        projected = [tuple(m[j] for j in variables) for m in gens]
        assert standard_count(map(pack, gens), variables) == \
            standard_count_bruteforce(projected, bounds), (gens, variables)
    pack = PolyRing(field_new(3), ("x", "y", "z")).codec.pack
    assert standard_count([pack((2, 0, 0)), pack((1, 1, 0))], (0, 1)) == INFINITE  # no power of y
    assert standard_count([pack((2, 0, 5)), pack((0, 3, 0))], (0, 1)) == 6
    assert standard_count([pack((0, 0, 1)), pack((1, 0, 0))], (0,)) == 0  # z = 1 is a unit
    # the 0-variable ring F_3: one standard monomial, none modulo the unit ideal
    assert standard_count([], ()) == 1
    assert standard_count([0, 0], ()) == 0
    R0 = PolyRing(field_new(3), ())
    assert length(Ideal(R0, [])) == 1


def test_counting_the_quadric_lambda_3_leads_is_not_quadratic(monkeypatch):
    # the 346 leads of (xy - z^2) + m^[343] over F_7: minimalizing each slab's
    # generators from scratch made 146,547 divisibility tests here
    J = I(ring(7), "x*y - z^2", "x^343", "y^343", "z^343")
    leads = [g.packed[0][1] for g in J.groebner_basis()]
    calls = []
    divides = charp.ideal._divides

    def counted(a, b, guard):
        calls.append(a)
        return divides(a, b, guard)

    monkeypatch.setattr(charp.ideal, "_divides", counted)
    with Budget(max_box=10**8):
        assert standard_count(leads, range(3)) == 176473
    assert len(leads) == 346
    assert 0 < len(calls) < 50_000


def test_the_quadric_lambda_3_basis_pairs_each_lead_with_few_lcms(monkeypatch):
    # the pair update scanned every live lead, 60,368 lcms here: each new
    # lead kept 3 pairs on average against up to 172 live leads
    R = ring(7)
    box = [R.parse("x*y - z^2")] + [R.parse(f"{v}^343") for v in R.names]
    calls = []
    lcm = _Engine.lcm

    def counted(self, a, b):
        calls.append(a)
        return lcm(self, a, b)

    monkeypatch.setattr(_Engine, "lcm", counted)
    with Budget() as b:
        assert len(_buchberger(box, R)) == 346
    assert b.used_pairs == 688
    assert 0 < len(calls) < 5_000


@pytest.mark.parametrize("f, lam, pairs, size", [
    ("x*y - z^2", (3 * 2401**2 - 1) // 2, 4_804, 2_404),
    ("x^3 + y^3 + z^3", (9 * 2401**2 - 5) // 4, 1_376, 690),
])
def test_lambda_4_at_the_origin_with_raised_caps(f, lam, pairs, size):
    # item 9's closed forms at q = 7^4; the quadric's basis passes the
    # default max_basis, and every box the default max_box
    L = LocalRingAtPoint(I(ring(7), f), (0, 0, 0))
    with Budget(max_basis=5_000, max_box=10**11) as b:
        assert hk_function(L, 4).lam == lam
    assert (b.used_pairs, b.used_basis) == (pairs, size)


def test_homogenizing_past_the_exponent_limit_raises():
    # Lazard's t takes the degree a term lacks: 2 * EXPONENT_LIMIT for the
    # constant of x^L y^L + 1, which no packed field may hold
    R = ring(5, ("x", "y"))
    f = R.monomial((EXPONENT_LIMIT, EXPONENT_LIMIT)) + 1
    with pytest.raises(ExponentOverflowError):
        local_leading_monomials(Ideal(R, [f]), (0, 0))
    g = R.monomial((EXPONENT_LIMIT, 0)) + R.monomial((0, 1))
    assert local_leading_monomials(Ideal(R, [g]), (0, 0)) == (R.codec.pack((0, 1)),)  # local: y


def test_length_budget():
    R = ring(5, ("x", "y"))
    with pytest.raises(ResourceBudgetError), Budget(max_box=100):
        length(I(R, "x^100", "y^100"))


def test_budget_blocks_nest_and_restore_the_outer_budget():
    from charp.spectrum import flat_extension_check

    R = ring(5, ("x", "y"))
    outer, inner = Budget(), Budget(max_box=10)
    with outer:
        with pytest.raises(ResourceBudgetError), inner:
            assert active_budget() is inner
            length(I(R, "x^4", "y^4"))  # a box of 16
        assert active_budget() is outer
        assert length(I(R, "x^4", "y^4")) == 16
        with Budget():
            pass
        assert active_budget() is outer
    assert (inner.used_box, outer.used_box) == (16, 16)
    # outside any block each call gets a fresh default budget, caps included
    assert active_budget() is not active_budget()
    assert active_budget().snapshot() == Budget().snapshot()
    L = LocalRingAtPoint(I(R, "x*y"), (0, 0))
    for work in (lambda: flat_extension_check(L, 10**9, 1),
                 lambda: length(I(R, "x^2000", "y^2000"))):
        with pytest.raises(ResourceBudgetError):
            work()


# -- dimension ---------------------------------------------------------------

def test_krull_dim_examples():
    R = ring(5)
    assert krull_dim(I(R, "x*y - z^2")) == 2
    assert krull_dim(Ideal(R, ())) == 3
    R2 = ring(5, ("x", "y"))
    assert krull_dim(I(R2, "x", "y")) == 0
    assert krull_dim(I(R2, "x*y")) == 1


def test_krull_dim_unit_errors():
    R = ring(5, ("x", "y"))
    with pytest.raises(UnitIdealError):
        krull_dim(Ideal(R, (R.one(),)))


# -- Hilbert-Samuel ----------------------------------------------------------
# dim R_m and e(R_m) from the standard basis at the point (Lazard's method)

def _dim_e(J, point):
    L = LocalRingAtPoint(J, point)
    return L.d, multiplicity(L)


def test_hilbert_samuel_regular():
    R = ring(5, ("x", "y"))
    assert _dim_e(Ideal(R, ()), (0, 0)) == (2, 1)


def test_hilbert_samuel_quadric():
    R = ring(5)
    assert _dim_e(I(R, "x*y - z^2"), (0, 0, 0)) == (2, 2)


def test_hilbert_samuel_artinian_convention():
    R = PolyRing(field_new(5), ("x",))
    assert _dim_e(I(R, "x^2"), (0,)) == (0, 2)


def test_hilbert_samuel_explicit_m():
    # the node (x-1)(y-2) has e = 2 at its own point; the origin is off V(I)
    R = ring(5, ("x", "y"))
    J = I(R, "(x + 4)*(y + 3)")
    assert _dim_e(J, (1, 2)) == (1, 2)
    with pytest.raises(ValueError, match="does not vanish"):
        LocalRingAtPoint(J, (0, 0))


@pytest.mark.parametrize("at_origin", [True, False])
def test_standard_basis_matches_the_hilbert_samuel_table(at_origin):
    # random ideals of the origin, moved to a random point, against the
    # difference table of n -> lambda(S/(I + m^n)) up to n = 12 wherever
    # that table settles
    rng = random.Random(11 + at_origin)
    settled = 0
    for _ in range(10):
        R = ring(rng.choice((2, 3, 5, 7)), ("x", "y", "z")[:rng.choice((2, 3))])
        point = tuple(0 if at_origin else rng.randrange(R.p) for _ in range(R.nvars))
        origin = (0,) * R.nvars
        gens = [(f - R.const(f.evaluate(origin))).shift([-a for a in point])
                for f in (random_nonzero_poly(rng, R) for _ in range(rng.randint(1, 3)))]
        J = Ideal(R, gens)
        if J.is_zero():
            continue
        table = hilbert_samuel_table(J, point, 12)
        if table is not None:
            settled += 1
            assert _dim_e(J, point) == table, (J, point)
    assert settled >= 8


def test_ideal_product_and_power():
    R = ring(5, ("x", "y"))
    A = I(R, "x", "y")
    assert ideal_equal(ideal_product(A, A), ideal_power(A, 2))
    assert length(ideal_sum(ideal_power(A, 3), Ideal(R, ()))) == 6
    # the generators of the one-factor-at-a-time product loop, in its order
    rng = random.Random(31)
    for _ in range(60):
        Rp = ring(rng.choice((2, 3, 5)), ("x", "y"))
        gens = [random_nonzero_poly(rng, Rp) for _ in range(rng.randint(1, 3))]
        n = rng.randint(0, 6)
        loop = []
        for combo in combinations_with_replacement(gens, n):
            g = Rp.one()
            for f in combo:
                g = g * f
            loop.append(g)
        assert ideal_power(Ideal(Rp, gens), n).gens == tuple(loop)
