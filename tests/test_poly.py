"""Sparse polynomial arithmetic, monomial orders, and the parser."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from charp.errors import ExponentOverflowError, ParseError, UnknownVariableError
from charp.gf import field_new
from charp.ideal import Budget, standard_count
from charp.poly import (
    EXPONENT_LIMIT,
    MonomialOrder,
    PolyRing,
    _Engine,
    poly_pow,
)

from oracles import dict_power, dict_product, dict_sum, mono_mul, random_poly


def ring(p=5, names=("x", "y", "z"), order=None):
    return PolyRing(field_new(p), names, order)


# -- parser ------------------------------------------------------------------

def test_parse_basic():
    R = ring(5)
    f = R.parse("x*y - z^2")
    assert dict(f.terms) == {(1, 1, 0): 1, (0, 0, 2): 4}


def test_parse_fermat_cubic():
    R = ring(7)
    f = R.parse("x^3+y^3+z^3")
    assert len(f.terms) == 3
    assert f.degree() == 3


def test_parse_unknown_variable():
    R = ring(5)
    with pytest.raises(UnknownVariableError):
        R.parse("x + w")


def test_parse_errors_carry_position():
    R = ring(5)
    with pytest.raises(ParseError) as err:
        R.parse("x + $")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        R.parse("x y")  # implicit multiplication is not allowed
    with pytest.raises(ParseError):
        R.parse("-x")  # no unary minus in the grammar
    with pytest.raises(ParseError):
        R.parse("x^y")


def test_parse_parentheses_and_literals():
    R = ring(5)
    assert R.parse("(x + y)^2") == R.parse("x^2 + 2*x*y + y^2")
    assert R.parse("7") == R.const(2)
    assert R.parse("2^3") == R.const(3)  # 8 mod 5


def test_str_round_trip():
    R = ring(5)
    for src in ["x*y - z^2", "x^3+y^3+z^3", "1 + 2*x", "0"]:
        f = R.parse(src)
        assert R.parse(str(f)) == f


# -- arithmetic --------------------------------------------------------------

def test_freshman_dream_binomial():
    R = ring(5, ("x", "y"))
    assert poly_pow(R.parse("x + y"), 5) == R.parse("x^5 + y^5")


def test_pow_identity_and_binomial():
    R = ring(7, ("x", "y"))
    assert poly_pow(R.parse("x + y"), 0) == R.one()
    assert poly_pow(R.parse("x + y"), 2) == R.parse("x^2 + 2*x*y + y^2")


def test_frobenius_power_matches_repeated_squaring():
    rng = random.Random(7)
    for p in (2, 3, 5):
        R = ring(p, ("x", "y"))
        for _ in range(10):
            f = random_poly(rng, R)
            assert f.frobenius_power(p) == _pow_naive(f, p)
            assert poly_pow(f, p * p) == _pow_naive(f, p * p)


def _pow_naive(f, n):
    out = f.ring.one()
    for _ in range(n):
        out = out * f
    return out


def test_ring_axioms_against_evaluation_oracle():
    rng = random.Random(11)
    R = ring(7, ("x", "y"))
    pts = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(5)]
    for _ in range(40):
        f = random_poly(rng, R)
        g = random_poly(rng, R)
        h = random_poly(rng, R)
        for pt in pts:
            fv, gv, hv = f.evaluate(pt), g.evaluate(pt), h.evaluate(pt)
            assert (f + g).evaluate(pt) == (fv + gv) % 7
            assert (f * g).evaluate(pt) == (fv * gv) % 7
            assert ((f + g) * h).evaluate(pt) == ((fv + gv) * hv) % 7
            assert (f * (g * h)).evaluate(pt) == (fv * gv * hv) % 7


def test_additive_frobenius_on_sums():
    rng = random.Random(13)
    for p, e in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]:
        R = ring(p, ("x", "y"))
        q = p**e
        for _ in range(8):
            f = random_poly(rng, R, max_deg=2)
            g = random_poly(rng, R, max_deg=2)
            assert poly_pow(f + g, q) == poly_pow(f, q) + poly_pow(g, q)


def test_exponent_overflow_is_loud():
    R = ring(5, ("x",))
    f = R.parse("x^65536")
    with pytest.raises(ExponentOverflowError):
        poly_pow(f, 65536)  # 2^32 exponent


@pytest.mark.parametrize("mono,error", [
    ((2**40, 0), ExponentOverflowError),  # wrapped into y's field: (x^(2^40)) held y
    ((0, EXPONENT_LIMIT + 1), ExponentOverflowError),
    ((-1, 0), ValueError),  # x * x^-1 was 1
    ((1, 2, 3), ValueError),  # read as x*y^2
    ((1,), ValueError),
])
def test_packing_rejects_a_monomial_it_cannot_hold(mono, error):
    R = ring(5, ("x", "y"))
    with pytest.raises(error):
        R.monomial(mono)
    with pytest.raises(error):
        R.from_dict({mono: 1})
    assert R.monomial((EXPONENT_LIMIT, 0)).lm() == (EXPONENT_LIMIT, 0)


def test_evaluate_rejects_a_point_of_the_wrong_arity():
    R = ring(7, ("x", "y"))
    f = R.parse("x*y + y + 3")
    with pytest.raises(ValueError, match="arity"):
        f.evaluate((1,))
    assert f.evaluate((1, 2)) == 0


PACKED_ORDERS = {
    "lex": MonomialOrder.lex(3),
    "grevlex": MonomialOrder.grevlex(3),
    "elim": MonomialOrder.elimination(3, 1),
    "lazard": MonomialOrder("lazard", 3),
}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("order", sorted(PACKED_ORDERS))
def test_packed_arithmetic_matches_the_dict_oracle(order, p):
    # exponents near EXPONENT_LIMIT / 2 make some products pass the limit,
    # and those near EXPONENT_LIMIT / q some Frobenius powers
    R = ring(p, order=PACKED_ORDERS[order])
    rng = random.Random(10 * p + sorted(PACKED_ORDERS).index(order))

    def rand(top):
        d = {}
        for _ in range(rng.randint(0, 4)):
            mono = tuple(rng.choice((rng.randint(0, 3), top - rng.randint(-1, 3))) for _ in range(3))
            d[mono] = rng.randint(0, p - 1)  # zero coefficients too
        return R.from_dict(d)

    def same(engine, oracle):
        try:
            want = oracle()
        except ExponentOverflowError:
            with pytest.raises(ExponentOverflowError):
                engine()
            return False
        got = engine()
        key = lambda t: R.order.key(R.codec.pack(t[0]))  # noqa: E731
        assert got.terms == tuple(sorted(want.items(), key=key, reverse=True))
        assert [k for k, _, _ in got.packed] == list(map(key, got.terms))
        return True

    fits = 0
    for _ in range(30):
        f, g = rand(EXPONENT_LIMIT // 2), rand(EXPONENT_LIMIT // 2)
        a, b = dict(f.terms), dict(g.terms)
        same(lambda: f + g, lambda: dict_sum(a, b, p))
        same(lambda: f - g, lambda: dict_sum(a, b, p, -1))
        same(lambda: f - f, lambda: {})
        same(lambda: -g, lambda: dict_sum({}, b, p, -1))
        fits += same(lambda: f * g, lambda: dict_product(a, b, p))
        small = rand(3)
        for n in (0, 1, 2, p + 1, 2 * p + 1):
            same(lambda: poly_pow(small, n), lambda: dict_power(dict(small.terms), n, p, 3))
        q = p ** rng.randint(1, 3)
        h = rand(EXPONENT_LIMIT // q)
        fits += same(lambda: h.frobenius_power(q), lambda: dict_power(dict(h.terms), q, p, 3))
    assert 0 < fits < 60  # both outcomes were checked


def test_shift_moves_point_to_origin():
    R = ring(7)
    f = R.parse("x*y - z^2")
    pt = (2, 2, 2)
    assert f.evaluate(pt) == 0
    g = f.shift(pt)
    assert g.evaluate((0, 0, 0)) == 0
    # shifting is substitution x -> x + a
    rng = random.Random(3)
    for _ in range(5):
        q = tuple(rng.randint(0, 6) for _ in range(3))
        assert g.evaluate(q) == f.evaluate(tuple((a + b) % 7 for a, b in zip(q, pt)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_shift_matches_the_product_of_translated_variables(p):
    # exponents up to 2p + 1 make some binomials C(m, k) vanish mod p, and
    # each point mixes zero and nonzero coordinates
    R = ring(p)
    rng = random.Random(p)
    for _ in range(20):
        d = {tuple(rng.randint(0, 2 * p + 1) for _ in range(3)): rng.randint(1, p - 1)
             for _ in range(rng.randint(1, 4))}
        f = R.from_dict(d)
        point = [rng.randint(1, p - 1) for _ in range(3)]
        point[rng.randrange(3)] = 0
        expected = R.zero()
        for m, c in f.terms:
            term = R.const(c)
            for i, (e, a) in enumerate(zip(m, point)):
                for _ in range(e):
                    term = term * (R.gen(i) + R.const(a))
            expected = expected + term
        assert f.shift(point) == expected
        assert f.shift(point).shift([-a for a in point]) == f


def test_shift_takes_one_coordinate_per_variable():
    f = ring(5).parse("x*y - z^2")
    for point in [(1, 2), (1, 2, 3, 4)]:
        with pytest.raises(ValueError, match="arity"):
            f.shift(point)


def test_derivative():
    R = ring(5)
    f = R.parse("x*y - z^2")
    assert f.derivative(0) == R.parse("y")
    assert f.derivative(2) == R.parse("3*z")  # -2 mod 5
    assert R.parse("x^5").derivative(0).is_zero()  # p-th powers are constants


def test_mixed_rings_are_rejected_under_optimize():
    # `python -O` strips `assert` statements (the child's own `assert False`
    # proves it ran optimized); x + z printed "x + " and x*z returned x
    code = "\n".join([
        "import sys",
        "from charp.gf import field_new",
        "from charp.poly import PolyRing",
        "assert False",
        "F = field_new(5)",
        "x = PolyRing(F, ('x', 'y')).gen(0)",
        "z = PolyRing(F, ('x', 'y', 'z')).gen(2)",
        "for op in (lambda: x + z, lambda: x - z, lambda: x * z):",
        "    try:",
        "        op()",
        "    except ValueError as exc:",
        "        print(exc)",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["mixed rings"] * 3


# -- orders ------------------------------------------------------------------

def _random_mono(rng, n, hi=6):
    return tuple(rng.randint(0, hi) for _ in range(n))


@pytest.mark.parametrize(
    "order",
    [
        MonomialOrder.lex(3),
        MonomialOrder.grevlex(3),
        MonomialOrder.elimination(3, 1),
        MonomialOrder("lazard", 3),
    ],
)
def test_order_axioms(order):
    rng = random.Random(5)
    pack = _Engine(3).pack
    one = (0, 0, 0)
    for _ in range(300):
        a, b, c = (_random_mono(rng, 3) for _ in range(3))
        ka, kb = order.key(pack(a)), order.key(pack(b))
        # total order, 1 least
        assert order.key(pack(one)) <= ka
        # compatible with multiplication
        if ka < kb:
            assert order.key(pack(mono_mul(a, c))) < order.key(pack(mono_mul(b, c)))
        elif ka == kb:
            assert a == b


def test_grevlex_tie_break():
    order, pack = MonomialOrder.grevlex(3), _Engine(3).pack
    # x*y > z^2 in grevlex with x > y > z
    assert order.key(pack((1, 1, 0))) > order.key(pack((0, 0, 2)))


def test_elimination_order_blocks():
    order, pack = MonomialOrder.elimination(3, 1), _Engine(3).pack
    # anything with the first variable beats anything without
    assert order.key(pack((1, 0, 0))) > order.key(pack((0, 9, 9)))


# textbook comparators: 1 when a > b, -1 when a < b, 0 when a == b
def _lex_cmp(a, b):
    for x, y in zip(a, b):
        if x != y:
            return 1 if x > y else -1
    return 0


def _grevlex_cmp(a, b):
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    for x, y in zip(reversed(a), reversed(b)):  # the last differing exponent
        if x != y:
            return 1 if x < y else -1
    return 0


def _elim_cmp(k):
    return lambda a, b: _grevlex_cmp(a[:k], b[:k]) or _grevlex_cmp(a[k:], b[k:])


def _lazard_cmp(a, b):
    # total degree, then the larger power of t = a[0], then grevlex in x
    return ((sum(a) > sum(b)) - (sum(a) < sum(b)) or (a[0] > b[0]) - (a[0] < b[0])
            or _grevlex_cmp(a[1:], b[1:]))


@pytest.mark.parametrize("n", range(1, 7))
def test_order_key_matches_textbook_comparators(n):
    rng = random.Random(n)
    exponents = (lambda: rng.randint(0, 3), lambda: EXPONENT_LIMIT - rng.randint(0, 3),
                 lambda: rng.randint(0, EXPONENT_LIMIT))
    monos = [(0,) * n] + [tuple(rng.choice(exponents)() for _ in range(n))
                          for _ in range(60)]
    orders = [(MonomialOrder.lex(n), _lex_cmp), (MonomialOrder.grevlex(n), _grevlex_cmp)]
    orders += [(MonomialOrder.elimination(n, k), _elim_cmp(k)) for k in range(1, n)]
    orders.append((MonomialOrder("lazard", n), _lazard_cmp))
    packed = [_Engine(n).pack(t) for t in monos]
    for order, cmp in orders:
        key = order.key
        assert key(0) == 0
        for a, ma in zip(monos, packed):
            ka = key(ma)
            assert type(ka) is int
            for b, mb in zip(monos, packed):
                kb = key(mb)
                assert (ka > kb) - (ka < kb) == cmp(a, b), (order, a, b)
                assert key(ma + mb) == ka + kb  # ma + mb is the product


def test_terms_sorted_descending():
    R = ring(5)
    f = R.parse("1 + z + y + x + x*y + z^2")
    keys = [R.order.key(R.codec.pack(m)) for m, _ in f.terms]
    assert keys == sorted(keys, reverse=True)


# -- counting ----------------------------------------------------------------

@pytest.mark.parametrize("bounds,expected", [((5, 5, 5), 125), ((2, 3), 6), ((1, 4), 4)])
def test_standard_count_charges_the_box_of_the_pure_powers(bounds, expected):
    # the box prod [0, b_i) of the pure powers x_i^b_i holds every standard monomial
    R = PolyRing(field_new(3), tuple(f"v{i}" for i in range(len(bounds))))
    leads = [R.codec.pack(tuple(b if i == j else 0 for j in range(len(bounds))))
             for i, b in enumerate(bounds)]
    with Budget() as budget:
        assert standard_count(leads, range(len(bounds))) == expected
    assert budget.used_box == expected
