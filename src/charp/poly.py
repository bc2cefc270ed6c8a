"""Sparse multivariate polynomial arithmetic over F_p.

A monomial is one integer, packed: one bit-field per variable (`_Engine`),
so multiplying monomials adds integers, dividing subtracts them with a guard
bit per field, and the lcm is a field-wise max.  The order key of a packed
monomial is a linear function of its fields (`MonomialOrder.key`), so the
key of a product is the sum of the keys.  A polynomial stores its terms as
(order key, packed monomial, coefficient), sorted strictly descending in the
ring's monomial order, so iteration order and printed output are canonical;
this is the form the Groebner engine in `ideal` reduces.

Exponent tuples exist only at the public edge: `Polynomial.terms` and `lm`
unpack, and `PolyRing.from_dict` (through which `monomial`, `const` and
`gen` go) packs, checking each tuple.  Inside the package a polynomial whose
monomials are mapped to another ring (a variable prepended or appended, a
homogenizing variable added) is rebuilt by `PolyRing.from_packed`, which
keys and sorts packed terms.

All term arithmetic sums in one accumulator, `_TermSum`: a dict from order
key to term plus a max-heap of the keys (Monagan & Pearce, CASC 2007).
Sums, differences and products here add into it, as do normal forms,
S-polynomials and exact division in `ideal`.
"""

from __future__ import annotations

import heapq
from functools import reduce
from math import comb

from .errors import ExponentOverflowError, ParseError, UnknownVariableError
from .gf import FieldContext

EXPONENT_LIMIT = 2**31 - 1


# ---------------------------------------------------------------------------
# monomial orders

# bits per exponent, in the order weights and in packed monomials (whose
# guard bit needs exponents below 2**(_FIELD_BITS - 1))
_FIELD_BITS = 40
_FIELD_MASK = (1 << _FIELD_BITS) - 1  # one exponent of a packed monomial


def _grevlex_weights(n: int) -> list:
    top = 1 << (n * _FIELD_BITS)
    return [top - (1 << (j * _FIELD_BITS)) for j in range(n)]


class MonomialOrder:
    """Total order on packed monomials, compatible with multiplication and
    with 1 as least element.

    kind is one of 'lex', 'grevlex', 'elim', 'lazard'; 'elim' compares a
    leading block of variables first (grevlex within each block), which
    eliminates the block variables in Groebner bases; a block of every
    variable is grevlex.  'lazard' orders k[t, x_1..x_m] by degree, then the
    larger power of t, then grevlex in x (Lazard's method,
    `ideal.local_leading_monomials`).

    Every kind is one integer weight vector w, and key(m) = sum_j t_j * w_j
    for the exponents t_j, the fields of packed m (B = _FIELD_BITS bits per
    exponent):
      lex      w_j = 2^((n-1-j)B)
      grevlex  w_j = 2^(nB) - 2^(jB), i.e. key = deg(m) * 2^(nB) - m
      elim     the grevlex weights of the block, times 2^((n-k+1)B), then
               the grevlex weights of the other n-k variables.
      lazard   t: 2^((m+4)B) + 2^((m+2)B), x_j: 2^((m+4)B) + grevlex w_j.
    The key orders monomials exactly while every exponent is below 2^B and,
    for elim (lazard), the degree in the last n-k (all) variables is too;
    both hold for exponents up to EXPONENT_LIMIT = 2^31 - 1 with fewer than
    2^(B-31) variables.  The key is linear: key(a*b) = key(a) + key(b), key(1) = 0.
    """

    __slots__ = ("kind", "nvars", "block", "weights")

    def __init__(self, kind: str, nvars: int, block: int = 0):
        if kind not in ("lex", "grevlex", "elim", "lazard"):
            raise ValueError(f"unknown monomial order kind '{kind}'")
        if kind == "elim" and not (0 < block <= nvars):
            raise ValueError("elimination block must be a non-empty prefix")
        self.kind = kind
        self.nvars = nvars
        self.block = block
        B = _FIELD_BITS
        if kind == "lex":
            w = [1 << ((nvars - 1 - j) * B) for j in range(nvars)]
        elif kind == "grevlex":
            w = _grevlex_weights(nvars)
        elif kind == "lazard":
            top = 1 << ((nvars + 3) * B)
            w = [top + g for g in [1 << ((nvars + 1) * B)] + _grevlex_weights(nvars - 1)]
        else:
            hi = 1 << ((nvars - block + 1) * B)
            w = [x * hi for x in _grevlex_weights(block)]
            w += _grevlex_weights(nvars - block)
        self.weights = tuple(w)

    @staticmethod
    def lex(nvars: int) -> "MonomialOrder":
        return MonomialOrder("lex", nvars)

    @staticmethod
    def grevlex(nvars: int) -> "MonomialOrder":
        return MonomialOrder("grevlex", nvars)

    @staticmethod
    def elimination(nvars: int, block: int) -> "MonomialOrder":
        return MonomialOrder("elim", nvars, block)

    def key(self, m: int) -> int:
        """Sort key of packed monomial m: bigger key = bigger monomial."""
        B = _FIELD_BITS
        return sum((m >> (j * B) & _FIELD_MASK) * w for j, w in enumerate(self.weights))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and (self.kind, self.nvars, self.block)
            == (other.kind, other.nvars, other.block)
        )

    def __hash__(self):
        return hash((self.kind, self.nvars, self.block))

    def __repr__(self):
        if self.kind == "elim":
            return f"MonomialOrder(elim, block={self.block})"
        return f"MonomialOrder({self.kind})"


# ---------------------------------------------------------------------------
# packed terms

class _Engine:
    """Packed-integer monomial codec for n variables: the exponent of x_j
    sits in the field of _FIELD_BITS bits at bit j * _FIELD_BITS.  A ring
    owns one, and it holds no reference back to the ring."""

    __slots__ = ("n", "guard", "ones", "top", "over")

    def __init__(self, n: int):
        B = _FIELD_BITS
        self.n = n
        self.guard = 0
        self.ones = 0  # a 1 in every field
        for j in range(n):
            self.guard |= 1 << (j * B + B - 1)
            self.ones |= 1 << (j * B)
        self.top = max(n - 1, 0) * B  # the offset of the last field
        self.over = self.ones * (_FIELD_MASK ^ EXPONENT_LIMIT)  # the bits past EXPONENT_LIMIT

    def pack(self, t: tuple) -> int:
        """Exponent tuple t packed, once it is checked to hold n exponents,
        each in [0, EXPONENT_LIMIT]."""
        if len(t) != self.n:
            raise ValueError("monomial arity mismatch")
        B = _FIELD_BITS
        m = 0
        for j, e in enumerate(t):
            if e < 0:
                raise ValueError("negative exponent")
            if e > EXPONENT_LIMIT:
                # the exponent itself may be too long to format
                raise ExponentOverflowError("exponent exceeds 32-bit bound")
            m |= e << (j * B)
        return m

    def unpack(self, m: int) -> tuple:
        B = _FIELD_BITS
        return tuple((m >> (j * B)) & _FIELD_MASK for j in range(self.n))

    def div(self, a: int, b: int):
        """a / b as packed monomials, or None."""
        t = (a | self.guard) - b
        if t & self.guard == self.guard:
            return t ^ self.guard
        return None

    def lcm(self, a: int, b: int) -> int:
        """lcm(a, b) of packed monomials, a field-wise max."""
        g = self.guard
        ge = ((a | g) - b) & g  # the guard bit of each field where a >= b
        low = ge - (ge >> (_FIELD_BITS - 1))  # the exponent bits of those fields
        return (a & low) | (b & ~low)

    def degree(self, m: int) -> int:
        """The total degree of packed m.  The product with `ones` sums every
        field into the last one, and no field carries: a degree stays below
        2**_FIELD_BITS for exponents up to EXPONENT_LIMIT in fewer than 512
        variables."""
        return (m * self.ones >> self.top) & _FIELD_MASK


def _monic(terms, field):
    c = terms[0][2]
    if c == 1:
        return terms
    inv = field.inv(c)
    p = field.p
    return [(k, m, (cc * inv) % p) for k, m, cc in terms]


class _TermSum:
    """A running sum of packed terms: a dict from order key to the term
    (key, mono, coeff) of that key, and a max-heap (negated) holding each
    dict key once.  Keys are injective on packed monomials, so equal keys
    are like terms."""

    __slots__ = ("p", "terms", "heap")

    def __init__(self, p, terms=()):
        """The sum of a descending term list; it holds, and pops, the list's
        own tuples until they are added to."""
        self.p = p
        self.terms: dict = {t[0]: t for t in terms}
        self.heap: list = [-t[0] for t in terms]  # ascending, so a heap

    def add(self, terms, skey, smono, coef):
        """Add coef * x^s * terms, given key(x^s) and packed x^s."""
        p, acc, heap = self.p, self.terms, self.heap
        push = heapq.heappush
        for k, m, c in terms:
            k += skey
            old = acc.get(k)
            if old is None:
                acc[k] = (k, m + smono, c * coef % p)
                push(heap, -k)
            else:
                acc[k] = (k, old[1], (old[2] + c * coef) % p)

    def pop(self):
        """Remove and return the leading nonzero term, or None."""
        acc, heap = self.terms, self.heap
        while heap:
            t = acc.pop(-heapq.heappop(heap))
            if t[2]:
                return t
        return None


# ---------------------------------------------------------------------------
# ring and polynomials

class PolyRing:
    """F_p[x_1..x_n] with a fixed monomial order (default grevlex) and the
    codec that packs its monomials."""

    __slots__ = ("field", "names", "order", "nvars", "codec", "_index")

    def __init__(self, field: FieldContext, names, order: MonomialOrder | None = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.field = field
        self.names = names
        self.nvars = len(names)
        self.order = order if order is not None else MonomialOrder.grevlex(len(names))
        if self.order.nvars != self.nvars:
            raise ValueError("order arity does not match variable count")
        self.codec = _Engine(self.nvars)
        self._index = {n: i for i, n in enumerate(names)}

    @property
    def p(self) -> int:
        return self.field.p

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: int) -> "Polynomial":
        return self.from_dict({(0,) * self.nvars: c})

    def gen(self, i: int) -> "Polynomial":
        return self.from_dict({tuple(1 if j == i else 0 for j in range(self.nvars)): 1})

    def gens(self):
        return [self.gen(i) for i in range(self.nvars)]

    def monomial(self, mono, c: int = 1) -> "Polynomial":
        return self.from_dict({tuple(mono): c})

    def from_dict(self, coeffs: dict) -> "Polynomial":
        """The sum of c * x^mono over coeffs, each mono an exponent tuple of
        the ring's arity with exponents in [0, EXPONENT_LIMIT]."""
        pack, normalize = self.codec.pack, self.field.normalize
        return self.from_packed([(pack(mono), normalize(c)) for mono, c in coeffs.items()])

    def from_packed(self, pairs) -> "Polynomial":
        """The sum of c * x^m over pairs (m, c) of distinct packed monomials
        and coefficients in [0, p), keyed and sorted in the ring's order; an
        exponent past EXPONENT_LIMIT is rejected."""
        key, over = self.order.key, self.codec.over
        terms = []
        for m, c in pairs:
            if m & over:
                raise ExponentOverflowError("exponent exceeds 32-bit bound")
            if c:
                terms.append((key(m), m, c))
        terms.sort(reverse=True)  # keys are distinct, so only they are compared
        return Polynomial(self, tuple(terms))

    def parse(self, src: str) -> "Polynomial":
        return parse_poly(src, self)

    def extend(self, new_names) -> "PolyRing":
        """Ring with extra variables appended, in the default order."""
        return PolyRing(self.field, self.names + tuple(new_names))

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, self.names, self.order))

    def __repr__(self):
        return f"PolyRing(F_{self.p}[{', '.join(self.names)}], {self.order!r})"


class Polynomial:
    """Immutable sparse polynomial.  `packed` holds its terms as (order key,
    packed monomial, coefficient), strictly descending in the ring's order,
    the form the Groebner engine reduces; `terms` gives the same terms as
    (exponent tuple, coefficient)."""

    __slots__ = ("ring", "packed")

    def __init__(self, ring: PolyRing, packed: tuple):
        self.ring = ring
        self.packed = packed

    # -- basic queries ------------------------------------------------------

    @property
    def terms(self) -> tuple:
        unpack = self.ring.codec.unpack
        return tuple((unpack(m), c) for _, m, c in self.packed)

    def is_zero(self) -> bool:
        return not self.packed

    def lm(self) -> tuple:
        """Leading monomial."""
        return self.ring.codec.unpack(self.packed[0][1])

    def lc(self) -> int:
        return self.packed[0][2]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(self.ring.codec.degree, (m for _, m, _ in self.packed)), default=-1)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return NotImplemented

    def _plus(self, other, sign: int):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = _TermSum(self.ring.p, self.packed)
        acc.add(other.packed, 0, 0, sign)
        return Polynomial(self.ring, tuple(iter(acc.pop, None)))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = _TermSum(self.ring.p)
        for k, m, c in other.packed:
            acc.add(self.packed, k, m, c)
        terms = tuple(iter(acc.pop, None))
        # each variable's top power in the product is the product of the
        # factors' top parts, never 0 in a domain, so an exponent past the
        # limit (below 2 * EXPONENT_LIMIT, so it fits its field) is kept
        over = self.ring.codec.over
        if any(m & over for _, m, _ in terms):
            raise ExponentOverflowError("exponent exceeds 32-bit bound")
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def scale(self, c: int) -> "Polynomial":
        c = self.ring.field.normalize(c)
        if c == 0:
            return self.ring.zero()
        p = self.ring.p
        return Polynomial(self.ring, tuple((k, m, (c0 * c) % p) for k, m, c0 in self.packed))

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return Polynomial(self.ring, tuple(_monic(self.packed, self.ring.field)))

    def __pow__(self, n: int) -> "Polynomial":
        return poly_pow(self, n)

    def frobenius_power(self, q: int) -> "Polynomial":
        """self**q for q a power of p, by the term-wise Frobenius (c^q = c in F_p)."""
        eng = self.ring.codec
        top = reduce(eng.lcm, (m for _, m, _ in self.packed), 0)
        # top, the field-wise largest exponents, divides the box of exponents
        # at most EXPONENT_LIMIT // q, unless some exponent times q passes the limit
        if eng.div(eng.ones * (EXPONENT_LIMIT // q), top) is None:
            raise ExponentOverflowError("scaled exponent exceeds 32-bit bound")
        # key(q*t) = q*key(t): the terms stay sorted
        return Polynomial(self.ring, tuple((k * q, m * q, c) for k, m, c in self.packed))

    # -- calculus / evaluation ----------------------------------------------

    def evaluate(self, point) -> int:
        p = self.ring.p
        point = [a % p for a in point]
        if len(point) != self.ring.nvars:
            raise ValueError("point arity does not match the ring")
        total = 0
        for m, c in self.terms:
            v = c
            for a, e in zip(point, m):
                if e:
                    v = (v * pow(a, e, p)) % p
            total = (total + v) % p
        return total

    def derivative(self, i: int) -> "Polynomial":
        p = self.ring.p
        d: dict = {}
        for m, c in self.terms:
            e = m[i]
            if e % p == 0:
                continue
            nm = m[:i] + (e - 1,) + m[i + 1 :]
            d[nm] = (d.get(nm, 0) + c * e) % p
        return self.ring.from_dict(d)

    def shift(self, point) -> "Polynomial":
        """f(x + a): translate the point a, one coordinate per variable, to
        the origin.  Each term c x^m expands in one pass into c times the
        product of the rows (x_i + a_i)^(m_i) = sum_k C(m_i, k) a_i^(m_i - k)
        x_i^k, keeping the binomials that are nonzero mod p."""
        ring, p = self.ring, self.ring.p
        point = tuple(ring.field.normalize(a) for a in point)
        if len(point) != ring.nvars:
            raise ValueError("point arity does not match the ring")
        out: dict = {}
        for m, c in self.terms:
            parts = [((), c)]
            for e, a in zip(m, point):
                row = [(k, comb(e, k) * pow(a, e - k, p) % p) for k in range(e + 1)] if a else [(e, 1)]
                parts = [(t + (k,), b * r % p) for t, b in parts for k, r in row if r]
            for t, b in parts:
                out[t] = out.get(t, 0) + b
        return ring.from_dict(out)

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((self.ring.names, self.ring.p, self.packed))

    def __str__(self):
        if not self.packed:
            return "0"
        parts = []
        for m, c in self.terms:
            factors = []
            if c != 1 or not any(m):
                factors.append(str(c))
            for name, e in zip(self.ring.names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over F_{self.ring.p}>"


def poly_pow(f: Polynomial, n: int) -> Polynomial:
    """f**n by repeated squaring, with the term-wise Frobenius fast path
    when n is a power of the characteristic."""
    if n < 0:
        raise ValueError("negative exponent")
    if n == 0:
        return f.ring.one()
    p = f.ring.p
    m = n
    while m % p == 0:
        m //= p
    if m == 1:  # n = p^e
        return f.frobenius_power(n)
    result = f.ring.one()
    base = f
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


# ---------------------------------------------------------------------------
# parser
#
# expr   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := INT | VAR | factor '^' INT | '(' expr ')'
#
# Whitespace is ignored; implicit multiplication is not allowed; INT is a
# non-negative decimal literal (reduced mod p).

class _Tokens:
    def __init__(self, src: str):
        self.src = src
        self.toks: list[tuple[str, str, int]] = []
        i, n = 0, len(src)
        while i < n:
            ch = src[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and src[j].isdigit():
                    j += 1
                self.toks.append(("INT", src[i:j], i))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                self.toks.append(("VAR", src[i:j], i))
                i = j
            elif ch in "+-*^()":
                self.toks.append((ch, ch, i))
                i += 1
            else:
                raise ParseError(f"unexpected character '{ch}'", i)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.toks):
            return self.toks[self.pos]
        return ("EOF", "", len(self.src))

    def next(self):
        t = self.peek()
        self.pos += 1
        return t


def parse_poly(src: str, ring: PolyRing) -> Polynomial:
    """Parse the exact expression grammar above into a polynomial."""
    toks = _Tokens(src)
    result = _parse_expr(toks, ring)
    kind, text, pos = toks.peek()
    if kind != "EOF":
        raise ParseError(f"unexpected '{text}'", pos)
    return result


def _parse_expr(toks: _Tokens, ring: PolyRing) -> Polynomial:
    out = _parse_term(toks, ring)
    while True:
        kind, _, _ = toks.peek()
        if kind == "+":
            toks.next()
            out = out + _parse_term(toks, ring)
        elif kind == "-":
            toks.next()
            out = out - _parse_term(toks, ring)
        else:
            return out


def _parse_term(toks: _Tokens, ring: PolyRing) -> Polynomial:
    out = _parse_factor(toks, ring)
    while toks.peek()[0] == "*":
        toks.next()
        out = out * _parse_factor(toks, ring)
    return out


def _parse_factor(toks: _Tokens, ring: PolyRing) -> Polynomial:
    kind, text, pos = toks.next()
    if kind == "INT":
        out = ring.const(int(text))
    elif kind == "VAR":
        idx = ring._index.get(text)
        if idx is None:
            raise UnknownVariableError(text, pos)
        out = ring.gen(idx)
    elif kind == "(":
        out = _parse_expr(toks, ring)
        kind2, _, pos2 = toks.next()
        if kind2 != ")":
            raise ParseError("expected ')'", pos2)
    else:
        raise ParseError(f"expected INT, variable, or '(', got '{text or kind}'", pos)
    while toks.peek()[0] == "^":
        toks.next()
        kind2, text2, pos2 = toks.next()
        if kind2 != "INT":
            raise ParseError("exponent must be a non-negative integer", pos2)
        out = poly_pow(out, int(text2))
    return out
