"""Recompute the golden.tsv entries whose boxes are small with the dense
oracles of tests/oracles.py (F_p linear algebra in numpy, no Groebner bases).

    python3 perfbench/crosscheck.py

Needs numpy and the repository's tests/ directory; the benchmark run does
not.  Exits 1 if an oracle disagrees with the table.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from charp.gf import field_new  # noqa: E402
from charp.poly import PolyRing, poly_pow  # noqa: E402


def ring_at(p: int, name: str, point=None):
    """The ring's generators in coordinates centred at `point`, substituted
    in the source text so that no engine translation is involved."""
    names, gens = workloads.RINGS[name]
    R = PolyRing(field_new(p), names)
    point = point or (0,) * len(names)
    sub = lambda m: f"({m.group(0)} + {point[names.index(m.group(0))]})"  # noqa: E731
    return R, [R.parse(re.sub(r"[a-z]+", sub, g)) for g in gens]


def stacked_length(us, q: int, R) -> int:
    """lambda(S/(m^[q] : (u_1..u_k))): the rank of h -> (h u_1, .., h u_k)
    on S/m^[q], the multi-generator form of multiplication_image_rank."""
    basis = oracles.box_monomials((q,) * R.nvars)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for h in basis:
        row = [0] * (len(basis) * len(us))
        for k, u in enumerate(us):
            for m, c in u.terms:
                mm = tuple(a + b for a, b in zip(m, h))
                if all(e < q for e in mm):
                    col = k * len(basis) + index[mm]
                    row[col] = (row[col] + c) % R.p
        rows.append(row)
    return oracles.modp_rank(rows, R.p)


def checks():
    """(golden key, oracle value) pairs."""
    for p, name in ((7, "quadric"), (7, "fermat_cubic")):
        R, gens = ring_at(p, name)
        yield (p, name, "origin", 1, "lambda"), oracles.quotient_length_bruteforce(gens, (p,) * 3, R)
    R, gens = ring_at(5, "quadric", (1, 4, 2))
    yield (5, "quadric", "smooth", 1, "lambda"), oracles.quotient_length_bruteforce(gens, (5,) * 3, R)
    R, gens = ring_at(5, "plane_and_line", (0, 0, 1))
    yield (5, "plane_and_line", "(0,0,1)", 1, "lambda"), oracles.quotient_length_bruteforce(gens, (5,) * 3, R)

    # codim-2 CI: (I^[q] : I) = I^[q] + (f1 f2)^(q-1) (Fedder), so
    # a_1 = rank of multiplication by (f1 f2)^(p-1) on S/m^[p], and F-purity
    # asks for a term of (f1 f2)^(p-1) outside m^[p]
    R, (f1, f2) = ring_at(3, "ci_quadrics")
    u = poly_pow(f1 * f2, 2)
    yield (3, "ci_quadrics", "origin", 1, "a_e"), oracles.multiplication_image_rank(u, (3,) * 5, R)
    yield (3, "ci_quadrics", "origin", 1, "f_pure"), any(all(e < 3 for e in m) for m, _ in u.terms)

    # quadric pair (a = (x, y), t = 1/2): the multiplier is a^n f^(q-1)
    R, (f,) = ring_at(3, "quadric")
    x, y = R.gen(0), R.gen(1)
    for e in (1, 2):
        q = 3**e
        n = math.ceil(Fraction(1, 2) * (q - 1))
        fq = poly_pow(f, q - 1)
        us = [poly_pow(x, i) * poly_pow(y, n - i) * fq for i in range(n + 1)]
        yield (3, "quadric", "origin", e, "pair[a=x;y,t=1/2].a_e"), stacked_length(us, q, R)


def main() -> int:
    golden = workloads.load_golden()
    bad = 0
    for key, value in checks():
        expected = golden[key][0]
        ok = workloads.canon(value) == workloads.canon(expected)
        bad += not ok
        print(f"{'ok' if ok else 'MISMATCH'}  {key}: table {expected}, oracle {workloads.canon(value)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
