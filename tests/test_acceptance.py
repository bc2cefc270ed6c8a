"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line and enforcing its stated tolerance and time budget.  Cases and engine
assertions come from `charp.selftest`; only the oracle cross-checks live here."""

import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from charp import selftest
from charp.finv import hk_estimate
from charp.gf import field_new
from charp.ideal import colon, ideal_equal
from charp.poly import PolyRing, poly_pow
from charp.spectrum import RingComponent

from oracles import (
    ideal_from_monomials,
    is_smooth_point,
    monomial_colon_oracle,
    standard_count_bruteforce,
)


@contextmanager
def criterion(n, name, budget_s):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {n} ({name}): FAIL")
        raise
    dt = time.time() - t0
    print(f"\nACCEPTANCE {n} ({name}): PASS  [{dt:.1f}s / budget {budget_s}s]")
    assert dt < budget_s, f"criterion {n} exceeded its {budget_s}s budget"


def _checked_rows(n):
    rows = [case for case in selftest.CORPUS if case.criterion == n]
    for case in rows:
        selftest.check_case(case)
    return rows


@pytest.mark.parametrize("case", selftest.CORPUS, ids=str)
def test_corpus_row(case):
    selftest.check_case(case)


def test_criterion_1_kunz_exactness():
    with criterion(1, "Kunz exactness on regular rings", 10):
        _checked_rows(1)


def test_criterion_2_node():
    with criterion(2, "node lambda(e) = 2p^e - 1 and limit 2", 30):
        for case in _checked_rows(2):
            for e, lam in case.lam.items():
                # independent oracle: enumerate standard monomials directly
                assert lam == standard_count_bruteforce([(1, 1)], (case.p**e,) * 2)
            v1, v2, v3 = hk_estimate(case.local(), case.hk[2]).raw
            d1, d2 = v2 - v1, v3 - v2
            assert abs(float(d2 / d1) - 1 / case.p) < 0.02


def test_criterion_3_quadric_cross_validation():
    with criterion(3, "quadric cone estimates cross-validate via the "
                      "multiplicity bound", 300):
        _checked_rows(3)


def test_criterion_4_fedder_dichotomy():
    with criterion(4, "Fedder dichotomy for x^3+y^3+z^3 and a codim-2 CI", 60):
        for case in _checked_rows(4):
            # independent expansion of F^(p-1), F the product of the
            # generators, against m^[p]
            L = case.local()
            Fp = poly_pow(math.prod(L.gens, start=L.ring.one()), case.p - 1)
            assert any(all(e < case.p for e in m) for m, _ in Fp.terms) is case.fedder


def test_criterion_5_products_and_zero_rule():
    with criterion(5, "product example and the gamma-locus zero rule", 1):
        selftest.check_products()


def test_criterion_6_flat_extension_equalities():
    with criterion(6, "flat extension: lambda scales by q, s_e unchanged", 120):
        selftest.check_flat()


def test_criterion_7_semicontinuity():
    with criterion(7, "semicontinuity at the cone point", 60):
        R = PolyRing(field_new(5), ("x", "y", "z"))
        comp = RingComponent(R, [R.parse("x*y - z^2")])
        rng = random.Random(2024)
        points = []
        while len(points) < 5:
            s, t = rng.randint(0, 4), rng.randint(0, 4)
            pt = ((s * s) % 5, (t * t) % 5, (s * t) % 5)
            if pt != (0, 0, 0) and pt not in points:
                points.append(pt)
        assert all(is_smooth_point(comp, pt) for pt in points)
        selftest.check_semicontinuity(points)


def test_criterion_8_pair_sanity():
    with criterion(8, "pair splittings: t = 0 identity, 1-variable limit, "
                      "monotone grid", 60):
        selftest.check_pairs()


def _monomial_colon(rng, count):
    """colon against the monomial oracle, over F_5."""
    R = PolyRing(field_new(5), ("x", "y"))
    for _ in range(count):
        gI = [tuple(rng.randint(0, 4) for _ in range(2))
              for _ in range(rng.randint(1, 3))]
        gJ = [tuple(rng.randint(0, 3) for _ in range(2))
              for _ in range(rng.randint(1, 2))]
        A = ideal_from_monomials(R, gI)
        B = ideal_from_monomials(R, gJ)
        assert ideal_equal(colon(A, B), ideal_from_monomials(R, monomial_colon_oracle(gI, gJ)))


def test_criterion_9_property_suites():
    with criterion(9, "randomized property suites (>= 200 instances)", 300):
        rng = random.Random(90125)
        runs = [(selftest.bracket_laws, 60), (selftest.sandwich, 45),
                (selftest.certificates, 55), (_monomial_colon, 25),
                (selftest.colon_property, 20), (selftest.node_additivity, 9)]
        for family, count in runs:
            family(rng, count)
        instances = sum(count for _, count in runs)
        assert instances >= 200, f"only {instances} randomized instances"
        print(f"\n  property instances exercised: {instances}")


def test_selftest_passes():
    lines = []
    assert selftest.run_selftest(lines.append) == 0, "\n".join(lines)


def test_selftest_reports_a_wrong_value(monkeypatch):
    *rows, ci = selftest.CORPUS
    monkeypatch.setattr(selftest, "CORPUS", (*rows, ci._replace(a={**ci.a, 2: ci.a[2] + 1})))
    lines = []
    assert selftest.run_selftest(lines.append) == 1
    assert lines.pop() == "selftest: 1 FAILURE(S)"
    assert [line for line in lines if not line.startswith("ok    ")] == \
        [f"FAIL  {ci}: SelftestError: a_2 = {ci.a[2]}, expected {ci.a[2] + 1}"]
    assert len(lines) == len(selftest.CORPUS) + 4 + len(selftest.PROPERTIES)


def test_selftest_fails_a_wrong_value_under_optimize():
    # `python -O` strips `assert` statements (the child's own `assert False`
    # proves it ran optimized); the corpus checks must still fail
    code = "\n".join([
        "import sys",
        "from charp import selftest",
        "assert False",
        "case = selftest.CORPUS[0]._replace(lam={1: 26})",
        "try:",
        "    selftest.check_case(case)",
        "except selftest.SelftestError as exc:",
        "    sys.exit(f'SelftestError: {exc}')",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 1, res.stderr
    assert res.stderr.strip() == "SelftestError: lambda_1 = 25, expected 26"
