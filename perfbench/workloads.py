"""The benchmark's workloads: charp jobs built from a seed, and the report
cells each job is checked on against golden.tsv.

A workload is a job file (one characteristic, a few components, a list of
tasks).  The seed shuffles the task order of every workload and, on
`point_sweep`, draws the smooth points.  Smooth points are drawn from the
torus orbit (every coordinate nonzero): a diagonal rescaling of the
variables carries one such point to any other and preserves the ideal, so
every draw costs the engine the same work while the inputs still change
with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.tsv")

RINGS = {
    "quadric": (("x", "y", "z"), ("x*y - z^2",)),
    "fermat_cubic": (("x", "y", "z"), ("x^3 + y^3 + z^3",)),
    "ci_quadrics": (("x", "y", "z", "w", "u"), ("x*y - z^2", "z*w - u^2")),
    "twisted_cubic": (("x", "y", "z", "w"), ("x*z - y^2", "y*w - z^2", "x*w - y*z")),
    "plane_and_line": (("x", "y", "z"), ("x*z", "y*z")),
}

# classify flags with a definite value; the rest are estimate-based notes
CLASSIFY_FLAGS = ("regular", "f_pure", "hilbert_samuel",
                  "predicted_sfr_gorenstein", "hl_satisfied")


@dataclass
class Task:
    """One job task.  `points` holds the task's point, or its samples for
    the global kinds, or the special point then the nearby ones for
    semicontinuity; `pclass` names their golden-table class."""

    kind: str
    ring: str
    points: tuple
    pclass: str
    e: int = 2  # e_max, or e for nu and semicontinuity
    a: str = ""
    ts: tuple = ()


@dataclass
class Workload:
    p: int
    rings: tuple
    tasks: list

    def job_text(self) -> str:
        lines = [f"p = {self.p}", ""]
        for ring in self.rings:
            names, gens = RINGS[ring]
            lines += ["[component]", f"vars = {' '.join(names)}",
                      f"ideal = {'; '.join(gens)}", ""]
        for t in self.tasks:
            lines += [f"[task {t.kind}]"] + [f"{k} = {v}" for k, v in self._keys(t)] + [""]
        return "\n".join(lines)

    def _keys(self, t: Task):
        comp = self.rings.index(t.ring)
        if t.kind in ("global_hk", "global_fsig"):
            return [("samples", " ".join(f"{comp}:{_label(pt)}" for pt in t.points)),
                    ("e_max", t.e)]
        if t.kind == "semicontinuity":
            return [("special", f"{comp}:{_label(t.points[0])}"),
                    ("nearby", " ".join(f"{comp}:{_label(pt)}" for pt in t.points[1:])),
                    ("e", t.e)]
        keys = [("component", comp), ("point", " ".join(map(str, t.points[0])))]
        if t.kind == "nu":
            return keys + [("a", t.a), ("e", t.e)]
        if t.kind == "pair":
            keys += [("a", t.a), ("t_grid", " ".join(t.ts))]
        if t.kind != "fedder":
            keys.append(("e_max", t.e))
        return keys

    def cells(self):
        """Yield (task index, row key or None, column, golden key) for every
        checked value; a row key is (task label, component, point, e)."""
        for i, t in enumerate(self.tasks):
            comp = self.rings.index(t.ring)

            def rows(label, pt, es, cols, qty=""):
                for e in es:
                    for col in cols:
                        yield (i, (label, comp, _label(pt), e), col,
                               (self.p, t.ring, t.pclass, e, qty + col))

            es = range(1, t.e + 1)
            if t.kind in ("hk", "global_hk"):
                for pt in t.points:
                    yield from rows(t.kind, pt, es, ("lambda", "norm"))
            elif t.kind in ("fsig", "global_fsig"):
                for pt in t.points:
                    yield from rows(t.kind, pt, es, ("a_e", "s_e"))
            elif t.kind == "pair":
                for s in t.ts:
                    qty = f"pair[a={t.a.replace(' ', '')},t={s}]."
                    yield from rows(f"pair t={Fraction(s)}", t.points[0], es, ("a_e", "s_e"), qty)
            elif t.kind == "semicontinuity":
                yield from rows("semicontinuity:special", t.points[0], [t.e], ("lambda", "norm"))
                for pt in t.points[1:]:
                    yield from rows("semicontinuity:nearby", pt, [t.e], ("lambda", "norm"))
                yield (i, None, "ok", (self.p, t.ring, t.pclass, t.e, "semicontinuity_ok"))
            elif t.kind == "fedder":
                yield (i, None, "f_pure", (self.p, t.ring, t.pclass, 1, "f_pure"))
            elif t.kind == "nu":
                yield (i, None, "nu", (self.p, t.ring, t.pclass, t.e,
                                       f"nu[a={t.a.replace(' ', '')}]"))
            elif t.kind == "classify":
                for flag in CLASSIFY_FLAGS:
                    yield (i, None, f"flags.{flag}",
                           (self.p, t.ring, t.pclass, 1, f"classify.{flag}"))


def _label(point) -> str:
    return "(" + ",".join(map(str, point)) + ")"


def _quadric_smooth(rng, k, p=5):
    """k distinct points (a, c^2/a, c) of x*y = z^2, all coordinates nonzero."""
    pts = [(a, c * c * pow(a, -1, p) % p, c) for a in range(1, p) for c in range(1, p)]
    return rng.sample(pts, k)


def _twisted_smooth(rng, k, p=5):
    """k distinct points (s^3, s^2 t, s t^2, t^3) of the twisted cubic cone."""
    pts = [(s**3 % p, s * s * t % p, s * t * t % p, t**3 % p)
           for s in range(1, p) for t in range(1, p)]
    return rng.sample(pts, k)


def _hk_tower(rng):
    o = ((0, 0, 0),)
    return Workload(7, ("quadric", "fermat_cubic"), [
        # the quadric stops at e=2: its lambda_3 (a 343^3 = 40.4 M monomial
        # box) would take six times as long as the rest of the job, so a
        # 40-s run would hold five processes instead of 25
        Task("hk", "quadric", o, "origin", e=2),
        Task("hk", "fermat_cubic", o, "origin", e=3),
    ])


def _split_colon(rng):
    o3, o4, o5 = ((0,) * 3,), ((0,) * 4,), ((0,) * 5,)
    return Workload(3, ("ci_quadrics", "twisted_cubic", "quadric"), [
        Task("fsig", "ci_quadrics", o5, "origin", e=2),
        Task("fsig", "twisted_cubic", o4, "origin", e=3),
        Task("fedder", "ci_quadrics", o5, "origin"),
        Task("fedder", "twisted_cubic", o4, "origin"),
        Task("pair", "twisted_cubic", o4, "origin", e=2, a="x; w", ts=("0", "1/3")),
        Task("pair", "quadric", o3, "origin", e=3, a="x; y", ts=("1/2",)),
        Task("nu", "quadric", o3, "origin", e=3, a="x; y; z"),
    ])


def _point_sweep(rng):
    line = ((0, 0, 1),)
    # the quadric tasks share their points, so the values repeated across
    # tasks are the same for every seed
    qu = tuple(_quadric_smooth(rng, 6))
    tw = _twisted_smooth(rng, 6)
    return Workload(5, ("quadric", "twisted_cubic", "plane_and_line"), [
        Task("global_hk", "quadric", qu[:5], "smooth"),
        Task("global_fsig", "quadric", qu[:5], "smooth"),
        Task("semicontinuity", "quadric", qu, "smooth"),
        Task("semicontinuity", "twisted_cubic", tuple(tw[:4]), "smooth"),
        Task("fedder", "twisted_cubic", (tw[4],), "smooth"),
        Task("fedder", "twisted_cubic", (tw[5],), "smooth"),
        Task("hk", "plane_and_line", line, "(0,0,1)"),
        Task("fsig", "plane_and_line", line, "(0,0,1)"),
        Task("classify", "plane_and_line", line, "(0,0,1)"),
    ])


WORKLOADS = {"hk_tower": _hk_tower, "split_colon": _split_colon,
             "point_sweep": _point_sweep}


def build(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    w = WORKLOADS[name](rng)
    rng.shuffle(w.tasks)
    return w


# ---------------------------------------------------------------------------
# golden check

def load_golden() -> dict:
    """(p, ring, point class, e, quantity) -> (expected, source, known failure)."""
    table = {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith(("#", "p\t")):
            continue
        p, ring, pclass, e, qty, expected, source, known = line.split("\t")
        table[(int(p), ring, pclass, int(e), qty)] = (expected, source, known)
    return table


def canon(value):
    """Comparable form of a report value: fractions and integers by value."""
    if isinstance(value, dict):
        value = value["fraction"]
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return None
    try:
        return str(Fraction(str(value)))
    except (ValueError, ZeroDivisionError):
        return str(value)


def check_report(w: Workload, report: dict | None, golden: dict):
    """Compare a report with the golden table.

    Returns (attempted, failed, unexpected): every cell counts as attempted;
    a wrong or missing cell, or any cell of a task that errored, counts as
    failed; `unexpected` lists the failures the table does not mark as known.
    """
    tasks = report["tasks"] if report else []
    attempted = failed = 0
    unexpected = []
    for i, row_key, col, gkey in w.cells():
        attempted += 1
        expected, _, known = golden[gkey]
        got = None
        if i < len(tasks) and tasks[i]["status"] == "ok":
            task = tasks[i]
            if row_key is None:
                got = task
                for part in col.split("."):
                    got = got.get(part) if isinstance(got, dict) else None
            else:
                for row in task["rows"]:
                    if (row["task"], row["component"], row["point"], row["e"]) == row_key:
                        got = row[col]
                        break
        if got is None or canon(got) != canon(expected):
            failed += 1
            if known == "-":
                unexpected.append(f"task {i} {w.tasks[i].kind} {row_key or ''} "
                                  f"{col}: expected {expected}, got {canon(got)}")
    return attempted, failed, unexpected
