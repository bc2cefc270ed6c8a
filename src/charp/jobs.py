"""Job files, the task registry, validation, and task execution.

Two encodings share one schema: a sectioned key-value text format (grammar
in the README) and JSON.  One key-type table converts text values and
type-checks JSON values, and one registry (`TASKS`) holds each task kind's
keys, runner and explanation.  Unknown keys are hard errors so typos cannot
silently change a run.

A job builds and checks each component once, before any task runs, and
the component is the unit of shared work: its store (`ideal.Shared`) keeps
its local rings' data, keyed by point, and the work they share.  A task's
budget is charged each shared item once, the first time it reads it, what
computing the item cost, so a report, the budget counters included, does
not depend on scheduling.  Under a process pool, the tasks that read a
common component run on one worker in task order, so shared work is not
repeated: a pool does the work of an in-process run.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import CharpError, ParseError, UnitIdealError
from .finv import (
    HKRecord,
    SplitRecord,
    classify,
    fedder_is_fpure,
    fsig_estimate,
    hk_estimate,
    nu_invariant,
    pair_splitting_number,
)
from .gf import field_new
from .ideal import Budget, Ideal, Shared
from .poly import PolyRing
from .spectrum import (
    PrimeSample,
    RingComponent,
    flat_extension_check,
    global_fsig,
    global_hk,
    semicontinuity_probe,
)

# ---------------------------------------------------------------------------
# key types: text values are converted and JSON values checked by one table


def _gens(text: str) -> list:
    return [g.strip() for g in text.split(";") if g.strip()]


def _sample(text: str) -> dict:
    # component:(a,b,c), with () for 0-variable components
    comp, sep, coords = text.partition(":")
    coords = coords.strip()
    if not (sep and coords.startswith("(") and coords.endswith(")")):
        raise ValueError(text)
    inner = coords[1:-1].strip()
    return {"component": int(comp),
            "point": [int(c) for c in inner.split(",")] if inner else []}


def _is_int(v) -> bool:
    return type(v) is int  # bool is not an integer here


def _is_rational(v) -> bool:
    try:
        return isinstance(v, str) and Fraction(v) >= 0
    except (ValueError, ZeroDivisionError):  # Fraction("1/0") raises the latter
        return False


def _list_of(check):
    return lambda v: isinstance(v, list) and all(check(x) for x in v)


def _is_sample(v) -> bool:
    return (isinstance(v, dict) and set(v) == {"component", "point"}
            and _is_int(v["component"]) and _list_of(_is_int)(v["point"]))


class _KeyType(NamedTuple):
    from_text: Callable  # raises ValueError on malformed text
    check: Callable  # accepts a valid value, decoded from JSON or converted text
    expected: str
    default: object = None  # an absent key's value, where that is a constant


def _int(default=None) -> _KeyType:
    return _KeyType(int, _is_int, "an integer", default)


def _positive(default) -> _KeyType:
    return _KeyType(int, lambda v: _is_int(v) and v >= 1, "an integer >= 1", default)


_NAMES = _KeyType(str.split, _list_of(lambda v: isinstance(v, str)), "a list of strings")
_POLYS = _KeyType(_gens, _NAMES.check, "a list of polynomial strings")
_SAMPLES = _KeyType(lambda text: [_sample(tok) for tok in text.split()],
                   lambda v: v != [] and _list_of(_is_sample)(v),
                   "a non-empty list of samples comp:(c1,c2,...)")

# the one table of settings: type, valid range and constant default of each key
_KEY_TYPES = {
    "p": _int(),
    "jobs": _positive(1),
    "budget_monomials": _positive(Budget.max_box),
    "budget_basis": _positive(Budget.max_basis),
    "budget_pairs": _positive(Budget.max_pairs),
    "component": _int(0),
    "e": _positive(1),
    "e_max": _positive(2),
    "extra_vars": _positive(1),
    "vars": _NAMES,
    "ideal": _POLYS,
    "a": _POLYS,
    "point": _KeyType(lambda text: [int(tok) for tok in text.replace(",", " ").split()],
                     _list_of(_is_int), "a list of integers"),
    "t": _KeyType(str, _is_rational, "a rational string >= 0 such as 1/2", "0"),
    "t_grid": _KeyType(str.split, lambda v: v != [] and _list_of(_is_rational)(v),
                       "a non-empty list of rational strings >= 0", ["0"]),
    "samples": _SAMPLES,
    "nearby": _SAMPLES,
    "special": _KeyType(_sample, _is_sample, "a sample comp:(c1,c2,...)"),
}

_JOB_KEYS = {"p", "budget_monomials", "budget_basis", "budget_pairs", "jobs"}
_COMPONENT_KEYS = {"vars", "ideal"}
CAP_VARIABLE = "CHARP_BUDGET_MONOMIALS"  # caps budget_monomials from the environment


def _convert(key: str, text: str, where: str):
    """A text value as its key's type, or a ParseError naming `where`."""
    kt = _KEY_TYPES[key]
    try:
        value = kt.from_text(text)
        if kt.check(value):
            return value
    except ValueError:
        pass
    raise ParseError(f"{where}: '{key}' must be {kt.expected}, got '{text}'")


# ---------------------------------------------------------------------------
# parsing

def parse_job_file(path: str, flags: dict | None = None, cap: str | None = None) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            job = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON job file: {exc}") from None
    else:
        job = parse_job_text(text)
    return validate_job(job, flags, cap)


def parse_job_text(text: str) -> dict:
    """Sectioned key-value format; see the README for the grammar."""
    job: dict = {"components": [], "tasks": []}
    target: dict = job
    target_keys = _JOB_KEYS
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"line {lineno}: unterminated section header")
            header = line[1:-1].strip()
            if header == "component":
                target = {}
                job["components"].append(target)
                target_keys = _COMPONENT_KEYS
            elif header.startswith("task"):
                kind = header[4:].strip()
                if kind not in TASKS:
                    raise ParseError(f"line {lineno}: unknown task kind '{kind}'")
                target = {"kind": kind}
                job["tasks"].append(target)
                target_keys = TASKS[kind].keys
            else:
                raise ParseError(f"line {lineno}: unknown section '[{header}]'")
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in target_keys:
            raise ParseError(f"line {lineno}: unknown key '{key}'")
        if key in target:
            raise ParseError(f"line {lineno}: duplicate key '{key}'")
        target[key] = _convert(key, value, f"line {lineno}")
    return job


def _check_keys(where: str, entry, allowed) -> None:
    """Reject a non-mapping entry, unknown keys and values of the wrong type."""
    if not isinstance(entry, dict):
        raise ParseError(f"{where} must be a mapping")
    unknown = set(entry) - allowed
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    for key in sorted(entry.keys() & _KEY_TYPES.keys()):
        if not _KEY_TYPES[key].check(entry[key]):
            raise ParseError(f"{where}: '{key}' must be {_KEY_TYPES[key].expected}")


def _resolve(entry: dict, keys) -> None:
    """Each absent key's constant default, where it has one."""
    for key in keys:
        if key not in entry and _KEY_TYPES[key].default is not None:
            entry[key] = _KEY_TYPES[key].default


def validate_job(job: dict, flags: dict | None = None, cap: str | None = None) -> dict:
    """Check a decoded job and resolve every setting that has a default, in
    place: the flag (`flags` maps a job key to its `--key` text or None),
    then the key, then the table; `cap`, the text of CAP_VARIABLE, caps
    budget_monomials.  Flags and cap are checked like `key = value`."""
    flags = {key: _convert(key, text, "--" + key.replace("_", "-"))
             for key, text in (flags or {}).items() if text is not None}
    _check_keys("job", job, _JOB_KEYS | {"components", "tasks"})
    if "p" not in job:
        raise ParseError("job is missing the characteristic 'p'")
    try:
        field = field_new(job["p"])
    except Exception as exc:
        raise ParseError(f"NotPrime: {exc}") from None
    components = job.get("components", [])
    tasks = job.setdefault("tasks", [])
    if not isinstance(components, list) or not isinstance(tasks, list):
        raise ParseError("'components' and 'tasks' must be lists")
    if not components:
        raise ParseError("job declares no components")
    for i, comp in enumerate(components):
        _check_keys(f"component {i}", comp, _COMPONENT_KEYS)
        comp.setdefault("vars", [])
        comp.setdefault("ideal", [])
        _component_parts(field, comp, f"component {i}")
    for i, task in enumerate(tasks):
        kind = task.get("kind") if isinstance(task, dict) else None
        if not isinstance(kind, str) or kind not in TASKS:
            raise ParseError(f"task {i}: unknown kind '{kind}'")
        _check_keys(f"task {i} ({kind})", task, TASKS[kind].keys | {"kind"})
        missing = TASKS[kind].required - set(task)
        if missing:
            raise ParseError(f"task {i} ({kind}): missing keys {sorted(missing)}")
        _resolve(task, TASKS[kind].keys)
        least = TASKS[kind].least_e_max
        if task.get("e_max", least) < least:
            raise ParseError(f"task {i} ({kind}): 'e_max' must be an integer >= "
                             f"{least} for an estimate, got {task['e_max']}")
    job.update(flags)
    _resolve(job, _JOB_KEYS)
    if cap is not None:
        job["budget_monomials"] = min(job["budget_monomials"],
                                      _convert("budget_monomials", cap, CAP_VARIABLE))
    return job


# ---------------------------------------------------------------------------
# execution

def _component_parts(field, spec: dict, where: str) -> tuple:
    """(ring, generators) of a component entry, parsed without building a
    basis; a malformed entry is a ParseError naming `where`.  Each name must
    parse as its own variable, so no name the engine adjoins, such as #t,
    can clash with it."""
    try:
        ring = PolyRing(field, tuple(spec["vars"]))
        for i, name in enumerate(ring.names):
            try:
                ok = ring.parse(name) == ring.gen(i)
            except CharpError:
                ok = False
            if not ok:
                raise ValueError(f"variable name '{name}' is not an identifier")
        return ring, [ring.parse(src) for src in spec["ideal"]]
    except (CharpError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def _budget(job: dict) -> Budget:
    """A fresh budget with the job's caps."""
    return Budget(max_basis=job["budget_basis"], max_pairs=job["budget_pairs"],
                  max_box=job["budget_monomials"])


def _build_component(job: dict, index: int) -> RingComponent:
    spec = job["components"][index]
    return RingComponent(*_component_parts(field_new(job["p"]), spec, f"component {index}"))


def build_presentation(job: dict) -> Shared:
    """The store of a validated job's components by index, each built and
    checked once under a budget of the job's caps.  One whose building
    failed is left out, and the tasks that read it build it again and fail
    as they would alone.  A unit-ideal component is a ParseError naming it."""
    built = Shared()
    for i in range(len(job["components"])):
        try:
            with _budget(job):
                _component(job, built, i)
        except UnitIdealError:
            raise ParseError(f"component {i}: its ideal is the unit ideal") from None
        except Exception:  # past a cap
            pass
    return built


def _component(job: dict, built: Shared, index: int) -> RingComponent:
    """Component `index`, whose building the running task pays for."""
    _check_component(index, len(job["components"]))
    return built.get(index, lambda: _build_component(job, index))


def _fraction_cell(x: Fraction) -> dict:
    x = Fraction(x)
    return {
        "fraction": f"{x.numerator}/{x.denominator}",
        "decimal": f"{float(x):.12f}",
    }


def _estimate_payload(est) -> dict:
    return {
        "value": _fraction_cell(est.value),
        "e_used": len(est.raw),
        "raw": [_fraction_cell(v) for v in est.raw],
        "successive_diffs": [_fraction_cell(b - a) for a, b in zip(est.raw, est.raw[1:])],
        "confidence": est.confidence,
    }


def _point_label(point) -> str:
    return "(" + ",".join(str(a) for a in point) + ")"


def run_task(job: dict, index: int, built: Shared) -> dict:
    """Execute one task; returns a JSON-able result with TSV rows.

    `built` holds the job's components (`build_presentation`), shared with
    its other tasks.  A failure of any kind stays inside this task's entry,
    so the other tasks still complete; an exception the engine does not
    document is reported as an internal error.
    """
    task = job["tasks"][index]
    kind = task["kind"]
    budget = _budget(job)
    out = {"index": index, "kind": kind, "status": "ok", "rows": []}
    try:
        with budget:
            TASKS[kind].run(job, task, built, out)
    except (CharpError, ValueError) as exc:
        out["status"] = "error"
        out["error"] = f"{type(exc).__name__}: {exc}"
    except Exception as exc:
        out["status"] = "error"
        out["error"] = f"internal error: {type(exc).__name__}: {exc}"
    out["budget"] = budget.snapshot()
    return out


# ---------------------------------------------------------------------------
# task runners: run(job, task, built, out) fills the result entry `out`; the
# work, reading the components in `built` included, charges the task's
# budget, active around the call

def _check_component(index: int, count: int) -> None:
    if not 0 <= index < count:
        raise ValueError(f"component index {index} out of range "
                         f"(presentation has {count})")


def _local(job: dict, task: dict, built: Shared):
    # the local ring at the task's point, charged for its component only
    ci = task["component"]
    comp = _component(job, built, ci)
    point = task.get("point")
    if point is None:
        point = [0] * comp.ring.nvars
    return comp.local_at(point), ci, point


def _samples(job: dict, raw) -> list:
    for s in raw:
        _check_component(s["component"], len(job["components"]))
    return [PrimeSample(s["component"], tuple(s["point"])) for s in raw]


def _record_rows(label, component, point, records) -> list:
    """One row per HKRecord (lambda_e and its norm), SplitRecord (a_e and
    s_e), or (HKRecord, SplitRecord) of one e (lambda_e, its norm and s_e)."""
    rows = []
    for r in records:
        # records are tuples too, so they are told apart from the pair first
        hk, split = (r, None) if isinstance(r, HKRecord) else \
            (None, r) if isinstance(r, SplitRecord) else r
        rows.append({
            "task": label,
            "component": component,
            "point": _point_label(point),
            "e": (hk or split).e,
            "q": (hk or split).q,
            "lambda": None if hk is None else hk.lam,
            "norm": None if hk is None else _fraction_cell(hk.normalized),
            "a_e": split.a_e if hk is None else None,
            "s_e": None if split is None else _fraction_cell(split.s_e),
        })
    return rows


def _ideal(ring: PolyRing, sources) -> Ideal:
    return Ideal(ring, [ring.parse(src) for src in sources])


def _run_estimate(job, task, built, out):
    L, ci, point = _local(job, task, built)
    estimate = hk_estimate if task["kind"] == "hk" else fsig_estimate
    est = estimate(L, task["e_max"])
    out["rows"] += _record_rows(task["kind"], ci, point, est.records)
    out["estimate"] = _estimate_payload(est)


def _run_fedder(job, task, built, out):
    L, _, _ = _local(job, task, built)
    out["f_pure"] = fedder_is_fpure(L)


def _run_pair(job, task, built, out):
    L, ci, point = _local(job, task, built)
    a = _ideal(L.ring, task["a"])
    out["pair"] = []
    for t_src in task["t_grid"]:
        t = Fraction(t_src)
        recs = [pair_splitting_number(L, a, t, e) for e in range(1, task["e_max"] + 1)]
        out["rows"] += _record_rows(f"pair t={t}", ci, point, recs)
        out["pair"].append({
            "t": str(t),
            "s_e": [_fraction_cell(rec.s_e) for rec in recs],
        })


def _run_nu(job, task, built, out):
    L, _, _ = _local(job, task, built)
    out["nu"] = nu_invariant(L, _ideal(L.ring, task["a"]), task["e"])


def _sample_cell(s: PrimeSample) -> dict:
    return {"component": s.component, "point": list(s.point)}


def _run_global(job, task, built, out):
    components = [_component(job, built, i) for i in range(len(job["components"]))]
    kind = task["kind"]
    samples = _samples(job, task["samples"])
    fn = global_hk if kind == "global_hk" else global_fsig
    res = fn(components, samples, task["e_max"])
    gd = res.gamma
    out["gamma"] = {
        "dims": list(gd.dims),
        "gamma": gd.gamma,
        "z_components": list(gd.z_components),
        "z_is_spec": gd.z_is_spec,
    }
    out["value"] = _fraction_cell(res.value)
    out["exact"] = res.exact
    out["bound_note"] = res.note
    out["arg_sample"] = None if res.arg_sample is None else _sample_cell(res.arg_sample)
    out["excluded_samples"] = [_sample_cell(s) for s in res.excluded]
    for s, est in res.per_sample:
        out["rows"] += _record_rows(kind, s.component, s.point, est.records)


def _run_semicontinuity(job, task, built, out):
    # the probe compares points of one component, and reads only that one
    special, *nearby = _samples(job, [task["special"], *task["nearby"]])
    if any(s.component != special.component for s in nearby):
        raise ValueError("all samples must lie on one component")
    rep = semicontinuity_probe(_component(job, built, special.component), special.point,
                               [s.point for s in nearby], task["e"])
    out["ok"] = rep.ok
    out["note"] = rep.note
    for label, (point, rec) in [("special", rep.special), *(("nearby", n) for n in rep.nearby)]:
        out["rows"] += _record_rows(f"semicontinuity:{label}", special.component, point, [rec])
    if not rep.ok:
        out["status"] = "error"
        out["error"] = rep.note


def _run_flat_check(job, task, built, out):
    L, ci, point = _local(job, task, built)
    pair = None
    if task.get("a"):
        pair = (_ideal(L.ring, task["a"]), Fraction(task["t"]))
    rep = flat_extension_check(L, task["extra_vars"], task["e_max"], pair)
    out["ok"] = rep.ok
    ext_point = tuple(point) + (0,) * task["extra_vars"]
    for base, ext in rep.rows:
        out["rows"] += _record_rows("flat_check:base", ci, point, [base])
        out["rows"] += _record_rows("flat_check:ext", ci, ext_point, [ext])
    out["pair_rows"] = [
        {"e": r.e, "q": r.q, "s_base": _fraction_cell(r.s_e),
         "s_ext": _fraction_cell(t.s_e), "equal": r.s_e == t.s_e}
        for r, t in rep.pair_rows
    ]
    if not rep.ok:
        out["status"] = "error"
        out["error"] = "flat extension comparison failed"


def _run_classify(job, task, built, out):
    L, _, _ = _local(job, task, built)
    flags = classify(L, task["e_max"])
    out["flags"] = flags.as_dict()
    out["flags"]["hk"] = _estimate_payload(flags.hk)
    out["flags"]["fsig"] = _estimate_payload(flags.fsig)


# ---------------------------------------------------------------------------
# the registry

class TaskKind(NamedTuple):
    keys: frozenset  # besides "kind"
    required: frozenset
    run: Callable
    explain: str  # printed by `charp explain <kind>`
    least_e_max: int = 1  # 2 for an estimate, which extrapolates from two exponents


_LOCAL = frozenset({"component", "point"})
_LIMIT = _LOCAL | {"e_max"}
_NONE = frozenset()

TASKS = {
    "hk": TaskKind(_LIMIT, _NONE, _run_estimate, (
        "lambda_e = dim_k S/(I + m^[q]), q = p^e, normalized by q^d.\n"
        "The limit of lambda_e/q^d is the Hilbert-Kunz multiplicity (Monsky);\n"
        "lambda_e >= q^d with equality iff the point is regular (Kunz)."
    ), least_e_max=2),
    "fsig": TaskKind(_LIMIT, _NONE, _run_estimate, (
        "a_e = lambda(S/(m^[q] : (I^[q]:I))), the rank of the largest free\n"
        "direct summand of the e-th Frobenius pushforward; s_e = a_e/q^d\n"
        "converges to the F-signature (Tucker). s = 1 iff regular\n"
        "(Huneke-Leuschke); s > 0 iff strongly F-regular (Aberbach-Leuschke)."
    ), least_e_max=2),
    "fedder": TaskKind(_LOCAL, _NONE, _run_fedder, (
        "F-pure iff (I^[p] : I) is not contained in m^[p] (Fedder's criterion);\n"
        "for a hypersurface f this reads f^(p-1) not in m^[p]."
    )),
    "pair": TaskKind(_LOCAL | {"e_max", "a", "t_grid"}, frozenset({"a"}), _run_pair, (
        "a_e(R, a^t) = lambda(S/(m^[q] : a^ceil(t(q-1)) * (I^[q]:I))):\n"
        "splitting numbers of the Cartier subalgebra scaled by powers of a\n"
        "(Blickle-Schwede-Tucker); t = 0 recovers the plain splitting numbers."
    )),
    "nu": TaskKind(_LOCAL | {"a", "e"}, frozenset({"a"}), _run_nu, (
        "nu(q) = max{r : a^r not in m^[q] + I}; the growth of nu(q)/q locates\n"
        "the F-pure threshold and guides t-grids for pair sweeps."
    )),
    "global_hk": TaskKind(frozenset({"samples", "e_max"}),
                          frozenset({"samples"}), _run_global, (
        "max of the local Hilbert-Kunz estimates over the sampled primes whose\n"
        "local ring has dimension gamma, the one locus test; a lower bound for the\n"
        "global value under incomplete sampling when every estimate is exact,\n"
        "exact only with a proof that the note names.  A sample that is not a\n"
        "point of its component is an error."
    ), least_e_max=2),
    "global_fsig": TaskKind(frozenset({"samples", "e_max"}),
                            frozenset({"samples"}), _run_global, (
        "min of the local F-signature estimates over sampled primes; exactly 0\n"
        "whenever some component or sampled local ring misses the global gamma.\n"
        "An upper bound for the global value under incomplete sampling when every\n"
        "estimate is exact, exact only with a proof that the note names.  A sample\n"
        "that is not a point of its component is an error."
    ), least_e_max=2),
    "semicontinuity": TaskKind(frozenset({"special", "nearby", "e"}),
                               frozenset({"special", "nearby"}), _run_semicontinuity, (
        "checks the raw lambda_e(special) >= lambda_e(P) for nearby rational\n"
        "points on one component.  A failure is an engine bug only at the origin\n"
        "of a component whose generators are homogeneous in total degree, which\n"
        "the grading orders above every point.  No theorem orders two other\n"
        "closed points (Kunz, Amer. J. Math. 98 (1976)): a failure there names\n"
        "the missing order."
    )),
    "flat_check": TaskKind(_LOCAL | {"extra_vars", "e_max", "a", "t"}, _NONE,
                           _run_flat_check, (
        "adjoins k free variables (flat extension with regular closed fiber)\n"
        "and verifies lambda_T(e) = q^k * lambda_R(e) and s_e(T) = s_e(R)\n"
        "integer-exactly for each e (Kunz's flat comparison with equality)."
    )),
    "classify": TaskKind(_LIMIT, _NONE, _run_classify, (
        "flags: regular (lambda_1 = p^d) and F-pure (a_1 > 0, Fedder), exact;\n"
        "hl_satisfied, the law lambda_e - q^d <= (e(R)-1)(q^d - a_e) of\n"
        "Huneke-Leuschke checked at every e, or null where R_m is not certified\n"
        "Cohen-Macaulay; and the estimate-based prediction (strongly F-regular\n"
        "and Gorenstein) F-pure and e_HK < 1 + max{1/d!, 1/e(R)}."
    ), least_e_max=2),
}


def _reads(task: dict) -> set:
    """The indices of the components whose shared work a task reads: a
    local task's, or its samples'.  A global task also reads every
    component's dimension, which the job finds before any task runs; a
    semicontinuity task whose samples lie on two components fails before
    it reads any."""
    if "component" in task:
        return {task["component"]}
    samples = [task["special"], *task["nearby"]] if "special" in task else task["samples"]
    return {s["component"] for s in samples}


def _groups(job: dict) -> list:
    """The task indices in groups, each in index order, such that tasks in
    different groups read no common component's shared work."""
    groups: list = []  # (components read, indices)
    for i, task in enumerate(job["tasks"]):
        keys, indices = _reads(task), [i]
        for g in [g for g in groups if g[0] & keys]:
            groups.remove(g)
            keys |= g[0]
            indices += g[1]
        groups.append((keys, indices))
    return sorted(sorted(indices) for _, indices in groups)


def _run_group(job: dict, built: Shared, indices) -> list:
    # a pool worker's share; looks up `run_task` when called, so a wrapper bound to it runs
    return [run_task(job, i, built) for i in indices]


def run_job(job: dict) -> dict:
    """Execute all tasks of a validated job with job["jobs"] worker
    processes; the report does not depend on scheduling.  The components
    are built first, and a unit-ideal one is a ParseError."""
    t0 = time.time()
    built = build_presentation(job)
    groups = _groups(job)
    if job["jobs"] > 1 and len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a forked pool starts all its workers at once: no more than there are groups
        with ProcessPoolExecutor(max_workers=min(job["jobs"], len(groups))) as pool:
            results = [r for part in pool.map(_run_group, [job] * len(groups),
                                              [built] * len(groups), groups)
                       for r in part]
    else:
        results = [run_task(job, i, built) for i in range(len(job["tasks"]))]
    results.sort(key=lambda r: r["index"])
    return {
        "p": job["p"],
        "components": [
            {"vars": c["vars"], "ideal": c["ideal"]}
            for c in job["components"]
        ],
        "tasks": results,
        "status": "error" if any(r["status"] != "ok" for r in results) else "ok",
        "wall_time_s": round(time.time() - t0, 3),
    }
