"""Run the charp CLI with spans recorded around the public functions of each
charp module, from outside the program.

    python3 perfbench/tracer.py <out.json> <tasks.jsonl> run <job> --jobs N

As each span closes, its calls, total time and self time (its duration
minus that of its child spans) are added to the totals of its name; the
totals and a few counters are written to <out.json> when the run ends.
Each task also appends one line of deterministic counters to
<tasks.jsonl>, from whichever process ran it, so the counters survive a
`--jobs 2` pool.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# (module, attribute or Class.method, span name).  `gf` is per-coefficient
# arithmetic that a wrapper would distort, and `cli` is a thin shell over
# `jobs` and `report`, so neither is wrapped.
WRAPPED = (
    ("charp.poly", "parse_poly", "poly.parse"),
    ("charp.poly", "Polynomial.shift", "poly.shift"),
    ("charp.ideal", "Ideal.groebner_basis", "ideal.buchberger"),
    ("charp.ideal", "length", "ideal.length"),
    ("charp.ideal", "colon", "ideal.colon"),
    ("charp.ideal", "intersect", "ideal.intersect"),
    ("charp.ideal", "exact_divide", "ideal.exact_divide"),
    ("charp.ideal", "ideal_power", "ideal.ideal_power"),
    ("charp.ideal", "normal_form", "ideal.normal_form"),
    ("charp.finv", "LocalRingAtPoint.__init__", "finv.localize"),
    ("charp.finv", "hk_function", "finv.hk_function"),
    ("charp.finv", "splitting_number", "finv.splitting_number"),
    ("charp.finv", "nu_invariant", "finv.nu_invariant"),
    ("charp.finv", "pair_splitting_number", "finv.pair_splitting_number"),
    ("charp.finv", "fedder_is_fpure", "finv.fedder_is_fpure"),
    ("charp.finv", "classify", "finv.classify"),
    ("charp.spectrum", "global_hk", "spectrum.global_hk"),
    ("charp.spectrum", "global_fsig", "spectrum.global_fsig"),
    ("charp.spectrum", "semicontinuity_probe", "spectrum.semicontinuity_probe"),
    ("charp.spectrum", "gamma_data", "spectrum.gamma_data"),
    ("charp.jobs", "parse_job_file", "jobs.parse_job_file"),
    ("charp.jobs", "build_presentation", "jobs.build_presentation"),
    ("charp.jobs", "run_task", "jobs.task"),
    ("charp.report", "report_to_tsv", "report.report_to_tsv"),
    ("charp.report", "report_to_json", "report.report_to_json"),
)


class Tracer:
    def __init__(self, tasks_path: str):
        self.layers: dict = {}  # span name -> {"calls", "s", "self_s"}
        self.child = [0.0]  # per open span, the time of its closed children
        self.counters = {"shift_terms_out": 0, "ideal_power_gens": 0}
        self.task: dict | None = None  # deterministic counters of the running task
        self.tasks_path = tasks_path

    def span(self, name, fn, args, kwargs):
        self.child.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter() - start
            kids = self.child.pop()
            self.child[-1] += took
            agg = self.layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += took
            agg["self_s"] += took - kids


def _key(L, *rest) -> str:
    return repr((L.ring.p, L.ring.names, tuple(map(str, L.gens)), L.point) + rest)


def _make_wrapper(tr: Tracer, name: str, fn):
    """The traced stand-in for `fn`; a few layers also count work."""
    if name == "ideal.buchberger":
        def wrapper(self, *args, **kwargs):
            cached = self._gb is not None
            if tr.task is not None:
                tr.task["gb_hits" if cached else "buchberger_runs"] += 1
            if cached:  # counted, not a span
                return fn(self, *args, **kwargs)
            return tr.span(name, fn, (self,) + args, kwargs)
    elif name == "jobs.task":
        def wrapper(job, index, *args, **kwargs):
            kind = job["tasks"][index]["kind"]
            tr.task = {"index": index, "kind": kind, "buchberger_runs": 0,
                       "gb_hits": 0, "hk_keys": [], "split_keys": []}
            try:
                return tr.span(f"jobs.task.{kind}", fn, (job, index) + args, kwargs)
            finally:
                with open(tr.tasks_path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(tr.task) + "\n")
                tr.task = None
    else:
        def wrapper(*args, **kwargs):
            out = tr.span(name, fn, args, kwargs)
            if name == "poly.shift":
                tr.counters["shift_terms_out"] += len(out.terms)
            elif name == "ideal.ideal_power":
                tr.counters["ideal_power_gens"] += len(out.gens)
            elif name == "finv.hk_function" and tr.task is not None:
                L, e = args[0], args[1]
                J = args[2] if len(args) > 2 else kwargs.get("J")
                tr.task["hk_keys"].append(_key(L, e, None if J is None else tuple(map(str, J.gens))))
            elif name == "finv.splitting_number" and tr.task is not None:
                tr.task["split_keys"].append(_key(args[0], args[1]))
            return out
    wrapper.__wrapped__ = fn
    return wrapper


def _charp_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "charp" or n.startswith("charp."))]


def install(tr: Tracer) -> dict:
    """Wrap every WRAPPED function and rebind each charp module attribute that
    still names an original (`from .x import y` copies); returns id -> original."""
    originals = {}
    for modname, attr, name in WRAPPED:
        owner = sys.modules[modname]
        *cls, fname = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        fn = getattr(owner, fname)
        wrapper = _make_wrapper(tr, name, fn)
        setattr(owner, fname, wrapper)
        originals[id(fn)] = (fn, wrapper)
    for mod in _charp_modules():
        for attr, value in list(vars(mod).items()):
            if id(value) in originals and originals[id(value)][0] is value:
                setattr(mod, attr, originals[id(value)][1])
    return originals


def unwrapped_bindings(originals: dict) -> list:
    """Names in charp modules or their classes that still bind an original."""
    found = []
    for mod in _charp_modules():
        for attr, value in vars(mod).items():
            spaces = [(attr, value)]
            if isinstance(value, type) and value.__module__ == mod.__name__:
                spaces += [(f"{attr}.{k}", v) for k, v in vars(value).items()]
            for label, v in spaces:
                hit = originals.get(id(v))
                if hit is not None and hit[0] is v:
                    found.append(f"{mod.__name__}.{label}")
    return found


def main(argv) -> int:
    out_path, tasks_path, *cli_args = argv
    sys.path.insert(0, str(ROOT / "src"))
    import charp.cli

    # pool workers must inherit the wrappers, which a fresh interpreter would not
    multiprocessing.set_start_method("fork", force=True)
    tr = Tracer(tasks_path)
    originals = install(tr)
    unwrapped = unwrapped_bindings(originals)
    try:
        return charp.cli.main(cli_args)
    finally:
        result = {
            "unwrapped": sorted(set(unwrapped + unwrapped_bindings(originals))),
            "layers": tr.layers,
            "counters": tr.counters,
        }
        Path(out_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
