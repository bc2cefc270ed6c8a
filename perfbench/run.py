"""charp benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload hk_tower --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` it runs `charp run <job> --jobs 1` processes back to back
(a closed loop, one process at a time) for `--seconds`, with set-up-only
processes between them, and reports the end-to-end metrics of
BENCHMARK.json.  With `--trace 1` it alternates
untraced and traced (perfbench/tracer.py) `--jobs 1` processes, at least two
of each, then runs one traced `--jobs 2` process; it checks that neither
tracing nor the pool changes a report or a deterministic counter, and
reports the per-layer metrics.  Every report is checked against golden.tsv.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEADLINE_S = 165.0  # no process is left running past this; the limit is 180 s
SETUP_SHARE = 0.2  # of a run's time, spent on set-up processes
SETUP_CODE = (
    "import sys\n"
    "import charp.cli\n"
    "from charp.jobs import build_presentation, parse_job_file\n"
    "build_presentation(parse_job_file(sys.argv[1]))\n"
)


class Bench:
    def __init__(self, workload: str, seed: int, trace: int):
        self.t_start = perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.work = ROOT / ".perfbench_work" / f"{workload}-s{seed}-t{trace}"
        self.work.mkdir(parents=True, exist_ok=True)
        for old in self.work.iterdir():
            old.unlink()
        self.w = workloads.build(workload, seed)
        self.job = self.work / "job.charp"
        self.job.write_text(self.w.job_text(), encoding="utf-8")
        self.golden = workloads.load_golden()
        self.calib: list = []
        self.attempted = self.failed = 0
        self.problems: list = []  # anything that makes the run incorrect

    def elapsed(self) -> float:
        return perf_counter() - self.t_start

    def run(self, cmd) -> tuple:
        """Run cmd to completion; (wall s, peak RSS MiB, exit code).  The
        process group is killed at the deadline."""
        with open(self.work / "stderr.log", "ab") as log:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=log, start_new_session=True)
            timer = threading.Timer(max(0.0, DEADLINE_S - self.elapsed()),
                                    _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024, proc.returncode

    def charp(self, jobs: int = 1, traced: str | None = None) -> dict:
        """One `charp run` process; its report is read and checked."""
        for suffix in (".report.json", ".report.tsv"):
            self.job.with_suffix(suffix).unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "charp.cli"]
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"),
                   str(self.work / f"{traced}.json"), str(self.work / f"{traced}.tasks.jsonl")]
        self.calib.append(_calibrate())
        wall, rss, code = self.run(cmd + ["run", str(self.job), "--jobs", str(jobs)])
        try:
            report = json.loads(self.job.with_suffix(".report.json").read_text(encoding="utf-8"))
            tsv = self.job.with_suffix(".report.tsv").read_bytes()
        except (OSError, ValueError):
            report, tsv = None, None
        if code not in (0, 2):  # 2: a task failed, which the golden check scores
            self.problems.append(f"charp exited with {code}")
        attempted, failed, unexpected = workloads.check_report(self.w, report, self.golden)
        self.attempted += attempted
        self.failed += failed
        self.problems += unexpected
        return {"wall": wall, "rss": rss, "report": report, "tsv": tsv}

    def setup(self) -> float:
        """Wall time of one process that only sets the job up."""
        wall, _, code = self.run([sys.executable, "-c", SETUP_CODE, str(self.job)])
        if code != 0:
            self.problems.append(f"set-up process exited with {code}")
        return wall


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:  # ended just before the deadline
        pass


def _calibrate() -> float:
    """A fixed pure-Python loop; its spread shows how noisy the machine is."""
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return perf_counter() - t0


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, q1 {q1:.4g}, q3 {q3:.4g}"


def measure_end_to_end(b: Bench, seconds: float) -> dict:
    b.setup()  # compiles the bytecode cache; not timed
    start = b.elapsed()
    runs, setups = [], []
    # set-up processes fill SETUP_SHARE of the time between the charp
    # processes, so both sample the machine over the whole run
    while True:
        runs.append(b.charp())
        while sum(setups) < SETUP_SHARE * (b.elapsed() - start):
            setups.append(b.setup())
        walls = [r["wall"] for r in runs]
        # start another process only if it should end inside `seconds`
        if (b.elapsed() - start + statistics.median(walls) / (1 - SETUP_SHARE) > seconds
                or b.elapsed() + max(walls) >= DEADLINE_S):
            break
    rss = [r["rss"] for r in runs]
    print(f"  wall_s       {statistics.median(walls):.4f} s    ({_spread(walls)})")
    print(f"  setup_s      {statistics.median(setups):.4f} s    ({_spread(setups)})")
    print(f"  peak_rss_mb  {statistics.median(rss):.2f} MiB  ({_spread(rss)})")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "correct_frac": 1 - b.failed / b.attempted,
    }


def _records(path: Path) -> list:
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    return sorted((json.loads(line) for line in lines), key=lambda r: r["index"])


def _repeat_frac(keys) -> float:
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


def _report_counters(report) -> dict:
    budgets = [t["budget"] for t in report["tasks"]] if report else []
    return {
        "ideal.pairs_popped": sum(b["used_pairs"] for b in budgets),
        "ideal.basis_peak": max((b["used_basis"] for b in budgets), default=0),
        "ideal.box_peak": max((b["used_box"] for b in budgets), default=0),
    }


def _task_counters(records) -> dict:
    hk = [k for r in records for k in r["hk_keys"]]
    split = [k for r in records for k in r["split_keys"]]
    runs = sum(r["buchberger_runs"] for r in records)
    hits = sum(r["gb_hits"] for r in records)
    return {
        "ideal.buchberger.runs": runs,
        "ideal.gb_cache.hit_frac": hits / (hits + runs) if hits + runs else 0.0,
        "finv.hk_function.repeat_frac": _repeat_frac(hk),
        "finv.splitting_number.repeat_frac": _repeat_frac(split),
    }


def _layer_value(trace: dict, name: str):
    """`<span>.calls`, `<span>.s` (inclusive) or `<span>.self_s` of a trace."""
    span, _, field = name.rpartition(".")
    return trace["layers"].get(span, {}).get(field, 0)


def measure_layers(b: Bench, seconds: float, names) -> dict:
    b.setup()  # compiles the bytecode cache; not timed
    setup = statistics.median(b.setup() for _ in range(3))
    plain, traced = [], []
    # untraced and traced processes alternate, so drift hits both alike
    while len(traced) < 2 or (b.elapsed() + plain[-1]["wall"] + traced[-1]["wall"] <= seconds
                              and b.elapsed() + 3 * traced[-1]["wall"] < DEADLINE_S):
        plain.append(b.charp())
        tag = f"trace{len(traced)}"
        run = b.charp(traced=tag)
        run["trace"] = json.loads((b.work / f"{tag}.json").read_text(encoding="utf-8"))
        run["records"] = _records(b.work / f"{tag}.tasks.jsonl")
        traced.append(run)
    pool = b.charp(jobs=2, traced="pool")
    pool["records"] = _records(b.work / "pool.tasks.jsonl")

    # tracing must change neither a report nor a deterministic counter, with
    # or without the process pool
    n_tasks = len(b.w.tasks)
    base = plain[0]
    others = [(f"plain{i}", r) for i, r in enumerate(plain)][1:]
    others += [(f"trace{i}", r) for i, r in enumerate(traced)] + [("pool", pool)]
    for label, run in others:
        if run["tsv"] is None or run["tsv"] != base["tsv"]:
            b.problems.append(f"{label}: TSV report differs from plain0")
        if _report_counters(run["report"]) != _report_counters(base["report"]):
            b.problems.append(f"{label}: budget counters differ from plain0")
        if "records" not in run:
            continue
        if [r["index"] for r in run["records"]] != list(range(n_tasks)):
            b.problems.append(f"{label}: task counters missing or repeated")
        if _task_counters(run["records"]) != _task_counters(traced[0]["records"]):
            b.problems.append(f"{label}: task counters differ from trace0")
    for run in traced:
        if run["trace"]["unwrapped"]:
            b.problems.append(f"unwrapped originals: {run['trace']['unwrapped']}")

    def med(fn):
        return statistics.median(fn(r["trace"]) for r in traced)

    t0 = traced[0]["trace"]
    plain_wall = statistics.median(r["wall"] for r in plain)
    traced_wall = statistics.median(r["wall"] for r in traced)
    derived = {
        **_report_counters(base["report"]),
        **_task_counters(traced[0]["records"]),
        "ideal.ideal_power.gens": t0["counters"]["ideal_power_gens"],
        "poly.shift.terms_out": t0["counters"]["shift_terms_out"],
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.self_share": statistics.median(
            sum(agg["self_s"] for agg in r["trace"]["layers"].values()) / (r["wall"] - setup)
            for r in traced),
    }
    print(f"  untraced wall {plain_wall:.4f} s, traced wall {traced_wall:.4f} s "
          f"(medians of {len(traced)}), set-up {setup:.4f} s; span self times cover "
          f"{derived['trace.self_share']:.1%} of a traced process's time after set-up")
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".calls"):
            out[name] = _layer_value(t0, name)
        else:
            out[name] = med(lambda t: _layer_value(t, name))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "charp" / "__init__.py").is_file():
        print(f"perfbench: no charp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    b = Bench(args.workload, args.seed, args.trace)
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"tasks={len(b.w.tasks)}")
    if args.trace:
        values = measure_layers(b, args.seconds, [m["name"] for m in wanted])
    else:
        values = measure_end_to_end(b, args.seconds)
    failed_frac = b.failed / b.attempted
    print(f"  failed_frac  {failed_frac:.4f} ratio ({b.failed} of {b.attempted} checked "
          f"values wrong or missing, over all reports of this run)")
    calib_ms = [c * 1000 for c in b.calib]
    print(f"  calib_ms     {statistics.median(calib_ms):.3f} ms   ({_spread(calib_ms)}; "
          f"a fixed loop timed before each process)")
    for problem in b.problems:
        print(f"  PROBLEM: {problem}")
    result = {
        "correct": not b.problems,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
