"""Batch front end: `charp run <job>`, `charp selftest`, `charp explain <task>`."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ParseError
from .jobs import CAP_VARIABLE, TASKS, parse_job_file, run_job
from .report import report_to_json, report_to_tsv


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is malformed input (exit 1); exit 2 means a task failed
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_error(exc) -> int:
    print(f"charp: job parse error: {exc}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = _Parser(
        prog="charp",
        description="Exact F-invariants of F_p[x..]/I presentations: "
                    "Hilbert-Kunz functions, Frobenius splitting numbers, "
                    "F-purity, pair invariants, and global max/min sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a job file and write reports")
    run_p.add_argument("job", type=Path)
    # the values stay text: the job layer's key table checks them
    run_p.add_argument("--budget-monomials", help="cap on any standard-monomial box")
    run_p.add_argument("--jobs", help="worker processes for independent tasks")
    run_p.add_argument("--json-only", action="store_true",
                       help="skip the TSV report")

    sub.add_parser("selftest", help="run the built-in corpus and properties")

    exp_p = sub.add_parser("explain", help="print the formula a task computes")
    exp_p.add_argument("task", choices=sorted(TASKS))

    args = parser.parse_args(argv)

    if args.command == "selftest":
        from .selftest import run_selftest

        return run_selftest()

    if args.command == "explain":
        print(f"{args.task}:")
        print(TASKS[args.task].explain)
        return 0

    # run
    flags = {key: getattr(args, key) for key in ("budget_monomials", "jobs")}
    try:
        job = parse_job_file(str(args.job), flags, os.environ.get(CAP_VARIABLE))
    except Exception as exc:  # ParseError, OSError, or an undecodable file
        return _parse_error(exc)
    try:
        report = run_job(job)
    except ParseError as exc:  # a unit-ideal component, found before any task runs
        return _parse_error(exc)

    base = args.job
    stem = base.with_suffix("") if base.suffix else base
    outputs = [(Path(f"{stem}.report.json"), report_to_json)]
    if not args.json_only:
        outputs.append((Path(f"{stem}.report.tsv"), report_to_tsv))
    for path, render in outputs:
        try:
            path.write_text(render(report), encoding="utf-8")
        except OSError as exc:
            print(f"charp: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    print(f"charp: wrote {', '.join(str(path) for path, _ in outputs)}", file=sys.stderr)

    if report["status"] != "ok":
        for task in report["tasks"]:
            if task["status"] != "ok":
                print(f"charp: task {task['index']} ({task['kind']}) failed: "
                      f"{task.get('error', 'unknown error')}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
