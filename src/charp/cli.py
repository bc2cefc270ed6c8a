"""Batch front end: `charp run <job>`, `charp selftest`, `charp explain <task>`."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .jobs import TASKS, parse_job_file, positive_int, run_job
from .report import report_to_json, report_to_tsv

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="charp",
        description="Exact F-invariants of F_p[x..]/I presentations: "
                    "Hilbert-Kunz functions, Frobenius splitting numbers, "
                    "F-purity, pair invariants, and global max/min sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a job file and write reports")
    run_p.add_argument("job", type=Path)
    run_p.add_argument("--tolerance", type=float, default=None,
                       help="override the convergence tolerance")
    run_p.add_argument("--budget-monomials", type=int, default=None,
                       help="cap on any standard-monomial box")
    run_p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for independent tasks")
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
    try:
        job = parse_job_file(str(args.job))
    except Exception as exc:  # ParseError, OSError, or an undecodable file
        print(f"charp: job parse error: {exc}", file=sys.stderr)
        return 1

    overrides = {
        "tolerance": args.tolerance,
        "budget_monomials": args.budget_monomials,
        "jobs": args.jobs,
    }
    if args.budget_monomials is not None and args.budget_monomials < 1:
        print("charp: --budget-monomials must be an integer >= 1", file=sys.stderr)
        return 1
    env_cap = os.environ.get("CHARP_BUDGET_MONOMIALS")
    if env_cap is not None:
        try:
            overrides["env_budget_monomials"] = positive_int(env_cap)
        except ValueError:
            print("charp: CHARP_BUDGET_MONOMIALS must be an integer >= 1",
                  file=sys.stderr)
            return 1

    report = run_job(job, overrides)

    base = args.job
    stem = base.with_suffix("") if base.suffix else base
    json_path = Path(f"{stem}.report.json")
    json_path.write_text(report_to_json(report), encoding="utf-8")
    wrote = [str(json_path)]
    if not args.json_only:
        tsv_path = Path(f"{stem}.report.tsv")
        tsv_path.write_text(report_to_tsv(report), encoding="utf-8")
        wrote.append(str(tsv_path))
    print(f"charp: wrote {', '.join(wrote)}", file=sys.stderr)

    if report["status"] != "ok":
        for task in report["tasks"]:
            if task["status"] != "ok":
                print(f"charp: task {task['index']} ({task['kind']}) failed: "
                      f"{task.get('error', 'unknown error')}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
