"""Fuzzing the job layer: malformed input ends in a parse error (exit 1) or a
task error (exit 2), never in an exception out of the parser or the CLI."""

import json
import math
import tempfile
from pathlib import Path

import pytest

from charp.cli import main
from charp.errors import ParseError
from charp.jobs import TASKS, parse_job_text, validate_job

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(deadline=None, derandomize=True, database=None)

# any JSON value, for a key whose value has the wrong type
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2),
    st.text("xy0 ,:()", max_size=5), st.lists(st.integers(-1, 2), max_size=2),
    st.dictionaries(st.sampled_from(["component", "point", "kind"]),
                    st.integers(0, 1), max_size=2),
)
POLYS = st.lists(st.sampled_from(["x", "y", "x*y", "x^2 - y^3", "x + 1", "1", "0",
                                  "z", "x +"]), max_size=2)
# valid tolerances and the negative, zero and NaN ones the key table rejects
TOLERANCES = st.one_of(st.floats(0, 1), st.floats(-1, 0), st.just(math.nan))
RATIONALS = st.sampled_from(["0", "1/2", "1", "-1", "1/0", "a"])
SAMPLE = st.fixed_dictionaries({"component": st.integers(-1, 2),
                                "point": st.lists(st.integers(-1, 3), max_size=3)})
# well-typed values of every task key, small enough that each task is cheap
TASK_VALUES = {
    "component": st.integers(-1, 2),
    "point": st.lists(st.integers(-1, 3), max_size=3),
    "e": st.integers(-1, 2),
    "e_max": st.integers(0, 3),
    "tolerance": TOLERANCES,
    "a": POLYS,
    "t": RATIONALS,
    "t_grid": st.lists(RATIONALS, max_size=2),
    "samples": st.lists(SAMPLE, max_size=2),
    "nearby": st.lists(SAMPLE, max_size=2),
    "special": SAMPLE,
    "extra_vars": st.integers(0, 2),
}


def _entry(draw, values: dict, required=frozenset()) -> dict:
    """Well-typed values for some keys; now and then one malformed entry."""
    keys = set(required) | set(draw(st.lists(st.sampled_from(sorted(values)), unique=True)))
    entry = {k: draw(values[k]) for k in sorted(keys)}
    spoil = draw(st.sampled_from(["no"] * 12 + ["junk", "unknown", "drop"]))
    if spoil == "junk" and entry:
        entry[draw(st.sampled_from(sorted(entry)))] = draw(JUNK)
    elif spoil == "unknown":
        entry["bogus"] = 1
    elif spoil == "drop" and required:
        del entry[min(required)]
    return entry


@st.composite
def json_jobs(draw):
    job = _entry(draw, {"p": st.sampled_from([2, 3, 5, 2, 3, 5, 4]),
                        "tolerance": TOLERANCES,
                        "jobs": st.integers(-1, 2),
                        "budget_basis": st.integers(1, 50),
                        "budget_pairs": st.integers(1, 500)}, {"p"})
    job["components"] = [
        _entry(draw, {"vars": st.sampled_from([["x", "y"], ["x", "y"], ["x"], [], ["x", "x"]]),
                      "ideal": POLYS,
                      "min_primes": st.lists(POLYS, max_size=2)})
        for _ in range(draw(st.sampled_from([1, 2, 1, 2, 0])))
    ]
    job["tasks"] = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(TASKS) * 2 + ["bogus"]))
        spec = TASKS.get(kind, TASKS["fedder"])
        job["tasks"].append({"kind": kind, **_entry(
            draw, {k: TASK_VALUES[k] for k in spec.keys}, spec.required)})
    return job


KEYS = sorted(set(TASK_VALUES) | {"p", "vars", "ideal", "min_primes", "jobs",
                                  "budget_monomials", "kind", "zzz"})
LINES = st.one_of(
    st.sampled_from(["[component]", "[task hk]", "[task pair]", "[task global_hk]",
                     "[task bogus]", "[task", "[other]", "# note", "", "no equals"]),
    st.builds("{} = {}".format, st.sampled_from(KEYS),
              st.text("0123456789 ,;:()|/-xyab^*+", max_size=12)),
)


@settings(FUZZ, max_examples=300)
@given(st.lists(LINES, max_size=10).map("\n".join))
def test_fuzz_text_parser_raises_only_parse_errors(text):
    try:
        validate_job(parse_job_text(text))
    except ParseError:
        pass


@settings(FUZZ, max_examples=250)
@given(json_jobs())
def test_fuzz_json_jobs_through_cli(job):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(job), encoding="utf-8")
        code = main(["run", str(path), "--budget-monomials", "1000", "--json-only"])
        assert code in (0, 1, 2)
        if code != 1:
            report = json.loads((Path(tmp) / "job.report.json").read_text(encoding="utf-8"))
            errors = [t.get("error", "") for t in report["tasks"]]
            assert not any(e.startswith("internal error") for e in errors), errors
