"""Job files, reports, determinism, exit codes, CLI surface."""

import gc
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import charp.ideal
import charp.jobs
from charp.cli import main
from charp.errors import ParseError
from charp.finv import hk_function
from charp.jobs import (
    _KEY_TYPES,
    TASKS,
    parse_job_file,
    parse_job_text,
    run_job,
    run_task,
    validate_job,
)
from charp.report import report_to_json, report_to_tsv

ROOT = pathlib.Path(__file__).resolve().parent.parent

QUADRIC_JOB = """\
# quadric cone at the origin
p = 7

[component]
vars = x y z
ideal = x*y - z^2

[task hk]
component = 0
point = 0 0 0
e_max = 2

[task classify]
point = 0 0 0
e_max = 2
"""

PRODUCT_JOB = """\
p = 5

[component]
vars =
ideal =

[component]
vars =
ideal =

[task global_hk]
samples = 0:() 1:()
e_max = 2
"""


def _write(tmp_path, text, name="job.charp"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# -- parsing -----------------------------------------------------------------

def test_parse_text_job():
    job = validate_job(parse_job_text(QUADRIC_JOB))
    assert job["p"] == 7
    assert job["components"][0]["vars"] == ["x", "y", "z"]
    assert job["tasks"][0]["kind"] == "hk"
    assert job["tasks"][1]["kind"] == "classify"


def test_unknown_keys_are_hard_errors():
    with pytest.raises(ParseError):
        parse_job_text("p = 5\nbogus = 1\n")
    with pytest.raises(ParseError):
        parse_job_text("p = 5\n[task hk]\nwhatever = 3\n")
    with pytest.raises(ParseError):
        parse_job_text("p = 5\n[task frobnicate]\n")


def test_json_job_equivalent(tmp_path):
    job_json = {
        "p": 7,
        "components": [{"vars": ["x", "y", "z"], "ideal": ["x*y - z^2"]}],
        "tasks": [{"kind": "hk", "component": 0, "point": [0, 0, 0], "e_max": 2}],
    }
    p1 = _write(tmp_path, json.dumps(job_json), "a.json")
    p2 = _write(tmp_path, QUADRIC_JOB.replace("[task classify]\npoint = 0 0 0\ne_max = 2\n", ""))
    r1 = run_job(parse_job_file(str(p1)))
    r2 = run_job(parse_job_file(str(p2)))
    assert r1["tasks"][0]["rows"] == r2["tasks"][0]["rows"]


@pytest.mark.parametrize("where, key, value", [
    ("task", "e_max", "2"),
    ("task", "e_max", True),
    ("task", "point", "0 0 0"),
    ("component", "vars", "x y z"),
    ("component", "ideal", "x*y - z^2"),
])
def test_json_values_are_type_checked(tmp_path, capsys, where, key, value):
    job_json = {
        "p": 7,
        "components": [{"vars": ["x", "y", "z"], "ideal": ["x*y - z^2"]}],
        "tasks": [{"kind": "fedder"},
                  {"kind": "hk", "point": [0, 0, 0], "e_max": 2}],
    }
    if where == "task":
        job_json["tasks"][1][key] = value
        label = "task 1 (hk)"
    else:
        job_json["components"][0][key] = value
        label = "component 0"
    with pytest.raises(ParseError, match=re.escape(f"{label}: '{key}' must be")):
        validate_job(json.loads(json.dumps(job_json)))
    path = _write(tmp_path, json.dumps(job_json), "bad.json")
    assert main(["run", str(path)]) == 1
    assert f"{label}: '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "bad.report.json").exists()


@pytest.mark.parametrize("job", [
    [1, 2],
    {"p": 5, "components": {"vars": []}},
    {"p": 5, "components": ["x"]},
    {"p": 5, "components": [{}], "tasks": ["hk"]},
    {"p": 5, "components": [{}], "tasks": [{"kind": ["hk"]}]},
    {"p": 5, "components": [{}], "tasks": [{"kind": "global_hk",
                                             "samples": [{"component": 0}]}]},
])
def test_malformed_json_structure_is_parse_error(job):
    with pytest.raises(ParseError):
        validate_job(job)


@pytest.mark.parametrize("kind, line, key", [
    ("hk", "point = 1 a 2", "point"),
    ("global_hk", "samples = 0:(a,b)", "samples"),
    ("semicontinuity", "special = x:(0)", "special"),
    ("hk", "e_max = two", "e_max"),
])
def test_text_conversion_errors_name_their_line(kind, line, key):
    text = f"p = 5\n[component]\nvars = x y\nideal =\n[task {kind}]\n{line}\n"
    with pytest.raises(ParseError, match=f"^line 6: '{key}' must be"):
        parse_job_text(text)


def test_sample_syntax():
    job = validate_job(parse_job_text(PRODUCT_JOB))
    assert job["tasks"][0]["samples"] == [
        {"component": 0, "point": []},
        {"component": 1, "point": []},
    ]


# -- execution ---------------------------------------------------------------

def test_run_job_quadric():
    job = validate_job(parse_job_text(QUADRIC_JOB))
    report = run_job(job)
    assert report["status"] == "ok"
    hk_task = report["tasks"][0]
    rows = hk_task["rows"]
    assert [r["lambda"] for r in rows] == [73, 3601]
    # normalized values approach 3/2 (from below for the quadric cone)
    v1, v2 = (float(r["norm"]["decimal"]) for r in rows)
    assert abs(v2 - 1.5) < abs(v1 - 1.5) < 0.011
    flags = report["tasks"][1]["flags"]
    assert flags["hl_satisfied"] is True
    # the law holds with equality: lambda_e/q^d - 1 = 1 - a_e/q^d at every e
    assert [Fraction(h["fraction"]) + Fraction(s["fraction"])
            for h, s in zip(flags["hk"]["raw"], flags["fsig"]["raw"])] == [2, 2]


def test_run_job_product_global():
    job = validate_job(parse_job_text(PRODUCT_JOB))
    report = run_job(job)
    assert report["status"] == "ok"
    task = report["tasks"][0]
    assert task["value"]["fraction"] == "1/1"
    assert task["gamma"]["z_is_spec"] is True


def test_empty_task_list_ok():
    report = run_job(validate_job(parse_job_text("p = 5\n[component]\nvars = x\nideal =\n")))
    assert report["status"] == "ok"
    assert report["tasks"] == []


def test_task_error_is_embedded():
    job = validate_job(parse_job_text(
        "p = 5\n[component]\nvars = x y\nideal = x*y\n"
        "[task nu]\npoint = 0 0\na = x\ne = 1\n"))
    # nu of an ideal that is zero modulo I? (x) is nonzero mod (xy): runs fine
    report = run_job(job)
    assert report["status"] == "ok"
    job2 = validate_job(parse_job_text(
        "p = 5\n[component]\nvars = x y\nideal = x\n"
        "[task nu]\npoint = 0 0\na = x\ne = 1\n"))
    report2 = run_job(job2)
    assert report2["status"] == "error"
    assert "ZeroIdeal" in report2["tasks"][0]["error"]


def test_missing_required_task_keys_rejected():
    with pytest.raises(ParseError):
        validate_job(parse_job_text(
            "p = 5\n[component]\nvars = x\nideal =\n[task pair]\npoint = 0\n"))
    with pytest.raises(ParseError):
        validate_job(parse_job_text(
            "p = 5\n[component]\nvars = x\nideal =\n[task global_hk]\ne_max = 2\n"))


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_component_index_out_of_range_is_task_error(n_jobs):
    # an in-range task next to the bad ones, so that --jobs 2 forms two
    # groups; the bad fedder task has no point for the default origin
    good = "[task hk]\npoint = 0\ne_max = 2\n"
    job = validate_job(parse_job_text(
        "p = 5\n[component]\nvars = x\nideal =\n"
        "[task hk]\ncomponent = 3\npoint = 0\ne_max = 2\n"
        "[task fedder]\ncomponent = 3\n" + good), {"jobs": str(n_jobs)})
    assert charp.jobs._groups(job) == [[0, 1], [2]]
    report = run_job(job)
    for task in report["tasks"][:2]:
        assert task["status"] == "error"
        assert task["error"] == "ValueError: component index 3 out of range (presentation has 1)"
        assert task == run_task(job, task["index"], charp.jobs.build_presentation(job))
    assert report["tasks"][2]["status"] == "ok"
    job2 = validate_job(parse_job_text(
        "p = 5\n[component]\nvars = x\nideal =\n"
        "[task global_hk]\nsamples = 7:(0)\ne_max = 2\n" + good), {"jobs": str(n_jobs)})
    assert charp.jobs._groups(job2) == [[0], [1]]
    report2 = run_job(job2)
    assert report2["tasks"][0]["status"] == "error"
    assert report2["tasks"][0]["error"] == ("ValueError: component index 7 out of range "
                                            "(presentation has 1)")
    assert report2["tasks"][1]["status"] == "ok"


def test_budget_error_isolated_to_task():
    # the node's origin is singular, so hk counts the box of lambda_1, 25
    # monomials, past the cap; at a regular point it would count none
    job = validate_job(parse_job_text(
        "p = 5\nbudget_monomials = 10\n"
        "[component]\nvars = x y\nideal = x*y\n"
        "[task hk]\npoint = 0 0\ne_max = 2\n"
        "[task fedder]\npoint = 0 0\n"))
    report = run_job(job)
    assert report["tasks"][0]["status"] == "error"
    assert "ResourceBudget" in report["tasks"][0]["error"]
    assert report["tasks"][1]["status"] == "ok"  # other tasks complete


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_unexpected_exception_is_task_error(monkeypatch, tmp_path, capsys, n_jobs):
    def broken(*args):
        raise TypeError("boom")

    monkeypatch.setitem(TASKS, "fedder", TASKS["fedder"]._replace(run=broken))
    # two points, so that with --jobs 2 the tasks run on two workers
    text = ("p = 5\n[component]\nvars = x y\nideal = x*y\n"
            "[task fedder]\npoint = 1 0\n[task hk]\npoint = 0 0\ne_max = 2\n")
    job = validate_job(parse_job_text(text))
    job["jobs"] = n_jobs
    report = run_job(job)
    assert report["status"] == "error"
    assert report["tasks"][0]["error"] == "internal error: TypeError: boom"
    assert report["tasks"][1]["status"] == "ok"
    assert [r["lambda"] for r in report["tasks"][1]["rows"]] == [9, 49]
    path = _write(tmp_path, text)
    assert main(["run", str(path), "--jobs", str(n_jobs)]) == 2
    assert "internal error: TypeError: boom" in capsys.readouterr().err
    saved = json.loads((tmp_path / "job.report.json").read_text())
    assert saved["tasks"][1]["status"] == "ok"




def test_pool_has_no_more_workers_than_groups(monkeypatch):
    # tasks that read a common component run on one worker, so a job whose
    # tasks share one component needs no pool, even at two points, and one
    # with two components two workers
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    report = run_job(validate_job(parse_job_text(QUADRIC_JOB), {"jobs": "64"}))
    assert report["status"] == "ok" and sizes == []
    two_points = QUADRIC_JOB.replace("[task classify]\npoint = 0 0 0", "[task classify]\npoint = 1 1 1")
    report = run_job(validate_job(parse_job_text(two_points), {"jobs": "64"}))
    assert report["status"] == "ok" and sizes == []
    two_components = two_points + "[component]\nvars = x y\nideal = x*y\n[task fedder]\ncomponent = 1\n"
    report = run_job(validate_job(parse_job_text(two_components), {"jobs": "64"}))
    assert report["status"] == "ok" and sizes == [2]


SHARED_POINTS_JOB = """\
p = 5
[component]
vars = x y z
ideal = x*y - z^2
[component]
vars = x y z
ideal = x*z; y*z
[task hk]
point = 1 1 1
e_max = 2
[task global_fsig]
samples = 0:(1,1,1) 0:(1,4,2) 0:(0,0,0)
e_max = 2
[task fsig]
point = 0 0 0
e_max = 2
[task semicontinuity]
special = 0:(0,0,0)
nearby = 0:(1,4,2) 0:(2,2,2)
e = 2
[task classify]
component = 1
point = 0 0 1
e_max = 2
[task fedder]
component = 1
point = 0 0 6
[task hk]
point = 4 4 4
e_max = 2
"""


# an F_5 quadric cone, and a second component whose basis takes 27 pairs to build
CONE = """\
p = 5
[component]
vars = x y z
ideal = x*y - z^2
"""

QUARTICS = """\
[component]
vars = x y z w
ideal = x^3*y + y^3*z + z^3*w + w^3*x + x*y*z; x^2*y^2 + z^4 + w^3*y + 2*x*z*w; \
x^4 + y*z*w^2 + 3*y^4
"""

SEMICONTINUITY_ON_THE_CONE = """\
[task semicontinuity]
special = 0:(0,0,0)
nearby = 0:(1,1,1) 0:(1,4,2)
e = 1
"""

# the semicontinuity task fits 60 pairs only if it pays for the cone alone
CONE_AND_QUARTICS_JOB = ("budget_pairs = 60\n" + CONE + QUARTICS + SEMICONTINUITY_ON_THE_CONE
                         + "[task fedder]\ncomponent = 1\n")


@pytest.mark.parametrize("task", [
    "[task hk]\n", "[task fsig]\n", "[task fedder]\n", "[task pair]\na = x\nt_grid = 0 1/2\n",
    "[task nu]\na = x\n", "[task flat_check]\n", "[task classify]\n",
    SEMICONTINUITY_ON_THE_CONE,
], ids=lambda task: task[6:task.index("]")])
def test_a_task_on_one_component_pays_for_that_component_alone(task):
    # the quartics are built before any task runs, and no task on the cone reads them
    alone, beside = [run_job(validate_job(parse_job_text(text + task)))["tasks"][0]
                     for text in (CONE, CONE + QUARTICS)]
    assert alone["status"] == "ok"
    assert (beside["status"], beside["budget"]) == (alone["status"], alone["budget"])


@pytest.mark.parametrize("nearby, error", [
    pytest.param("1:()", "ValueError: all samples must lie on one component",
                 id="mixed components"),
    pytest.param("0:() 7:()", "ValueError: component index 7 out of range (presentation has 2)",
                 id="nearby out of range"),
])
def test_semicontinuity_samples_lie_on_one_component(tmp_path, nearby, error):
    # the job, not the probe, holds samples to one component
    path = _write(tmp_path, PRODUCT_JOB.split("[task")[0]
                  + f"[task semicontinuity]\nspecial = 0:()\nnearby = {nearby}\n")
    assert main(["run", str(path)]) == 2
    saved = json.loads((tmp_path / "job.report.json").read_text())
    assert saved["tasks"][0]["error"] == error


def test_task_groups_join_the_tasks_that_share_a_component(monkeypatch):
    job = validate_job(parse_job_text(SHARED_POINTS_JOB))
    # (4,4,4) shares no point with another task, but it shares component 0
    assert charp.jobs._groups(job) == [[0, 1, 2, 3, 6], [4, 5]]
    # (0,0,6) is (0,0,1) over F_5: the fedder and classify tasks read one
    # point's data, so the second view reads the first's work
    comp = charp.jobs._build_component(job, 1)
    first = comp.local_at((0, 0, 6))
    lam = hk_function(first, 1)

    def no_run(*args):
        raise AssertionError("a Buchberger run")

    monkeypatch.setattr(charp.ideal, "_buchberger", no_run)
    second = comp.local_at((0, 0, 1))
    assert first.point == second.point == (0, 0, 1)
    assert hk_function(second, 1) == lam


TWISTED_CUBIC_GLOBAL_FSIG_JOB = """\
p = 3
[component]
vars = x y z w
ideal = x*z - y^2; y*w - z^2; x*w - y*z
[task global_fsig]
samples = 0:(0,0,0,0) 0:(1,1,1,1) 0:(1,2,1,2) 0:(2,1,2,1)
e_max = 2
"""

# two more points on the twisted cubic
TWISTED_CUBIC_POINTS_JOB = TWISTED_CUBIC_GLOBAL_FSIG_JOB + """\
[task fedder]
point = 1 0 0 0
[task fedder]
point = 0 0 0 1
"""

# and a second component with one task, so that --jobs 2 starts a pool of two
TWISTED_CUBIC_AND_QUADRIC_JOB = TWISTED_CUBIC_POINTS_JOB + """\
[component]
vars = x y z
ideal = x*y - z^2
[task fedder]
component = 1
"""


# (x*y, x*z), the hyperplane x = 0 and the plane y = z = 0 of A^4 over F_5,
# is not a complete intersection at any point: d = 3 against two
# generators.  Its local rings are singular on the line x = y = z = 0,
# where the planes meet, and regular elsewhere, as at (0,1,1,0)
PLANES_GLOBAL_FSIG_JOB = """\
p = 5
[component]
vars = x y z w
ideal = x*y; x*z
[task global_fsig]
samples = 0:(0,0,0,0) 0:(0,0,0,1) 0:(0,1,1,0) 0:(0,0,0,2) 0:(0,0,0,3) 0:(0,0,0,4)
e_max = 2
"""

# tasks at three of the line's points, and a second component with one
# task, so that --jobs 2 starts a pool of two
PLANES_AND_QUADRIC_JOB = """\
p = 5
[component]
vars = x y z w
ideal = x*y; x*z
[task fsig]
point = 0 0 0 0
e_max = 2
[task fedder]
point = 0 0 0 2
[task fedder]
point = 0 0 0 3
[component]
vars = x y z
ideal = x*y - z^2
[task fedder]
component = 1
"""


# the F_5 quadric cone (gamma = 2), the coordinate axes below it, sampled
# at two points whose local rings are built only to be excluded, and a
# third component with a task of its own: groups [[0, 1], [2]]
CONE_AXES_AND_CROSS_JOB = """\
p = 5
[component]
vars = x y z
ideal = x*y - z^2
[component]
vars = x y z
ideal = x*y; y*z; x*z
[component]
vars = x y
ideal = x*y
[task global_hk]
samples = 0:(1,1,1) 1:(1,0,0) 1:(0,0,0)
[task global_fsig]
samples = 0:(1,1,1) 1:(1,0,0) 1:(0,0,0)
[task hk]
component = 2
"""


def test_parallel_jobs_match_sequential():
    # one group of tasks, which runs in-process, and two on a pool each;
    # the tasks that read a component's shared work run on one worker
    assert charp.jobs._groups(validate_job(parse_job_text(CONE_AXES_AND_CROSS_JOB))) \
        == [[0, 1], [2]]
    for text in (QUADRIC_JOB, SHARED_POINTS_JOB, TWISTED_CUBIC_AND_QUADRIC_JOB,
                 PLANES_AND_QUADRIC_JOB, CONE_AND_QUARTICS_JOB, CONE_AXES_AND_CROSS_JOB):
        job = validate_job(parse_job_text(text))
        seq = run_job(job)
        par = run_job(job | {"jobs": 2})
        assert seq["status"] == "ok"
        assert report_to_tsv(seq) == report_to_tsv(par)
        seq.pop("wall_time_s")
        par.pop("wall_time_s")
        assert report_to_json(seq) == report_to_json(par)


@pytest.mark.parametrize("text", [TWISTED_CUBIC_AND_QUADRIC_JOB, SHARED_POINTS_JOB])
def test_a_job_leaves_no_cyclic_garbage(text):
    # a component's store holds values only, no local ring that holds the
    # store back, so a job's rings are freed by reference counting alone
    job = validate_job(parse_job_text(text))
    gc.collect()
    gc.disable()
    try:
        assert run_job(job)["status"] == "ok"
    finally:
        gc.enable()
    assert gc.collect() == 0


def test_the_local_rings_of_a_component_share_its_colons(monkeypatch):
    # each splitting number at the five singular samples reads
    # (I^[q] : I), which depends on I alone: 2 colons for q = 5, 25, where
    # one per point and q would make 10; the regular sample reads none
    import charp.finv

    calls = []

    def counted(*args, _fn=charp.finv.colon):
        calls.append(1)
        return _fn(*args)

    monkeypatch.setattr(charp.finv, "colon", counted)
    report = run_job(validate_job(parse_job_text(PLANES_GLOBAL_FSIG_JOB)))
    assert report["status"] == "ok" and len(report["tasks"][0]["rows"]) == 12
    assert len(calls) == 2


def test_a_pool_makes_the_buchberger_runs_of_an_in_process_run(tmp_path, monkeypatch):
    # the tasks that read a common component, whose store holds the work
    # its local rings share, run on one worker, so the bases a job computes
    # do not depend on the schedule
    log = tmp_path / "runs.log"  # appended to by every process, pool workers included

    def counted(self, _fn=charp.ideal.Ideal.groebner_basis):
        if self._gb is None:
            with open(log, "a", encoding="utf-8") as fh:
                fh.write("run\n")
        return _fn(self)

    monkeypatch.setattr(charp.ideal.Ideal, "groebner_basis", counted)
    runs = []
    for n_jobs in ("1", "2"):
        log.write_text("", encoding="utf-8")
        assert run_job(validate_job(parse_job_text(TWISTED_CUBIC_AND_QUADRIC_JOB),
                                    {"jobs": n_jobs}))["status"] == "ok"
        runs.append(len(log.read_text(encoding="utf-8").split()))
    assert runs[0] == runs[1]


def test_a_pool_builds_each_colon_once(tmp_path, monkeypatch):
    # the planes' tasks read (I^[q] : I) for q = 5, 25 at the singular
    # origin and q = 5 at (0,0,0,2) and (0,0,0,3), and run on one worker,
    # the quadric's on another; grouping the tasks by point would put them
    # on three workers, each of which builds the colon for q = 5: 4 in all
    import charp.finv

    log = tmp_path / "colons.log"  # appended to by every process, pool workers included

    def counted(*args, _fn=charp.finv.colon):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("colon\n")
        return _fn(*args)

    monkeypatch.setattr(charp.finv, "colon", counted)
    colons = []
    for n_jobs in ("1", "2"):
        log.write_text("", encoding="utf-8")
        job = validate_job(parse_job_text(PLANES_AND_QUADRIC_JOB), {"jobs": n_jobs})
        assert charp.jobs._groups(job) == [[0, 1, 2], [3]]
        assert run_job(job)["status"] == "ok"
        colons.append(len(log.read_text(encoding="utf-8").split()))
    assert colons == [2, 2]


# the planes x = 0 and y = 0 of A^3 over F_5, singular on the line
# x = y = 0 where they meet; (1,0,3) and (0,4,4) are regular
PLANES_SWEEP_JOB = """\
p = 5
[component]
vars = x y z
ideal = x*y
[task global_fsig]
samples = 0:(0,0,0) 0:(0,0,1) 0:(1,0,3) 0:(0,0,2) 0:(0,4,4)
e_max = 2
[task fedder]
point = 0 0 3
"""


def test_the_local_rings_of_a_component_share_fedders_multiplier(monkeypatch):
    # x*y is a complete intersection at every point, so F-purity and a_1 at
    # the four singular points read (F^(q-1)) for q = 5, which depends on I
    # alone: one power for both tasks, where one per point would make 4; the
    # regular points read none
    import charp.finv

    calls = []

    def counted(f, k, _fn=charp.finv.poly_pow):
        calls.append((str(f), k))
        return _fn(f, k)

    monkeypatch.setattr(charp.finv, "poly_pow", counted)
    job = validate_job(parse_job_text(PLANES_SWEEP_JOB))
    report = run_job(job)
    assert report["status"] == "ok" and len(report["tasks"][0]["rows"]) == 10
    assert calls == [("x*y", 4)]
    # poly_pow charges no budget: each task's counters are those it has alone
    for i in (0, 1):
        alone = run_task(job, i, charp.jobs.build_presentation(job))
        assert report["tasks"][i]["budget"] == alone["budget"]


def test_regular_points_reach_any_e_under_the_default_caps(tmp_path):
    # at a smooth point of the F_5 quadric lambda_e = a_e = q^d without a
    # box: lambda_6 alone would count 61,230,625 monomials, past the cap
    path = _write(tmp_path, "p = 5\n[component]\nvars = x y z\nideal = x*y - z^2\n" + "".join(
        f"[task {kind}]\npoint = 1 1 1\ne_max = 6\n" for kind in ("hk", "fsig", "classify")))
    assert main(["run", str(path)]) == 0
    hk, fsig, flags = json.loads((tmp_path / "job.report.json").read_text())["tasks"]
    assert [(r["e"], r["norm"]["fraction"]) for r in hk["rows"]] == [(e, "1/1") for e in range(1, 7)]
    assert [(r["e"], r["s_e"]["fraction"]) for r in fsig["rows"]] == [(e, "1/1") for e in range(1, 7)]
    estimates = [hk["estimate"], fsig["estimate"], flags["flags"]["hk"], flags["flags"]["fsig"]]
    assert all(est["value"]["fraction"] == "1/1" and est["confidence"] == "exact"
               for est in estimates)
    flags = flags["flags"]
    assert flags["regular"] and flags["f_pure"] and flags["hl_satisfied"]
    assert flags["hilbert_samuel"] == "1"


REPLAY_JOB = """\
p = 3
[component]
vars = x y z w
ideal = x*z - y^2; y*w - z^2; x*w - y*z
[task fedder]
[task fsig]
e_max = 2
"""


def test_a_task_is_charged_the_cached_work_it_reads():
    # the fsig task reads the fedder task's (I^[3] : I); both budget blocks
    # are those of the tasks run each on its own
    job = validate_job(parse_job_text(REPLAY_JOB))
    built = charp.jobs.build_presentation(job)
    fedder = run_task(job, 0, built)
    assert fedder["budget"] == {"max_basis": 2000, "max_pairs": 200_000, "max_box": 1_000_000,
                                "used_basis": 16, "used_pairs": 51, "used_box": 0}
    fsig = run_task(job, 1, built)
    assert fsig["budget"] == {"max_basis": 2000, "max_pairs": 200_000, "max_box": 1_000_000,
                              "used_basis": 19, "used_pairs": 117, "used_box": 6561}
    assert fsig == run_task(job, 1, charp.jobs.build_presentation(job))
    # the fedder task's 51 pairs are the fsig task's first: with one pair
    # less, charging the stored multiplier would pass the cap, so the task
    # computes it again, which raises the error the task raises alone
    tight = job | {"budget_pairs": 50}
    shared = run_task(tight, 1, built)
    alone = run_task(tight, 1, charp.jobs.build_presentation(tight))
    assert shared["error"] == ("ResourceBudgetError: resource budget exceeded: "
                               "pair count used 51 > limit 50")
    assert shared == alone


REPEATED_POINT_JOB = """\
p = 5
[component]
vars = x y z
ideal = x*y - z^2
[task global_hk]
samples = 0:(0,0,0) 0:(1,1,1) 0:(0,0,0)
e_max = 2
[task semicontinuity]
special = 0:(0,0,0)
nearby = 0:(1,1,1) 0:(0,0,0)
e = 2
"""


def test_a_task_that_reads_one_local_ring_twice_is_charged_once():
    # the origin is sampled twice, and the semicontinuity special is also nearby
    job = validate_job(parse_job_text(REPEATED_POINT_JOB))
    report = run_job(job)
    assert report["status"] == "ok"
    caps = {"max_basis": 2000, "max_pairs": 200_000, "max_box": 1_000_000}
    assert [t["budget"] for t in report["tasks"]] == [
        caps | {"used_basis": 28, "used_pairs": 64, "used_box": 15625},
        caps | {"used_basis": 28, "used_pairs": 52, "used_box": 15625},
    ]
    # each is what the task charges with the repeated point left out
    once = REPEATED_POINT_JOB.replace(" 0:(1,1,1) 0:(0,0,0)", " 0:(1,1,1)")
    assert [t["budget"] for t in run_job(validate_job(parse_job_text(once)))["tasks"]] == \
        [t["budget"] for t in report["tasks"]]


LARGE_T_PAIR_JOB = """\
p = 5
[component]
vars = x y z
ideal = x*y - z^2
[task pair]
a = x; y; z
t_grid = 10
e_max = 2
"""


def test_a_pair_with_a_large_t_builds_no_ideal_power(monkeypatch):
    # a^N with N = ceil(10 (q - 1)) = 240 at e = 2 lies in m^[q]; building
    # its C(242, 2) products took seconds, all of it outside the budget, and
    # counting the box of m^[q] only gave the known a_e = 0
    import charp.finv

    def fail(*args):
        raise AssertionError("ideal_power called")

    monkeypatch.setattr(charp.finv, "ideal_power", fail)
    task = run_job(validate_job(parse_job_text(LARGE_T_PAIR_JOB)))["tasks"][0]
    assert task["status"] == "ok"
    assert [row["a_e"] for row in task["rows"]] == [0, 0]
    assert task["budget"] == {"max_basis": 2000, "max_pairs": 200_000, "max_box": 1_000_000,
                              "used_basis": 1, "used_pairs": 0, "used_box": 0}


def test_a_pair_with_u_0_reads_no_multiplier(monkeypatch):
    # the twisted cubic is no complete intersection, so reading (I^[q] : I)
    # for a U = 0 that does not use it cost 2 colons and 280 pairs, and
    # counting the box of m^[q] (3^8 monomials) only gave the known a_e = 0
    import charp.finv

    def fail(*args):
        raise AssertionError("colon called")

    monkeypatch.setattr(charp.finv, "colon", fail)
    job = ("p = 3\n[component]\nvars = x y z w\nideal = x*z - y^2; y*w - z^2; x*w - y*z\n"
           "[task pair]\na = x\nt_grid = 4\ne_max = 2\n")
    task = run_job(validate_job(parse_job_text(job)))["tasks"][0]
    assert task["status"] == "ok"
    assert [row["a_e"] for row in task["rows"]] == [0, 0]
    assert task["budget"] == {"max_basis": 2000, "max_pairs": 200_000, "max_box": 1_000_000,
                              "used_basis": 3, "used_pairs": 4, "used_box": 0}


def test_global_hk_over_equal_values_without_a_certificate_is_not_exact():
    # the normalized lambda_e of F_2[x,y,z]/(xz, x^2y^2) at the origin repeat
    # at e = 1, 2 and fall later
    job = ("p = 2\n[component]\nvars = x y z\nideal = x*z; x^2*y^2\n"
           "[task global_hk]\nsamples = 0:(0,0,0)\ne_max = 2\n")
    task = run_job(validate_job(parse_job_text(job)))["tasks"][0]
    assert task["status"] == "ok"
    assert task["value"]["fraction"] == "3/2"
    assert task["exact"] is False
    # 3/2 is a 'converged' estimate, not exact, and every local ring on the
    # gamma-locus has e(R_P) = 1, so e_HK = 1: the note calls it no lower bound
    assert task["bound_note"] == ("max over sampled primes of heuristic estimates: "
                                  "no proven bound for the global value")


def test_a_sampled_global_value_is_exact_only_with_a_proof():
    # the F_5 quadric cone sampled at two smooth points: every local value is
    # a certified 1, but the cone point has e_HK = 3/2 and s = 1/2
    job = ("p = 5\n[component]\nvars = x y z\nideal = x*y - z^2\n"
           "[task global_hk]\nsamples = 0:(1,1,1) 0:(1,4,2)\ne_max = 2\n"
           "[task global_fsig]\nsamples = 0:(1,1,1) 0:(1,4,2)\ne_max = 2\n")
    hk, fsig = run_job(validate_job(parse_job_text(job)))["tasks"]
    for task in (hk, fsig):
        assert task["status"] == "ok"
        assert task["value"]["fraction"] == "1/1"
        assert task["exact"] is False
    # without a proof the note keeps the bound sentence, as every local
    # estimate is exact
    assert hk["bound_note"] == ("max over sampled primes: a lower bound for the "
                                "global value under incomplete sampling")
    assert fsig["bound_note"] == ("min over sampled primes: an upper bound for the "
                                  "global value under incomplete sampling")
    # a certified local 0 is the minimum: F_3[x,y]/(x^2 y) is not reduced,
    # hence not F-split (a_1 = 0), at the origin, and regular at (1,0)
    job = ("p = 3\n[component]\nvars = x y\nideal = x^2*y\n"
           "[task global_fsig]\nsamples = 0:(1,0) 0:(0,0)\ne_max = 2\n")
    task = run_job(validate_job(parse_job_text(job)))["tasks"][0]
    assert task["value"]["fraction"] == "0/1" and task["exact"] is True
    assert task["arg_sample"] == {"component": 0, "point": [0, 0]}
    assert task["bound_note"].startswith("exact 0: a sample certifies a_1 = 0")
    # F_5 x F_5: both components have the zero ideal, so every point is
    # regular and both values are 1; the note names that proof, not a bound
    job = ("p = 5\n[component]\nvars =\nideal =\n[component]\nvars =\nideal =\n"
           "[task global_hk]\nsamples = 0:() 1:()\ne_max = 2\n"
           "[task global_fsig]\nsamples = 0:() 1:()\ne_max = 2\n")
    for task in run_job(validate_job(parse_job_text(job)))["tasks"]:
        assert task["value"]["fraction"] == "1/1" and task["exact"] is True
        assert task["bound_note"].startswith("exact: every component attaining gamma "
                                             "has the zero ideal")


def test_a_global_sample_off_its_component_is_a_task_error(tmp_path, capsys):
    # (3) is no point of F_5[x]/(x), a component below gamma: both global
    # tasks build its local ring and fail, rather than leave it out
    path = _write(tmp_path, "p = 5\n[component]\nvars = x y\nideal = x\n"
                            "[component]\nvars = x\nideal = x\n"
                            "[task global_hk]\nsamples = 0:(0,1) 1:(3)\n"
                            "[task global_fsig]\nsamples = 0:(0,1) 1:(3)\n")
    assert main(["run", str(path)]) == 2
    capsys.readouterr()
    for task in json.loads((tmp_path / "job.report.json").read_text())["tasks"]:
        assert task["status"] == "error"
        assert task["error"] == "ValueError: generator x does not vanish at (3,)"


def test_semicontinuity_off_a_graded_origin_names_the_missing_order(tmp_path, capsys):
    # lambda_1 of the F_7 quadric is 49 at a smooth point and 73 at the
    # vertex; two closed points are incomparable, so the failure is the
    # entry's, not the engine's
    path = _write(tmp_path, "p = 7\n[component]\nvars = x y z\nideal = x*y - z^2\n"
                            "[task semicontinuity]\nspecial = 0:(1,1,1)\nnearby = 0:(0,0,0)\n"
                            "e = 1\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "no theorem orders (1, 1, 1) against (0, 0, 0)" in err
    assert "engine bug" not in err
    task = json.loads((tmp_path / "job.report.json").read_text())["tasks"][0]
    assert [r["lambda"] for r in task["rows"]] == [49, 73]
    assert "engine bug" not in task["error"]


def test_classify_threshold_is_strict():
    # the F_3 node at the origin: e_HK = 2 = 1 + max{1/1!, 1/e(R)} sits on
    # the threshold, and s = 0; the node is not a domain, so not SFR
    job = "p = 3\n[component]\nvars = x y\nideal = x*y\n[task classify]\ne_max = 2\n"
    flags = run_job(validate_job(parse_job_text(job)))["tasks"][0]["flags"]
    assert flags["hk"]["value"]["fraction"] == "2/1"
    assert flags["threshold"] == "2"
    assert flags["fsig"]["value"]["fraction"] == "0/1"
    assert flags["predicted_sfr_gorenstein"] is False


UNIT_PAIR_JOB = """\
p = 5
[component]
vars = x y z
ideal = x*y - z^2
[task pair]
a = x + 1; y
t_grid = 40
e_max = 2
[task fsig]
e_max = 2
"""


def test_a_pair_with_a_unit_generator_is_the_plain_splitting_number(monkeypatch):
    # x + 1 is a unit at the origin, so a^N R_m = R_m: building a^N with
    # N = ceil(40 (q - 1)) = 960 at e = 2 took seconds, all of it outside the budget
    import charp.finv

    def fail(*args):
        raise AssertionError("ideal_power called")

    monkeypatch.setattr(charp.finv, "ideal_power", fail)
    pair, fsig = run_job(validate_job(parse_job_text(UNIT_PAIR_JOB)))["tasks"]
    assert pair["status"] == fsig["status"] == "ok"
    assert [row["a_e"] for row in pair["rows"]] == [row["a_e"] for row in fsig["rows"]] == [13, 313]
    assert pair["pair"][0]["s_e"] == [row["s_e"] for row in fsig["rows"]]
    assert pair["budget"] == fsig["budget"]


TWISTED_CUBIC_PAIR_JOB = """\
p = 3
[component]
vars = x y z w
ideal = x*z - y^2; y*w - z^2; x*w - y*z
[task fsig]
e_max = 3
[task pair]
a = x; w
t_grid = 0 1/3
e_max = 3
"""


def test_a_pair_at_t_0_reads_the_cached_splitting_numbers(monkeypatch):
    # the pair at t = 0 reads fsig's a_e; recomputing them cost 3 Buchberger runs
    runs = []

    def counted(*args, _fn=charp.ideal._buchberger):
        runs.append(1)
        return _fn(*args)

    monkeypatch.setattr(charp.ideal, "_buchberger", counted)
    reports = []
    for grid in ("0 1/3", "1/3"):
        runs.clear()
        job = TWISTED_CUBIC_PAIR_JOB.replace("0 1/3", grid)
        reports.append((run_job(validate_job(parse_job_text(job))), len(runs)))
    (report, n_runs), (without_t0, n_runs_without_t0) = reports
    assert n_runs == n_runs_without_t0
    fsig, pair = report["tasks"]
    assert [row["a_e"] for row in pair["rows"]] == [row["a_e"] for row in fsig["rows"]] + [0, 9, 108]
    caps = {"max_basis": 2000, "max_pairs": 200_000, "max_box": 1_000_000}
    assert fsig["budget"] == caps | {"used_basis": 19, "used_pairs": 176, "used_box": 531441}
    assert pair["budget"] == caps | {"used_basis": 20, "used_pairs": 230, "used_box": 531441}


@pytest.mark.parametrize("order, n_jobs", [
    ("as written", 1), ("reversed", 1), ("shuffled", 1), ("as written", 2), ("shuffled", 2),
])
def test_split_colon_builds_each_multiplier_once(tmp_path, monkeypatch, order, n_jobs):
    # the twisted cubic's (I^[q] : I) for q = 3, 9, 27 and the CI walk's one
    # colon; each task recomputing its own made 7 colons and 31 intersections.
    # Each cubic colon eliminates for its first two generators and skips the
    # third, whose products with the colon so far lie in I^[q]: 2 * 3 + 1
    import random

    import charp.finv

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    w = workloads.build("split_colon", 1)
    if order == "reversed":
        w.tasks.reverse()
    elif order == "shuffled":
        random.Random(7).shuffle(w.tasks)
    log = tmp_path / "calls.log"  # appended to by every process, pool workers included
    for module, name in ((charp.finv, "colon"), (charp.ideal, "intersect")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(_name + "\n")
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    job = validate_job(parse_job_text(w.job_text()), {"jobs": str(n_jobs)})
    assert run_job(job)["status"] == "ok"
    calls = log.read_text(encoding="utf-8").split()
    assert (calls.count("colon"), calls.count("intersect")) == (4, 7)


@pytest.mark.parametrize("name", ["hk_tower", "split_colon", "point_sweep"])
def test_each_benchmark_workload_forms_several_task_groups(monkeypatch, name):
    # perfbench/run.py checks that a --jobs 2 run repeats the counters of
    # --jobs 1; a workload whose tasks formed one group would run in-process
    # there, and that check would compare two in-process runs
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    job = validate_job(parse_job_text(workloads.build(name, 1).job_text()))
    assert len(charp.jobs._groups(job)) >= 2


def test_unit_ideal_component_exits_1(tmp_path, capsys):
    path = _write(tmp_path, "p = 5\n[component]\nvars = x\nideal = x\n"
                            "[component]\nvars = x\nideal = x; x + 1\n[task fedder]\n")
    assert main(["run", str(path)]) == 1
    assert ("charp: job parse error: component 1: its ideal is the unit ideal"
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("*.report.*"))


def test_cli_import_leaves_the_process_pool_out():
    res = subprocess.run(
        [sys.executable, "-c", "import sys, charp.cli; "
         "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# -- determinism ---------------------------------------------------------------

def test_tsv_byte_identical():
    job = validate_job(parse_job_text(QUADRIC_JOB))
    a = report_to_tsv(run_job(job))
    b = report_to_tsv(run_job(validate_job(parse_job_text(QUADRIC_JOB))))
    assert a == b
    assert a.startswith("task\tcomponent\tpoint\te\tq\tlambda\tnorm\ta_e\ts_e")


def test_json_identical_modulo_wall_time():
    job = validate_job(parse_job_text(QUADRIC_JOB))
    r1 = run_job(job)
    r2 = run_job(validate_job(parse_job_text(QUADRIC_JOB)))
    r1.pop("wall_time_s")
    r2.pop("wall_time_s")
    assert report_to_json(r1) == report_to_json(r2)


# -- CLI ---------------------------------------------------------------------

def _cli(args, env=None):
    """Run the CLI in a child process that imports charp from this checkout."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "charp.cli", *args],
                          capture_output=True, text=True, env=env)


def test_cli_run_writes_reports(tmp_path):
    path = _write(tmp_path, QUADRIC_JOB, "quadric.charp")
    res = _cli(["run", str(path)])
    assert res.returncode == 0, res.stderr
    tsv = (tmp_path / "quadric.report.tsv").read_text()
    assert "3601" in tsv
    data = json.loads((tmp_path / "quadric.report.json").read_text())
    assert data["status"] == "ok"
    assert "wall_time_s" in data


def test_cli_composite_p_exits_1(tmp_path):
    path = _write(tmp_path, "p = 9\n[component]\nvars = x\nideal =\n")
    res = _cli(["run", str(path)])
    assert res.returncode == 1
    assert "NotPrime" in res.stderr or "not prime" in res.stderr


def test_cli_large_prime_rejected_at_once(tmp_path, capsys):
    # 2^61 - 1 is prime but out of range; trial division of it never ends
    path = _write(tmp_path, f"p = {2**61 - 1}\n[component]\nvars = x\nideal =\n")
    t0 = time.perf_counter()
    assert main(["run", str(path)]) == 1
    assert time.perf_counter() - t0 < 0.5
    assert "outside the supported range" in capsys.readouterr().err


def test_huge_exponent_is_a_task_error(tmp_path, capsys):
    # p^e is never formed past the bound: 5^(10^9) has 2.3 * 10^9 bits
    for e in (100000, 10**9):
        path = _write(tmp_path, "p = 5\n[component]\nvars = x\nideal =\n"
                                f"[task nu]\npoint = 0\na = x\ne = {e}\n"
                                f"[task semicontinuity]\nspecial = 0:(0)\nnearby = 0:(1)\ne = {e}\n")
        t0 = time.perf_counter()
        assert main(["run", str(path)]) == 2
        assert time.perf_counter() - t0 < 1
        saved = json.loads((tmp_path / "job.report.json").read_text())
        assert [t["error"].split(":")[0] for t in saved["tasks"]] == ["ExponentOverflowError"] * 2


def test_huge_pair_power_hits_the_box_budget_quickly(tmp_path):
    # a^ceil(t(q-1)) by repeated squaring: the box budget stops e = 10 at once
    path = _write(tmp_path, "p = 5\n[component]\nvars = x\nideal =\n[task pair]\n"
                            "point = 0\na = x\nt_grid = 1/2\ne_max = 100000\n")
    t0 = time.perf_counter()
    assert main(["run", str(path)]) == 2
    assert time.perf_counter() - t0 < 2
    saved = json.loads((tmp_path / "job.report.json").read_text())
    assert saved["tasks"][0]["error"].startswith("ResourceBudgetError: ")


def test_a_huge_translation_hits_the_box_budget_before_it_runs(tmp_path):
    # x^1500*y^1500 at (1, 1) expands into 1501^2 terms; that bound is
    # charged before the generator is translated
    path = _write(tmp_path, "p = 10007\n[component]\nvars = x y\n"
                            "ideal = x^1500*y^1500 - 1; x*y - 1\n[task hk]\npoint = 1 1\n")
    t0 = time.perf_counter()
    assert main(["run", str(path)]) == 2
    assert time.perf_counter() - t0 < 2
    saved = json.loads((tmp_path / "job.report.json").read_text())
    assert saved["tasks"][0]["error"] == (
        "ResourceBudgetError: resource budget exceeded: "
        "standard monomial box used 2253002 > limit 1000000")


@pytest.mark.parametrize("k", [600, 10**9])
def test_many_extra_vars_hit_the_box_budget_at_once(tmp_path, k):
    # every box over the extension holds at least 3^k monomials; that bound is
    # charged before the extended ring is built, one factor 3 at a time
    path = _write(tmp_path, "p = 3\n[component]\nvars = x y\nideal = x*y\n[task flat_check]\n"
                            f"point = 0 0\nextra_vars = {k}\ne_max = 1\n")
    t0 = time.perf_counter()
    assert main(["run", str(path)]) == 2
    assert time.perf_counter() - t0 < 2
    saved = json.loads((tmp_path / "job.report.json").read_text())
    assert saved["tasks"][0]["error"] == (
        "ResourceBudgetError: resource budget exceeded: "
        "standard monomial box used 1594323 > limit 1000000")


TWISTED_CUBIC_FEDDER = """\
p = 3
budget_pairs = {pairs}
[component]
vars = x y z w
ideal = x*z - y^2; y*w - z^2; x*w - y*z
[task fedder]
"""


@pytest.mark.parametrize("pairs, code", [(50, 2), (51, 0)])
def test_the_task_budget_covers_the_local_standard_basis(tmp_path, pairs, code):
    # the twisted cubic is not a complete intersection, so its local ring is
    # built from a standard basis at the point: 2 of the 51 pairs the task
    # pops, and the component's own basis pops 2 more
    path = _write(tmp_path, TWISTED_CUBIC_FEDDER.format(pairs=pairs))
    assert main(["run", str(path)]) == code
    entry = json.loads((tmp_path / "job.report.json").read_text())["tasks"][0]
    if code:
        assert entry["error"].startswith("ResourceBudgetError: ")
    else:
        assert entry["f_pure"] is True
        assert entry["budget"]["used_pairs"] == 51


@pytest.mark.parametrize("pairs, code", [(14, 2), (15, 0)])
def test_the_task_budget_covers_the_component_bases(tmp_path, pairs, code):
    # a task builds only the component it reads: the hk task's ring is (x),
    # whose bases pop no pair, and the fedder task's basis pops 15
    path = _write(tmp_path, f"p = 3\nbudget_pairs = {pairs}\n[component]\nvars = x y\n"
                            "ideal = x\n[component]\nvars = x y z w\nideal = "
                            "x^2*y - z^3 + w; x*y^2 - w^2 + z; x*z*w - y^3 + 1\n"
                            "[task hk]\ncomponent = 0\npoint = 0 0\ne_max = 2\n"
                            "[task fedder]\ncomponent = 1\npoint = 0 1 0 0\n")
    assert main(["run", str(path)]) == code
    hk, fedder = json.loads((tmp_path / "job.report.json").read_text())["tasks"]
    assert hk["status"] == "ok" and hk["budget"]["used_pairs"] == 0
    if code:
        assert fedder["error"] == ("ResourceBudgetError: resource budget exceeded: "
                                   "pair count used 15 > limit 14")
    else:
        assert fedder["budget"]["used_pairs"] == 15


def test_classify_counts_the_basis_its_dimension_comes_from():
    # (0,0,1) lies on the line of (xz, yz), where the ring is regular: d = 1
    # comes from the standard basis at the point, which also gives e(R), and
    # the component's basis, one pair each; lambda_e and a_e cost nothing
    job = validate_job(parse_job_text("p = 5\n[component]\nvars = x y z\nideal = x*z; y*z\n"
                                      "[task classify]\npoint = 0 0 1\n"))
    assert run_job(job)["tasks"][0]["budget"]["used_pairs"] == 2


# a malformed component is a parse error naming it, found when the job is
# validated: exit 1, no report
@pytest.mark.parametrize("component, message", [
    pytest.param("vars = x y z\nideal = x*z y*z\n", "component 1: unexpected 'y'",
                 id="ideal without ';'"),
    pytest.param("vars = x y\nideal = x*w\n", "component 1: unknown variable 'w'",
                 id="unknown variable"),
    pytest.param("vars = x x\nideal = x\n", "component 1: duplicate variable names",
                 id="duplicate variable"),
    # the engine adjoins variables named #t, #t1, ..., which no name can clash with
    pytest.param("vars = #t y z w\nideal = y*w - z^2\n",
                 "component 1: variable name '#t' is not an identifier", id="engine name"),
    pytest.param("vars = x 2y\nideal = x\n",
                 "component 1: variable name '2y' is not an identifier", id="leading digit"),
    # minimal primes are no longer declared: the key is unknown
    pytest.param("vars = x y\nideal = x*y\nmin_primes = x | y\n",
                 "line 8: unknown key 'min_primes'", id="bad min_primes"),
])
def test_malformed_component_exits_1(tmp_path, capsys, monkeypatch, component, message):
    good = "p = 5\n[component]\nvars = x\nideal = x\n[component]\n"
    task = "[task fedder]\ncomponent = 1\n"
    # validation parses the components but builds no Groebner basis
    monkeypatch.setattr(charp.ideal, "_buchberger", None)
    validate_job(parse_job_text(good + "vars = x y\nideal = x*y\n" + task))
    monkeypatch.undo()
    path = _write(tmp_path, good + component + task)
    assert main(["run", str(path)]) == 1
    assert f"charp: job parse error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.report.*"))


@pytest.mark.parametrize("name", ["#t1", "x y", "", "(x)"])
def test_a_json_variable_name_must_be_an_identifier(name):
    with pytest.raises(ParseError, match=re.escape(
            f"component 0: variable name '{name}' is not an identifier")):
        validate_job({"p": 3, "components": [{"vars": ["x", name]}]})


def test_cli_parse_error_exits_1(tmp_path):
    path = _write(tmp_path, "p = 5\nnonsense\n")
    res = _cli(["run", str(path)])
    assert res.returncode == 1


def test_cli_task_error_exits_2(tmp_path):
    path = _write(tmp_path,
                  "p = 5\nbudget_monomials = 10\n"
                  "[component]\nvars = x y\nideal = x*y\n"
                  "[task hk]\npoint = 0 0\ne_max = 2\n")
    res = _cli(["run", str(path)])
    assert res.returncode == 2


@pytest.mark.parametrize("blocked", ["json", "tsv"])
def test_cli_unwritable_report_exits_1(tmp_path, capsys, blocked):
    # a directory where a report goes: one line naming it, no traceback
    path = _write(tmp_path, "p = 5\n[component]\nvars = x\nideal =\n"
                            "[task hk]\npoint = 0\ne_max = 2\n", "job.charp")
    (tmp_path / f"job.report.{blocked}").mkdir()
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"charp: cannot write {tmp_path / f'job.report.{blocked}'}: "
                                "Is a directory"]
    assert (tmp_path / "job.report.json").is_file() == (blocked == "tsv")


def test_cli_json_only(tmp_path):
    path = _write(tmp_path, QUADRIC_JOB, "q.charp")
    res = _cli(["run", str(path), "--json-only"])
    assert res.returncode == 0
    assert (tmp_path / "q.report.json").exists()
    assert not (tmp_path / "q.report.tsv").exists()


def test_cli_env_budget_cap(tmp_path):
    path = _write(tmp_path, QUADRIC_JOB, "q2.charp")
    env = dict(os.environ, CHARP_BUDGET_MONOMIALS="10")
    res = _cli(["run", str(path)], env=env)
    assert res.returncode == 2  # capped budget makes the hk task fail


# unchecked, a cap of 0 would fall back to the default and a negative one
# would fail every task
@pytest.mark.parametrize("key, value", [
    ("budget_monomials", 0), ("budget_pairs", -1), ("budget_basis", 0),
])
def test_budget_keys_below_1_are_parse_errors(tmp_path, capsys, key, value):
    text = QUADRIC_JOB.replace("p = 7\n", f"p = 7\n{key} = {value}\n")
    job_json = validate_job(parse_job_text(QUADRIC_JOB)) | {key: value}
    for path in (_write(tmp_path, text), _write(tmp_path, json.dumps(job_json), "job.json")):
        assert main(["run", str(path)]) == 1
        assert f"'{key}' must be an integer >= 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.report.*"))


@pytest.mark.parametrize("args, env", [
    (["--budget-monomials", "-5"], None),
    (["--budget-monomials", "0"], None),
    ([], "0"),
    ([], "-3"),
    ([], "ten"),
])
def test_cli_budget_below_1_exits_1(tmp_path, monkeypatch, capsys, args, env):
    if env is not None:
        monkeypatch.setenv("CHARP_BUDGET_MONOMIALS", env)
    path = _write(tmp_path, QUADRIC_JOB)
    assert main(["run", str(path)] + args) == 1
    assert "must be an integer >= 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.report.*"))


def _bad_task_key(kind, key, text, value):
    """A task's bad setting, once as a `key = text` line and once as a JSON value."""
    return [pytest.param(key, [], kind, f"{key} = {text}", None, id=f"{kind} {key} = {text}"),
            pytest.param(key, [], kind, None, value, id=f"json {kind} {key} {json.dumps(value)}")]


# every source of a setting goes through the key table: a bad value is exit 1
# with the table's message, and no report is written.  A job-level line
# follows the job's `p` line; a task-level one is a new task of `kind`.
@pytest.mark.parametrize("key, args, kind, line, json_value", [
    *[pytest.param("jobs", ["--jobs", v], None, None, None, id=f"--jobs {v}")
      for v in ("0", "-5", "x")],
    pytest.param("jobs", [], None, "jobs = 0", None, id="jobs = 0"),
    # unchecked, e_max = 0 gave no rows (and flat_check ok: true), e = 0 gave q = 1,
    # t = 1/0 a ZeroDivisionError inside the task, and an empty grid no rows
    *_bad_task_key("pair", "e_max", "0", 0),
    *_bad_task_key("flat_check", "e_max", "-1", -1),
    *_bad_task_key("semicontinuity", "e", "0", 0),
    *_bad_task_key("flat_check", "extra_vars", "0", 0),
    *_bad_task_key("flat_check", "t", "1/0", "1/0"),
    *_bad_task_key("flat_check", "t", "-1/2", "-1/2"),
    *_bad_task_key("pair", "t_grid", "0 1/0", ["0", "1/0"]),
    *_bad_task_key("pair", "t_grid", "1/2 x", ["1/2", "x"]),
    *_bad_task_key("pair", "t_grid", "", []),
    # unchecked, an empty sample was "upper semicontinuity holds" with nothing compared
    *_bad_task_key("semicontinuity", "nearby", "", []),
    # unchecked, no sample was an error inside global_hk and, with a component
    # below gamma, an exact 0 from global_fsig
    *_bad_task_key("global_hk", "samples", "", []),
    *_bad_task_key("global_fsig", "samples", "", []),
])
def test_bad_settings_exit_1_from_every_source(tmp_path, capsys, key, args, kind, line,
                                               json_value):
    if json_value is None:
        text = QUADRIC_JOB
        if kind is not None:
            text += f"\n[task {kind}]\n{line}\n"
        elif line is not None:
            text = text.replace("p = 7\n", f"p = 7\n{line}\n")
        path = _write(tmp_path, text)
    else:
        job = validate_job(parse_job_text(QUADRIC_JOB))
        if kind is None:
            job[key] = json_value
        else:
            job["tasks"].append({"kind": kind, key: json_value})
        path = _write(tmp_path, json.dumps(job), "job.json")
    assert main(["run", str(path)] + args) == 1
    assert f"'{key}' must be {_KEY_TYPES[key].expected}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.report.*"))


# an estimate extrapolates from e_max >= 2 exponents: a smaller e_max is a
# parse error naming the task (exit 1, no report), not a ValueError inside it
@pytest.mark.parametrize("kind", ["hk", "fsig", "classify", "global_hk", "global_fsig"])
@pytest.mark.parametrize("encoding", ["text", "json"])
def test_estimate_with_e_max_1_exits_1(tmp_path, capsys, kind, encoding):
    keys = {"samples": [{"component": 0, "point": [0, 0, 0]}]} if "global" in kind else {}
    if encoding == "text":
        extra = "samples = 0:(0,0,0)\n" if keys else ""
        path = _write(tmp_path, QUADRIC_JOB + f"\n[task {kind}]\n{extra}e_max = 1\n")
    else:
        job = validate_job(parse_job_text(QUADRIC_JOB))
        job["tasks"].append({"kind": kind, "e_max": 1, **keys})
        path = _write(tmp_path, json.dumps(job), "job.json")
    assert main(["run", str(path)]) == 1
    assert f"task 2 ({kind}): 'e_max' must be an integer >= 2" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.report.*"))


def test_pair_and_flat_check_keep_e_max_1():
    job = validate_job(parse_job_text(
        QUADRIC_JOB + "\n[task pair]\na = x\ne_max = 1\n[task flat_check]\ne_max = 1\n"))
    assert [t["e_max"] for t in job["tasks"][2:]] == [1, 1]


def test_settings_precedence_flag_key_default():
    text = QUADRIC_JOB.replace("p = 7\n", "p = 7\njobs = 2\n")
    job = validate_job(parse_job_text(QUADRIC_JOB))
    assert job["jobs"] == _KEY_TYPES["jobs"].default
    job = validate_job(parse_job_text(text), {"jobs": None, "budget_monomials": None}, "50")
    assert job["jobs"] == 2
    assert job["budget_monomials"] == 50  # the variable caps the default
    job = validate_job(parse_job_text(text), {"jobs": "3", "budget_monomials": "40"}, "50")
    assert (job["jobs"], job["budget_monomials"]) == (3, 40)
    job = validate_job(parse_job_text(text), {"budget_monomials": "60"}, "50")
    assert job["budget_monomials"] == 50  # the variable caps a flag too


# the keys each kind needs besides the one under test
_REQUIRED_LINES = {"hk": "", "global_fsig": "samples = 0:(0,0,0)\n", "pair": "a = x\n"}


# the convergence threshold is a constant and a pair's exponents are its
# t_grid: a `tolerance` or a pair's `t` is an unknown key, named (exit 1)
@pytest.mark.parametrize("kind, key, text, value", [
    (None, "tolerance", "0.01", 0.01),
    ("hk", "tolerance", "0.01", 0.01),
    ("global_fsig", "tolerance", "0.5", 0.5),
    ("pair", "t", "1", "1"),
])
@pytest.mark.parametrize("encoding", ["text", "json"])
def test_removed_keys_are_parse_errors(tmp_path, capsys, kind, key, text, value, encoding):
    base = QUADRIC_JOB if kind is None else \
        QUADRIC_JOB + f"\n[task {kind}]\n{_REQUIRED_LINES[kind]}"
    if encoding == "text":
        line = f"{key} = {text}\n"
        path = _write(tmp_path, base.replace("p = 7\n", "p = 7\n" + line)
                      if kind is None else base + line)
    else:
        job = validate_job(parse_job_text(base))
        (job if kind is None else job["tasks"][-1])[key] = value
        path = _write(tmp_path, json.dumps(job), "job.json")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"unknown key '{key}'" in err or f"unknown keys ['{key}']" in err
    assert not list(tmp_path.glob("*.report.*"))


def test_tolerance_flag_is_a_usage_error(tmp_path):
    res = _cli(["run", str(_write(tmp_path, QUADRIC_JOB)), "--tolerance", "0.5"])
    assert res.returncode == 1
    assert "unrecognized arguments: --tolerance" in res.stderr


@pytest.mark.parametrize("args, code", [
    (["run"], 1),
    (["run", "job.charp", "--no-such-flag"], 1),
    ([], 1),
    (["--help"], 0),
    (["run", "--help"], 0),
])
def test_usage_errors_exit_1(args, code):
    res = _cli(args)
    assert res.returncode == code, res.stderr
    assert ("usage:" in res.stderr) == (code == 1)


# a fragment of each kind's current explanation
EXPLAIN_FRAGMENTS = {
    "hk": "Kunz",
    "fsig": "F-signature",
    "fedder": "m^[p]",
    "pair": "Blickle-Schwede-Tucker",
    "nu": "F-pure threshold",
    "global_hk": "lower bound",
    "global_fsig": "upper bound",
    "semicontinuity": "Kunz, Amer. J. Math. 98 (1976)",
    "flat_check": "flat extension",
    "classify": "F-pure and e_HK < 1 + max{1/d!, 1/e(R)}",
}


def test_cli_explain(capsys):
    res = _cli(["explain", "fedder"])
    assert res.returncode == 0
    assert "m^[p]" in res.stdout
    assert set(EXPLAIN_FRAGMENTS) == set(TASKS)
    for kind, fragment in EXPLAIN_FRAGMENTS.items():
        assert main(["explain", kind]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{kind}:\n") and fragment in out, kind


def test_task_kinds_agree_across_readme_cli_and_registry(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    grammar = readme[readme.index("KIND       :="):]
    grammar = grammar[:grammar.index("```")]
    readme_kinds = re.findall(r"'(\w+)'", grammar)
    with pytest.raises(SystemExit):
        main(["explain", "no_such_kind"])
    choices = re.findall(r"\w+", capsys.readouterr().err.split("choose from")[1])
    assert sorted(readme_kinds) == sorted(choices) == sorted(TASKS)
    assert len(readme_kinds) == len(set(readme_kinds))


def test_readme_key_table_defaults_match_key_types():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| key | where | value | default |"):]
    table = table[:table.index("\n\n")].splitlines()[2:]
    defaults = {}
    for line in table:
        key, _, _, default = (cell.strip() for cell in line.strip(" |").split(" | "))
        defaults[key.strip("`")] = re.fullmatch(r"`([^`]*)`", default)
    assert sorted(defaults) == sorted(_KEY_TYPES)
    for key, literal in defaults.items():
        kt = _KEY_TYPES[key]
        assert (None if literal is None else kt.from_text(literal[1])) == kt.default, key


def test_demo_jobs_run_clean(tmp_path):
    """The committed demo reports are the oracle: a rerun gives the same TSV,
    and the same JSON but for wall_time_s, so every budget counter (and with
    it the Buchberger pair order) is pinned too."""
    import shutil

    demo = ROOT / "demo"
    for name in ("quadric", "product"):
        src = demo / f"{name}.charp"
        if not src.exists():
            pytest.skip("demo jobs not present")
        path = tmp_path / f"{name}.charp"
        shutil.copy(src, path)
        res = _cli(["run", str(path)])
        assert res.returncode == 0, res.stderr
        assert ((tmp_path / f"{name}.report.tsv").read_bytes()
                == (demo / f"{name}.report.tsv").read_bytes()), name
        got, want = (json.loads((d / f"{name}.report.json").read_text(encoding="utf-8"))
                     for d in (tmp_path, demo))
        got.pop("wall_time_s")
        want.pop("wall_time_s")
        assert got == want, name


def test_cli_run_byte_identical(tmp_path):
    p1 = _write(tmp_path, QUADRIC_JOB, "r1.charp")
    p2 = _write(tmp_path, QUADRIC_JOB, "r2.charp")
    assert _cli(["run", str(p1)]).returncode == 0
    assert _cli(["run", str(p2)]).returncode == 0
    t1 = (tmp_path / "r1.report.tsv").read_bytes()
    t2 = (tmp_path / "r2.report.tsv").read_bytes()
    assert t1 == t2
