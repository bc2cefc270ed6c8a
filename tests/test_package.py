"""Properties of the package as a whole."""

import ast
import contextlib
import importlib
import io
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "charp"


def test_package_imports_only_the_standard_library():
    # numpy and hypothesis are test-only; the package itself needs nothing
    # beyond the interpreter, so every absolute import is a stdlib module
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_start_up_loads_neither_dataclasses_nor_inspect():
    # every record is a typing.NamedTuple: importing dataclasses also loads
    # inspect, and each short `charp run` process would pay for both
    importers = [path.name for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Import) and "dataclasses" in [a.name for a in node.names]
                 or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert importers == []
    code = "import sys, charp.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_budget_is_built_in_two_places_and_passed_to_no_function():
    # the engine charges the active budget (`with budget:`); a `budget`
    # parameter or a Budget() built on the side would let work escape the
    # task's caps and counters
    params, builds = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                         if x is not None]
                if "budget" in names:
                    params.append(f"{path.stem}.{getattr(node, 'name', '<lambda>')}")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Budget":
                owner = parent[node]
                while not isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                    owner = parent[owner]
                builds.append(f"{path.stem}.{getattr(owner, 'name', '<module>')}")
    assert params == []
    # jobs._budget gives a budget of the job's caps to each task and to the
    # building of each component, which every task that reads it pays for
    assert sorted(builds) == ["ideal.active_budget", "jobs._budget"]


def _owned_nodes():
    """(module.Class.function owning node, node) for every node of the package."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{owner}.{child.name}"
            yield inner, child
            yield from walk(child, inner)

    for path in sorted(SRC.glob("*.py")):
        yield from walk(ast.parse(path.read_text(encoding="utf-8")), path.stem)


def test_shared_work_is_charged_in_one_place():
    # a budget pays for a shared item once, the first time it reads it: only
    # ideal.Shared.get reads or adds to a budget's ledger of paid items, makes
    # Charges or charges them again, and no reader copies of a store remain
    ledger, charges, readers = set(), set(), []
    for owner, node in _owned_nodes():
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr == "charged":
                ledger.add(owner)
            elif node.attr in ("pairs", "basis", "box"):  # the fields of Charges
                charges.add(owner)
        elif isinstance(node, ast.Name) and node.id == "Charges" and isinstance(node.ctx, ast.Load):
            charges.add(owner)
        if getattr(node, "name", None) == "reader" or "reader" in (
                getattr(node, "attr", None), getattr(node, "id", None)):
            readers.append(owner)
    assert ledger == charges == {"ideal.Shared.get"}
    assert readers == []


def test_finv_forms_p_to_the_e_in_one_place():
    # finv._frobenius checks e and rejects a q past the exponent bound before
    # forming p^e; a power by e anywhere else in the package could build a
    # huge integer first, and every other module reads q from a record
    owners = {owner for owner, node in _owned_nodes()
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and any(getattr(n, "id", None) == "e" for n in ast.walk(node.right))}
    assert owners == {"finv._frobenius"}


def test_translation_and_membership_each_have_one_route():
    # Polynomial.shift is the one translation, and Ideal.contains the one
    # test of membership: only it asks whether a normal form is zero
    names, membership = [], []
    for owner, node in _owned_nodes():
        if "substitute_var" in (getattr(node, "attr", None), getattr(node, "id", None),
                                getattr(node, "name", None)):
            names.append(owner)
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "is_zero"
                and isinstance(node.func.value, ast.Call)
                and "normal_form" in (getattr(node.func.value.func, "id", None),
                                      getattr(node.func.value.func, "attr", None))):
            membership.append(owner)
    assert names == []
    assert membership == ["ideal.Ideal.contains"]


def test_one_monomial_representation():
    # below the public edge every monomial is a packed integer: exponent
    # tuples are made only by unpacking a polynomial's terms or leading
    # monomial, and no module past poly reads either
    import charp.poly

    assert [name for name in vars(charp.poly) if name.startswith("mono_")] == []
    unpacks, tuples = set(), []
    for owner, node in _owned_nodes():
        if isinstance(node, ast.Attribute) and node.attr == "unpack":
            unpacks.add(owner)
        elif isinstance(node, ast.Attribute) and node.attr in ("terms", "lm") \
                and not owner.startswith("poly."):
            tuples.append(f"{owner}: .{node.attr}")
    assert unpacks == {"poly.Polynomial.terms", "poly.Polynomial.lm"}
    assert tuples == []


def test_package_has_no_assert_statement():
    # `python -O` strips assert statements, so a check the engine relies on
    # raises an exception instead
    asserts = [owner for owner, node in _owned_nodes() if isinstance(node, ast.Assert)]
    assert asserts == []


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # perfbench/tracer.py wraps these names and reads the leading arguments
    # of two; a prune that drops or reorders one breaks the traced benchmark
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"])
    assert wrapped
    fns = {}
    for modname, attr, _ in wrapped:
        assert modname.split(".")[0] == "charp"
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{modname}.{attr}"
        fns[attr] = owner
    assert list(inspect.signature(fns["hk_function"]).parameters)[:2] == ["L", "e"]
    assert list(inspect.signature(fns["run_task"]).parameters)[:2] == ["job", "index"]
    # and the attributes it reads: an Ideal's cached basis (None until it is
    # computed) and generators, a local ring's ring, generators and point, a
    # ring's characteristic and names, and a polynomial's terms
    from charp.finv import LocalRingAtPoint
    from charp.gf import field_new
    from charp.ideal import Ideal
    from charp.poly import Polynomial, PolyRing

    R = PolyRing(field_new(5), ("x", "y"))
    f = R.parse("x*y")
    ideal = Ideal(R, [f])
    assert ideal._gb is None and ideal.gens == (f,)
    L = LocalRingAtPoint(ideal, (0, 0))
    assert ideal._gb == (f,)
    assert (L.ring, L.gens, L.point) == (R, (f,), (0, 0))
    assert (R.p, R.names) == (5, ("x", "y"))
    assert isinstance(Polynomial.terms, property) and f.terms == (((1, 1), 1),)


@pytest.mark.parametrize("name", ["hk_tower", "split_colon", "point_sweep"])
def test_the_benchmark_setup_code_runs(tmp_path, monkeypatch, name):
    # every benchmark run times perfbench/run.py's SETUP_CODE on its job; a
    # change to a name it calls would fail every run, so run it here
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    code = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CODE"])
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    job = tmp_path / "job.charp"
    job.write_text(workloads.build(name, 1).job_text(), encoding="utf-8")
    res = subprocess.run([sys.executable, "-c", code, str(job)], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr


def test_each_setting_has_one_source():
    # the convergence threshold is one constant, read where the label is
    # set, and a pair's exponents have one key, t_grid
    from charp.jobs import _KEY_TYPES, TASKS

    params, readers = [], set()
    for owner, node in _owned_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params += [f"{owner}({x.arg})" for x in a.posonlyargs + a.args + a.kwonlyargs
                       + [a.vararg, a.kwarg] if x is not None and x.arg in ("tol", "tolerance")]
        elif isinstance(node, ast.Name) and node.id == "CONVERGENCE_THRESHOLD" \
                and isinstance(node.ctx, ast.Load):
            readers.add(owner)
    assert params == []
    assert readers == {"finv._extrapolate"}
    assert "tolerance" not in _KEY_TYPES
    assert "t" not in TASKS["pair"].keys


def test_readme_library_use_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme[readme.index("## Library use"):]
    block = block[block.index("```python\n") + len("```python\n"):]
    block = block[:block.index("```")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == [
        "515/343", "171/343", "279 117649",
        "resource budget exceeded: standard monomial box used 117649 > limit 100000",
    ]


def test_every_module_level_import_is_read():
    # a name a module imports at module level is read in that module or
    # listed in its __all__, so a deletion leaves no import behind
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [alias.asname or alias.name.split(".")[0]
                    for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for elt in node.value.elts}
        unread += [f"{path.name}: {name}" for name in imported if name not in read | exported]
    assert unread == []
