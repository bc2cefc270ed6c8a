"""Properties of the package as a whole."""

import ast
import importlib
import inspect
import pathlib
import sys

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
