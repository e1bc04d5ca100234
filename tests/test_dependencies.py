"""numpy and scipy stay the only runtime dependencies of qroute, and no import,
private name or test oracle is left unread.

The modules perfbench times at set-up load nothing of the routing pipeline.
Of scipy they load only the ``scipy.optimize._lsap`` extension, which holds
the assignment solver; the rest of ``scipy.optimize`` is imported only when
scipy's layout has no such extension, and ``scipy.sparse.csgraph`` only when
a generic graph is built.  These tests run fresh interpreters, since the
test process itself has all of scipy loaded.
"""
import ast
import os
import pathlib
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qroute"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "qroute"}


def imported_packages(tree):
    """Top-level package of every absolute import in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_imports_are_stdlib_numpy_scipy():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 1
    found = {(str(p.relative_to(SRC)), name) for p in modules
             for name in imported_packages(ast.parse(p.read_text(encoding="utf-8")))}
    assert {name for _, name in found} & {"numpy", "scipy"}
    assert sorted(f for f in found if f[1] not in ALLOWED) == []


def unused_imports(tree):
    """Names a module's imports bind that no other line of it reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({alias.asname or alias.name.partition(".")[0]: node.lineno
                          for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({alias.asname or alias.name: node.lineno for alias in node.names})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_every_import_is_used():
    found = {str(p.relative_to(SRC)): unused_imports(ast.parse(p.read_text(encoding="utf-8")))
             for p in sorted(SRC.rglob("*.py"))}
    assert {path: names for path, names in found.items() if names} == {}


def definitions(node):
    """Names a module-level statement binds: a def's or class's name, or an
    assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def private_definitions(tree):
    """Module-level names a module binds that start with one underscore."""
    return {name for node in tree.body for name in definitions(node)
            if name.startswith("_") and not name.startswith("__")}


def test_every_private_name_is_used():
    trees = {str(p.relative_to(SRC)): ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.rglob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = sorted((path, name) for path, tree in trees.items()
                     for name in private_definitions(tree))
    assert len(defined) > 1
    assert [d for d in defined if d[1] not in read] == []


# An oracle no test reads checks nothing; a read inside the oracle's own
# definition, such as a recursive call, does not count.
def test_every_oracle_is_used():
    oracles = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    defined = {name for node in oracles.body for name in definitions(node)}
    read = set()
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = definitions(node) if path.name == "oracles.py" else set()
            read.update(n.id for n in ast.walk(node)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                        and n.id not in own)
    assert len(defined) > 1
    assert sorted(defined - read) == []


def run_python(script):
    """The stdout of ``script`` run in a fresh interpreter that imports qroute from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


# perfbench's set-up span times this import, so the routing pipeline, which
# it does not call, must stay out of it; the package's __init__ stays empty.
# Set-up and compiles build closed-form graphs, take their slots and solve
# placements, none of which needs scipy.sparse or more of scipy.optimize than
# the assignment extension.
def test_setup_import_leaves_the_pipeline_unloaded():
    assert (SRC / "__init__.py").read_text(encoding="utf-8") == ""
    script = ("import sys\n"
              "import numpy as np\n"
              "from qroute import circuit, graphs, matching, perm, qasm\n"
              "for spec in ('grid:32x32', 'modular:16x16', 'path:8', 'complete:8'):\n"
              "    assert matching.maximal_matching(graphs.build_architecture(spec))\n"
              "cost = np.array([[3, 1, 2], [1, 3, 2]], dtype=np.int16)\n"
              "assert matching.min_weight_perfect_matching(cost) == [(0, 1), (1, 0)]\n"
              "print(sorted(m for m in sys.modules if m.startswith(('qroute', 'scipy.'))))")
    loaded = set(ast.literal_eval(run_python(script)))
    assert "qroute.matching" in loaded
    assert loaded & {"qroute.transform", "qroute.placement", "qroute.verify",
                     "qroute.permuters"} == set()
    assert {m for m in loaded if m.startswith(("scipy.optimize", "scipy.sparse"))} == {
        "scipy.optimize._lsap"}


# Whichever of qroute and scipy.optimize is imported first, sys.modules keeps
# the one extension module the first import entered, and both name its solver.
@pytest.mark.parametrize("first", ["qroute.matching", "scipy.optimize"])
def test_one_solver_in_either_import_order(first):
    script = (f"import sys, {first}\n"
              "lsap = sys.modules['scipy.optimize._lsap']\n"
              "import qroute.matching, scipy.optimize\n"
              "print(qroute.matching.linear_sum_assignment is scipy.optimize.linear_sum_assignment,"
              " sys.modules['scipy.optimize._lsap'] is lsap)")
    assert run_python(script) == "True True\n"


# A scipy whose optimize directory holds no _lsap extension, or only a Python
# module of that name, gives the solver through the public import, and the
# stand-in module is never run.
@pytest.mark.parametrize("files", [{}, {"_lsap.py": "raise AssertionError('stand-in ran')\n"}],
                         ids=["no _lsap", "_lsap.py"])
def test_solver_falls_back_to_the_public_import(tmp_path, files):
    from scipy.optimize import linear_sum_assignment

    from qroute import matching
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert matching._load_solver([str(tmp_path)]) is linear_sum_assignment


# The verifier checks what the router emits, so it must not share the
# router's code: it may read circuits, graphs and the perm readers only.
def test_verifier_imports_nothing_of_the_router():
    parts = set()  # every dotted part of every module and name imported
    for node in ast.walk(ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            parts.update(p for alias in node.names for p in alias.name.split("."))
    assert parts & {"transform", "placement", "permuters", "matching"} == set()
    assert {"circuit", "graphs", "perm"} <= parts
