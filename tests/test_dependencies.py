"""numpy and scipy stay the only runtime dependencies of qroute."""
import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qroute"
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
