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
