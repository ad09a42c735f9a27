"""Lint of the library sources: imports sit at module level and are used by
their module, and every parameter of a def is read by its body."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "torusspec"


def _unused_imports(tree: ast.Module) -> list:
    imported = set()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))   # re-exports
    return sorted(imported - used)


def test_no_unused_top_level_imports():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
            if names:
                unused[path.name] = names
    assert unused == {}


def _unread_parameters(tree: ast.Module) -> list:
    """name(param) for each parameter of a def that its body never reads.

    Lambdas are not scanned: a callback's signature is fixed by its caller.
    """
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        unread += [f"{node.name}({p})" for p in params
                   if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return unread


def test_no_unused_parameters():
    unread = {}
    for path in sorted(SRC.glob("*.py")):
        names = _unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unread[path.name] = names
    assert unread == {}


def _local_imports(tree: ast.Module) -> list:
    """name:line of each import statement inside a def."""
    return [f"{node.name}:{inner.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
            if isinstance(inner, (ast.Import, ast.ImportFrom))]


def test_no_function_local_imports():
    local = {}
    for path in sorted(SRC.glob("*.py")):
        names = _local_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            local[path.name] = names
    assert local == {}
