"""Every top-level import of a library module is used by that module."""

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
