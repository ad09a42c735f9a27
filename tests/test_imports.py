"""Lint of the library sources: imports sit at module level and are used by
their module, every parameter of a def is read by its body, every private
module-level name is read by some module of the package, and every exported
name is read by the package, an acceptance criterion or a bench workload."""

import ast
import inspect
from pathlib import Path

import torusspec

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "torusspec"


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


def _private_definitions(tree: ast.Module) -> set:
    """Module-level private names (one leading underscore) that tree binds."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _names_read(tree: ast.Module) -> set:
    """Names tree loads, reads as attributes or imports from another module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def test_no_unread_private_module_names():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    read = set().union(*(_names_read(tree) for tree in trees.values()))
    unread = {name: sorted(_private_definitions(tree) - read)
              for name, tree in trees.items()}
    assert {name: names for name, names in unread.items() if names} == {}


def _reads_outside_own_definition(tree: ast.Module) -> set:
    """Names tree loads or reads as attributes, leaving out what a
    module-level def or class reads of its own name."""
    read = set()
    for node in tree.body:
        names = {n.id for n in ast.walk(node)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        read |= names - {getattr(node, "name", None)}
    return read


def test_every_exported_name_is_read():
    # a name that only its own unit tests reach is API nothing uses
    paths = [*sorted(SRC.glob("*.py")), ROOT / "tests" / "test_acceptance.py",
             ROOT / "bench" / "workloads.py"]
    read = set()
    for path in paths:
        read |= _reads_outside_own_definition(ast.parse(path.read_text(encoding="utf-8")))
    exported = {name for name in torusspec.__all__
                if not inspect.ismodule(getattr(torusspec, name))}
    assert sorted(exported - read) == []


def _public_members(tree: ast.Module) -> set:
    """Class.name of each public method or property of the module's classes."""
    return {f"{cls.name}.{node.name}"
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


def _attributes_read_outside_own_def(tree: ast.Module) -> set:
    """Attribute names tree reads, leaving out what a def reads of its own name."""
    read = set()

    def visit(node, own):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr not in own:
                read.add(child.attr)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, own | {child.name})
            else:
                visit(child, own)

    visit(tree, frozenset())
    return read


def test_every_public_member_is_read():
    # a method or property that only its own unit tests reach is API nothing uses
    paths = [*sorted(SRC.glob("*.py")), ROOT / "tests" / "test_acceptance.py",
             ROOT / "bench" / "workloads.py"]
    members, read = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent == SRC:
            members |= _public_members(tree)
        read |= _attributes_read_outside_own_def(tree)
    assert sorted(m for m in members if m.split(".")[1] not in read) == []
