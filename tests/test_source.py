"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import presort

PACKAGE = sorted(Path(presort.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert unused == [], f"{path.name}: imported but never used (line, name): {unused}"


def test_only_core_reads_columns():
    """core.py alone decides how a Sequence lays out its key and tag
    columns; every other module asks it through columns() and keys(),
    never reading ._keys or ._tags."""
    readers = []
    for path in PACKAGE:
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        readers += [
            (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("_keys", "_tags")
        ]
    assert readers == [], f"modules reading a Sequence's columns directly (module, line): {readers}"


def test_only_sorters_charges_meters():
    """Every charged key test lives in sorters.py: no other module adds to
    or otherwise updates a .comparisons or .moves attribute in place."""
    writers = []
    for path in PACKAGE:
        if path.name == "sorters.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        writers += [
            (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Attribute)
            and node.target.attr in ("comparisons", "moves")
        ]
    assert writers == [], f"modules charging a meter outside sorters.py (module, line): {writers}"


# List methods that change the list they are called on.
LIST_MUTATORS = {"sort", "insert", "append", "extend", "reverse", "pop", "remove", "clear"}


def test_sorters_never_write_to_a_parameter():
    """No function in sorters.py stores into a subscript of one of its own
    parameters or calls a LIST_MUTATORS method on one.

    partition_sort splits the very key list it hands a selector, so no
    selector, nor any kernel a selector calls, may reorder it."""
    path = Path(presort.__file__).parent / "sorters.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    writes = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg] if a}
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in LIST_MUTATORS:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in params:
                writes.append((fn.name, node.lineno))
    assert writes == [], f"sorters.py functions writing to a parameter (function, line): {writes}"


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_perfbench_imports_exist():
    """Every name the benchmark imports from presort is still exported.

    The benchmark module is parsed, not imported, so this holds without
    running its set-up."""
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "presort"
        for alias in node.names
    ]
    assert names, "perfbench/workloads.py no longer imports from presort"
    missing = [name for name in names if not hasattr(presort, name)]
    assert missing == [], f"perfbench/workloads.py imports names presort lacks: {missing}"


def _private_definitions(tree):
    """Module-level private names a module defines: defs, classes, assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def test_private_names_are_used():
    """Every module-level _name in the package is read somewhere in it, as a
    name, an attribute or an import; a private helper nothing calls is dead."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    defined = [
        (module, line, name)
        for module, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name.startswith("_") and not name.startswith("__")
    ]
    assert defined, "no private module-level names found; the scan is broken"
    dead = sorted(entry for entry in defined if entry[2] not in used)
    assert dead == [], f"private names defined but never used (module, line, name): {dead}"


def test_only_main_decides_exit_codes():
    """No cmd_* handler in cli.py returns a value: each raises to main,
    which maps the exception to the exit code."""
    path = Path(presort.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    handlers = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert handlers, "cli.py defines no cmd_* handlers"
    returns = [
        (fn.name, node.lineno)
        for fn in handlers
        for node in ast.walk(fn)
        if isinstance(node, ast.Return) and node.value is not None
    ]
    assert returns == [], f"cmd_* handlers returning a value (handler, line): {returns}"
