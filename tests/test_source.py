"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import presort

MODULES = sorted(p for p in Path(presort.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
