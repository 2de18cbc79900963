"""The demos compile and import only names rkforge has.

The demos are not run by the test suite (some plot, some take minutes), so a
moved or deleted API would otherwise leave a broken demo unnoticed.
"""
import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_compiles_and_its_rkforge_imports_exist(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    compile(tree, str(path), "exec")
    missing = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "rkforge"):
            continue
        module = importlib.import_module(node.module)
        for alias in node.names:
            if not hasattr(module, alias.name):
                missing.append(f"{node.module}.{alias.name} (line {node.lineno})")
    assert not missing, f"{path.name} imports names rkforge lacks: {missing}"
