"""Each narrative script in demos/ runs to completion, and every public name has a caller."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = ROOT / "src" / "gainscatter"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def _public_names() -> set:
    """Functions and classes in a module's ``__all__``, plus every name the package root imports."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                names |= set(ast.literal_eval(node.value)) & defined
    root = ast.parse((PACKAGE / "__init__.py").read_text())
    return names | {
        alias.asname or alias.name
        for node in root.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _references(tree) -> set:
    """Names read as ``name`` or ``obj.name``, outside the ``def``/``class`` of that name."""
    found = set()

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(tree, frozenset())
    return found


def test_every_public_name_has_a_caller_in_the_package_or_demos():
    used = set()
    for path in [*PACKAGE.rglob("*.py"), *DEMOS]:
        used |= _references(ast.parse(path.read_text()))
    assert sorted(_public_names() - used) == []
