"""The package runs on the standard library alone, with every check live.

A CLI homology run on the computed resolution of S4 to depth 5 (a syzygy
build, LLL included) happens in a fresh interpreter in which importing
sympy fails, and ``pyproject.toml`` declares no runtime
dependency.  No ``assert`` statement appears in the package, so
``python -O`` cannot switch a certificate off, and only ``ZGMatrix.solver``
builds a ``ZGSolver``, so every lift shares its differential's factorization.
"""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

import tatejoin

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

SCRIPT = """
import sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
from tatejoin.cli import main
sys.exit(main(["homology", "--group", "sym:4", "--resolution", "computed",
               "--depth", "5", "--degrees", "1..4"]))
"""


def test_runs_without_sympy():
    src = os.path.dirname(os.path.dirname(tatejoin.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert [d["invariant_factors"] for d in json.loads(proc.stdout)] == \
        [[2], [2], [2, 12], [2]]


def test_no_runtime_dependency_declared():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project.get("dependencies", []) == []


def _package_trees():
    """(path relative to the package, parsed module) for every source file."""
    src = os.path.dirname(tatejoin.__file__)
    paths = sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True))
    assert len(paths) > 5
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            yield os.path.relpath(path, src), ast.parse(fh.read(), filename=path)


def test_no_assert_statements_in_the_package():
    found = [f"{rel}:{node.lineno}" for rel, tree in _package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements in the package: {found}"


def _calls_by_scope(node, name, scope=()):
    """The dotted class/function scope of every call of ``name`` in node."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope += (node.name,)
    if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None)):
        yield ".".join(scope)
    for child in ast.iter_child_nodes(node):
        yield from _calls_by_scope(child, name, scope)


def test_only_a_matrix_builds_its_solver():
    # every lift shares the factorization its differential keeps, so no
    # other code may factor a Z[G] matrix by hand
    found = [f"{rel}:{scope}" for rel, tree in _package_trees()
             for scope in _calls_by_scope(tree, "ZGSolver")]
    assert found == ["zglinalg.py:ZGMatrix.solver"], found
