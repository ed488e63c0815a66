"""The CI workflow names test nodes by hand (the kernel step's list):
each ``tests/<file>.py::<Class>[::<test>]`` it names must exist, so that
a renamed test fails here rather than as pytest's "not found" in CI.

The workflow is read as text (PyYAML is not a test dependency) and its
test modules by ``ast``, without importing them.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
NODE = re.compile(r"tests/(\w+)\.py::(\w+)(?:::(\w+))?")


def _nodes() -> list[tuple[str, str, str]]:
    """(module, class or function, test or "") of each node the workflow
    names, in order."""
    if not WORKFLOW.exists():
        pytest.skip("no CI workflow in this checkout")
    return NODE.findall(WORKFLOW.read_text(encoding="utf-8"))


def _names(path: Path) -> dict[str, set[str]]:
    """Each top-level class or function of a module, with the methods
    of a class."""
    return {node.name: {item.name for item in getattr(node, "body", ())
                        if isinstance(item, ast.FunctionDef)}
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}


def test_named_nodes_exist():
    nodes = _nodes()
    assert nodes
    missing = []
    for module, owner, test in nodes:
        path = ROOT / "tests" / f"{module}.py"
        names = _names(path) if path.exists() else {}
        if owner not in names or (test and test not in names[owner]):
            missing.append(f"tests/{module}.py::{owner}"
                           + (f"::{test}" if test else ""))
    assert not missing, f"the workflow names missing tests: {missing}"


def test_each_node_is_named_once():
    # a class named as well as one of its tests would run that test twice
    nodes = [f"{module}::{owner}::{test}" for module, owner, test in _nodes()]
    assert len(set(nodes)) == len(nodes)
    assert not [a for a in nodes for b in nodes
                if a != b and a.endswith("::") and b.startswith(a)]
