"""Every top-level function and class of ``sepcert`` has a caller.

A definition counts as used when another line of the package names it (an
``ast.Name`` or ``ast.Attribute``; import lines do not count), when an
``__all__`` lists it, or when the benchmark in ``perfbench/`` names it.
Code that only the tests call is deleted, or wired into the CLI."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sepcert"
PERFBENCH = ROOT / "perfbench"


def _named(tree: ast.AST) -> set[str]:
    """Names and attribute names that the tree reads, outside imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _exported(tree: ast.Module) -> set[str]:
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(ast.literal_eval(node.value))
    return out


def _benchmark_names() -> set[str]:
    """Every identifier, imported name and string that perfbench mentions."""
    out = set()
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        out |= _named(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                out.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def unused_definitions() -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = _benchmark_names()
    for tree in trees.values():
        used |= _named(tree) | _exported(tree)
    return [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]


def test_every_definition_has_a_caller_outside_the_tests():
    assert unused_definitions() == []
