"""Every name the package defines is read by a command, the benchmark or the
entry point.

A module-level function or class, or a method that is not a dunder, counts
as read when src/ or bench/ names it somewhere other than in its own body:
as a Name, an Attribute, an import alias or a string constant (bench/hooks.py
wraps functions by their attribute name), or as the pyproject entry point.
Code that only tests call belongs under tests/, beside its tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "germcone"


def _definitions(tree):
    """(label, name, first line, last line) of each checked definition."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not (
                        item.name.startswith("__")
                        and item.name.endswith("__")):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _references(tree):
    """(name, line) of each place that may read a definition."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_src_definition_is_read_outside_tests():
    trees = {path: ast.parse(path.read_text(), str(path))
             for folder in (PACKAGE, ROOT / "bench")
             for path in sorted(folder.glob("*.py"))}
    seen = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            seen.setdefault(name, []).append((path, line))
    pyproject = (ROOT / "pyproject.toml").read_text()
    entry_points = set(re.findall(r'"[\w.]+:(\w+)"', pyproject))

    unread = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for label, name, first, last in _definitions(tree):
            if name in entry_points:
                continue
            if all(where == path and first <= line <= last
                   for where, line in seen.get(name, [])):
                unread.append(f"{path.name}: {label}")
    assert not unread, ("defined in src/ but read only by tests (or not at "
                        "all): " + ", ".join(unread))
