"""Every name that a taskinfo module lists in ``__all__`` exists, so a
deleted function cannot leave a dangling export behind; every private
function, method and class is used, so a refactor cannot leave a helper
behind that nothing calls; and arrays are frozen in one place only."""

import ast
import collections
import importlib
import pathlib
import pkgutil
import re

import pytest

import taskinfo

MODULES = ["taskinfo"] + sorted(
    f"taskinfo.{m.name}" for m in pkgutil.iter_modules(taskinfo.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} has no __all__"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


SOURCES = {path: path.read_text()
           for path in sorted(pathlib.Path(taskinfo.__file__).parent.glob("*.py"))}


def _private_definitions():
    for path, text in SOURCES.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                yield f"{path.name}:{node.lineno}", node.name


def test_every_private_definition_is_referenced():
    # a name counts as used when it occurs in the package more often than
    # it is defined there (two methods of one name share their uses)
    defs = list(_private_definitions())
    assert defs
    count = {name: sum(len(re.findall(rf"\b{name}\b", text))
                       for text in SOURCES.values()) for _, name in defs}
    defined = collections.Counter(name for _, name in defs)
    assert [f"{at} {name}" for at, name in defs if count[name] <= defined[name]] == []


def test_arrays_are_frozen_only_by_freeze_and_the_family():
    # a value type copies and freezes through tasks._freeze; only the
    # hypothesis family freezes, in place, the tables it builds itself
    where = []
    for path, text in SOURCES.items():
        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = scope + (node.name,)
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Attribute) and t.attr == "writeable"
                    and isinstance(t.value, ast.Attribute) and t.value.attr == "flags"
                    for t in node.targets):
                where.append((path.name, scope[0] if scope else ""))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)
        visit(ast.parse(text), ())
    assert where and set(where) <= {("tasks.py", "_freeze"),
                                    ("finite_oracle.py", "HypothesisFamily")}, where
