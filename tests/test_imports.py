"""Every imported name is used or re-exported, and every exported name exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/mfcal/*.py")) + sorted(ROOT.glob("tests/*.py"))


def _bound_names(node):
    """Names an import statement binds in its module, except ``__future__``."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    names = []
    for alias in node.names:
        if alias.asname:
            names.append(alias.asname)
        else:
            # ``import a.b`` binds ``a``
            names.append(alias.name.split(".")[0])
    return names


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _bound_names(node)
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree)
    return sorted(name for name in set(imported) if name not in used | exported)


def test_the_checker_sees_unused_and_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from a import b, c\n"
        "__all__ = ['c']\n"
        "np.zeros(1)\n"
    )
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == []


MODULES = sorted(ROOT.glob("src/mfcal/*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_exists(path):
    module = importlib.import_module(f"mfcal.{path.stem}")
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []


def _referenced(tree) -> set:
    """Every name a module reads, bare (``ast.Name``) or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_name_has_a_caller_beyond_the_checks():
    """A public name is read by a shipping module, or pinned by the benchmark's tracer.

    ``selftest`` is the acceptance harness, so its reads do not count,
    and its own names are not checked.
    """
    from test_trace_targets import load_targets

    shipping = [path for path in MODULES if path.stem != "selftest"]
    read = set().union(*(_referenced(ast.parse(path.read_text())) for path in shipping))
    pinned = {(t.module, t.function) for t in load_targets()}
    uncalled = [
        f"{path.stem}.{name}"
        for path in shipping
        for name in sorted(_exported(ast.parse(path.read_text())))
        if name not in read and (path.stem, name) not in pinned
    ]
    assert uncalled == []
