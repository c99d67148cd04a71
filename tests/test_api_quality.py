"""API quality gates: docstrings on every public item, clean exports.

The documentation deliverable includes doc comments on every public item;
these tests make that a hard property of the codebase rather than a hope.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.apsp",
    "repro.blocker",
    "repro.congest",
    "repro.csssp",
    "repro.graphs",
    "repro.pipeline",
    "repro.primitives",
    "repro.serving",
]


def iter_modules():
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        for info in pkgutil.iter_modules(pkg.__path__):
            if info.name.startswith("_"):
                continue  # __main__ calls sys.exit on import
            yield importlib.import_module(f"{pkg_name}.{info.name}")


@pytest.mark.parametrize("module", list(iter_modules()),
                         ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", list(iter_modules()),
                         ids=lambda m: m.__name__)
def test_public_items_documented(module):
    """Every name a module exports carries a docstring."""
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for name in exported:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert inspect.getdoc(obj), f"{module.__name__}.{name}"
            if inspect.isclass(obj):
                for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
                    if meth_name.startswith("_"):
                        continue
                    assert inspect.getdoc(meth), (
                        f"{module.__name__}.{name}.{meth_name}"
                    )


@pytest.mark.parametrize("module", list(iter_modules()),
                         ids=lambda m: m.__name__)
def test_exports_resolve(module):
    """__all__ entries must actually exist (no stale exports)."""
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module.__name__}.{name}"


def test_subpackage_list_matches_disk():
    root = pathlib.Path(repro.__file__).parent
    on_disk = {
        p.name for p in root.iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
    }
    assert on_disk == set(repro.__all__)


_FIELDS = {"src", "kind", "payload"}


def _inbox_reads(tree: ast.AST):
    """``(line, problem)`` for every inbox item read by attribute."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)):
            it, target = node.iter, node.target
            if (isinstance(it, ast.Attribute) and it.attr == "inbox"
                    and not (isinstance(target, ast.Tuple)
                             and len(target.elts) == 3)):
                yield it.lineno, "iterates the inbox without unpacking"
        elif (isinstance(node, ast.Attribute) and node.attr in _FIELDS
              and isinstance(node.value, ast.Subscript)
              and isinstance(node.value.value, ast.Attribute)
              and node.value.value.attr == "inbox"):
            yield node.lineno, f"reads .{node.attr} of an inbox item"


def test_programs_unpack_inbox_items():
    """Inbox items are plain ``(src, kind, payload)`` tuples: a program
    that reads ``msg.src`` / ``.kind`` / ``.payload`` would only fail
    when its phase runs, so every module is checked here instead."""
    root = pathlib.Path(repro.__file__).parent
    problems = [
        f"{path.relative_to(root.parent)}:{line}: {what}"
        for path in sorted(root.rglob("*.py"))
        for line, what in _inbox_reads(ast.parse(path.read_text()))
    ]
    assert not problems, (
        "unpack inbox items as `for src, kind, payload in ctx.inbox`:\n"
        + "\n".join(problems))


# The engine counts its own traffic; every other phase goes through
# RoundStats.from_sends.
_STATS_WRITERS = {"congest/metrics.py", "congest/network.py"}


def test_send_counts_become_stats_only_through_from_sends():
    """Outside the engine and ``metrics.py``, no call spells out
    ``per_node_sent=``: a compressed phase hands its send counts to
    :meth:`RoundStats.from_sends` instead, so ``messages`` is always the
    sum of the per-node sends and nodes that sent nothing are left out,
    as the engine leaves them out."""
    root = pathlib.Path(repro.__file__).parent
    problems = [
        f"{rel}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        if (rel := path.relative_to(root).as_posix()) not in _STATS_WRITERS
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "per_node_sent" in {kw.arg for kw in node.keywords}
    ]
    assert not problems, (
        "build phase stats with RoundStats.from_sends:\n"
        + "\n".join(problems))
