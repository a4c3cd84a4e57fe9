"""Every public name has a caller outside the tests.

A name exported from ``loraroute`` or ``loraroute.harness`` must be used
somewhere in the library itself (``src/``, package ``__init__.py`` files
excepted, since they only re-export), or be imported from ``loraroute`` and
used by the benchmark (``bench/``) or the demos (``demos/``).  An export
that only tests call is dead weight and should be deleted with its tests.
"""
import ast
import inspect
from pathlib import Path

import loraroute
import loraroute.harness

ROOT = Path(__file__).resolve().parent.parent


def _trees(directory, skip_init=False):
    for path in sorted((ROOT / directory).rglob("*.py")):
        if not (skip_init and path.name == "__init__.py"):
            yield ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _src_uses():
    """Every ``Name`` in the library's modules."""
    return {
        node.id
        for tree in _trees("src", skip_init=True)
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
    }


def _is_package(module):
    return module == "loraroute" or module.startswith("loraroute.")


def _client_uses(tree):
    """Names a bench or demo file uses from ``loraroute``: a ``Name`` bound by
    ``from loraroute... import``, or an attribute of a ``loraroute`` module."""
    imported = {}  # local binding -> exported name
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and _is_package(node.module):
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_package(alias.name):
                    modules.add(alias.asname or alias.name.split(".")[0])
    roots = modules | set(imported)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in imported:
            used.add(imported[node.id])
        elif isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in roots:
                used.add(node.attr)
    return used


def _public_names():
    for package in (loraroute, loraroute.harness):
        for name in package.__all__:
            if not inspect.ismodule(getattr(package, name)):
                yield package.__name__, name


def test_every_public_name_has_a_caller():
    used = _src_uses().union(
        *(_client_uses(tree) for directory in ("bench", "demos") for tree in _trees(directory))
    )
    unused = [f"{package}.{name}" for package, name in _public_names() if name not in used]
    assert not unused, f"exported but used by nothing outside the tests: {unused}"
