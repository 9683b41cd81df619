"""Every name a package module imports is used in that module, every
private module-level name is read somewhere in the package, and every
public writer of ``serialize`` is read by another package module.

Deleting a function tends to leave its imports behind, folding one path
into another tends to leave a private helper behind, and moving a command
to a new writer tends to leave the old one behind with only its tests to
call it; these guards read each module of ``src/tworow`` with ``ast`` and
name every imported name that no expression of the module reads, every
module-level ``_name`` that no module of the package reads, and every
public function of ``serialize`` that no other module reads.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tworow"


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of ``source`` that no
    ``Name`` node reads; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_guard_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import random as rnd\n"
        "from math import comb, gcd\n"
        "def f(x: rnd.Random) -> int:\n"
        "    return comb(x, 2)\n"
    )
    assert unused_imports(source) == ["os", "gcd"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def private_names(tree: ast.Module) -> list[str]:
    """The ``_name``s, dunders aside, that the top level of ``tree``
    binds by ``def``, ``class`` or assignment."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, ast.Assign):
            bound += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.append(node.target.id)
    return [name for name in bound if name.startswith("_") and not name.startswith("__")]


def _read_names(tree: ast.Module) -> set[str]:
    """The names ``tree`` reads as a ``Name``, an attribute or a ``from``
    import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module._name`` for each private module-level name of ``sources``
    that no module reads as a ``Name``, an attribute or a ``from`` import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_read_names, trees.values()))
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in private_names(tree)
        if name not in read
    ]


def test_private_guard_sees_read_and_unread_names():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_spare: int = 4\n"
            "__all__ = []\n"
            "def _helper(): return _LIMIT\n"
            "def _dead(): pass\n"
            "class _Box: pass\n"
        ),
        "b": "from a import _helper\nimport a\nx = a._Box\n",
    }
    assert unread_private_names(sources) == ["a._spare", "a._dead"]


def test_package_reads_every_private_module_level_name():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def unread_public_functions(sources: dict[str, str], module: str) -> list[str]:
    """``module.name`` for each public module-level function of ``module``
    that no other module of ``sources`` reads."""
    read = set()
    for other, source in sources.items():
        if other != module:
            read |= _read_names(ast.parse(source))
    return [
        f"{module}.{node.name}"
        for node in ast.parse(sources[module]).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]


def test_public_guard_sees_read_and_unread_functions():
    sources = {
        "serialize": (
            "HEADER = 'a,b'\n"
            "class Row: pass\n"
            "def write_kept(handle): handle.write(HEADER)\n"
            "def write_by_attribute(handle): pass\n"
            "def trace_to_csv(rows): return write_kept\n"
            "def _helper(): pass\n"
        ),
        "cli": (
            "from .serialize import write_kept\n"
            "from . import serialize\n"
            "serialize.write_by_attribute\n"
        ),
        "other": "def trace_to_csv(): pass\n",
    }
    assert unread_public_functions(sources, "serialize") == ["serialize.trace_to_csv"]


def test_package_reads_every_public_serialize_function():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_public_functions(sources, "serialize") == []
