"""Every name a package module imports is used in that module, every
private module-level name is read somewhere in the package, every
public module-level function is read by package code or named in the
README, and every ``__slots__`` name of a package class is read as an
attribute.

Deleting a function tends to leave its imports behind, folding one path
into another tends to leave a private helper behind, moving callers
to a new route tends to leave the old public function behind with only
its tests to call it, and dropping a cached field tends to leave its
slot behind, still assigned; these guards read each module of
``src/tworow`` with ``ast`` and name every imported name that no
expression of the module reads, every module-level ``_name`` that no
module of the package reads, every public function that no package code
but its own ``def`` reads and that README.md does not mention, and every
slot that no module reads as an attribute.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tworow"
README = ROOT / "README.md"


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
    import; a name or attribute that is only assigned is not read."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
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


def unread_public_functions(sources: dict[str, str], readme: str) -> list[str]:
    """``module.name`` for each public module-level function of ``sources``
    that no package code other than its own ``def`` reads, as a ``Name``,
    an attribute or a ``from`` import, and that ``readme`` does not name."""
    statements = [
        (module, node) for module, source in sources.items() for node in ast.parse(source).body
    ]
    reads = [_read_names(node) for _, node in statements]
    named = set(re.findall(r"\w+", readme))
    return [
        f"{module}.{node.name}"
        for (module, node), own in zip(statements, reads)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in named
        and not any(node.name in read for read in reads if read is not own)
    ]


def test_public_guard_sees_read_and_unread_functions():
    sources = {
        "serialize": (
            "HEADER = 'a,b'\n"
            "class Row: pass\n"
            "def write_kept(handle): handle.write(HEADER)\n"
            "def write_by_attribute(handle): pass\n"
            "def trace_to_csv(rows): return write_kept\n"
            "def documented(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def _helper(): pass\n"
        ),
        "cli": (
            "from .serialize import write_kept\n"
            "from . import serialize\n"
            "serialize.write_by_attribute\n"
            "def unread(): return cli_helper()\n"
            "def cli_helper(): pass\n"
        ),
        "other": "def trace_to_csv(): pass\n",
    }
    readme = "Call `documented()` for the docs."
    assert unread_public_functions(sources, readme) == [
        "serialize.trace_to_csv",
        "serialize.recursive",
        "cli.unread",
        "other.trace_to_csv",
    ]


def test_package_reads_every_public_function():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_public_functions(sources, README.read_text()) == []


def slot_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, slot) for each name in the ``__slots__`` of each class that
    ``tree`` defines, given as a string or a sequence of strings."""
    slots = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
            ):
                names = ast.literal_eval(node.value)
                names = [names] if isinstance(names, str) else names
                slots += [(cls.name, name) for name in names]
    return slots


def unread_slots(sources: dict[str, str]) -> list[str]:
    """``module.Class.slot`` for each ``__slots__`` name of a class of
    ``sources`` that no module reads as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_read_names, trees.values()))
    return [
        f"{module}.{cls}.{name}"
        for module, tree in trees.items()
        for cls, name in slot_names(tree)
        if name not in read
    ]


def test_slot_guard_sees_read_and_unread_slots():
    sources = {
        "a": (
            "class Vector:\n"
            "    __slots__ = ('coeffs', 'keys', '_form')\n"
            "    def __init__(self, coeffs, keys):\n"
            "        self.coeffs = coeffs\n"
            "        self.keys = keys\n"
            "        self._form = None\n"
            "    def first(self):\n"
            "        return self.keys[0]\n"
            "class Single:\n"
            "    __slots__ = 'images'\n"
        ),
        "b": "from a import Vector\ndef size(v: Vector) -> int: return len(v.coeffs)\n",
    }
    assert unread_slots(sources) == ["a.Vector._form", "a.Single.images"]


def test_package_reads_every_slot():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_slots(sources) == []
