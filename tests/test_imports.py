"""Every name a package module imports is used in that module, every
private module-level name is read somewhere in the package, every
public module-level function and every public method or property of a
package class is read by package code or named in the code of the
README, its backticked spans and fenced blocks, bar two named exemptions, every ``__slots__`` name of a package class is read as
an attribute, no class but ``forms._Value`` and a few named exemptions
writes its own ``__eq__``, ``__hash__`` or ``__repr__``, and every
package name a docstring quotes still exists.

Deleting a function tends to leave its imports behind, folding one path
into another tends to leave a private helper behind, moving callers
to a new route tends to leave the old public function or method behind
with only its tests to call it, and dropping a cached field tends to
leave its slot behind, still assigned; these guards read each module of
``src/tworow`` with ``ast`` and name every imported name that no
expression of the module reads, every module-level ``_name`` that no
module of the package reads, every public function or class member that
no package code but its own ``def`` reads and that README.md does not
name in its code, and every slot that no module reads as an attribute.  A value class that writes
its own comparison, hash or repr beside the shared one tends to drift
from it, so another guard names every class that defines one.  And a
docstring that quotes a helper outlives the helper, so a last guard
names each ``module.name`` of a package module, and each ``_name``,
quoted in double backticks in a package docstring, that no package
module or class binds.
"""

import ast
import re
from collections import Counter
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


def _read_names(tree: ast.AST) -> set[str]:
    """The names ``tree`` reads as a ``Name``, an attribute or a ``from``
    import; a name or attribute that is only assigned is not read."""
    return set(_read_occurrences(tree))


def _read_occurrences(tree: ast.AST) -> list[str]:
    """The names ``tree`` reads, as ``_read_names``, once per read."""
    read = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.append(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read += [a.name for a in node.names]
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


def readme_code_names(readme: str) -> set[str]:
    """The words of the code in ``readme``: its backticked spans and its
    fenced blocks, without their ``#`` comments; prose and comments that
    use a member's name as a plain word do not count."""
    code = " ".join(re.findall(r"```.*?```|`[^`]+`", readme, re.S))
    return set(re.findall(r"\w+", re.sub(r"#.*", "", code)))


def unread_public_functions(sources: dict[str, str], readme: str) -> list[str]:
    """``module.name`` for each public module-level function of ``sources``
    that no package code other than its own ``def`` reads, as a ``Name``,
    an attribute or a ``from`` import, and that ``readme`` does not name
    in its code."""
    statements = [
        (module, node) for module, source in sources.items() for node in ast.parse(source).body
    ]
    reads = [_read_names(node) for _, node in statements]
    named = readme_code_names(readme)
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
    readme = "Call `documented()` for the docs; the unread ones are in prose only."
    assert unread_public_functions(sources, readme) == [
        "serialize.trace_to_csv",
        "serialize.recursive",
        "cli.unread",
        "other.trace_to_csv",
    ]


def test_package_reads_every_public_function():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_public_functions(sources, README.read_text()) == []


# The public members that no package code reads, each with its reason.
REFERENCE_MEMBERS = {
    "forms.SquareFreeForm.embedded": "the form algebra that tests/test_forms.py's "
    "reference_split builds the reference decomposition from",
    "forms.SquareFreeForm.times_var": "the form algebra that tests/test_forms.py's "
    "reference_split builds the reference decomposition from",
}


def unread_public_members(sources: dict[str, str], readme: str) -> list[str]:
    """``module.Class.name`` for each public method or property of a class
    of ``sources`` whose name no package code other than its own ``def``
    reads, as a ``Name``, an attribute or a ``from`` import, and that
    ``readme`` does not name in its code."""
    trees = [(module, ast.parse(source)) for module, source in sources.items()]
    members = [
        (module, cls, node)
        for module, tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]
    reads = Counter(name for _, tree in trees for name in _read_occurrences(tree))
    named = readme_code_names(readme)
    return [
        f"{module}.{cls.name}.{node.name}"
        for module, cls, node in members
        if node.name not in named
        and reads[node.name] == _read_occurrences(node).count(node.name)
    ]


def test_member_guard_sees_read_and_unread_members():
    sources = {
        "markov": (
            "class Table:\n"
            "    def weights(self): return []\n"
            "    @property\n"
            "    def probs(self): return dict(self.weights())\n"
            "    @property\n"
            "    def level(self): return 0\n"
            "    def support(self): return self.support()\n"
            "    @classmethod\n"
            "    def build(cls): return cls()\n"
            "    def documented(self): pass\n"
            "    def _hidden(self): pass\n"
            "    def __len__(self): return 0\n"
            "    class Row:\n"
            "        def shown(self): pass\n"
        ),
        "cli": (
            "from .markov import Table\n"
            "def run(t):\n"
            "    t.level = 3\n"
            "    return t.probs, Table.build\n"
        ),
    }
    readme = (
        "Call `table.documented()` at any level.\n"
        "```python\ntable.documented()  # support\n```\n"
    )
    assert unread_public_members(sources, readme) == [
        "markov.Table.level",
        "markov.Table.support",
        "markov.Row.shown",
    ]


def test_package_reads_every_public_member():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sorted(unread_public_members(sources, README.read_text())) == sorted(REFERENCE_MEMBERS)


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


VALUE_METHODS = {"__eq__", "__hash__", "__repr__"}

# The classes that may define a value method, each with its reason.
OWN_VALUE_METHODS = {
    "forms._Value": "the one policy of the package's value classes",
    "forms.SquareFreeForm": "unhashable, and prints its terms",
    "forms.Permutation": "prints its images bare, and its == admits subclasses",
    "gz.GzVector": "compares by identity, and prints its form",
    "markov.SpectralTable": "unhashable, and prints its entries",
}


def value_method_classes(sources: dict[str, str]) -> list[str]:
    """``module.Class`` for each class of ``sources`` whose body binds
    ``__eq__``, ``__hash__`` or ``__repr__``, by ``def`` or assignment."""
    found = []
    for module, source in sources.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            bound = set()
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    bound.add(node.name)
                elif isinstance(node, ast.Assign):
                    bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
            if bound & VALUE_METHODS:
                found.append(f"{module}.{cls.name}")
    return found


def test_value_method_guard_sees_each_way_to_bind_one():
    sources = {
        "a": (
            "class Plain:\n"
            "    __slots__ = ('n',)\n"
            "    def __str__(self): return str(self.n)\n"
            "class Hashed:\n"
            "    def __hash__(self): return 0\n"
            "class Unhashable:\n"
            "    __hash__ = None\n"
            "class Outer:\n"
            "    class Inner:\n"
            "        __repr__ = object.__repr__\n"
        ),
        "b": "class Compared:\n    def __eq__(self, other): return True\n",
    }
    assert value_method_classes(sources) == ["a.Hashed", "a.Unhashable", "a.Inner", "b.Compared"]


def test_value_classes_take_their_methods_from_one_base():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sorted(value_method_classes(sources)) == sorted(OWN_VALUE_METHODS)


# A quoted package name: ``module.name``, or a private ``_name`` (dunders
# aside), in double backticks.
DOC_REFERENCE = re.compile(r"``(\w+)\.(\w+)``|``((?!__)_\w+)``")


def _bound(body: list[ast.stmt]) -> set[str]:
    """The names a module or class body binds by ``def``, ``class``,
    assignment or import, and the names of its ``__slots__``."""
    bound = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            bound.update(names)
            if "__slots__" in names:
                slots = ast.literal_eval(node.value)
                bound.update([slots] if isinstance(slots, str) else slots)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
    return bound


def unresolved_doc_references(sources: dict[str, str]) -> list[str]:
    """``module: reference`` for each quoted name of a docstring of
    ``sources`` that is either ``owner.name`` with ``owner`` one of
    ``sources`` that binds no ``name`` at its top level, or a ``_name``
    that no module or class of ``sources`` binds."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    top = {module: _bound(tree.body) for module, tree in trees.items()}
    anywhere = set().union(*top.values()).union(
        *(_bound(node.body) for tree in trees.values() for node in ast.walk(tree)
          if isinstance(node, ast.ClassDef))
    )
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    missing = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            doc = ast.get_docstring(node) if isinstance(node, documented) else None
            for owner, name, private in DOC_REFERENCE.findall(doc or ""):
                if owner in top and name not in top[owner]:
                    missing.append(f"{module}: {owner}.{name}")
                elif private and private not in anywhere:
                    missing.append(f"{module}: {private}")
    return missing


def test_doc_reference_guard_sees_bound_and_missing_names():
    sources = {
        "a": (
            '"""Names ``b.helper``, ``b.gone``, ``os._exit`` and ``_LIMIT``."""\n'
            "_LIMIT = 3\n"
            "class Box:\n"
            '    """Holds ``_slot`` and ``_cached``, built by ``_make``."""\n'
            "    __slots__ = ('_slot',)\n"
            "    @classmethod\n"
            "    def _make(cls): pass\n"
        ),
        "b": (
            "from a import _LIMIT\n"
            "def helper():\n"
            '    """Reads ``a._LIMIT`` and ``a.Box``; ``_deleted`` is gone,\n'
            '    ``__slots__`` is a dunder and ``kernel.depth`` names no module."""\n'
        ),
    }
    assert unresolved_doc_references(sources) == ["a: b.gone", "a: _cached", "b: _deleted"]


def test_package_docstrings_quote_only_bound_names():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unresolved_doc_references(sources) == []
