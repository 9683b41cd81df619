"""Every name a package module imports is used in that module.

Deleting a function tends to leave its imports behind; this guard reads
each module of ``src/tworow`` with ``ast`` and names every imported name
that no expression of the module reads.
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
