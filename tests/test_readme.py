"""The README's library tour runs as written and its comments state true
values, and every command of its command-line block runs, so a renamed or
changed public name or option shows up here first."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from tworow.cli import main
from tworow.markov import KernelEntry

README = Path(__file__).resolve().parents[1] / "README.md"

# (code line of the tour, text its comment states, value of the line, or
# of the expression given in place of an assignment)
STATED = [
    ("dim(d)", "9", 9, None),
    ("vec.coeffs", "15 ints", 15, "len(vec.coeffs)"),
    ("vec.form", "a fresh SquareFreeForm view", True, "vec.form == vec.form is not vec.form"),
    ("vec.norm_sq", "here 12", 12, None),
    ("gz_in_H(u, 3).form.coeffs[(1, 3, 4)]", "2:", 2, None),
    ("basis = full_gz_basis(4, 2)", "6 vectors", 6, "len(basis)"),
    ("inner(basis[1].form, basis[2].form)", "exactly 0", 0, None),
    ("spectral_measure(xi) == path_product_table(kern)", "True", True, None),
    (
        "kern.transition(2, 0)",
        "KernelEntry(bit=0, p_stay=Fraction(2, 3),",
        KernelEntry(0, Fraction(2, 3), Fraction(1, 3)),
        None,
    ),
    ("report.ok", "True", True, None),
    ("central_alpha_transition(5, 1)", "(5/8, 3/8)", (Fraction(5, 8), Fraction(3, 8)), None),
]


def _tour() -> str:
    match = re.search(r"^## Library tour\n\n```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert match, "README has no python block under '## Library tour'"
    return match.group(1)


@pytest.fixture(scope="module")
def tour():
    """The tour's namespace after running it, and each code line's comment."""
    source = _tour()
    namespace: dict = {}
    exec(compile(source, str(README), "exec"), namespace)
    comments = {}
    for line in source.splitlines():
        code, _, comment = line.partition("  #")
        if code.strip():
            comments[code.strip()] = comment.strip()
    return namespace, comments


@pytest.mark.parametrize("code,stated,value,expr", STATED, ids=[row[0] for row in STATED])
def test_library_tour_states_true_values(tour, code, stated, value, expr):
    namespace, comments = tour
    assert code in comments, f"the tour no longer has the line {code!r}"
    assert stated in comments[code], comments[code]
    assert eval(expr or code, namespace) == value


def _command_lines() -> list[str]:
    """The ``tworow ...`` lines of the sh block under '## Command line',
    each without its trailing ``# ...`` comment."""
    match = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert match, "README has no sh block under '## Command line'"
    lines = [line.partition("#")[0].strip() for line in match.group(1).splitlines()]
    commands = [line for line in lines if line.startswith("tworow ")]
    assert commands, "the command-line block has no tworow line"
    return commands


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_block_runs(capsys, line):
    code = main(shlex.split(line)[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out
