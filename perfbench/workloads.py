"""Workload inputs generated from a seed, and output checks that recompute
every expected value from the paper's closed formulas, never by calling
into the program under test.

A workload is ROUNDS rounds of CLI calls, each call with its kind.  Every
round has the same kinds, that is the same cost structure (command,
levels, degrees, path counts); the seed draws what the kinds leave open
afresh for every round: which direction bits are set, sampler seeds and
the order of the calls.  The benchmark reports medians per kind over a
run's rounds, so one costly draw does not decide a run.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, prod

# The CLI's own bound on `sample --depth`.
WALK_DEPTH = 64
# Distinct rounds drawn from a seed; a longer run goes round again.
ROUNDS = 6

SUMMARY_HEADER = "n,k,trials,observed_up,p_up_num,p_up_den,sigma_ok"
TRACE_HEADER = "step,k,j"


def _dense_bits(rng, n: int, m: int) -> str:
    """A uniformly chosen level-n direction sequence with m ones and at
    most t/2 ones among the first t bits."""
    while True:
        picked = set(rng.sample(range(1, n), m))
        bits = [1 if t in picked else 0 for t in range(n)]
        if all(2 * sum(bits[:t]) <= t for t in range(1, n + 1)):
            return "".join(map(str, bits))


def _sparse_bits(n: int, second: int) -> str:
    """Two ones, at the earliest position allowed and at index `second`.
    Early ones give the deep tables a wide support; later ones would cut
    the path-product work, and with it the cost, by half."""
    bits = ["0"] * n
    bits[1] = bits[second] = "1"
    return "".join(bits)


def _random_valid_bits(rng, length: int) -> str:
    """Fair coin flips, with a one replaced by a zero wherever it would put
    more than t/2 ones among the first t bits."""
    bits, ones = [], 0
    for t in range(1, length + 1):
        bit = rng.getrandbits(1) if 2 * (ones + 1) <= t else 0
        ones += bit
        bits.append(bit)
    return "".join(map(str, bits))


Round = list[tuple[str, list[str]]]


def spectral(rng, tiny: bool = False) -> list[Round]:
    """`measure` calls.  Dense ones (level 10, m = 4 and 5) spend their time
    in the GZ projection (gz_harmonic, psi, inner); sparse-deep ones (level
    14-16, 2 ones) in the closed-kernel path products and tableau
    enumeration.  The level-16 call is the middle one of the five by cost,
    so cmd_p50_s follows the path products.

    Each sparse level puts its second one at index 3, 4 and 5 once in every
    three rounds, in a seeded order, so every run of three rounds or more
    meets all three whatever the seed."""
    dense, sparse = ([(5, 2), (6, 3)], [8]) if tiny else ([(10, 4), (10, 5)], [14, 15, 16])
    seconds = {n: rng.sample((3, 4, 5), 3) for n in sparse}
    rounds = []
    for i in range(ROUNDS):
        calls = [(f"measure n={n} m={m}", ["measure", "--xi", _dense_bits(rng, n, m)]) for n, m in dense]
        calls += [(f"measure n={n} m=2", ["measure", "--xi", _sparse_bits(n, seconds[n][i % 3])]) for n in sparse]
        rng.shuffle(calls)
        rounds.append(calls)
    return rounds


def walk(rng, tiny: bool = False) -> list[Round]:
    """`sample` at the depth bound: summaries of the central walk and of
    walks induced by seeded valid direction sequences, plus one CSV trace."""
    depth, summary, trace = (8, 50, 5) if tiny else (WALK_DEPTH, 6000, 1000)

    def kernel() -> list[str]:
        return ["--xi", _random_valid_bits(rng, depth)]

    def one_round() -> Round:
        calls = [
            ("sample central", ["sample", "--central", "--depth", str(depth), "--count", str(summary)]),
            ("sample induced", ["sample", *kernel(), "--depth", str(depth), "--count", str(summary)]),
            ("sample induced", ["sample", *kernel(), "--depth", str(depth), "--count", str(summary)]),
        ]
        traced = ["--central"] if rng.getrandbits(1) else kernel()
        calls.append(
            ("sample trace", ["sample", *traced, "--depth", str(depth), "--count", str(trace), "--mode", "trace"])
        )
        for _, argv in calls:
            argv += ["--seed", str(rng.getrandbits(32))]
        rng.shuffle(calls)
        return calls

    return [one_round() for _ in range(ROUNDS)]


def walk_steps(argv: list[str]) -> int:
    """Steps a `sample` call draws: count x (depth - 1)."""
    return int(_flag(argv, "--count")) * (int(_flag(argv, "--depth")) - 1)


def verify(rng, tiny: bool = False) -> list[Round]:
    """The full self-check suite; it takes no input a seed could vary."""
    return [[("verify", ["verify", "--n-max", "3"] if tiny else ["verify"])]] * ROUNDS


def export(rng, tiny: bool = False) -> list[Round]:
    """`basis` at n = 8-10 for every m <= n/2 whose JSON is at least 0.5 MB
    (0.57-7.5 MB), in seeded order.  Smaller exports cost little more than
    the interpreter start, which setup_s already measures."""
    sizes = [(4, 2), (5, 2)] if tiny else [(8, 4), (9, 3), (9, 4), (10, 3), (10, 4), (10, 5)]
    calls = [(f"basis n={n} m={m}", ["basis", "--n", str(n), "--m", str(m)]) for n, m in sizes]
    return [rng.sample(calls, len(calls)) for _ in range(ROUNDS)]


WORKLOADS = {"spectral": spectral, "walk": walk, "verify": verify, "export": export}


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _frac(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _lowest(obj: dict, value: Fraction) -> bool:
    """A wire fraction equals value and is written in lowest terms."""
    return (obj["num"], obj["den"]) == (str(value.numerator), str(value.denominator))


def induced_row(n: int, k: int, m: int, bit: int) -> tuple[Fraction, Fraction]:
    """Closed stay/up probabilities, with d = n - 2k + 1."""
    d = n - 2 * k + 1
    if bit == 0:
        return Fraction(n - m - k + 1, d), Fraction(m - k, d)
    return Fraction(m - k + 1, d), Fraction(n - m - k, d)


def central_row(n: int, k: int) -> tuple[Fraction, Fraction]:
    d = 2 * (n - 2 * k + 1)
    return Fraction(n - 2 * k + 2, d), Fraction(n - 2 * k, d)


def _kernel_rows(xi: str | None, depth: int):
    """(n, k, bit, stay, up) for levels 1 .. depth - 1 of the walk."""
    for n in range(1, depth):
        if xi is None:
            for k in range(n // 2 + 1):
                yield (n, k, None, *central_row(n, k))
        else:
            m = xi[:n].count("1")
            bit = int(xi[n])
            for k in range(m + 1):
                yield (n, k, bit, *induced_row(n, k, m, bit))


def _check_measure(argv: list[str], text: str) -> str | None:
    xi = _flag(argv, "--xi")
    doc = json.loads(text)
    if doc["oracle_match"] is not True:
        return "oracle_match is not true"
    if doc["xi"] != xi or doc["level"] != len(xi):
        return "wrong sequence or level"
    if sum(_frac(e) for e in doc["table"]["entries"]) != 1:
        return "table does not sum to 1"
    expect = list(_kernel_rows(xi, len(xi)))
    if len(doc["kernel"]) != len(expect):
        return f"{len(doc['kernel'])} kernel rows, expected {len(expect)}"
    for row, (n, k, bit, stay, up) in zip(doc["kernel"], expect):
        if (row["n"], row["k"], row["bit"]) != (n, k, bit):
            return f"kernel row {row['n']},{row['k']} out of order"
        if not (_lowest(row["p_stay"], stay) and _lowest(row["p_up"], up)):
            return f"kernel row n={n} k={k} differs from the closed formula"
    return None


def _check_basis(argv: list[str], text: str) -> str | None:
    n, m = int(_flag(argv, "--n")), int(_flag(argv, "--m"))
    doc = json.loads(text)
    vectors = doc["vectors"]
    if (doc["n"], doc["m"]) != (n, m):
        return "wrong n or m"
    if len(vectors) != comb(n, m):
        return f"{len(vectors)} vectors, expected C({n},{m}) = {comb(n, m)}"
    if len({tuple(v["second_row"]) for v in vectors}) != len(vectors):
        return "repeated tableau"
    for v in vectors:
        ps = v["second_row"]
        k = len(ps)
        norm = prod((p - 2 * j + 1) * (p - 2 * j + 2) for j, p in enumerate(ps, 1))
        if not _lowest(v["norm_sq"], Fraction(norm * comb(n - 2 * k, m - k))):
            return f"norm of {ps} differs from the closed formula"
    return None


def _check_summary(argv: list[str], text: str) -> str | None:
    depth, count = int(_flag(argv, "--depth")), int(_flag(argv, "--count"))
    lines = text.splitlines()
    if lines[0] != SUMMARY_HEADER:
        return "wrong summary header"
    rows = {(n, k): up for n, k, _, _, up in _kernel_rows(_flag(argv, "--xi"), depth)}
    trials = [0] * depth
    for line in lines[1:]:
        n, k, visits, ups, num, den, _ = (int(x) for x in line.split(","))
        row = rows.get((n, k))
        if row is None or Fraction(num, den) != row or not 0 <= ups <= visits:
            return f"summary row n={n} k={k} differs from the kernel"
        trials[n] += visits
    for n, t in enumerate(trials[1:], start=1):
        if t != count:
            return f"level-{n} trials {t}, expected the path count {count}"
    return None


def _check_trace(argv: list[str], text: str) -> str | None:
    depth, count = int(_flag(argv, "--depth")), int(_flag(argv, "--count"))
    lines = text.splitlines()
    if lines[0] != TRACE_HEADER:
        return "wrong trace header"
    if len(lines) - 1 != count * depth:
        return f"{len(lines) - 1} trace rows, expected {count} x {depth}"
    prev = 0
    for i, line in enumerate(lines[1:]):
        step, k, j = (int(x) for x in line.split(","))
        if step != i % depth + 1 or j != step - 2 * k:
            return f"malformed trace row {i + 1}"
        if k - (0 if step == 1 else prev) not in (0, 1):
            return f"trace row {i + 1} jumps by more than one"
        prev = k
    return None


_VERIFY_TAIL = re.compile(r"(\d+) checks, 0 failures")


def _check_verify(argv: list[str], text: str) -> str | None:
    lines = text.splitlines()
    tail = _VERIFY_TAIL.fullmatch(lines[-1]) if lines else None
    if tail is None:
        return f"report ends {lines[-1:]!r}"
    passed = sum(line.startswith("PASS ") for line in lines[:-1])
    if passed != int(tail.group(1)) or passed != len(lines) - 1:
        return "report lines disagree with its tally"
    return None


def check_output(argv: list[str], text: str) -> str | None:
    """None when the output of `tworow <argv>` is right, else the reason."""
    command = argv[0]
    if command == "sample":
        checker = _check_trace if _flag(argv, "--mode") == "trace" else _check_summary
    else:
        checker = {"measure": _check_measure, "basis": _check_basis, "verify": _check_verify}[command]
    try:
        return checker(argv, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparsable output: {exc!r}"
