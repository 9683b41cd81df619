import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from tworow import cli, gz, linalg, markov, verify
from tworow.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_2_1(capsys):
    code, out, err = run_cli(capsys, "basis", "--n", "2", "--m", "1")
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["n"] == 2 and doc["m"] == 1
    assert doc["vectors"] == [
        {
            "second_row": [],
            "terms": [
                {"vars": [1], "num": "1", "den": "1"},
                {"vars": [2], "num": "1", "den": "1"},
            ],
            "norm_sq": {"num": "2", "den": "1"},
        },
        {
            "second_row": [2],
            "terms": [
                {"vars": [1], "num": "1", "den": "1"},
                {"vars": [2], "num": "-1", "den": "1"},
            ],
            "norm_sq": {"num": "2", "den": "1"},
        },
    ]


def test_basis_3_0_is_the_constant(capsys):
    code, out, _ = run_cli(capsys, "basis", "--n", "3", "--m", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["vectors"] == [
        {
            "second_row": [],
            "terms": [{"vars": [], "num": "1", "den": "1"}],
            "norm_sq": {"num": "1", "den": "1"},
        }
    ]


def test_basis_4_2_counts(capsys):
    code, out, _ = run_cli(capsys, "basis", "--n", "4", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    sizes = {}
    for vec in doc["vectors"]:
        sizes.setdefault(len(vec["second_row"]), 0)
        sizes[len(vec["second_row"])] += 1
    assert sizes == {0: 1, 1: 3, 2: 2}


# sha256 of the basis stdout as the index-tuple expansion and json.dumps
# wrote it; the export bytes must never change.
GOLDEN_BASES = [
    (0, 0, "ee477bad07328f81034a7e983fb6b8bd2fe0a79c476d29ec432427714967774a"),
    (1, 0, "8c86c50f78cc941819ae68a2c600f0d58519966fe9ef93e2256793c5822c7586"),
    (2, 1, "a79c88f3c0a8a5338eb072913add7a014e93dc0b98e4758a0db21aaae364f576"),
    (5, 2, "0bab43249c5725d2ef73e5db4ddbde387738522dd80e076404ba59a4088a9b41"),
    (8, 4, "00a097e278266fa1e32cd2979d7c3667ae0bc36ce0af9430849c2b4ea425da1e"),
    (10, 5, "1885a25862090c50573378cd73aa1218085f6fd04f0f2613d58dba20535855d0"),
    (14, 4, "ae2da6f254d5ddab0fc461c03ff95a0276ee9b35bebea6e95ac663ee0cee89d3"),
    (16, 3, "1e0ce12a83d383357df6e5cd839cba192af12c9084f328d61e46bf03f61b41a1"),
]


@pytest.mark.parametrize("n,m,digest", GOLDEN_BASES)
def test_basis_golden_bytes(capsys, n, m, digest):
    code, out, err = run_cli(capsys, "basis", "--n", str(n), "--m", str(m))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_basis_12_6_golden_bytes_to_file(capsys, tmp_path):
    target = tmp_path / "basis.json"
    assert main(["basis", "--n", "12", "--m", "6", "--out", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == "ce6d70c6fd907a6bfd74ae31c6c0a138e2eddf91bc38003fd11a922e6a187f37"


def test_basis_out_file_matches_stdout(capsys, tmp_path):
    _, stdout_text, _ = run_cli(capsys, "basis", "--n", "7", "--m", "3")
    target = tmp_path / "basis.json"
    assert main(["basis", "--n", "7", "--m", "3", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == stdout_text.encode("utf-8")


def test_basis_past_the_size_rule_leaves_out_file_untouched(capsys, tmp_path):
    target = tmp_path / "basis.json"
    target.write_bytes(b"keep me\n")
    code = main(["basis", "--n", "14", "--m", "7", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "C(14, 7) = 3432" in captured.err
    assert target.read_bytes() == b"keep me\n"


def test_basis_size_rule_boundary(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_BASIS_VECTORS", 6)
    assert main(["basis", "--n", "4", "--m", "2"]) == 0
    assert main(["basis", "--n", "5", "--m", "2"]) == 2
    assert main(["basis", "--n", "12", "--m", "0"]) == 0
    capsys.readouterr()


def test_measure_01(capsys):
    code, out, _ = run_cli(capsys, "measure", "--xi", "01", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["xi"] == "01"
    assert doc["level"] == 2
    assert doc["oracle_match"] is True
    assert doc["table"]["entries"] == [
        {"second_row": [], "num": "1", "den": "2"},
        {"second_row": [2], "num": "1", "den": "2"},
    ]


def test_measure_defaults_to_full_length(capsys):
    code, out, _ = run_cli(capsys, "measure", "--xi", "0101")
    assert code == 0
    doc = json.loads(out)
    assert doc["level"] == 4
    assert doc["oracle_match"] is True
    got = {tuple(e["second_row"]): (e["num"], e["den"]) for e in doc["table"]["entries"]}
    assert got[()] == ("1", "6")
    assert got[(2,)] == ("1", "4")
    assert got[(3,)] == ("1", "12")
    assert len(doc["kernel"]) == 5


def test_measure_csv_kernel(capsys):
    code, out, _ = run_cli(capsys, "measure", "--xi", "0101", "--format", "csv")
    assert code == 0
    assert out == (
        "n,k,bit,p_stay_num,p_stay_den,p_up_num,p_up_den\n"
        "1,0,1,1,2,1,2\n"
        "2,0,0,2,3,1,3\n"
        "2,1,0,1,1,0,1\n"
        "3,0,1,1,2,1,2\n"
        "3,1,1,1,2,1,2\n"
    )


def test_measure_runs_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "measure", "--xi", "00101")
    _, second, _ = run_cli(capsys, "measure", "--xi", "00101")
    assert first == second


def test_sample_trace_all_zero_directions(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample", "--xi", "000000", "--depth", "6", "--count", "3",
        "--mode", "trace", "--seed", "1",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "step,k,j"
    assert len(lines) == 1 + 3 * 6
    for line in lines[1:]:
        step, k, j = (int(v) for v in line.split(","))
        assert k == 0
        assert j == step


def test_sample_trace_deterministic(capsys):
    args = (
        "sample", "--xi", "010101", "--depth", "6", "--count", "10",
        "--mode", "trace", "--seed", "7",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert first.startswith("step,k,j\n")


def test_sample_summary_structure(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample", "--xi", "01010101", "--depth", "8", "--count", "200",
        "--seed", "5",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,k,trials,observed_up,p_up_num,p_up_den,sigma_ok"
    per_level = {}
    for line in lines[1:]:
        n, k, trials, ups, num, den, ok = (int(v) for v in line.split(","))
        per_level.setdefault(n, 0)
        per_level[n] += trials
        assert 0 <= ups <= trials
        assert ok in (0, 1)
    assert per_level == {n: 200 for n in range(1, 8)}


def test_sample_central_summary(capsys):
    args = ("sample", "--central", "--depth", "10", "--count", "300", "--seed", "2")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    top = first.strip().split("\n")[1]
    n, k, trials, ups, num, den, ok = (int(v) for v in top.split(","))
    assert (n, k, trials) == (1, 0, 300)
    assert (num, den) == (1, 4)


# A valid 64-bit direction sequence (at most t/2 ones in every prefix).
GOLDEN_XI = "0001001000110110011010110100010100100111011001011011110010100000"

# sha256 of the stdout bytes as the Fraction-comparison sampler wrote them;
# a seed's walks, summaries and traces must never change.
GOLDEN_SAMPLES = [
    (
        ["--central", "--count", "300", "--seed", "17"],
        "d8e82b7c09cf93340d0822315999d44254578e29ed82635e00d5812d0d4e6a18",
    ),
    (
        ["--xi", GOLDEN_XI, "--count", "300", "--seed", "18"],
        "240cadb5d6bf3018790429b56be91e07e714553ccc40c1bc1218400f82358e67",
    ),
    (
        ["--central", "--count", "50", "--seed", "19", "--mode", "trace"],
        "cd553f02a6c1ced51116f95891055a39b1af626965860f11ed5f5fd1ea2685ee",
    ),
    (
        ["--xi", GOLDEN_XI, "--count", "50", "--seed", "20", "--mode", "trace"],
        "8989756f08386092d0f7a7a0b8256c496b1c4baa60f5d11574f482a3cda8e603",
    ),
]


@pytest.mark.parametrize("flags,digest", GOLDEN_SAMPLES)
def test_sample_depth_64_golden_bytes(capsys, tmp_path, flags, digest):
    argv = ["sample", "--depth", "64", *flags]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    target = tmp_path / "sample.csv"
    assert main([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode("utf-8")


# sha256 of the measure stdout as the basis-projection route wrote it:
# sparse level 16, dense level 10 with m = 5, and alternating level 12; the
# two dense level-16 rows (alternating and 0011...) as the per-tableau
# rook-count sum wrote them.
GOLDEN_MEASURES = [
    ("0100100000000000", "json", "198a1a2a3dff2f9dd794e386b13505a79218301f7445510cd7a1edf459797122"),
    ("0100100000000000", "csv", "3533b33a970ea85948bcee9b440787b4f76c29ee32512c0d9b7f26343e70f775"),
    ("0010110101", "json", "75024b0092ae2b56b01245d49d89e9922808c82b0293df0626d6a31a7200405a"),
    ("0010110101", "csv", "0150d1d9cb59a9f0fb796639c16c3c4d09d061035249190687cec08736818e1c"),
    ("010101010101", "json", "f72cfaf319d5d918eaae700a72b9963fd629d269426bc24e95a5a6c4bbf855bb"),
    ("010101010101", "csv", "86eeee88f5b14683eab23e02892e5a89316a7816f07015aa820261d0460dcd7c"),
    ("0101010101010101", "json", "cddf67fdfeb17f5b52da23f5f264e54dbc7332220be3513470c14032e6d4b6d0"),
    ("0101010101010101", "csv", "239a825406e290c475aa598107892a0c7a68ac4e592c7eb5c13b80bd1d02bdd0"),
    ("0011001100110011", "json", "afb00de1a74056a0da0598b00081a354a1eb6ea3663d264242d716cc28db8e7d"),
    ("0011001100110011", "csv", "82dc7ef4f29ed5adf0a4595384be87e9e0468c6868b61ee5a96dcd485b70d62d"),
]


@pytest.mark.parametrize("xi,fmt,digest", GOLDEN_MEASURES)
def test_measure_golden_bytes(capsys, tmp_path, xi, fmt, digest):
    argv = ["measure", "--xi", xi, "--format", fmt]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    target = tmp_path / f"measure.{fmt}"
    assert main([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode("utf-8")


def test_measure_alternating_level_14(capsys):
    code, out, _ = run_cli(capsys, "measure", "--xi", "01010101010101")
    assert code == 0
    doc = json.loads(out)
    assert doc["level"] == 14
    assert doc["oracle_match"] is True


def test_out_file_matches_stdout(capsys, tmp_path):
    _, stdout_text, _ = run_cli(capsys, "measure", "--xi", "0101")
    target = tmp_path / "measure.json"
    code = main(["measure", "--xi", "0101", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text(encoding="utf-8") == stdout_text


def test_verify_scoped(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "gz", "--n-max", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("0 failures")


# sha256 of the default verify report, every suite at its table ceiling.
VERIFY_DIGEST = "7603c09f04c1472c26ef871b3aeb672c6ed3c27d42a986199dc5e26a1b7a15a2"


def test_verify_golden_bytes(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_DIGEST
    target = tmp_path / "verify.txt"
    assert main(["verify", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode("utf-8")


# The whole stdout of six corrupted runs, so that a change to how the
# suites collect failures keeps every FAIL detail's text and order; the
# third and fourth interleave the harmonic and lifted messages of each
# level.
DROPPED_SLOT_REPORT = (
    "FAIL basis-eigen: lifted () at n=4 m=2; lifted (2,) at n=4 m=2; lifted (3,) at n=4"
    " m=2; harmonic (2, 5) at n=5 differs from its expansion; harmonic (2, 5) at n=5;"
    " and 289 more\n"
    "FAIL basis-orthogonal: n=4 m=2: () vs (2,); n=4 m=2: () vs (3,); n=4 m=2: () vs"
    " (4,); n=4 m=2: () vs (2, 4); n=4 m=2: () vs (3, 4); and 3233 more\n"
    "FAIL basis-norms: lifted norm () at n=4 m=2; lifted norm (2,) at n=4 m=2; lifted"
    " norm (3,) at n=4 m=2; harmonic norm (2, 5) at n=5; harmonic norm (3, 5) at n=5;"
    " and 227 more\n"
    "FAIL psi-isometry: basis vector n=4, u=(), m=2 is not psi; basis vector n=4,"
    " u=(2,), m=2 is not psi; basis vector n=4, u=(3,), m=2 is not psi; basis vector"
    " n=5, u=(), m=2 is not psi; basis vector n=5, u=(2,), m=2 is not psi; and 161 more\n"
    "FAIL good-tableau-norms: lifted n=4 k=0 m=2; lifted n=4 k=1 m=2; lifted n=5 k=0"
    " m=2; lifted n=5 k=1 m=2; lifted n=6 k=0 m=2; and 45 more\n"
    "PASS good-tableau-ratio: consecutive-level norm ratios equal the stay probability"
    " for n <= 12\n"
    "FAIL matrices-agree: lifted n=4 k=1 i=1; lifted n=4 k=1 i=3; lifted n=5 k=1 i=1;"
    " lifted n=5 k=1 i=3; lifted n=5 k=1 i=4; and 15 more\n"
    "PASS matrices-relations: involution, braid and commutation relations hold for n <="
    " 6\n"
    "PASS harmonic-dimension: divergence kernel ranks equal C(n, k) - C(n, k - 1) for n"
    " <= 10\n"
    "PASS module-filling: harmonic pieces fill the degree-m module to C(n, m) for n <="
    " 10\n"
    "10 checks, 6 failures\n"
)

OFF_BY_ONE_FACTOR_REPORT = (
    "FAIL basis-eigen: harmonic (2, 4) at n=4 differs from its expansion; harmonic (2,"
    " 4) at n=4; harmonic (3, 4) at n=4 differs from its expansion; harmonic (3, 4) at"
    " n=4; lifted (4,) at n=4 m=2; and 2 more\n"
    "FAIL basis-orthogonal: n=4 m=2: () vs (4,); n=4 m=2: (2,) vs (2, 4); n=4 m=2: (3,)"
    " vs (3, 4)\n"
    "FAIL basis-norms: harmonic norm (2, 4) at n=4; harmonic norm (3, 4) at n=4; lifted"
    " norm (4,) at n=4 m=2; lifted norm (2, 4) at n=4 m=2; lifted norm (3, 4) at n=4"
    " m=2\n"
    "FAIL psi-isometry: basis vector n=4, u=(4,), m=2 is not psi\n"
    "FAIL good-tableau-norms: harmonic n=4 k=2\n"
    "PASS good-tableau-ratio: consecutive-level norm ratios equal the stay probability"
    " for n <= 4\n"
    "FAIL matrices-agree: lifted n=4 k=1 i=3; n=4 k=2 i=3\n"
    "PASS matrices-relations: involution, braid and commutation relations hold for n <="
    " 4\n"
    "PASS harmonic-dimension: divergence kernel ranks equal C(n, k) - C(n, k - 1) for n"
    " <= 4\n"
    "PASS module-filling: harmonic pieces fill the degree-m module to C(n, m) for n <="
    " 4\n"
    "FAIL decompose: raised f is not the psi-image of f0\n"
    "PASS spectral-vs-paths: projection and path-product tables agree for all 12 valid"
    " sequences of length <= 4\n"
    "PASS spectral-markov: step ratios depend only on the shape and match the closed"
    " kernel for all sequences of length <= 4\n"
    "PASS alternating-parity: flat (1/2, 1/2) rows at odd levels, central rows at even"
    " levels, certified against direct projection for n <= 4; the opposite parity"
    " attribution is refuted\n"
    "FAIL markov-detector: raised probabilities sum to 65/48, not 1\n"
    "PASS central-mass: per-path weights 2^-n prod (2 + content)/hook sum to exactly 1"
    " at every level n <= 4\n"
    "PASS central-kernel: the rows ((n - 2k + 2)/(2(n - 2k + 1)), (n - 2k)/(2(n - 2k +"
    " 1))) equal the weight ratios at every level n <= 4 and every k, with no parity"
    " restriction\n"
    "PASS central-markov: central tables pass the shape-dependence test across levels\n"
    "18 checks, 8 failures\n"
)

WRONG_CLOSED_NORM_REPORT = (
    "PASS basis-eigen: all 147 vectors at n <= 8 are eigenvectors of every partial"
    " transposition sum, eigenvalues the entry contents\n"
    "PASS basis-orthogonal: full bases pairwise orthogonal for n <= 8\n"
    "FAIL basis-norms: harmonic norm () at n=1; lifted norm () at n=1 m=0;"
    " harmonic norm () at n=2; harmonic norm (2,) at n=2; lifted norm () at n=2 m=0;"
    " and 446 more\n"
    "PASS psi-isometry: 305 lifts at n <= 8 scale squared norms by C(n - 2k, m - k);"
    " at k = 0 this is the norm C(n, m) of the averaged constant\n"
    "PASS good-tableau-norms: squared norms are 2^k and 2^k C(n - 2k, m - k) for n <= 12\n"
    "PASS good-tableau-ratio: consecutive-level norm ratios equal the stay probability"
    " for n <= 12\n"
    "PASS matrices-agree: closed-entry matrices equal the projection-built ones,"
    " also after lifting, for n <= 6\n"
    "PASS matrices-relations: involution, braid and commutation relations hold"
    " for n <= 6\n"
    "PASS harmonic-dimension: divergence kernel ranks equal C(n, k) - C(n, k - 1)"
    " for n <= 10\n"
    "PASS module-filling: harmonic pieces fill the degree-m module to C(n, m)"
    " for n <= 10\n"
    "10 checks, 1 failures\n"
)

NO_FIXED_TERMS_REPORT = (
    "FAIL basis-eigen: harmonic () at n=2; lifted () at n=2 m=0; harmonic () at n=3;"
    " harmonic (2,) at n=3; harmonic (3,) at n=3; and 21 more\n"
    "PASS basis-orthogonal: full bases pairwise orthogonal for n <= 4\n"
    "PASS basis-norms: squared norms match prod (p_j - 2j + 1)(p_j - 2j + 2) and its"
    " binomial lift for n <= 4\n"
    "PASS psi-isometry: 20 lifts at n <= 4 scale squared norms by C(n - 2k, m - k);"
    " at k = 0 this is the norm C(n, m) of the averaged constant\n"
    "PASS good-tableau-norms: squared norms are 2^k and 2^k C(n - 2k, m - k) for n <= 4\n"
    "PASS good-tableau-ratio: consecutive-level norm ratios equal the stay probability"
    " for n <= 4\n"
    "PASS matrices-agree: closed-entry matrices equal the projection-built ones,"
    " also after lifting, for n <= 4\n"
    "PASS matrices-relations: involution, braid and commutation relations hold"
    " for n <= 4\n"
    "PASS harmonic-dimension: divergence kernel ranks equal C(n, k) - C(n, k - 1)"
    " for n <= 4\n"
    "PASS module-filling: harmonic pieces fill the degree-m module to C(n, m) for n <= 4\n"
    "10 checks, 1 failures\n"
)


CORRUPTED_TRANSPOSITION_MATRIX_REPORT = (
    "PASS basis-eigen: all 12 vectors at n <= 4 are eigenvectors of every partial"
    " transposition sum, eigenvalues the entry contents\n"
    "PASS basis-orthogonal: full bases pairwise orthogonal for n <= 4\n"
    "PASS basis-norms: squared norms match prod (p_j - 2j + 1)(p_j - 2j + 2) and its"
    " binomial lift for n <= 4\n"
    "PASS psi-isometry: 20 lifts at n <= 4 scale squared norms by C(n - 2k, m - k);"
    " at k = 0 this is the norm C(n, m) of the averaged constant\n"
    "PASS good-tableau-norms: squared norms are 2^k and 2^k C(n - 2k, m - k) for n <= 4\n"
    "PASS good-tableau-ratio: consecutive-level norm ratios equal the stay probability"
    " for n <= 4\n"
    "FAIL matrices-agree: n=3 k=1 i=2; n=4 k=1 i=2; lifted n=4 k=1 i=2; n=4 k=1 i=3;"
    " lifted n=4 k=1 i=3; and 1 more\n"
    "PASS matrices-relations: involution, braid and commutation relations hold"
    " for n <= 4\n"
    "PASS harmonic-dimension: divergence kernel ranks equal C(n, k) - C(n, k - 1)"
    " for n <= 4\n"
    "PASS module-filling: harmonic pieces fill the degree-m module to C(n, m) for n <= 4\n"
    "10 checks, 1 failures\n"
)

SWAPPED_INDUCED_KERNEL_REPORT = (
    "FAIL decompose-step: stay-norm n=1 u=() m=0 b=0; up-norm n=1 u=() m=0 b=0;"
    " stay-norm n=2 u=() m=0 b=0; up-norm n=2 u=() m=0 b=0; stay-norm n=2 u=() m=0 b=1;"
    " and 47 more\n"
    "PASS spectral-vs-paths: projection and path-product tables agree for all 12 valid"
    " sequences of length <= 4\n"
    "PASS spectral-markov: step ratios depend only on the shape and match the closed"
    " kernel for all sequences of length <= 4\n"
    "PASS alternating-parity: flat (1/2, 1/2) rows at odd levels, central rows at even"
    " levels, certified against direct projection for n <= 4;"
    " the opposite parity attribution is refuted\n"
    "PASS markov-detector: real chains accepted, corrupted pair rejected with a"
    " same-shape witness\n"
    "5 checks, 1 failures\n"
)


SWAPPED_SPLIT_REPORT = (
    "FAIL decompose-step: stay-norm n=1 u=() m=0 b=0; up-norm n=1 u=() m=0 b=0;"
    " preimage n=1 u=() m=0 b=0; preimage n=1 u=() m=0 b=1; stay-norm n=2 u=() m=0 b=0;"
    " and 77 more\n"
    "PASS spectral-vs-paths: projection and path-product tables agree for all 12 valid"
    " sequences of length <= 4\n"
    "PASS spectral-markov: step ratios depend only on the shape and match the closed"
    " kernel for all sequences of length <= 4\n"
    "PASS alternating-parity: flat (1/2, 1/2) rows at odd levels, central rows at even"
    " levels, certified against direct projection for n <= 4;"
    " the opposite parity attribution is refuted\n"
    "PASS markov-detector: real chains accepted, corrupted pair rejected with a"
    " same-shape witness\n"
    "5 checks, 1 failures\n"
)


UNSUMMED_SPLIT_REPORT = (
    "FAIL decompose-step: sum n=1 u=() m=0 b=0; sum n=1 u=() m=0 b=1;"
    " sum n=2 u=() m=0 b=0; sum n=2 u=() m=0 b=1; sum n=2 u=() m=1 b=0;"
    " and 25 more\n"
    "PASS spectral-vs-paths: projection and path-product tables agree for all 12 valid"
    " sequences of length <= 4\n"
    "PASS spectral-markov: step ratios depend only on the shape and match the closed"
    " kernel for all sequences of length <= 4\n"
    "PASS alternating-parity: flat (1/2, 1/2) rows at odd levels, central rows at even"
    " levels, certified against direct projection for n <= 4;"
    " the opposite parity attribution is refuted\n"
    "PASS markov-detector: real chains accepted, corrupted pair rejected with a"
    " same-shape witness\n"
    "5 checks, 1 failures\n"
)


SKEWED_SPLIT_REPORT = (
    "FAIL decompose-step: orth n=1 u=() m=0 b=1; stay-norm n=1 u=() m=0 b=1;"
    " up-norm n=1 u=() m=0 b=1; preimage n=1 u=() m=0 b=1; orth n=2 u=() m=0 b=1;"
    " and 67 more\n"
    "PASS spectral-vs-paths: projection and path-product tables agree for all 12 valid"
    " sequences of length <= 4\n"
    "PASS spectral-markov: step ratios depend only on the shape and match the closed"
    " kernel for all sequences of length <= 4\n"
    "PASS alternating-parity: flat (1/2, 1/2) rows at odd levels, central rows at even"
    " levels, certified against direct projection for n <= 4;"
    " the opposite parity attribution is refuted\n"
    "PASS markov-detector: real chains accepted, corrupted pair rejected with a"
    " same-shape witness\n"
    "5 checks, 1 failures\n"
)


@pytest.fixture
def fresh_basis_cache():
    """Empty the cached full bases before and after a test that corrupts
    how they are built, so no other test reads the corrupted vectors."""
    gz.full_gz_basis.cache_clear()
    yield
    gz.full_gz_basis.cache_clear()


def _corrupt_slice(monkeypatch, corrupt):
    """Build every GZ vector with ``corrupt(s, second, below, out)`` applied
    to each slice ``out`` that ``gz._slice`` returns."""
    real = gz._slice

    def corrupted(below, s, j, second, degrees):
        out = real(below, s, j, second, degrees)
        corrupt(s, j, second, below, out)
        return out

    monkeypatch.setattr(gz, "_slice", corrupted)


@pytest.mark.usefixtures("fresh_basis_cache")
def test_verify_fails_on_an_off_by_one_second_row_factor(capsys, monkeypatch):
    """The witness for the second-row step of the branching rule: with the
    factor d - j of V(4, 2) one too large, the basis, psi, good-tableau
    norm and matrix action checks fail at level 4, and the split and the
    detector, which read those vectors, raise."""

    def bumped(s, j, second, below, out):
        if (s, second) == (4, True) and 2 in out:
            out[2][: len(below[2])] = [(3 - j) * c for c in below[2]]

    _corrupt_slice(monkeypatch, bumped)
    code, out, err = run_cli(capsys, "verify", "--n-max", "4")
    assert (code, err) == (1, "")
    assert out == OFF_BY_ONE_FACTOR_REPORT


def test_verify_fails_on_a_corrupted_scan_norm(capsys, monkeypatch):
    norm = markov._norm_factor
    monkeypatch.setattr(markov, "_norm_factor", lambda p, j: norm(p, j) + 1)
    code, out, err = run_cli(capsys, "verify", "--scope", "markov", "--n-max", "4")
    assert (code, err) == (1, "")
    assert "PASS decompose-step: " in out
    assert "FAIL spectral: raised probabilities sum to 5/6, not 1" in out
    assert out.endswith("4 checks, 3 failures\n")


def _failed_checks(out):
    """The FAIL lines of a verify report, without their ``FAIL`` tag."""
    return [line[5:] for line in out.splitlines() if line.startswith("FAIL")]


def test_verify_fails_on_unsigned_scan_factors(capsys, monkeypatch):
    """The spectral scan reads its own binding of ``_rook_factors``; with
    every factor taken unsigned there, the scanned tables lose their mass
    while the split, which never reads the scan, still passes."""
    factors = markov._rook_factors
    monkeypatch.setattr(
        markov, "_rook_factors", lambda p, j, k: [abs(f) for f in factors(p, j, k)]
    )
    code, out, err = run_cli(capsys, "verify", "--scope", "markov", "--n-max", "4")
    assert (code, err) == (1, "")
    assert "PASS decompose-step: " in out
    assert _failed_checks(out) == [
        "spectral: raised probabilities sum to 3/2, not 1",
        "parity: raised probabilities sum to 3/2, not 1",
        "markov-detector: raised probabilities sum to 19/15, not 1",
    ]
    assert out.endswith("4 checks, 3 failures\n")


def test_verify_fails_central_mass_on_one_doubled_shape_weight(capsys, monkeypatch):
    """The witness for ``central-mass``: with the central table's weight
    of shape (11, 3) doubled, the level-11 table weighs more than 1, while
    the kernel check, which reads ``verify``'s own binding, still passes."""
    weight = markov.central_shape_weight
    monkeypatch.setattr(
        markov,
        "central_shape_weight",
        lambda d: weight(d) * (2 if (d.n, d.k) == (11, 3) else 1),
    )
    code, out, err = run_cli(capsys, "verify", "--scope", "central")
    assert (code, err) == (1, "")
    assert _failed_checks(out) == ["central-mass: n=11: probabilities sum to 677/512, not 1"]


def test_verify_fails_matrices_relations_on_one_negated_matrix_entry(capsys, monkeypatch):
    """The witness for ``matrices-relations``: with the first nonzero
    off-diagonal entry of the (2 3) matrix of shape (3, 1) negated, that
    matrix no longer squares to 1 or satisfies either braid relation it
    enters."""
    closed = verify.orthogonal_form_matrix

    def negated(i, d):
        matrix = closed(i, d)
        if (i, d.n, d.k) == (2, 4, 1):
            r, c = next(
                (r, c)
                for r, row in enumerate(matrix)
                for c, x in enumerate(row)
                if r != c and x
            )
            matrix[r][c] = -matrix[r][c]
        return matrix

    monkeypatch.setattr(verify, "orthogonal_form_matrix", negated)
    code, out, err = run_cli(capsys, "verify", "--scope", "gz")
    assert (code, err) == (1, "")
    failed = _failed_checks(out)
    assert [line.split(":")[0] for line in failed] == ["matrices-agree", "matrices-relations"]
    assert failed[1] == (
        "matrices-relations: involution n=4 k=1 i=2; braid n=4 k=1 i=1; braid n=4 k=1 i=2"
    )


def test_verify_fails_alternating_parity_on_a_swapped_central_row(capsys, monkeypatch):
    """The witness for ``alternating-parity``: with the central row at
    (4, 1) swapped, the even-level central rows fail there, and so does
    the central kernel, and nothing else."""
    row = markov._central_row

    def swapped(n, k):
        stay, up, den = row(n, k)
        return (up, stay, den) if (n, k) == (4, 1) else (stay, up, den)

    monkeypatch.setattr(markov, "_central_row", swapped)
    code, out, err = run_cli(capsys, "verify")
    assert (code, err) == (1, "")
    assert _failed_checks(out) == [
        "alternating-parity: even level, central row fails at n=4 k=1",
        "central-kernel: n=4 k=1",
    ]


@pytest.mark.usefixtures("fresh_basis_cache")
def test_verify_fails_on_a_wrong_closed_norm(capsys, monkeypatch):
    closed = gz.closed_harmonic_norm_sq
    monkeypatch.setattr(gz, "closed_harmonic_norm_sq", lambda u: closed(u) + 1)
    code, out, err = run_cli(capsys, "verify", "--scope", "gz")
    assert (code, err) == (1, "")
    assert "FAIL basis-norms: harmonic norm () at n=1; " in out
    assert "PASS psi-isometry: " in out
    assert "PASS good-tableau-norms: " in out
    assert out == WRONG_CLOSED_NORM_REPORT


@pytest.mark.usefixtures("fresh_basis_cache")
def test_verify_fails_on_a_dropped_first_row_slot(capsys, monkeypatch):
    """The witness for the first-row step: with the first slot of the
    monomials with x_4 dropped from V(4, 2), the basis, psi, good-tableau
    norm and matrix action checks fail at level 4 and above it, where the
    dropped slot feeds every later slice."""

    def dropped(s, j, second, below, out):
        if (s, second) == (4, False) and 2 in out:
            out[2][len(below[2])] = 0

    _corrupt_slice(monkeypatch, dropped)
    code, out, err = run_cli(capsys, "verify", "--scope", "gz")
    assert (code, err) == (1, "")
    assert out == DROPPED_SLOT_REPORT


@pytest.mark.usefixtures("fresh_basis_cache")
def test_verify_fails_on_a_dropped_basis_vector(capsys, monkeypatch):
    """With the vector of second row (2, 4, 6) left out of the (6, 3)
    basis, the basis falls one short of C(6, 3), and every suite that
    reads the vector by its tableau reports it missing instead of raising."""
    built = gz.iter_basis

    def dropped(n, m):
        return (v for v in built(n, m) if (n, m, v.tableau.second_row) != (6, 3, (2, 4, 6)))

    monkeypatch.setattr(gz, "iter_basis", dropped)
    code, out, err = run_cli(capsys, "verify")
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL basis-orthogonal: n=6 m=3: 19 vectors, not 20",
        "FAIL psi-isometry: n=6, u=(2, 4, 6): a basis vector is missing",
        "FAIL matrices-agree: n=6 k=3 i=1; n=6 k=3 i=2; n=6 k=3 i=3; n=6 k=3 i=4; n=6 k=3 i=5",
        "FAIL decompose-step: missing n=6 u=(2, 4, 6)",
        "FAIL spectral: raised probabilities sum to 7/8, not 1",
    ]
    assert out.endswith("17 checks, 5 failures\n")


@pytest.mark.usefixtures("fresh_basis_cache")
def test_cached_bases_hold_each_vector_once():
    """After a cold ``run_scope("all")`` the cached full bases hold each
    vector only as its dense list: emptying the cache frees at most
    400 KiB of traced memory, where bases that also kept each vector's
    form once read freed over 500 KiB."""
    tracemalloc.start()
    try:
        assert all(result.ok for result in verify.run_scope("all"))
        held = tracemalloc.get_traced_memory()[0]
        gz.full_gz_basis.cache_clear()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 100 * 1024 < freed <= 400 * 1024, freed


def test_verify_fails_on_a_basis_vector_mixed_with_its_neighbour(capsys, monkeypatch):
    """With the (3,) vector of the (4, 2) basis replaced by itself plus the
    (4,) vector, the orthogonality check fails on exactly that pair."""
    cached = verify.full_gz_basis

    def mixed(n, m):
        basis = list(cached(n, m))
        if (n, m) == (4, 2):
            vec, neighbour = basis[2], basis[3]
            mixed_coeffs = [a + b for a, b in zip(vec.coeffs, neighbour.coeffs)]
            basis[2] = gz.GzVector(vec.tableau, mixed_coeffs, vec.keys, vec.norm_sq)
        return tuple(basis)

    monkeypatch.setattr(verify, "full_gz_basis", mixed)
    code, out, err = run_cli(capsys, "verify", "--scope", "gz", "--n-max", "4")
    assert (code, err) == (1, "")
    assert "FAIL basis-orthogonal: n=4 m=2: (3,) vs (4,)\n" in out


def test_verify_fails_on_a_swapped_central_kernel(capsys, monkeypatch):
    closed = verify.central_alpha_transition
    monkeypatch.setattr(verify, "central_alpha_transition", lambda n, k: closed(n, k)[::-1])
    code, out, err = run_cli(capsys, "verify", "--scope", "central", "--n-max", "6")
    assert (code, err) == (1, "")
    assert "FAIL central-kernel: n=0 k=0; " in out
    assert "PASS central-mass: " in out


def test_verify_fails_on_a_corrupted_transposition_matrix(capsys, monkeypatch):
    closed = verify.orthogonal_form_matrix
    monkeypatch.setattr(
        verify, "orthogonal_form_matrix", lambda i, d: [list(c) for c in zip(*closed(i, d))]
    )
    code, out, err = run_cli(capsys, "verify", "--scope", "gz", "--n-max", "4")
    assert (code, err) == (1, "")
    assert "FAIL matrices-agree: n=3 k=1 i=2; " in out
    assert "PASS basis-eigen: " in out
    assert out == CORRUPTED_TRANSPOSITION_MATRIX_REPORT


def test_verify_fails_on_a_swapped_induced_kernel(capsys, monkeypatch):
    closed = verify.induced_transition
    monkeypatch.setattr(verify, "induced_transition", lambda *args: closed(*args)[::-1])
    code, out, err = run_cli(capsys, "verify", "--scope", "markov", "--n-max", "4")
    assert (code, err) == (1, "")
    assert "FAIL decompose-step: stay-norm n=1 u=() m=0 b=0; up-norm n=1 u=() m=0 b=0; " in out
    assert "PASS spectral-markov: " in out
    assert out == SWAPPED_INDUCED_KERNEL_REPORT


def test_verify_fails_on_a_swapped_split(capsys, monkeypatch):
    """With the stay and up pieces of every split exchanged, the norm
    checks fail and the preimage check rejects each piece that is not the
    lift of a harmonic form of its claimed degree."""
    closed = verify.decompose_step
    monkeypatch.setattr(verify, "decompose_step", lambda *args: closed(*args)[::-1])
    code, out, err = run_cli(capsys, "verify", "--scope", "markov", "--n-max", "4")
    assert (code, err) == (1, "")
    assert out == SWAPPED_SPLIT_REPORT


def test_verify_fails_on_a_split_that_does_not_sum_back(capsys, monkeypatch):
    """With every split returned as (stay, stay), the pieces no longer sum
    to d times the whole, and each such split reports only its sum."""
    closed = verify.decompose_step

    def unsummed(*args):
        stay, _ = closed(*args)
        return stay, stay

    monkeypatch.setattr(verify, "decompose_step", unsummed)
    code, out, err = run_cli(capsys, "verify", "--scope", "markov", "--n-max", "4")
    assert (code, err) == (1, "")
    assert out == UNSUMMED_SPLIT_REPORT


def test_verify_fails_on_a_split_that_is_not_orthogonal(capsys, monkeypatch):
    """With half of up moved into stay, the pieces still sum back, but
    wherever up is nonzero they are not orthogonal, their norms are off
    and the shifted stay piece has no harmonic preimage."""
    closed = verify.decompose_step

    def skewed(*args):
        stay, up = closed(*args)
        half = up * Fraction(1, 2)
        return stay + half, half

    monkeypatch.setattr(verify, "decompose_step", skewed)
    code, out, err = run_cli(capsys, "verify", "--scope", "markov", "--n-max", "4")
    assert (code, err) == (1, "")
    assert out == SKEWED_SPLIT_REPORT

def test_verify_fails_on_an_inflated_harmonic_dimension(capsys, monkeypatch):
    rank = verify.harmonic_dim
    monkeypatch.setattr(verify, "harmonic_dim", lambda n, k: rank(n, k) + 1)
    code, out, err = run_cli(capsys, "verify", "--scope", "gz", "--n-max", "4")
    assert (code, err) == (1, "")
    assert "FAIL harmonic-dimension: n=0 k=0: rank gives 2; " in out
    assert "PASS matrices-relations: " in out


def test_verify_fails_module_filling_on_a_rank_one_pivot_short(capsys, monkeypatch):
    """The witness for ``module-filling``: with ``linalg._rank`` one pivot
    short on every nonzero rank, every harmonic dimension from k = 1 on is
    one too large, and the pieces overfill each module they add up to."""
    rank = linalg._rank
    monkeypatch.setattr(linalg, "_rank", lambda rows: max(rank(rows) - 1, 0))
    code, out, err = run_cli(capsys, "verify", "--scope", "gz")
    assert (code, err) == (1, "")
    failed = [line[5:].split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == ["harmonic-dimension", "module-filling"]
    assert "FAIL harmonic-dimension: n=2 k=1: rank gives 2; " in out
    assert "FAIL module-filling: n=2 m=1; " in out


# Closed routes that verify checks, each off by one, and the checks of
# the scope that then fail.
OFF_BY_ONE_ROUTES = [
    (verify, "good_tableau_ratio", "gz", ["good-tableau-ratio"]),
    (verify, "dim", "gz", ["harmonic-dimension"]),
    (gz, "closed_norm_sq_in_H", "gz", ["basis-norms"]),
    (gz, "closed_norm_sq_in_H", "markov", ["spectral", "markov-detector"]),
]


@pytest.mark.usefixtures("fresh_basis_cache")
@pytest.mark.parametrize("module,name,scope,failing", OFF_BY_ONE_ROUTES)
def test_verify_fails_on_a_closed_route_off_by_one(
    capsys, monkeypatch, module, name, scope, failing
):
    closed = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: closed(*args) + 1)
    code, out, err = run_cli(capsys, "verify", "--scope", scope)
    assert (code, err) == (1, "")
    failed = [line[5:].split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == failing


def _restricted_counting_one_numerator_twice(restricted):
    """``SpectralTable.restricted`` reading the first entry of the table
    twice, so its numerator enters the marginal sums twice."""

    class FirstTwice(dict):
        def items(self):
            first, *rest = super().items()
            return [first, first, *rest]

    def corrupted(table):
        twice = object.__new__(markov.SpectralTable)
        twice.level, twice._pairs = table.level, FirstTwice(table._pairs)
        return restricted(twice)

    return corrupted


def _measure_with_a_leaf_unreduced(measure):
    """``spectral_measure`` storing its first leaf's pair doubled: the same
    probability, not in lowest terms."""

    def corrupted(*args):
        table = measure(*args)
        pairs = dict(table._pairs)
        row = next(iter(pairs))
        num, den = pairs[row]
        pairs[row] = (2 * num, 2 * den)
        return markov.SpectralTable._trusted(table.level, pairs)

    return corrupted


# The integer routes of spectral tables, each corrupted, and the checks of
# the markov scope that then fail.
INTEGER_ROUTE_CORRUPTIONS = [
    (
        markov.SpectralTable,
        "restricted",
        _restricted_counting_one_numerator_twice,
        ["spectral", "markov-detector"],
    ),
    (
        verify,
        "spectral_measure",
        _measure_with_a_leaf_unreduced,
        ["spectral-vs-paths", "markov-detector"],
    ),
]


@pytest.mark.parametrize("owner,name,corrupt,failing", INTEGER_ROUTE_CORRUPTIONS)
def test_verify_fails_on_a_corrupted_integer_route(
    capsys, monkeypatch, owner, name, corrupt, failing
):
    monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
    code, out, err = run_cli(capsys, "verify", "--scope", "markov")
    assert (code, err) == (1, "")
    failed = [line[5:].split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == failing


def _yjm_rows_without_fixed_terms(n, k, l):
    """The gather rows of the transposition sum at level l, with every
    count of the transpositions that fix a monomial set to 0."""
    return [(key, 0, gather) for key, _, gather in gz.yjm_rows(n, k, l)]


def test_verify_fails_on_a_transposition_sum_without_fixed_terms(capsys, monkeypatch):
    monkeypatch.setattr(verify, "yjm_rows", _yjm_rows_without_fixed_terms)
    code, out, err = run_cli(capsys, "verify", "--scope", "gz", "--n-max", "4")
    assert (code, err) == (1, "")
    assert "FAIL basis-eigen: harmonic () at n=2; " in out
    assert "PASS basis-norms: " in out
    assert out == NO_FIXED_TERMS_REPORT


def test_run_scope_runs_the_current_suites(monkeypatch):
    """The suite table is read at call time, so a function put in place of
    a ``check_*`` (as a tracing wrapper is) is the one that runs."""
    failed = verify.CheckResult("psi-isometry", False, "patched")
    bounds = []
    monkeypatch.setattr(verify, "check_psi", lambda n_max: bounds.append(n_max) or [failed])
    assert failed in verify.run_scope("gz")
    assert bounds == [8]


def test_central_ceilings_are_independent(monkeypatch):
    """The central-markov pairs stop at their own bound, not at the mass
    bound, and ``--n-max`` lowers all three bounds alike."""
    pairs = []
    real = verify.is_markov
    monkeypatch.setattr(
        verify, "is_markov", lambda a, b: pairs.append((a.level, b.level)) or real(a, b)
    )
    assert all(result.ok for result in verify.check_central(3, 0, 6))
    assert pairs == [(n, n + 1) for n in range(1, 6)]
    bounds = []
    monkeypatch.setattr(verify, "check_central", lambda *b: bounds.append(b) or [])
    verify.run_scope("central")
    verify.run_scope("central", 6)
    assert bounds == [(12, 10, 9), (6, 6, 6)]


def test_central_markov_pairs_reuse_the_deeper_table(monkeypatch):
    """Each central table is built once per call: the Markov pairs read
    the tables of the mass check, the deeper table of one pair serving as
    the shallower of the next; an empty loop builds none."""
    levels = []
    real = verify.central_table
    monkeypatch.setattr(verify, "central_table", lambda n: levels.append(n) or real(n))
    assert all(result.ok for result in verify.check_central(12, 10, 9))
    assert levels == [*range(1, 13)]
    levels.clear()
    for markov_max in (0, 1):
        assert all(result.ok for result in verify.check_central(0, 0, markov_max))
    assert levels == []


def test_scoped_reports_make_up_the_default_report(capsys):
    def check_lines(*argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, err) == (0, "")
        return out.splitlines()[:-1]

    scoped = [line for scope in ("gz", "markov", "central") for line in check_lines("--scope", scope)]
    assert scoped == check_lines()


def test_verify_central_scope(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "central", "--n-max", "6")
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--n", "20", "--m", "1"],
        ["basis", "--n", "16", "--m", "8"],
        ["basis", "--n", "4", "--m", "3"],
        ["measure", "--xi", "11"],
        ["measure", "--xi", "0101", "--n", "5"],
        ["measure", "--xi", "0101", "--n", "0"],
        ["sample", "--xi", "01", "--depth", "6"],
        ["sample", "--central", "--depth", "100"],
        ["sample", "--central", "--depth", "0"],
        ["sample", "--central", "--depth", "5", "--count", "-1"],
        ["measure", "--xi", "11", "--format", "csv"],
        ["sample", "--central", "--depth", "0", "--mode", "trace"],
        ["sample", "--central", "--depth", "5", "--count", "-1", "--mode", "trace"],
    ],
)
def test_usage_errors_exit_2(capsys, tmp_path, argv):
    """A rejected call exits 2 with an ``error:`` line, and makes no
    ``--out`` file: every check runs before the file is opened."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    target = tmp_path / "out.txt"
    assert main([*argv, "--out", str(target)]) == 2
    assert capsys.readouterr().err == captured.err
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--n", "2", "--m", "1"],
        ["measure", "--xi", "01"],
        ["measure", "--xi", "01", "--format", "csv"],
        ["sample", "--central", "--depth", "4", "--count", "3"],
        ["sample", "--central", "--depth", "4", "--count", "3", "--mode", "trace"],
        ["verify", "--scope", "central", "--n-max", "2"],
    ],
)
def test_unopenable_out_file_exits_2(capsys, tmp_path, argv):
    """An ``--out`` path in a missing directory is a usage error: one
    ``error:`` line on stderr, nothing on stdout, and no file made."""
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot open --out {target}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not target.parent.exists()


def test_argparse_rejects_bad_surface(capsys):
    with pytest.raises(SystemExit) as info:
        main(["basis", "--n", "2"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info2:
        main(["sample", "--xi", "01", "--central", "--depth", "2"])
    assert info2.value.code == 2
    capsys.readouterr()


def test_thread_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("YM_THREADS", "4")
    code, _, _ = run_cli(capsys, "basis", "--n", "2", "--m", "1")
    assert code == 0
    monkeypatch.setenv("YM_THREADS", "abc")
    code2 = main(["basis", "--n", "2", "--m", "1"])
    captured = capsys.readouterr()
    assert code2 == 2
    assert "YM_THREADS" in captured.err
    monkeypatch.setenv("YM_THREADS", "0")
    assert main(["basis", "--n", "2", "--m", "1"]) == 2
    capsys.readouterr()


# The command lines that start a fresh interpreter, besides the installed
# ``tworow`` script.
DASH_M = ["tworow", "tworow.cli"]

PIPED = {
    "sample-trace": ["sample", "--central", "--depth", "64", "--count", "2000", "--mode", "trace"],
    "basis": ["basis", "--n", "10", "--m", "5"],
}


@pytest.mark.parametrize(
    "module,argv",
    [(module, argv) for module in DASH_M for argv in PIPED.values()],
    ids=["sample-trace", "basis", "sample-trace-cli", "basis-cli"],
)
def test_closed_stdout_pipe_exits_141(module, argv):
    """A reader that closes the pipe after one line, as ``| head -1`` does,
    ends the command with 128 + SIGPIPE and nothing on stderr; both outputs
    are far larger than a pipe buffer, so the command is still writing."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", module, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def _buffered_env(*paths):
    """The environment with ``paths`` as ``PYTHONPATH`` and without
    ``PYTHONUNBUFFERED``, so a child buffers its stdout as a user's
    ``tworow`` does and only the flush before exit writes the tail."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=os.pathsep.join(map(str, paths)))


def test_run_exits_141_when_its_final_flush_meets_a_closed_pipe(tmp_path):
    """Output still buffered when ``main`` returns meets a reader that has
    gone at ``run``'s flush: the process exits 141 with nothing on stderr,
    as ``main``'s own handler ends it."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys\n"
        "import tworow.cli as cli\n"
        "cli.main = lambda: sys.stdout.write('unflushed') and 0\n"
        "cli.run()\n"
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_buffered_env(src),
            cwd=tmp_path,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def _fresh(module, argv, cwd, pythonpath=()):
    """Runs ``python -m module argv`` in a fresh interpreter with the
    package sources, and ``pythonpath`` before them, on ``PYTHONPATH``."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        env=_buffered_env(*pythonpath, src),
        cwd=cwd,
        timeout=60,
    )


BASIS_10_5 = ["basis", "--n", "10", "--m", "5"]
BASIS_10_5_DIGEST = dict(((n, m), d) for n, m, d in GOLDEN_BASES)[10, 5]


@pytest.mark.parametrize("module", DASH_M)
def test_fresh_basis_loses_no_byte(module, tmp_path):
    """A fresh process writes every byte of a 7.5 MB export before it
    exits, to a pipe and to an ``--out`` file."""
    proc = _fresh(module, BASIS_10_5, tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == BASIS_10_5_DIGEST
    target = tmp_path / "basis.json"
    proc = _fresh(module, [*BASIS_10_5, "--out", str(target)], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == BASIS_10_5_DIGEST


PYENV_VERSIONS = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"


def _cpython(version):
    """An executable of CPython ``version``, such as ``"3.10"``, from
    pyenv's versions or as ``python3.10`` on PATH, or None."""
    candidates = sorted(PYENV_VERSIONS.glob(f"{version}.*/bin/python"))
    candidates.append(shutil.which(f"python{version}"))
    probe = "import sys; print(sys.implementation.name, '%d.%d' % sys.version_info[:2])"
    for exe in filter(None, candidates):
        try:
            proc = subprocess.run(
                [exe, "-I", "-S", "-c", probe], capture_output=True, text=True, timeout=30
            )
        except OSError:
            continue
        if proc.stdout.split() == ["cpython", version]:
            return str(exe)
    return None


def _supported_versions():
    """CPython 3.10 to 3.13 and any later 3.x that pyenv holds."""
    minors = {10, 11, 12, 13}
    for path in PYENV_VERSIONS.glob("3.*.*"):
        minor = path.name.split(".")[1]
        if minor.isdigit() and int(minor) >= 10:
            minors.add(int(minor))
    return [f"3.{minor}" for minor in sorted(minors)]


RUNNING = "%d.%d" % sys.version_info[:2]
# Five documents with their golden digests: the default report, the 10/5
# export, a level-16 measure, and a summary and a trace from one seed.
INTERPRETER_DOCUMENTS = [
    (["verify"], VERIFY_DIGEST),
    (BASIS_10_5, BASIS_10_5_DIGEST),
    (
        ["measure", "--xi", "0101010101010101"],
        {(xi, fmt): d for xi, fmt, d in GOLDEN_MEASURES}["0101010101010101", "json"],
    ),
    *((["sample", "--depth", "64", *flags], digest) for flags, digest in GOLDEN_SAMPLES[::2]),
]


@pytest.mark.parametrize("version", [v for v in _supported_versions() if v != RUNNING])
def test_every_other_supported_interpreter_writes_the_golden_bytes(tmp_path, version):
    """``python -m tworow`` under each other CPython >= 3.10, with the
    sources on ``PYTHONPATH``, writes the golden bytes of five documents;
    a machine without that interpreter skips it."""
    exe = _cpython(version)
    if exe is None:
        pytest.skip(f"no CPython {version} found in {PYENV_VERSIONS} or on PATH")
    src = Path(__file__).resolve().parent.parent / "src"
    for argv, digest in INTERPRETER_DOCUMENTS:
        proc = subprocess.run(
            [exe, "-m", "tworow", *argv],
            capture_output=True,
            env=_buffered_env(src),
            cwd=tmp_path,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, b""), (version, argv)
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, (version, argv)


# Prints, on stderr after the call's stdout, how many ``Fraction``s it
# constructed: all of them on 3.10 and 3.11, where arithmetic results go
# through ``Fraction.__new__`` too.
FRACTION_PROBE = """
import sys
from fractions import Fraction
made = 0
new = Fraction.__new__
def counting(cls, *args, **kwargs):
    global made
    made += 1
    return new(cls, *args, **kwargs)
Fraction.__new__ = counting
from tworow.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(made, file=sys.stderr)
sys.exit(code)
"""

FRACTION_FREE_DOCUMENTS = [
    (BASIS_10_5, BASIS_10_5_DIGEST),
    *((["measure", "--xi", xi, "--format", fmt], d) for xi, fmt, d in GOLDEN_MEASURES[6:8]),
    *((["sample", "--depth", "64", *flags], digest) for flags, digest in GOLDEN_SAMPLES),
]


@pytest.mark.parametrize(
    "argv,digest",
    FRACTION_FREE_DOCUMENTS,
    ids=["basis", "measure-json", "measure-csv", *(f"sample-{i}" for i in range(4))],
)
def test_exports_make_no_fraction(tmp_path, argv, digest):
    """``basis``, ``measure`` and ``sample`` work on integers from the
    closed formulas to the writers: a fresh process writes the golden
    bytes without constructing a single ``Fraction``."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", FRACTION_PROBE, *argv],
        capture_output=True,
        env=_buffered_env(src),
        cwd=tmp_path,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"0\n"), argv
    assert hashlib.sha256(proc.stdout).hexdigest() == digest, argv

def test_python_below_the_floor_cannot_import_the_package(tmp_path):
    """``requires-python`` is ``>=3.10``: under CPython 3.9 the package
    is found but its import fails, today at the first ``int | Fraction``.
    Should it ever pass, the floor is stale."""
    exe = _cpython("3.9")
    if exe is None:
        pytest.skip(f"no CPython 3.9 found in {PYENV_VERSIONS} or on PATH")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [exe, "-m", "tworow", "verify"],
        capture_output=True,
        env=_buffered_env(src),
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == b""
    assert b"Error" in proc.stderr and b"No module named tworow" not in proc.stderr


@pytest.mark.parametrize("module", DASH_M)
@pytest.mark.parametrize(
    "argv,stderr_start",
    [
        (["basis", "--n", "14", "--m", "7"], "error: basis exports at most"),
        (["basis", "--n", "2", "--m", "1", "--out", "missing/out.json"], "error: cannot open"),
        (["basis", "--n", "2"], "usage: tworow basis"),
    ],
    ids=["size-rule", "unopenable-out", "argparse"],
)
def test_fresh_usage_errors_match_in_process(capsys, monkeypatch, tmp_path, module, argv, stderr_start):
    """A usage error exits 2 from a fresh process with the stdout and
    stderr of an in-process ``main``; argparse's own exit prints the
    usage text."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    expect = capsys.readouterr()
    assert code == 2 and expect.err.startswith(stderr_start)
    proc = _fresh(module, argv, tmp_path)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (2, expect.out, expect.err)


def test_cli_ends_without_interpreter_teardown(capsys, tmp_path):
    """``python -m tworow`` flushes its output and ends with ``os._exit``,
    so an atexit hook, here one that ``sitecustomize`` registers, does not
    run, while a plain import of the CLI exits the usual way and runs it."""
    marker = tmp_path / "atexit-ran"
    (tmp_path / "sitecustomize.py").write_text(
        f"import atexit, pathlib\natexit.register(pathlib.Path({str(marker)!r}).touch)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import tworow.cli"],
        capture_output=True,
        env=_buffered_env(tmp_path, src),
        cwd=tmp_path,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert marker.exists()
    marker.unlink()
    assert main(["measure", "--xi", "01"]) == 0
    expect = capsys.readouterr().out
    proc = _fresh("tworow", ["measure", "--xi", "01"], tmp_path, [tmp_path])
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (0, expect, b"")
    assert not marker.exists()


def test_console_script_roundtrip():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "tworow.cli", "measure", "--xi", "01"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["oracle_match"] is True


def test_python_dash_m_package(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "tworow", "verify", "--scope", "gz", "--n-max", "3"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("0 failures")


def test_cli_import_leaves_out_dataclasses_and_inspect(tmp_path):
    """Every call starts a fresh interpreter, so importing the CLI must not
    pull in ``dataclasses`` and the ``inspect``/``ast``/``dis`` it loads."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys\n"
        "import tworow.cli\n"
        "print([m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        cwd=tmp_path,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_cli_loads_every_traced_layer(tmp_path):
    """The benchmark's traced runs look up each layer of ``LAYERS`` in
    ``perfbench/spans.py`` as a loaded ``tworow.<layer>`` module; importing
    the CLI must load them all.  A traced name the module lacks silently
    reads 0 calls, so the only ones allowed, in ``TRACED`` order, are
    ``yjm_apply``, whose work ``verify`` does through ``gz.yjm_rows``; the
    transposition-matrix oracle, which ``verify`` replaced by checking the
    closed matrices' action on the cached basis; and the dict layer of
    ``serialize`` (``json_text``, ``gz_vector_to_dict``, ``trace_to_csv``),
    gone since ``measure`` streams its document through ``write_measure`` as
    ``basis`` does through ``write_basis``, and ``sample`` its trace
    through ``write_trace``."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    probe = (
        "import json, sys\n"
        "import tworow.cli\n"
        "from spans import LAYERS, TOTALS, TRACED\n"
        "loaded = [[l, f'tworow.{l}' in sys.modules] for l in LAYERS]\n"
        "missing = [f'{l}.{f}' for l, fs in {**TRACED, **TOTALS}.items() for f in fs\n"
        "           if not hasattr(sys.modules[f'tworow.{l}'], f)]\n"
        "print(json.dumps([loaded, missing]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded, missing = json.loads(proc.stdout)
    loaded = dict(loaded)
    assert len(loaded) == 8
    assert all(loaded.values()), loaded
    assert missing == [
        "gz.yjm_apply",
        "gz.transposition_matrix_in_basis",
        "serialize.json_text",
        "serialize.gz_vector_to_dict",
        "serialize.trace_to_csv",
    ]


# Runs the CLI on its arguments, then writes the process's own peak
# resident set size (VmHWM, in KiB) to stderr.
PEAK_PROBE = (
    "import sys\n"
    "from tworow.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "with open('/proc/self/status') as status:\n"
    "    sys.stderr.write([l.split()[1] for l in status if l.startswith('VmHWM:')][0])\n"
    "sys.exit(code)\n"
)


def _peak_kib(argv, cwd):
    """The peak resident set size, in KiB, of a fresh process that runs
    the CLI on ``argv`` with its stdout discarded."""
    try:
        with open("/proc/self/status") as status:
            if not any(line.startswith("VmHWM:") for line in status):
                pytest.skip("/proc/self/status has no VmHWM")
    except OSError:
        pytest.skip("no /proc/self/status")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_PROBE, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        cwd=cwd,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr)


def test_measure_peak_memory_barely_grows_from_level_12_to_16(tmp_path):
    """``measure`` writes its JSON one row at a time, so the level-16
    alternating call (12870 table rows, 2.3 MB of JSON) peaks less than
    10 MiB above the level-12 one; building the whole document as dicts
    and text first cost about 25 MiB more."""
    peaks = [
        _peak_kib(["measure", "--xi", xi], tmp_path)
        for xi in ("010101010101", "0101010101010101")
    ]
    assert peaks[1] - peaks[0] < 10 * 1024, peaks


TRACE = ["sample", "--central", "--depth", "64", "--mode", "trace", "--count"]


@pytest.mark.parametrize(
    "small, large, bound_mib",
    [
        (["basis", "--n", "10", "--m", "5"], ["basis", "--n", "12", "--m", "6"], 4),
        (TRACE + ["2000"], TRACE + ["20000"], 2),
    ],
    ids=["basis", "sample-trace"],
)
def test_streamed_peak_memory_barely_grows_with_the_output(tmp_path, small, large, bound_mib):
    """``basis`` writes one vector at a time and ``sample --mode trace``
    one path at a time, so a far larger output costs little more memory:
    the (12, 6) basis (102 MB of JSON) peaks less than 4 MiB above the
    (10, 5) one (7.5 MB), and 20000 traced paths less than 2 MiB above
    2000."""
    peaks = [_peak_kib(argv, tmp_path) for argv in (small, large)]
    assert peaks[1] - peaks[0] < bound_mib * 1024, peaks


def test_installed_entry_point():
    proc = subprocess.run(
        ["tworow", "verify", "--scope", "gz", "--n-max", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("0 failures")
