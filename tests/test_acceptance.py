"""Acceptance gate: one test per published criterion, each a single
pass/fail line under pytest -v.

Every assertion is exact; the only tolerances are the runtime budgets
stated inline and the 3-sigma window of criterion 9, which is itself
evaluated in integer arithmetic.
"""

import io
import random
import time

from tworow.markov import (
    BitPrefix,
    central_kernel,
    central_table,
    is_markov,
    kernel_from_prefix,
    sample_path,
    transition_counts,
    within_three_sigma,
)
from tworow.serialize import write_trace
from tworow.verify import (
    check_basis,
    check_central,
    check_decompose,
    check_dimensions,
    check_good,
    check_markov_detector,
    check_matrices,
    check_parity,
    check_psi,
    check_spectral,
)


def _all_ok(results):
    bad = [f"{r.name}: {r.detail}" for r in results if not r.ok]
    assert not bad, "; ".join(bad)
    return results


def test_criterion_01_basis_eigenvectors_orthogonality_norms():
    start = time.monotonic()
    _all_ok(check_basis(8))
    assert time.monotonic() - start < 60


def test_criterion_02_spectral_tables_equal_path_products():
    start = time.monotonic()
    _all_ok(check_spectral(8))
    assert time.monotonic() - start < 300


def test_criterion_03_decomposition_step_sums_orthogonality_ratios():
    _all_ok(check_decompose(7))


def test_criterion_04_lift_norm_constant():
    _all_ok(check_psi(8))


def test_criterion_05_distinguished_tableau_constants():
    _all_ok(check_good(12))


def test_criterion_06_central_mass_and_closed_kernel():
    results = _all_ok(check_central(12, 10, 9))
    kernel_detail = next(r.detail for r in results if r.name == "central-kernel")
    assert "(n - 2k + 2)/(2(n - 2k + 1))" in kernel_detail
    assert "no parity restriction" in kernel_detail


def test_criterion_07_alternating_sequence_parity_attribution():
    results = _all_ok(check_parity(8))
    detail = results[0].detail
    assert "odd levels" in detail
    assert "central rows at even" in detail
    assert "opposite parity attribution is refuted" in detail


def test_criterion_08_markov_detector_accepts_and_rejects():
    _all_ok(check_markov_detector())
    for level in range(1, 8):
        assert is_markov(central_table(level), central_table(level + 1)).ok


def test_criterion_09_sampler_frequencies_and_reproducibility():
    start = time.monotonic()
    depth, paths, seed = 12, 100_000, 7
    kernels = [
        kernel_from_prefix(BitPrefix.alternating(depth)),
        central_kernel(depth),
    ]
    for kernel in kernels:
        counts = transition_counts(kernel, depth, paths, seed)
        assert sum(v for (lev, _), (v, _) in counts.items() if lev == 1) == paths
        for (n, k), (visits, ups) in counts.items():
            row = kernel.transition(n, k)
            assert within_three_sigma(visits, ups, row.up, row.den), (n, k, visits, ups, row.p_up)

    def trace(kernel):
        rng = random.Random(seed)
        buf = io.StringIO()
        write_trace(buf, depth, (sample_path(kernel, depth, rng) for _ in range(50)))
        return buf.getvalue()

    for kernel in kernels:
        assert trace(kernel) == trace(kernel)
    assert time.monotonic() - start < 60


def test_criterion_10_dimensions_by_rank_fill_the_module():
    _all_ok(check_dimensions(10))


def test_criterion_11_transposition_matrices():
    _all_ok(check_matrices(6))
