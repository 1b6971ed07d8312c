"""Acceptance gate: every verification criterion at full size, one verdict line per test.

Each test runs a check of ``ssqw.checks`` at the ``FULL`` sizes that
``ssqw verify --full`` uses, prints its PASS/FAIL line, so that ``pytest
tests/test_acceptance.py -v -s`` reads as a checklist, and asserts it.
The bound-state and spectrum seeds are those ``ssqw verify`` derives from
its default ``--seed 7``.  The shared kernel census (both chiral blocks at
half-width 400 on the whole grid) takes about 50 s, the heat trace (ten
walls at half-width 600) about 10 s; everything else is seconds.
"""

import time

import pytest

from ssqw import checks


@pytest.fixture(scope="module")
def grid_census():
    """Kernel censuses for the whole classification grid, computed once."""
    return checks.kernel_census(checks.FULL)


def _gate(result: checks.CheckResult) -> None:
    print(result.line())
    assert result.passed, result.line()


def test_operator_algebra_residuals():
    start = time.perf_counter()
    result = checks.operator_algebra(seed=7, half_width=64, draws=100)
    elapsed = time.perf_counter() - start
    print(f"{result.line()} in {elapsed:.1f}s (needs < 60s)")
    assert result.passed
    assert elapsed < 60.0


def test_kernel_census_matches_the_classification(grid_census):
    _gate(checks.kernel_count_grid(grid_census))


def test_transfer_eigenvalues_against_generic_eigensolver():
    _gate(checks.transfer_eigenvalues(seed=11))


def test_wall_diagonalization_identity():
    _gate(checks.wall_diagonalization(seed=23))


def test_bound_state_certification(grid_census):
    _gate(checks.bound_states(grid_census, seed=10))


def test_heat_trace_estimates_converge_to_the_index():
    _gate(checks.heat_trace(checks.FULL))


def test_spectrum_containment_fill_and_gap():
    _gate(checks.spectrum_sampling(checks.FULL, seed=11))


def test_compact_perturbations_and_sign_flips():
    _gate(checks.compact_perturbations(checks.FULL, seed=5))
    _gate(checks.sign_flip_identities())


def test_zero_shift_slice_has_zero_index():
    _gate(checks.p_zero_slice())
