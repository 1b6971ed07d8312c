"""Acceptance gate: every verification criterion, one verdict line per test.

Each test prints a single PASS/FAIL line with the measured quantities
before asserting, so a full run with ``pytest tests/test_acceptance.py
-v -s`` reads as a checklist.  The shared kernel census (banded
singular-value censuses of both chiral blocks at half-width 400 for
every grid point) and the heat-trace test take about a minute each.
The spectrum test samples five rings at half-width 512 by
``sample_spectrum``, which never forms the walk: two Hermitian banded
eigensolves of the unfolded ring blocks of Re U in the chiral basis give
Re z, and R^2 + Q* Q = 1 gives Im z, with eigenvectors only next to +-1;
it takes about half a second.
Everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

from ssqw.analytic import (
    essential_spectrum,
    eigenvalue_moduli,
    kernel_dimensions,
    sign_flip_identities,
    transfer_eigenvalues,
    witten_index,
)
from ssqw.lattice import OPEN, PERIODIC, LatticeWindow, verify_algebra
from ssqw.model import (
    CoinProfile,
    CoinType,
    LimitCoin,
    WalkParameters,
    validate_parameters,
)
from ssqw.solver import (
    classification_grid,
    construct_bound_state,
    bound_state_residual,
    kernel_counts,
    perturbation_invariance_test,
    random_coin_entry,
    random_limit_coin,
    random_parameters,
    random_step_profile,
    sample_spectrum,
    sandwich_check,
    trace_index_report,
    transfer_matrix,
)

CENSUS_WINDOW = LatticeWindow(400, OPEN)


def verdict(name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}: {name}: {detail}")


def _symmetric(a: float, phase: float = 0.0) -> LimitCoin:
    b = math.sqrt(1.0 - a * a) * complex(math.cos(phase), math.sin(phase))
    return LimitCoin.symmetric(a, b)


def _params(p: float) -> WalkParameters:
    return validate_parameters(p, math.sqrt(1.0 - p * p))


@pytest.fixture(scope="module")
def grid_census():
    """Kernel censuses for the whole classification grid, computed once.

    Each block's singular values come from a banded eigensolve of its
    Hermitian dilation; null vectors, which the bound-state test compares
    with the constructed states, come from banded inverse iteration.
    """
    census = []
    for params, profile in classification_grid():
        plus, minus = kernel_counts(params, profile, CENSUS_WINDOW)
        census.append((params, profile, plus, minus))
    return census


def test_operator_algebra_residuals():
    window = LatticeWindow(64, PERIODIC)
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        params = random_parameters(rng)
        profile = random_step_profile(rng)
        if i % 5 == 0:
            overrides = {int(x): random_coin_entry(rng) for x in rng.integers(-20, 21, 3)}
            profile = CoinProfile(profile.left, profile.right, overrides)
        worst = max(worst, verify_algebra(window, params, profile).max_residual)
    elapsed = time.perf_counter() - start
    passed = worst < 1e-11 and elapsed < 60.0
    verdict("operator algebra", passed,
            f"max residual {worst:.3e} over 100 draws at N=64 in {elapsed:.1f}s "
            f"(needs < 1e-11 in < 60s)")
    assert worst < 1e-11
    assert elapsed < 60.0


def test_kernel_census_matches_the_classification(grid_census):
    conclusive = 0
    table_mismatches = []
    index_mismatches = []
    for params, profile, plus, minus in grid_census:
        expected = kernel_dimensions(params, profile)
        report = witten_index(params, profile)
        assert report.fredholm
        assert expected[0] - expected[1] == report.index
        if plus.conclusive and minus.conclusive:
            conclusive += 1
            got = (plus.dimension, minus.dimension)
            if got != expected:
                table_mismatches.append((params.p, profile, got, expected))
            if got[0] - got[1] != report.index:
                index_mismatches.append((params.p, profile, got, report.index))
    fraction = conclusive / len(grid_census)
    passed = not table_mismatches and not index_mismatches and fraction >= 0.95
    verdict("kernel census", passed,
            f"{len(grid_census)} grid points at N=400: {len(table_mismatches)} table "
            f"mismatches, {len(index_mismatches)} index mismatches, "
            f"{100 * fraction:.1f}% conclusive (needs 0, 0, >= 95%)")
    assert not table_mismatches
    assert not index_mismatches
    assert fraction >= 0.95


def test_transfer_eigenvalues_against_generic_eigensolver():
    rng = np.random.default_rng(11)
    worst_eig = 0.0
    worst_mod = 0.0
    for i in range(1000):
        params = random_parameters(rng)
        limit = random_limit_coin(rng)
        sign = +1 if i % 2 == 0 else -1
        side = "L" if i % 4 < 2 else "R"
        profile = CoinProfile(limit, limit)
        pair = transfer_eigenvalues(params, limit, sign)
        numeric = np.linalg.eigvals(transfer_matrix(params, profile, sign, side).matrix)
        direct = max(abs(numeric[0] - pair.z1), abs(numeric[1] - pair.z2))
        swapped = max(abs(numeric[0] - pair.z2), abs(numeric[1] - pair.z1))
        worst_eig = max(worst_eig, min(direct, swapped))
        m1, m2 = eigenvalue_moduli(params.p, limit.a, sign)
        worst_mod = max(worst_mod, abs(abs(pair.z1) - m1), abs(abs(pair.z2) - m2))
    passed = worst_eig < 1e-10 and worst_mod < 1e-12
    verdict("transfer eigenvalues", passed,
            f"worst eigensolver deviation {worst_eig:.3e} (needs < 1e-10), worst "
            f"modulus-product deviation {worst_mod:.3e} (needs < 1e-12) over 1000 draws")
    assert worst_eig < 1e-10
    assert worst_mod < 1e-12


def test_wall_diagonalization_identity():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(200):
        params = random_parameters(rng)
        profile = CoinProfile(random_limit_coin(rng), random_limit_coin(rng))
        for sign in (+1, -1):
            worst = max(worst, sandwich_check(params, profile, sign))
    passed = worst < 1e-11
    verdict("wall diagonalization", passed,
            f"max residual {worst:.3e} over 200 two-sided draws, both signs "
            f"(needs < 1e-11)")
    assert worst < 1e-11


def test_bound_state_certification(grid_census):
    checked = 0
    worst_residual = 0.0
    worst_overlap = 1.0
    failures = []
    for params, profile, plus, minus in grid_census:
        for sign, count in ((+1, plus), (-1, minus)):
            if not count.conclusive or count.dimension != 1:
                continue
            state = construct_bound_state(params, profile, sign, CENSUS_WINDOW)
            if state is None:
                failures.append((params.p, profile, sign, "no constructed state"))
                continue
            residual = bound_state_residual(state, params, profile)
            overlap = abs(np.vdot(count.null_vectors[0], state.amplitudes))
            checked += 1
            worst_residual = max(worst_residual, residual)
            worst_overlap = min(worst_overlap, overlap)
            if residual >= 1e-8 or overlap <= 0.999:
                failures.append((params.p, profile, sign, (residual, overlap)))
    passed = not failures and checked > 0
    verdict("bound states", passed,
            f"{checked} one-dimensional censuses certified: worst residual "
            f"{worst_residual:.3e} (needs < 1e-8), worst overlap {worst_overlap:.6f} "
            f"(needs > 0.999), {len(failures)} failures")
    assert not failures
    assert checked > 0


TRACE_POINTS = (
    # (p, a_left, a_right, expected index)
    (0.5, 0.8, 0.0, +1),
    (-0.5, 0.8, 0.0, -1),
    (0.5, 0.0, 0.8, -1),
    (0.3, 0.9, 0.6, 0),
    (0.7, 0.9, 0.1, +1),
    (-0.7, 0.9, 0.1, -1),
    (0.9, 0.6, 0.3, 0),
    (0.5, -0.8, 0.1, +1),
    (0.6, 0.95, 0.2, +1),
    (-0.4, 0.1, 0.7, +1),
)


def test_heat_trace_estimates_converge_to_the_index():
    window = LatticeWindow(600, OPEN)
    worst = 0.0
    monotone_failures = []
    for p, a_l, a_r, expected in TRACE_POINTS:
        params = _params(p)
        profile = CoinProfile(_symmetric(a_l), _symmetric(a_r))
        report = witten_index(params, profile)
        assert report.fredholm and report.coin_type is CoinType.III
        assert report.index == expected
        trace = trace_index_report(window, params, profile)
        worst = max(worst, abs(trace.final - expected))
        if not trace.monotone:
            monotone_failures.append((p, a_l, a_r))

    diagonal = CoinProfile(LimitCoin(1.0, -1.0, 0j), LimitCoin(-1.0, 1.0, 0j))
    diagonal_trace = trace_index_report(window, _params(0.5), diagonal)
    diagonal_exact = all(e == 0.0 for e in diagonal_trace.estimates)

    passed = worst < 0.1 and not monotone_failures and diagonal_exact
    verdict("heat trace", passed,
            f"worst |estimate(t=50) - index| {worst:.3e} over {len(TRACE_POINTS)} "
            f"points at N=600 (needs < 0.1), {len(monotone_failures)} non-monotone "
            f"grids, b = 0 profile exact zero: {diagonal_exact}")
    assert worst < 0.1
    assert not monotone_failures
    assert diagonal_exact


def _hausdorff_fill(real_parts: np.ndarray, lo: float, hi: float) -> float:
    inside = np.sort(real_parts)
    gaps = [float(inside[0] - lo), float(hi - inside[-1])]
    if len(inside) > 1:
        gaps.append(float(np.max(np.diff(inside))) / 2.0)
    return max(gaps)


def test_spectrum_containment_fill_and_gap():
    window = LatticeWindow(512, PERIODIC)
    budget = 10.0 / 512.0

    worst_overshoot = 0.0
    worst_fill = 0.0
    homogeneous = ((0.5, 0.0, 0.0), (0.3, 0.6, 0.7), (0.6, 0.6, 0.0))
    for p, a, phase in homogeneous:
        params = _params(p)
        coin = _symmetric(a, phase)
        interval = essential_spectrum(params, coin)
        res = np.real(sample_spectrum(window, params, CoinProfile(coin, coin)))
        overshoot = max(float(np.max(res) - interval.hi),
                        float(interval.lo - np.min(res)), 0.0)
        worst_overshoot = max(worst_overshoot, overshoot)
        worst_fill = max(worst_fill, _hausdorff_fill(res, interval.lo, interval.hi))

    gap_ok = True
    gap_details = []
    step_points = ((0.5, 0.8, 0.0), (0.7, 0.9, 0.1))
    for p, a_l, a_r in step_points:
        params = _params(p)
        profile = CoinProfile(_symmetric(a_l), _symmetric(a_r))
        assert witten_index(params, profile).fredholm
        left = essential_spectrum(params, profile.left)
        right = essential_spectrum(params, profile.right)
        lo, hi = min(left.lo, right.lo), max(left.hi, right.hi)
        assert hi < 1.0 - 0.02 and lo > -1.0 + 0.02
        res = np.real(sample_spectrum(window, params, profile))
        outliers = res[(res > hi + 1e-9) | (res < lo - 1e-9)]
        pinned = np.minimum(np.abs(outliers - 1.0), np.abs(outliers + 1.0))
        ok = len(outliers) <= 8 and (len(outliers) == 0 or float(np.max(pinned)) < 0.05)
        gap_ok = gap_ok and ok
        gap_details.append(f"{len(outliers)} wall states outside [{lo:.3f},{hi:.3f}]")

    passed = worst_overshoot < 1e-6 and worst_fill <= budget and gap_ok
    verdict("spectrum", passed,
            f"homogeneous overshoot {worst_overshoot:.2e} (needs < 1e-6), fill "
            f"{worst_fill:.5f} (needs <= {budget:.5f}), gap at +-1 on step profiles: "
            f"{'; '.join(gap_details)}")
    assert worst_overshoot < 1e-6
    assert worst_fill <= budget
    assert gap_ok


def test_compact_perturbations_and_sign_flips():
    params = _params(0.5)
    profile = CoinProfile(_symmetric(0.8), _symmetric(0.0))
    report = perturbation_invariance_test(params, profile, trials=20, seed=5,
                                          window=LatticeWindow(300, OPEN))
    flip_failures = [
        (point_params.p, point_profile)
        for point_params, point_profile in classification_grid()
        if not sign_flip_identities(point_params, point_profile).passed
    ]
    passed = report.passed and report.n_conclusive >= 1 and not flip_failures
    verdict("invariance", passed,
            f"{report.n_conclusive}/20 conclusive perturbation trials all match index "
            f"{report.base_index:+d}; {len(flip_failures)} sign-flip failures on the "
            f"full grid (needs 0)")
    assert report.passed
    assert report.n_conclusive >= 1
    assert not flip_failures


def test_zero_shift_slice_has_zero_index():
    params = _params(0.0)
    fredholm_points = 0
    nonzero = []
    types_seen = set()
    for _, profile in classification_grid(p_values=(0.1,)):
        report = witten_index(params, profile)
        if not report.fredholm:
            continue  # sides with a = 0 sit exactly on |p| = |a|
        fredholm_points += 1
        types_seen.add(report.coin_type)
        if report.index != 0:
            nonzero.append(profile)

    spot_window = LatticeWindow(200, OPEN)
    spot_balanced = True
    for a_l, a_r in ((0.6, -0.6), (0.6, 0.95)):
        spot_profile = CoinProfile(_symmetric(a_l), _symmetric(a_r))
        plus, minus = kernel_counts(params, spot_profile, spot_window)
        expected = kernel_dimensions(params, spot_profile)
        if not (plus.conclusive and minus.conclusive):
            spot_balanced = False
        elif (plus.dimension, minus.dimension) != expected or plus.dimension != minus.dimension:
            spot_balanced = False

    passed = (not nonzero and fredholm_points > 0
              and types_seen == set(CoinType) - {CoinType.TRIVIAL_LIMIT}
              and spot_balanced)
    verdict("zero-shift slice", passed,
            f"{fredholm_points} Fredholm p=0 points across {len(types_seen)} coin "
            f"types, {len(nonzero)} nonzero indices (needs 0), balanced SVD kernels "
            f"at spot checks: {spot_balanced}")
    assert not nonzero
    assert fredholm_points > 0
    assert types_seen == set(CoinType) - {CoinType.TRIVIAL_LIMIT}
    assert spot_balanced
