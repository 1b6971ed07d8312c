"""Numerical oracles: transfer matrices, explicit kernel vectors, SVD
censuses, spectrum sampling, heat traces, and perturbation trials.

The banded census and the block spectrum are pinned to their dense
references (SVD of the block, eigvals of the walk) computed here."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import ssqw

from dense import densify, loop_q_epsilon
from ssqw import checks
from ssqw.analytic import eigenvalue_moduli, transfer_eigenvalues
from ssqw.lattice import (
    OPEN,
    LatticeWindow,
    TruncatedOperator,
    build_evolution,
    build_q_epsilon,
)
from ssqw.model import (
    CoinProfile,
    CoinType,
    LimitCoin,
    ProfileError,
    classify_coin,
    validate_parameters,
)
from ssqw.solver import (
    LOCALIZED_MASS,
    MIN_GAP_RATIO,
    SVD_REL_TOL,
    classification_grid,
    construct_bound_state,
    bound_state_residual,
    fit_decay_rates,
    h_epsilon_band_eigensystem,
    kernel_count_svd,
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

THIRD = 1.0 / math.sqrt(3.0)
SRC_PATH = os.path.dirname(os.path.dirname(ssqw.__file__))


def _params(p: float):
    return validate_parameters(p, math.sqrt(1.0 - p * p))


def _coin(a: float) -> LimitCoin:
    return LimitCoin.symmetric(a, math.sqrt(1.0 - a * a))


TYPE_I_PROFILE = CoinProfile(LimitCoin(1.0, -1.0, 0j), LimitCoin(-1.0, 1.0, 0j))


class TestTransferMatrix:
    def test_e1_wall_matrix(self, e1_params, e1_profile):
        wall = transfer_matrix(e1_params, e1_profile, +1, 0)
        # row x=0: alpha_+(1) = 1.5, alpha_-(0)* = 0.3, beta(0) = -0.8 sqrt(0.75)
        beta0 = math.sqrt(0.75) * (0.0 - 0.8)
        assert wall[0, 0] == pytest.approx(-beta0 / 1.5, abs=1e-15)
        assert wall[0, 1] == pytest.approx(0.3 / 1.5, abs=1e-15)
        assert wall[1, 0] == 1.0 and wall[1, 1] == 0.0

    def test_limit_matrix_has_closed_form_eigenvalues(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            params = random_parameters(rng, p_bound=0.9)
            limit = random_limit_coin(rng, a_bound=0.9)
            profile = CoinProfile(limit, limit)
            for sign in (+1, -1):
                pair = transfer_eigenvalues(params, limit, sign)
                mat = transfer_matrix(params, profile, sign, "L")
                computed = sorted(np.linalg.eigvals(mat), key=lambda z: (z.real, z.imag))
                stated = sorted([pair.z1, pair.z2], key=lambda z: (z.real, z.imag))
                assert max(abs(c - s) for c, s in zip(computed, stated)) < 1e-12
                # eigenvector relation: A P = P diag(z1, z2)
                residual = mat @ pair.p_matrix - pair.p_matrix @ np.diag([pair.z1, pair.z2])
                assert np.max(np.abs(residual)) < 1e-12

    def test_left_and_right_limits_differ(self, e1_params, e1_profile):
        left = transfer_matrix(e1_params, e1_profile, +1, "L")
        right = transfer_matrix(e1_params, e1_profile, +1, "R")
        assert not np.allclose(left, right)

    def test_rejects_vanishing_lead(self, e1_params):
        profile = CoinProfile(_coin(0.5), LimitCoin(1.0, -1.0, 0j))
        with pytest.raises(ProfileError, match="vanishes ahead"):
            transfer_matrix(e1_params, profile, +1, 3)


class TestSandwich:
    def test_e1(self, e1_params, e1_profile):
        assert sandwich_check(e1_params, e1_profile, +1) < 1e-14
        assert sandwich_check(e1_params, e1_profile, -1) < 1e-14

    def test_seeded_draws(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            params = random_parameters(rng)
            profile = CoinProfile(random_limit_coin(rng), random_limit_coin(rng))
            for sign in (+1, -1):
                assert sandwich_check(params, profile, sign) < 1e-11

    def test_needs_type_three(self, e1_params):
        profile = CoinProfile(LimitCoin(1.0, -1.0, 0j), _coin(0.2))
        with pytest.raises(ProfileError, match="both ends"):
            sandwich_check(e1_params, profile, +1)


class TestBoundStates:
    def test_e1_plus_state(self, e1_params, e1_profile):
        window = LatticeWindow(100, OPEN)
        state = construct_bound_state(e1_params, e1_profile, +1, window)
        assert state is not None
        assert state.coin_type is CoinType.III and state.mode == 2
        assert state.decay_left == pytest.approx(THIRD, abs=1e-15)
        assert state.decay_right == pytest.approx(THIRD, abs=1e-15)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-13)
        assert bound_state_residual(state, e1_params, e1_profile) < 1e-10

    def test_e1_minus_state_is_absent(self, e1_params, e1_profile):
        assert construct_bound_state(e1_params, e1_profile, -1, LatticeWindow(50, OPEN)) is None

    def test_type_two_state_lives_on_the_right(self):
        params = _params(0.5)
        profile = CoinProfile(LimitCoin(1.0, -1.0, 0j), _coin(0.2))
        window = LatticeWindow(80, OPEN)
        state = construct_bound_state(params, profile, +1, window)
        assert state is not None and state.coin_type is CoinType.II
        sites = window.sites
        assert np.all(state.amplitudes[sites < 0] == 0)
        assert abs(state.amplitudes[sites == 0][0]) > 0
        assert state.decay_left == 0.0
        assert bound_state_residual(state, params, profile) < 1e-10

    def test_type_two_prime_state_lives_on_the_left(self):
        params = _params(0.5)
        profile = CoinProfile(_coin(0.2), LimitCoin(1.0, -1.0, 0j))
        window = LatticeWindow(80, OPEN)
        state = construct_bound_state(params, profile, -1, window)
        assert state is not None and state.coin_type is CoinType.II_PRIME
        sites = window.sites
        assert np.all(state.amplitudes[sites >= 1] == 0)
        assert state.decay_right == 0.0
        assert bound_state_residual(state, params, profile) < 1e-10

    def test_deep_tails_underflow_to_zero(self, e1_params, e1_profile):
        window = LatticeWindow(2000, OPEN)
        state = construct_bound_state(e1_params, e1_profile, +1, window)
        mags = np.abs(state.amplitudes)
        assert mags[0] == 0.0 and mags[-1] == 0.0  # |z|^2000 underflows
        assert bound_state_residual(state, e1_params, e1_profile) < 1e-12

    def test_residual_matches_the_dense_block_matvec(self, e1_params, e1_profile):
        rng = np.random.default_rng(61)
        cases = [(e1_params, e1_profile)]
        cases += [(random_parameters(rng), random_step_profile(rng)) for _ in range(20)]
        window = LatticeWindow(60, OPEN)
        checked = 0
        for params, profile in cases:
            if not ssqw.is_fredholm(params, profile)[0]:
                continue
            for sign in (+1, -1):
                state = construct_bound_state(params, profile, sign, window)
                if state is None:
                    continue
                block = loop_q_epsilon(window, params, profile, sign)
                want = np.linalg.norm(block @ state.amplitudes) / np.linalg.norm(state.amplitudes)
                # both are relative to |psi| = 1, so they differ by rounding only
                assert abs(bound_state_residual(state, params, profile) - want) <= 1e-15
                checked += 1
        assert checked >= 10

    def test_type_one_wall_delta(self, e1_params):
        window = LatticeWindow(20, OPEN)
        for sign in (+1, -1):
            state = construct_bound_state(e1_params, TYPE_I_PROFILE, sign, window)
            assert state is not None and state.coin_type is CoinType.I
            assert state.mode == 0
            assert state.decay_left == 0.0 and state.decay_right == 0.0
            assert abs(state.amplitudes[window.sites == 0][0]) == 1.0
            assert np.count_nonzero(state.amplitudes) == 1
            # the block is exactly diagonal, so the delta is an exact kernel vector
            assert bound_state_residual(state, e1_params, TYPE_I_PROFILE) == 0.0

    def test_rejects_non_fredholm(self, e1_profile):
        with pytest.raises(ProfileError, match="Fredholm"):
            construct_bound_state(_params(0.8), e1_profile, +1, LatticeWindow(20, OPEN))

    def test_fitted_decay_matches_analytic(self, e1_params, e1_profile):
        state = construct_bound_state(e1_params, e1_profile, +1, LatticeWindow(120, OPEN))
        fitted_left, fitted_right = fit_decay_rates(state)
        assert fitted_left == pytest.approx(state.decay_left, abs=1e-3)
        assert fitted_right == pytest.approx(state.decay_right, abs=1e-3)

    def test_one_sided_fit_reports_zero(self):
        params = _params(0.5)
        profile = CoinProfile(LimitCoin(1.0, -1.0, 0j), _coin(0.2))
        state = construct_bound_state(params, profile, +1, LatticeWindow(120, OPEN))
        fitted_left, fitted_right = fit_decay_rates(state)
        assert fitted_left == 0.0
        assert fitted_right == pytest.approx(state.decay_right, abs=1e-3)


class TestKernelCounts:
    def test_type_one_delta_kernel(self, e1_params):
        window = LatticeWindow(60, OPEN)
        plus, minus = kernel_counts(e1_params, TYPE_I_PROFILE, window)
        for count in (plus, minus):
            assert count.conclusive and count.dimension == 1
            assert count.gap_ratio > 1e6
            vec = count.null_vectors[0]
            peak = np.argmax(np.abs(vec))
            assert window.sites[peak] == 0
            assert abs(vec[peak]) == pytest.approx(1.0, abs=1e-12)

    def test_e1_counts(self, e1_params, e1_profile):
        plus, minus = kernel_counts(e1_params, e1_profile, LatticeWindow(150, OPEN))
        assert (plus.dimension, minus.dimension) == (1, 0)
        assert plus.conclusive and minus.conclusive

    def test_edge_artifacts_are_rejected_not_counted(self):
        # |a(L)| < |p| < |a(R)|: both transfer modes decay from one edge,
        # so the finite section grows a spurious end-localized near-null
        params = _params(0.7)
        profile = CoinProfile(_coin(0.2), _coin(0.9))
        window = LatticeWindow(200, OPEN)
        plus, minus = kernel_counts(params, profile, window)
        assert (plus.dimension, minus.dimension) == (0, 1)
        assert plus.raw_count >= plus.dimension
        assert minus.boundary_rejected + minus.dimension == minus.raw_count

    def test_svd_overlap_with_constructed_state(self, e1_params, e1_profile):
        window = LatticeWindow(150, OPEN)
        count = kernel_count_svd(build_q_epsilon(window, e1_params, e1_profile, +1))
        state = construct_bound_state(e1_params, e1_profile, +1, window)
        assert count.dimension == 1
        overlap = abs(np.vdot(count.null_vectors[0], state.amplitudes))
        assert overlap > 0.9999

    def test_rejects_periodic_window(self, e1_params, e1_profile):
        with pytest.raises(ProfileError, match="cancelling"):
            kernel_counts(e1_params, e1_profile, LatticeWindow(50))


def _dense_census(operator, rel_tol=SVD_REL_TOL, min_gap=MIN_GAP_RATIO):
    """Reference census by a dense SVD of the densified bands: (fields,
    singular values, bulk vectors)."""
    mat = densify(operator.matrix)
    n = mat.shape[0]
    _, s, vh = np.linalg.svd(mat)
    tau = rel_tol * s[0]
    raw = int(np.count_nonzero(s < tau))
    gap = s[-1] / tau if raw == 0 else s[n - raw - 1] / s[n - raw]
    mask = np.abs(operator.window.sites) <= operator.window.half_width // 2
    bulk = [v for v in vh[n - raw:].conj()
            if np.sum(np.abs(v[mask]) ** 2) >= LOCALIZED_MASS * np.sum(np.abs(v) ** 2)]
    fields = (len(bulk), raw, raw - len(bulk), bool(gap >= min_gap))
    return fields, s, bulk


class TestBandedCensusAgreesWithDenseSvd:
    def test_whole_grid_at_small_window(self):
        window = LatticeWindow(60, OPEN)
        vector_checks = 0
        for params, profile in classification_grid():
            for sign in (+1, -1):
                operator = build_q_epsilon(window, params, profile, sign)
                (dimension, raw, rejected, conclusive), s, bulk = _dense_census(operator)
                count = kernel_count_svd(operator)
                assert (count.dimension, count.raw_count, count.boundary_rejected,
                        count.conclusive) == (dimension, raw, rejected, conclusive)
                smallest = s[::-1][:8]
                assert np.max(np.abs(count.smallest_singular_values - smallest)) <= 1e-12 * s[0]
                if dimension == 1:
                    overlap = abs(np.vdot(count.null_vectors[0], bulk[0]))
                    assert overlap > 1.0 - 1e-9
                    vector_checks += 1
        assert vector_checks > 0

    def test_perturbed_profiles_with_several_candidates(self):
        # diagonal overrides cut the chain, so near-null spaces of several
        # dimensions at rounding level mix wall states with edge states
        rng = np.random.default_rng(41)
        window = LatticeWindow(40, OPEN)
        several = 0
        for _ in range(40):
            params = random_parameters(rng)
            base = random_step_profile(rng)
            sites = rng.choice(np.arange(-10, 11), size=int(rng.integers(1, 11)), replace=False)
            profile = CoinProfile(base.left, base.right,
                                  {int(x): random_coin_entry(rng) for x in sites})
            for sign in (+1, -1):
                operator = build_q_epsilon(window, params, profile, sign)
                fields, _, _ = _dense_census(operator)
                count = kernel_count_svd(operator)
                assert (count.dimension, count.raw_count, count.boundary_rejected,
                        count.conclusive) == fields
                several += count.raw_count > 1
        assert several >= 10

    def test_null_vectors_of_complex_blocks_leave_the_gauge(self):
        # a complex q and complex coins give every hopping its own phase
        rng = np.random.default_rng(47)
        window = LatticeWindow(40, OPEN)
        checked = 0
        for _ in range(40):
            params = random_parameters(rng)
            profile = random_step_profile(rng)
            for sign in (+1, -1):
                operator = build_q_epsilon(window, params, profile, sign)
                fields, _, bulk = _dense_census(operator)
                count = kernel_count_svd(operator)
                assert (count.dimension, count.raw_count, count.boundary_rejected,
                        count.conclusive) == fields
                if count.dimension == 1:
                    assert abs(np.vdot(count.null_vectors[0], bulk[0])) > 1.0 - 1e-9
                    checked += 1
        assert checked >= 10

    def test_block_with_only_subdiagonal_hoppings(self):
        # e_i = 0 everywhere: the gauge takes its phases from the subdiagonal;
        # the zero on the diagonal starts a null vector decaying to the right
        rng = np.random.default_rng(59)
        diagonal = np.ones(31, dtype=complex)
        diagonal[15] = 0.0
        sub = 0.5 * np.exp(1j * rng.uniform(-math.pi, math.pi, 30))
        bands = np.array([diagonal, np.zeros(31), np.append(sub, 0.0)])
        count = kernel_count_svd(TruncatedOperator("test", LatticeWindow(15, OPEN), bands))
        _, _, vh = np.linalg.svd(densify(bands))
        assert count.dimension == count.raw_count == 1 and count.conclusive
        assert abs(np.vdot(count.null_vectors[0], vh[-1].conj())) > 1.0 - 1e-9

    def test_several_candidates_span_the_dense_null_space(self):
        # three distinct near-null singular values, well under the threshold,
        # all in the middle half of the window (sites -5, 0 and 5)
        diagonal = np.ones(31, dtype=complex)
        diagonal[[10, 15, 20]] = (1e-10, 3e-11, 1e-12)
        bands = np.array([diagonal, np.append(np.full(30, 1e-13), 0.0), np.zeros(31)])
        count = kernel_count_svd(TruncatedOperator("test", LatticeWindow(15, OPEN), bands))
        _, _, vh = np.linalg.svd(densify(bands))
        assert count.raw_count == count.dimension == 3
        span = count.null_vectors
        assert np.allclose(span.conj() @ span.T, np.eye(3), atol=1e-12)
        for want in vh[-3:].conj():
            assert np.linalg.norm(span.conj() @ want) > 1.0 - 1e-9


class TestResultGuards:
    def test_inconsistent_kernel_count_raises_under_optimization(self):
        code = (
            "import numpy as np\n"
            "from ssqw.solver import KernelCount\n"
            "try:\n"
            "    KernelCount(1, 0, 0, 1.0, True, np.zeros((1, 3)), np.zeros(3))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                                text=True, env=dict(os.environ, PYTHONPATH=SRC_PATH))
        assert result.returncode == 0
        assert "inconsistent" in result.stdout

    def test_census_rejects_candidates_over_the_threshold(self, e1_params, e1_profile,
                                                          monkeypatch):
        operator = build_q_epsilon(LatticeWindow(40, OPEN), e1_params, e1_profile, +1)
        # a solve that returns its right-hand side leaves the random start vectors
        monkeypatch.setattr(scipy.linalg, "solve_banded", lambda lu, ab, rhs: rhs)
        with pytest.raises(RuntimeError, match="over the threshold"):
            kernel_count_svd(operator)

    def test_census_resolves_a_candidate_next_to_the_threshold(self):
        # the first singular value above the threshold is only 0.2% above it
        # (the candidate sits at site 0, in the middle half of the window)
        diagonal = np.ones(31, dtype=complex)
        diagonal[[15, 20]] = (0.999e-8, 1.001e-8)
        bands = np.array([diagonal, np.zeros(31), np.zeros(31)])
        count = kernel_count_svd(TruncatedOperator("test", LatticeWindow(15, OPEN), bands))
        assert count.raw_count == count.dimension == 1 and not count.conclusive
        assert abs(count.null_vectors[0, 15]) == pytest.approx(1.0, abs=1e-12)

    def test_census_rejects_a_ring_block(self, e1_params, e1_profile):
        operator = build_q_epsilon(LatticeWindow(20), e1_params, e1_profile, +1)
        with pytest.raises(ValueError, match="tridiagonal"):
            kernel_count_svd(operator)

    # band row 0 is the diagonal and row 1 the superdiagonal: (3, 3) and (3, 4)
    @pytest.mark.parametrize("entry, value", [((0, 3), 0.5 + 1e-9j), ((1, 3), 1j)],
                             ids=["complex-diagonal", "complex-product"])
    def test_census_rejects_a_block_no_real_gauge_fits(self, e1_params, e1_profile,
                                                       entry, value):
        operator = build_q_epsilon(LatticeWindow(10, OPEN), e1_params, e1_profile, +1)
        bands = operator.matrix.copy()
        bands[entry] = value
        with pytest.raises(ValueError, match="real gauge.*q_epsilon_plus"):
            kernel_count_svd(TruncatedOperator(operator.role, operator.window, bands))

    def test_non_unitary_evolution_fails_the_spectrum_guard(self, e1_params, e1_profile,
                                                            monkeypatch):
        honest = ssqw.lattice.build_r_epsilon

        def inflated(*args):
            diagonal, hop = honest(*args)
            return 1.001 * diagonal, 1.001 * hop

        monkeypatch.setattr(ssqw.solver, "build_r_epsilon", inflated)
        with pytest.raises(RuntimeError, match="unit circle"):
            sample_spectrum(LatticeWindow(10), e1_params, e1_profile)

    def test_inflated_chiral_band_fails_the_spectrum_guard(self, e1_params, e1_profile,
                                                           monkeypatch):
        honest = ssqw.lattice.build_q_epsilon

        def inflated(*args):
            block = honest(*args)
            bands = block.matrix.copy()
            bands[1] *= 1.001
            return TruncatedOperator(block.role, block.window, bands)

        monkeypatch.setattr(ssqw.solver, "build_q_epsilon", inflated)
        with pytest.raises(RuntimeError, match="unit circle"):
            sample_spectrum(LatticeWindow(10), e1_params, e1_profile)

    def test_unconverged_vectors_fail_the_spectrum_guard(self, monkeypatch):
        # a solve that returns its right-hand side leaves random vectors for
        # the modes at +-1 that the walls between diagonal coins pin there
        params = validate_parameters(0.3, math.sqrt(0.91))
        profile = CoinProfile(_coin(0.2), _coin(0.2), {0: ssqw.CoinEntry(1.0, -1.0, 0j),
                                                       1: ssqw.CoinEntry(-1.0, 1.0, 0j)})
        sample_spectrum(LatticeWindow(10), params, profile)
        monkeypatch.setattr(scipy.linalg, "solve_banded", lambda lu, ab, rhs: rhs)
        with pytest.raises(RuntimeError, match="unit circle"):
            sample_spectrum(LatticeWindow(10), params, profile)


class TestSpectrum:
    def test_homogeneous_real_parts_fill_the_interval(self, e1_params):
        profile = CoinProfile(_coin(0.0), _coin(0.0))
        window = LatticeWindow(64)
        eigs = sample_spectrum(window, e1_params, profile)
        assert len(eigs) == 2 * window.size
        assert float(np.max(np.abs(np.abs(eigs) - 1.0))) < 1e-12
        bound = math.sqrt(0.75)
        re = np.sort(eigs.real)
        assert re[0] >= -bound - 1e-12 and re[-1] <= bound + 1e-12
        inside = np.concatenate([[-bound], re, [bound]])
        assert np.max(np.diff(inside)) < 10.0 / window.half_width

    def test_angle_sorted(self, e1_params, e1_profile):
        eigs = sample_spectrum(LatticeWindow(20), e1_params, e1_profile)
        angles = np.angle(eigs)
        assert np.all(np.diff(angles) >= 0)

    def test_rejects_open_window(self, e1_params, e1_profile):
        with pytest.raises(ProfileError, match="periodic"):
            sample_spectrum(LatticeWindow(20, OPEN), e1_params, e1_profile)


def _assert_matches_dense_spectrum(window, params, profile, tol=1e-12):
    """The block spectrum equals eigvals of the dense walk as a multiset."""
    got = sample_spectrum(window, params, profile)
    want = np.linalg.eigvals(build_evolution(window, params, profile).matrix)
    distance = np.abs(got[:, None] - want[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(distance)
    assert float(np.max(distance[rows, cols])) <= tol
    assert float(np.max(np.abs(np.sort(got.real) - np.sort(want.real)))) <= tol


class TestBlockSpectrumAgreesWithDenseEigvals:
    def test_whole_grid_at_small_window(self):
        window = LatticeWindow(16)
        for params, profile in classification_grid():
            _assert_matches_dense_spectrum(window, params, profile)

    def test_random_profiles_with_overrides(self):
        # diagonal coins cut the ring into pieces whose modes sit at +-1 in
        # clusters; norms of the solver's columns there miss Im z by up to 1e-9
        rng = np.random.default_rng(3)
        for _ in range(500):
            half_width = int(rng.integers(1, 40))
            window = LatticeWindow(half_width)
            params = random_parameters(rng)
            base = random_step_profile(rng, diagonal_chance=0.5)
            sites = rng.choice(np.arange(-half_width, half_width + 1),
                               size=int(rng.integers(0, min(6, 2 * half_width + 2))),
                               replace=False)
            profile = CoinProfile(base.left, base.right,
                                  {int(x): random_coin_entry(rng, 0.5) for x in sites})
            _assert_matches_dense_spectrum(window, params, profile)


class TestNearUnitVectors:
    def test_near_unit_vectors_converge(self, monkeypatch):
        # the iteration count in use sits on the converged plateau: tripling
        # it moves no eigenvalue by more than the dense agreement bound, on the
        # profiles whose walls pin modes at +-1
        rng = np.random.default_rng(3)
        cases = []
        for _ in range(100):
            half_width = int(rng.integers(1, 40))
            params = random_parameters(rng)
            base = random_step_profile(rng, diagonal_chance=0.5)
            sites = rng.choice(np.arange(-half_width, half_width + 1),
                               size=int(rng.integers(0, min(6, 2 * half_width + 2))),
                               replace=False)
            profile = CoinProfile(base.left, base.right,
                                  {int(x): random_coin_entry(rng, 0.5) for x in sites})
            cases.append((LatticeWindow(half_width), params, profile))
        steps = ssqw.solver.SPECTRUM_ITERATION_STEPS
        got = [sample_spectrum(*case) for case in cases]
        monkeypatch.setattr(ssqw.solver, "SPECTRUM_ITERATION_STEPS", 3 * steps)
        for case, first in zip(cases, got):
            more = sample_spectrum(*case)
            distance = np.abs(first[:, None] - more[None, :])
            rows, cols = scipy.optimize.linear_sum_assignment(distance)
            assert float(np.max(distance[rows, cols])) <= 1e-12


def _assert_matches_dense_eigh(window, params, profile):
    """Eigenvalues and bulk weights equal those of a dense eigh of R* R.

    Weights are compared summed over clusters of eigenvalues closer than
    1e-6, because within a degenerate eigenspace they depend on the basis.
    """
    mask = np.abs(window.sites) <= window.half_width // 2
    for sign in (+1, -1):
        w, weights = h_epsilon_band_eigensystem(window, params, profile, sign)
        block = loop_q_epsilon(window, params, profile, sign)
        dense_w, dense_v = np.linalg.eigh(block.conj().T @ block)
        assert np.max(np.abs(w - dense_w)) <= 1e-12 * max(dense_w[-1], 1.0)
        dense_weights = np.sum(np.abs(dense_v[mask]) ** 2, axis=0)
        edges = np.flatnonzero(np.diff(dense_w) > 1e-6) + 1
        for members in np.split(np.arange(len(w)), edges):
            assert abs(weights[members].sum() - dense_weights[members].sum()) <= 1e-9


class TestBandEigensystem:
    def test_matches_dense_solver(self, e1_params, e1_profile):
        window = LatticeWindow(30, OPEN)
        for sign in (+1, -1):
            w, weights = h_epsilon_band_eigensystem(window, e1_params, e1_profile, sign)
            block = loop_q_epsilon(window, e1_params, e1_profile, sign)
            dense = np.linalg.eigvalsh(block.conj().T @ block)
            assert np.max(np.abs(np.sort(w) - dense)) < 1e-12
            assert np.all(weights >= -1e-12) and np.all(weights <= 1.0 + 1e-12)

    def test_whole_grid_against_dense_eigh(self):
        window = LatticeWindow(12, OPEN)
        for params, profile in classification_grid():
            _assert_matches_dense_eigh(window, params, profile)

    def test_perturbed_profiles_against_dense_eigh(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            half_width = int(rng.integers(1, 30))
            window = LatticeWindow(half_width, OPEN)
            params = random_parameters(rng)
            base = random_step_profile(rng)
            sites = rng.choice(np.arange(-half_width, half_width + 1),
                               size=int(rng.integers(0, min(8, 2 * half_width + 2))),
                               replace=False)
            profile = CoinProfile(base.left, base.right,
                                  {int(x): random_coin_entry(rng) for x in sites})
            _assert_matches_dense_eigh(window, params, profile)


def _dense_block_bands(window, params, profile, sign):
    # the reference route: the bands read off the site-loop dense block, with
    # zero open-window corners
    block = loop_q_epsilon(window, params, profile, sign)
    zero = np.zeros(1, dtype=complex)
    bands = np.array([np.diag(block), np.concatenate([np.diag(block, 1), zero]),
                      np.concatenate([np.diag(block, -1), zero])])
    label = "plus" if sign == 1 else "minus"
    return TruncatedOperator(f"q_epsilon_{label}", window, bands)


class TestBandEigensystemRoute:
    @pytest.mark.parametrize("point", checks.TRACE_POINTS)  # the first is the e1 wall
    def test_bands_equal_the_dense_block_route_bit_for_bit(self, point, monkeypatch):
        p, a_l, a_r, _ = point
        params, profile = _params(p), CoinProfile(_coin(a_l), _coin(a_r))
        window = LatticeWindow(50, OPEN)
        banded = [h_epsilon_band_eigensystem(window, params, profile, s) for s in (+1, -1)]
        monkeypatch.setattr(ssqw.solver, "build_q_epsilon", _dense_block_bands)
        for sign, (w, weights) in zip((+1, -1), banded):
            dense_w, dense_weights = h_epsilon_band_eigensystem(window, params, profile, sign)
            assert np.array_equal(w, dense_w) and np.array_equal(weights, dense_weights)


class TestTraceIndex:
    def test_e1_estimates_are_frozen(self, e1_params, e1_profile):
        report = trace_index_report(LatticeWindow(300, OPEN), e1_params, e1_profile)
        expected = (0.992672, 0.999802, 1.000000, 1.000000)
        assert report.t_grid == (5.0, 10.0, 20.0, 50.0)
        for estimate, value in zip(report.estimates, expected):
            assert estimate == pytest.approx(value, abs=5e-6)
        assert report.monotone and report.target == 1
        assert abs(report.final - 1.0) < 1e-10

    def test_diagonal_coin_supertrace_is_exactly_zero(self, e1_params):
        window = LatticeWindow(100, OPEN)
        report = trace_index_report(window, e1_params, TYPE_I_PROFILE, (5.0, 50.0))
        for estimate in report.estimates:
            assert estimate == 0.0

    def test_negative_index_point(self):
        params = _params(-0.5)
        profile = CoinProfile(_coin(0.8), _coin(0.0))
        report = trace_index_report(LatticeWindow(200, OPEN), params, profile)
        assert report.target == -1 and abs(report.final + 1.0) < 1e-6
        assert report.monotone

    def test_rejects_periodic_window(self, e1_params, e1_profile):
        with pytest.raises(ProfileError, match="open"):
            trace_index_report(LatticeWindow(50), e1_params, e1_profile, (5.0,))

    def test_rejects_bad_t_grid(self, e1_params, e1_profile):
        window = LatticeWindow(50, OPEN)
        with pytest.raises(ValueError, match="increasing"):
            trace_index_report(window, e1_params, e1_profile, (10.0, 5.0))
        with pytest.raises(ValueError, match="positive"):
            trace_index_report(window, e1_params, e1_profile, (-1.0, 5.0))


class TestClassificationGrid:
    def test_grid_covers_all_types_and_stays_fredholm(self):
        from ssqw.analytic import is_fredholm

        points = classification_grid()
        assert len(points) == 442
        seen = set()
        for params, profile in points:
            seen.add(classify_coin(profile))
            fredholm, _ = is_fredholm(params, profile)
            assert fredholm
            for limit in (profile.left, profile.right):
                if not limit.is_diagonal:
                    assert abs(abs(params.p) - abs(limit.a)) >= 0.05
        assert seen == {CoinType.I, CoinType.II, CoinType.II_PRIME, CoinType.III}

    def test_random_draws_are_valid(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            params = random_parameters(rng)
            validate_parameters(params.p, params.q)
            profile = random_step_profile(rng)
            assert classify_coin(profile) is not CoinType.TRIVIAL_LIMIT


class TestPerturbationTrials:
    def test_e1_invariance(self, e1_params, e1_profile):
        report = perturbation_invariance_test(
            e1_params, e1_profile, trials=5, seed=1, window=LatticeWindow(120, OPEN)
        )
        assert report.base_index == 1
        assert report.n_conclusive >= 1
        assert report.passed
        for trial in report.trials:
            assert trial.sites == tuple(sorted(trial.sites))

    def test_rejects_non_fredholm(self, e1_profile):
        with pytest.raises(ProfileError, match="Fredholm"):
            perturbation_invariance_test(_params(0.8), e1_profile, trials=2)

    def test_rejects_periodic_window(self, e1_params, e1_profile):
        with pytest.raises(ProfileError, match="open"):
            perturbation_invariance_test(
                e1_params, e1_profile, trials=2, window=LatticeWindow(50)
            )
