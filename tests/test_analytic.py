"""Closed-form classification: f identities, transfer eigenvalues, kernel
dimensions, the index theorem, and spectral intervals."""

import math

import numpy as np
import pytest
from hypothesis import assume, given

from ssqw import analytic
from ssqw.analytic import (
    EigenPair,
    alpha_coefficient,
    eigenvalue_moduli,
    essential_spectrum,
    f_kappa,
    fredholm_via_spectral_gap,
    is_fredholm,
    kernel_dimensions,
    sign_flip_identities,
    transfer_eigenvalues,
    witten_index,
)
from ssqw.lattice import OPEN, LatticeWindow, build_q_epsilon
from ssqw.model import (
    CoinProfile,
    CoinType,
    LimitCoin,
    ProfileError,
    validate_parameters,
)
from strategies import (
    limit_coins,
    profiles_with_overrides,
    step_profiles,
    walk_parameters,
)

DIAG_PLUS = LimitCoin(1.0, -1.0, 0j)
DIAG_MINUS = LimitCoin(-1.0, 1.0, 0j)


def _params(p: float):
    return validate_parameters(p, math.sqrt(1.0 - p * p))


def _coin(a: float) -> LimitCoin:
    return LimitCoin.symmetric(a, math.sqrt(1.0 - a * a))


class TestFKappa:
    def test_fixed_values(self):
        assert f_kappa(0.0) == 1.0
        assert f_kappa(0.6) == 2.0
        assert f_kappa(-0.6) == 0.5
        assert f_kappa(0.8) == pytest.approx(3.0, abs=1e-15)
        assert f_kappa(1.0) == math.inf

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            f_kappa(1.5)

    @given(walk_parameters())
    def test_reciprocal_identity(self, params):
        k = params.p
        assert f_kappa(k) * f_kappa(-k) == pytest.approx(1.0, abs=1e-12)

    @given(walk_parameters(p_bound=0.9), walk_parameters(p_bound=0.9))
    def test_composition_identity(self, pa, pb):
        k1, k2 = pa.p, pb.p
        combined = (k1 + k2) / (1.0 + k1 * k2)
        assert f_kappa(k1) * f_kappa(k2) == pytest.approx(
            f_kappa(combined), rel=1e-12
        )


class TestTransferEigenvalues:
    def test_e1_left_limit(self, e1_params):
        pair = transfer_eigenvalues(e1_params, _coin(0.8), +1)
        prefactor = math.sqrt(0.75) / 1.5
        assert pair.z1 == pytest.approx(prefactor * (-0.2) / 0.6, abs=1e-15)
        assert pair.z2 == pytest.approx(prefactor * 1.8 / 0.6, abs=1e-15)
        assert pair.z2 == pytest.approx(math.sqrt(3.0), abs=1e-14)

    def test_e1_right_limit_moduli(self, e1_params):
        pair = transfer_eigenvalues(e1_params, _coin(0.0), +1)
        third = 1.0 / math.sqrt(3.0)
        assert abs(pair.z1) == pytest.approx(third, abs=1e-15)
        assert abs(pair.z2) == pytest.approx(third, abs=1e-15)

    def test_rejects_diagonal_limit(self, e1_params):
        with pytest.raises(ProfileError, match="b != 0"):
            transfer_eigenvalues(e1_params, DIAG_PLUS, +1)

    def test_rejects_bad_sign(self, e1_params):
        with pytest.raises(ValueError, match="sign"):
            transfer_eigenvalues(e1_params, _coin(0.8), 2)

    @given(walk_parameters(p_bound=0.9), limit_coins(allow_diagonal=False, a_bound=0.9))
    def test_moduli_match_f_products(self, params, limit):
        for sign in (+1, -1):
            pair = transfer_eigenvalues(params, limit, sign)
            m1, m2 = eigenvalue_moduli(params.p, limit.a, sign)
            assert abs(pair.z1) == pytest.approx(m1, rel=1e-12)
            assert abs(pair.z2) == pytest.approx(m2, rel=1e-12)

    @given(walk_parameters(p_bound=0.9), limit_coins(allow_diagonal=False, a_bound=0.9))
    def test_moduli_product_is_ratio_of_f_squares(self, params, limit):
        # |z1 z2| = f(-sp)^2, independent of the coin
        for sign in (+1, -1):
            pair = transfer_eigenvalues(params, limit, sign)
            assert abs(pair.z1 * pair.z2) == pytest.approx(
                f_kappa(-sign * params.p) ** 2, rel=1e-12
            )

    def test_eigen_pair_matrix(self):
        pair = EigenPair(2.0 + 0j, 0.5 + 0j)
        assert np.linalg.det(pair.p_matrix) == pytest.approx(1.5, abs=1e-15)
        assert np.array_equal(pair.p_matrix, np.array([[2.0, 0.5], [1.0, 1.0]]))


class TestRecursionWeights:
    def test_alpha(self, e1_params):
        assert alpha_coefficient(e1_params, 0.6, +1) == pytest.approx(0.9, abs=1e-15)
        assert alpha_coefficient(e1_params, 0.6, -1) == pytest.approx(0.3, abs=1e-15)

    def test_beta(self, e1_params):
        # deep in the left limit the block diagonal is s beta = -2 s |q| a(L)
        window = LatticeWindow(6, OPEN)
        profile = CoinProfile(_coin(0.8), _coin(0.0))
        for sign in (+1, -1):
            d = build_q_epsilon(window, e1_params, profile, sign).matrix[0]
            assert d[0] == pytest.approx(-2.0 * sign * math.sqrt(0.75) * 0.8, abs=1e-15)


class TestKernelDimensions:
    @pytest.mark.parametrize(
        "p,left,right,expected",
        [
            # type I: kernels iff the diagonal signs disagree
            (0.5, DIAG_PLUS, DIAG_MINUS, (1, 1)),
            (0.5, DIAG_MINUS, DIAG_PLUS, (1, 1)),
            (0.5, DIAG_PLUS, DIAG_PLUS, (0, 0)),
            (-0.3, DIAG_MINUS, DIAG_MINUS, (0, 0)),
            # type II: diagonal left, sign conditions on -p + aL aR and p + aL aR
            (0.5, DIAG_PLUS, _coin(0.2), (1, 0)),
            (-0.5, DIAG_PLUS, _coin(0.2), (0, 1)),
            (0.5, DIAG_MINUS, _coin(-0.2), (1, 0)),
            (0.5, DIAG_PLUS, _coin(0.8), (0, 0)),
            (0.5, DIAG_PLUS, _coin(-0.8), (1, 1)),
            # type II': mirrored
            (0.5, _coin(0.2), DIAG_PLUS, (0, 1)),
            (-0.5, _coin(0.2), DIAG_PLUS, (1, 0)),
            (0.5, _coin(-0.8), DIAG_PLUS, (1, 1)),
            # type III: interleaving conditions
            (0.5, _coin(0.8), _coin(0.0), (1, 0)),
            (-0.5, _coin(0.8), _coin(0.0), (0, 1)),
            (0.5, _coin(-0.8), _coin(0.0), (1, 0)),
            (0.5, _coin(0.0), _coin(0.8), (0, 1)),
            (0.5, _coin(0.8), _coin(0.9), (0, 0)),
            (0.9, _coin(0.8), _coin(0.0), (0, 0)),
        ],
    )
    def test_tables(self, p, left, right, expected):
        assert kernel_dimensions(_params(p), CoinProfile(left, right)) == expected

    def test_rejects_non_step(self, e1_params, e1_profile):
        from ssqw.model import CoinEntry

        perturbed = CoinProfile(
            e1_profile.left, e1_profile.right, {0: CoinEntry(1.0, -1.0, 0j)}
        )
        with pytest.raises(ProfileError, match="canonical step"):
            kernel_dimensions(e1_params, perturbed)

    def test_rejects_trivial_limit(self, e1_params):
        profile = CoinProfile(LimitCoin(1.0, 1.0, 0j), _coin(0.0))
        with pytest.raises(ProfileError, match="nontrivial"):
            kernel_dimensions(e1_params, profile)

    @given(walk_parameters(), step_profiles())
    def test_dimensions_are_zero_or_one(self, params, profile):
        assume(not (profile.left.is_trivial or profile.right.is_trivial))
        d_plus, d_minus = kernel_dimensions(params, profile)
        assert d_plus in (0, 1) and d_minus in (0, 1)


class TestFredholm:
    def test_reasons_are_frozen_strings(self):
        params = _params(0.8)
        assert is_fredholm(params, CoinProfile(_coin(0.8), _coin(0.0))) == (
            False, "|p| = |a(L)|",
        )
        assert is_fredholm(params, CoinProfile(_coin(0.2), _coin(-0.8))) == (
            False, "|p| = |a(R)|",
        )
        assert is_fredholm(
            params, CoinProfile(LimitCoin(1.0, 1.0, 0j), _coin(0.0))
        ) == (False, "trivial limit coin on the left")
        assert is_fredholm(params, CoinProfile(_coin(0.2), _coin(0.0))) == (True, "")

    @given(walk_parameters(), step_profiles())
    def test_gap_test_agrees(self, params, profile):
        margin = 1.0
        for limit in (profile.left, profile.right):
            if not limit.is_trivial:
                margin = min(margin, abs(abs(params.p) - abs(limit.a)))
        assume(margin > 1e-6)  # both tests are exact-boundary sensitive
        assert fredholm_via_spectral_gap(params, profile) == is_fredholm(params, profile)[0]


class TestWittenIndex:
    def test_e1(self, e1_params, e1_profile):
        report = witten_index(e1_params, e1_profile)
        assert report.fredholm
        assert (report.d_plus, report.d_minus, report.index) == (1, 0, 1)
        assert report.coin_type is CoinType.III
        assert not report.near_boundary

    def test_non_fredholm_point(self, e1_profile):
        report = witten_index(_params(0.8), e1_profile)
        assert not report.fredholm
        assert report.reason == "|p| = |a(L)|"
        assert report.index is None
        assert report.near_boundary

    def test_near_boundary_band_is_configurable(self, e1_profile):
        params = _params(0.8 - 1e-6)
        assert not witten_index(params, e1_profile).near_boundary
        assert witten_index(params, e1_profile, band=1e-5).near_boundary

    @given(walk_parameters(), profiles_with_overrides())
    def test_equals_step_reduction(self, params, profile):
        assert witten_index(params, profile) == witten_index(
            params, profile.step_reduction()
        )

    @given(walk_parameters(), step_profiles())
    def test_index_is_kernel_difference(self, params, profile):
        report = witten_index(params, profile)
        if report.fredholm:
            assert report.index == report.d_plus - report.d_minus
            assert report.index in (-1, 0, 1)
        else:
            assert report.index is None and report.reason

    @given(walk_parameters(), step_profiles())
    def test_agrees_with_the_public_parts(self, params, profile):
        report = witten_index(params, profile, band=0.05)
        assert (report.fredholm, report.reason) == is_fredholm(params, profile)
        if report.coin_type is CoinType.TRIVIAL_LIMIT:
            assert not report.near_boundary
        else:
            margins = analytic._boundary_margins(report.coin_type, params.p,
                                                 profile.left.a, profile.right.a)
            assert report.near_boundary == (min(margins) < 0.05)
        if report.fredholm:
            assert (report.d_plus, report.d_minus) == kernel_dimensions(params, profile)

    def test_corrupted_kernel_table_fails_the_cross_check(self, monkeypatch, e1_params,
                                                          e1_profile):
        table = analytic._kernel_table

        def flipped(*args):
            d_plus, d_minus = table(*args)
            return 1 - d_plus, d_minus

        monkeypatch.setattr(analytic, "_kernel_table", flipped)
        # one table serves both routes
        assert kernel_dimensions(e1_params, e1_profile) == (0, 0)
        with pytest.raises(RuntimeError, match="two-branch form"):
            witten_index(e1_params, e1_profile)

    @pytest.mark.parametrize("a_l,a_r", [(0.8, 0.6), (1.0, 0.5), (0.5, 1.0), (-0.7, 0.7)])
    def test_p_zero_index_vanishes(self, a_l, a_r):
        params = validate_parameters(0.0, 1.0)
        profile = CoinProfile(_grid_coin(a_l), _grid_coin(a_r))
        report = witten_index(params, profile)
        assert report.fredholm and report.index == 0


def _grid_coin(a: float) -> LimitCoin:
    if abs(a) == 1.0:
        return LimitCoin(a, -a, 0j)
    return _coin(a)


class TestEssentialSpectrum:
    def test_homogeneous_window(self, e1_params):
        interval = essential_spectrum(e1_params, _coin(0.0))
        bound = math.sqrt(0.75)
        assert interval.lo == pytest.approx(-bound, abs=1e-15)
        assert interval.hi == pytest.approx(bound, abs=1e-15)
        assert not interval.degenerate
        assert interval.lo <= 0.5 <= interval.hi and not interval.lo <= 0.9 <= interval.hi

    def test_shifted_window(self, e1_params):
        interval = essential_spectrum(e1_params, _coin(0.8))
        assert interval.lo == pytest.approx(0.4 - math.sqrt(0.75) * 0.6, abs=1e-15)
        assert interval.hi == pytest.approx(0.4 + math.sqrt(0.75) * 0.6, abs=1e-15)

    def test_trivial_limit_degenerates(self, e1_params):
        interval = essential_spectrum(e1_params, LimitCoin(1.0, 1.0, 0j))
        assert interval.degenerate
        assert (interval.lo, interval.hi) == (-1.0, 1.0)

    @given(walk_parameters(), limit_coins())
    def test_window_stays_inside_unit_interval(self, params, limit):
        interval = essential_spectrum(params, limit)
        assert -1.0 - 1e-12 <= interval.lo <= interval.hi <= 1.0 + 1e-12


class TestSignFlips:
    @pytest.mark.parametrize("p", [-0.7, -0.3, 0.3, 0.7])
    @pytest.mark.parametrize("a_l,a_r", [(0.8, 0.0), (1.0, 0.5), (0.5, -1.0), (0.9, -0.9)])
    def test_identities_hold(self, p, a_l, a_r):
        report = sign_flip_identities(
            _params(p), CoinProfile(_grid_coin(a_l), _grid_coin(a_r))
        )
        assert report.passed

    def test_rejects_non_fredholm(self, e1_profile):
        with pytest.raises(ProfileError, match="Fredholm"):
            sign_flip_identities(_params(0.8), e1_profile)


class TestNearBoundary:
    def test_type_three_margins(self, e1_profile):
        assert witten_index(_params(0.8 - 1e-10), e1_profile).near_boundary
        assert witten_index(_params(1e-10), e1_profile).near_boundary
        assert not witten_index(_params(0.5), e1_profile).near_boundary

    def test_type_one_margin(self):
        profile = CoinProfile(DIAG_PLUS, DIAG_MINUS)
        # aL aR = -1 is far from the boundary for every p
        assert not witten_index(_params(0.5), profile).near_boundary

    def test_band_is_a_strict_bound(self, e1_profile):
        params = _params(0.5)
        margin = abs(0.5 - 0.8)  # the smallest margin, |p - a(L)|
        for band, flagged in ((margin, False), (math.nextafter(margin, 1.0), True)):
            assert witten_index(params, e1_profile, band).near_boundary is flagged
