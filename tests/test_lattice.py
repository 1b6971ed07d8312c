"""Finite-window operator truncations and the operator-algebra oracle."""

import math

import numpy as np
import pytest

from ssqw import checks, lattice
from ssqw.lattice import (
    OPEN,
    PERIODIC,
    LatticeWindow,
    build_evolution,
    build_q_epsilon,
    build_r_epsilon,
    coin_sequences,
    verify_algebra,
)
from ssqw.model import (
    CoinEntry,
    CoinProfile,
    LimitCoin,
    ProfileError,
)
from ssqw.solver import _unfolded_bands, random_coin_entry, random_parameters, random_step_profile
from dense import (
    densify,
    loop_coin,
    loop_coin_sequences,
    loop_epsilon,
    loop_gamma,
    loop_q_epsilon,
    loop_split_step,
)

DIAGONAL_PROFILE = CoinProfile(LimitCoin(1.0, -1.0, 0j), LimitCoin(-1.0, 1.0, 0j))


def _dense_grid(grid):
    """The dense matrix of a band grid of lattice.py, entry by entry."""
    n = len(next(iter(grid[0][0].values())))
    mat = np.zeros((len(grid) * n, len(grid) * n), dtype=complex)
    for i, row in enumerate(grid):
        for j, band in enumerate(row):
            for k, entries in band.items():
                for x in range(n):
                    mat[i * n + x, j * n + (x + k) % n] += entries[x]
    return mat


class TestLatticeWindow:
    def test_geometry(self):
        window = LatticeWindow(3, OPEN)
        assert window.size == 7
        assert list(window.sites) == [-3, -2, -1, 0, 1, 2, 3]
        assert not window.periodic

    def test_validation(self):
        with pytest.raises(ValueError, match="half_width"):
            LatticeWindow(0)
        with pytest.raises(ValueError, match="boundary"):
            LatticeWindow(3, "reflecting")


class TestOperatorGrids:
    @pytest.mark.parametrize("boundary", [PERIODIC, OPEN])
    def test_gamma_and_coin_grids_equal_their_site_loops(self, boundary):
        rng = np.random.default_rng(13)
        for _ in range(10):
            half_width = int(rng.integers(1, 9))
            window = LatticeWindow(half_width, boundary)
            params = random_parameters(rng)
            base = random_step_profile(rng)
            profile = CoinProfile(base.left, base.right, {0: random_coin_entry(rng)})
            assert np.array_equal(_dense_grid(lattice._gamma(window, params)),
                                  loop_gamma(window, params))
            assert np.array_equal(_dense_grid(lattice._coin(window, profile)),
                                  loop_coin(window, profile))

    def test_epsilon_and_split_step_grids_match_their_site_loops(self):
        # vectorized and scalar complex products may round apart by an ulp
        rng = np.random.default_rng(17)
        for half_width in (1, 2, 7):
            window = LatticeWindow(half_width)
            params = random_parameters(rng)
            profile = random_step_profile(rng)
            assert np.max(np.abs(_dense_grid(lattice._epsilon(window, params))
                                 - loop_epsilon(window, params))) <= 1e-15
            assert np.max(np.abs(_dense_grid(lattice._split_step(window, params, profile))
                                 - loop_split_step(window, params, profile))) <= 1e-15

    def test_grid_product_and_adjoint_equal_the_dense_ones(self):
        rng = np.random.default_rng(19)
        for half_width in (1, 2, 9):  # on rings of 3 and 5 sites offsets meet mod n
            window = LatticeWindow(half_width)
            params = random_parameters(rng)
            gamma = lattice._gamma(window, params)
            coin = lattice._coin(window, random_step_profile(rng))
            product = _dense_grid(lattice.grid_product(gamma, coin))
            assert np.max(np.abs(product - _dense_grid(gamma) @ _dense_grid(coin))) <= 1e-15
            adjoint = _dense_grid(lattice.grid_adjoint(lattice.grid_product(coin, gamma)))
            want = (_dense_grid(coin) @ _dense_grid(gamma)).conj().T
            assert np.max(np.abs(adjoint - want)) <= 1e-15

    def test_gamma_is_an_involution_on_rings_only(self, e1_params):
        eye = np.eye(2 * 17)
        ring = _dense_grid(lattice._gamma(LatticeWindow(8), e1_params))
        assert np.max(np.abs(ring - ring.conj().T)) == 0.0
        assert np.max(np.abs(ring @ ring - eye)) < 1e-15
        segment = _dense_grid(lattice._gamma(LatticeWindow(8, OPEN), e1_params))
        assert np.max(np.abs(segment @ segment - eye)) > 0.1

    def test_coin_override_lands_at_its_site(self, e1_profile):
        override = CoinEntry(0.28, -0.28, 0.96)
        perturbed = CoinProfile(e1_profile.left, e1_profile.right, {0: override})
        window = LatticeWindow(4)
        a1, a2, b = coin_sequences(window, perturbed)
        i = window.half_width
        assert (a1[i], a2[i], b[i]) == (0.28, -0.28, 0.96)
        assert a1[i - 1] == 0.8 and a1[i + 1] == 0.0

    def test_evolution_is_unitary_on_ring(self):
        rng = np.random.default_rng(3)
        window = LatticeWindow(8)
        for _ in range(5):
            params = random_parameters(rng)
            profile = random_step_profile(rng)
            u = build_evolution(window, params, profile).matrix
            assert np.max(np.abs(u.conj().T @ u - np.eye(2 * window.size))) < 1e-14

    def test_evolution_equals_the_split_step_site_loop(self, e1_params, e1_profile):
        window = LatticeWindow(8)
        u = build_evolution(window, e1_params, e1_profile).matrix
        assert np.max(np.abs(u - loop_split_step(window, e1_params, e1_profile))) < 1e-15


class TestQEpsilonBlock:
    def test_e1_wall_row(self, e1_params, e1_profile):
        window = LatticeWindow(6, OPEN)
        d, e, f = build_q_epsilon(window, e1_params, e1_profile, +1).matrix
        i = window.half_width  # row of site x = 0
        beta0 = math.sqrt(0.75) * (0.0 - 0.8)
        assert d[i] == pytest.approx(beta0, abs=1e-15)
        # superdiagonal alpha_+(1) = (1 + p) b(1), subdiagonal -alpha_-(0)*
        assert e[i] == pytest.approx(1.5 * 1.0, abs=1e-15)
        assert f[i - 1] == pytest.approx(-0.5 * 0.6, abs=1e-15)

    @pytest.mark.parametrize("boundary", [PERIODIC, OPEN])
    def test_adjoint_pairing_is_exact(self, boundary):
        # R_plus* = -R_minus: the diagonal is real, and the adjoint swaps the
        # super- and subdiagonal, the ring corners included
        rng = np.random.default_rng(11)
        window = LatticeWindow(9, boundary)
        for _ in range(5):
            params = random_parameters(rng)
            profile = random_step_profile(rng)
            r_plus = build_q_epsilon(window, params, profile, +1).matrix
            r_minus = build_q_epsilon(window, params, profile, -1).matrix
            assert np.array_equal(r_plus[[0, 2, 1]].conj(), -r_minus)

    def test_periodic_corners_wrap(self, e1_params, e1_profile):
        ring = build_q_epsilon(LatticeWindow(5), e1_params, e1_profile, +1).matrix
        open_ = build_q_epsilon(LatticeWindow(5, OPEN), e1_params, e1_profile, +1).matrix
        assert ring.shape == open_.shape == (3, 11)
        assert ring[1, -1] != 0 and ring[2, -1] != 0
        assert open_[1, -1] == 0 and open_[2, -1] == 0
        # all rows but the last agree; the ring's last row hosts the second
        # (wrap-around) domain wall, so its beta uses the wrapped left coin
        assert np.array_equal(ring[:, :-1], open_[:, :-1])
        beta_wrapped = e1_params.abs_q * (e1_profile.left.a2 - e1_profile.right.a1)
        assert ring[0, -1] == pytest.approx(beta_wrapped, abs=1e-15)
        assert open_[0, -1] == pytest.approx(
            e1_params.abs_q * (e1_profile.right.a2 - e1_profile.right.a1), abs=1e-15
        )

    def test_diagonal_profile_gives_diagonal_blocks(self, e1_params):
        window = LatticeWindow(8)
        for sign in (+1, -1):
            bands = build_q_epsilon(window, e1_params, DIAGONAL_PROFILE, sign).matrix
            assert not np.any(bands[1:])

    def test_h_epsilon_is_gram_matrix_of_block(self, e1_params, e1_profile):
        # the block Hamiltonian R* R equals -R_flip R, window truncation
        # included, because R* = -R_flip
        window = LatticeWindow(7, OPEN)
        for sign in (+1, -1):
            r = densify(build_q_epsilon(window, e1_params, e1_profile, sign).matrix)
            flip = densify(build_q_epsilon(window, e1_params, e1_profile, -sign).matrix)
            assert np.array_equal(r.conj().T @ r, -flip @ r)

    def test_rejects_bad_arguments(self, e1_params, e1_profile):
        with pytest.raises(ValueError, match="sign"):
            build_q_epsilon(LatticeWindow(4), e1_params, e1_profile, 0)


class TestVectorizedAssembly:
    @pytest.mark.parametrize("boundary", [OPEN, PERIODIC])
    def test_matches_the_site_loop_exactly(self, boundary):
        rng = np.random.default_rng(31)
        for draw in range(40):
            half_width = int(rng.integers(1, 13))
            window = LatticeWindow(half_width, boundary)
            params = random_parameters(rng)
            base = random_step_profile(rng)
            # overrides inside, at the edges of and just beyond the window
            reach = half_width + 2
            sites = rng.choice(np.arange(-reach, reach + 1), size=int(rng.integers(0, 5)),
                               replace=False)
            profile = CoinProfile(base.left, base.right,
                                  {int(x): random_coin_entry(rng) for x in sites})
            for got, want in zip(coin_sequences(window, profile),
                                 loop_coin_sequences(window, profile)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            for sign in (+1, -1):
                got = densify(build_q_epsilon(window, params, profile, sign).matrix)
                want = loop_q_epsilon(window, params, profile, sign)
                assert np.array_equal(got, want), (draw, sign)


def _dense_ring(diagonal, hop):
    """The Hermitian cyclic tridiagonal block with these bands: hop[x] at
    (x, x+1) and its conjugate at (x+1, x), x+1 cyclic."""
    n = len(diagonal)
    rows = np.arange(n)
    ahead = (rows + 1) % n
    mat = np.diag(diagonal).astype(complex)
    mat[rows, ahead] = hop
    mat[ahead, rows] = hop.conj()
    return mat


class TestRealPartBlocks:
    def test_chiral_basis_block_diagonalizes_the_real_part(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            half_width = int(rng.integers(1, 13))
            window = LatticeWindow(half_width)
            n = window.size
            params = random_parameters(rng)
            base = random_step_profile(rng)
            sites = rng.choice(np.arange(-half_width, half_width + 1),
                               size=int(rng.integers(1, 5)), replace=False)
            profile = CoinProfile(base.left, base.right,
                                  {int(x): random_coin_entry(rng) for x in sites})
            u = build_evolution(window, params, profile).matrix
            eps = loop_epsilon(window, params)
            real_part = eps.conj().T @ ((u + u.conj().T) / 2) @ eps
            blocks = [build_r_epsilon(window, params, profile, sign) for sign in (+1, -1)]
            for diagonal, hop in blocks:
                assert diagonal.dtype == float and diagonal.shape == hop.shape == (n,)
            r_plus, r_minus = (_dense_ring(diagonal, hop) for diagonal, hop in blocks)
            zero = np.zeros((n, n))
            expected = np.block([[r_plus, zero], [zero, r_minus]])
            assert np.max(np.abs(real_part - expected)) < 1e-14

    @pytest.mark.parametrize("half_width", [1, 2, 17])
    def test_unfolded_band_storage_is_the_permuted_ring(self, half_width):
        rng = np.random.default_rng(67 + half_width)
        window = LatticeWindow(half_width)
        params = random_parameters(rng)
        base = random_step_profile(rng)
        sites = rng.choice(window.sites, size=min(3, window.size), replace=False)
        profile = CoinProfile(base.left, base.right,
                              {int(x): random_coin_entry(rng) for x in sites})
        for sign in (+1, -1):
            diagonal, hop = build_r_epsilon(window, params, profile, sign)
            order, bands = _unfolded_bands(diagonal, hop)
            assert sorted(order) == list(range(window.size))
            permuted = _dense_ring(diagonal, hop)[np.ix_(order, order)]
            n = window.size
            unpacked = np.zeros((n, n), dtype=complex)
            for offset in range(3):
                cols = np.arange(offset, n)
                unpacked[cols - offset, cols] = bands[2 - offset, offset:]
            upper = np.triu(unpacked, 1)
            assert np.array_equal(np.diag(np.diag(unpacked)) + upper + upper.conj().T, permuted)
            assert not np.any(bands[0, :2]) and bands[1, 0] == 0

    def test_rejects_bad_arguments(self, e1_params, e1_profile):
        with pytest.raises(ProfileError, match="periodic"):
            build_r_epsilon(LatticeWindow(4, OPEN), e1_params, e1_profile, +1)
        with pytest.raises(ValueError, match="sign"):
            build_r_epsilon(LatticeWindow(4), e1_params, e1_profile, 0)


def _bumped(grid, row, column, offset, site, amount):
    """A copy of a band grid with ``amount`` added to one entry."""
    out = [[dict(band) for band in line] for line in grid]
    entries = out[row][column][offset].copy()
    entries[site] += amount
    out[row][column][offset] = entries
    return out


class TestVerifyAlgebra:
    def test_seeded_draws_stay_under_oracle_threshold(self):
        rng = np.random.default_rng(5)
        window = LatticeWindow(16)
        for _ in range(5):
            report = verify_algebra(window, random_parameters(rng), random_step_profile(rng))
            assert report.max_residual < 1e-12, report.residuals

    def test_one_draw_at_oracle_size(self):
        rng = np.random.default_rng(6)
        report = verify_algebra(
            LatticeWindow(64), random_parameters(rng), random_step_profile(rng)
        )
        assert report.max_residual < 1e-12

    def test_residual_keys_are_stable(self, e1_params, e1_profile):
        report = verify_algebra(LatticeWindow(8), e1_params, e1_profile)
        assert set(report.residuals) == {
            "gamma_involution", "coin_involution", "evolution_definition",
            "supercharge_definition", "chiral_anticommutation",
            "epsilon_unitarity", "epsilon_gamma_diagonal",
            "offdiagonal_block_plus", "offdiagonal_block_minus",
            "diagonal_blocks_vanish",
        }

    def test_a_wrong_walk_entry_fails_the_evolution_definition(self, e1_params, e1_profile,
                                                               monkeypatch):
        # entry (3, 4) of the walk: upper component, offset +1, site 3
        honest = lattice._evolution
        monkeypatch.setattr(lattice, "_evolution",
                            lambda *args: _bumped(honest(*args), 0, 0, 1, 3, 1e-6))
        report = verify_algebra(LatticeWindow(8), e1_params, e1_profile)
        assert report.residuals["evolution_definition"] == pytest.approx(1e-6, rel=1e-6)
        assert report.max_residual > checks.ALGEBRA_BOUND

    def test_a_wrong_shift_entry_fails_the_evolution_definition(self, e1_params, e1_profile,
                                                                monkeypatch):
        # the walk and gamma @ coin share the wrong factor; the site formula does not
        honest = lattice._gamma
        monkeypatch.setattr(lattice, "_gamma",
                            lambda *args: _bumped(honest(*args), 0, 0, 0, 2, 1e-6))
        report = verify_algebra(LatticeWindow(8), e1_params, e1_profile)
        assert report.residuals["evolution_definition"] > checks.ALGEBRA_BOUND

    def test_diagonal_profile_anticommutator_vanishes(self, e1_params):
        report = verify_algebra(LatticeWindow(12), e1_params, DIAGONAL_PROFILE)
        assert report.residuals["chiral_anticommutation"] < 1e-14
        assert report.max_residual < checks.ALGEBRA_BOUND

    def test_rejects_open_windows(self, e1_params, e1_profile):
        with pytest.raises(ProfileError, match="periodic"):
            verify_algebra(LatticeWindow(8, OPEN), e1_params, e1_profile)

    def test_band_residuals_match_dense_identities(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            half_width = int(rng.integers(1, 13))
            window = LatticeWindow(half_width)
            params = random_parameters(rng)
            base = random_step_profile(rng)
            sites = rng.choice(np.arange(-half_width, half_width + 1),
                               size=int(rng.integers(0, 4)), replace=False)
            profile = CoinProfile(base.left, base.right,
                                  {int(x): random_coin_entry(rng) for x in sites})
            got = verify_algebra(window, params, profile).residuals
            want = _dense_residuals(window, params, profile)
            assert set(got) == set(want)
            for key in want:
                assert abs(got[key] - want[key]) <= 1e-15, (key, got[key], want[key])


def _dense_residuals(window, params, profile):
    """verify_algebra's identities evaluated on the dense site-loop operators."""
    n = window.size
    eye = np.eye(2 * n)
    gamma = loop_gamma(window, params)
    coin = loop_coin(window, profile)
    evolution = gamma @ coin
    q = (gamma @ coin - coin @ gamma) / 2j
    eps = loop_epsilon(window, params)
    conjugated = eps.conj().T @ q @ eps
    q_plus = loop_q_epsilon(window, params, profile, +1) / (-2j)
    q_minus = loop_q_epsilon(window, params, profile, -1) / (-2j)

    def max_abs(mat):
        return float(np.max(np.abs(mat)))

    return {
        "gamma_involution": max_abs(gamma @ gamma - eye),
        "coin_involution": max_abs(coin @ coin - eye),
        "evolution_definition": max_abs(evolution - loop_split_step(window, params, profile)),
        "supercharge_definition": max_abs(2j * q - (evolution - evolution.conj().T)),
        "chiral_anticommutation": max_abs(q @ gamma + gamma @ q),
        "epsilon_unitarity": max_abs(eps.conj().T @ eps - eye),
        "epsilon_gamma_diagonal": max_abs(eps.conj().T @ gamma @ eps
                                          - np.diag(np.repeat([1.0, -1.0], n))),
        "offdiagonal_block_plus": max_abs(conjugated[n:, :n] - q_plus),
        "offdiagonal_block_minus": max_abs(conjugated[:n, n:] - q_minus),
        "diagonal_blocks_vanish": max(max_abs(conjugated[:n, :n]),
                                      max_abs(conjugated[n:, n:])),
    }
