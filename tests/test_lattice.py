"""Finite-window operator truncations and the operator-algebra oracle."""

import math

import numpy as np
import pytest

from ssqw import lattice
from ssqw.lattice import (
    OPEN,
    PERIODIC,
    LatticeWindow,
    build_coin,
    build_epsilon,
    build_evolution,
    build_gamma,
    build_q_epsilon,
    build_r_epsilon,
    build_supercharge,
    coin_sequences,
    verify_algebra,
)
from ssqw.model import (
    CoinEntry,
    CoinProfile,
    LimitCoin,
    ProfileError,
    validate_parameters,
)
from ssqw.analytic import alpha_coefficient
from ssqw.solver import _unfolded_bands, random_coin_entry, random_parameters, random_step_profile

DIAGONAL_PROFILE = CoinProfile(LimitCoin(1.0, -1.0, 0j), LimitCoin(-1.0, 1.0, 0j))


class TestLatticeWindow:
    def test_geometry(self):
        window = LatticeWindow(3, OPEN)
        assert window.size == 7
        assert list(window.sites) == [-3, -2, -1, 0, 1, 2, 3]
        assert not window.periodic

    def test_wrap(self):
        window = LatticeWindow(3)
        assert window.wrap(4) == -3
        assert window.wrap(-4) == 3
        assert window.wrap(2) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="half_width"):
            LatticeWindow(0)
        with pytest.raises(ValueError, match="boundary"):
            LatticeWindow(3, "reflecting")


class TestOperatorBuilders:
    def test_gamma_is_selfadjoint_involution_on_ring(self, e1_params):
        window = LatticeWindow(8)
        g = build_gamma(window, e1_params).matrix
        assert np.max(np.abs(g - g.conj().T)) == 0.0
        assert np.max(np.abs(g @ g - np.eye(2 * window.size))) < 1e-15

    def test_gamma_involution_fails_on_open_ends(self, e1_params):
        window = LatticeWindow(8, OPEN)
        g = build_gamma(window, e1_params).matrix
        assert np.max(np.abs(g @ g - np.eye(2 * window.size))) > 0.1

    def test_e1_coin_squares_to_identity(self, e1_params, e1_profile):
        window = LatticeWindow(8)
        c = build_coin(window, e1_profile).matrix
        assert np.max(np.abs(c @ c - np.eye(2 * window.size))) < 1e-14

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

    def test_supercharge_equals_antisymmetrized_evolution(self, e1_params, e1_profile):
        window = LatticeWindow(8)
        u = build_evolution(window, e1_params, e1_profile).matrix
        q = build_supercharge(window, e1_params, e1_profile).matrix
        assert np.max(np.abs(2j * q - (u - u.conj().T))) < 1e-15

    def test_epsilon_requires_ring(self, e1_params):
        with pytest.raises(ProfileError, match="periodic"):
            build_epsilon(LatticeWindow(8, OPEN), e1_params)


class TestQEpsilonBlock:
    def test_e1_wall_row(self, e1_params, e1_profile):
        window = LatticeWindow(6, OPEN)
        mat = build_q_epsilon(window, e1_params, e1_profile, +1).matrix
        i = window.half_width  # row of site x = 0
        beta0 = math.sqrt(0.75) * (0.0 - 0.8)
        assert mat[i, i] == pytest.approx(beta0, abs=1e-15)
        # superdiagonal alpha_+(1) = (1 + p) b(1), subdiagonal -alpha_-(0)*
        assert mat[i, i + 1] == pytest.approx(1.5 * 1.0, abs=1e-15)
        assert mat[i, i - 1] == pytest.approx(-0.5 * 0.6, abs=1e-15)

    @pytest.mark.parametrize("boundary", [PERIODIC, OPEN])
    def test_adjoint_pairing_is_exact(self, boundary):
        rng = np.random.default_rng(11)
        window = LatticeWindow(9, boundary)
        for _ in range(5):
            params = random_parameters(rng)
            profile = random_step_profile(rng)
            r_plus = build_q_epsilon(window, params, profile, +1).matrix
            r_minus = build_q_epsilon(window, params, profile, -1).matrix
            assert np.array_equal(r_plus.conj().T, -r_minus)

    def test_periodic_corners_wrap(self, e1_params, e1_profile):
        ring = build_q_epsilon(LatticeWindow(5), e1_params, e1_profile, +1).matrix
        open_ = build_q_epsilon(LatticeWindow(5, OPEN), e1_params, e1_profile, +1).matrix
        assert ring[-1, 0] != 0 and ring[0, -1] != 0
        assert open_[-1, 0] == 0 and open_[0, -1] == 0
        # all rows but the last agree; the ring's last row hosts the second
        # (wrap-around) domain wall, so its beta uses the wrapped left coin
        tridiagonal = np.triu(np.tril(ring, 1), -1)
        assert np.array_equal(tridiagonal[:-1], open_[:-1])
        beta_wrapped = e1_params.abs_q * (e1_profile.left.a2 - e1_profile.right.a1)
        assert ring[-1, -1] == pytest.approx(beta_wrapped, abs=1e-15)
        assert open_[-1, -1] == pytest.approx(
            e1_params.abs_q * (e1_profile.right.a2 - e1_profile.right.a1), abs=1e-15
        )

    def test_diagonal_profile_gives_diagonal_blocks(self, e1_params):
        window = LatticeWindow(8)
        for sign in (+1, -1):
            mat = build_q_epsilon(window, e1_params, DIAGONAL_PROFILE, sign).matrix
            assert np.max(np.abs(mat - np.diag(np.diag(mat)))) == 0.0

    def test_h_epsilon_is_gram_matrix_of_block(self, e1_params, e1_profile):
        # the block Hamiltonian R* R equals -R_flip R, window truncation
        # included, because R* = -R_flip
        window = LatticeWindow(7, OPEN)
        for sign in (+1, -1):
            r = build_q_epsilon(window, e1_params, e1_profile, sign).matrix
            flip = build_q_epsilon(window, e1_params, e1_profile, -sign).matrix
            assert np.array_equal(r.conj().T @ r, -flip @ r)

    def test_rejects_bad_arguments(self, e1_params, e1_profile):
        with pytest.raises(ValueError, match="sign"):
            build_q_epsilon(LatticeWindow(4), e1_params, e1_profile, 0)


def _loop_coin_sequences(window, profile):
    """Site-by-site reference for the vectorized coin_sequences."""
    a1 = np.empty(window.size)
    a2 = np.empty(window.size)
    b = np.empty(window.size, dtype=complex)
    for i, x in enumerate(window.sites):
        e = profile.entry(int(x))
        a1[i], a2[i], b[i] = e.a1, e.a2, e.b
    return a1, a2, b


def _loop_q_epsilon(window, params, profile, sign):
    """Site-by-site reference for the vectorized build_q_epsilon."""
    n = window.size

    def entry(x):
        return profile.entry(window.wrap(x) if window.periodic else x)

    mat = np.zeros((n, n), dtype=complex)
    for i, x in enumerate(window.sites):
        x = int(x)
        here = entry(x)
        nxt = entry(x + 1)
        mat[i, i] = sign * params.abs_q * (nxt.a2 - here.a1)
        if i + 1 < n:
            mat[i, i + 1] = alpha_coefficient(params, nxt.b, sign)
        elif window.periodic:
            mat[i, 0] = alpha_coefficient(params, nxt.b, sign)
        if i - 1 >= 0:
            mat[i, i - 1] = -alpha_coefficient(params, here.b, -sign).conjugate()
        elif window.periodic:
            mat[i, n - 1] = -alpha_coefficient(params, here.b, -sign).conjugate()
    return mat


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
                                 _loop_coin_sequences(window, profile)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            for sign in (+1, -1):
                got = build_q_epsilon(window, params, profile, sign).matrix
                want = _loop_q_epsilon(window, params, profile, sign)
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
            eps = build_epsilon(window, params).matrix
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
        assert report.passed and report.max_residual < 1e-12

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
        window = LatticeWindow(8)
        honest = lattice._evolution

        def mutated(*args):
            u = honest(*args).tolil()
            u[3, 4] += 1e-6
            return u.tocsr()

        monkeypatch.setattr(lattice, "_evolution", mutated)
        report = verify_algebra(window, e1_params, e1_profile)
        assert report.residuals["evolution_definition"] == pytest.approx(1e-6, rel=1e-6)
        assert not report.passed

    def test_a_wrong_shift_entry_fails_the_evolution_definition(self, e1_params, e1_profile,
                                                                monkeypatch):
        # the walk and gamma @ coin share the wrong factor; the site formula does not
        honest = lattice._gamma

        def mutated(*args):
            g = honest(*args).tolil()
            g[2, 2] += 1e-6
            return g.tocsr()

        monkeypatch.setattr(lattice, "_gamma", mutated)
        report = verify_algebra(LatticeWindow(8), e1_params, e1_profile)
        assert report.residuals["evolution_definition"] > report.threshold

    def test_diagonal_profile_anticommutator_vanishes(self, e1_params):
        report = verify_algebra(LatticeWindow(12), e1_params, DIAGONAL_PROFILE)
        assert report.residuals["chiral_anticommutation"] < 1e-14
        assert report.passed

    def test_rejects_open_windows(self, e1_params, e1_profile):
        with pytest.raises(ProfileError, match="periodic"):
            verify_algebra(LatticeWindow(8, OPEN), e1_params, e1_profile)

    def test_sparse_residuals_match_dense_identities(self):
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


def _loop_split_step(window, params, profile):
    """Site-by-site dense U from the split-step formula, with x+-1 cyclic."""
    n = window.size
    a1, a2, b = _loop_coin_sequences(window, profile)
    p, q = params.p, params.q
    u = np.zeros((2 * n, 2 * n), dtype=complex)
    for x in range(n):
        up, down = x, n + x
        nxt, prv = (x + 1) % n, (x - 1) % n
        u[up, x], u[up, n + x] = p * a1[x], p * b[x].conjugate()
        u[up, nxt], u[up, n + nxt] = q * b[nxt], q * a2[nxt]
        u[down, prv] = q.conjugate() * a1[prv]
        u[down, n + prv] = q.conjugate() * b[prv].conjugate()
        u[down, x], u[down, n + x] = -p * b[x], -p * a2[x]
    return u


def _dense_residuals(window, params, profile):
    """verify_algebra's identities evaluated on the dense operators."""
    n = window.size
    eye = np.eye(2 * n)
    gamma = build_gamma(window, params).matrix
    coin = build_coin(window, profile).matrix
    evolution = build_evolution(window, params, profile).matrix
    q = build_supercharge(window, params, profile).matrix
    eps = build_epsilon(window, params).matrix
    conjugated = eps.conj().T @ q @ eps
    q_plus = build_q_epsilon(window, params, profile, +1).matrix / (-2j)
    q_minus = build_q_epsilon(window, params, profile, -1).matrix / (-2j)

    def max_abs(mat):
        return float(np.max(np.abs(mat)))

    return {
        "gamma_involution": max_abs(gamma @ gamma - eye),
        "coin_involution": max_abs(coin @ coin - eye),
        "evolution_definition": max_abs(evolution - _loop_split_step(window, params, profile)),
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
