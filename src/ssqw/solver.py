"""Finite-lattice numerics: the independent checks on the closed forms.

Each routine here recomputes something the analytic layer predicts, by a
different route: transfer matrices and their eigensystems, explicit
square-summable kernel vectors, singular-value kernel counting on open
windows, spectrum sampling on periodic windows from the chiral blocks,
heat-trace index estimates, and compact-perturbation robustness trials.

The chiral blocks are tridiagonal with a real diagonal and real products
of opposite hoppings, so a diagonal phase gauge makes each block real
(``_real_gauge``), and the kernel census and the heat trace work on real
bands: the census takes singular values from a banded eigensolve of the
real symmetric dilation [[0, R], [R^T, 0]] and null vectors from banded
inverse iteration, never a dense SVD; the heat trace solves the
pentadiagonal R^T R.  A block the gauge cannot make real is rejected, not
solved by another route.  The spectrum does not build the walk either:
the blocks of Re U in the chiral basis are cyclic tridiagonal rings,
pentadiagonal once unfolded, and two Hermitian banded eigensolves without
vectors give Re z; R^2 + Q* Q = 1 gives Im z, with eigenvectors from
banded inverse iteration only next to +-1.  The rings carry a flux that
no gauge removes, so they stay complex.  Checks on a result
(unit-circle and decay conditions, census thresholds) raise exceptions
rather than assert, so they hold under ``python -O`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.linalg

from .model import (
    CoinEntry,
    CoinProfile,
    CoinType,
    LimitCoin,
    ProfileError,
    WalkParameters,
    classify_coin,
    validate_parameters,
)
from .analytic import (
    alpha_coefficient,
    kernel_dimensions,
    is_fredholm,
    transfer_eigenvalues,
    witten_index,
)
from .lattice import (
    OPEN,
    LatticeWindow,
    TruncatedOperator,
    build_q_epsilon,
    build_r_epsilon,
    diagonal_grid,
    grid_adjoint,
    grid_max_abs,
    grid_product,
    grid_sum,
    ring_band,
)

SVD_REL_TOL = 1e-8
MIN_GAP_RATIO = 100.0
LOCALIZED_MASS = 0.9
AMPLITUDE_FLOOR = 1e-280  # below this, treat a sample as exactly zero in fits


def _beta(params: WalkParameters, profile: CoinProfile, x: int) -> float:
    return params.abs_q * (profile.entry(x + 1).a2 - profile.entry(x).a1)


def transfer_matrix(params: WalkParameters, profile: CoinProfile, sign: int,
                    site: Union[int, str]) -> np.ndarray:
    """2x2 companion matrix of the three-term kernel recursion, advancing
    (psi(x), psi(x-1)) to (psi(x+1), psi(x)).

    ``site`` is a lattice point, or "L"/"R" for the constant limit
    matrices.  Requires the leading weight alpha_s(x+1) to be nonzero,
    so the limit form needs b != 0 on that side.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if site == "L":
        entry_here = entry_next = profile.left
        beta = params.abs_q * (profile.left.a2 - profile.left.a1)
    elif site == "R":
        entry_here = entry_next = profile.right
        beta = params.abs_q * (profile.right.a2 - profile.right.a1)
    else:
        entry_here = profile.entry(int(site))
        entry_next = profile.entry(int(site) + 1)
        beta = _beta(params, profile, int(site))
    lead = alpha_coefficient(params, entry_next.b, sign)
    if lead == 0:
        raise ProfileError(f"transfer matrix undefined at site {site!r}: b vanishes ahead")
    trail = alpha_coefficient(params, entry_here.b, -sign).conjugate()
    return np.array([[-sign * beta / lead, trail / lead], [1.0, 0.0]], dtype=complex)


def sandwich_check(params: WalkParameters, profile: CoinProfile, sign: int) -> float:
    """Max-norm residual of P(R)^-1 A(0) P(L) = diag(z1(L), z2(L)).

    The wall transfer matrix, written in the right limit's eigenbasis,
    acts on the left limit's eigenbasis coordinates without mixing them.
    Both-sided nontrivial off-diagonal coins only.
    """
    if classify_coin(profile) is not CoinType.III:
        raise ProfileError("the wall-diagonalization identity needs b != 0 at both ends")
    pair_left = transfer_eigenvalues(params, profile.left, sign)
    pair_right = transfer_eigenvalues(params, profile.right, sign)
    wall = transfer_matrix(params, profile.step_reduction(), sign, 0)
    product = np.linalg.solve(pair_right.p_matrix, wall @ pair_left.p_matrix)
    return float(np.max(np.abs(product - np.diag([pair_left.z1, pair_left.z2]))))


def _power_samples(z: complex, exponents: np.ndarray) -> np.ndarray:
    """z**k for integer arrays, via log magnitude to keep extremes finite."""
    log_mod = math.log(abs(z))
    phase = math.atan2(z.imag, z.real)
    re = exponents * log_mod
    out = np.zeros(len(exponents), dtype=complex)
    alive = re > -745.0  # exp underflows to 0 beyond this
    out[alive] = np.exp(re[alive] + 1j * phase * exponents[alive])
    return out


@dataclass(frozen=True)
class BoundState:
    """An explicit square-summable kernel vector of one chiral block."""

    sign: int
    coin_type: CoinType
    window: LatticeWindow
    amplitudes: np.ndarray  # unit norm over the window
    mode: int               # transfer-eigenvalue branch (1 or 2; 0 when b = 0 both sides)
    decay_left: float       # per-site modulus toward -inf; 0 if support ends
    decay_right: float


def _admissible_mode(sign: int, coin_type: CoinType, p: float,
                     a_l: float, a_r: float) -> Optional[int]:
    """Branch index whose eigen-solution is square summable, or None."""
    if coin_type is CoinType.III:
        if sign == +1:
            if a_l < -p < a_r:
                return 1
            if a_r < p < a_l:
                return 2
        else:
            if a_r < -p < a_l:
                return 1
            if a_l < p < a_r:
                return 2
        return None
    if coin_type is CoinType.II:
        # diagonal left limit, a_l = +-1
        if sign == +1:
            return 2 if a_l > 0 else 1
        return 1 if a_l > 0 else 2
    if coin_type is CoinType.II_PRIME:
        if sign == +1:
            return 1 if a_r > 0 else 2
        return 2 if a_r > 0 else 1
    raise ProfileError(f"no transfer construction for coin type {coin_type}")


def _require_moduli(holds: bool, **eigenvalues) -> None:
    if not holds:
        raise RuntimeError(f"transfer eigenvalues on the wrong side of the unit circle: "
                           f"{eigenvalues}")


def _require_seed(seed: complex, eigenvalue: complex) -> None:
    if not abs(seed - eigenvalue) <= 1e-10 * max(1.0, abs(eigenvalue)):
        raise RuntimeError(f"wall seed {seed} is not the decaying eigenvalue {eigenvalue}")


def construct_bound_state(params: WalkParameters, profile: CoinProfile, sign: int,
                          window: LatticeWindow) -> Optional[BoundState]:
    """Closed-form kernel vector of the chosen chiral block, or None.

    Fredholm canonical step profiles with nontrivial limit coins.  Returns
    None when the block's kernel is trivial.  The vector solves the
    recursion exactly; on the window it is sampled, normalized, and
    underflows to solid zeros deep in the tails.  With b = 0 on both
    sides the block is diagonal and the kernel vector is the delta at the
    wall row, where the diagonal entry vanishes.
    """
    if not profile.canonical_step:
        raise ProfileError("bound-state construction needs a canonical step profile")
    coin_type = classify_coin(profile)
    fredholm, reason = is_fredholm(params, profile)
    if not fredholm:
        raise ProfileError(f"bound-state construction needs a Fredholm point: {reason}")
    d_plus, d_minus = kernel_dimensions(params, profile)
    if (d_plus if sign == +1 else d_minus) == 0:
        return None

    sites = window.sites
    amplitudes = np.zeros(window.size, dtype=complex)

    if coin_type is CoinType.I:
        amplitudes[sites == 0] = 1.0
        return BoundState(sign, coin_type, window, amplitudes, 0, 0.0, 0.0)

    a_l = profile.left.a
    a_r = profile.right.a
    mode = _admissible_mode(sign, coin_type, params.p, a_l, a_r)
    if mode is None:
        raise RuntimeError(f"no square-summable branch for a kernel of dimension 1 "
                           f"(sign {sign:+d}, type {coin_type})")
    beta0 = _beta(params, profile, 0)

    if coin_type is CoinType.III:
        pair_l = transfer_eigenvalues(params, profile.left, sign)
        pair_r = transfer_eigenvalues(params, profile.right, sign)
        z_l = pair_l.z1 if mode == 1 else pair_l.z2
        z_r = pair_r.z1 if mode == 1 else pair_r.z2
        _require_moduli(abs(z_l) > 1.0 and abs(z_r) < 1.0, z_l=z_l, z_r=z_r)
        left_mask = sites <= 0
        amplitudes[left_mask] = _power_samples(z_l, sites[left_mask] + 1)
        amplitudes[~left_mask] = z_l * _power_samples(z_r, sites[~left_mask])
        decay_left, decay_right = 1.0 / abs(z_l), abs(z_r)
    elif coin_type is CoinType.II:
        pair_r = transfer_eigenvalues(params, profile.right, sign)
        z_r = pair_r.z1 if mode == 1 else pair_r.z2
        _require_moduli(abs(z_r) < 1.0, z_r=z_r)
        lead = alpha_coefficient(params, profile.right.b, sign)
        psi1 = -sign * beta0 / lead
        # the seed forced by the wall row is the decaying eigenvector
        _require_seed(psi1, z_r)
        right_mask = sites >= 1
        amplitudes[sites == 0] = 1.0
        amplitudes[right_mask] = psi1 * _power_samples(z_r, sites[right_mask] - 1)
        decay_left, decay_right = 0.0, abs(z_r)
    else:  # II'
        pair_l = transfer_eigenvalues(params, profile.left, sign)
        z_l = pair_l.z1 if mode == 1 else pair_l.z2
        _require_moduli(abs(z_l) > 1.0, z_l=z_l)
        trail = alpha_coefficient(params, profile.left.b, -sign).conjugate()
        psi_m1 = sign * beta0 / trail
        _require_seed(psi_m1, 1.0 / z_l)
        left_mask = sites <= 0
        amplitudes[left_mask] = _power_samples(z_l, sites[left_mask])
        decay_left, decay_right = 1.0 / abs(z_l), 0.0

    norm = np.linalg.norm(amplitudes)
    if not norm > 0:
        raise RuntimeError(f"bound state has norm {norm} on the window")
    return BoundState(
        sign=sign,
        coin_type=coin_type,
        window=window,
        amplitudes=amplitudes / norm,
        mode=mode,
        decay_left=decay_left,
        decay_right=decay_right,
    )


def bound_state_residual(state: BoundState, params: WalkParameters,
                         profile: CoinProfile) -> float:
    """Relative recursion residual of the sampled vector on an open window."""
    window = LatticeWindow(state.window.half_width, OPEN)
    d, e, f = build_q_epsilon(window, params, profile, state.sign).matrix
    image = _tridiagonal_product(d, e[:-1], f[:-1], state.amplitudes[:, None])
    return float(np.linalg.norm(image) / np.linalg.norm(state.amplitudes))


def fit_decay_rates(state: BoundState) -> tuple[float, float]:
    """Geometric-mean per-site decay fitted from mid-tail samples.

    Returns (left, right) per-site moduli; a side with no support (or all
    samples under the underflow floor) fits as 0.0.
    """
    n = state.window.half_width
    sites = state.window.sites
    mags = np.abs(state.amplitudes)

    def one_side(lo: int, hi: int) -> float:
        mask = (sites >= lo) & (sites <= hi) & (mags > AMPLITUDE_FLOOR)
        picked = np.flatnonzero(mask)
        if len(picked) < 3 or np.any(np.diff(picked) != 1):
            return 0.0
        logs = np.log(mags[picked])
        return float(math.exp(np.mean(np.diff(logs))))

    right = one_side(max(1, n // 4), max(2, (3 * n) // 4))
    left_rate = one_side(-max(2, (3 * n) // 4), -max(1, n // 4))
    left = 1.0 / left_rate if left_rate > 0 else 0.0  # toward -inf means shrinking
    return left, right


@dataclass(frozen=True)
class KernelCount:
    """Near-kernel census of one truncated block, from its singular values."""

    dimension: int          # candidates localized away from the window ends
    raw_count: int          # all singular values under the relative threshold
    boundary_rejected: int
    gap_ratio: float
    conclusive: bool
    null_vectors: np.ndarray           # (dimension, n), bulk candidates
    smallest_singular_values: np.ndarray

    def __post_init__(self):
        if self.dimension + self.boundary_rejected != self.raw_count:
            raise ValueError(
                f"kernel count is inconsistent: dimension {self.dimension} + rejected "
                f"{self.boundary_rejected} != raw count {self.raw_count}"
            )


def _tridiagonal_product(d: np.ndarray, e: np.ndarray, f: np.ndarray,
                         x: np.ndarray) -> np.ndarray:
    """R x for the tridiagonal R with diagonal d, superdiagonal e, subdiagonal f."""
    y = d[:, None] * x
    y[:-1] += e[:, None] * x[1:]
    y[1:] += f[:, None] * x[:-1]
    return y


GAUGE_REL_TOL = 1e-12  # imaginary parts a real gauge may drop, relative to their entry


def _real_gauge(d: np.ndarray, e: np.ndarray, f: np.ndarray, role: str):
    """A real tridiagonal R' = D R D* and the unit phases x of D = diag(x).

    R has diagonal d, superdiagonal e and subdiagonal f.  With
    x_{i+1} = x_i e_i / |e_i| (from f_i where e_i = 0) the superdiagonal of
    D R D* is |e_i| and its subdiagonal e_i f_i / |e_i|, so R' is real when
    the diagonal and every product e_i f_i are.  Every chiral block of the
    walk has this form: its diagonal is s |q| (a2 - a1) and
    e_i f_i = -(1 - p^2) |b|^2.  Imaginary parts within GAUGE_REL_TOL of
    their entry are rounding and are dropped; larger ones raise ValueError
    naming the block.  R' has the singular values of R, and v = D* v' maps
    its singular vectors back without changing |v|.
    """
    ef = e * f
    if (np.any(np.abs(d.imag) > GAUGE_REL_TOL * np.abs(d))
            or np.any(np.abs(ef.imag) > GAUGE_REL_TOL * np.abs(ef))):
        raise ValueError(f"the real gauge needs a real diagonal and real products "
                         f"R[i, i+1] R[i+1, i]; {role} has not")
    size_e, size_f = np.abs(e), np.abs(f)
    has_e = size_e > 0
    steps = np.ones(len(e), dtype=complex)
    steps[has_e] = e[has_e] / size_e[has_e]
    only_f = ~has_e & (size_f > 0)
    steps[only_f] = f[only_f].conjugate() / size_f[only_f]
    phases = np.concatenate([[1.0 + 0j], np.cumprod(steps)])
    sub = size_f.copy()
    sub[has_e] = ef.real[has_e] / size_e[has_e]
    return d.real.copy(), size_e, sub, phases


INVERSE_ITERATION_STEPS = 4  # even, so the iterate returns to the v-part
INVERSE_ITERATION_SHIFT = 1e-3  # shift of H - mu I, in units of the threshold
INVERSE_ITERATION_EXTRA = 4  # block columns beyond the candidates


def _dilation_bands(d: np.ndarray, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Upper band storage of H = [[0, R], [R^T, 0]] in the order u0, v0, u1, v1, ...

    R is real tridiagonal with diagonal d, superdiagonal e and subdiagonal
    f.  In the interleaved order H has bandwidth 3: R[i, i] sits at
    offset 1, R[i+1, i] at offset 1 and R[i, i+1] at offset 3.
    """
    n = len(d)
    bands = np.zeros((4, 2 * n))
    bands[0, 3::2] = e           # H[u_i, v_{i+1}]
    bands[2, 1::2] = d           # H[u_i, v_i]
    bands[2, 2::2] = f           # H[v_i, u_{i+1}]
    return bands


def _near_null_vectors(d: np.ndarray, e: np.ndarray, f: np.ndarray,
                       bands: np.ndarray, raw: int, tau: float) -> np.ndarray:
    """The ``raw`` right singular vectors of the real tridiagonal R under ``tau``.

    Block inverse iteration on the dilation H - mu I, mu = 1e-3 tau,
    started from random v-parts.  Each pair of steps multiplies the v-part
    of a singular pair (sigma, u, v) by about 1 / sigma^2.  The block
    carries a few columns beyond the candidates, so the candidates
    converge with their gap to the next singular values but one, not to
    the first one above the threshold, which may sit close to it.  A
    Rayleigh-Ritz SVD of R times the v-part basis then picks the candidates
    and orders them like a dense SVD (descending singular value, as rows).
    The shift keeps H - mu I regular when R has an exactly zero singular
    value.
    """
    n = len(d)
    m = 2 * n
    full = np.zeros((7, m))  # general band storage, 3 + 3 bands
    full[:4] = bands
    for k in range(1, 4):
        full[3 + k, : m - k] = bands[3 - k, k:]
    full[3] -= INVERSE_ITERATION_SHIFT * tau
    width = min(raw + INVERSE_ITERATION_EXTRA, n)
    rng = np.random.default_rng(0)
    block = np.zeros((m, width))
    block[1::2] = rng.standard_normal((n, width))
    for _ in range(INVERSE_ITERATION_STEPS):
        block, _ = np.linalg.qr(scipy.linalg.solve_banded((3, 3), full, block))
    basis, _ = np.linalg.qr(block[1::2])
    _, _, wh = np.linalg.svd(_tridiagonal_product(d, e, f, basis), full_matrices=False)
    return wh[width - raw:] @ basis.T


def kernel_count_svd(operator: TruncatedOperator) -> KernelCount:
    """Count near-null singular values of an open chiral block from its bands.

    ``operator.matrix`` is the band stack [d, e, f] of ``build_q_epsilon``.
    The threshold is SVD_REL_TOL times the largest singular value.  A
    count is conclusive only when the candidates are separated from the
    rest by a factor MIN_GAP_RATIO.  Candidates whose squared amplitude is
    not at least LOCALIZED_MASS inside the middle half of the window are
    attributed to the artificial ends and rejected; they still participate
    in the raw count and the gap.  The filter runs on the basis of the
    candidate space that diagonalizes the bulk mass, so several candidates
    at rounding level count the same whichever basis of their span the
    solver returns.

    A diagonal unitary gauge makes R real (``_real_gauge``), and the
    singular values are the moduli of the eigenvalues of the real
    symmetric dilation [[0, R'], [R'^T, 0]], which come in +- pairs;
    interleaved, the dilation has bandwidth 3, so one banded eigensolve
    (no vectors) costs O(n^2) against the O(n^3) of a dense SVD.  Null
    vectors are computed only when there are candidates, by banded block
    inverse iteration on the dilation (``_near_null_vectors``), in the
    order of a dense SVD, and mapped back out of the gauge.  Raises
    ValueError on a ring block (nonzero corners e[-1] or f[-1]) or one no
    diagonal gauge makes real, and RuntimeError if a candidate v misses
    |R v| <= threshold.
    """
    d, e, f = operator.matrix
    n = len(d)
    if e[-1] != 0 or f[-1] != 0:
        raise ValueError(f"kernel census needs a tridiagonal block; {operator.role} is a ring")
    e, f = e[:-1], f[:-1]
    real_d, real_e, real_f, phases = _real_gauge(d, e, f, operator.role)
    bands = _dilation_bands(real_d, real_e, real_f)
    w = scipy.linalg.eig_banded(bands, eigvals_only=True)
    s = np.sort(np.abs(w))[1::2][::-1]  # one of each +- pair, descending
    smax = float(s[0])
    if smax == 0.0:
        return KernelCount(n, n, 0, 0.0, False, np.eye(n, dtype=complex), s[::-1][: min(8, n)])
    tau = SVD_REL_TOL * smax
    raw = int(np.count_nonzero(s < tau))
    if raw == 0:
        gap_ratio = float(s[-1] / tau)
    elif raw == n or s[n - raw] == 0.0:
        gap_ratio = math.inf
    else:
        gap_ratio = float(s[n - raw - 1] / s[n - raw])

    bulk = np.zeros((0, n), dtype=complex)
    if raw:
        bulk = _near_null_vectors(real_d, real_e, real_f, bands, raw, tau) * phases.conjugate()
        residual = float(np.max(np.linalg.norm(_tridiagonal_product(d, e, f, bulk.T), axis=0)))
        if residual > tau:
            raise RuntimeError(
                f"kernel census: a candidate has |R v| = {residual:.3e} over the "
                f"threshold {tau:.3e}"
            )
        window = operator.window
        # Filter the basis of the candidate space that diagonalizes the bulk
        # mass: a near-null space with several singular values at rounding
        # level has no preferred basis, and a mix of a wall state with an
        # edge state would fail the filter for both.
        inside = bulk[:, np.abs(window.sites) <= window.half_width // 2]
        mass, mix = np.linalg.eigh(inside.conj() @ inside.T)
        keep = np.flatnonzero(mass >= LOCALIZED_MASS)[::-1]
        bulk = mix[:, keep].T @ bulk
    return KernelCount(
        dimension=bulk.shape[0],
        raw_count=raw,
        boundary_rejected=raw - bulk.shape[0],
        gap_ratio=gap_ratio,
        conclusive=raw < n and gap_ratio >= MIN_GAP_RATIO,
        null_vectors=bulk,
        smallest_singular_values=s[::-1][: min(8, n)].copy(),
    )


def kernel_counts(params: WalkParameters, profile: CoinProfile,
                  window: LatticeWindow) -> tuple[KernelCount, KernelCount]:
    """(plus, minus) chiral kernel censuses on an open window."""
    if window.periodic:
        raise ProfileError("kernel counting runs on open windows; a ring hosts "
                           "two walls with cancelling indices")
    return (
        kernel_count_svd(build_q_epsilon(window, params, profile, +1)),
        kernel_count_svd(build_q_epsilon(window, params, profile, -1)),
    )


NEAR_UNIT = 1e-3  # eigenvalues of R this close to +-1 span the inverse-iteration block
FORMULA_UNIT = 1e-5  # this close to +-1, |Q v| replaces sqrt((1 - lambda)(1 + lambda))
SPECTRUM_ITERATION_STEPS = 6  # three already reach the converged plateau (tests)
UNIT_CIRCLE_TOL = 1e-10


def _cyclic_product(d: np.ndarray, e: np.ndarray, f: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """T x for the cyclic tridiagonal T with T[i, i] = d[i], T[i, i+1] = e[i]
    and T[i+1, i] = f[i], indices mod n."""
    return (d[:, None] * x + e[:, None] * np.roll(x, -1, axis=0)
            + np.roll(f[:, None] * x, 1, axis=0))


def _unfolded_bands(diagonal: np.ndarray, hop: np.ndarray):
    """The ring R in the order 0, n-1, 1, n-2, ..., as upper band storage.

    R is Hermitian cyclic tridiagonal: R[x, x] = diagonal[x],
    R[x, x+1] = hop[x] and R[x+1, x] = conj(hop[x]), x+1 cyclic.  In the
    unfolded order every pair of ring neighbours sits one or two places
    apart, so the permuted matrix A[a, b] = R[order[a], order[b]] is
    pentadiagonal, stored as bands[2 + a - b, b] = A[a, b] for a <= b.
    Returns (order, bands).
    """
    n = len(diagonal)
    order = np.empty(n, dtype=int)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    place = np.empty(n, dtype=int)
    place[order] = np.arange(n)
    here, ahead = place, np.roll(place, -1)
    bands = np.zeros((3, n), dtype=complex)
    bands[2] = diagonal[order]
    bands[2 - np.abs(here - ahead), np.maximum(here, ahead)] = np.where(
        here < ahead, hop, hop.conj())
    return order, bands


def _band_identity_defect(diagonal: np.ndarray, hop: np.ndarray,
                          chiral: np.ndarray) -> float:
    """Max-norm of R^2 + Q* Q - 1 from the cyclic bands of R and Q, in O(n)."""
    r = ((ring_band((diagonal, hop, hop.conj())),),)
    q = ((ring_band(chiral),),)
    return grid_max_abs(grid_sum((1, grid_product(r, r)), (1, grid_product(grid_adjoint(q), q)),
                                 (-1, diagonal_grid(len(diagonal), 1.0))))


def _near_unit_parts(count: int, side: int, order: np.ndarray, bands: np.ndarray,
                     ring: tuple, chiral: np.ndarray) -> np.ndarray:
    """|Im z| = |Q v| for the ``count`` eigenvalues of R within NEAR_UNIT of
    ``side`` (+1 or -1), farthest from ``side`` first.

    Block inverse iteration with the unfolded ring (``_unfolded_bands``)
    shifted just beyond ``side``, so that the matrix is definite, runs on
    INVERSE_ITERATION_EXTRA columns beyond them; a Rayleigh-Ritz step on R
    picks their Ritz vectors V.  Because R^2 + Q* Q = 1, the singular
    values of Q V, the Rayleigh-Ritz values of |Q| on that span, are the
    |Im z| in decreasing order, whatever basis of a degenerate eigenspace
    the iteration settles on.  For modes within FORMULA_UNIT of ``side``
    each step shrinks what lies outside the block by FORMULA_UNIT /
    NEAR_UNIT or more; the others may converge slowly and only serve to
    span the block.  ``ring`` and ``chiral`` are the cyclic bands of R
    and Q for ``_cyclic_product``.
    """
    n = bands.shape[1]
    full = np.zeros((5, n), dtype=complex)  # general band storage, 2 + 2 bands
    full[:3] = bands
    for k in (1, 2):
        full[2 + k, : n - k] = bands[2 - k, k:].conj()
    full[2] -= side * (1.0 + INVERSE_ITERATION_SHIFT * FORMULA_UNIT)
    width = min(count + INVERSE_ITERATION_EXTRA, n)
    block = np.random.default_rng(0).standard_normal((n, width)).astype(complex)
    for _ in range(SPECTRUM_ITERATION_STEPS):
        block, _ = np.linalg.qr(scipy.linalg.solve_banded((2, 2), full, block))
    basis = np.empty_like(block)
    basis[order] = block
    ritz, mix = np.linalg.eigh(basis.conj().T @ _cyclic_product(*ring, basis))
    vectors = basis @ mix[:, np.argsort(side * ritz)[width - count:]]
    return np.linalg.svd(_cyclic_product(*chiral, vectors), compute_uv=False)


def sample_spectrum(window: LatticeWindow, params: WalkParameters,
                    profile: CoinProfile) -> np.ndarray:
    """Eigenvalues of the truncated walk, sorted by angle; periodic only.

    The walk is never built.  In the chiral basis U = diag(R_plus,
    R_minus) + i [[0, Q_minus], [Q_plus, 0]], with R_s the Hermitian
    cyclic tridiagonal blocks of the real part (``build_r_epsilon``) and
    Q_s the raw chiral blocks of the supercharge, -1/2i times the band
    stack of ``build_q_epsilon`` (half the stack serves, since only
    |Q_s v| and Q_s* Q_s enter).  U is normal, so Q_plus maps an
    eigenvector v of R_plus with eigenvalue lambda to one of R_minus with
    the same eigenvalue, and the pair spans the eigenvalues
    lambda +- i |Q_plus v|: lambda + i |Q_plus v| from R_plus and
    lambda - i |Q_minus v| from R_minus give the whole spectrum, +-1
    included.

    Everything runs on bands.  Reordered as 0, n-1, 1, n-2, ... each
    ring R_s is pentadiagonal (``_unfolded_bands``), and one Hermitian
    banded eigensolve without vectors gives Re z = lambda in O(n^2).
    Since R_s^2 + Q_s* Q_s = 1, |Im z| = sqrt((1 - lambda)(1 + lambda)).
    An error e in lambda moves that by about e / |Im z|, so within
    FORMULA_UNIT of +-1, where |Im z| < 0.0045, |Q_s v| from eigenvectors
    replaces it; one block inverse iteration per end of the spectrum, over
    the modes within NEAR_UNIT of it, supplies them (``_near_unit_parts``).
    The banded eigenvalues are good to a few 1e-15 at n = 257 but to a few
    1e-14 at n = 1025 next to a closing gap, so there the formula modes
    just beyond FORMULA_UNIT carry up to about 5e-12 in Im z.  The
    unit-circle guard checks R_s^2 + Q_s* Q_s = 1 on the bands and
    | |z| - 1 | on the modes that got vectors; it raises RuntimeError past
    UNIT_CIRCLE_TOL.
    """
    if not window.periodic:
        raise ProfileError("spectrum sampling needs a periodic window (exact unitarity)")
    parts = []
    for sign in (+1, -1):
        diagonal, hop = build_r_epsilon(window, params, profile, sign)
        chiral = build_q_epsilon(window, params, profile, sign).matrix / 2.0
        defect = _band_identity_defect(diagonal, hop, chiral)
        if not defect < UNIT_CIRCLE_TOL:
            raise RuntimeError(f"R^2 + Q*Q misses the identity by {defect:.3e}: the walk "
                               f"leaves the unit circle")
        order, bands = _unfolded_bands(diagonal, hop)
        lam = scipy.linalg.eig_banded(bands, eigvals_only=True)
        sigma = np.sqrt(np.maximum((1.0 - lam) * (1.0 + lam), 0.0))
        for side in (+1, -1):
            near = np.flatnonzero(side * lam > 1.0 - NEAR_UNIT)[::side]  # farthest first
            if not len(near):
                continue
            vector_sigma = _near_unit_parts(len(near), side, order, bands,
                                            (diagonal, hop, hop.conj()), chiral)
            tight = near[side * lam[near] > 1.0 - FORMULA_UNIT]
            sigma[tight] = vector_sigma[len(near) - len(tight):]
            defect = float(np.max(np.abs(np.hypot(lam[tight], sigma[tight]) - 1.0), initial=0.0))
            if not defect < UNIT_CIRCLE_TOL:
                raise RuntimeError(f"walk eigenvalues leave the unit circle by {defect:.3e}")
        parts.append(lam + sign * 1j * sigma)
    eigs = np.concatenate(parts)
    return eigs[np.argsort(np.angle(eigs))]


def h_epsilon_band_eigensystem(window: LatticeWindow, params: WalkParameters,
                               profile: CoinProfile, sign: int):
    """Eigenvalues and bulk weights of R* R for one rescaled chiral block.

    In the real gauge of the block (``_real_gauge``), R* R = D* R'^T R' D
    with R' real tridiagonal, so R'^T R' is a real symmetric pentadiagonal
    matrix with the same eigenvalues whose eigenvectors differ from those
    of R* R only by the phases of D.  Its bands are assembled directly
    from R' and solved with a real banded eigensolver.  Returns
    (eigenvalues, bulk_weights) where the weight of an eigenvector is its
    squared mass on the middle half of the window, which the phases leave
    unchanged.
    """
    block = build_q_epsilon(window, params, profile, sign)
    d, e, f = block.matrix
    d, e, f, _ = _real_gauge(d, e[:-1], f[:-1], block.role)
    n = len(d)
    h0 = d ** 2
    h0[1:] += e ** 2
    h0[:-1] += f ** 2
    bands = np.zeros((3, n))
    bands[0, 2:] = f[:-1] * e[1:]
    bands[1, 1:] = d[:-1] * e + f * d[1:]
    bands[2, :] = h0
    w, v = scipy.linalg.eig_banded(bands, lower=False)
    mask = np.abs(window.sites) <= window.half_width // 2
    weights = np.sum(v[mask, :] ** 2, axis=0)
    return w, weights


def _supertrace_data(window: LatticeWindow, params: WalkParameters,
                     profile: CoinProfile):
    if window.periodic:
        raise ProfileError("heat-trace estimates run on open windows")
    return (
        h_epsilon_band_eigensystem(window, params, profile, +1),
        h_epsilon_band_eigensystem(window, params, profile, -1),
    )


def _supertrace(t: float, plus, minus) -> float:
    (wp, gp), (wm, gm) = plus, minus
    return float(np.sum(np.exp(-t * wp) * gp) - np.sum(np.exp(-t * wm) * gm))


DEFAULT_T_GRID = (5.0, 10.0, 20.0, 50.0)


@dataclass(frozen=True)
class TraceReport:
    t_grid: tuple
    estimates: tuple

    @property
    def final(self) -> float:
        return self.estimates[-1]

    @property
    def target(self) -> int:
        return int(round(self.final))

    @property
    def monotone(self) -> bool:
        """Deviations from the rounded final value never increase along the grid."""
        devs = [abs(e - self.target) for e in self.estimates]
        return all(devs[i + 1] <= devs[i] + 1e-12 for i in range(len(devs) - 1))


def trace_index_report(window: LatticeWindow, params: WalkParameters,
                       profile: CoinProfile,
                       t_grid=DEFAULT_T_GRID) -> TraceReport:
    """Bulk heat-trace index estimates over an increasing t grid, one eigensolve.

    On the full lattice the index equals tr(exp(-t H+) - exp(-t H-)) for
    every t > 0.  On a square finite section that trace is identically
    zero (the two blocks are R* R and R R* of the same square matrix, so
    they are isospectral); the index density instead concentrates near
    the coin wall with an equal and opposite contribution pinned to the
    artificial window ends.  Each estimate therefore sums the heat-kernel
    diagonal over the middle half of an open window only.  H+- come from
    the rescaled chiral blocks, so t is in rescaled units.  A profile
    whose coin is diagonal everywhere gives exactly 0.0.
    """
    t_grid = tuple(float(t) for t in t_grid)
    if any(t <= 0 for t in t_grid) or list(t_grid) != sorted(t_grid):
        raise ValueError("t grid must be positive and increasing")
    plus, minus = _supertrace_data(window, params, profile)
    estimates = tuple(_supertrace(t, plus, minus) for t in t_grid)
    return TraceReport(t_grid, estimates)


@dataclass(frozen=True)
class PerturbationTrial:
    sites: tuple
    conclusive: bool
    d_plus: Optional[int]
    d_minus: Optional[int]

    def matches(self, index: int) -> Optional[bool]:
        if not self.conclusive:
            return None
        return self.d_plus - self.d_minus == index


@dataclass(frozen=True)
class PerturbationReport:
    base_index: int
    trials: tuple

    @property
    def n_conclusive(self) -> int:
        return sum(1 for t in self.trials if t.conclusive)

    @property
    def passed(self) -> bool:
        if self.n_conclusive == 0:
            return False
        return all(t.matches(self.base_index) for t in self.trials if t.conclusive)


GRID_P_VALUES = (-0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9)
GRID_A_VALUES = (-0.95, -0.6, 0.0, 0.6, 0.95)
GRID_EXCLUSION = 0.05


def classification_grid(p_values=GRID_P_VALUES, a_values=GRID_A_VALUES):
    """Step-profile points covering all four coin types.

    Sides with an off-diagonal coin take their limit value from
    ``a_values`` (with b = sqrt(1-a^2) > 0); diagonal sides take a = +-1.
    Points within ``GRID_EXCLUSION`` of a spectral-gap closing, i.e. with
    ||p| - |a|| < GRID_EXCLUSION on either side, are dropped.  Yields
    (params, profile) pairs, Fredholm by construction.
    """
    diag_values = (-1.0, 1.0)
    points = []
    for p in p_values:
        params = validate_parameters(p, math.sqrt(1.0 - p * p))
        side_choices = [
            (diag_values, diag_values),   # type I
            (diag_values, a_values),      # type II
            (a_values, diag_values),      # type II'
            (a_values, a_values),         # type III
        ]
        for left_values, right_values in side_choices:
            for a_l in left_values:
                if abs(abs(p) - abs(a_l)) < GRID_EXCLUSION:
                    continue
                for a_r in right_values:
                    if abs(abs(p) - abs(a_r)) < GRID_EXCLUSION:
                        continue
                    left = _grid_limit(a_l)
                    right = _grid_limit(a_r)
                    points.append((params, CoinProfile(left, right)))
    return points


def _grid_limit(a: float):
    if abs(a) == 1.0:
        return LimitCoin(a, -a, 0j)
    return LimitCoin.symmetric(a, math.sqrt(1.0 - a * a))


def random_parameters(rng: np.random.Generator,
                      p_bound: float = 0.95) -> WalkParameters:
    """Valid shift parameters with uniform p and uniform phase."""
    p = float(rng.uniform(-p_bound, p_bound))
    theta = float(rng.uniform(-math.pi, math.pi))
    return validate_parameters(p, math.sqrt(1.0 - p * p) * complex(math.cos(theta), math.sin(theta)))


def random_limit_coin(rng: np.random.Generator, diagonal_chance: float = 0.0,
                      a_bound: float = 0.95):
    if rng.random() < diagonal_chance:
        a = float(rng.choice([-1.0, 1.0]))
        return LimitCoin(a, -a, 0j)
    a = float(rng.uniform(-a_bound, a_bound))
    phi = float(rng.uniform(-math.pi, math.pi))
    return LimitCoin.symmetric(a, math.sqrt(1.0 - a * a) * complex(math.cos(phi), math.sin(phi)))


def random_step_profile(rng: np.random.Generator,
                        diagonal_chance: float = 0.25) -> CoinProfile:
    """A random two-sided step; sides are occasionally diagonal (a = +-1)."""
    return CoinProfile(
        random_limit_coin(rng, diagonal_chance),
        random_limit_coin(rng, diagonal_chance),
    )


def random_coin_entry(rng: np.random.Generator, diagonal_chance: float = 0.2) -> CoinEntry:
    """A uniformly scattered valid coin entry; sometimes purely diagonal."""
    if rng.random() < diagonal_chance:
        return CoinEntry(float(rng.choice([-1.0, 1.0])), float(rng.choice([-1.0, 1.0])), 0j)
    a = float(rng.uniform(-0.999, 0.999))
    phi = float(rng.uniform(-math.pi, math.pi))
    return CoinEntry(a, -a, math.sqrt(1.0 - a * a) * complex(math.cos(phi), math.sin(phi)))


PERTURBED_SITES = 10


def perturbation_invariance_test(params: WalkParameters, profile: CoinProfile,
                                 trials: int = 20, seed: int = 0,
                                 window: Optional[LatticeWindow] = None) -> PerturbationReport:
    """Randomized compact-perturbation trials of index stability.

    Each trial overrides the coin at up to ``PERTURBED_SITES`` bulk sites with
    fresh valid entries (occasionally diagonal ones, so b is pushed to 0
    somewhere) and recounts both chiral kernels by the census.  All conclusive
    trials must reproduce the unperturbed index.
    """
    report = witten_index(params, profile)
    if not report.fredholm:
        raise ProfileError(f"perturbation trials need a Fredholm point: {report.reason}")
    if window is None:
        window = LatticeWindow(300, OPEN)
    if window.periodic:
        raise ProfileError("perturbation trials count kernels on open windows")
    rng = np.random.default_rng(seed)
    reach = max(1, window.half_width // 4)
    outcomes = []
    for _ in range(trials):
        n_sites = int(rng.integers(1, PERTURBED_SITES + 1))
        sites = rng.choice(np.arange(-reach, reach + 1), size=n_sites, replace=False)
        overrides = dict(profile.overrides)
        for x in sites:
            overrides[int(x)] = random_coin_entry(rng)
        perturbed = CoinProfile(profile.left, profile.right, overrides)
        plus, minus = kernel_counts(params, perturbed, window)
        conclusive = plus.conclusive and minus.conclusive
        outcomes.append(
            PerturbationTrial(
                sites=tuple(int(x) for x in sorted(sites)),
                conclusive=conclusive,
                d_plus=plus.dimension if conclusive else None,
                d_minus=minus.dimension if conclusive else None,
            )
        )
    return PerturbationReport(report.index, tuple(outcomes))
