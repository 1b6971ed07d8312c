"""Finite-window truncations of the walk operators.

Windows cover sites x = -N..N.  Two-component vectors are stored
component-major: the first 2N+1 entries are the upper component over all
sites, the last 2N+1 the lower component.  Periodic windows wrap the
shift (exactly unitary, used for operator-algebra checks); open windows
drop the couplings across the ends (finite sections, used for kernel
counting and heat traces).

Every two-component operator here (gamma, the coin, the chiral rotation)
has exactly two entries per row, one in each component.  They are
assembled once, as sparse CSR matrices; the operator-algebra check
multiplies them in that form, and the public ``build_*`` functions hand
out their dense copies.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

from .model import CoinProfile, ProfileError, WalkParameters
from .analytic import alpha_coefficient

PERIODIC = "periodic"
OPEN = "open"


@dataclass(frozen=True)
class LatticeWindow:
    """Sites -N..N with either periodic or open ends."""

    half_width: int
    boundary: str = PERIODIC

    def __post_init__(self):
        if self.half_width < 1:
            raise ValueError("half_width must be >= 1")
        if self.boundary not in (PERIODIC, OPEN):
            raise ValueError(f"boundary must be '{PERIODIC}' or '{OPEN}'")

    @property
    def size(self) -> int:
        return 2 * self.half_width + 1

    @property
    def sites(self) -> np.ndarray:
        return np.arange(-self.half_width, self.half_width + 1)

    @property
    def periodic(self) -> bool:
        return self.boundary == PERIODIC

    def wrap(self, x: int) -> int:
        n = self.size
        return (x + self.half_width) % n - self.half_width


@dataclass(frozen=True)
class TruncatedOperator:
    """A dense matrix with its window and a role tag."""

    role: str
    window: LatticeWindow
    matrix: np.ndarray


def _site_entries(profile: CoinProfile, sites: np.ndarray):
    """The profile's distinct coin entries and, per site, the index of its entry.

    Entry 0 is the left limit (x <= 0), entry 1 the right limit (x >= 1),
    then one entry per override, which wins at its site.
    """
    table = [profile.left, profile.right, *profile.overrides.values()]
    index = (sites >= 1).astype(int)
    for j, x in enumerate(profile.overrides, start=2):
        index[sites == x] = j
    return table, index


def coin_sequences(window: LatticeWindow, profile: CoinProfile):
    """Arrays (a1, a2, b) of the coin entries over the window's sites."""
    table, index = _site_entries(profile, window.sites)
    a1 = np.array([e.a1 for e in table])[index]
    a2 = np.array([e.a2 for e in table])[index]
    b = np.array([e.b for e in table], dtype=complex)[index]
    return a1, a2, b


def _two_entry_rows(n: int, left_cols, left_vals, right_cols, right_vals) -> sp.csr_array:
    """2n x 2n CSR matrix whose row i holds left_vals[i] in column left_cols[i]
    and right_vals[i] in column n + right_cols[i], all columns below n."""
    # imported here, not with the module: only the two-component operators
    # are sparse, and the import costs every other command about 20 ms and 1.5 MiB
    import scipy.sparse as sp

    indices = np.empty((2 * n, 2), dtype=np.int32)
    indices[:, 0] = left_cols
    indices[:, 1] = n + right_cols
    data = np.empty((2 * n, 2), dtype=complex)
    data[:, 0] = left_vals
    data[:, 1] = right_vals
    return sp.csr_array((data.ravel(), indices.ravel(), np.arange(0, 4 * n + 1, 2)),
                        shape=(2 * n, 2 * n))


def _shift(window: LatticeWindow):
    """Columns and values of the rows of the shift (L psi)(x) = psi(x+1) and of L*.

    Row i of L has its entry in column i+1 and row i of L* in column i-1,
    cyclically; an open window keeps the couplings across its ends as
    explicit zeros.
    """
    rows = np.arange(window.size)
    hop = np.ones(window.size)
    if not window.periodic:
        hop[-1] = 0.0
    return np.roll(rows, -1), hop, np.roll(rows, 1), np.roll(hop, 1)


def _gamma(window: LatticeWindow, params: WalkParameters) -> sp.csr_array:
    n = window.size
    rows = np.arange(n)
    ahead, hop, behind, hop_adj = _shift(window)
    p = np.full(n, params.p)
    return _two_entry_rows(n, np.concatenate([rows, behind]),
                           np.concatenate([p, params.q.conjugate() * hop_adj]),
                           np.concatenate([ahead, rows]),
                           np.concatenate([params.q * hop, -p]))


def _coin(window: LatticeWindow, profile: CoinProfile) -> sp.csr_array:
    n = window.size
    a1, a2, b = coin_sequences(window, profile)
    cols = np.tile(np.arange(n), 2)
    return _two_entry_rows(n, cols, np.concatenate([a1, b]),
                           cols, np.concatenate([b.conjugate(), a2]))


def _epsilon(window: LatticeWindow, params: WalkParameters) -> sp.csr_array:
    if not window.periodic:
        raise ProfileError("the chiral rotation is built on periodic windows only")
    n = window.size
    rows = np.arange(n)
    cols = np.concatenate([rows, np.roll(rows, 1)])  # L* in the lower half
    phase = cmath.exp(-1j * params.theta)
    plus, minus = math.sqrt(1.0 + params.p), math.sqrt(1.0 - params.p)
    left = np.array([plus, minus * phase]) / math.sqrt(2.0)
    right = np.array([-minus, plus * phase]) / math.sqrt(2.0)
    return _two_entry_rows(n, cols, np.repeat(left, n), cols, np.repeat(right, n))


def _evolution(window: LatticeWindow, params: WalkParameters,
               profile: CoinProfile) -> sp.csr_array:
    return _gamma(window, params) @ _coin(window, profile)


def _split_step(window: LatticeWindow, params: WalkParameters,
                profile: CoinProfile) -> sp.csr_array:
    """U written entry by entry from the split-step formula, not as a product.

    (U psi)_up(x) = p (a1(x) psi_up(x) + conj(b(x)) psi_down(x))
                    + q (b(x+1) psi_up(x+1) + a2(x+1) psi_down(x+1)) and
    (U psi)_down(x) = conj(q) (a1(x-1) psi_up(x-1) + conj(b(x-1)) psi_down(x-1))
                      - p (b(x) psi_up(x) + a2(x) psi_down(x)), with x+-1 cyclic.
    Periodic windows only; the check of ``_evolution`` against it.
    """
    import scipy.sparse as sp  # see _two_entry_rows

    n = window.size
    a1, a2, b = coin_sequences(window, profile)
    x = np.arange(n)
    ahead, behind = np.roll(x, -1), np.roll(x, 1)
    p, q = params.p, params.q
    rows = np.repeat([x, n + x], 4, axis=0).ravel()
    cols = np.concatenate([x, n + x, ahead, n + ahead, behind, n + behind, x, n + x])
    vals = np.concatenate([p * a1, p * b.conj(), q * b[ahead], q * a2[ahead],
                           q.conjugate() * a1[behind], q.conjugate() * b[behind].conj(),
                           -p * b, -p * a2])
    return sp.csr_array((vals, (rows, cols)), shape=(2 * n, 2 * n))


def _supercharge(window: LatticeWindow, params: WalkParameters,
                 profile: CoinProfile) -> sp.csr_array:
    g = _gamma(window, params)
    c = _coin(window, profile)
    return (g @ c - c @ g) / 2j


def build_gamma(window: LatticeWindow, params: WalkParameters) -> TruncatedOperator:
    """Shift half of the walk: [[p, q L], [conj(q) L*, -p]].

    Self-adjoint always; an involution (gamma^2 = 1) only on periodic
    windows, where L is exactly unitary.
    """
    return TruncatedOperator("gamma", window, _gamma(window, params).toarray())


def build_coin(window: LatticeWindow, profile: CoinProfile) -> TruncatedOperator:
    """Coin half: sitewise [[a1, conj(b)], [b, a2]]; always an involution."""
    return TruncatedOperator("coin", window, _coin(window, profile).toarray())


def build_evolution(window: LatticeWindow, params: WalkParameters,
                    profile: CoinProfile) -> TruncatedOperator:
    """The walk U = gamma C."""
    return TruncatedOperator("evolution", window,
                             _evolution(window, params, profile).toarray())


def build_supercharge(window: LatticeWindow, params: WalkParameters,
                      profile: CoinProfile) -> TruncatedOperator:
    """Q = [gamma, coin] / 2i; on periodic windows equals (U - U*) / 2i."""
    return TruncatedOperator("supercharge", window,
                             _supercharge(window, params, profile).toarray())


def build_epsilon(window: LatticeWindow, params: WalkParameters) -> TruncatedOperator:
    """Chiral-basis rotation [[sqrt(1+p), -sqrt(1-p)], [sqrt(1-p) e^{-i theta} L*,
    sqrt(1+p) e^{-i theta} L*]] / sqrt(2); periodic windows only (needs L unitary)."""
    return TruncatedOperator("epsilon", window, _epsilon(window, params).toarray())


def _chiral_bands(window: LatticeWindow, params: WalkParameters,
                  profile: CoinProfile, sign: int):
    """Bands (d, e, f) of one rescaled chiral block, as ``build_q_epsilon`` fills it.

    Row x holds d[x] on the diagonal, e[x] at (x, x+1) and f[x] at
    (x+1, x), with x+1 evaluated cyclically: e[-1] and f[-1] are the ring
    corners, zero on open windows, which drop the couplings across their
    ends.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = window.size
    sites = window.sites
    ahead = sites + 1
    if window.periodic:
        ahead[-1] = sites[0]
    table, index = _site_entries(profile, np.concatenate([sites, ahead]))
    here, nxt = index[:n], index[n:]
    # weights per distinct entry in scalar arithmetic, gathered per site: every
    # entry is bit-identical to evaluating the recursion site by site
    a1 = np.array([e.a1 for e in table])
    a2 = np.array([e.a2 for e in table])
    upper = np.array([alpha_coefficient(params, e.b, sign) for e in table])
    lower = np.array([-alpha_coefficient(params, e.b, -sign).conjugate() for e in table])
    d = sign * params.abs_q * (a2[nxt] - a1[here])
    e = upper[nxt]
    f = lower[np.roll(here, -1)]
    if not window.periodic:
        e[-1] = f[-1] = 0.0
    return d, e, f


def build_q_epsilon(window: LatticeWindow, params: WalkParameters,
                    profile: CoinProfile, sign: int) -> TruncatedOperator:
    """One chiral block of the supercharge as a tridiagonal window matrix.

    Row x carries alpha_s(x+1) on the superdiagonal, -conj(alpha_{-s}(x))
    on the subdiagonal and s beta(x) on the diagonal, with
    beta(x) = |q| (a2(x+1) - a1(x)).  Periodic windows evaluate x+1
    cyclically; open windows drop the end couplings but keep the true
    beta, so the matrix is the finite section of the half-infinite one.
    The block is rescaled: -2i times the matching block of the supercharge
    in the chiral basis (``chiral_supercharge``).
    """
    d, e, f = _chiral_bands(window, params, profile, sign)
    rows = np.arange(window.size)
    ahead = np.roll(rows, -1)
    mat = np.zeros((window.size, window.size), dtype=complex)
    mat[rows, rows] = d
    mat[rows, ahead] = e
    mat[ahead, rows] = f
    label = "plus" if sign == 1 else "minus"
    return TruncatedOperator(f"q_epsilon_{label}", window, mat)


def build_r_epsilon(window: LatticeWindow, params: WalkParameters,
                    profile: CoinProfile, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """The cyclic bands of one diagonal block of the real part (U + U*) / 2
    in the chiral basis.

    The chiral basis diagonalizes gamma to diag(1, -1), so the real part
    (gamma C + C gamma) / 2 is block diagonal, diag(R_plus, R_minus), with
    R_plus = eps_plus* C eps_plus and R_minus = -eps_minus* C eps_minus.
    Both are Hermitian and cyclic tridiagonal: the diagonal of R_plus is
    ((1+p) a1(x) + (1-p) a2(x+1)) / 2, that of R_minus is
    -((1-p) a1(x) + (1+p) a2(x+1)) / 2, and both carry
    q b(x+1) / 2 = |q| e^{i theta} b(x+1) / 2 at (x, x+1) and its conjugate
    at (x+1, x), with x+1 evaluated cyclically.  Returns the real diagonal
    and the hops, R[x, x+1] = hop[x] (so hop[-1] is the ring corner
    R[N, -N]).  Periodic windows only, like the basis rotation itself.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not window.periodic:
        raise ProfileError("the chiral rotation is built on periodic windows only")
    a1, a2, b = coin_sequences(window, profile)
    p = sign * params.p
    diagonal = sign * ((1.0 + p) * a1 + (1.0 - p) * np.roll(a2, -1)) / 2.0
    hop = params.q * np.roll(b, -1) / 2.0
    return diagonal, hop


def chiral_supercharge(window: LatticeWindow, params: WalkParameters,
                       profile: CoinProfile) -> sp.csr_array:
    """The supercharge in the chiral basis, eps* Q eps, as a sparse matrix.

    Its lower-left block is Q_plus and its upper-right block Q_minus, the
    blocks of ``build_q_epsilon`` divided by -2i; its diagonal blocks
    vanish.  Periodic windows only, like the rotation.
    """
    eps = _epsilon(window, params)
    return eps.conj().T @ _supercharge(window, params, profile) @ eps


def _max_abs(mat) -> float:
    return float(abs(mat).max())


@dataclass(frozen=True)
class AlgebraReport:
    residuals: dict
    threshold: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def passed(self) -> bool:
        return self.max_residual < self.threshold


def verify_algebra(window: LatticeWindow, params: WalkParameters,
                   profile: CoinProfile, threshold: float = 1e-11) -> AlgebraReport:
    """Max-norm residuals of the defining operator identities.

    Periodic windows only.  Checks the involution laws, the walk against
    its entries written site by site (``_split_step``), the supercharge
    definitions, the chiral anticommutation, unitarity of the basis
    rotation, and that conjugating the supercharge by it produces exactly
    the two off-diagonal tridiagonal blocks (with vanishing diagonal
    blocks).  The products are sparse; only the n x n off-diagonal blocks
    meet the dense blocks of ``build_q_epsilon``.
    """
    if not window.periodic:
        raise ProfileError("operator-algebra checks run on periodic windows")
    import scipy.sparse as sp  # see _two_entry_rows

    n = window.size
    eye = sp.identity(2 * n, dtype=complex, format="csr")
    gamma = _gamma(window, params)
    coin = _coin(window, profile)
    evolution = _evolution(window, params, profile)
    q = _supercharge(window, params, profile)
    eps = _epsilon(window, params)
    eps_adj = eps.conj().T

    conjugated = chiral_supercharge(window, params, profile)
    q_plus = build_q_epsilon(window, params, profile, +1).matrix / (-2j)
    q_minus = build_q_epsilon(window, params, profile, -1).matrix / (-2j)

    residuals = {
        "gamma_involution": _max_abs(gamma @ gamma - eye),
        "coin_involution": _max_abs(coin @ coin - eye),
        "evolution_definition": _max_abs(evolution - _split_step(window, params, profile)),
        "supercharge_definition": _max_abs(2j * q - (evolution - evolution.conj().T)),
        "chiral_anticommutation": _max_abs(q @ gamma + gamma @ q),
        "epsilon_unitarity": _max_abs(eps_adj @ eps - eye),
        "epsilon_gamma_diagonal": _max_abs(
            eps_adj @ gamma @ eps - sp.diags_array(np.repeat([1.0, -1.0], n))
        ),
        "offdiagonal_block_plus": _max_abs(conjugated[n:, :n] - q_plus),
        "offdiagonal_block_minus": _max_abs(conjugated[:n, n:] - q_minus),
        "diagonal_blocks_vanish": max(
            _max_abs(conjugated[:n, :n]), _max_abs(conjugated[n:, n:])
        ),
    }
    return AlgebraReport(residuals, threshold)
