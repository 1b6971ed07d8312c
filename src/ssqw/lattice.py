"""Finite-window truncations of the walk operators.

Windows cover sites x = -N..N.  Two-component vectors are stored
component-major: the first 2N+1 entries are the upper component over all
sites, the last 2N+1 the lower component.  Periodic windows wrap the
shift (exactly unitary, used for operator-algebra checks); open windows
drop the couplings across the ends (finite sections, used for kernel
counting and heat traces).
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass

import numpy as np

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

    def to_csv(self, path):
        """Dense row-major dump; complex entries as adjacent re/im columns."""
        m = np.asarray(self.matrix)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = []
            for j in range(m.shape[1]):
                header += [f"c{j}_re", f"c{j}_im"]
            writer.writerow(header)
            for row in m:
                cells = []
                for z in row:
                    cells += [repr(float(z.real)), repr(float(z.imag))]
                writer.writerow(cells)


def _shift_matrix(window: LatticeWindow) -> np.ndarray:
    """(L psi)(x) = psi(x+1); periodic windows wrap the last row."""
    n = window.size
    mat = np.zeros((n, n))
    for i in range(n - 1):
        mat[i, i + 1] = 1.0
    if window.periodic:
        mat[n - 1, 0] = 1.0
    return mat


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


def build_gamma(window: LatticeWindow, params: WalkParameters) -> TruncatedOperator:
    """Shift half of the walk: [[p, q L], [conj(q) L*, -p]].

    Self-adjoint always; an involution (gamma^2 = 1) only on periodic
    windows, where L is exactly unitary.
    """
    n = window.size
    shift = _shift_matrix(window)
    mat = np.zeros((2 * n, 2 * n), dtype=complex)
    mat[:n, :n] = params.p * np.eye(n)
    mat[:n, n:] = params.q * shift
    mat[n:, :n] = params.q.conjugate() * shift.T
    mat[n:, n:] = -params.p * np.eye(n)
    return TruncatedOperator("gamma", window, mat)


def build_coin(window: LatticeWindow, profile: CoinProfile) -> TruncatedOperator:
    """Coin half: sitewise [[a1, conj(b)], [b, a2]]; always an involution."""
    n = window.size
    a1, a2, b = coin_sequences(window, profile)
    mat = np.zeros((2 * n, 2 * n), dtype=complex)
    mat[:n, :n] = np.diag(a1)
    mat[:n, n:] = np.diag(b.conjugate())
    mat[n:, :n] = np.diag(b)
    mat[n:, n:] = np.diag(a2)
    return TruncatedOperator("coin", window, mat)


def build_evolution(window: LatticeWindow, params: WalkParameters,
                    profile: CoinProfile) -> TruncatedOperator:
    mat = build_gamma(window, params).matrix @ build_coin(window, profile).matrix
    return TruncatedOperator("evolution", window, mat)


def build_supercharge(window: LatticeWindow, params: WalkParameters,
                      profile: CoinProfile) -> TruncatedOperator:
    """Q = [gamma, coin] / 2i; on periodic windows equals (U - U*) / 2i."""
    g = build_gamma(window, params).matrix
    c = build_coin(window, profile).matrix
    mat = (g @ c - c @ g) / 2j
    return TruncatedOperator("supercharge", window, mat)


def build_epsilon(window: LatticeWindow, params: WalkParameters) -> TruncatedOperator:
    """Chiral-basis rotation; periodic windows only (needs L unitary)."""
    if not window.periodic:
        raise ProfileError("the chiral rotation is built on periodic windows only")
    n = window.size
    shift_adj = _shift_matrix(window).T
    phase = cmath.exp(-1j * params.theta)
    sp = math.sqrt(1.0 + params.p)
    sm = math.sqrt(1.0 - params.p)
    mat = np.zeros((2 * n, 2 * n), dtype=complex)
    mat[:n, :n] = sp * np.eye(n)
    mat[:n, n:] = -sm * np.eye(n)
    mat[n:, :n] = sm * phase * shift_adj
    mat[n:, n:] = sp * phase * shift_adj
    return TruncatedOperator("epsilon", window, mat / math.sqrt(2.0))


RAW = "raw"
RESCALED = "rescaled"


def build_q_epsilon(window: LatticeWindow, params: WalkParameters,
                    profile: CoinProfile, sign: int,
                    form: str = RESCALED) -> TruncatedOperator:
    """One chiral block of the supercharge as a tridiagonal window matrix.

    Row x carries alpha_s(x+1) on the superdiagonal, -conj(alpha_{-s}(x))
    on the subdiagonal and s beta(x) on the diagonal, with
    beta(x) = |q| (a2(x+1) - a1(x)).  Periodic windows evaluate x+1
    cyclically; open windows drop the end couplings but keep the true
    beta, so the matrix is the finite section of the half-infinite one.
    The ``rescaled`` form is -2i times the ``raw`` block of the conjugated
    supercharge.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if form not in (RAW, RESCALED):
        raise ValueError(f"form must be '{RAW}' or '{RESCALED}'")
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

    rows = np.arange(n)
    mat = np.zeros((n, n), dtype=complex)
    mat[rows, rows] = sign * params.abs_q * (a2[nxt] - a1[here])
    mat[rows[:-1], rows[1:]] = upper[nxt[:-1]]
    mat[rows[1:], rows[:-1]] = lower[here[1:]]
    if window.periodic:
        mat[n - 1, 0] = upper[nxt[-1]]
        mat[0, n - 1] = lower[here[0]]
    if form == RAW:
        mat = mat / (-2j)
    label = "plus" if sign == 1 else "minus"
    return TruncatedOperator(f"q_epsilon_{label}_{form}", window, mat)


def build_r_epsilon(window: LatticeWindow, params: WalkParameters,
                    profile: CoinProfile, sign: int) -> TruncatedOperator:
    """One diagonal block of the real part (U + U*) / 2 in the chiral basis.

    The chiral basis diagonalizes gamma to diag(1, -1), so the real part
    (gamma C + C gamma) / 2 is block diagonal, diag(R_plus, R_minus), with
    R_plus = eps_plus* C eps_plus and R_minus = -eps_minus* C eps_minus.
    Both are Hermitian and cyclic tridiagonal: the diagonal of R_plus is
    ((1+p) a1(x) + (1-p) a2(x+1)) / 2, that of R_minus is
    -((1-p) a1(x) + (1+p) a2(x+1)) / 2, and both carry
    q b(x+1) / 2 = |q| e^{i theta} b(x+1) / 2 at (x, x+1) and its conjugate
    at (x+1, x), with x+1 evaluated cyclically.  Periodic windows only,
    like the basis rotation itself.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not window.periodic:
        raise ProfileError("the chiral rotation is built on periodic windows only")
    n = window.size
    a1, a2, b = coin_sequences(window, profile)
    p = sign * params.p
    diagonal = sign * ((1.0 + p) * a1 + (1.0 - p) * np.roll(a2, -1)) / 2.0
    hop = params.q * np.roll(b, -1) / 2.0
    rows = np.arange(n)
    ahead = np.roll(rows, -1)
    mat = np.zeros((n, n), dtype=complex)
    mat[rows, rows] = diagonal
    mat[rows, ahead] = hop
    mat[ahead, rows] = hop.conj()
    label = "plus" if sign == 1 else "minus"
    return TruncatedOperator(f"r_epsilon_{label}", window, mat)


def build_h_epsilon(window: LatticeWindow, params: WalkParameters,
                    profile: CoinProfile, sign: int) -> TruncatedOperator:
    """Chiral block Hamiltonian R* R from the rescaled block R.

    Equals -R_minus R_plus (resp. -R_plus R_minus) exactly, window
    truncation included, because the rescaled blocks satisfy R* = -R_flip.
    """
    r = build_q_epsilon(window, params, profile, sign, form=RESCALED).matrix
    label = "plus" if sign == 1 else "minus"
    return TruncatedOperator(f"h_epsilon_{label}", window, r.conj().T @ r)


def _max_abs(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat))) if mat.size else 0.0


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

    Periodic windows only.  Checks the involution laws, the supercharge
    definitions, the chiral anticommutation, unitarity of the basis
    rotation, and that conjugating the supercharge by it produces exactly
    the two off-diagonal tridiagonal blocks (with vanishing diagonal
    blocks).
    """
    if not window.periodic:
        raise ProfileError("operator-algebra checks run on periodic windows")
    n = window.size
    eye = np.eye(2 * n)
    gamma = build_gamma(window, params).matrix
    coin = build_coin(window, profile).matrix
    evolution = build_evolution(window, params, profile).matrix
    q = build_supercharge(window, params, profile).matrix
    eps = build_epsilon(window, params).matrix

    conjugated = eps.conj().T @ q @ eps
    q_plus_raw = build_q_epsilon(window, params, profile, +1, form=RAW).matrix
    q_minus_raw = build_q_epsilon(window, params, profile, -1, form=RAW).matrix

    residuals = {
        "gamma_involution": _max_abs(gamma @ gamma - eye),
        "coin_involution": _max_abs(coin @ coin - eye),
        "evolution_definition": _max_abs(evolution - gamma @ coin),
        "supercharge_definition": _max_abs(2j * q - (evolution - evolution.conj().T)),
        "chiral_anticommutation": _max_abs(q @ gamma + gamma @ q),
        "epsilon_unitarity": _max_abs(eps.conj().T @ eps - eye),
        "epsilon_gamma_diagonal": _max_abs(
            eps.conj().T @ gamma @ eps
            - np.block([[np.eye(n), np.zeros((n, n))],
                        [np.zeros((n, n)), -np.eye(n)]])
        ),
        "offdiagonal_block_plus": _max_abs(conjugated[n:, :n] - q_plus_raw),
        "offdiagonal_block_minus": _max_abs(conjugated[:n, n:] - q_minus_raw),
        "diagonal_blocks_vanish": max(
            _max_abs(conjugated[:n, :n]), _max_abs(conjugated[n:, n:])
        ),
    }
    return AlgebraReport(residuals, threshold)
