"""Finite-window truncations of the walk operators.

Windows cover sites x = -N..N.  Two-component vectors are stored
component-major: the first 2N+1 entries are the upper component over all
sites, the last 2N+1 the lower component.  Periodic windows wrap the
shift (exactly unitary, used for operator-algebra checks); open windows
drop the couplings across the ends (finite sections, used for kernel
counting and heat traces).

Every operator of the split-step walk is a grid of diagonals times powers
of the shift, and it is held that way, never as a matrix: a band grid is
an m x m tuple of cyclic bands {offset mod n: entries}, one per pair of
components, entry i of offset k sitting at (i, i+k) of the n-site block.
``grid_product`` and ``grid_adjoint`` work in that form, so the
operator-algebra check multiplies gamma, the coin and the chiral rotation
in O(n), and the spectrum guard uses them on one-component rings.  A
chiral block of the supercharge is tridiagonal and travels as its band
stack [d, e, f] (``build_q_epsilon``).  Only ``build_evolution`` hands out
a dense matrix.
"""

from __future__ import annotations

import cmath
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


@dataclass(frozen=True)
class TruncatedOperator:
    """An operator on a window with a role tag.

    ``matrix`` holds the (3, n) band stack [d, e, f] of a chiral block
    (``build_q_epsilon``) or the dense matrix of the walk
    (``build_evolution``).
    """

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


def grid_product(a, b):
    """The band grid of the product of two band grids.

    Entry i of offset k of a block meets entry i+k of the other factor's
    bands; on rings of three or four sites offsets that meet mod n add up,
    as in the matrix itself.
    """
    def block(row, column):
        out = {}
        for x, y in zip(row, column):
            for k, u in x.items():
                for m, v in y.items():
                    key = (k + m) % len(u)
                    out[key] = out.get(key, 0) + u * np.roll(v, -k)
        return out

    columns = list(zip(*b))
    return tuple(tuple(block(row, column) for column in columns) for row in a)


def grid_adjoint(a):
    """The band grid of the adjoint: block (i, j) is the adjoint of block (j, i)."""
    return tuple(
        tuple({(-k) % len(v): np.roll(v.conj(), k) for k, v in band.items()} for band in column)
        for column in zip(*a)
    )


def diagonal_grid(n: int, *values) -> tuple:
    """diag(values[0], values[1], ...) times the identity on n sites, as a band grid."""
    return tuple(
        tuple({0: np.full(n, value)} if i == j else {} for j in range(len(values)))
        for i, value in enumerate(values)
    )


def grid_sum(*terms):
    """The band grid of the sum of c G over (c, G) pairs of band grids of one shape."""
    total = tuple(tuple({} for _ in row) for row in terms[0][1])
    for c, grid in terms:
        for out_row, row in zip(total, grid):
            for out, band in zip(out_row, row):
                for k, v in band.items():
                    out[k] = out.get(k, 0) + c * v
    return total


def grid_max_abs(grid) -> float:
    """The largest entry modulus of a band grid: its max-norm as a matrix."""
    return float(max((np.max(np.abs(v)) for row in grid for band in row for v in band.values()),
                     default=0.0))


def ring_band(bands) -> dict:
    """The cyclic band of a tridiagonal block from its stack [d, e, f]:
    d[x] at (x, x), e[x] at (x, x+1) and f[x] at (x+1, x), x+1 mod n."""
    d, e, f = bands
    return {0: d, 1: e, len(d) - 1: np.roll(f, 1)}


def _gamma(window: LatticeWindow, params: WalkParameters):
    """Shift half of the walk: [[p, q L], [conj(q) L*, -p]], with (L psi)(x) = psi(x+1).

    Self-adjoint always; an involution only on periodic windows: an open
    window keeps the couplings across its ends as explicit zeros.
    """
    n = window.size
    hop = np.ones(n)
    if not window.periodic:
        hop[-1] = 0.0
    p = np.full(n, params.p)
    return (({0: p}, {1: params.q * hop}),
            ({n - 1: params.q.conjugate() * np.roll(hop, 1)}, {0: -p}))


def _coin(window: LatticeWindow, profile: CoinProfile):
    """Coin half: sitewise [[a1, conj(b)], [b, a2]]; always an involution."""
    a1, a2, b = coin_sequences(window, profile)
    return (({0: a1}, {0: b.conjugate()}), ({0: b}, {0: a2}))


def _epsilon(window: LatticeWindow, params: WalkParameters):
    """Chiral-basis rotation [[sqrt(1+p), -sqrt(1-p)], [sqrt(1-p) e^{-i theta} L*,
    sqrt(1+p) e^{-i theta} L*]] / sqrt(2); unitary on periodic windows."""
    n = window.size
    phase = cmath.exp(-1j * params.theta)
    plus, minus = math.sqrt(1.0 + params.p), math.sqrt(1.0 - params.p)
    left = np.array([plus, minus * phase]) / math.sqrt(2.0)
    right = np.array([-minus, plus * phase]) / math.sqrt(2.0)
    return (({0: np.full(n, left[0])}, {0: np.full(n, right[0])}),
            ({n - 1: np.full(n, left[1])}, {n - 1: np.full(n, right[1])}))


def _evolution(window: LatticeWindow, params: WalkParameters, profile: CoinProfile):
    return grid_product(_gamma(window, params), _coin(window, profile))


def _split_step(window: LatticeWindow, params: WalkParameters, profile: CoinProfile):
    """U written entry by entry from the split-step formula, not as a product.

    (U psi)_up(x) = p (a1(x) psi_up(x) + conj(b(x)) psi_down(x))
                    + q (b(x+1) psi_up(x+1) + a2(x+1) psi_down(x+1)) and
    (U psi)_down(x) = conj(q) (a1(x-1) psi_up(x-1) + conj(b(x-1)) psi_down(x-1))
                      - p (b(x) psi_up(x) + a2(x) psi_down(x)), with x+-1 cyclic.
    Periodic windows only; the check of ``_evolution`` against it.
    """
    n = window.size
    a1, a2, b = coin_sequences(window, profile)
    p, q = params.p, params.q
    ahead, behind = -1, 1  # np.roll shifts bringing x+1 and x-1 to x
    return (({0: p * a1, 1: q * np.roll(b, ahead)},
             {0: p * b.conj(), 1: q * np.roll(a2, ahead)}),
            ({n - 1: q.conjugate() * np.roll(a1, behind), 0: -p * b},
             {n - 1: q.conjugate() * np.roll(b.conj(), behind), 0: -p * a2}))


def build_evolution(window: LatticeWindow, params: WalkParameters,
                    profile: CoinProfile) -> TruncatedOperator:
    """The walk U = gamma C as a dense matrix, filled from its band grid."""
    n = window.size
    rows = np.arange(n)
    mat = np.zeros((2 * n, 2 * n), dtype=complex)
    for i, row in enumerate(_evolution(window, params, profile)):
        for j, band in enumerate(row):
            for k, entries in band.items():
                mat[i * n + rows, j * n + (rows + k) % n] = entries
    return TruncatedOperator("evolution", window, mat)


def build_q_epsilon(window: LatticeWindow, params: WalkParameters,
                    profile: CoinProfile, sign: int) -> TruncatedOperator:
    """One chiral block of the supercharge as its tridiagonal band stack [d, e, f].

    Row x carries d[x] = s beta(x) on the diagonal, with
    beta(x) = |q| (a2(x+1) - a1(x)), e[x] = alpha_s(x+1) at (x, x+1) and
    f[x] = -conj(alpha_{-s}(x+1)) at (x+1, x).  Periodic windows evaluate
    x+1 cyclically: e[-1] and f[-1] are the ring corners (N, -N) and
    (-N, N).  Open windows set the corners to zero but keep the true beta,
    so the block is the finite section of the half-infinite one.  The
    block is rescaled: -2i times the matching block of the supercharge in
    the chiral basis (``verify_algebra``).
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
    bands = np.array([sign * params.abs_q * (a2[nxt] - a1[here]), upper[nxt],
                      lower[np.roll(here, -1)]])
    if not window.periodic:
        bands[1:, -1] = 0.0
    label = "plus" if sign == 1 else "minus"
    return TruncatedOperator(f"q_epsilon_{label}", window, bands)


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


@dataclass(frozen=True)
class AlgebraReport:
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def verify_algebra(window: LatticeWindow, params: WalkParameters,
                   profile: CoinProfile) -> AlgebraReport:
    """Max-norm residuals of the defining operator identities.

    Periodic windows only.  Checks the involution laws, the walk against
    its entries written site by site (``_split_step``), the supercharge
    Q = [gamma, C] / 2i against (U - U*) / 2i, the chiral anticommutation,
    unitarity of the basis rotation eps, and that eps* Q eps consists of
    exactly the two off-diagonal blocks of ``build_q_epsilon`` divided by
    -2i (Q_plus lower left, Q_minus upper right), with vanishing diagonal
    blocks.  Every product is one of band grids.
    """
    if not window.periodic:
        raise ProfileError("operator-algebra checks run on periodic windows")
    n = window.size
    eye = diagonal_grid(n, 1.0, 1.0)
    gamma = _gamma(window, params)
    coin = _coin(window, profile)
    evolution = _evolution(window, params, profile)
    q = grid_sum((1 / 2j, grid_product(gamma, coin)), (-1 / 2j, grid_product(coin, gamma)))
    eps = _epsilon(window, params)
    eps_adj = grid_adjoint(eps)
    conjugated = grid_product(grid_product(eps_adj, q), eps)
    blocks = {sign: ((ring_band(build_q_epsilon(window, params, profile, sign).matrix / (-2j)),),)
              for sign in (+1, -1)}

    def block(i, j):
        return ((conjugated[i][j],),)

    def gap(a, b):
        return grid_max_abs(grid_sum((1, a), (-1, b)))

    residuals = {
        "gamma_involution": gap(grid_product(gamma, gamma), eye),
        "coin_involution": gap(grid_product(coin, coin), eye),
        "evolution_definition": gap(evolution, _split_step(window, params, profile)),
        "supercharge_definition": grid_max_abs(
            grid_sum((2j, q), (-1, evolution), (1, grid_adjoint(evolution)))),
        "chiral_anticommutation": grid_max_abs(
            grid_sum((1, grid_product(q, gamma)), (1, grid_product(gamma, q)))),
        "epsilon_unitarity": gap(grid_product(eps_adj, eps), eye),
        "epsilon_gamma_diagonal": gap(grid_product(grid_product(eps_adj, gamma), eps),
                                      diagonal_grid(n, 1.0, -1.0)),
        "offdiagonal_block_plus": gap(block(1, 0), blocks[+1]),
        "offdiagonal_block_minus": gap(block(0, 1), blocks[-1]),
        "diagonal_blocks_vanish": max(grid_max_abs(block(0, 0)), grid_max_abs(block(1, 1))),
    }
    return AlgebraReport(residuals)
