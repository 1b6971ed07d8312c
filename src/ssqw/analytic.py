"""Closed-form index theory for two-phase split-step walks.

Everything in this module is exact arithmetic on the limit data
(p, a(L), a(R), b(L), b(R)): transfer-matrix eigenvalues, kernel
dimensions of the chiral supercharge blocks, Fredholm criteria, the
Witten index, and the essential spectrum of the one-sided limit walks.
Lattice truncations live elsewhere; nothing here builds a matrix bigger
than 2 x 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    CoinProfile,
    CoinType,
    IndexReport,
    LimitCoin,
    ProfileError,
    WalkParameters,
    classify_coin,
)

NEAR_BOUNDARY_BAND = 1e-9


def f_kappa(kappa: float) -> float:
    """Half-angle ratio f(k) = sqrt((1+k)/(1-k)) on [-1, 1], f(1) = +inf.

    Strictly increasing; satisfies f(k) f(-k) = 1 and
    f(k) f(k') = f((k+k')/(1+kk')).
    """
    if not -1.0 <= kappa <= 1.0:
        raise ValueError(f"f_kappa argument {kappa!r} outside [-1, 1]")
    if kappa == 1.0:
        return math.inf
    return math.sqrt((1.0 + kappa) / (1.0 - kappa))


def _check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return sign


def alpha_coefficient(params: WalkParameters, b: complex, sign: int) -> complex:
    """Off-diagonal recursion weight (1 +- p) e^{i theta} b."""
    s = _check_sign(sign)
    return (1.0 + s * params.p) * complex(math.cos(params.theta), math.sin(params.theta)) * b


def beta_limit(params: WalkParameters, limit: LimitCoin) -> float:
    """Diagonal recursion weight at a lattice end: -2 |q| a."""
    return -2.0 * params.abs_q * limit.a


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues z1, z2 of a limit transfer matrix with eigenvector matrix.

    p_matrix has columns (z1, 1) and (z2, 1); det p_matrix = z1 - z2.
    """

    z1: complex
    z2: complex

    @property
    def p_matrix(self) -> np.ndarray:
        return np.array([[self.z1, self.z2], [1.0, 1.0]], dtype=complex)

    @property
    def det_p(self) -> complex:
        return self.z1 - self.z2


def transfer_eigenvalues(params: WalkParameters, limit: LimitCoin, sign: int) -> EigenPair:
    """Closed-form eigenvalues of the half-line transfer matrix.

    z_j = (conj(q) / (1 + s p)) ((-1)^j + s a) / b for j = 1, 2, where s
    is the chiral sign.  Requires b != 0 at the limit.
    """
    s = _check_sign(sign)
    if limit.trivial or limit.is_diagonal:
        raise ProfileError("transfer eigenvalues need a limit coin with b != 0")
    a = limit.a
    b = limit.b
    prefactor = params.q.conjugate() / (1.0 + s * params.p)
    z1 = prefactor * (-1.0 + s * a) / b
    z2 = prefactor * (1.0 + s * a) / b
    return EigenPair(z1, z2)


def eigenvalue_moduli(p: float, a: float, sign: int) -> tuple[float, float]:
    """(|z1|, |z2|) as products of f values: f(-sp) f(-sa), f(-sp) f(sa)."""
    s = _check_sign(sign)
    return f_kappa(-s * p) * f_kappa(-s * a), f_kappa(-s * p) * f_kappa(s * a)


def kernel_dimensions(params: WalkParameters, profile: CoinProfile) -> tuple[int, int]:
    """Kernel dimensions (d_plus, d_minus) of the two chiral blocks.

    Closed form on canonical two-sided step profiles with nontrivial
    limits; each dimension is 0 or 1.  Defined on all such profiles, not
    just Fredholm ones (at a spectral-gap closing the formulas give the
    kernel of the non-Fredholm operator).
    """
    if not profile.canonical_step:
        raise ProfileError("kernel dimensions are defined on canonical step profiles")
    coin_type = classify_coin(profile)
    if coin_type is CoinType.TRIVIAL_LIMIT:
        raise ProfileError("kernel dimensions need nontrivial limit coins")
    p = params.p
    a_l = profile.left.a
    a_r = profile.right.a

    if coin_type is CoinType.I:
        d = 1 if a_l * a_r < 0 else 0
        return d, d
    if coin_type is CoinType.II:
        d_plus = 1 if -p + a_l * a_r < 0 else 0
        d_minus = 1 if p + a_l * a_r < 0 else 0
        return d_plus, d_minus
    if coin_type is CoinType.II_PRIME:
        d_plus = 1 if p + a_l * a_r < 0 else 0
        d_minus = 1 if -p + a_l * a_r < 0 else 0
        return d_plus, d_minus
    # Type III
    d_plus = 1 if (a_r < p < a_l) or (a_l < -p < a_r) else 0
    d_minus = 1 if (a_r < -p < a_l) or (a_l < p < a_r) else 0
    return d_plus, d_minus


def is_fredholm(params: WalkParameters, profile: CoinProfile) -> tuple[bool, str]:
    """Fredholm criterion for the supercharge: |p| != |a| at both ends.

    Returns (True, "") or (False, reason).  A trivial limit coin always
    breaks Fredholmness (infinite-dimensional kernel).
    """
    if profile.left.trivial:
        return False, "trivial limit coin on the left"
    if profile.right.trivial:
        return False, "trivial limit coin on the right"
    p = abs(params.p)
    if p == abs(profile.left.a):
        return False, "|p| = |a(L)|"
    if p == abs(profile.right.a):
        return False, "|p| = |a(R)|"
    return True, ""


def _boundary_margins(params: WalkParameters, profile: CoinProfile) -> list[float]:
    """Distances to the classification boundaries of the current type."""
    coin_type = classify_coin(profile)
    if coin_type is CoinType.TRIVIAL_LIMIT:
        return []
    p = params.p
    a_l = profile.left.a
    a_r = profile.right.a
    if coin_type is CoinType.I:
        return [abs(a_l * a_r)]
    if coin_type in (CoinType.II, CoinType.II_PRIME):
        return [abs(-p + a_l * a_r), abs(p + a_l * a_r)]
    return [abs(p - a_l), abs(p - a_r), abs(p + a_l), abs(p + a_r)]


def near_boundary(params: WalkParameters, profile: CoinProfile,
                  band: float = NEAR_BOUNDARY_BAND) -> bool:
    margins = _boundary_margins(params, profile)
    return bool(margins) and min(margins) < band


def witten_index(params: WalkParameters, profile: CoinProfile,
                 band: float = NEAR_BOUNDARY_BAND) -> IndexReport:
    """Full index report for one parameter point; never raises on valid input.

    Non-step profiles are reduced to their two-sided step (the index is
    invariant under finite-support coin perturbations, and d_plus/d_minus
    in the report refer to the step reduction).
    """
    step = profile.step_reduction()
    coin_type = classify_coin(step)
    flagged = near_boundary(params, step, band)
    if coin_type is CoinType.TRIVIAL_LIMIT:
        side = "left" if step.left.trivial else "right"
        return IndexReport(
            fredholm=False,
            coin_type=coin_type,
            reason=f"trivial limit coin on the {side}",
            near_boundary=flagged,
        )
    fredholm, reason = is_fredholm(params, step)
    if not fredholm:
        return IndexReport(
            fredholm=False, coin_type=coin_type, reason=reason, near_boundary=flagged
        )
    d_plus, d_minus = kernel_dimensions(params, step)
    index = d_plus - d_minus

    # cross-check against the direct two-branch form of the index theorem
    p, a_l, a_r = params.p, abs(step.left.a), abs(step.right.a)
    if a_r < abs(p) < a_l:
        expected = int(math.copysign(1, p))
    elif a_l < abs(p) < a_r:
        expected = -int(math.copysign(1, p))
    else:
        expected = 0
    if index != expected:
        raise RuntimeError(
            f"kernel table index {index} disagrees with the two-branch form "
            f"{expected} at p={params.p}, a(L)={step.left.a}, a(R)={step.right.a}"
        )

    return IndexReport(
        fredholm=True,
        coin_type=coin_type,
        d_plus=d_plus,
        d_minus=d_minus,
        index=index,
        near_boundary=flagged,
    )


@dataclass(frozen=True)
class SpectralInterval:
    """Real parts of the essential spectrum of a one-sided limit walk.

    For a nontrivial limit coin the spectrum is the band of unimodular z
    with Re z in [lo, hi].  For a trivial limit the spectrum is the pair
    {-1, +1} and ``degenerate`` is set (lo/hi then bound the pair).
    """

    lo: float
    hi: float
    degenerate: bool = False

    def contains(self, re_part: float, atol: float = 0.0) -> bool:
        if self.degenerate:
            return min(abs(re_part - 1.0), abs(re_part + 1.0)) <= atol
        return self.lo - atol <= re_part <= self.hi + atol


def essential_spectrum(params: WalkParameters, limit: LimitCoin) -> SpectralInterval:
    """Essential-spectrum window [pa - |qb|, pa + |qb|] of a limit walk."""
    if limit.trivial:
        return SpectralInterval(-1.0, 1.0, degenerate=True)
    center = params.p * limit.a
    radius = params.abs_q * abs(limit.b)
    return SpectralInterval(center - radius, center + radius)


def fredholm_via_spectral_gap(params: WalkParameters, profile: CoinProfile) -> bool:
    """Redundant Fredholm test: both limit walks keep +-1 out of spectrum.

    Agrees with is_fredholm away from the exact boundaries |p| = |a|.
    """
    for limit in (profile.left, profile.right):
        interval = essential_spectrum(params, limit)
        if interval.degenerate:
            return False
        if limit.is_diagonal:
            continue  # spectrum is two conjugate points with |Re| = |p| < 1
        if interval.hi >= 1.0 or interval.lo <= -1.0:
            return False
    return True


@dataclass(frozen=True)
class SignFlipReport:
    index: int
    index_negated_coin: int
    index_negated_shift: int

    @property
    def passed(self) -> bool:
        return (
            self.index_negated_coin == self.index
            and self.index_negated_shift == -self.index
        )


def sign_flip_identities(params: WalkParameters, profile: CoinProfile) -> SignFlipReport:
    """Indices under coin negation (invariant) and shift negation (flips sign)."""
    base = witten_index(params, profile)
    if not base.fredholm:
        raise ProfileError(f"sign-flip identities need a Fredholm point: {base.reason}")
    neg_coin = witten_index(params, profile.negated())
    neg_shift = witten_index(params.negated(), profile)
    if not (neg_coin.fredholm and neg_shift.fredholm):
        raise RuntimeError("a sign flip of a Fredholm point left the Fredholm region")
    return SignFlipReport(base.index, neg_coin.index, neg_shift.index)
