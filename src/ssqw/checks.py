"""The ten verification criteria: every closed form against its lattice numeric.

Each criterion has one implementation here.  ``ssqw verify`` prints the
verdict lines of ``run`` at the ``QUICK`` sizes, or with ``--full`` at the
``FULL`` ones, which ``tests/test_acceptance.py`` asserts.  A check takes
its seed and sizes and returns a ``CheckResult``: name, verdict, and the
measured quantities against their bounds.  The numerics are looked up on
their modules at call time, so a function rebound on its module is the
one the checks call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analytic, lattice, model, solver
from .model import CoinProfile, CoinType, LimitCoin, WalkParameters


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


# (p, a_left, a_right, index) of type III walls with real coins
TRACE_POINTS = (
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
# (p, a, phase of b) of homogeneous rings; (p, a_left, a_right) of steps
# whose bands stay 0.02 away from +-1
SPECTRUM_RINGS = ((0.5, 0.0, 0.0), (0.3, 0.6, 0.7), (0.6, 0.6, 0.0))
SPECTRUM_STEPS = ((0.5, 0.8, 0.0), (0.7, 0.9, 0.1))


@dataclass(frozen=True)
class Sizes:
    """Window half-widths and sample counts of a run."""

    census: int          # open window of the kernel census and its bound states
    census_p: tuple      # p values and off-diagonal limit values of the census
    census_a: tuple      # grid (``solver.classification_grid``)
    trace: int           # open window of the heat trace
    trace_points: int    # leading entries of TRACE_POINTS
    spectrum: int        # ring of the spectrum samples
    perturbation: int    # open window of the perturbation trials
    trials: int


QUICK = Sizes(census=200, census_p=(-0.7, -0.3, 0.3, 0.7), census_a=(-0.6, 0.0, 0.6),
              trace=300, trace_points=1, spectrum=128, perturbation=150, trials=5)
FULL = Sizes(census=400, census_p=solver.GRID_P_VALUES, census_a=solver.GRID_A_VALUES,
             trace=600, trace_points=len(TRACE_POINTS), spectrum=512, perturbation=300,
             trials=20)


def _params(p: float) -> WalkParameters:
    return model.validate_parameters(p, math.sqrt(1.0 - p * p))


def _symmetric(a: float, phase: float = 0.0) -> LimitCoin:
    b = math.sqrt(1.0 - a * a) * complex(math.cos(phase), math.sin(phase))
    return LimitCoin.symmetric(a, b)


ALGEBRA_BOUND = 1e-11  # largest operator-algebra residual that passes


def operator_algebra(seed: int, half_width: int = 64, draws: int = 100) -> CheckResult:
    """Defining identities on random rings, every fifth with three site overrides."""
    rng = np.random.default_rng(seed)
    window = lattice.LatticeWindow(half_width, lattice.PERIODIC)
    worst = 0.0
    for i in range(draws):
        params = solver.random_parameters(rng)
        profile = solver.random_step_profile(rng)
        if i % 5 == 0:
            overrides = {int(x): solver.random_coin_entry(rng) for x in rng.integers(-20, 21, 3)}
            profile = CoinProfile(profile.left, profile.right, overrides)
        worst = max(worst, lattice.verify_algebra(window, params, profile).max_residual)
    return CheckResult("operator-algebra", worst < ALGEBRA_BOUND,
                       f"max residual {worst:.3e} over {draws} draws at N={half_width} "
                       f"(threshold {ALGEBRA_BOUND:g})")


def transfer_eigenvalues(seed: int, draws: int = 1000) -> CheckResult:
    """Closed-form transfer eigenvalues and moduli against a generic eigensolver."""
    rng = np.random.default_rng(seed)
    worst_eig = worst_mod = 0.0
    for i in range(draws):
        params = solver.random_parameters(rng)
        limit = solver.random_limit_coin(rng)
        profile = CoinProfile(limit, limit)
        side = "L" if i % 4 < 2 else "R"
        for sign in (+1, -1):
            pair = analytic.transfer_eigenvalues(params, limit, sign)
            z = np.linalg.eigvals(solver.transfer_matrix(params, profile, sign, side))
            direct = max(abs(z[0] - pair.z1), abs(z[1] - pair.z2))
            swapped = max(abs(z[0] - pair.z2), abs(z[1] - pair.z1))
            worst_eig = max(worst_eig, min(direct, swapped))
            m1, m2 = analytic.eigenvalue_moduli(params.p, limit.a, sign)
            worst_mod = max(worst_mod, abs(abs(pair.z1) - m1), abs(abs(pair.z2) - m2))
    return CheckResult("transfer-eigenvalues", worst_eig < 1e-10 and worst_mod < 1e-12,
                       f"eig residual {worst_eig:.3e} (<1e-10), moduli residual "
                       f"{worst_mod:.3e} (<1e-12), {draws} draws, both signs")


def wall_diagonalization(seed: int, draws: int = 200) -> CheckResult:
    """The wall transfer matrix maps the left eigenbasis onto the right one."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        params = solver.random_parameters(rng)
        profile = CoinProfile(solver.random_limit_coin(rng), solver.random_limit_coin(rng))
        for sign in (+1, -1):
            worst = max(worst, solver.sandwich_check(params, profile, sign))
    return CheckResult("wall-diagonalization", worst < 1e-11,
                       f"max residual {worst:.3e} over {draws} draws (threshold 1e-11)")


@dataclass(frozen=True)
class Census:
    """Both chiral kernel censuses of every point of a classification grid."""

    window: lattice.LatticeWindow
    points: tuple  # (params, profile, plus, minus) per grid point


def kernel_census(sizes: Sizes) -> Census:
    window = lattice.LatticeWindow(sizes.census, lattice.OPEN)
    return Census(window, tuple(
        (params, profile, *solver.kernel_counts(params, profile, window))
        for params, profile in solver.classification_grid(sizes.census_p, sizes.census_a)
    ))


def kernel_count_grid(census: Census) -> CheckResult:
    """Conclusive censuses reproduce the kernel table and the index."""
    conclusive = table_mismatches = index_mismatches = non_fredholm = 0
    for params, profile, plus, minus in census.points:
        expected = analytic.kernel_dimensions(params, profile)
        report = analytic.witten_index(params, profile)
        if not report.fredholm:
            non_fredholm += 1
            continue
        got = None
        if plus.conclusive and minus.conclusive:
            conclusive += 1
            got = (plus.dimension, minus.dimension)
            table_mismatches += got != expected
        index_mismatches += any(d[0] - d[1] != report.index for d in (expected, got) if d)
    fraction = conclusive / len(census.points)
    return CheckResult(
        "kernel-count-grid",
        table_mismatches == index_mismatches == non_fredholm == 0 and fraction >= 0.95,
        f"{len(census.points)} points at N={census.window.half_width}: {table_mismatches} "
        f"table mismatches, {index_mismatches} index mismatches, {non_fredholm} "
        f"non-Fredholm, {100 * fraction:.1f}% conclusive (needs 0, 0, 0 and >=95%)",
    )


def _window_for_decay(state) -> Optional[int]:
    # half-width at which the slower tail has dropped under 1e-12; None past 400
    worst = max(state.decay_left, state.decay_right)
    if worst <= 0.0:
        return 50
    needed = int(math.ceil(math.log(1e-12) / math.log(worst)))
    return None if needed > 400 else max(100, needed)


def _certificate(params, profile, sign: int, window, count) -> Optional[tuple[float, float]]:
    """(residual, overlap with the census null vector) of the constructed state;
    None when the state is missing or the census is not one-dimensional."""
    state = solver.construct_bound_state(params, profile, sign, window)
    if state is None or not (count.conclusive and count.dimension == 1):
        return None
    residual = solver.bound_state_residual(state, params, profile)
    return residual, abs(np.vdot(count.null_vectors[0], state.amplitudes))


def bound_states(census: Census, seed: int, draws: int = 12) -> CheckResult:
    """Constructed kernel vectors solve the recursion and span the census kernel,
    on the census blocks and on ``draws`` random complex-phase steps."""
    certificates = [
        _certificate(params, profile, sign, census.window, count)
        for params, profile, plus, minus in census.points
        for sign, count in ((+1, plus), (-1, minus))
        if count.conclusive and count.dimension == 1
    ]
    from_census = len(certificates)
    rng = np.random.default_rng(seed)
    probe = lattice.LatticeWindow(50, lattice.OPEN)
    attempts = 0
    while len(certificates) - from_census < draws and attempts < 400:
        attempts += 1
        params = solver.random_parameters(rng, p_bound=0.9)
        profile = CoinProfile(solver.random_limit_coin(rng, diagonal_chance=0.3, a_bound=0.9),
                              solver.random_limit_coin(rng, diagonal_chance=0.3, a_bound=0.9))
        report = analytic.witten_index(params, profile)
        if not report.fredholm or report.coin_type is CoinType.I:
            continue
        if min(abs(abs(params.p) - abs(profile.left.a)),
               abs(abs(params.p) - abs(profile.right.a))) < 0.05:
            continue
        for sign, d in ((+1, report.d_plus), (-1, report.d_minus)):
            if d == 0:
                continue
            state = solver.construct_bound_state(params, profile, sign, probe)
            if state is None:
                certificates.append(None)  # the closed form promised a state
                continue
            half_width = _window_for_decay(state)
            if half_width is None:
                continue  # too delocalized for a finite-window certificate
            window = lattice.LatticeWindow(half_width, lattice.OPEN)
            count = solver.kernel_count_svd(lattice.build_q_epsilon(window, params, profile, sign))
            certificates.append(_certificate(params, profile, sign, window, count))
    held = [c for c in certificates if c is not None]
    failures = sum(c is None or not (c[0] < 1e-8 and c[1] > 0.999) for c in certificates)
    return CheckResult(
        "bound-states",
        len(certificates) > 0 and failures == 0,
        f"{len(certificates)} states ({from_census} census blocks at "
        f"N={census.window.half_width}, {len(certificates) - from_census} random draws): "
        f"max residual {max((r for r, _ in held), default=0.0):.3e} (<1e-8), min SVD "
        f"overlap {min((o for _, o in held), default=1.0):.6f} (>0.999), {failures} failures",
    )


def heat_trace(sizes: Sizes) -> CheckResult:
    """Heat-trace estimates converge monotonically to the index; zero for a diagonal coin."""
    window = lattice.LatticeWindow(sizes.trace, lattice.OPEN)
    points = TRACE_POINTS[: sizes.trace_points]
    worst = 0.0
    off_table = non_monotone = 0
    for p, a_l, a_r, index in points:
        params = _params(p)
        profile = CoinProfile(_symmetric(a_l), _symmetric(a_r))
        report = analytic.witten_index(params, profile)
        if not (report.fredholm and report.coin_type is CoinType.III and report.index == index):
            off_table += 1
            continue
        trace = solver.trace_index_report(window, params, profile)
        worst = max(worst, abs(trace.final - index))
        non_monotone += not trace.monotone
    diagonal = CoinProfile(LimitCoin(1.0, -1.0, 0j), LimitCoin(-1.0, 1.0, 0j))
    zero = solver.trace_index_report(window, _params(0.5), diagonal)
    exact = all(e == 0.0 for e in zero.estimates)
    return CheckResult(
        "heat-trace",
        worst < 0.1 and off_table == non_monotone == 0 and exact,
        f"{len(points)} of {len(TRACE_POINTS)} points at N={sizes.trace}: final estimate "
        f"off by {worst:.3e} (<0.1), {off_table} closed forms off the table, {non_monotone} "
        f"non-monotone, diagonal-coin trace exactly 0.0 at every t: {exact}",
    )


def _band_hull(params: WalkParameters, profile: CoinProfile) -> tuple[float, float]:
    left = analytic.essential_spectrum(params, profile.left)
    right = analytic.essential_spectrum(params, profile.right)
    return min(left.lo, right.lo), max(left.hi, right.hi)


def spectrum_sampling(sizes: Sizes, seed: int, draws: int = 3) -> CheckResult:
    """Ring spectra fill their band and no more; steps add only wall states near +-1."""
    window = lattice.LatticeWindow(sizes.spectrum, lattice.PERIODIC)
    rng = np.random.default_rng(seed)
    rings = [(_params(p), _symmetric(a, phase)) for p, a, phase in SPECTRUM_RINGS]
    for _ in range(draws):
        rings.append((solver.random_parameters(rng, p_bound=0.9),
                      solver.random_limit_coin(rng, a_bound=0.9)))
    worst_overshoot = worst_fill = 0.0
    gap_ok = True
    for params, coin in rings:
        profile = CoinProfile(coin, coin)
        lo, hi = _band_hull(params, profile)
        re = np.sort(solver.sample_spectrum(window, params, profile).real)
        worst_overshoot = max(worst_overshoot, lo - re[0], re[-1] - hi)
        hull = np.concatenate([[lo], re[(re >= lo) & (re <= hi)], [hi]])
        worst_fill = max(worst_fill, float(np.max(np.diff(hull))))
        gap = min(abs(1.0 - hi), abs(-1.0 - lo))
        gap_ok = gap_ok and (gap > 0) == analytic.fredholm_via_spectral_gap(params, profile)
    walls_ok = True
    wall_states = []
    for p, a_l, a_r in SPECTRUM_STEPS:
        params = _params(p)
        profile = CoinProfile(_symmetric(a_l), _symmetric(a_r))
        lo, hi = _band_hull(params, profile)
        re = solver.sample_spectrum(window, params, profile).real
        outliers = re[(re > hi + 1e-9) | (re < lo - 1e-9)]
        pinned = np.minimum(np.abs(outliers - 1.0), np.abs(outliers + 1.0))
        walls_ok = (walls_ok and analytic.witten_index(params, profile).fredholm
                    and -0.98 < lo and hi < 0.98 and len(outliers) <= 8
                    and float(np.max(pinned, initial=0.0)) < 0.05)
        wall_states.append(str(len(outliers)))
    budget = 10.0 / window.half_width
    return CheckResult(
        "spectrum-sampling",
        worst_overshoot < 1e-6 and worst_fill <= budget and gap_ok and walls_ok,
        f"{len(rings)} rings at N={sizes.spectrum}: interval violation {worst_overshoot:.2e} "
        f"(<1e-6), fill {worst_fill:.4f} (<= {budget:.4f}), gap test consistent={gap_ok}; "
        f"{'+'.join(wall_states)} wall states on {len(SPECTRUM_STEPS)} steps "
        f"(<= 8 each, within 0.05 of +-1): {walls_ok}",
    )


def sign_flip_identities() -> CheckResult:
    """Coin negation keeps the index and shift negation flips it, on the whole grid."""
    points = solver.classification_grid()
    failures = sum(not analytic.sign_flip_identities(params, profile).passed
                   for params, profile in points)
    return CheckResult("sign-flip-identities", failures == 0,
                       f"{failures} failures over {len(points)} grid points")


def p_zero_slice() -> CheckResult:
    """At p = 0 every Fredholm coin pair has index 0 and two spot censuses balance."""
    params = _params(0.0)
    fredholm_points = nonzero = 0
    types_seen = set()
    for _, profile in solver.classification_grid(p_values=(0.1,)):
        # a(#) = 0 sides stop being Fredholm at p = 0; only defined indices count
        report = analytic.witten_index(params, profile)
        if report.fredholm:
            fredholm_points += 1
            types_seen.add(report.coin_type)
            nonzero += report.index != 0
    window = lattice.LatticeWindow(200, lattice.OPEN)
    balanced = True
    for a_l, a_r in ((0.6, -0.6), (0.6, 0.95)):
        profile = CoinProfile(_symmetric(a_l), _symmetric(a_r))
        plus, minus = solver.kernel_counts(params, profile, window)
        got = (plus.dimension, minus.dimension)
        balanced = (balanced and plus.conclusive and minus.conclusive and got[0] == got[1]
                    and got == analytic.kernel_dimensions(params, profile))
    all_types = types_seen == set(CoinType) - {CoinType.TRIVIAL_LIMIT}
    return CheckResult(
        "p-zero-slice",
        nonzero == 0 and fredholm_points > 0 and all_types and balanced,
        f"{nonzero} nonzero indices over {fredholm_points} Fredholm coin points at p=0 "
        f"across {len(types_seen)} coin types (needs all 4), balanced censuses at "
        f"2 spots at N=200: {balanced}",
    )


def compact_perturbations(sizes: Sizes, seed: int) -> CheckResult:
    """Random finite coin overrides of a wall never change its census index."""
    report = solver.perturbation_invariance_test(
        _params(0.5), CoinProfile(_symmetric(0.8), _symmetric(0.0)), trials=sizes.trials,
        seed=seed, window=lattice.LatticeWindow(sizes.perturbation, lattice.OPEN))
    return CheckResult("compact-perturbations", report.passed,
                       f"{report.n_conclusive}/{len(report.trials)} conclusive trials at "
                       f"N={sizes.perturbation}, all matching index {report.base_index}: "
                       f"{report.passed}")


def run(sizes: Sizes, seed: int, half_width: int = 64, draws: int = 100):
    """The ten checks in order; ``half_width`` and ``draws`` size the algebra ring."""
    yield operator_algebra(seed, half_width, draws)
    yield transfer_eigenvalues(seed + 1)
    yield wall_diagonalization(seed + 2)
    census = kernel_census(sizes)
    yield kernel_count_grid(census)
    yield bound_states(census, seed + 3)
    yield heat_trace(sizes)
    yield spectrum_sampling(sizes, seed + 4)
    yield sign_flip_identities()
    yield p_zero_slice()
    yield compact_perturbations(sizes, seed + 5)
