"""Command-line front end.

Subcommands: ``index`` (single-point report), ``phase-diagram`` (sweep
over p), ``verify`` (the property suite), ``spectrum``, ``trace`` and
``bound-state`` (numerical artifacts).  Exit codes: 0 success, 1 a
verification check failed, 2 invalid input.  Output goes to stdout or
``--out``; CSV uses a header row, '.' decimals and re/im column pairs
for complex data.  All randomized behavior is fixed by ``--seed``; the
``SSQW_THREADS`` environment variable caps sweep workers.  A ``--window``
whose largest dense matrix would not fit in physical memory is an input
error, found before anything is allocated.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import analytic, lattice, solver
from .model import (
    CoinProfile,
    ProfileError,
    WalkParameters,
    canonical_json,
    load_profile,
    validate_parameters,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_INPUT_ERROR = 2


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: everything a command needs, seed included."""

    command: str
    profile_path: Optional[str] = None
    window: int = 64
    boundary: str = lattice.PERIODIC
    seed: int = 7
    output: str = "json"
    out_path: Optional[str] = None
    p_grid: Optional[tuple[Fraction, Fraction, Fraction]] = None
    t_grid: tuple = solver.DEFAULT_T_GRID
    sign: int = +1
    boundary_band: float = analytic.NEAR_BOUNDARY_BAND
    threads: int = 1
    draws: int = 100
    full: bool = False
    inject_beta_sign: bool = False


@dataclass(frozen=True)
class PhaseDiagramRow:
    p: float
    fredholm: bool
    d_plus: Optional[int]
    d_minus: Optional[int]
    index: Optional[int]
    near_boundary: bool

    def csv_cells(self) -> list[str]:
        sentinel = ""
        return [
            repr(self.p),
            "true" if self.fredholm else "false",
            sentinel if self.d_plus is None else str(self.d_plus),
            sentinel if self.d_minus is None else str(self.d_minus),
            sentinel if self.index is None else str(self.index),
            "true" if self.near_boundary else "false",
        ]


def _threads_from_env() -> int:
    raw = os.environ.get("SSQW_THREADS")
    if raw is None:
        return max(1, min(8, os.cpu_count() or 1))
    try:
        value = int(raw)
    except ValueError:
        raise ProfileError(f"SSQW_THREADS must be an integer, got {raw!r}")
    if value < 1:
        raise ProfileError(f"SSQW_THREADS must be >= 1, got {value}")
    return value


# side of the largest dense complex matrix a command allocates, in units of
# the window size 2N+1: the chiral blocks and their eigenvectors (spectrum,
# trace, bound-state) or the two-component walk operators (verify's algebra)
DENSE_SIDE_PER_SITE = {"spectrum": 1, "trace": 1, "bound-state": 1, "verify": 2}


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _require_window_fits(config: RunConfig) -> None:
    per_site = DENSE_SIDE_PER_SITE.get(config.command)
    if per_site is None:
        return  # the command reads no window
    side = per_site * (2 * config.window + 1)
    needed = 16 * side * side
    available = _physical_memory()
    if needed > available:
        raise ProfileError(
            f"--window {config.window}: {config.command} needs a dense {side}x{side} "
            f"complex matrix ({needed / 2**30:.3g} GiB), more than the "
            f"{available / 2**30:.3g} GiB of physical memory"
        )


def _parse_p_grid(text: str) -> tuple[Fraction, Fraction, Fraction]:
    # exact decimal arithmetic keeps -0.9:0.9:0.3 hitting 0.0 on the nose
    parts = text.split(":")
    if len(parts) != 3:
        raise ProfileError(f"--p-grid expects START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (Fraction(v) for v in parts)
    except (ValueError, ZeroDivisionError):
        raise ProfileError(f"--p-grid expects numbers, got {text!r}")
    if step <= 0:
        raise ProfileError("--p-grid step must be positive")
    if start > stop:
        raise ProfileError("--p-grid start must not exceed stop")
    if not (-1 < start and stop < 1):
        raise ProfileError("--p-grid must lie strictly inside (-1, 1)")
    return start, stop, step


def _grid_values(grid: tuple[Fraction, Fraction, Fraction]) -> list[float]:
    start, stop, step = grid
    count = int((stop - start) / step) + 1
    return [float(start + k * step) for k in range(count)]


def _parse_t_grid(text: str) -> tuple:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ProfileError(f"--t-grid expects comma-separated numbers, got {text!r}")
    if not values or any(t <= 0 for t in values) or list(values) != sorted(values):
        raise ProfileError("--t-grid must be positive and increasing")
    return values


def _load(config: RunConfig) -> tuple[WalkParameters, CoinProfile]:
    if config.profile_path is None:
        raise ProfileError("--profile is required for this command")
    try:
        with open(config.profile_path) as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ProfileError(f"cannot read profile: {exc}")
    except json.JSONDecodeError as exc:
        raise ProfileError(f"profile is not valid JSON: {exc}")
    return load_profile(document)


def _emit(text: str, config: RunConfig):
    if config.out_path is None:
        sys.stdout.write(text)
    else:
        with open(config.out_path, "w", newline="") as fh:
            fh.write(text)


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def cmd_index(config: RunConfig) -> int:
    params, profile = _load(config)
    report = analytic.witten_index(params, profile, band=config.boundary_band)
    if config.output == "json":
        _emit(report.to_json() + "\n", config)
    else:
        d = report.to_dict()
        header = ["fredholm", "coin_type", "d_plus", "d_minus", "index",
                  "near_boundary", "reason"]
        row = [
            "true" if d["fredholm"] else "false",
            d["coin_type"],
            "" if d.get("d_plus") is None else str(d["d_plus"]),
            "" if d.get("d_minus") is None else str(d["d_minus"]),
            "" if d.get("index") is None else str(d["index"]),
            "true" if d["near_boundary"] else "false",
            d.get("reason", ""),
        ]
        _emit(_csv_text(header, [row]), config)
    return EXIT_OK


def _phase_row(p: float, theta: float, profile: CoinProfile, band: float) -> PhaseDiagramRow:
    abs_q = math.sqrt(max(0.0, 1.0 - p * p))
    params = validate_parameters(p, abs_q * complex(math.cos(theta), math.sin(theta)))
    report = analytic.witten_index(params, profile, band=band)
    return PhaseDiagramRow(
        p=p,
        fredholm=report.fredholm,
        d_plus=report.d_plus,
        d_minus=report.d_minus,
        index=report.index,
        near_boundary=report.near_boundary,
    )


def cmd_phase_diagram(config: RunConfig) -> int:
    params, profile = _load(config)
    if config.p_grid is None:
        raise ProfileError("--p-grid is required for phase-diagram")
    values = _grid_values(config.p_grid)
    theta = params.theta
    with ThreadPoolExecutor(max_workers=min(config.threads, max(1, len(values)))) as pool:
        rows = list(pool.map(
            lambda p: _phase_row(p, theta, profile, config.boundary_band), values
        ))
    if config.output == "json":
        payload = [
            {
                "p": r.p,
                "fredholm": r.fredholm,
                "d_plus": r.d_plus,
                "d_minus": r.d_minus,
                "index": r.index,
                "near_boundary": r.near_boundary,
            }
            for r in rows
        ]
        _emit(canonical_json(payload) + "\n", config)
    else:
        header = ["p", "fredholm", "d_plus", "d_minus", "index", "near_boundary"]
        _emit(_csv_text(header, (r.csv_cells() for r in rows)), config)
    return EXIT_OK


def cmd_spectrum(config: RunConfig) -> int:
    params, profile = _load(config)
    if config.boundary != lattice.PERIODIC:
        raise ProfileError("spectrum sampling needs --boundary periodic")
    window = lattice.LatticeWindow(config.window, lattice.PERIODIC)
    eigs = solver.sample_spectrum(window, params, profile)
    if config.output == "json":
        payload = {"eigenvalues": [[z.real, z.imag] for z in eigs]}
        _emit(canonical_json(payload) + "\n", config)
    else:
        rows = ([repr(float(z.real)), repr(float(z.imag))] for z in eigs)
        _emit(_csv_text(["re", "im"], rows), config)
    return EXIT_OK


def cmd_trace(config: RunConfig) -> int:
    params, profile = _load(config)
    if config.boundary != lattice.OPEN:
        raise ProfileError("heat-trace estimates need --boundary open")
    window = lattice.LatticeWindow(config.window, lattice.OPEN)
    report = solver.trace_index_report(window, params, profile, config.t_grid)
    if config.output == "json":
        payload = {
            "t_grid": list(report.t_grid),
            "estimates": list(report.estimates),
            "final": report.final,
            "monotone": report.monotone,
            "basis": "canonical-epsilon",
        }
        _emit(canonical_json(payload) + "\n", config)
    else:
        rows = ([repr(float(t)), repr(float(e))] for t, e in zip(report.t_grid, report.estimates))
        _emit(_csv_text(["t", "estimate"], rows), config)
    if not report.monotone:
        print("warning: non-monotone tail in trace estimates", file=sys.stderr)
    return EXIT_OK


def cmd_bound_state(config: RunConfig) -> int:
    params, profile = _load(config)
    window = lattice.LatticeWindow(config.window, lattice.OPEN)
    state = solver.construct_bound_state(params, profile, config.sign, window)
    sign_label = "plus" if config.sign == +1 else "minus"
    if state is None:
        coin_type = str(analytic.classify_coin(profile))
        if config.output == "json":
            payload = {"present": False, "sign": sign_label, "coin_type": coin_type}
            _emit(canonical_json(payload) + "\n", config)
        else:
            _emit(_csv_text(["x", "re", "im"], []), config)
            print(f"no kernel vector for sign {sign_label}", file=sys.stderr)
        return EXIT_OK
    fitted_left, fitted_right = solver.fit_decay_rates(state)
    residual = solver.bound_state_residual(state, params, profile)
    if config.output == "json":
        payload = {
            "present": True,
            "sign": sign_label,
            "coin_type": str(state.coin_type),
            "mode": state.mode,
            "decay_left": state.decay_left,
            "decay_right": state.decay_right,
            "fitted_left": fitted_left,
            "fitted_right": fitted_right,
            "residual": residual,
            "samples": [
                [int(x), z.real, z.imag]
                for x, z in zip(state.window.sites, state.amplitudes)
            ],
        }
        _emit(canonical_json(payload) + "\n", config)
    else:
        rows = (
            [str(int(x)), repr(float(z.real)), repr(float(z.imag))]
            for x, z in zip(state.window.sites, state.amplitudes)
        )
        _emit(_csv_text(["x", "re", "im"], rows), config)
        print(
            f"fitted decay: left={fitted_left!r} right={fitted_right!r} "
            f"residual={residual:.3e}",
            file=sys.stderr,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _check_algebra(config: RunConfig) -> CheckResult:
    rng = np.random.default_rng(config.seed)
    window = lattice.LatticeWindow(config.window, lattice.PERIODIC)
    worst = 0.0
    for _ in range(config.draws):
        params = solver.random_parameters(rng)
        profile = solver.random_step_profile(rng)
        report = lattice.verify_algebra(window, params, profile)
        worst = max(worst, report.max_residual)
        if config.inject_beta_sign:
            # sabotage the reference block's diagonal (the beta terms) so the
            # off-diagonalization comparison must blow past the threshold
            block = lattice.build_q_epsilon(window, params, profile, +1, form=lattice.RAW).matrix
            eps = lattice.build_epsilon(window, params).matrix
            q = lattice.build_supercharge(window, params, profile).matrix
            conjugated = eps.conj().T @ q @ eps
            n = window.size
            mutated = block.copy()
            np.fill_diagonal(mutated, -np.diag(mutated))
            worst = max(worst, float(np.max(np.abs(conjugated[n:, :n] - mutated))))
    detail = f"max residual {worst:.3e} over {config.draws} draws at N={config.window} (threshold 1e-11)"
    if config.inject_beta_sign:
        detail += " [beta sign error injected into the off-diagonalization reference]"
    return CheckResult("operator-algebra", worst < 1e-11, detail)


def _check_transfer_eigenvalues(config: RunConfig) -> CheckResult:
    rng = np.random.default_rng(config.seed + 1)
    n_draws = 1000
    worst_eig = 0.0
    worst_mod = 0.0
    for _ in range(n_draws):
        params = solver.random_parameters(rng)
        limit = solver.random_limit_coin(rng)
        profile = CoinProfile(limit, limit)
        for sign in (+1, -1):
            pair = analytic.transfer_eigenvalues(params, limit, sign)
            matrix = solver.transfer_matrix(params, profile, sign, "L").matrix
            computed = sorted(np.linalg.eigvals(matrix), key=lambda z: (z.real, z.imag))
            stated = sorted((pair.z1, pair.z2), key=lambda z: (z.real, z.imag))
            worst_eig = max(worst_eig, max(abs(c - s) for c, s in zip(computed, stated)))
            m1, m2 = analytic.eigenvalue_moduli(params.p, limit.a, sign)
            worst_mod = max(worst_mod, abs(abs(pair.z1) - m1), abs(abs(pair.z2) - m2))
    ok = worst_eig < 1e-10 and worst_mod < 1e-12
    return CheckResult(
        "transfer-eigenvalues",
        ok,
        f"eig residual {worst_eig:.3e} (<1e-10), moduli residual {worst_mod:.3e} (<1e-12), {n_draws} draws",
    )


def _check_sandwich(config: RunConfig) -> CheckResult:
    rng = np.random.default_rng(config.seed + 2)
    worst = 0.0
    n_draws = 200
    for _ in range(n_draws):
        params = solver.random_parameters(rng)
        profile = CoinProfile(solver.random_limit_coin(rng), solver.random_limit_coin(rng))
        for sign in (+1, -1):
            worst = max(worst, solver.sandwich_check(params, profile, sign))
    return CheckResult(
        "wall-diagonalization",
        worst < 1e-11,
        f"max residual {worst:.3e} over {n_draws} draws (threshold 1e-11)",
    )


def _check_kernel_grid(config: RunConfig) -> CheckResult:
    if config.full:
        points = solver.classification_grid()
        n = 400
    else:
        points = solver.classification_grid(
            p_values=(-0.7, -0.3, 0.3, 0.7), a_values=(-0.6, 0.0, 0.6)
        )
        n = config.window if config.window >= 100 else 200
    window = lattice.LatticeWindow(n, lattice.OPEN)
    conclusive = 0
    mismatches = 0
    for params, profile in points:
        expected = analytic.kernel_dimensions(params, profile)
        plus, minus = solver.kernel_counts(params, profile, window)
        if plus.conclusive and minus.conclusive:
            conclusive += 1
            if (plus.dimension, minus.dimension) != expected:
                mismatches += 1
    fraction = conclusive / len(points)
    ok = mismatches == 0 and fraction >= 0.95
    return CheckResult(
        "kernel-count-grid",
        ok,
        f"{len(points)} points at N={n}: {mismatches} mismatches, "
        f"{100 * fraction:.1f}% conclusive (needs 0 and >=95%)",
    )


def _window_for_decay(state, floor: float = 1e-12, cap: int = 400) -> Optional[int]:
    # half-width at which the slower tail has dropped under the floor
    worst = max(state.decay_left, state.decay_right)
    if worst <= 0.0:
        return 50
    needed = int(math.ceil(math.log(floor) / math.log(worst)))
    return None if needed > cap else max(100, needed)


def _check_bound_states(config: RunConfig) -> CheckResult:
    rng = np.random.default_rng(config.seed + 3)
    probe = lattice.LatticeWindow(50, lattice.OPEN)
    n_checked = 0
    worst_residual = 0.0
    worst_overlap = 1.0
    attempts = 0
    while n_checked < 12 and attempts < 400:
        attempts += 1
        params = solver.random_parameters(rng, p_bound=0.9)
        profile = CoinProfile(
            solver.random_limit_coin(rng, diagonal_chance=0.3, a_bound=0.9),
            solver.random_limit_coin(rng, diagonal_chance=0.3, a_bound=0.9),
        )
        report = analytic.witten_index(params, profile)
        if not report.fredholm or report.coin_type is analytic.CoinType.I:
            continue
        if min(abs(abs(params.p) - abs(profile.left.a)),
               abs(abs(params.p) - abs(profile.right.a))) < 0.05:
            continue
        for sign, d in ((+1, report.d_plus), (-1, report.d_minus)):
            if d == 0:
                continue
            half_width = _window_for_decay(
                solver.construct_bound_state(params, profile, sign, probe)
            )
            if half_width is None:
                continue  # too delocalized for a finite-window certificate
            window = lattice.LatticeWindow(half_width, lattice.OPEN)
            state = solver.construct_bound_state(params, profile, sign, window)
            worst_residual = max(worst_residual, solver.bound_state_residual(state, params, profile))
            count = solver.kernel_count_svd(
                lattice.build_q_epsilon(window, params, profile, sign)
            )
            if count.conclusive and count.dimension == 1:
                overlap = abs(np.vdot(count.null_vectors[0], state.amplitudes))
                worst_overlap = min(worst_overlap, overlap)
            n_checked += 1
    ok = n_checked > 0 and worst_residual < 1e-8 and worst_overlap > 0.999
    return CheckResult(
        "bound-states",
        ok,
        f"{n_checked} states: max residual {worst_residual:.3e} (<1e-8), "
        f"min SVD overlap {worst_overlap:.6f} (>0.999)",
    )


def _check_trace(config: RunConfig) -> CheckResult:
    window = lattice.LatticeWindow(600 if config.full else 300, lattice.OPEN)
    from .model import LimitCoin

    params = validate_parameters(0.5, math.sqrt(0.75))
    profile = CoinProfile(LimitCoin.symmetric(0.8, 0.6), LimitCoin.symmetric(0.0, 1.0))
    report_obj = analytic.witten_index(params, profile)
    trace = solver.trace_index_report(window, params, profile)
    err = abs(trace.final - report_obj.index)
    diagonal = CoinProfile(LimitCoin(1.0, -1.0, 0j), LimitCoin(-1.0, 1.0, 0j))
    zero = solver.trace_index(window, params, diagonal, 50.0)
    ok = err < 0.1 and trace.monotone and zero == 0.0
    return CheckResult(
        "heat-trace",
        ok,
        f"final estimate off by {err:.3e} (<0.1), monotone={trace.monotone}, "
        f"diagonal-coin trace {zero!r} (must be exactly 0.0)",
    )


def _check_spectrum(config: RunConfig) -> CheckResult:
    window = lattice.LatticeWindow(512 if config.full else 128, lattice.PERIODIC)
    rng = np.random.default_rng(config.seed + 4)
    worst_violation = 0.0
    worst_fill = 0.0
    gap_ok = True
    for _ in range(3):
        params = solver.random_parameters(rng, p_bound=0.9)
        limit = solver.random_limit_coin(rng, a_bound=0.9)
        profile = CoinProfile(limit, limit)
        eigs = solver.sample_spectrum(window, params, profile)
        interval = analytic.essential_spectrum(params, limit)
        re = np.sort(eigs.real)
        worst_violation = max(worst_violation, interval.lo - re[0], re[-1] - interval.hi, 0.0)
        inside = re[(re >= interval.lo) & (re <= interval.hi)]
        pts = np.concatenate([[interval.lo], inside, [interval.hi]])
        worst_fill = max(worst_fill, float(np.max(np.diff(pts))))
        gap = min(abs(1.0 - interval.hi), abs(-1.0 - interval.lo))
        gap_ok = gap_ok and (gap > 0) == analytic.fredholm_via_spectral_gap(params, profile)
    budget = 10.0 / window.half_width
    ok = worst_violation < 1e-6 and worst_fill <= budget and gap_ok
    return CheckResult(
        "spectrum-sampling",
        ok,
        f"interval violation {worst_violation:.2e} (<1e-6), fill {worst_fill:.4f} "
        f"(<= {budget:.4f}), gap test consistent={gap_ok}",
    )


def _check_sign_flips(config: RunConfig) -> CheckResult:
    failures = 0
    total = 0
    for params, profile in solver.classification_grid():
        total += 1
        if not analytic.sign_flip_identities(params, profile).passed:
            failures += 1
    return CheckResult(
        "sign-flip-identities",
        failures == 0,
        f"{failures} failures over {total} grid points",
    )


def _check_p_zero(config: RunConfig) -> CheckResult:
    failures = 0
    fredholm_points = 0
    params = validate_parameters(0.0, 1.0 + 0j)
    for _, profile in solver.classification_grid(p_values=(0.1,)):
        # a(#) = 0 sides stop being Fredholm at p = 0; only defined indices count
        report = analytic.witten_index(params, profile)
        if not report.fredholm:
            continue
        fredholm_points += 1
        if report.index != 0:
            failures += 1
    ok = failures == 0 and fredholm_points > 0
    return CheckResult(
        "p-zero-slice",
        ok,
        f"{failures} nonzero indices over {fredholm_points} Fredholm coin points at p=0",
    )


def _check_perturbations(config: RunConfig) -> CheckResult:
    from .model import LimitCoin

    params = validate_parameters(0.5, math.sqrt(0.75))
    profile = CoinProfile(LimitCoin.symmetric(0.8, 0.6), LimitCoin.symmetric(0.0, 1.0))
    window = lattice.LatticeWindow(300 if config.full else 150, lattice.OPEN)
    trials = 20 if config.full else 5
    report = solver.perturbation_invariance_test(
        params, profile, trials=trials, seed=config.seed + 5, window=window
    )
    return CheckResult(
        "compact-perturbations",
        report.passed,
        f"{report.n_conclusive}/{len(report.trials)} conclusive trials, "
        f"all matching index {report.base_index}: {report.passed}",
    )


VERIFY_CHECKS = (
    _check_algebra,
    _check_transfer_eigenvalues,
    _check_sandwich,
    _check_kernel_grid,
    _check_bound_states,
    _check_trace,
    _check_spectrum,
    _check_sign_flips,
    _check_p_zero,
    _check_perturbations,
)


def cmd_verify(config: RunConfig) -> int:
    all_passed = True
    for check in VERIFY_CHECKS:
        result = check(config)
        print(result.line())
        all_passed = all_passed and result.passed
    print("verify: OK" if all_passed else "verify: FAILED")
    return EXIT_OK if all_passed else EXIT_VERIFICATION_FAILURE


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssqw",
        description="Witten index of split-step walks: closed forms plus lattice oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, window_default, boundary_default):
        p.add_argument("--profile", help="path to a JSON profile document")
        p.add_argument("--window", type=int, default=window_default,
                       help=f"half-width N of the lattice window (default {window_default})")
        p.add_argument("--boundary", choices=[lattice.PERIODIC, lattice.OPEN],
                       default=boundary_default)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--format", choices=["json", "csv"], default="json", dest="fmt")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--boundary-band", type=float, default=analytic.NEAR_BOUNDARY_BAND,
                       help="near-boundary labelling width (default 1e-9)")

    p_index = sub.add_parser("index", help="closed-form index report for one profile")
    common(p_index, 64, lattice.PERIODIC)

    p_phase = sub.add_parser("phase-diagram", help="sweep the index over a p grid")
    common(p_phase, 64, lattice.PERIODIC)
    p_phase.add_argument("--p-grid", required=True, help="START:STOP:STEP inside (-1, 1)")

    p_verify = sub.add_parser("verify", help="run the property suite")
    common(p_verify, 64, lattice.PERIODIC)
    p_verify.add_argument("--draws", type=int, default=100,
                          help="random draws for the algebra suite (default 100)")
    p_verify.add_argument("--full", action="store_true",
                          help="acceptance-sized grids (slow)")
    p_verify.add_argument("--inject-beta-sign", action="store_true",
                          help=argparse.SUPPRESS)

    p_spec = sub.add_parser("spectrum", help="eigenvalues of the truncated walk")
    common(p_spec, 256, lattice.PERIODIC)

    p_trace = sub.add_parser("trace", help="heat-trace index estimates over a t grid")
    common(p_trace, 300, lattice.OPEN)
    p_trace.add_argument("--t-grid", default="5,10,20,50",
                         help="comma-separated increasing times (default 5,10,20,50)")

    p_bound = sub.add_parser("bound-state", help="explicit kernel vector samples")
    common(p_bound, 200, lattice.OPEN)
    p_bound.add_argument("--sign", choices=["plus", "minus"], default="plus")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        profile_path=getattr(args, "profile", None),
        window=args.window,
        boundary=args.boundary,
        seed=args.seed,
        output=args.fmt,
        out_path=args.out,
        p_grid=_parse_p_grid(args.p_grid) if getattr(args, "p_grid", None) else None,
        t_grid=_parse_t_grid(args.t_grid) if getattr(args, "t_grid", None) else solver.DEFAULT_T_GRID,
        sign=+1 if getattr(args, "sign", "plus") == "plus" else -1,
        boundary_band=args.boundary_band,
        threads=_threads_from_env(),
        draws=getattr(args, "draws", 100),
        full=getattr(args, "full", False),
        inject_beta_sign=getattr(args, "inject_beta_sign", False),
    )


COMMANDS = {
    "index": cmd_index,
    "phase-diagram": cmd_phase_diagram,
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "trace": cmd_trace,
    "bound-state": cmd_bound_state,
}


def _fuse_grid_flag(argv: list[str]) -> list[str]:
    # "--p-grid -0.9:0.9:0.3" would parse the value as a flag; fuse with "="
    fused = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token == "--p-grid" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            fused.append(f"--p-grid={argv[i + 1]}")
            skip = True
        else:
            fused.append(token)
    return fused


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _fuse_grid_flag(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; keep its codes
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        if args.window < 1:
            raise ProfileError("--window must be >= 1")
        _require_window_fits(config)
        return COMMANDS[config.command](config)
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
