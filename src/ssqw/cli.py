"""Command-line front end.

Subcommands: ``index`` (single-point report), ``phase-diagram`` (sweep
over p), ``verify`` (the ten numerical cross-checks), ``spectrum``, ``trace`` and
``bound-state`` (numerical artifacts).  Exit codes: 0 success, 1 a
verification check failed, 2 invalid input.  Output goes to stdout or
``--out``; CSV uses a header row, '.' decimals and re/im column pairs
for complex data.  Each subcommand accepts only the flags it reads; any
other flag is an input error.  A ``--window`` or a ``--p-grid`` whose
measured price (``WINDOW_BYTES``, ``GRID_ROW_BYTES``) would not fit in
physical memory is an input error, found before anything is allocated.

``verify`` is the only command that draws random numbers, so ``--seed``
exists only there.  It prints one PASS/FAIL line per check of
``ssqw.checks`` and then ``verify: OK`` or ``verify: FAILED``, as text.
``--full`` runs the checks at the sizes of the acceptance gate;
``--window`` and ``--draws`` size only the operator-algebra ring.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional

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


# the price of a window of n = 2N+1 sites: (bytes, power) means bytes times
# n**power, the peak of the whole command, output included, as tracemalloc
# measured it at two windows, rounded up.  spectrum on gapped rings: at most
# 893 bytes a site at N = 512 and 4096; bound-state on type II and III walls,
# either sign and format: at most 506 a site at N = 512 and 4096; verify, whose
# --window sizes only the algebra ring: at most 1493 a site at N = 512 and
# 4096, while the rest of the command stays under 10 MB at any window; trace,
# which holds the real n x n eigenvectors of a banded eigensolve, the solver's
# workspace and a copy of their bulk rows: at most 24.8 bytes per n^2 at
# N = 256 and 1024
WINDOW_BYTES = {"spectrum": (1000, 1), "bound-state": (600, 1), "verify": (1500, 1),
                "trace": (25, 2)}


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _require_window_fits(command: str, window: int) -> None:
    n = 2 * window + 1
    price, power = WINDOW_BYTES[command]
    needed = price * n ** power
    what = f"{price} bytes for each of {n} sites" if power == 1 else f"{price} bytes times {n}^2"
    available = _physical_memory()
    if needed > available:
        raise ProfileError(
            f"--window {window}: {command} needs {what} "
            f"({needed / 2**30:.3g} GiB), more than the "
            f"{available / 2**30:.3g} GiB of physical memory"
        )


# peak bytes per sweep row by output format: its float, its IndexReport and
# its CSV text or JSON dict, as tracemalloc measured the peak of a 19,999-row
# sweep (293 and 688 bytes a row), rounded up
GRID_ROW_BYTES = {"csv": 300, "json": 700}

SIGNS = {"plus": +1, "minus": -1}


def _check_limits(args: argparse.Namespace) -> None:
    # each flag is checked only on the commands that have it
    if "window" in args and args.window < 1:
        raise ProfileError("--window must be >= 1")
    if "draws" in args and args.draws < 1:
        raise ProfileError(f"--draws must be >= 1, got {args.draws}")
    if "boundary_band" in args and not (math.isfinite(args.boundary_band)
                                        and args.boundary_band >= 0):
        raise ProfileError(
            f"--boundary-band must be finite and >= 0, got {args.boundary_band!r}")
    if "window" in args:
        _require_window_fits(args.command, args.window)
    if "p_grid" in args:
        rows = _grid_count(args.p_grid)
        if GRID_ROW_BYTES[args.fmt] * rows > _physical_memory():
            raise ProfileError(f"--p-grid: {rows} rows would not fit in physical memory")


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


def _grid_count(grid: tuple[Fraction, Fraction, Fraction]) -> int:
    start, stop, step = grid
    return int((stop - start) / step) + 1


def _grid_values(grid: tuple[Fraction, Fraction, Fraction]) -> list[float]:
    # float(start + k * step) as (A + k B) / D on a common denominator D: int
    # true division rounds correctly, as Fraction.__float__ does
    start, _, step = grid
    denominator = math.lcm(start.denominator, step.denominator)
    a = start.numerator * (denominator // start.denominator)
    b = step.numerator * (denominator // step.denominator)
    return [(a + k * b) / denominator for k in range(_grid_count(grid))]


def _parse_t_grid(text: str) -> tuple:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ProfileError(f"--t-grid expects comma-separated numbers, got {text!r}")
    if not all(0 < t < math.inf for t in values) or list(values) != sorted(values):
        raise ProfileError("--t-grid must be finite, positive and increasing")
    return values


def _load(args: argparse.Namespace) -> tuple[WalkParameters, CoinProfile]:
    if args.profile is None:
        raise ProfileError("--profile is required for this command")
    try:
        with open(args.profile) as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ProfileError(f"cannot read profile: {exc}")
    except json.JSONDecodeError as exc:
        raise ProfileError(f"profile is not valid JSON: {exc}")
    return load_profile(document)


def _emit(text: str, args: argparse.Namespace):
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _count(value: Optional[int]) -> str:
    return "" if value is None else str(value)


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def cmd_index(args: argparse.Namespace) -> int:
    params, profile = _load(args)
    report = analytic.witten_index(params, profile, band=args.boundary_band)
    if args.fmt == "json":
        _emit(report.to_json() + "\n", args)
    else:
        header = ["fredholm", "coin_type", "d_plus", "d_minus", "index",
                  "near_boundary", "reason"]
        row = [
            _flag(report.fredholm),
            report.coin_type.value,
            _count(report.d_plus),
            _count(report.d_minus),
            _count(report.index),
            _flag(report.near_boundary),
            report.reason,
        ]
        _emit(_csv_text(header, [row]), args)
    return EXIT_OK


def cmd_phase_diagram(args: argparse.Namespace) -> int:
    params, profile = _load(args)
    values = _grid_values(args.p_grid)
    phase = complex(math.cos(params.theta), math.sin(params.theta))
    reports = []
    for p in values:
        # a value that rounds to +-1 leaves q = 0, which validation rejects
        q = math.sqrt(max(0.0, 1.0 - p * p)) * phase
        reports.append(analytic.witten_index(validate_parameters(p, q), profile,
                                             band=args.boundary_band))
    if args.fmt == "json":
        payload = [
            {
                "p": p,
                "fredholm": r.fredholm,
                "d_plus": r.d_plus,
                "d_minus": r.d_minus,
                "index": r.index,
                "near_boundary": r.near_boundary,
            }
            for p, r in zip(values, reports)
        ]
        _emit(canonical_json(payload) + "\n", args)
    else:
        header = ["p", "fredholm", "d_plus", "d_minus", "index", "near_boundary"]
        rows = (
            [repr(p), _flag(r.fredholm), _count(r.d_plus), _count(r.d_minus),
             _count(r.index), _flag(r.near_boundary)]
            for p, r in zip(values, reports)
        )
        _emit(_csv_text(header, rows), args)
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    params, profile = _load(args)
    window = lattice.LatticeWindow(args.window, lattice.PERIODIC)
    eigs = solver.sample_spectrum(window, params, profile)
    if args.fmt == "json":
        payload = {"eigenvalues": [[z.real, z.imag] for z in eigs]}
        _emit(canonical_json(payload) + "\n", args)
    else:
        rows = ([repr(float(z.real)), repr(float(z.imag))] for z in eigs)
        _emit(_csv_text(["re", "im"], rows), args)
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    params, profile = _load(args)
    window = lattice.LatticeWindow(args.window, lattice.OPEN)
    report = solver.trace_index_report(window, params, profile, args.t_grid)
    if args.fmt == "json":
        payload = {
            "t_grid": list(report.t_grid),
            "estimates": list(report.estimates),
            "final": report.final,
            "monotone": report.monotone,
            "basis": "canonical-epsilon",
        }
        _emit(canonical_json(payload) + "\n", args)
    else:
        rows = ([repr(float(t)), repr(float(e))] for t, e in zip(report.t_grid, report.estimates))
        _emit(_csv_text(["t", "estimate"], rows), args)
    if not report.monotone:
        print("warning: non-monotone tail in trace estimates", file=sys.stderr)
    return EXIT_OK


def cmd_bound_state(args: argparse.Namespace) -> int:
    params, profile = _load(args)
    window = lattice.LatticeWindow(args.window, lattice.OPEN)
    state = solver.construct_bound_state(params, profile, SIGNS[args.sign], window)
    if state is None:
        coin_type = str(analytic.classify_coin(profile))
        if args.fmt == "json":
            payload = {"present": False, "sign": args.sign, "coin_type": coin_type}
            _emit(canonical_json(payload) + "\n", args)
        else:
            _emit(_csv_text(["x", "re", "im"], []), args)
            print(f"no kernel vector for sign {args.sign}", file=sys.stderr)
        return EXIT_OK
    fitted_left, fitted_right = solver.fit_decay_rates(state)
    residual = solver.bound_state_residual(state, params, profile)
    if args.fmt == "json":
        payload = {
            "present": True,
            "sign": args.sign,
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
        _emit(canonical_json(payload) + "\n", args)
    else:
        rows = (
            [str(int(x)), repr(float(z.real)), repr(float(z.imag))]
            for x, z in zip(state.window.sites, state.amplitudes)
        )
        _emit(_csv_text(["x", "re", "im"], rows), args)
        print(
            f"fitted decay: left={fitted_left!r} right={fitted_right!r} "
            f"residual={residual:.3e}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import checks  # imported here: the other commands need not pay for it

    sizes = checks.FULL if args.full else checks.QUICK
    all_passed = True
    for result in checks.run(sizes, args.seed, args.window, args.draws):
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

    def command(name, help):
        # abbreviations off: a prefix such as --bound would pass for --boundary-band
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def profile_in_report_out(p):
        p.add_argument("--profile", help="path to a JSON profile document")
        p.add_argument("--format", choices=["json", "csv"], default="json", dest="fmt")
        p.add_argument("--out", default=None, help="write output to this path")

    def window(p, default):
        p.add_argument("--window", type=int, default=default,
                       help=f"half-width N of the lattice window (default {default})")

    def band(p):
        p.add_argument("--boundary-band", type=float, default=analytic.NEAR_BOUNDARY_BAND,
                       help="near-boundary labelling width (default %(default)g)")

    p_index = command("index", "closed-form index report for one profile")
    profile_in_report_out(p_index)
    band(p_index)

    p_phase = command("phase-diagram", "sweep the index over a p grid")
    profile_in_report_out(p_phase)
    band(p_phase)
    p_phase.add_argument("--p-grid", required=True, help="START:STOP:STEP inside (-1, 1)")

    p_verify = command("verify", "run the property suite")
    window(p_verify, 64)
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--draws", type=int, default=100,
                          help="random draws for the algebra check (default %(default)s)")
    p_verify.add_argument("--full", action="store_true",
                          help="the acceptance gate's sizes (slow)")

    p_spec = command("spectrum", "eigenvalues of the truncated walk")
    profile_in_report_out(p_spec)
    window(p_spec, 256)

    p_trace = command("trace", "heat-trace index estimates over a t grid")
    profile_in_report_out(p_trace)
    window(p_trace, 300)
    p_trace.add_argument("--t-grid", default=",".join(f"{t:g}" for t in solver.DEFAULT_T_GRID),
                         help="comma-separated increasing times (default %(default)s)")

    p_bound = command("bound-state", "explicit kernel vector samples")
    profile_in_report_out(p_bound)
    window(p_bound, 200)
    p_bound.add_argument("--sign", choices=list(SIGNS), default="plus")

    return parser


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
        if "p_grid" in args:
            args.p_grid = _parse_p_grid(args.p_grid)
        if "t_grid" in args:
            args.t_grid = _parse_t_grid(args.t_grid)
        _check_limits(args)
        return COMMANDS[args.command](args)
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
