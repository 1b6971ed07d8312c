"""The four benchmark workloads: inputs from a seed, one op, and its gate.

Each workload is built from ``(ssqw, seed, workdir)``.  Construction is the
set-up: it generates every input from the seed, writes the profile files
the CLI reads, and computes the references the gates compare against, so
the gates never call the program while an op is traced.  ``op(i)`` runs the
i-th op; ``check(i, out)`` returns ``"ok"``, ``"inconclusive"`` (a census
point whose SVD count is not conclusive: counted, not failed) or a failure
description.  ``output_bytes(out)`` is what the op's commands wrote.

A run's time depends on its inputs as well as on the program, so the
workloads with short ops draw many inputs from one seed (32 spectrum pairs,
8 sweep profiles) and cycle through them: a run's median then stands for
the input distribution, not for one draw of it.

Gate thresholds are those of ``tests/test_acceptance.py``; they are not to
be loosened.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

DIGEST_SEED = 1  # the seed whose sweep output is pinned by SWEEP_SHA256

# Census (test_kernel_census_matches_the_classification, test_bound_state_certification)
CENSUS_HALF_WIDTH = 400
RESIDUAL_BOUND = 1e-8
OVERLAP_BOUND = 0.999

# Spectrum (test_spectrum_containment_fill_and_gap)
SPECTRUM_HALF_WIDTH = 128
SPECTRUM_PAIRS = 32
UNIMODULAR_BOUND = 1e-10
OVERSHOOT_BOUND = 1e-6
OUTLIER_SLACK = 1e-9
MAX_OUTLIERS = 8
OUTLIER_PIN = 0.05
SPECTRAL_GAP = 0.02

# Sweep
SWEEP_GRID = "-0.9999:0.9999:0.0001"
SWEEP_PROFILES = 8
SWEEP_HEADER = "p,fredholm,d_plus,d_minus,index,near_boundary"
SWEEP_SAMPLE_ROWS = 64
# sha256 of the sweep CSV of DIGEST_SEED's first profile on SWEEP_GRID, as commit 0235860 writes it
SWEEP_SHA256 = "3986b33a7bf1e9433fd98410438d96dc450fee15033d6f4068421acb6f8fa02f"

VERIFY_CHECKS = 10


def _coin_doc(a: float, phase: float) -> dict:
    b = math.sqrt(1.0 - a * a)
    return {"a": a, "b": [b * math.cos(phase), b * math.sin(phase)]}


def _write_json(path: str, doc) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


class Census:
    """One op: both chiral SVD censuses of one grid point, plus certificates."""

    name = "census"

    def __init__(self, ssqw, seed: int, workdir: str, half_width: int = CENSUS_HALF_WIDTH,
                 grid_kwargs=None):
        self.ssqw = ssqw
        solver, analytic = ssqw.solver, ssqw.analytic
        self.window = ssqw.lattice.LatticeWindow(half_width, ssqw.lattice.OPEN)
        rng = np.random.default_rng(seed)
        strata: dict = {}
        for params, profile in solver.classification_grid(**(grid_kwargs or {})):
            strata.setdefault(ssqw.model.classify_coin(profile), []).append((params, profile))
        # round-robin over the coin types, each shuffled by the seed
        queues = []
        for coin_type in sorted(strata, key=lambda t: t.value):
            order = rng.permutation(len(strata[coin_type]))
            queues.append([strata[coin_type][k] for k in order])
        self.points = []
        while any(queues):
            for queue in queues:
                if queue:
                    self.points.append(queue.pop(0))
        self.expected = [
            (analytic.kernel_dimensions(params, profile), analytic.witten_index(params, profile).index)
            for params, profile in self.points
        ]

    def op(self, i: int):
        solver, analytic = self.ssqw.solver, self.ssqw.analytic
        params, profile = self.points[i % len(self.points)]
        plus, minus = solver.kernel_counts(params, profile, self.window)
        dims = analytic.kernel_dimensions(params, profile)
        report = analytic.witten_index(params, profile)
        certificates = []
        for sign, count in ((+1, plus), (-1, minus)):
            if not (count.conclusive and count.dimension == 1):
                continue
            state = solver.construct_bound_state(params, profile, sign, self.window)
            if state is None:
                certificates.append((sign, None, None))
                continue
            residual = solver.bound_state_residual(state, params, profile)
            overlap = abs(np.vdot(count.null_vectors[0], state.amplitudes))
            certificates.append((sign, residual, overlap))
        conclusive = plus.conclusive and minus.conclusive
        return {
            "svd": (plus.dimension, minus.dimension) if conclusive else None,
            "dims": dims,
            "fredholm": report.fredholm,
            "index": report.index,
            "certificates": certificates,
        }

    def check(self, i: int, out) -> str:
        expected_dims, expected_index = self.expected[i % len(self.expected)]
        if not out["fredholm"] or out["index"] != expected_index:
            return f"index {out['index']} (fredholm {out['fredholm']}), expected {expected_index}"
        if tuple(out["dims"]) != tuple(expected_dims):
            return f"kernel_dimensions {out['dims']}, expected {expected_dims}"
        for sign, residual, overlap in out["certificates"]:
            if residual is None:
                return f"no bound state constructed for sign {sign:+d}"
            if not (residual < RESIDUAL_BOUND and overlap > OVERLAP_BOUND):
                return f"certificate sign {sign:+d}: residual {residual:.3e}, overlap {overlap:.6f}"
        if out["svd"] is None:
            return "inconclusive"
        if tuple(out["svd"]) != tuple(expected_dims):
            return f"SVD census {out['svd']}, expected {expected_dims}"
        if out["svd"][0] - out["svd"][1] != expected_index:
            return f"SVD index {out['svd'][0] - out['svd'][1]}, expected {expected_index}"
        return "ok"

    def output_bytes(self, out) -> int:
        return 0


def _spectrum_case(ssqw, rng, homogeneous: bool):
    """A profile document with the band hull [lo, hi] its spectrum must respect.

    Like the acceptance points, q and the coins are real.
    """
    analytic = ssqw.analytic
    while True:
        if homogeneous:
            p = float(rng.uniform(0.3, 0.6)) * float(rng.choice([-1.0, 1.0]))
            left = right = _coin_doc(float(rng.uniform(-0.6, 0.6)), 0.0)
        else:
            # a step between a nearly diagonal and a nearly off-diagonal coin,
            # like the acceptance points (0.5, 0.8, 0.0) and (0.7, 0.9, 0.1)
            p = float(rng.uniform(0.3, 0.8)) * float(rng.choice([-1.0, 1.0]))
            big = float(rng.uniform(0.75, 0.95)) * float(rng.choice([-1.0, 1.0]))
            small = float(rng.uniform(-0.2, 0.2))
            left, right = _coin_doc(big, 0.0), _coin_doc(small, 0.0)
            if rng.random() < 0.5:
                left, right = right, left
        doc = {"p": p, "left": left, "right": right}
        params, profile = ssqw.model.load_profile(doc)
        report = analytic.witten_index(params, profile)
        if not report.fredholm:
            continue
        if min(abs(abs(p) - abs(profile.left.a)), abs(abs(p) - abs(profile.right.a))) < 0.05:
            continue
        left_band = analytic.essential_spectrum(params, profile.left)
        right_band = analytic.essential_spectrum(params, profile.right)
        lo, hi = min(left_band.lo, right_band.lo), max(left_band.hi, right_band.hi)
        if not homogeneous and not (hi < 1.0 - SPECTRAL_GAP and lo > -1.0 + SPECTRAL_GAP):
            continue
        return doc, lo, hi


def _check_spectrum(path: str, half_width: int, homogeneous: bool, lo: float, hi: float) -> str:
    with open(path) as fh:
        pairs = np.asarray(json.load(fh)["eigenvalues"], dtype=float)
    expected = 2 * (2 * half_width + 1)
    if pairs.shape != (expected, 2):
        return f"{pairs.shape[0]} eigenvalues, expected {expected}"
    re, im = pairs[:, 0], pairs[:, 1]
    unimodular = float(np.max(np.abs(np.hypot(re, im) - 1.0)))
    if not unimodular < UNIMODULAR_BOUND:
        return f"max ||z|-1| {unimodular:.3e}"
    if homogeneous:
        overshoot = max(float(np.max(re)) - hi, lo - float(np.min(re)), 0.0)
        if not overshoot < OVERSHOOT_BOUND:
            return f"Re z leaves [{lo:.6f}, {hi:.6f}] by {overshoot:.3e}"
        return "ok"
    outliers = re[(re > hi + OUTLIER_SLACK) | (re < lo - OUTLIER_SLACK)]
    pinned = np.minimum(np.abs(outliers - 1.0), np.abs(outliers + 1.0))
    if len(outliers) > MAX_OUTLIERS or (len(outliers) and float(np.max(pinned)) >= OUTLIER_PIN):
        return f"{len(outliers)} outliers outside [{lo:.4f}, {hi:.4f}], worst {np.max(pinned):.3e} from +-1"
    return "ok"


class Spectrum:
    """One op: ``ssqw spectrum --window N --format json --out <tmp>`` in-process,
    once on a homogeneous coin and once on a Fredholm step.

    ``eigvals`` takes about a third longer on a homogeneous coin than on a
    step.  With one profile per op, the op times fell in two clusters and
    their median jumped between them from run to run; a pair per op keeps
    one cluster.
    """

    name = "spectrum"

    def __init__(self, ssqw, seed: int, workdir: str, half_width: int = SPECTRUM_HALF_WIDTH,
                 pairs: int = SPECTRUM_PAIRS):
        self.ssqw = ssqw
        self.half_width = half_width
        rng = np.random.default_rng(seed)
        self.pairs = []
        for k in range(pairs):
            pair = []
            for homogeneous in (True, False):
                doc, lo, hi = _spectrum_case(ssqw, rng, homogeneous)
                kind = "homogeneous" if homogeneous else "step"
                path = _write_json(os.path.join(workdir, f"spectrum-{k}-{kind}.json"), doc)
                pair.append((path, os.path.join(workdir, f"spectrum-out-{kind}.json"),
                             homogeneous, lo, hi))
            self.pairs.append(pair)

    def op(self, i: int):
        return [self.ssqw.cli.main(["spectrum", "--profile", path, "--window", str(self.half_width),
                                    "--format", "json", "--out", out_path])
                for path, out_path, _, _, _ in self.pairs[i % len(self.pairs)]]

    def check(self, i: int, rcs) -> str:
        for rc, (_, out_path, homogeneous, lo, hi) in zip(rcs, self.pairs[i % len(self.pairs)]):
            verdict = (f"exit code {rc}" if rc != 0 else
                       _check_spectrum(out_path, self.half_width, homogeneous, lo, hi))
            if verdict != "ok":
                return ("homogeneous: " if homogeneous else "step: ") + verdict
        return "ok"

    def output_bytes(self, rcs) -> int:
        return sum(os.path.getsize(out_path) for _, out_path, _, _, _ in self.pairs[0])


class Sweep:
    """One op: ``ssqw phase-diagram --p-grid <grid> --format csv --out <tmp>``
    on one of the seed's two-sided profiles, taken in turn."""

    name = "sweep"

    def __init__(self, ssqw, seed: int, workdir: str, grid: str = SWEEP_GRID,
                 profiles: int = SWEEP_PROFILES):
        self.ssqw = ssqw
        self.grid = grid
        rng = np.random.default_rng(seed)
        start, stop, step = (Fraction(v) for v in grid.split(":"))
        self.rows = int((stop - start) / step) + 1
        self.first, self.last = float(start), float(start + (self.rows - 1) * step)
        self.profiles = []
        for k in range(profiles):
            doc = {
                "p": 0.5,
                "theta": float(rng.uniform(-math.pi, math.pi)),
                "left": _coin_doc(float(rng.uniform(-0.95, 0.95)), float(rng.uniform(-math.pi, math.pi))),
                "right": _coin_doc(float(rng.uniform(-0.95, 0.95)), float(rng.uniform(-math.pi, math.pi))),
            }
            path = _write_json(os.path.join(workdir, f"sweep-profile-{k}.json"), doc)
            picks = rng.choice(self.rows, size=min(SWEEP_SAMPLE_ROWS, self.rows), replace=False)
            params, profile = ssqw.model.load_profile(doc)
            expected_rows = {int(r): self._derive_row(float(start + int(r) * step), params.theta, profile)
                             for r in sorted(picks)}
            self.profiles.append((path, expected_rows))
        self.out_path = os.path.join(workdir, "sweep-out.csv")
        # pinned for the seed's first profile
        self.sha256 = SWEEP_SHA256 if (seed == DIGEST_SEED and grid == SWEEP_GRID) else None

    def _derive_row(self, p: float, theta: float, profile) -> str:
        abs_q = math.sqrt(max(0.0, 1.0 - p * p))
        params = self.ssqw.model.validate_parameters(p, abs_q * complex(math.cos(theta), math.sin(theta)))
        r = self.ssqw.analytic.witten_index(params, profile)
        counts = ("" if v is None else str(v) for v in (r.d_plus, r.d_minus, r.index))
        return ",".join([repr(p), "true" if r.fredholm else "false", *counts,
                         "true" if r.near_boundary else "false"])

    def op(self, i: int):
        path = self.profiles[i % len(self.profiles)][0]
        return self.ssqw.cli.main(["phase-diagram", "--profile", path,
                                   "--p-grid", self.grid, "--format", "csv", "--out", self.out_path])

    def check(self, i: int, rc) -> str:
        if rc != 0:
            return f"exit code {rc}"
        with open(self.out_path, "rb") as fh:
            data = fh.read()
        k = i % len(self.profiles)
        if k == 0 and self.sha256 is not None and hashlib.sha256(data).hexdigest() != self.sha256:
            return "sha256 differs from the pinned output"
        lines = data.decode().split("\n")
        if lines[-1] != "":
            return "output does not end with a newline"
        header, rows = lines[0], lines[1:-1]
        if header != SWEEP_HEADER:
            return f"header {header!r}"
        if len(rows) != self.rows:
            return f"{len(rows)} rows, expected {self.rows}"
        ps = [float(row.split(",", 1)[0]) for row in rows]
        if ps[0] != self.first or ps[-1] != self.last or any(b <= a for a, b in zip(ps, ps[1:])):
            return "p column is not the grid in increasing order"
        for r, expected in self.profiles[k][1].items():
            if rows[r] != expected:
                return f"row {r}: {rows[r]!r}, re-derived {expected!r}"
        return "ok"

    def output_bytes(self, rc) -> int:
        return os.path.getsize(self.out_path)


class Verify:
    """One op: ``ssqw verify --seed 7`` (quick mode, the CLI's default seed) in-process.

    The run's seed is not passed on.  ``verify`` sizes its bound-state
    windows from its seed (half-widths 100 to 392 over seeds 0 to 59), and
    the largest window sets the process's peak RSS (96 to 139 MiB), so a
    seeded verify would spread ``peak_rss_mib`` past any usable bound.
    """

    name = "verify"
    seed = 7

    def __init__(self, ssqw, seed: int, workdir: str, extra_args=()):
        self.ssqw = ssqw
        self.extra_args = list(extra_args)

    def op(self, i: int):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = self.ssqw.cli.main(["verify", "--seed", str(self.seed)] + self.extra_args)
        return rc, buf.getvalue()

    def check(self, i: int, out) -> str:
        rc, text = out
        lines = text.splitlines()
        if rc != 0:
            return f"exit code {rc}: " + "; ".join(l for l in lines if not l.startswith("PASS"))
        passes = [l for l in lines[:-1] if l.startswith("PASS ")]
        if len(passes) != VERIFY_CHECKS or len(lines) != VERIFY_CHECKS + 1:
            return f"{len(passes)} PASS lines in {len(lines)} lines, expected {VERIFY_CHECKS}"
        if lines[-1] != "verify: OK":
            return f"last line {lines[-1]!r}"
        return "ok"

    def output_bytes(self, out) -> int:
        return len(out[1].encode())


WORKLOADS = {w.name: w for w in (Census, Spectrum, Sweep, Verify)}
