"""Each check of ``ssqw.checks`` fails when the numeric it guards is broken.

Every case runs one check at sizes under ``QUICK`` twice: as the code
stands, where it must pass, and with one fault rebound into the numeric
the check guards, where it must report FAIL rather than raise.
"""

import dataclasses
import functools
import os
import subprocess
import sys

import numpy as np
import pytest

import ssqw
from ssqw import analytic, checks, lattice, solver

SMALL = dataclasses.replace(checks.QUICK, census=120, census_p=(0.3,), trace=100,
                            spectrum=32, perturbation=60, trials=2)


@functools.cache
def _census():
    return checks.kernel_census(SMALL)


def _negated_diagonal(build, *args):
    block = build(*args)
    bands = block.matrix.copy()
    bands[0] = -bands[0]
    return dataclasses.replace(block, matrix=bands)


def _shifted_state(construct, *args):
    state = construct(*args)
    return dataclasses.replace(state, amplitudes=np.roll(state.amplitudes, 1))


def _swapped(count, *args):
    return count(*args)[::-1]


def _index_of_the_plus_kernel(index, *args):
    report = index(*args)
    return dataclasses.replace(report, index=report.d_plus) if report.fredholm else report


# check: (its small run, module, name, fault(original, *args) rebound as module.name)
CASES = {
    "operator-algebra": (lambda: checks.operator_algebra(7, half_width=16, draws=3),
                         lattice, "build_q_epsilon", _negated_diagonal),
    "transfer-eigenvalues": (lambda: checks.transfer_eigenvalues(8, draws=50),
                             analytic, "transfer_eigenvalues",
                             lambda f, params, limit, sign: f(params, limit, -sign)),
    "wall-diagonalization": (lambda: checks.wall_diagonalization(9, draws=20),
                             solver, "_beta", lambda f, *args: -f(*args)),
    "kernel-count-grid": (lambda: checks.kernel_count_grid(checks.kernel_census(SMALL)),
                          solver, "kernel_counts", _swapped),
    "bound-states": (lambda: checks.bound_states(_census(), 10, draws=2),
                     solver, "construct_bound_state", _shifted_state),
    "bound-states-missing": (lambda: checks.bound_states(_census(), 10, draws=2),
                             solver, "construct_bound_state", lambda f, *args: None),
    "heat-trace": (lambda: checks.heat_trace(SMALL),
                   solver, "h_epsilon_band_eigensystem",
                   lambda f, window, params, profile, sign: f(window, params, profile, -sign)),
    "spectrum-sampling": (lambda: checks.spectrum_sampling(SMALL, 11, draws=1),
                          solver, "sample_spectrum", lambda f, *args: 1.001 * f(*args)),
    "sign-flip-identities": (checks.sign_flip_identities, analytic, "witten_index",
                             lambda f, params, profile: f(params if params.p > 0
                                                          else params.negated(), profile)),
    "p-zero-slice": (checks.p_zero_slice, analytic, "witten_index", _index_of_the_plus_kernel),
    "compact-perturbations": (lambda: checks.compact_perturbations(SMALL, 12),
                              solver, "kernel_counts", _swapped),
}


@pytest.mark.parametrize("case", list(CASES))
def test_a_broken_numeric_fails_its_check(case, monkeypatch):
    check, module, name, fault = CASES[case]
    clean = check()
    assert clean.passed, clean.line()
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: fault(original, *args))
    broken = check()
    assert not broken.passed, broken.line()
    assert broken.name == clean.name == case.removesuffix("-missing")


def test_the_algebra_and_the_census_run_without_scipy_sparse():
    code = (
        "import sys\n"
        "from ssqw import checks, lattice, solver\n"
        "from ssqw.model import CoinProfile, LimitCoin, validate_parameters\n"
        "assert checks.operator_algebra(7, half_width=8, draws=2).passed\n"
        "profile = CoinProfile(LimitCoin.symmetric(0.8, 0.6), LimitCoin.symmetric(0.0, 1.0))\n"
        "window = lattice.LatticeWindow(40, lattice.OPEN)\n"
        "plus, minus = solver.kernel_counts(validate_parameters(0.5, 0.75 ** 0.5), profile, "
        "window)\n"
        "assert (plus.dimension, minus.dimension) == (1, 0)\n"
        "print('scipy.sparse' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(ssqw.__file__))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
