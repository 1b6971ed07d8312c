"""The scripts under ``scripts/`` run end to end on tiny arguments."""

import math
import os
import subprocess
import sys

import ssqw
from ssqw.lattice import OPEN, LatticeWindow
from ssqw.model import CoinProfile, LimitCoin, validate_parameters
from ssqw.solver import trace_index_report

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_PATH = os.path.dirname(os.path.dirname(ssqw.__file__))


def _run_script(name: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC_PATH)
    result = subprocess.run([sys.executable, os.path.join(REPO, "scripts", name), *argv],
                            capture_output=True, text=True, env=env, check=True)
    return result.stdout


def test_phase_diagram_script():
    lines = _run_script("phase_diagram.py", "--n-p", "3", "--n-a", "2").splitlines()
    assert lines[0] == "p,a_left,fredholm,index" and len(lines) == 1 + 3 * 2


def test_trace_convergence_rows_are_the_trace_report():
    out = _run_script("trace_convergence.py", "--windows", "20,30", "--t-grid", "5,50")
    lines = out.splitlines()
    assert lines[:2] == ["closed form: type III, index 1", "N,t=5,t=50"] and len(lines) == 4
    params = validate_parameters(0.5, math.sqrt(0.75))
    profile = CoinProfile(LimitCoin.symmetric(0.8, math.sqrt(1.0 - 0.8 ** 2)),
                          LimitCoin.symmetric(0.0, 1.0))
    for line, half_width in zip(lines[2:], (20, 30)):
        report = trace_index_report(LatticeWindow(half_width, OPEN), params, profile, (5.0, 50.0))
        assert line == f"{half_width}," + ",".join(f"{v:.6f}" for v in report.estimates)
