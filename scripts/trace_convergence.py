#!/usr/bin/env python3
"""Heat-trace index estimates versus window size and diffusion time.

Tabulates the bulk supertrace for a wall profile over a grid of window
half-widths and times, next to the closed-form index it converges to.
Each window takes one eigensolve for all the times.
"""

import argparse
import math
import sys

from ssqw.analytic import witten_index
from ssqw.lattice import OPEN, LatticeWindow
from ssqw.model import CoinProfile, LimitCoin, validate_parameters
from ssqw.solver import trace_index_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=float, default=0.5)
    parser.add_argument("--a-left", type=float, default=0.8)
    parser.add_argument("--a-right", type=float, default=0.0)
    parser.add_argument("--windows", default="50,100,200,300")
    parser.add_argument("--t-grid", default="5,10,20,50")
    args = parser.parse_args()

    params = validate_parameters(args.p, math.sqrt(1.0 - args.p**2))
    profile = CoinProfile(
        LimitCoin.symmetric(args.a_left, math.sqrt(1.0 - args.a_left**2)),
        LimitCoin.symmetric(args.a_right, math.sqrt(1.0 - args.a_right**2)),
    )
    report = witten_index(params, profile)
    print(f"closed form: type {report.coin_type}, index {report.index}")
    times = [float(t) for t in args.t_grid.split(",")]
    print("N," + ",".join(f"t={t:g}" for t in times))
    for n_text in args.windows.split(","):
        window = LatticeWindow(int(n_text), OPEN)
        row = trace_index_report(window, params, profile, times).estimates
        print(f"{window.half_width}," + ",".join(f"{v:.6f}" for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
