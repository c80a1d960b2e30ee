#!/usr/bin/env python3
"""Sweep generalized times for a fixed shape and print the wave data.

Writes kp_sweep.csv (wave coefficient, its derivative, KP residual at N and
2N, tau) and tau.csv for the grid in configs/kp_sweep.json, then prints the
first few rows.  The residual columns sit at the roundoff floor for every
window size: within the truncated model the wave coefficient solves the KP
equation identically.

Usage: python3 scripts/kp_sweep.py [--out DIR] [--parallel K]
"""

import argparse
import csv
import os
import sys

from shapeflow.cli import main as cli_main

CONFIG = os.path.join(os.path.dirname(__file__), "configs", "kp_sweep.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/kp", help="output directory")
    parser.add_argument("--parallel", default="1", help="worker count")
    args = parser.parse_args()

    base = ["--config", CONFIG, "--out", args.out]
    for argv in (["kp", *base, "--parallel", args.parallel], ["tau", *base]):
        code = cli_main(argv)
        if code != 0:
            sys.exit(code)

    with open(os.path.join(args.out, "kp_sweep.csv")) as fh:
        rows = list(csv.DictReader(fh))
    print(f"\n{len(rows)} grid points; first three:")
    for row in rows[:3]:
        t = f"({row['t1']}, {row['t2']}, {row['t3']})"
        print(
            f"  t={t}: omega1={float(row['re_omega1']):+.6f}"
            f"{float(row['im_omega1']):+.6f}j"
            f"  residual={float(row['residual']):.2e}"
            f"  tau={float(row['re_tau']):.6f}{float(row['im_tau']):+.6f}j"
        )


if __name__ == "__main__":
    main()
