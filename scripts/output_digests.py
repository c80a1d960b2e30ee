#!/usr/bin/env python3
"""Print the sha256 of every file a fixed set of CLI runs writes.

The runs go through ``shapeflow.cli.main`` into one output directory:
``evolve`` on configs/single_atom.json and configs/three_atoms.json, on
a two-piece driver switching on the step grid and off it, and at order 64
with a 65-entry psibar window and a switch off the grid, ``kp``
and ``tau`` on configs/kp_sweep.json at graph orders n = 1, 2 and 3, ``kp``
once more at each n without the sweep's ``convergence_pair``, ``kp`` and
``tau`` at n = 2 on rows of one, two and three times in place of the
sweep's grid, ``kp`` and ``tau`` on the sweep with its shape read from the
three_atoms trajectory at t = 0.5, ``graph-dump`` for n = 1..3 at N = 4, 16
and 32 on a fixed shape, ``check`` for every suite, and
``--dump-identities``.  Each file
gets one line, ``sha256  relative/path``, sorted by path, so two trees
compare with one diff:

    PYTHONPATH=src python3 scripts/output_digests.py > after.txt
    PYTHONPATH=../before/src python3 scripts/output_digests.py > before.txt
    diff before.txt after.txt

Usage: python3 scripts/output_digests.py  (the files go to a temporary
directory that is removed afterwards)
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

from shapeflow import checks
from shapeflow.cli import main as cli_main

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")
# the fixed shape of every graph-dump run: c_k = 0.4^k e^{ik}, k = 1..8
GRAPH_SHAPE = [[0.4**k * math.cos(k), 0.4**k * math.sin(k)] for k in range(1, 9)]
# the switched evolve runs: step 1e-3, so 0.05 is on the step grid and 0.0505 is not;
# (name, switch time, horizon, order, m_neg = n_psi)
SWITCHES = [
    ("switch_on_grid", 50 * 1e-3, 0.1, 16, 8),
    ("switch_off_grid", 0.0505, 0.1, 16, 8),
    ("wide_window", 0.0105, 0.02, 64, 32),
]
# the sweep's rows given as t_rows of one, two and three entries; the CLI pads
# each to three times
T_ROWS = [[0.03], [0.01, 0.02], [0.05, -0.0, 0.01], [-0.02]]


def _write(path, config):
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


def _runs(out, cfg_dir):
    """(output directory relative to ``out``, argv) of every run but --dump-identities.

    The runs go in this order, so a run may read what an earlier one wrote.
    """
    for name in ("single_atom", "three_atoms"):
        yield f"evolve/{name}", ["evolve", "--config", os.path.join(CONFIGS, f"{name}.json")]
    for name, t_start, horizon, order, half_width in SWITCHES:
        pieces = [
            {"t_start": 0.0, "atoms": [{"theta": 0.7, "mu": 1.0}]},
            {"t_start": t_start, "atoms": [{"theta": 2.4, "mu": 0.6}, {"theta": 4.9, "mu": 0.4}]},
        ]
        config = {"driver": {"pieces": pieces}, "horizon": horizon, "step": 1e-3, "order": order,
                  "m_neg": half_width, "n_psi": half_width, "seed": 3}
        yield f"evolve/{name}", ["evolve", "--config", _write(os.path.join(cfg_dir, f"{name}.json"), config)]
    with open(os.path.join(CONFIGS, "kp_sweep.json")) as fh:
        sweep = json.load(fh)
    for n in (1, 2, 3):
        config = _write(os.path.join(cfg_dir, f"sweep_n{n}.json"), dict(sweep, n=n))
        for command in ("kp", "tau"):
            yield f"sweep/n{n}", [command, "--config", config]
        config = _write(os.path.join(cfg_dir, f"nopair_n{n}.json"), dict(sweep, n=n, convergence_pair=False))
        yield f"sweep/n{n}_nopair", ["kp", "--config", config]
    rows = {key: value for key, value in sweep.items() if key != "t_grid"}
    config = _write(os.path.join(cfg_dir, "rows_n2.json"), dict(rows, n=2, t_rows=T_ROWS))
    for command in ("kp", "tau"):
        yield "sweep/n2_rows", [command, "--config", config]
    snapshot = {"snapshot_csv": os.path.join(out, "evolve", "three_atoms", "trajectory.csv"), "at_t": 0.5}
    config = _write(os.path.join(cfg_dir, "snapshot.json"), dict(sweep, f_source=snapshot))
    for command in ("kp", "tau"):
        yield "sweep/snapshot", [command, "--config", config]
    for n in (1, 2, 3):
        for N in (4, 16, 32):
            config = _write(os.path.join(cfg_dir, f"graph_n{n}_N{N}.json"), {"c": GRAPH_SHAPE, "n": n, "N": N})
            yield f"graph/n{n}_N{N}", ["graph-dump", "--config", config]
    for suite in checks.SUITES:
        yield "check", ["check", suite]


def run(out, cfg_dir):
    """Write every output under ``out``; the exit code of the first failing run, else 0."""
    for rel, argv in _runs(out, cfg_dir):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([*argv, "--out", os.path.join(out, rel)])
        if code != 0:
            print(f"{' '.join(argv)} exited {code}", file=sys.stderr)
            return code
    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        code = cli_main(["--dump-identities"])
    with open(os.path.join(out, "identities.jsonl"), "w") as fh:
        fh.write(listing.getvalue())
    return code


def digests(out):
    """``sha256  relative/path`` lines for every output file under ``out``, sorted by path."""
    lines = []
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, out)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main():
    with tempfile.TemporaryDirectory() as out, tempfile.TemporaryDirectory() as cfg_dir:
        code = run(out, cfg_dir)
        if code == 0:
            print("\n".join(digests(out)))
    sys.exit(code)


if __name__ == "__main__":
    main()
