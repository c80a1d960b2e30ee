"""Seeded workload generators.

A workload is a list of operations, one ``shapeflow`` command each, that the
benchmark cycles through.  The generator draws every input from the seed and
writes it as a config file; the program sees only those files.  Each
operation carries its output check (see ``oracles``) and the number of items
it completes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from typing import Callable

import numpy as np
from shapeflow.grassmannian import step2_graph

import oracles

WORKLOADS = ("flow", "kp_sweep", "identities")

# flow: N=16, psibar window [-8, 8] (n_psi - N <= -m_neg keeps Gbar exact), h=1e-3
FLOW = {"order": 16, "m_neg": 8, "n_psi": 8, "step": 1e-3, "horizon": 0.05, "configs": 4}
# kp_sweep: N=16 with the 2N residual, a 3 x 2 x 2 time grid, 6 shapes
KP = {"N": 16, "shapes": 6, "terms": 6, "t1": 3, "t2": 2, "t3": 2, "min_margin": 0.5}
# identities: every check suite plus one order-3 graph dump
SUITE_RECORDS = {"witt": 2, "bracket": 2, "basis": 2, "quadrature": 2}
GRAPH = {"n": 3, "N": 16, "terms": 8}

TINY = {
    "flow": {"horizon": 0.01, "configs": 2},
    "kp_sweep": {"shapes": 3, "t1": 2, "t2": 1, "t3": 1},
}


@dataclasses.dataclass
class Op:
    """One command: its argv, output directory, items and output check."""

    key: str
    argv: list
    out_dir: str
    items: int
    check: Callable[[str], list]  # stdout -> problems
    group: int  # ops sharing a group form one user operation (kp_sweep shape)


@dataclasses.dataclass
class Workload:
    name: str
    ops: list
    sizes: dict
    configs: list  # config paths, loaded during set-up
    setup_rows: list  # (c, t, N) evaluated once during kp set-up


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return path


def _weights(rng, count):
    """Atom weights that sum to 1 within the driver's 1e-12 tolerance."""
    raw = rng.uniform(0.2, 1.0, count)
    mus = [float(v) for v in raw[:-1] / raw.sum()]
    return mus + [1.0 - sum(mus)]


def _flow(rng, work, sizes):
    ops = []
    for i in range(sizes["configs"]):
        if i == 0:  # the Koebe case: one piece, one unit atom at theta = 0
            pieces = [{"t_start": 0.0, "atoms": [{"theta": 0.0, "mu": 1.0}]}]
        else:
            # pieces start on the step grid, so no RK4 step straddles a jump of p
            steps = int(round(sizes["horizon"] / sizes["step"]))
            count = int(rng.integers(1, 4))
            cuts = rng.choice(np.arange(1, steps), count - 1, replace=False)
            starts = [0.0] + [int(k) * sizes["step"] for k in sorted(cuts)]
            pieces = []
            for start in starts:
                thetas = rng.uniform(0, 2 * math.pi, int(rng.integers(1, 5)))
                mus = _weights(rng, len(thetas))
                pieces.append(
                    {"t_start": start, "atoms": [{"theta": float(th), "mu": mu} for th, mu in zip(thetas, mus)]}
                )
        cfg = _write(
            f"{work}/cfg/flow{i}.json",
            {
                "driver": {"pieces": pieces},
                "horizon": sizes["horizon"],
                "step": sizes["step"],
                "order": sizes["order"],
                "m_neg": sizes["m_neg"],
                "n_psi": sizes["n_psi"],
                "seed": int(rng.integers(0, 2**31)),
            },
        )
        out = f"{work}/out/flow{i}"

        def check(stdout, out=out, koebe=(i == 0), starts=[p["t_start"] for p in pieces]):
            return oracles.flow_problems(out, sizes, starts, koebe)

        steps = int(round(sizes["horizon"] / sizes["step"]))
        ops.append(Op(f"flow{i}", ["evolve", "--config", cfg, "--out", out], out, steps, check, i))
    return Workload("flow", ops, sizes, [op.argv[2] for op in ops], [])


def _kp(rng, work, sizes):
    N = sizes["N"]
    ops, rows_all = [], []
    for i in range(sizes["shapes"]):
        n = 1 + i % 3
        grid = {
            "t1": sorted(float(v) for v in rng.uniform(0.0, 0.06, sizes["t1"])),
            "t2": sorted(float(v) for v in rng.uniform(-0.03, 0.03, sizes["t2"])),
            "t3": sorted(float(v) for v in rng.uniform(-0.02, 0.02, sizes["t3"])),
        }
        rows = [(a, b, c) for a in grid["t1"] for b in grid["t2"] for c in grid["t3"]]
        # decaying coefficients; redraw until |1 - A| keeps a wide margin on the grid
        while True:
            k = np.arange(1, sizes["terms"] + 1)
            c = 0.5**k / k * np.exp(1j * rng.uniform(0, 2 * math.pi, k.size)) * rng.uniform(0.5, 1.0, k.size)
            if min(abs(oracles.one_minus_a(c, t, N)) for t in rows) >= sizes["min_margin"]:
                break
        cfg = _write(
            f"{work}/cfg/kp{i}.json",
            {
                "f_source": {"c": [[float(v.real), float(v.imag)] for v in c]},
                "n": n,
                "N": N,
                "t_grid": grid,
                "convergence_pair": True,
            },
        )
        kp_out, tau_out = f"{work}/out/kp{i}", f"{work}/out/tau{i}"
        kp_tau = {}

        def check_kp(stdout, out=kp_out, c=c, rows=rows, kp_tau=kp_tau):
            problems, kp_tau["value"] = oracles.kp_problems(out, c, rows, N)
            return problems

        def check_tau(stdout, out=tau_out, c=c, rows=rows, n=n, kp_tau=kp_tau):
            op = step2_graph(c, 1, N) if n == 1 else None
            return oracles.tau_problems(out, rows, kp_tau.get("value"), op, N)

        ops.append(Op(f"kp{i}", ["kp", "--config", cfg, "--out", kp_out], kp_out, len(rows), check_kp, i))
        ops.append(Op(f"tau{i}", ["tau", "--config", cfg, "--out", tau_out], tau_out, len(rows), check_tau, i))
        rows_all.append((c, rows[0], N))
    return Workload("kp_sweep", ops, sizes, [op.argv[2] for op in ops[::2]], rows_all[:1])


def _identities(rng, work, sizes):
    ops = []
    for g, suite in enumerate(SUITE_RECORDS):
        out = f"{work}/out/check_{suite}"

        def check(stdout, out=out, suite=suite):
            return oracles.check_problems(out, suite, stdout, SUITE_RECORDS[suite])

        ops.append(Op(f"check_{suite}", ["check", suite, "--out", out], out, SUITE_RECORDS[suite], check, g))
    k = np.arange(1, sizes["terms"] + 1)
    c = 0.4**k * np.exp(1j * rng.uniform(0, 2 * math.pi, k.size))
    cfg = _write(
        f"{work}/cfg/graph.json",
        {"c": [[float(v.real), float(v.imag)] for v in c], "n": sizes["n"], "N": sizes["N"]},
    )
    out = f"{work}/out/graph"

    def check_graph(stdout, out=out):
        return oracles.graph_problems(out, c, sizes["n"], sizes["N"])

    ops.append(Op("graph", ["graph-dump", "--config", cfg, "--out", out], out, 1, check_graph, len(ops)))
    return Workload("identities", ops, sizes, [cfg], [])


def generate(name, seed, work, tiny=False):
    """The workload's operations for this seed, with configs written under work."""
    os.makedirs(f"{work}/cfg", exist_ok=True)
    os.makedirs(f"{work}/out", exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    base = {"flow": FLOW, "kp_sweep": KP, "identities": {**GRAPH, "suites": list(SUITE_RECORDS)}}[name]
    sizes = {**base, **(TINY.get(name, {}) if tiny else {})}
    build = {"flow": _flow, "kp_sweep": _kp, "identities": _identities}[name]
    return build(rng, work, sizes)
