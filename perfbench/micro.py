"""Two-size timings of single layer calls, in microseconds per call.

Each kernel is called in batches sized to take about ``BATCH_S`` seconds;
the figure is the median over ``BATCHES`` batches of the batch time divided
by its calls.  Inputs are drawn from the seed.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

BATCH_S = 0.02
BATCHES = 7


def per_call_us(fn):
    fn()  # fill caches and lazy state first
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    calls = max(1, int(BATCH_S / once))
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples) * 1e6


def _cplx(rng, size, decay=0.5):
    return decay ** np.arange(size) * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def timings(seed):
    """Metric name -> microseconds per call, plus the sizes used."""
    from shapeflow.driver import Atom, DriverPiece, HerglotzDriver
    from shapeflow.evolution import ShapeState, rhs
    from shapeflow.grassmannian import step2_graph
    from shapeflow.kp import ABForm
    from shapeflow.series import TruncatedSeries, exp_series

    rng = np.random.default_rng([seed, 99])
    out = {}
    for n in (16, 64):
        a, b = TruncatedSeries(_cplx(rng, n + 1)), TruncatedSeries(_cplx(rng, n + 1))
        out[f"series.mul_us.n{n}"] = per_call_us(lambda: a * b)
    exact = [TruncatedSeries([Fraction(int(v), 7) for v in rng.integers(-9, 10, 9)]) for _ in range(2)]
    out["series.mul_exact_us.n8"] = per_call_us(lambda: exact[0] * exact[1])
    unit = TruncatedSeries(np.concatenate([[1.0], _cplx(rng, 16)]))
    out["series.reciprocal_us.n16"] = per_call_us(unit.reciprocal)
    nil = TruncatedSeries(np.concatenate([[0.0], _cplx(rng, 16)]))
    out["series.exp_us.n16"] = per_call_us(lambda: exp_series(nil))

    thetas = rng.uniform(0, 2 * np.pi, 3)
    driver = HerglotzDriver((DriverPiece(0.0, tuple(Atom(float(t), 1 / 3) for t in thetas)),))
    for n in (16, 64):
        state = ShapeState(0.05, 0.1 * _cplx(rng, n), _cplx(rng, n + 1, 0.9), m_neg=n // 2)
        out[f"evolution.rhs_us.n{n}"] = per_call_us(lambda: rhs(state, driver))
    for n in (16, 64):
        c = 0.5 * _cplx(rng, 8)
        out[f"kp.abform_build_us.n{n}"] = per_call_us(lambda: ABForm.build(c, (0.03, 0.01, -0.01), n))
        out[f"grassmannian.step2_graph_us.n{n}"] = per_call_us(lambda: step2_graph(c, 3, n))
    sizes = {
        "series": "N=16, N=64 complex; N=8 Fraction",
        "rhs": "N=16 window [-8,8]; N=64 window [-32,32]; 3 atoms",
        "abform_build": "N=16, N=64; 8 shape coefficients",
        "step2_graph": "n=3; N=16, N=64; 8 shape coefficients",
    }
    return out, sizes
