"""Tests for the generalized-time flows: Schur values, bilinear forms,
wave coefficients, Baker-Akhiezer functions, and tau determinants."""

import concurrent.futures
import dataclasses
import functools
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import sympy as sp

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeflow import grassmannian as gr
from shapeflow import kp
from shapeflow.kp import (
    ABForm,
    BakerAkhiezer,
    GeneralizedTimes,
    NearSingularA,
    SingularSystem,
    baker_akhiezer,
    kp_residual,
    kp_value,
    omega1_and_partials,
    sato_psi,
    schur,
    tau,
    _weight,
)
from shapeflow.observables import WindowTooSmall
from shapeflow.series import TruncatedSeries, exp_series

from helpers import exact_schur

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def schur_recurrence(tvals, K):
    """Independent Schur oracle: q S_q = sum_j j t_j S_{q-j}."""
    xi = np.zeros(K + 1, dtype=complex)
    for k, v in enumerate(tvals, start=1):
        if k <= K:
            xi[k] = v
    a = np.zeros(K + 1, dtype=complex)
    a[0] = 1.0
    for q in range(1, K + 1):
        a[q] = sum(j * xi[j] * a[q - j] for j in range(1, q + 1)) / q
    return a


def series_schur(tvals, K):
    """Schur oracle through the series layer: ``exp_series`` of xi's window.

    This was the numeric path of ``schur`` before the recurrence moved into
    it; the kernel must keep its bytes.
    """
    coeffs = np.zeros(K + 1, dtype=complex)
    for k, v in enumerate(tvals, start=1):
        if k <= K:
            coeffs[k] = v
    series = exp_series(TruncatedSeries(coeffs))
    return np.asarray([series.coeff(q) for q in range(K + 1)], dtype=complex)


# ---------------------------------------------------------------------------
# GeneralizedTimes


def test_times_padding_and_lookup():
    t = GeneralizedTimes((0.5,))
    assert t.values == (0.5, 0.0, 0.0)
    assert len(t.values) == 3
    assert GeneralizedTimes.of(t) is t


def test_times_exponent_is_finite_sum():
    t = GeneralizedTimes((0.1, -0.2, 0.05))
    z = 0.3 + 0.4j
    want = 0.1 * z - 0.2 * z**2 + 0.05 * z**3
    assert abs(t.xi(z) - want) < 1e-15


def test_sato_shift_values():
    t = GeneralizedTimes((0.1, 0.2, 0.3))
    z = 2.0
    shifted = t.sato_shifted(z)
    assert len(shifted.values) == 24
    assert abs(shifted.values[0] - (0.1 - 1 / 2)) < 1e-15
    assert abs(shifted.values[3] - (0.0 - 1 / (4 * 16))) < 1e-15
    assert abs(shifted.values[23] - (0.0 - 1 / (24 * 2**24))) < 1e-22


# ---------------------------------------------------------------------------
# Schur values


def test_schur_matches_displayed_polynomials():
    t1, t2, t3, t4 = sp.symbols("t1 t2 t3 t4")
    S = exact_schur((t1, t2, t3, t4), 4)
    want = {
        1: t1,
        2: t1**2 / 2 + t2,
        3: t1**3 / 6 + t1 * t2 + t3,
        4: t1**4 / 24 + t2**2 / 2 + t1**2 * t2 / 2 + t1 * t3 + t4,
    }
    assert S[0] == 1
    for k, expr in want.items():
        assert sp.expand(sp.sympify(S[k]) - expr) == 0


def schur_cases(seed, count):
    """Seeded time vectors of every kind the sweeps feed to ``schur``."""
    rng = np.random.default_rng(seed)
    zeros = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    for i in range(count):
        M = int(rng.integers(1, 6))
        kind = i % 6
        if kind == 0:  # real, over several scales
            t = tuple(float(x) for x in rng.standard_normal(M) * 10.0 ** rng.integers(-3, 1))
        elif kind == 1:  # complex
            t = tuple(complex(x, y) for x, y in 0.3 * rng.standard_normal((M, 2)))
        elif kind == 2:  # Sato-shifted, M = 24
            base = GeneralizedTimes(tuple(0.1 * rng.standard_normal(3)))
            t = base.sato_shifted(3 * complex(*rng.standard_normal(2))).values
        elif kind == 3:  # negated, as tau's exp(-xi) block uses
            base = GeneralizedTimes(tuple(complex(*v) for v in rng.standard_normal((M, 2))))
            t = tuple(-v for v in base.values)
        elif kind == 4:  # all zero
            t = (0.0,) * M
        else:  # signed zeros among nonzero entries
            pool = zeros + [0.25, -0.5j, 0.1 - 0.2j]
            t = tuple(pool[k] for k in rng.integers(0, len(pool), size=M))
        yield t, int(rng.integers(0, 40))


def test_schur_matches_series_oracle_bit_for_bit():
    count = 0
    for t, K in schur_cases(2025, 2400):
        got = schur(t, K)
        want = series_schur(t, K)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (t, K)
        count += 1
    assert count == 2400


@pytest.mark.parametrize(
    "values",
    [
        (-0.0, 0.0, -0.0),
        (0.1 - 0.2j, complex(-0.0, 0.3), -0.05j, 0.02),
        (1, np.float64(-0.5), np.complex128(0.1 - 0.25j), -2),
    ],
    ids=["signed-zeros", "complex", "ints-and-numpy-scalars"],
)
def test_schur_extends_its_prefix_bit_for_bit(values):
    # one times object keeps its Schur values; each call, shorter or longer
    # than the last, equals a fresh run on the plain values
    def same(got, want):
        assert got.dtype == want.dtype == complex
        assert got.tobytes() == want.tobytes()

    times = GeneralizedTimes(values)
    twin = GeneralizedTimes(values)
    for K in (17, 33, 5, 18):
        got = schur(times, K)
        same(got, schur(values, K))
        # a returned array is the caller's own
        got[:] = 7
        assert times == twin and hash(times) == hash(twin)
    same(schur(times, 33), schur(values, 33))


def test_schur_prefix_shared_between_threads():
    # threads extend one times object at once; each publishes a whole prefix,
    # so every result still equals a fresh run
    values = (0.1 - 0.2j, 0.05, -0.03j)
    want = {K: schur(values, K).tobytes() for K in range(41)}
    times = GeneralizedTimes(values)
    orders = [K for K in range(40, 0, -1) for _ in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda K: (K, schur(times, K).tobytes()), orders, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert len(got) == len(orders)
    assert all(data == want[K] for K, data in got)
    assert schur(times, 40).tobytes() == want[40]


def test_schur_trivial_times():
    S = schur((0.0, 0.0, 0.0), 6)
    assert S[0] == 1.0
    assert np.all(S[1:] == 0.0)


def test_schur_refuses_a_negative_order():
    with pytest.raises(ValueError, match="^Schur order must be >= 0$"):
        schur((0.1, 0.0, 0.0), -1)


def test_schur_exact_path_agrees_with_float_path():
    # the exact oracle on Fractions is within roundoff of the float path,
    # and on the same Python complex values it rounds as schur does, bit for bit
    exact = exact_schur((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)), 10)
    assert all(type(x) in (int, Fraction) for x in exact)
    floats = schur((0.5, 1 / 3, 0.2), 10)
    for q in range(11):
        assert abs(complex(exact[q]) - complex(floats[q])) < 1e-14
    for t, K in schur_cases(2026, 300):
        values = GeneralizedTimes(t).values
        want = exact_schur([complex(v) for v in values], K).astype(complex)
        assert schur(t, K).tobytes() == want.tobytes(), (t, K)


def test_schur_input_is_numbers_only():
    # a Fraction is read as its float; a symbol fails the complex conversion
    exact = (Fraction(1, 3), Fraction(-2, 7), Fraction(1, 5))
    got = schur(exact, 12)
    assert got.dtype == complex
    assert got.tobytes() == schur(tuple(float(x) for x in exact), 12).tobytes()
    with pytest.raises(TypeError):
        schur((sp.Symbol("t1"), 0.1, 0.0), 4)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-0.1, 0.1), min_size=3, max_size=3))
def test_schur_sums_to_exponential(tvals):
    S = schur(tvals, 25)
    t = GeneralizedTimes(tuple(tvals))
    for z in (0.5, -0.35 + 0.2j):
        partial = sum(S[q] * z**q for q in range(26))
        assert abs(partial - np.exp(t.xi(z))) < 1e-12


# ---------------------------------------------------------------------------
# The bilinear form and its table


def decaying_c(N, scale=0.4, phase=0.3):
    k = np.arange(1, N + 1)
    return scale**k * np.exp(1j * phase * k)


def d_alpha_a(c, t, alpha, N):
    """The exact partial d^alpha A, read off the table by the shift rule."""
    return ABForm.build(c, t, N).table[_weight(alpha)]


def test_a_form_matches_matrix_assembly():
    N = 10
    c = decaying_c(N)
    t = (0.07, 0.04, 0.03)
    a = schur_recurrence(t, N + 1)
    cbar = np.conj(c)
    c11, _ = gr.c_blocks(cbar, 1, N)
    inv = np.linalg.inv(np.asarray(c11, dtype=complex))
    row = np.zeros(N + 1, dtype=complex)
    row[:N] = (np.arange(1, N + 1)) * cbar  # entry q-1 holds q * conj(c_q)
    for alpha in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0)]:
        s = alpha[0] + 2 * alpha[1] + 3 * alpha[2]
        col = np.array([a[i + 1 - s] if i + 1 - s >= 0 else 0.0 for i in range(N + 1)])
        want = row @ inv @ col
        got = d_alpha_a(c, t, alpha, N)
        assert abs(got - want) < 1e-12


def reference_table(c, t, N):
    """The table of a fresh build: the weight cache is emptied first."""
    kp._shape_weights.cache_clear()
    return ABForm.build(c, t, N).table


def test_shape_weights_are_cached_per_shape_and_window():
    t = (0.04, -0.02, 0.01)
    c = decaying_c(8)
    kp._shape_weights.cache_clear()
    first = ABForm.build(c, t, 8).table
    assert ABForm.build(c, (0.01, 0.0, 0.0), 8).table != first
    assert kp._shape_weights.cache_info().hits == 1

    # the cached array is read-only
    weights = kp._shape_weights(c.tobytes(), 8)
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 1.0

    # mutating the caller's array after a build does not reach a later table
    c[0] += 0.1
    mutated = ABForm.build(c, t, 8).table
    assert mutated != first
    assert mutated == reference_table(c, t, 8)

    # two shapes one ulp apart get their own tables
    near = c.copy()
    near[0] = complex(np.nextafter(c[0].real, 1.0), c[0].imag)
    kp._shape_weights.cache_clear()
    pair = ABForm.build(c, t, 8).table, ABForm.build(near, t, 8).table
    assert pair[0] != pair[1]
    assert pair == (reference_table(c, t, 8), reference_table(near, t, 8))

    # N is part of the key: three coefficients at N = 4 and then N = 8
    short = c[:3]
    kp._shape_weights.cache_clear()
    small, large = ABForm.build(short, t, 4).table, ABForm.build(short, t, 8).table
    assert (small, large) == (reference_table(short, t, 4), reference_table(short, t, 8))


@pytest.mark.parametrize("N", [1, 5, 11, 16, 32])
def test_a_form_table_keeps_the_bits_of_the_zero_padded_lag_gather(N):
    # the table was a[lags] @ v with a the Schur values after _TABLE_DEPTH
    # zeros and lags[s, q] = q - s + _TABLE_DEPTH; the Toeplitz gather is the
    # same matrix with one appended zero in place of those; below
    # N = _TABLE_DEPTH - 1 it has more rows than columns
    rng = np.random.default_rng(N)
    for trial in range(4):
        c = 0.5 ** np.arange(1, N + 1) * (rng.normal(size=N) + 1j * rng.normal(size=N))
        c[rng.integers(N)] = complex(-0.0, -0.0) if trial % 2 else complex(0.0, -0.0)
        t = GeneralizedTimes(tuple(rng.normal(size=3) * 0.1) + ((-0.0,) if trial == 3 else ()))
        v = kp._shape_weights(c.tobytes(), N)
        lags = np.arange(N + 2) - np.arange(kp._TABLE_DEPTH + 1)[:, None] + kp._TABLE_DEPTH
        old = np.concatenate([np.zeros(kp._TABLE_DEPTH), schur(t, N + 1)])[lags] @ v
        assert np.array(ABForm.build(c, t, N).table).tobytes() == old.tobytes()


def test_a_form_trivials_and_validation():
    N = 8
    zeros = ABForm.build(np.zeros(N), (0.1, 0.2, 0.3), N)
    assert zeros.table == (0j,) * (kp._TABLE_DEPTH + 1)
    c = decaying_c(N)
    assert abs(d_alpha_a(c, (0.0, 0.0, 0.0), (0, 0, 0), N)) == 0.0
    ab = ABForm.build(c, (0.05, 0.02, 0.01), N)
    assert [f.name for f in dataclasses.fields(ab)] == ["table"]
    assert len(ab.table) == kp._TABLE_DEPTH + 1
    assert all(type(x) is complex for x in ab.table)
    # a list, a tuple and an array of the same coefficients give the same table
    assert ABForm.build(list(c), (0.05, 0.02, 0.01), N) == ab
    assert ABForm.build(tuple(c), (0.05, 0.02, 0.01), N) == ab
    with pytest.raises(WindowTooSmall):
        ABForm.build(c, (0.1, 0.0, 0.0), 0)


def test_shift_rule_matches_finite_differences():
    N = 12
    c = decaying_c(N)
    t = np.array([0.07, 0.04, 0.03])
    for k in range(3):
        for alpha in [(0, 0, 0), (1, 0, 0), (0, 1, 0)]:
            bumped = list(alpha)
            bumped[k] += 1
            exact = d_alpha_a(c, t, tuple(bumped), N)
            errs = []
            for h in (1e-3, 5e-4):
                tp, tm = t.copy(), t.copy()
                tp[k] += h
                tm[k] -= h
                fd = (d_alpha_a(c, tp, alpha, N) - d_alpha_a(c, tm, alpha, N)) / (2 * h)
                errs.append(abs(fd - exact))
            # second-order accuracy: halving h divides the error by ~4
            assert errs[1] < 1e-9 or 3.5 < errs[0] / errs[1] < 4.5


# ---------------------------------------------------------------------------
# omega_1 and its partial derivatives


def test_omega_base_value_at_zero_times():
    N = 8
    c = decaying_c(N)
    ab = ABForm.build(c, (0.0, 0.0, 0.0), N)
    parts = omega1_and_partials(ab)
    assert abs(parts[(0, 0, 0)] - np.conj(c[0])) < 1e-15


def test_omega_partials_all_zero_for_trivial_shape():
    ab = ABForm.build(np.zeros(6), (0.1, 0.05, 0.02), 6)
    parts = omega1_and_partials(ab)
    assert len(parts) == 22  # all multi-indices of total order <= 3, plus d_1^4, d_1^5
    assert all(v == 0.0 for v in parts.values())


def test_quotient_rule_identity_for_first_derivative():
    N = 12
    c = decaying_c(N)
    ab = ABForm.build(c, (0.06, 0.03, 0.02), N)
    parts = omega1_and_partials(ab)
    A, dA, ddA = ab.table[:3]
    want = ddA / (1 - A) + (dA / (1 - A)) ** 2
    assert abs(parts[(1, 0, 0)] - want) < 1e-12


def test_omega_partial_matches_finite_differences():
    N = 12
    c = decaying_c(N)
    t = np.array([0.06, 0.03, 0.02])
    exact = omega1_and_partials(ABForm.build(c, t, N))[(0, 1, 0)]
    errs = []
    for h in (1e-3, 5e-4):
        tp, tm = t.copy(), t.copy()
        tp[1] += h
        tm[1] -= h
        up = omega1_and_partials(ABForm.build(c, tp, N))[(0, 0, 0)]
        dn = omega1_and_partials(ABForm.build(c, tm, N))[(0, 0, 0)]
        errs.append(abs((up - dn) / (2 * h) - exact))
    assert errs[1] < 1e-9 or 3.5 < errs[0] / errs[1] < 4.5


def test_near_singular_denominator_raises():
    ab = ABForm(table=(1.0,) * 13)
    with pytest.raises(NearSingularA):
        omega1_and_partials(ab)


# ---------------------------------------------------------------------------
# KP residual


def test_modulus_is_abs_and_inf_past_the_float_range():
    # abs of a Python complex raises where the modulus passes the float
    # range; modulus reads that as inf and keeps abs's bits everywhere else
    rng = np.random.default_rng(3)
    scales = 10.0 ** rng.uniform(-300, 300, 500)
    for z in (scales * (rng.standard_normal(500) + 1j * rng.standard_normal(500))).tolist():
        assert kp.modulus(z).hex() == abs(z).hex()
    assert kp.modulus(complex(1e308, 1e308)) == abs(complex(1e308, 1e308))
    with pytest.raises(OverflowError):
        abs(complex(1.5e308, 1.5e308))
    assert kp.modulus(complex(1.5e308, 1.5e308)) == kp.modulus(complex(-1.7e308, -1e308)) == float("inf")


def test_kp_residual_zero_for_trivial_shape():
    assert kp_residual(np.zeros(8), (0.05, 0.03, 0.02), 8) == 0.0


def test_kp_residual_at_roundoff_floor_for_every_window():
    # The shift rule makes the residual an algebraic identity in the table
    # slots, so it sits at machine noise for every N instead of decaying.
    c = lambda N: np.array([0.5**k / k for k in range(1, N + 1)])
    t = (0.05, 0.03, 0.02)
    for N in (8, 16, 32):
        assert kp_residual(c(N), t, N) < 1e-12


# Symbolic oracle for the recurrence: omega_1 = D_1/(1 - D_0) as a rational
# function of the table slots, differentiated by the chain rule with each
# slot D_s flowing to D_{s+k} under d/dt_k.
ORACLE_DEPTH = 10  # d_3^3 omega_1 reaches slot 1 + 3*3
D_SYMS = sp.symbols(f"D0:{ORACLE_DEPTH + 1}")


def _shift_derive(expr, k):
    out = sp.S.Zero
    for s, sym in enumerate(D_SYMS):
        g = sp.diff(expr, sym)
        if g != 0:
            out = out + g * D_SYMS[s + k]
    return sp.together(out)


@functools.lru_cache(maxsize=None)
def _omega_expr(alpha):
    if alpha == (0, 0, 0):
        return D_SYMS[1] / (1 - D_SYMS[0])
    lead = next(i for i, x in enumerate(alpha) if x > 0)
    parent = list(alpha)
    parent[lead] -= 1
    return _shift_derive(_omega_expr(tuple(parent)), lead + 1)


@functools.lru_cache(maxsize=None)
def _kp_expr():
    """3 d2^2 lam - d1(4 d3 lam - 12 lam d1 lam - d1^3 lam), lam = -d1 omega_1."""
    lam = sp.together(-_shift_derive(_omega_expr((0, 0, 0)), 1))
    lam_1 = _shift_derive(lam, 1)
    lam_111 = _shift_derive(_shift_derive(lam_1, 1), 1)
    lam_22 = _shift_derive(_shift_derive(lam, 2), 2)
    lam_3 = _shift_derive(lam, 3)
    return 3 * lam_22 - _shift_derive(4 * lam_3 - 12 * lam * lam_1 - lam_111, 1)


def table_form(values):
    """An ABForm holding the given D_0, D_1, ... (zero-padded), for slot-level tests."""
    table = tuple(values) + (0.0,) * (13 - len(values))
    return ABForm(table=table)


def test_kp_combination_is_algebraic_identity():
    # Symbolic proof that the residual vanishes identically: the KP
    # combination simplifies to zero as a rational function of the slots.
    assert sp.simplify(_kp_expr()) == 0
    # and the numeric recurrence does not collapse it symbolically: it
    # returns honest floating-point noise, not literal zero, on a generic table
    jet = omega1_and_partials(table_form([0.1 / (s + 2) for s in range(11)]))
    assert abs(kp_value(jet)) < 1e-14


def test_recurrence_matches_symbolic_oracle_on_random_tables():
    alphas = sorted(omega1_and_partials(table_form([0.0] * 11)))
    order3 = [a for a in np.ndindex(4, 4, 4) if sum(a) <= 3]
    assert alphas == sorted(order3 + [(4, 0, 0), (5, 0, 0)])  # 20 + d_1^4, d_1^5
    exprs = [_omega_expr(alpha) for alpha in alphas]
    oracle = sp.lambdify(D_SYMS, exprs + [_kp_expr()], "numpy")
    rng = np.random.default_rng(2024)
    for _ in range(60):
        vals = 0.4 * (rng.standard_normal(11) + 1j * rng.standard_normal(11))
        ab = table_form(list(vals))
        *want, want_kp = oracle(*vals)
        jet = omega1_and_partials(ab)
        for alpha, w in zip(alphas, want):
            assert abs(jet[alpha] - w) <= 1e-12 * abs(w)
        # the KP value is roundoff on both sides: compare on the scale of its terms
        terms = (jet[(1, 2, 0)], jet[(2, 0, 1)], jet[(2, 0, 0)] ** 2,
                 jet[(1, 0, 0)] * jet[(3, 0, 0)], jet[(5, 0, 0)])
        scale = 12 * max(abs(x) for x in terms)
        assert abs(kp_value(jet) - want_kp) <= 1e-12 * scale


EXACT_LAYER = {"shapeflow.observables", "shapeflow.virasoro", "shapeflow.checks", "shapeflow.series"}

# One interpreter imports numpy, which loads no module the probes look for,
# then runs each probe in a fork of itself and writes the modules it holds.
_FORK_PROBES = """
import json, os, sys
import numpy
for code, cwd, out in json.loads(sys.argv[1]):
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.chdir(cwd)
            exec(code, {"__name__": "__probe__"})
            with open(out, "w") as fh:
                fh.write(" ".join(sorted(sys.modules)))
            status = 0
        except BaseException:
            import traceback
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    if os.waitpid(pid, 0)[1]:
        sys.exit(f"probe failed: {code!r}")
"""


def _fresh_modules(probes, tmp_path):
    """The modules each probe's code holds after it runs, by label; ``probes``
    maps a label to (code, cwd), and each runs in a fresh fork of one child
    interpreter that has imported numpy and no ``shapeflow`` module."""
    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = {label: tmp_path / f"modules_{i}.txt" for i, label in enumerate(probes)}
    spec = [(code, str(cwd), str(outs[label])) for label, (code, cwd) in probes.items()]
    proc = subprocess.run(
        [sys.executable, "-c", _FORK_PROBES, json.dumps(spec)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return {label: set(out.read_text().split()) for label, out in outs.items()}


def test_cli_import_leaves_sympy_unloaded(tmp_path):
    # each command loads only its layer, and the numeric runtime never
    # loads the exact layer
    flow = {
        "driver": {"pieces": [{"t_start": 0.0, "atoms": [{"theta": 0.0, "mu": 1.0}]}]},
        "horizon": 0.01,
        "step": 0.005,
        "order": 4,
        "m_neg": 2,
        "n_psi": 2,
    }
    sweep = {"f_source": {"c": [0.3]}, "n": 2, "N": 4, "t_rows": [[0.05]]}
    graph = {"c": [0.3], "n": 2, "N": 4}
    numeric = {"shapeflow.evolution", "shapeflow.driver"}
    # the numeric commands take numbers only, so none loads exact arithmetic
    exact = EXACT_LAYER | {"fractions", "decimal"}
    runs = {
        "evolve": (flow, "shapeflow.evolution", exact | {"shapeflow.kp", "shapeflow.grassmannian"}),
        "kp": (sweep, "shapeflow.kp", exact | numeric),
        "tau": (sweep, "shapeflow.kp", exact | numeric),
        "graph-dump": (graph, "shapeflow.grassmannian", exact | numeric),
        "check witt": (None, "shapeflow.checks", numeric | {"shapeflow.kp"}),
        "check quadrature": (None, "shapeflow.checks", numeric | {"shapeflow.kp"}),
        "--dump-identities": (None, "shapeflow.checks", numeric | {"shapeflow.kp"}),
    }
    modules = ("cli", "arrays", "kp", "evolution", "grassmannian")
    probes = {module: (f"import shapeflow.{module}", tmp_path) for module in modules}
    for command, (config, _, _) in runs.items():
        argv = command.split()
        (tmp_path / command).mkdir()
        if config is not None:
            (tmp_path / command / "config.json").write_text(json.dumps(config))
            argv += ["--config", "config.json"]
        probes[command] = (f"from shapeflow import cli\nassert cli.main({argv!r}) == 0", tmp_path / command)
    loaded = _fresh_modules(probes, tmp_path)

    def package(label):
        return {m for m in loaded[label] if m.startswith("shapeflow.")}

    assert "sympy" not in loaded["cli"] and "concurrent.futures" not in loaded["cli"]
    assert package("cli") == {"shapeflow.cli"}
    assert package("arrays") == {"shapeflow.arrays"}
    for module in ("kp", "evolution", "grassmannian"):
        assert not loaded[module] & exact, module
    # no probe passes --parallel, so none builds a thread pool
    for command, (_, used, unused) in runs.items():
        assert used in loaded[command], command
        assert not loaded[command] & (unused | {"concurrent.futures"}), command


def test_kp_residual_random_decaying_shapes():
    rng = np.random.default_rng(7)
    for _ in range(5):
        N = 12
        c = 0.3 * rng.standard_normal(N) / np.arange(1, N + 1)
        t = 0.05 * rng.standard_normal(3)
        assert kp_residual(c, t, N) < 1e-10


# ---------------------------------------------------------------------------
# Baker-Akhiezer functions


def test_wave_function_order_one_matches_closed_form():
    N = 16
    c = np.array([0.5**k / k for k in range(1, N + 1)])
    op = gr.step2_graph(c, 1, N)
    t = (0.05, 0.03, 0.02)
    ba = baker_akhiezer(op, t)
    ab = ABForm.build(c, t, N)
    closed = ab.table[1] / (1 - ab.table[0])
    assert abs(ba.omegas[0] - closed) < 1e-10


def test_wave_function_identity_shape_is_constant_one():
    op = gr.step2_graph(np.zeros(8), 1, 8)
    ba = baker_akhiezer(op, (0.0, 0.0, 0.0), z_samples=(2.0, 3.0 + 1.0j))
    assert all(abs(w) < 1e-15 for w in ba.omegas)
    assert all(abs(v - 1.0) < 1e-15 for v in ba.values)
    assert abs(ba.laurent[op.n] - 1.0) < 1e-15
    assert all(
        abs(ba.laurent[p + op.n]) < 1e-15 for p in range(-op.n, op.N + 1) if p != 0
    )


def test_wave_function_membership_in_graph():
    rng = np.random.default_rng(11)
    N = 16
    t = (0.04, -0.02, 0.03)
    for n in (1, 2, 3):
        c = 0.3 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
        c /= np.arange(1, N + 1)
        op = gr.step2_graph(c, n, N)
        ba = baker_akhiezer(op, t)
        _, c11inv = gr.c_blocks(np.conj(c), n, N)
        psi = c11inv @ ba.laurent[n:]
        # Psi is the basis combination sum_k psi[k] e_k
        assert np.abs(ba.laurent - op.basis @ psi).max() < 1e-8


def test_wave_function_pole_window():
    # Psi / exp(xi) - 1 must hold only negative powers, at most n of them:
    # dividing out the Schur series leaves exactly the omega tail.
    N = 12
    n = 2
    c = decaying_c(N, scale=0.3)
    op = gr.step2_graph(c, n, N)
    t = (0.05, 0.02, 0.01)
    ba = baker_akhiezer(op, t)
    a = schur_recurrence(t, N + n)
    # reconstruct Psi's nonnegative part from a and omegas alone
    for i in range(N + 1):
        want = a[i] + sum(
            ba.omegas[l - 1] * a[i + l] for l in range(1, n + 1) if i + l <= N + n
        )
        assert abs(ba.laurent[i + n] - want) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_wave_function_negative_part_from_schur_oracle(n):
    # the coefficient of z^-j in Psi / exp(xi) is sum_{l >= j} omega_l a_{l-j},
    # with the Schur values a taken from the series-layer oracle
    rng = np.random.default_rng(80 + n)
    N = 16
    k = np.arange(1, N + 1)
    for _ in range(3):
        c = 0.5**k / k * np.exp(2j * np.pi * rng.uniform(size=N))
        op = gr.step2_graph(c, n, N)
        t = tuple(0.1 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        ba = baker_akhiezer(op, t)
        a = series_schur(t, n)
        for j in range(1, n + 1):
            want = sum(ba.omegas[l - 1] * a[l - j] for l in range(j, n + 1))
            assert abs(ba.laurent[n - j] - want) < 1e-13 * max(1.0, abs(want)), (j, want)


def test_wave_function_singular_system_raises():
    op = gr.GraphOperator(
        n=1,
        N=2,
        matrix=np.array([[1.0, 0.0, 0.0]], dtype=complex),
        c11=np.eye(3, dtype=complex),
        basis=[],
    )
    with pytest.raises(SingularSystem):
        baker_akhiezer(op, (1.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# tau determinants


def test_tau_trivial_cases():
    N = 16
    c = np.array([0.5**k / k for k in range(1, N + 1)])
    op = gr.step2_graph(c, 1, N)
    assert tau(op, (0.0, 0.0, 0.0), 12) == 1.0 + 0.0j
    id_op = gr.step2_graph(np.zeros(8), 1, 8)
    assert tau(id_op, (0.05, 0.03, 0.02), 12) == 1.0 + 0.0j


def test_tau_determinant_stabilizes():
    t = (0.05, 0.03, 0.02)
    c32 = np.array([0.5**k / k for k in range(1, 33)])
    op1 = gr.step2_graph(c32, 1, 32)
    assert abs(tau(op1, t, 16) - tau(op1, t, 32)) < 1e-8
    rng = np.random.default_rng(3)
    c = 0.3 * rng.standard_normal(16) / np.arange(1, 17)
    op2 = gr.step2_graph(c, 2, 16)
    assert abs(tau(op2, t, 16) - tau(op2, t, 32)) < 1e-8


def dense_tau(op, t, N):
    """Reference tau: the (N+1)x(N+1) determinant ``det(1 + a^{-1} b T)``.

    ``a^{-1}`` is multiplication by exp(+xi), the lower-triangular Toeplitz
    band of S(t); ``b[i, k-1] = S_{i+k}(-t)`` is the cut block of
    multiplication by exp(-xi); ``T`` is the graph matrix cut to its first
    ``min(N, op.N) + 1`` columns and zero-padded to N + 1.
    """
    times = GeneralizedTimes.of(t)
    h = schur(tuple(-v for v in times.values), N + op.n)
    inv_sym = schur(times, N)
    rows = np.arange(N + 1)[:, None]
    a_inv = np.tril(inv_sym[np.abs(rows - np.arange(N + 1))])
    b = h[rows + np.arange(1, op.n + 1)]
    graph_cols = np.zeros((op.n, N + 1), dtype=complex)
    cols = min(N, op.N) + 1
    graph_cols[:, :cols] = op.matrix[:, :cols]
    return complex(np.linalg.det(np.eye(N + 1) + a_inv @ b @ graph_cols))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_tau_matches_dense_determinant(n):
    # det of the n-by-n wave system equals the dense (N+1)x(N+1) determinant
    # (Sylvester), for windows below, at and above the graph's own
    rng = np.random.default_rng(60 + n)
    for N in (8, 16, 32):
        k = np.arange(1, N + 1)
        for _ in range(4):
            c = 0.5**k / k * np.exp(2j * np.pi * rng.uniform(size=N)) * rng.uniform(0.5, 1.0, N)
            op = gr.step2_graph(c, n, N)
            t = 0.05 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            shifted = GeneralizedTimes.of(t).sato_shifted(3 * np.exp(1j * rng.uniform(0, 7)))
            for times in (t, shifted):
                for window in (N // 2, N, 2 * N):
                    want = dense_tau(op, times, window)
                    assert abs(tau(op, times, window) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_tau_quotient_reproduces_wave_function(n):
    N = 32
    c = np.array([0.5**k / k for k in range(1, N + 1)])
    op = gr.step2_graph(c, n, N)
    t = (0.05, 0.03, 0.02)
    ba = baker_akhiezer(op, t, z_samples=(3.0 * np.exp(1j * np.pi / 7), -3.0))
    for z, psi in zip(ba.samples, ba.values):
        assert abs(sato_psi(op, t, z, N) - psi) < 1e-8
