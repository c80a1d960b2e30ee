"""Trajectory tests: closed-form oracles, conservation, integrator order."""

import io
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeflow import InvalidInput
from shapeflow.arrays import taylor_values
from shapeflow.driver import Atom, DriverPiece, HerglotzDriver, InvalidMeasure
from shapeflow.evolution import (
    _BLOCK,
    ShapeState,
    StepRejected,
    _horner_lists,
    _horner_order,
    _phi_and_u,
    _power_sums,
    evolve,
    g0,
    generating_function,
    map_values,
    pseudo_hamiltonian,
    rhs,
)
from shapeflow.observables import (
    QC,
    BracketWindow,
    PhasePoly,
    corrected_G,
    gbar_coefficient,
    poisson_bracket,
)
from shapeflow.series import TruncatedSeries


def random_driver(rng, n_atoms=3):
    thetas = rng.uniform(0, 2 * np.pi, size=n_atoms)
    mus = rng.random(n_atoms)
    mus = mus / mus.sum()
    atoms = tuple(Atom(float(th), float(mu)) for th, mu in zip(thetas, mus))
    return HerglotzDriver(pieces=(DriverPiece(0.0, atoms),))


def koebe_side(x):
    return x / (1 + x) ** 2


def psi(state, m):
    """psibar_m of the state."""
    return state.psibar[m + state.m_neg]


# -- reference kernel ---------------------------------------------------------
# The TruncatedSeries formulation the array kernel replaced.  It performs the
# same floating-point operations in the same order, so the two must agree
# bit for bit.


def oracle_power_sum(q, w):
    n = w.order
    acc = TruncatedSeries.constant(q[-1], n)
    for qk in q[-2::-1]:
        acc = acc * w + TruncatedSeries.constant(qk, n)
    return acc * w


def oracle_phi_and_u(state, d):
    n = state.order
    w = TruncatedSeries(
        np.concatenate([[0.0 + 0j], np.exp(-state.t) * np.concatenate([[1.0], state.c])])
    )
    pk = d.moments(state.t, n + 1)
    one_minus_p = oracle_power_sum(-pk, w)
    u = oracle_power_sum(-(np.arange(2, n + 3)) * pk, w)
    f = TruncatedSeries(np.concatenate([[0.0 + 0j, 1.0], state.c]))
    return f * one_minus_p, u


def oracle_rhs(state, d):
    phi, u = oracle_phi_and_u(state, d)
    dc = np.asarray(phi.coeffs[2:], dtype=complex)
    uj = np.asarray(u.coeffs, dtype=complex)
    psz = state.psibar
    dpsi = np.zeros_like(psz)
    for j in range(1, min(state.order, len(psz) - 1) + 1):
        dpsi[:-j] -= uj[j] * psz[j:]
    return dc, dpsi


def oracle_hamiltonian(state, d):
    phi, _ = oracle_phi_and_u(state, d)
    total = 0j
    for m in range(1, min(state.order, state.n_psi) + 1):
        total += phi.coeff(m + 1) * psi(state, m)
    return total


def rk4_states(s0, d, horizon, step):
    """The states of classical RK4 from ``rhs`` on ShapeState stages, with
    evolve's rule for switches: a switch inside a step splits it, and each
    part runs on the moments of the piece it starts on."""
    starts = [p.t_start for p in d.pieces]
    slack = 1e-9 * step
    states = [s0]
    for k in range(round(horizon / step)):
        state, t_end = states[-1], s0.t + (k + 1) * step
        cuts = [t for t in starts if state.t + slack < t < t_end - slack]
        for end in [*cuts, t_end]:
            pk = d.moments(starts[d.piece_index(state.t, slack)], s0.order + 1)
            h = end - state.t if cuts else step

            def at(dt, dc, dpsi, state=state):
                return ShapeState(state.t + dt, state.c + dc, state.psibar + dpsi, state.m_neg)

            k1 = rhs(state, d, pk)
            k2 = rhs(at(h / 2, h / 2 * k1[0], h / 2 * k1[1]), d, pk)
            k3 = rhs(at(h / 2, h / 2 * k2[0], h / 2 * k2[1]), d, pk)
            k4 = rhs(at(h, h * k3[0], h * k3[1]), d, pk)
            state = at(h, *(h / 6 * (a + 2 * b + 2 * c + e) for a, b, c, e in zip(k1, k2, k3, k4)))
            state.t = end
        states.append(state)
    return states


def oracle_gbar(state):
    out = []
    for k in range(-state.m_neg, state.n_psi + 1):
        acc = psi(state, k)
        for j in range(1, min(state.order, state.n_psi - k) + 1):
            acc += (j + 1) * state.c[j - 1] * psi(state, k + j)
        out.append(acc)
    return np.array(out)


def same_bits(a, b):
    return np.asarray(a, dtype=complex).tobytes() == np.asarray(b, dtype=complex).tobytes()


@pytest.mark.parametrize("order", [1, 2, 4, 16, 64])
def test_array_kernel_matches_series_oracle_bit_for_bit(order):
    rng = np.random.default_rng(order)
    for trial in range(6):
        d = random_driver(rng, n_atoms=1 + trial % 4)
        m_neg = int(rng.integers(0, order + 1))
        n_psi = int(rng.integers(0, order + 1))
        c = 0.3 * (rng.normal(size=order) + 1j * rng.normal(size=order)) / np.arange(1, order + 1)
        psibar = rng.normal(size=m_neg + n_psi + 1) + 1j * rng.normal(size=m_neg + n_psi + 1)
        s = ShapeState(float(rng.uniform(0, 2)), c, psibar, m_neg=m_neg)
        pk = d.moments(s.t, order + 1)

        phi, u = _phi_and_u(s.t, s.c, _horner_lists(pk))
        phi_ref, u_ref = oracle_phi_and_u(s, d)
        assert same_bits(phi, phi_ref.coeffs) and same_bits(u, u_ref.coeffs)
        dc, dpsi = rhs(s, d)
        dc_ref, dpsi_ref = oracle_rhs(s, d)
        assert same_bits(dc, dc_ref) and same_bits(dpsi, dpsi_ref)
        assert same_bits(rhs(s, d, pk)[1], dpsi_ref)
        assert same_bits(pseudo_hamiltonian(s, d), oracle_hamiltonian(s, d))
        assert same_bits(generating_function(s), oracle_gbar(s))


def full_window_power_sum(q, w):
    """Horner on whole ``np.convolve`` windows, as the kernel ran before windowing."""
    keep = len(w)
    acc = np.zeros(keep, dtype=complex)
    acc[0] = q[-1]
    for qk in q[-2::-1]:
        acc = np.convolve(acc, w)[:keep]
        acc[0] += qk
    return np.convolve(acc, w)[:keep]


def _signed_entries(rng, size):
    """Magnitudes 1e-3..10 at random phases; about one part in six is +0 or -0."""
    z = 10.0 ** rng.uniform(-3, 1, size) * np.exp(2j * np.pi * rng.random(size))
    parts = np.stack([z.real, z.imag], axis=1)
    zero = rng.random(parts.shape) < 1 / 6
    parts[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    return parts.view(complex)[:, 0]  # keeps the sign of each zero part


def twice(z):
    """2 z, each real part doubled, so every sign of zero is kept."""
    return (2.0 * z.view(float)).view(complex)


def test_windowed_power_sum_matches_full_window_horner_bit_for_bit():
    # windows of 3..258 entries and q of up to len(w) - 1 entries, as the
    # kernel calls it; w_0 is +0 like every w the kernel builds
    rng = np.random.default_rng(19)
    sizes = [3, 258] + [int(np.exp(rng.uniform(np.log(3), np.log(259)))) for _ in range(998)]
    for keep in sizes:
        n_q = keep - 1 if rng.random() < 0.7 else int(rng.integers(1, keep))
        w, q = _signed_entries(rng, keep), _signed_entries(rng, n_q)
        w[0] = 0.0
        ref = full_window_power_sum(q, w)
        assert np.isfinite(ref).all()
        # the fused pass takes 2q as its second sequence: doubling every real
        # part is exact, so its full-window sum is 2 * ref to the bit
        fused = _power_sums(_horner_order(q), _horner_order(twice(q)), w[::-1].copy())
        assert same_bits(fused[0], ref) and same_bits(fused[1], twice(ref)), (keep, n_q)


def test_kernel_keeps_the_signed_zeros_of_psibar():
    # a -0 psibar_k with no terms past it stays -0 in Gbar_k, as in the
    # sequential sums of the oracle; a sum started at +0 would lose the sign
    rng = np.random.default_rng(23)
    for trial in range(300):
        order, m_neg, n_psi = (int(v) for v in rng.integers(1, 12, size=3))
        c = 0.3 * _signed_entries(rng, order)
        s = ShapeState(float(rng.uniform(0, 2)), c, _signed_entries(rng, m_neg + n_psi + 1), m_neg=m_neg)
        d = random_driver(rng, n_atoms=1 + trial % 3)
        assert same_bits(generating_function(s), oracle_gbar(s))
        assert all(same_bits(a, b) for a, b in zip(rhs(s, d), oracle_rhs(s, d)))
    # a sequence of states goes _BLOCK at a time, each row with its state's bits
    m_neg, n_psi = 4, 5
    states = [ShapeState(0.0, 0.3 * _signed_entries(rng, 9), _signed_entries(rng, m_neg + n_psi + 1), m_neg) for _ in range(201)]
    rows = [oracle_gbar(s) for s in states]
    for count in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 201):
        assert same_bits(generating_function(states[:count]), rows[:count]), count


def test_taylor_values_match_series_evaluate_bit_for_bit():
    rng = np.random.default_rng(7)
    for trial in range(200):
        order = int(rng.integers(0, 40))
        coeffs = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        z = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.random(33))
        assert same_bits(taylor_values(coeffs, z), TruncatedSeries(coeffs).evaluate(z))
        assert same_bits(taylor_values(coeffs, z[0]), TruncatedSeries(coeffs).evaluate(z[0]))
    # rows of coefficients on a leading axis, and the maps built on them, keep each row's bits
    rows = rng.normal(size=(70, 17)) + 1j * rng.normal(size=(70, 17))
    assert same_bits(taylor_values(rows, z), [TruncatedSeries(r).evaluate(z) for r in rows])
    assert same_bits(map_values(rows, z), [map_values(r, z) for r in rows])


@pytest.mark.parametrize("order, m_neg, n_psi", [(8, 8, 8), (16, 8, 9), (16, 0, 17)])
def test_window_that_breaks_conservation_is_refused_before_any_step(order, m_neg, n_psi):
    s0 = ShapeState.initial(order, m_neg=m_neg, n_psi=n_psi)
    calls = []

    class Counting(HerglotzDriver):
        def moments(self, t, N):
            calls.append(t)
            return super().moments(t, N)

    with pytest.raises(InvalidInput, match=r"Gbar is conserved only when m_neg \+ n_psi <= order") as info:
        evolve(s0, Counting(HerglotzDriver.single_atom().pieces), horizon=0.01, step=1e-3)
    assert type(info.value) is InvalidInput
    assert calls == []
    # the edge of the rule runs
    evolve(ShapeState.initial(order, m_neg=m_neg, n_psi=order - m_neg), HerglotzDriver.single_atom(), 0.01, 1e-3)


@pytest.mark.parametrize(
    "order, m_neg, n_psi, psibar, match",
    [
        (16, 17, -1, None, r"^psibar window m_neg = 17, n_psi = -1: both bounds must be nonnegative$"),
        (4, -2, 3, None, r"^psibar window m_neg = -2, n_psi = 3: both bounds must be nonnegative$"),
        (8, 2, 2, np.ones(9), r"^psibar must have 5 entries for the window \[-2, 2\], got shape \(9,\)$"),
        (8, 0, 0, np.ones((1, 1)), r"^psibar must have 1 entries for the window \[-0, 0\], got shape \(1, 1\)$"),
    ],
)
def test_initial_refuses_a_bad_psibar_window(order, m_neg, n_psi, psibar, match):
    with pytest.raises(InvalidInput, match=match) as info:
        ShapeState.initial(order, m_neg, n_psi, psibar)
    assert type(info.value) is InvalidInput


@pytest.mark.parametrize("m_neg, width", [(17, 17), (-2, 2)])
def test_evolve_refuses_a_negative_window_bound_before_any_step(m_neg, width):
    # built past initial: n_psi = width - 1 - m_neg, so (17, 17) has n_psi = -1
    s0 = ShapeState(0.0, np.zeros(16), np.ones(width), m_neg)
    calls = []

    class Counting(HerglotzDriver):
        def moments(self, t, N):
            calls.append(t)
            return super().moments(t, N)

    with pytest.raises(InvalidInput, match=r"both bounds must be nonnegative$") as info:
        evolve(s0, Counting(HerglotzDriver.single_atom().pieces), horizon=0.01, step=1e-3)
    assert type(info.value) is InvalidInput
    assert calls == []


@pytest.mark.parametrize(
    "horizon, step",
    [(0.01, 0.0), (0.01, -1e-3), (0.01, np.nan), (-0.01, 1e-3), (np.inf, 1e-3), (1.0, 1e-320)],
    ids=["zero-step", "negative-step", "nan-step", "negative-horizon", "infinite-horizon", "infinite-count"],
)
def test_evolve_refuses_a_step_or_horizon_before_any_step(horizon, step):
    # the CLI refuses these before evolve sees them; the library refuses them too
    s0 = ShapeState.initial(4, m_neg=1, n_psi=1)
    with pytest.raises(InvalidInput, match=r"^need step > 0 and a finite horizon / step >= 0$") as info:
        evolve(s0, HerglotzDriver.single_atom(), horizon=horizon, step=step)
    assert type(info.value) is InvalidInput


def test_g0_keeps_the_bits_of_its_generator_sum():
    # g0 pairs k c_k with psibar_k by _pairing, H's loop; it was the sum of
    # k * c[k - 1] * psi(k) over k = 1..min(n_psi, order), started at int 0
    rng = np.random.default_rng(2024)
    signed_zeros = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    for order, m_neg, n_psi in [(1, 0, 0), (4, 0, 4), (8, 3, 5), (16, 8, 8), (6, 0, 12), (12, 0, 3)]:
        run = []
        for _ in range(5):
            s = ShapeState.initial(order, m_neg, n_psi, rng.normal(size=m_neg + n_psi + 1) + 1j * rng.normal(size=m_neg + n_psi + 1))
            s.c = rng.normal(size=order) + 1j * rng.normal(size=order)
            for arr in (s.c, s.psibar):
                picks = rng.integers(len(arr), size=2)
                arr[picks] = [signed_zeros[i] for i in rng.integers(len(signed_zeros), size=2)]
            kmax = min(s.n_psi, s.order)
            for c in (s.c.copy(), np.full(order, complex(-0.0, -0.0))):  # all-zero terms too
                s.c = c
                old = sum(k * s.c[k - 1] * psi(s, k) for k in range(1, kmax + 1))
                assert np.complex128(g0(s)).tobytes() == np.complex128(old).tobytes()
                run.append((ShapeState(s.t, s.c.copy(), s.psibar.copy(), m_neg), old))
        # a sequence of states of the window goes _BLOCK at a time, each value with its state's bits
        run *= 201 // len(run) + 1
        for count in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 201):
            assert same_bits(g0([r[0] for r in run[:count]]), [r[1] for r in run[:count]]), count


def test_identity_driver_is_frozen():
    rng = np.random.default_rng(0)
    psibar = rng.normal(size=17) + 1j * rng.normal(size=17)
    s0 = ShapeState.initial(16, m_neg=8, n_psi=8, psibar=psibar)
    rec = evolve(s0, HerglotzDriver((DriverPiece(0.0),)), horizon=1.0, step=1e-3)
    final = rec.states[-1]
    assert np.abs(final.c).max() < 1e-12
    np.testing.assert_array_equal(final.psibar, psibar)


def test_rhs_at_identity_map():
    # z (1 - (1+z)/(1-z)) = -2 z^2 - 2 z^3 - ... so every dc_n/dt is -2
    s0 = ShapeState.initial(8, m_neg=0, n_psi=2)
    dc, dpsi = rhs(s0, HerglotzDriver.single_atom(0.0))
    np.testing.assert_allclose(dc, -2 * np.ones(8), atol=1e-14)
    np.testing.assert_array_equal(dpsi, np.zeros(3))


def test_implicit_solution_atom_at_zero():
    # dw/dt = -w (1+w)/(1-w) separates to w/(1+w)^2 = e^{-t} z/(1+z)^2
    s0 = ShapeState.initial(16, m_neg=0, n_psi=1)
    rec = evolve(s0, HerglotzDriver.single_atom(0.0), horizon=1.0, step=1e-3)
    zs = 0.2 * np.exp(2j * np.pi * np.arange(10) / 10) * (0.55 + 0.045 * np.arange(10))
    worst = 0.0
    for i, z in enumerate(zs):
        t_idx = 100 * (i + 1)
        s = rec.states[t_idx]
        w = np.exp(-s.t) * map_values(s.c, z)
        err = abs(koebe_side(w) - np.exp(-s.t) * koebe_side(z))
        worst = max(worst, err)
    assert worst < 1e-8


def test_rk4_error_drops_16x_per_halving():
    s0 = ShapeState.initial(12, m_neg=0, n_psi=1)
    d = HerglotzDriver.single_atom(0.0)
    ref = evolve(s0, d, horizon=1.0, step=1e-3).states[-1].c
    err = {}
    for h in (0.02, 0.01):
        err[h] = np.abs(evolve(s0, d, horizon=1.0, step=h).states[-1].c - ref).max()
    ratio = err[0.02] / err[0.01]
    assert 11 < ratio < 24, ratio


def test_generating_function_conserved_random_driver():
    rng = np.random.default_rng(42)
    d = random_driver(rng)
    psibar = rng.normal(size=17) + 1j * rng.normal(size=17)
    s0 = ShapeState.initial(16, m_neg=8, n_psi=8, psibar=psibar)
    rec = evolve(s0, d, horizon=1.0, step=1e-3)
    drift = rec.drift_report()
    assert max(drift.values()) < 1e-7, drift


def test_generating_function_conserved_across_driver_switch():
    # The switch at t = 0.05 lies on the step grid; every RK4 stage of the
    # step ending there must still use the first piece.
    rng = np.random.default_rng(17)
    first = random_driver(rng).pieces[0]
    second = DriverPiece(0.05, random_driver(rng, n_atoms=2).pieces[0].atoms)
    d = HerglotzDriver(pieces=(first, second))
    psibar = rng.normal(size=17) + 1j * rng.normal(size=17)
    s0 = ShapeState.initial(16, m_neg=8, n_psi=8, psibar=psibar)
    rec = evolve(s0, d, horizon=0.1, step=1e-3)
    drift = rec.drift_report()
    assert max(drift.values()) < 1e-7, drift


def _switched(t_start):
    """One atom at 0.7, then atoms (2.4, 0.6) and (4.9, 0.4) from t_start."""
    return HerglotzDriver(
        pieces=(
            DriverPiece(0.0, (Atom(0.7, 1.0),)),
            DriverPiece(t_start, (Atom(2.4, 0.6), Atom(4.9, 0.4))),
        )
    )


def _switch_start():
    rng = np.random.default_rng(3)
    return ShapeState.initial(16, m_neg=8, n_psi=8, psibar=rng.normal(size=17) + 1j * rng.normal(size=17))


def test_off_grid_switch_converges_at_fourth_order():
    # 0.0505 lies inside a step at each h, so each run splits that step at it;
    # running the whole step on the first piece would be first order
    s0, d = _switch_start(), _switched(0.0505)
    c = {h: evolve(s0, d, horizon=0.2, step=h).states[-1].c for h in (4e-3, 2e-3, 1e-3)}
    ratio = np.abs(c[4e-3] - c[2e-3]).max() / np.abs(c[2e-3] - c[1e-3]).max()
    assert 11 < ratio < 24, ratio


def test_switch_one_ulp_after_its_grid_time_counts_as_on_it():
    # the grid time 10 * 3e-4 is one ulp below 0.003: the step from it still
    # runs on the new piece, as when the switch sits at that float time
    grid_time = 10 * 3e-4
    assert grid_time < 0.003
    s0 = _switch_start()
    late, on = (evolve(s0, _switched(t), horizon=0.0099, step=3e-4) for t in (0.003, grid_time))
    assert np.array_equal(late.times, on.times)
    for a, b in zip(late.states, on.states):
        assert np.abs(a.c - b.c).max() <= 1e-14 and np.abs(a.psibar - b.psibar).max() <= 1e-13
    assert np.abs(late.hamiltonian - on.hamiltonian).max() <= 1e-13


@pytest.mark.parametrize(
    "t_start, step, horizon, before",
    [(50 * 1e-3, 1e-3, 0.1, 50), (0.0505, 1e-3, 0.1, 51), (0.003, 3e-4, 0.0099, 10)],
    ids=["on-grid", "off-grid", "one-ulp"],
)
def test_record_holds_each_states_piece(t_start, step, horizon, before):
    # a state is on the last piece to start by its grid time plus 1e-9 steps:
    # the first `before` states are on the first piece
    rec = evolve(_switch_start(), _switched(t_start), horizon=horizon, step=step)
    assert rec.pieces.tolist() == [int(t_start <= t + 1e-9 * step) for t in rec.times]
    assert rec.pieces.tolist() == [0] * before + [1] * (len(rec.times) - before)


@pytest.mark.parametrize(
    "t_start, horizon",
    [(None, 0.06), (50 * 1e-3, 0.06), (0.0505, 0.06), (None, 0.0)],
    ids=["one-piece", "on-grid", "off-grid", "horizon-0"],
)
def test_record_hamiltonian_is_each_states_own_bit_for_bit(t_start, horizon):
    # evolve pairs the dc of each step's first RK4 stage (the last state's H
    # it computes afresh): every entry is the H of that state on its piece
    d = HerglotzDriver(pieces=(DriverPiece(0.0, (Atom(0.7, 1.0),)),)) if t_start is None else _switched(t_start)
    rec = evolve(_switch_start(), d, horizon=horizon, step=1e-3)
    assert len(rec.hamiltonian) == len(rec.states) == round(horizon / 1e-3) + 1
    for s, i, h in zip(rec.states, rec.pieces, rec.hamiltonian):
        pk = d.moments(d.pieces[i].t_start, s.order + 1)
        assert same_bits(h, pseudo_hamiltonian(s, d, pk)), s.t
    # the stacked stages on each piece's Horner lists, prepared once, take
    # the steps of the public rhs on that piece's moments
    for s, ref in zip(rec.states, rk4_states(_switch_start(), d, horizon, 1e-3), strict=True):
        assert s.t == ref.t and same_bits(s.c, ref.c) and same_bits(s.psibar, ref.psibar), s.t


class _NoMoments(HerglotzDriver):
    def moments(self, t, N):
        raise AssertionError(f"a step read the moments at t={t}")


def test_evolve_refuses_pieces_out_of_order_before_any_step():
    # the step from 0.010 to 0.011 would take its cuts in list order, one
    # RK4 sub-step with h = 0.0101 - 0.0105 < 0, and record piece 2 from 0.011
    pieces = (DriverPiece(0.0, (Atom(0.0, 1.0),)), DriverPiece(0.0105), DriverPiece(0.0101, (Atom(1.0, 1.0),)))
    (problem,) = HerglotzDriver(pieces).validate()
    with pytest.raises(InvalidMeasure) as refused:
        evolve(_switch_start(), _NoMoments(pieces), horizon=0.02, step=1e-3)
    assert str(refused.value) == problem == "t_start values must be strictly increasing"


class _CountingPieces(Sequence):
    """A driver's pieces that count every element read."""

    def __init__(self, pieces):
        self._pieces, self.reads = pieces, 0

    def __len__(self):
        return len(self._pieces)

    def __getitem__(self, i):
        self.reads += 1
        return self._pieces[i]


def test_evolve_looks_up_its_piece_without_a_scan_per_step():
    # 4999 more pieces past the horizon change no byte, and the run reads
    # the pieces as often at 5 steps as at 500: once per piece, not per step
    s0 = _switch_start()
    first = DriverPiece(0.0, (Atom(0.7, 1.0),))
    later = [DriverPiece(1.0 + i, (Atom(0.1, 1.0),)) for i in range(4999)]

    def run(pieces, steps):
        out = io.StringIO()
        rec = evolve(s0, HerglotzDriver(pieces), horizon=steps * 1e-3, step=1e-3)
        rec.to_csv(out)
        return out.getvalue(), rec.pieces.tolist()

    counted = {steps: _CountingPieces([first, *later]) for steps in (5, 500)}
    assert run(counted[500], 500) == run((first,), 500)
    run(counted[5], 5)
    assert counted[5].reads == counted[500].reads <= 3 * len(counted[5])


def test_generating_function_matches_observables():
    rng = np.random.default_rng(3)
    c = 0.2 * (rng.normal(size=6) + 1j * rng.normal(size=6))
    psibar = rng.normal(size=10) + 1j * rng.normal(size=10)
    s = ShapeState(0.3, c, psibar, m_neg=3)
    g = generating_function(s)
    # a view would keep the whole running-sum table of its state alive
    assert g.base is None
    w = BracketWindow(n_c=6, m_neg=3, n_psi=6)
    cvals = {n: c[n - 1] for n in range(1, 7)}
    pvals = {m: psi(s, m) for m in range(-3, 7)}
    for k in range(-3, 7):
        expected = gbar_coefficient(k, w).evaluate(cvals, pvals)
        assert abs(g[k + 3] - expected) < 1e-13


def test_evolve_memory_per_state_stays_at_its_record():
    # N = 16 and the psibar window [-8, 8]: a state's c, psibar and Gbar rows
    # take about 1.7 KB; each running-sum table kept alive would add 4.6 KB
    d = HerglotzDriver((DriverPiece(0.0, (Atom(0.7, 0.5), Atom(2.4, 0.3), Atom(4.9, 0.2))),))
    s0 = ShapeState.initial(16, 8, 8, np.random.default_rng(7).normal(size=17))
    evolve(s0, d, 0.01, 0.001)
    tracemalloc.start()
    try:
        evolve(s0, d, 0.2, 0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3000 * 201, peak


def test_pseudo_hamiltonian_trivial_and_pairing():
    s = ShapeState.initial(8, m_neg=0, n_psi=4)
    assert pseudo_hamiltonian(s, HerglotzDriver((DriverPiece(0.0),))) == 0
    # f = id, atom at 0: Phi = -2 z^2 - 2 z^3 - ..., so a unit psibar_2
    # pairs with Phi_3 = -2
    s.psibar[2] = 1.0
    h = pseudo_hamiltonian(s, HerglotzDriver.single_atom(0.0))
    assert abs(h - (-2.0)) < 1e-14


def test_energy_conservation_has_plus_sign():
    # Along the flow of an autonomous driver, d(G_0)/dt = {G_0, H} = -dH/dt,
    # so H(t) + G_0(t) is the conserved combination, with value
    # -sum_k p_k psibar_k(0) (solvable single-atom case: H = -2 e^{-t},
    # G_0 = c_1 = 2 e^{-t} - 2, H + G_0 = -2).  The difference H - G_0 is
    # NOT constant; acceptance 14 asserts the same balance, H + G_0 = -2,
    # and the drift check below is its negative control.
    s0 = ShapeState.initial(16, m_neg=8, n_psi=8)
    s0.psibar[s0.m_neg + 1] = 1.0  # psibar_1 = 1
    d = HerglotzDriver.single_atom(0.0)
    rec = evolve(s0, d, horizon=1.0, step=1e-3)
    g0s = g0(rec.states)
    total = rec.hamiltonian + g0s
    np.testing.assert_allclose(total, -2.0 * np.ones_like(total), atol=1e-9)
    np.testing.assert_allclose(rec.hamiltonian, -2 * np.exp(-rec.times), atol=1e-9)
    np.testing.assert_allclose(
        rec.states[-1].c[0], 2 * np.exp(-1.0) - 2, atol=1e-9
    )
    # difference drifts by O(1): the minus-sign reading is not an invariant
    diff = rec.hamiltonian - g0s
    assert np.abs(diff - diff[0]).max() > 1.0

    rng = np.random.default_rng(11)
    d2 = random_driver(rng, n_atoms=2)
    psibar = rng.normal(size=17) + 1j * rng.normal(size=17)
    s0 = ShapeState.initial(16, m_neg=8, n_psi=8, psibar=psibar)
    rec = evolve(s0, d2, horizon=1.0, step=1e-3)
    g0s = g0(rec.states)
    total = rec.hamiltonian + g0s
    pk = d2.moments(0.0, 8)
    expected = -sum(pk[k - 1] * psi(s0, k) for k in range(1, 9))
    assert np.abs(total - expected).max() < 1e-7


def test_bracket_consistency_with_finite_differences():
    # {c_k, H} evaluated through the observables bracket must reproduce the
    # finite-difference slope of the integrated c_k to O(h^2).
    d = HerglotzDriver.single_atom(0.0)
    s0 = ShapeState.initial(8, m_neg=0, n_psi=8)
    h = 1e-3
    rec = evolve(s0, d, horizon=0.2, step=h)
    i = 100
    s = rec.states[i]
    w = BracketWindow(n_c=8, m_neg=0, n_psi=8)
    phi, _ = _phi_and_u(s.t, s.c, _horner_lists(d.moments(s.t, 9)))
    ham = PhasePoly.zero(w)
    for m in range(1, 9):
        ham = ham + PhasePoly(w, {(((1, m), 1),): QC.from_number(complex(phi[m + 1]))})
    for k in (1, 2, 5):
        bracket = poisson_bracket(PhasePoly.c(k, w), ham).evaluate()
        err = {}
        for stride in (1, 2):
            slope = (
                rec.states[i + stride].c[k - 1] - rec.states[i - stride].c[k - 1]
            ) / (2 * stride * h)
            err[stride] = abs(slope - bracket)
        assert err[1] < 2e-4
        # central differences converge at second order toward the bracket value
        assert 3.0 < err[2] / err[1] < 5.0


def test_corrected_G0_observable_matches_inline_sum():
    rng = np.random.default_rng(5)
    c = 0.3 * rng.normal(size=8)
    psibar = rng.normal(size=9)
    s = ShapeState(0.0, c, np.concatenate([[0.0] * 0, psibar]), m_neg=0)
    w = BracketWindow(n_c=8, m_neg=0, n_psi=8)
    val = corrected_G(0, w).evaluate(
        {n: c[n - 1] for n in range(1, 9)}, {m: psi(s, m) for m in range(0, 9)}
    )
    inline = sum(k * c[k - 1] * psi(s, k) for k in range(1, 9))
    assert abs(val - inline) < 1e-13


def test_divergence_guard_rejects_wild_step():
    s0 = ShapeState(0.0, np.full(6, 1e3 + 0j), np.zeros(2, dtype=complex), m_neg=0)
    with pytest.raises(StepRejected):
        evolve(s0, HerglotzDriver.single_atom(0.0), horizon=2.0, step=1.0)


def test_divergence_guard_watches_psibar():
    # c stays tame; psibar overflows within the first step
    s0 = ShapeState.initial(4, m_neg=1, n_psi=1, psibar=np.full(3, 1e308 + 0j))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StepRejected, match="psibar"):
        evolve(s0, HerglotzDriver.single_atom(0.0), horizon=0.01, step=1e-3)
    # an infinite start is rejected before the first step
    s0 = ShapeState.initial(4, m_neg=1, n_psi=1, psibar=np.array([np.inf, 0, 0], dtype=complex))
    with pytest.raises(StepRejected, match="psibar"):
        evolve(s0, HerglotzDriver.single_atom(0.0), horizon=0.0, step=1e-3)
    # a large but representable psibar is scaled, not rejected
    s0 = ShapeState.initial(4, m_neg=1, n_psi=1, psibar=np.full(3, 1e200 + 0j))
    rec = evolve(s0, HerglotzDriver.single_atom(0.0), horizon=0.01, step=1e-3)
    assert np.isfinite(rec.gbar).all() and np.isfinite(rec.hamiltonian).all()


def test_evolve_fails_closed_when_gbar_overflows():
    # the state passes its own guard, but Gbar_0 = psibar_0 + 2 c_1 psibar_1 overflows
    s0 = ShapeState(0.0, np.array([0.9 + 0j]), np.array([1e308, 1e308], dtype=complex), m_neg=0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        StepRejected, match="^Gbar or H is not finite along the trajectory$"
    ):
        evolve(s0, HerglotzDriver.single_atom(), horizon=0.0, step=1e-3)


# -- truncation is a projection ------------------------------------------------
# dc_n reads only c_1..c_n, and each kept coefficient of the windowed Horner
# products is the same dot product at every order, so an order-N run is the
# order-N' run (N' > N) cut to its first N coefficients, bit for bit


@st.composite
def drivers(draw, horizon):
    """1-3 pieces of 1-3 atoms; the switches lie in (0, horizon), mostly off any step grid."""
    switch = st.one_of(
        st.floats(horizon / 100, horizon * 0.99),
        st.integers(1, 99).map(lambda k: k * horizon / 100),
    )
    starts = [0.0, *sorted(set(draw(st.lists(switch, max_size=2))))]
    pieces = []
    for start in starts:
        count = draw(st.integers(1, 3))
        thetas = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=count, max_size=count))
        mus = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=count, max_size=count)))
        mus = mus / mus.sum()
        pieces.append(DriverPiece(start, tuple(Atom(t, float(m)) for t, m in zip(thetas, mus))))
    return HerglotzDriver(pieces=tuple(pieces))


@st.composite
def conserving_windows(draw, order):
    """A psibar window (m_neg, n_psi) with m_neg + n_psi <= order, equality included, and its psibar."""
    m_neg = draw(st.integers(0, order))
    n_psi = draw(st.integers(0, order - m_neg))
    parts = st.floats(-1.0, 1.0)
    width = m_neg + n_psi + 1
    re = draw(st.lists(parts, min_size=width, max_size=width))
    im = draw(st.lists(parts, min_size=width, max_size=width))
    return m_neg, n_psi, np.array(re) + 1j * np.array(im)


@st.composite
def projection_cases(draw):
    order = draw(st.integers(4, 11))
    larger = draw(st.integers(order + 1, 2 * order))
    return order, larger, draw(conserving_windows(order)), draw(drivers(0.1))


@settings(max_examples=40, deadline=None)
@given(projection_cases())
def test_truncated_flow_is_the_higher_order_flow_cut_bit_for_bit(case):
    order, larger, (m_neg, n_psi, psibar), d = case
    small, large = (
        evolve(ShapeState.initial(n, m_neg, n_psi, psibar), d, horizon=0.1, step=1e-3)
        for n in (order, larger)
    )
    assert small.times.tobytes() == large.times.tobytes()
    assert small.pieces.tolist() == large.pieces.tolist()
    for a, b in zip(small.states, large.states, strict=True):
        assert a.c.tobytes() == b.c[:order].tobytes(), a.t
        assert a.psibar.tobytes() == b.psibar.tobytes(), a.t
    assert small.gbar.tobytes() == large.gbar.tobytes()
    assert small.hamiltonian.tobytes() == large.hamiltonian.tobytes()


def test_csv_dump_is_deterministic(tmp_path):
    rng = np.random.default_rng(9)
    d = random_driver(rng)
    psibar = rng.normal(size=5) + 1j * rng.normal(size=5)
    s0 = ShapeState.initial(4, m_neg=2, n_psi=2, psibar=psibar)
    rec = evolve(s0, d, horizon=0.05, step=1e-2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    with open(p1, "w") as fh:
        rec.to_csv(fh)
    with open(p2, "w") as fh:
        evolve(s0, d, horizon=0.05, step=1e-2).to_csv(fh)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0].split(",")
    assert header[0] == "t" and "re_Gbar_0" in header and "im_H" in header
