"""Trajectory tests: closed-form oracles, conservation, integrator order."""

import numpy as np
import pytest

from shapeflow.driver import Atom, DriverPiece, HerglotzDriver
from shapeflow.evolution import (
    ShapeState,
    StepRejected,
    _phi_and_u,
    _power_sum,
    evolve,
    g0,
    generating_function,
    pseudo_hamiltonian,
    rhs,
    taylor_values,
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
        total += phi.coeff(m + 1) * state.psi(m)
    return total


def oracle_gbar(state):
    out = []
    for k in range(-state.m_neg, state.n_psi + 1):
        acc = state.psi(k)
        for j in range(1, min(state.order, state.n_psi - k) + 1):
            acc += (j + 1) * state.c[j - 1] * state.psi(k + j)
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

        phi, u = _phi_and_u(s, pk)
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
        assert same_bits(_power_sum(q, w[::-1].copy()), ref), (keep, n_q)


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


def test_taylor_values_match_series_evaluate_bit_for_bit():
    rng = np.random.default_rng(7)
    for trial in range(200):
        order = int(rng.integers(0, 40))
        coeffs = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        z = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.random(33))
        assert same_bits(taylor_values(coeffs, z), TruncatedSeries(coeffs).evaluate(z))
        assert same_bits(taylor_values(coeffs, z[0]), TruncatedSeries(coeffs).evaluate(z[0]))


def test_identity_driver_is_frozen():
    rng = np.random.default_rng(0)
    psibar = rng.normal(size=17) + 1j * rng.normal(size=17)
    s0 = ShapeState.initial(16, m_neg=8, n_psi=8, psibar=psibar)
    rec = evolve(s0, HerglotzDriver.identity(), horizon=1.0, step=1e-3)
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
        w = np.exp(-s.t) * s.f(z)
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


def test_generating_function_matches_observables():
    rng = np.random.default_rng(3)
    c = 0.2 * (rng.normal(size=6) + 1j * rng.normal(size=6))
    psibar = rng.normal(size=10) + 1j * rng.normal(size=10)
    s = ShapeState(0.3, c, psibar, m_neg=3)
    g = generating_function(s)
    w = BracketWindow(n_c=6, m_neg=3, n_psi=6)
    cvals = {n: c[n - 1] for n in range(1, 7)}
    pvals = {m: s.psi(m) for m in range(-3, 7)}
    for k in range(-3, 7):
        expected = gbar_coefficient(k, w).evaluate(cvals, pvals)
        assert abs(g[k + 3] - expected) < 1e-13


def test_pseudo_hamiltonian_trivial_and_pairing():
    s = ShapeState.initial(8, m_neg=0, n_psi=4)
    assert pseudo_hamiltonian(s, HerglotzDriver.identity()) == 0
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
    g0s = np.array([g0(s) for s in rec.states])
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
    g0s = np.array([g0(s) for s in rec.states])
    total = rec.hamiltonian + g0s
    pk = d2.moments(0.0, 8)
    expected = -sum(pk[k - 1] * s0.psi(k) for k in range(1, 9))
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
    phi, _ = _phi_and_u(s, d.moments(s.t, 9))
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
        {n: c[n - 1] for n in range(1, 9)}, {m: s.psi(m) for m in range(0, 9)}
    )
    inline = sum(k * c[k - 1] * s.psi(k) for k in range(1, 9))
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


def test_csv_dump_is_deterministic(tmp_path):
    rng = np.random.default_rng(9)
    d = random_driver(rng)
    psibar = rng.normal(size=5) + 1j * rng.normal(size=5)
    s0 = ShapeState.initial(4, m_neg=2, n_psi=2, psibar=psibar)
    rec = evolve(s0, d, horizon=0.05, step=1e-2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rec.to_csv(p1)
    evolve(s0, d, horizon=0.05, step=1e-2).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0].split(",")
    assert header[0] == "t" and "re_Gbar_0" in header and "im_H" in header
