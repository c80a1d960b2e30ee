"""Acceptance checks for the full pipeline, one test per numbered criterion.

Each test prints a single ``acceptance NN <label>: PASS|FAIL`` line before
asserting, so a verbose run doubles as a checklist.  Two checks pin the
identity the model has rather than a reading it rules out:

* 12 — the KP residual sits at the roundoff floor (< 1e-12) at N = 16 and
  32, because the shift-rule evaluation makes the KP combination an
  algebraic identity in the table slots (``tests/test_kp.py`` proves this
  symbolically); a tau built from one function with d_k A = d_1^k A solves
  KP exactly.  Convergence in the window is checked on the KP solution
  lam = -d_{t1} omega_1 itself: its error against N = 32 is nonzero at
  N = 8 and falls at least fourfold, to below 1e-10, at N = 16.
* 14 — the change of energy balances the change of G_0: H + G_0 stays at
  -sum_k p_k psibar_k(0) = -2 along a single-atom flow.  The signs of H and
  G_0 are fixed by Hamilton's equations and by iota(G_0) = L_0, so H - G_0
  drifts by O(1) (the negative control in ``tests/test_evolution.py``).
"""

import numpy as np
import sympy as sp

from shapeflow.checks import _field_closed_form
from shapeflow.driver import Atom, DriverPiece, HerglotzDriver
from shapeflow.evolution import ShapeState, evolve, g0, map_values
from shapeflow.grassmannian import step2_graph
from shapeflow.kp import (
    ABForm,
    baker_akhiezer,
    kp_residual,
    omega1_and_partials,
    sato_psi,
    tau,
)
from shapeflow.observables import (
    BracketWindow,
    corrected_G,
    gbar_coefficient,
    iota,
    poisson_bracket,
)
from shapeflow.series import TruncatedSeries
from shapeflow.virasoro import commutator, kirillov_L, schaeffer_spencer

from helpers import exact_schur, exact_step2_graph, in_big_cell


def verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"acceptance {num:02d} {label}: {status}{tail}")
    assert ok, f"acceptance {num:02d} {label}: {detail}"


def koebe_side(x):
    return x / (1.0 + x) ** 2


def atom_driver():
    return HerglotzDriver(pieces=(DriverPiece(0.0, (Atom(0.0, 1.0),)),))


def random_driver(rng, n_atoms=3):
    thetas = rng.uniform(0, 2 * np.pi, size=n_atoms)
    mus = rng.random(n_atoms)
    mus = mus / mus.sum()
    atoms = tuple(Atom(float(th), float(mu)) for th, mu in zip(thetas, mus))
    return HerglotzDriver(pieces=(DriverPiece(0.0, atoms),))


ACCEPT_C = [0.5**k / k for k in range(1, 33)]
ACCEPT_T = (0.05, 0.03, 0.02)


# ---------------------------------------------------------------------------


def test_01_identity_driver_trajectory_is_frozen():
    rng = np.random.default_rng(1)
    psibar = rng.normal(size=17) + 1j * rng.normal(size=17)
    s0 = ShapeState.initial(16, m_neg=8, n_psi=8, psibar=psibar)
    rec = evolve(s0, HerglotzDriver((DriverPiece(0.0),)), horizon=1.0, step=1e-3)
    c_peak = max(np.abs(s.c).max() for s in rec.states)
    psi_peak = max(np.abs(s.psibar - psibar).max() for s in rec.states)
    ok = c_peak < 1e-12 and psi_peak < 1e-12
    verdict(1, "identity-trajectory", ok, f"|c|={c_peak:.2e} |dpsi|={psi_peak:.2e}")


def test_02_single_atom_matches_implicit_solution():
    d = atom_driver()
    s0 = ShapeState.initial(16, m_neg=8, n_psi=8)
    ref = evolve(s0, d, horizon=1.0, step=1e-3)

    # ten (z, t) sample pairs against the implicit relation
    zs = 0.2 * np.exp(2j * np.pi * np.arange(10) / 10)
    worst = 0.0
    for j, z in enumerate(zs):
        t = 0.1 * (j + 1)
        state = ref.states[int(round(t / 1e-3))]
        w = np.exp(-t) * map_values(state.c, z)
        worst = max(worst, abs(koebe_side(w) - np.exp(-t) * koebe_side(z)))

    # halving the step cuts the endpoint error about sixteenfold
    c_ref = ref.states[-1].c
    errs = []
    for h in (0.02, 0.01):
        run = evolve(ShapeState.initial(16, m_neg=8, n_psi=8), d, 1.0, h)
        errs.append(np.abs(run.states[-1].c - c_ref).max())
    ratio = errs[0] / errs[1]
    ok = worst < 1e-8 and 11.0 < ratio < 24.0
    verdict(2, "closed-form-trajectory", ok, f"err={worst:.2e} ratio={ratio:.1f}")


def test_03_generating_coefficients_conserved():
    rng = np.random.default_rng(3)
    d = random_driver(rng, n_atoms=3)
    psibar = rng.normal(size=17) + 1j * rng.normal(size=17)
    s0 = ShapeState.initial(16, m_neg=8, n_psi=8, psibar=psibar)
    rec = evolve(s0, d, horizon=1.0, step=1e-3)
    # with N=16 and psi window [-8, 8] every window index is interior
    drift = max(rec.drift_report().values())
    verdict(3, "conservation", drift < 1e-7, f"max rel drift={drift:.2e}")


def test_04_witt_relations_exact():
    w = BracketWindow(n_c=16, m_neg=0, n_psi=16)
    fields = {k: kirillov_L(k, w) for k in range(-4, 11)}
    bad = []
    for k in range(-2, 6):
        for n in range(-2, 6):
            got = commutator(fields[k], fields[n]).restricted(12, c_max=12)
            want = fields[k + n].scale(n - k).restricted(12, c_max=12)
            if got != want:
                bad.append((k, n))
    verdict(4, "witt-relations", not bad, f"failing pairs={bad}" if bad else "64 pairs")


def test_05_poisson_bracket_is_witt():
    w = BracketWindow(n_c=12, m_neg=2, n_psi=12)
    bad = []
    for m in range(1, 6):
        for n in range(1, 6):
            lhs = poisson_bracket(gbar_coefficient(m, w), gbar_coefficient(n, w))
            rhs = gbar_coefficient(m + n, w).scale(n - m)
            if lhs != rhs:
                bad.append((m, n))
    verdict(5, "poisson-witt", not bad, f"failing pairs={bad}" if bad else "25 pairs")


def test_06_observable_lift_matches_fields():
    w = BracketWindow(n_c=10, m_neg=2, n_psi=10)
    bad = []
    for k in range(1, 6):
        if iota(gbar_coefficient(k, w)) != kirillov_L(k, w):
            bad.append(k)
    for j in (0, -1, -2):
        if iota(corrected_G(j, w)) != kirillov_L(j, w):
            bad.append(j)
    verdict(6, "observable-lift", not bad, f"failing indices={bad}" if bad else "8 lifts")


def test_07_basis_closed_forms_symbolic():
    c = [sp.Symbol(f"c{i}", real=True) for i in range(1, 9)]
    op = exact_step2_graph(c, 3, 8)
    c1, c2, c3, c4, c5 = c[:5]
    display = {
        (0, 0): sp.Integer(1),
        (0, -1): c1,
        (0, -2): 3 * c2 - 2 * c1**2,
        (0, -3): 5 * c3 + 2 * c1**3 - 6 * c1 * c2,
        (1, 1): sp.Integer(1),
        (1, 0): 2 * c1,
        (1, -1): 2 * c2,
        (1, -2): 4 * c3 - 2 * c1 * c2,
        (1, -3): 6 * c4 - 5 * c2**2 + 4 * c1**2 * c2 - 2 * c1 * c3 - c1**4,
        (2, 2): sp.Integer(1),
        (2, 1): 2 * c1,
        (2, 0): 3 * c2,
        (2, -1): 3 * c3,
        (2, -2): 5 * c4 - 2 * c1 * c3,
        (2, -3): 7 * c5 - 6 * c2 * c3 + 4 * c1**2 * c3 + 3 * c1 * c2**2
        - 2 * c1 * c4 - 4 * c1**3 * c2 + c1**5,
    }
    bad = [
        key
        for key, want in display.items()
        if sp.expand(op.basis[key[1] + op.n, key[0]] - want) != 0
    ]
    verdict(7, "basis-closed-forms", not bad, f"bad={bad}" if bad else "15 coefficients")


def test_08_graph_membership_and_index():
    rng = np.random.default_rng(8)
    worst = 0.0
    outside = 0
    for trial in range(100):
        n = 1 + trial % 3
        c = 0.3 * (rng.normal(size=16) + 1j * rng.normal(size=16)) / np.arange(1, 17)
        psi = rng.normal(size=17) + 1j * rng.normal(size=17)
        op = step2_graph(c, n, 16)
        # the T route (positive part C11 psi, negative part T C11 psi)
        # against the basis route sum_k psi[k] e_k
        pos = op.c11 @ psi
        g = np.concatenate([(op.matrix @ pos)[::-1], pos])
        worst = max(worst, np.abs(g - op.basis @ psi).max())
        # rows n.. of the basis are C11, unit upper triangular: the big cell
        outside += not in_big_cell(op)
    ok = worst < 1e-10 and not outside
    cell = f"{outside} graphs outside the big cell" if outside else "S_W = Z+, virtual dimension 0"
    verdict(8, "graph-membership", ok, f"residual={worst:.2e}; {cell}")


def test_09_contour_variation_quadrature():
    rng = np.random.default_rng(9)
    c = 0.15 * (rng.normal(size=6) + 1j * rng.normal(size=6)) / np.arange(1, 7)
    assert np.abs(c).max() <= 0.2
    f = TruncatedSeries(np.concatenate([[0.0, 1.0], c]))
    zs = 0.5 * np.exp(2j * np.pi * np.arange(257) / 257)
    worst = 0.0
    for k in (-1, 0, 1, 2, 3):
        (got,) = schaeffer_spencer(f.coeffs, [k])
        want = _field_closed_form(f, k)
        worst = max(worst, np.abs(np.polyval(got[::-1], zs) - want.evaluate(zs)).max())
    verdict(9, "variation-quadrature", worst < 1e-10, f"sup-error={worst:.2e}")


def test_10_schur_polynomial_displays():
    t1, t2, t3, t4 = sp.symbols("t1 t2 t3 t4")
    a = exact_schur((t1, t2, t3, t4), 4)
    display = [
        sp.Integer(1),
        t1,
        t1**2 / 2 + t2,
        t1**3 / 6 + t1 * t2 + t3,
        t1**4 / 24 + t1**2 * t2 / 2 + t2**2 / 2 + t1 * t3 + t4,
    ]
    bad = [q for q in range(5) if sp.expand(a[q] - display[q]) != 0]
    verdict(10, "schur-displays", not bad, f"bad={bad}" if bad else "S0..S4")


def test_11_wave_coefficient_derivative_identity():
    ab = ABForm.build(ACCEPT_C[:16], ACCEPT_T, 16)
    parts = omega1_and_partials(ab)
    A, dA, ddA = ab.table[:3]  # d^alpha A = D_{w(alpha)}: alpha = 0, (1,0,0), (2,0,0)
    denom = 1.0 - A
    rhs = ddA / denom + (dA / denom) ** 2
    gap = abs(parts[(1, 0, 0)] - rhs)

    # finite differences in the first time confirm the same derivative
    def omega_at(t1):
        shifted = ABForm.build(ACCEPT_C[:16], (t1, ACCEPT_T[1], ACCEPT_T[2]), 16)
        return shifted.table[1] / (1.0 - shifted.table[0])

    errs = []
    for h in (1e-2, 5e-3):
        fd = (omega_at(ACCEPT_T[0] + h) - omega_at(ACCEPT_T[0] - h)) / (2 * h)
        errs.append(abs(fd - parts[(1, 0, 0)]))
    ratio = errs[0] / errs[1]
    ok = gap < 1e-12 and (errs[1] < 1e-10 or 3.5 < ratio < 4.5)
    verdict(11, "derivative-identity", ok, f"gap={gap:.2e} fd-ratio={ratio:.2f}")


def test_12_kp_residual_decreases_with_window():
    # The shift rule makes the KP combination an algebraic identity in the
    # table slots (tests/test_kp.py), so the residual is at the roundoff
    # floor at every window and cannot itself shrink with N.
    r16 = kp_residual(ACCEPT_C[:16], ACCEPT_T, 16)
    r32 = kp_residual(ACCEPT_C, ACCEPT_T, 32)

    # What does depend on the window is the KP solution lam = -d_{t1} omega_1
    # that the residual is evaluated on: compare N = 8 and 16 against N = 32.
    def lam(N):
        ab = ABForm.build(ACCEPT_C[:N], ACCEPT_T, N)
        return -omega1_and_partials(ab)[(1, 0, 0)]

    lam32 = lam(32)
    e8 = abs(lam(8) - lam32)
    e16 = abs(lam(16) - lam32)
    ok = (
        r16 < 1e-12
        and r32 < 1e-12
        and 0.0 < e8
        and e16 < 1e-10
        and 4.0 * e16 <= e8
    )
    verdict(
        12,
        "kp-residual-convergence",
        ok,
        f"r16={r16:.2e} r32={r32:.2e} |lam8-lam32|={e8:.2e} |lam16-lam32|={e16:.2e}",
    )


def test_13_tau_function_and_wave_quotient():
    # trivial graph or trivial times give tau = 1
    op_id = step2_graph([], 1, 16)
    trivial_graph = tau(op_id, ACCEPT_T, 16)
    op16 = step2_graph(ACCEPT_C[:16], 1, 16)
    trivial_times = tau(op16, (0.0, 0.0, 0.0), 16)

    op32 = step2_graph(ACCEPT_C, 1, 32)
    stabilization = abs(tau(op16, ACCEPT_T, 16) - tau(op32, ACCEPT_T, 32))

    z = 3.0 * np.exp(1j * np.pi / 7)
    ba = baker_akhiezer(op32, ACCEPT_T, z_samples=(z,))
    quotient_gap = abs(sato_psi(op32, ACCEPT_T, z, 32) - ba.values[0])

    ok = (
        trivial_graph == 1.0 + 0.0j
        and trivial_times == 1.0 + 0.0j
        and stabilization < 1e-8
        and quotient_gap < 1e-4
    )
    verdict(
        13,
        "tau-function",
        ok,
        f"|tau16-tau32|={stabilization:.2e} sato-gap={quotient_gap:.2e}",
    )


def test_14_energy_difference_constant():
    d = atom_driver()
    s0 = ShapeState.initial(16, m_neg=8, n_psi=8)
    s0.psibar[s0.m_neg + 1] = 1.0
    rec = evolve(s0, d, horizon=1.0, step=1e-3)
    g0s = g0(rec.states)
    # The change of energy balances the change of G_0: H(t) - H(0) equals
    # G_0(0) - G_0(t), so H + G_0 stays at -sum_k p_k psibar_k(0) = -2.
    total = rec.hamiltonian + g0s
    drift = np.abs(total - total[0]).max()
    pk = d.moments(0.0, 8)
    expected = -sum(pk[k - 1] * s0.psibar[s0.m_neg + k] for k in range(1, 9))
    offset = np.abs(total - expected).max()
    ok = drift < 1e-7 and offset < 1e-7 and abs(expected - (-2.0)) < 1e-14
    verdict(14, "energy-difference", ok, f"drift={drift:.2e} offset={offset:.2e}")
