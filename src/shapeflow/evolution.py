"""Coefficient-space evolution of univalent maps and their conjugate variables.

The map f(z,t) = z(1 + sum c_n(t) z^n) evolves by

    df/dt = f (1 - p(e^{-t} f, t))                                (c-equations)

and the conjugate window psibar_m, -M <= m <= Npsi, by the linear advection

    dpsibar_m/dt = - sum_{j>=1} U_j psibar_{m+j},
    U(z) = (1 - p(w)) - w p'(w) at w = e^{-t} f(z,t),

which together form the canonical system of the time-dependent
pseudo-Hamiltonian H = sum_m Phi_{m+1} psibar_m, Phi = f (1 - p(e^{-t}f)).
Both right-hand sides are computed by truncated series arithmetic.  The
generating function Gbar(z) = f'(z) psibar(z) has coefficients constant along
trajectories; with the window layout used here the conservation is exact for
every representable index whenever Npsi - N <= -M (upper-triangular error
propagation never reaches the retained indices).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driver import HerglotzDriver
from .series import TruncatedLaurent, TruncatedSeries

__all__ = [
    "ShapeState",
    "TrajectoryRecord",
    "StepRejected",
    "rhs",
    "evolve",
    "generating_function",
    "pseudo_hamiltonian",
]

_DIVERGENCE_GUARD = 1e6


class StepRejected(RuntimeError):
    """A coefficient exceeded the divergence guard during integration."""


@dataclass
class ShapeState:
    """A point (t, c, psibar) on the trajectory.

    c holds c_1..c_N; psibar holds psibar_m for m = -m_neg..n_psi, stored with
    index offset m_neg (psibar[m + m_neg] is psibar_m).
    """

    t: float
    c: np.ndarray
    psibar: np.ndarray
    m_neg: int

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=complex)
        self.psibar = np.asarray(self.psibar, dtype=complex)

    @property
    def order(self):
        return len(self.c)

    @property
    def n_psi(self):
        return len(self.psibar) - 1 - self.m_neg

    @classmethod
    def initial(cls, order, m_neg, n_psi, psibar=None):
        """Identity-map start (all c zero) at t = 0."""
        if psibar is None:
            psibar = np.zeros(m_neg + n_psi + 1, dtype=complex)
        return cls(t=0.0, c=np.zeros(order, dtype=complex), psibar=psibar, m_neg=m_neg)

    def psi(self, m):
        return self.psibar[m + self.m_neg]

    def f_over_z(self) -> TruncatedSeries:
        """1 + sum c_n z^n as a Taylor window of order N."""
        return TruncatedSeries(np.concatenate([[1.0 + 0j], self.c]))


def _phi_and_u(state: ShapeState, d: HerglotzDriver):
    """Taylor windows of Phi = f(1 - p(w)) (order N+1) and U (order N).

    Uses 1 - p(w) = -sum_k p_k w^k and U = -sum_k (k+1) p_k w^k with
    w = e^{-t} f, sharing one Horner pass over powers of w.
    """
    n = state.order
    # w = e^{-t} f as a window of order N+1 (constant term zero)
    w = TruncatedSeries(
        np.concatenate([[0.0 + 0j], np.exp(-state.t) * np.concatenate([[1.0], state.c])])
    )
    pk = d.moments(state.t, n + 1)
    one_minus_p = _power_sum(-pk, w)
    u = _power_sum(-(np.arange(2, n + 3)) * pk, w)
    f = TruncatedSeries(np.concatenate([[0.0 + 0j, 1.0], state.c]))
    return f * one_minus_p, u


def _power_sum(q, w: TruncatedSeries) -> TruncatedSeries:
    """sum_{k>=1} q_k w^k by Horner, truncated to w's window."""
    n = w.order
    acc = TruncatedSeries.constant(q[-1], n)
    for qk in q[-2::-1]:
        acc = acc * w + TruncatedSeries.constant(qk, n)
    return acc * w


def rhs(state: ShapeState, d: HerglotzDriver):
    """Time derivatives (dc, dpsibar) at the state."""
    phi, u = _phi_and_u(state, d)
    dc = np.asarray(phi.coeffs[2:], dtype=complex)  # dc_n/dt = Phi_{n+1}
    uj = np.asarray(u.coeffs, dtype=complex)  # uj[j] = U_j (uj[0] = 0)
    psz = state.psibar
    dpsi = np.zeros_like(psz)
    for j in range(1, min(state.order, len(psz) - 1) + 1):
        dpsi[:-j] -= uj[j] * psz[j:]
    return dc, dpsi


@dataclass
class TrajectoryRecord:
    """Uniform-step trajectory with generating-function and energy tables."""

    times: np.ndarray
    states: list
    gbar: np.ndarray  # [step, k + m_neg] -> Gbar_k at that step
    hamiltonian: np.ndarray

    @property
    def m_neg(self):
        return self.states[0].m_neg

    def gbar_indices(self):
        s = self.states[0]
        return range(-s.m_neg, s.n_psi + 1)

    def drift_report(self):
        """Max relative drift of each conserved coefficient over the run."""
        g0 = self.gbar[0]
        drift = np.abs(self.gbar - g0[None, :]).max(axis=0) / (1.0 + np.abs(g0))
        return {
            f"Gbar_{k}": float(drift[i])
            for i, k in enumerate(self.gbar_indices())
        }

    def to_csv(self, path, extra_columns=None):
        """Deterministic CSV dump: t, c, psibar, Gbar, H (Re/Im split).

        ``extra_columns`` maps a column name to one real value per step;
        these are appended after the energy columns.
        """
        s0 = self.states[0]
        extra = dict(extra_columns or {})
        cols = ["t"]
        cols += [f"{p}_c_{n}" for n in range(1, s0.order + 1) for p in ("re", "im")]
        cols += [
            f"{p}_psibar_{m}"
            for m in range(-s0.m_neg, s0.n_psi + 1)
            for p in ("re", "im")
        ]
        cols += [f"{p}_Gbar_{k}" for k in self.gbar_indices() for p in ("re", "im")]
        cols += ["re_H", "im_H"]
        cols += list(extra)
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for i, s in enumerate(self.states):
                row = [repr(float(s.t))]
                for z in np.concatenate([s.c, s.psibar, self.gbar[i], [self.hamiltonian[i]]]):
                    row.append(repr(float(z.real)))
                    row.append(repr(float(z.imag)))
                for name in extra:
                    row.append(repr(float(extra[name][i])))
                fh.write(",".join(row) + "\n")


def generating_function(state: ShapeState) -> TruncatedLaurent:
    """Laurent window of Gbar(z) = f'(z) psibar(z): Gbar_k at power k-1."""
    m_neg, n_psi, n = state.m_neg, state.n_psi, state.order
    out = []
    for k in range(-m_neg, n_psi + 1):
        acc = state.psi(k)
        for j in range(1, min(n, n_psi - k) + 1):
            acc += (j + 1) * state.c[j - 1] * state.psi(k + j)
        out.append(acc)
    return TruncatedLaurent(-m_neg - 1, out)


def pseudo_hamiltonian(state: ShapeState, d: HerglotzDriver) -> complex:
    """H = sum_{m>=1} Phi_{m+1} psibar_m (z^0 pairing of the two windows)."""
    phi, _ = _phi_and_u(state, d)
    total = 0j
    for m in range(1, min(state.order, state.n_psi) + 1):
        total += phi.coeff(m + 1) * state.psi(m)
    return total


def evolve(
    state0: ShapeState, d: HerglotzDriver, horizon: float, step: float
) -> TrajectoryRecord:
    """Classical fixed-step RK4 trajectory with a snapshot at every step."""
    if step <= 0 or horizon < 0:
        raise ValueError("need step > 0 and horizon >= 0")
    n_steps = int(round(horizon / step))
    state = ShapeState(state0.t, state0.c.copy(), state0.psibar.copy(), state0.m_neg)
    states = [state]
    times = [state.t]
    for k in range(n_steps):
        state = _rk4_step(state, d, step)
        state.t = state0.t + (k + 1) * step  # avoid additive time drift
        peak = np.abs(state.c).max(initial=0.0)
        if not peak <= _DIVERGENCE_GUARD:  # catches NaN as well
            raise StepRejected(f"|c| exceeded {_DIVERGENCE_GUARD:g} at t={state.t}")
        states.append(state)
        times.append(state.t)
    gbar = np.array(
        [np.asarray(generating_function(s).coeffs, dtype=complex) for s in states]
    )
    ham = np.array([pseudo_hamiltonian(s, d) for s in states])
    return TrajectoryRecord(np.array(times), states, gbar, ham)


def _rk4_step(state: ShapeState, d: HerglotzDriver, h: float) -> ShapeState:
    # All four stages see the piece that covers the step's start: a step that
    # ends on a switch must not evaluate its last stage with the next piece.
    d = HerglotzDriver((d.piece_at(state.t),))

    def at(dt, dc, dpsi):
        return ShapeState(
            state.t + dt, state.c + dc, state.psibar + dpsi, state.m_neg
        )

    k1c, k1p = rhs(state, d)
    k2c, k2p = rhs(at(h / 2, h / 2 * k1c, h / 2 * k1p), d)
    k3c, k3p = rhs(at(h / 2, h / 2 * k2c, h / 2 * k2p), d)
    k4c, k4p = rhs(at(h, h * k3c, h * k3p), d)
    return at(
        h,
        h / 6 * (k1c + 2 * k2c + 2 * k3c + k4c),
        h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p),
    )
