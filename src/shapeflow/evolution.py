"""Coefficient-space evolution of univalent maps and their conjugate variables.

The map f(z,t) = z(1 + sum c_n(t) z^n) evolves by

    df/dt = f (1 - p(e^{-t} f, t))                                (c-equations)

and the conjugate window psibar_m, -M <= m <= Npsi, by the linear advection

    dpsibar_m/dt = - sum_{j>=1} U_j psibar_{m+j},
    U(z) = (1 - p(w)) - w p'(w) at w = e^{-t} f(z,t),

which together form the canonical system of the time-dependent
pseudo-Hamiltonian H = sum_m Phi_{m+1} psibar_m, Phi = f (1 - p(e^{-t}f)).
The generating function Gbar(z) = f'(z) psibar(z) has coefficients constant
along trajectories; with the window layout used here the conservation is
exact for every representable index whenever Npsi - N <= -M
(upper-triangular error propagation never reaches the retained indices).

Everything here works on raw ``complex128`` coefficient arrays.  p(w) is
composed by Horner, each product one call of numpy's correlate core (the C
routine behind ``np.convolve``) against w reversed, run only on the window
that product needs; every kept coefficient is the dot product
``np.convolve`` would take, so the bits are those of the full-window
Horner.  ``evolve`` computes the driver moments once per driver piece,
records each state's piece and takes each state's H from the dc of the
first RK4 stage at it, and ``ShapeState.f`` evaluates the map by Horner's
rule.  ``g0`` is the numeric
G_0 = sum_k k c_k psibar_k, the conserved partner of H (H + G_0 is constant
within a driver piece).  The tests keep :mod:`shapeflow.series` as the
reference the kernel must match bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy._core.multiarray import correlate as _correlate  # np.convolve's core

from . import InvalidInput, NumericalFailure
from .driver import HerglotzDriver, InvalidMeasure

__all__ = [
    "ShapeState",
    "TrajectoryRecord",
    "StepRejected",
    "rhs",
    "evolve",
    "generating_function",
    "g0",
    "pseudo_hamiltonian",
    "taylor_values",
]

_DIVERGENCE_GUARD = 1e6
# a switch within this fraction of a step of a grid time counts as at that time
SWITCH_SLACK = 1e-9


class StepRejected(NumericalFailure, RuntimeError):
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

    def f(self, z):
        """f(z) = z (1 + sum c_n z^n) at a point or array."""
        z = np.asarray(z, dtype=complex)
        return z * taylor_values(np.concatenate([[1.0 + 0j], self.c]), z)


def taylor_values(coeffs: np.ndarray, z) -> np.ndarray:
    """sum_j coeffs[j] z^j by Horner's rule, at a point or array.

    Rounds exactly like ``TruncatedSeries.evaluate``.
    """
    return np.polyval(coeffs[::-1], z)


def _w_reversed(state: ShapeState) -> np.ndarray:
    """w = e^{-t} f as a window of order N+1 (constant term zero), reversed."""
    w = np.concatenate([[0.0 + 0j], np.exp(-state.t) * np.concatenate([[1.0], state.c])])
    return w[::-1].copy()


def _power_sum(q, wr: np.ndarray) -> np.ndarray:
    """sum_{k>=1} q_k w^k by Horner (q[0] is q_1), truncated to w's window.

    ``wr`` is w reversed and q has at most len(w) - 1 entries.  As w_0 = 0,
    a product with m more after it matters only below len(w) - m, so each
    runs on that window, one entry wider than the last.  Every kept entry is
    the dot product ``np.convolve`` would take, with the same length,
    operands and order; the entry just past the window only ever meets w_0
    and is set to zero, which a dot product's +0 start absorbs.  So the bits
    agree wherever the full-window result is finite: an infinite entry past
    the window would have made it NaN.
    """
    keep = len(wr)
    n = keep - len(q) + 1
    acc = np.zeros(n, dtype=complex)
    acc[0] = q[-1]
    for qk in q[-2::-1].tolist():
        acc = _correlate(acc, wr[keep - n :], "full")[: n + 1]
        acc[n] = 0
        acc[0] += qk
        n += 1
    return _correlate(acc, wr, "full")[:keep]


def _phi(state: ShapeState, pk, wr: np.ndarray) -> np.ndarray:
    """Phi = f (1 - p(w)) to order N+1, with 1 - p(w) = -sum_k p_k w^k."""
    f = np.concatenate([[0.0 + 0j, 1.0], state.c])
    return _correlate(f, _power_sum(-pk, wr)[::-1], "full")[: len(wr)]


def _phi_and_u(state: ShapeState, pk):
    """Taylor windows of Phi (order N+1) and U = -sum_k (k+1) p_k w^k.

    ``pk`` holds the driver moments p_1..p_{N+1}; both are Horner passes
    over powers of w = e^{-t} f.
    """
    wr = _w_reversed(state)
    return _phi(state, pk, wr), _power_sum(-np.arange(2, state.order + 3) * pk, wr)


@functools.lru_cache(maxsize=16)
def _shift_table(size: int, jmax: int):
    """The index and inside-mask tables of :func:`_shifted`, read-only."""
    idx = np.add.outer(np.arange(1, jmax + 1), np.arange(size))
    inside = idx < size
    idx.flags.writeable = inside.flags.writeable = False
    return idx, inside


def _shifted(psz: np.ndarray, jmax: int):
    """Row j-1 holds psibar at index i + j for every i, zero past the window.

    Also returns where i + j is still inside the window.
    """
    idx, inside = _shift_table(len(psz), jmax)
    padded = np.concatenate([psz, np.zeros(jmax, dtype=complex)])
    return padded[idx], inside


def rhs(state: ShapeState, d: HerglotzDriver, pk=None):
    """Time derivatives (dc, dpsibar) at the state.

    ``pk`` holds the moments p_1..p_{N+1} of the driver piece to use; they
    are taken from ``d`` at ``state.t`` when omitted.
    """
    if pk is None:
        pk = d.moments(state.t, state.order + 1)
    phi, u = _phi_and_u(state, pk)
    dc = phi[2:]  # dc_n/dt = Phi_{n+1}
    psz = state.psibar
    shifted, _ = _shifted(psz, min(state.order, len(psz) - 1))
    # dpsibar_m = 0 - U_1 psibar_{m+1} - U_2 psibar_{m+2} - ..., in increasing j;
    # a sum that starts at +0 never becomes -0, so the zero padding is inert
    terms = u[1 : len(shifted) + 1, None] * shifted
    dpsi = np.subtract.reduce(terms, axis=0, initial=0)
    return dc, dpsi


@dataclass
class TrajectoryRecord:
    """Uniform-step trajectory with generating-function and energy tables."""

    times: np.ndarray
    states: list
    gbar: np.ndarray  # [step, k + m_neg] -> Gbar_k at that step
    hamiltonian: np.ndarray
    pieces: np.ndarray  # [step] -> index of the driver piece that state is on

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
                values = np.concatenate(
                    [s.c, s.psibar, self.gbar[i], self.hamiltonian[i : i + 1]]
                )
                row = [float(s.t), *values.view(float).tolist()]  # re, im pairs
                row += [float(extra[name][i]) for name in extra]
                fh.write(",".join(map(repr, row)) + "\n")


def _cmul(a, b):
    """a * b as (ar br - ai bi) + i (ar bi + ai br), rounded like scalar math.

    numpy's SIMD loop for complex arrays may fuse the multiply-adds, which
    moves the last bits; the split form gives the scalar result exactly.
    """
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def generating_function(state: ShapeState) -> np.ndarray:
    """Coefficients Gbar_k, k = -m_neg..n_psi, of Gbar(z) = f'(z) psibar(z).

    Gbar_k = psibar_k + sum_{j=1}^{min(N, n_psi-k)} (j+1) c_j psibar_{k+j} is
    the coefficient of z^{k-1}; it is stored like psibar, at index k + m_neg.
    Each Gbar_k adds its terms in increasing j.
    """
    psz = state.psibar
    shifted, inside = _shifted(psz, min(state.order, len(psz) - 1))
    coef = _cmul(np.arange(2.0, len(shifted) + 2), state.c[: len(shifted)])
    # terms past the window become -0.0, which leaves every sum unchanged
    terms = np.where(inside, _cmul(coef[:, None], shifted), complex(-0.0, -0.0))
    return np.add.accumulate(np.vstack([psz, terms]))[-1]


def g0(state: ShapeState) -> complex:
    """The value of ``corrected_G(0) = sum_k k c_k psibar_k`` at a state, k <= min(n_psi, order)."""
    kmax = min(state.n_psi, state.order)
    return sum(k * state.c[k - 1] * state.psi(k) for k in range(1, kmax + 1))


def _pairing(dc: np.ndarray, state: ShapeState) -> complex:
    """H = sum_{m>=1} Phi_{m+1} psibar_m in increasing m, from dc = Phi[2:]."""
    total = 0j
    for m in range(1, min(state.order, state.n_psi) + 1):
        total += dc[m - 1] * state.psi(m)
    return total


def pseudo_hamiltonian(state: ShapeState, d: HerglotzDriver, pk=None) -> complex:
    """H = sum_{m>=1} Phi_{m+1} psibar_m (z^0 pairing of the two windows).

    ``pk`` is as for :func:`rhs`.  ``evolve`` pairs the first RK4 stage's dc,
    which is Phi[2:] at the same state, so it calls this only at the last
    state.
    """
    if pk is None:
        pk = d.moments(state.t, state.order + 1)
    return _pairing(_phi(state, pk, _w_reversed(state))[2:], state)


def _check_state(state: ShapeState, psi_bound: float):
    """StepRejected unless |c| <= 1e6 and |psibar| <= psi_bound (NaN fails both)."""
    if not np.abs(state.c).max(initial=0.0) <= _DIVERGENCE_GUARD:
        raise StepRejected(f"|c| exceeded {_DIVERGENCE_GUARD:g} at t={state.t}")
    if not np.abs(state.psibar).max(initial=0.0) <= psi_bound:
        raise StepRejected(
            f"|psibar| is not finite or grew past {_DIVERGENCE_GUARD:g} times "
            f"its start at t={state.t}"
        )


def evolve(
    state0: ShapeState, d: HerglotzDriver, horizon: float, step: float
) -> TrajectoryRecord:
    """Classical fixed-step RK4 trajectory with a snapshot at every step.

    The horizon must be a whole number of steps, to 1e-9 relative, so the
    last state sits at the horizon; else InvalidInput, as for step <= 0,
    horizon < 0 or an infinite step count.  Raises StepRejected when a state
    leaves the divergence guard (|c| above 1e6, or |psibar| above 1e6 times
    its starting peak) or when a state, a Gbar coefficient or H is not finite.

    Each RK4 step runs on one driver piece.  A switch strictly inside a step
    splits it into a step to the switch on the old piece and one from the
    switch on the new piece; a switch within ``SWITCH_SLACK * step`` of a
    grid time counts as at that time, and the state there, its H and the
    step from it belong to the new piece.  ``TrajectoryRecord.pieces`` holds
    each state's piece index, so H + G_0 can be compared within a piece.
    """
    if not (step > 0 and 0 <= horizon / step < np.inf):
        raise InvalidInput("need step > 0 and a finite horizon / step >= 0")
    steps = horizon / step
    n_steps = round(steps)
    if abs(steps - n_steps) > 1e-9 * steps:
        raise InvalidInput(
            f"horizon {horizon} is not a whole number of steps of {step} ({steps:.6g} steps)"
        )
    starts = [p.t_start for p in d.pieces]
    slack = SWITCH_SLACK * step
    moments = {}  # piece index -> p_1..p_{N+1}, computed once per driver piece

    def piece_index(t):
        """Index of the piece of grid time t: the last to start by t + slack."""
        started = [i for i, s in enumerate(starts) if s <= t + slack]
        if not started:
            raise InvalidMeasure(f"no driver piece covers t={t}")
        return started[-1]

    def moments_of(i):
        if i not in moments:
            moments[i] = d.moments(starts[i], state0.order + 1)
        return moments[i]

    state = ShapeState(state0.t, state0.c.copy(), state0.psibar.copy(), state0.m_neg)
    # psibar is linear in its start, so its guard scales with it; the cap keeps
    # an infinite |psibar| outside the guard
    psi_peak = max(1.0, np.abs(state.psibar).max(initial=0.0))
    psi_bound = min(_DIVERGENCE_GUARD * psi_peak, np.finfo(float).max)
    _check_state(state, psi_bound)
    states = [state]
    times = [state.t]
    pieces = [piece_index(state.t)]
    ham = []
    for k in range(n_steps):
        t_end = state0.t + (k + 1) * step  # avoid additive time drift
        # each RK4 step runs on one piece: the piece of the grid state it
        # starts from, and a switch strictly inside the step splits it into
        # an RK4 step to the switch and one on from it
        cuts = [s for s in starts if state.t + slack < s < t_end - slack]
        piece = pieces[-1]
        first_stages = []
        for end in [*cuts, t_end]:
            state, dc = _rk4_step(state, d, moments_of(piece), end - state.t if cuts else step)
            state.t = end
            piece = piece_index(end)
            first_stages.append(dc)
        # the first stage ran at the grid state on its piece: its dc is Phi[2:] there
        ham.append(_pairing(first_stages[0], states[-1]))
        _check_state(state, psi_bound)
        states.append(state)
        times.append(state.t)
        pieces.append(piece)
    ham.append(pseudo_hamiltonian(state, d, moments_of(pieces[-1])))
    gbar = np.array([generating_function(s) for s in states])
    ham = np.array(ham)
    if not (np.isfinite(gbar).all() and np.isfinite(ham).all()):
        raise StepRejected("Gbar or H is not finite along the trajectory")
    return TrajectoryRecord(np.array(times), states, gbar, ham, np.array(pieces))


def _rk4_step(state: ShapeState, d: HerglotzDriver, pk, h: float):
    """The state one RK4 step of size h on, and the first stage's dc."""

    def at(dt, dc, dpsi):
        return ShapeState(
            state.t + dt, state.c + dc, state.psibar + dpsi, state.m_neg
        )

    k1c, k1p = rhs(state, d, pk)
    k2c, k2p = rhs(at(h / 2, h / 2 * k1c, h / 2 * k1p), d, pk)
    k3c, k3p = rhs(at(h / 2, h / 2 * k2c, h / 2 * k2p), d, pk)
    k4c, k4p = rhs(at(h, h * k3c, h * k3p), d, pk)
    return at(
        h,
        h / 6 * (k1c + 2 * k2c + 2 * k3c + k4c),
        h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p),
    ), k1c
