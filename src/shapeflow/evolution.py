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
(upper-triangular error propagation never reaches the retained indices);
``evolve`` refuses any other window.

The truncation is a projection, bit for bit: with the same window and
driver, the order-N run is the order-N' run (N' > N) cut to c_1..c_N, with
the same psibar, Gbar, H and pieces.  There are two reasons.  dc_n reads
only c_1..c_n, because f^k starts at z^k; and each kept coefficient of the
windowed Horner products below is the same dot product at every order.

Everything here works on raw ``complex128`` coefficient arrays.  p(w) is
composed by Horner, each product one call of numpy's correlate core (the C
routine behind ``np.convolve``) against w reversed, run only on the window
that product needs; every kept coefficient is the dot product
``np.convolve`` would take, so the bits are those of the full-window
Horner.  Phi's sum and U's sum share one pass over those windows, with one
correlate call per sum and product.  Horner's new constant term is written
as q_k + 0.0 instead of added to the product's entry 0: that entry is the
dot against w_0 = 0, which is +0 whenever the product is finite, so the bits
are those of the addition.  ``evolve`` prepares the driver moments and their
Horner lists once per driver piece and records each state's piece.  Its RK4
stages carry c and psibar as one stacked vector; the first stage at each
grid state is :func:`rhs`, whose dc is Phi[2:] there, and H pairs it with
that state's psibar.  Gbar, H and ``g0`` run over fixed-size blocks of
``_BLOCK`` states, each sum in its one-state order, so no temporary outlives
its block.  Horner's rule for ``map_values``, the psibar gather and the
scalar-rounded products come from :mod:`shapeflow.arrays`.  ``g0``
is the numeric G_0 = sum_k k c_k psibar_k, the conserved partner of H (H +
G_0 is constant within a driver piece).  The tests keep
:mod:`shapeflow.series` as the reference the kernel must match bit for bit.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np
from numpy._core.multiarray import correlate as _correlate  # np.convolve's core

from . import InvalidInput, NumericalFailure
from .arrays import _cmul, _hankel_table, taylor_values
from .driver import HerglotzDriver

__all__ = [
    "ShapeState",
    "TrajectoryRecord",
    "StepRejected",
    "rhs",
    "evolve",
    "generating_function",
    "g0",
    "pseudo_hamiltonian",
    "map_values",
    "state_blocks",
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
        """Identity-map start (all c zero) at t = 0; InvalidInput for a negative
        window bound or a psibar that is not m_neg + n_psi + 1 entries long."""
        _check_bounds(m_neg, n_psi)
        width = m_neg + n_psi + 1
        psibar = np.zeros(width, dtype=complex) if psibar is None else np.asarray(psibar, dtype=complex)
        if psibar.shape != (width,):
            raise InvalidInput(f"psibar must have {width} entries for the window [-{m_neg}, {n_psi}], got shape {psibar.shape}")
        return cls(t=0.0, c=np.zeros(order, dtype=complex), psibar=psibar, m_neg=m_neg)


def _check_bounds(m_neg, n_psi):
    """InvalidInput unless the psibar window -m_neg..n_psi has nonnegative bounds."""
    if m_neg < 0 or n_psi < 0:
        raise InvalidInput(f"psibar window m_neg = {m_neg}, n_psi = {n_psi}: both bounds must be nonnegative")


def map_values(c: np.ndarray, z) -> np.ndarray:
    """f(z) = z (1 + sum c_n z^n) of the map with coefficients c = c_1..c_N,
    at a point or array; each leading axis of ``c`` holds one map per row,
    and every row is evaluated at every z, ahead of z's axes."""
    c = np.asarray(c)
    z = np.asarray(z, dtype=complex)
    return z * taylor_values(np.concatenate([np.ones(c.shape[:-1] + (1,), dtype=complex), c], axis=-1), z)


# Gbar, H, g0 and the CSV rows go this many states at a time: at N = 16 and
# the psibar window [-8, 8] a block's temporaries take about 20 KB
_BLOCK = 64
# f's first two coefficients, 0 and 1
_F_HEAD = np.array([0j, 1.0])
_F_HEAD.flags.writeable = False


def _horner_order(q) -> list:
    """q_1..q_K as Horner takes them, q_K first, as Python complex.

    Every entry after the first is q_k + 0.0, the value :func:`_power_sums`
    writes as a product's new constant term.
    """
    return [complex(q[-1]), *(q[-2::-1] + 0.0).tolist()]


def _horner_lists(pk) -> tuple:
    """The Horner lists of 1 - p(w) = -sum_k p_k w^k and U = -sum_k (k+1) p_k w^k
    for the driver moments pk = p_1..p_{N+1}."""
    return _horner_order(-pk), _horner_order(-np.arange(2, len(pk) + 2) * pk)


def _power_sums(qa: list, qb: list, wr: np.ndarray):
    """sum_{k>=1} qa_k w^k and sum_{k>=1} qb_k w^k by Horner, truncated to w's window.

    ``qa`` and ``qb`` come from :func:`_horner_order` and have one length,
    at most len(w) - 1; ``wr`` is w reversed, with w_0 = 0.  The two sums
    take each window of w in turn, one correlate call per sum.  As w_0 = 0,
    a product with m more after it matters only below len(w) - m, so each
    runs on that window, one entry wider than the last.  Every kept entry is
    the dot product ``np.convolve`` would take, with the same length,
    operands and order; the entry just past the window only ever meets w_0
    and is set to zero, which a dot product's +0 start absorbs.  Entry 0 is
    the dot against w_0 alone, +0 for a finite product, so writing
    q_k + 0.0 there gives the bits of adding q_k.  So the bits agree
    wherever the full-window result is finite: an infinite entry past the
    window would have made it NaN.
    """
    keep = len(wr)
    n = keep - len(qa) + 1
    a = np.zeros(n, dtype=complex)
    b = np.zeros(n, dtype=complex)
    a[0], b[0] = qa[0], qb[0]
    for x, y in zip(qa[1:], qb[1:]):
        window = wr[keep - n :]
        a = _correlate(a, window, "full")[: n + 1]
        b = _correlate(b, window, "full")[: n + 1]
        a[n] = b[n] = 0
        a[0], b[0] = x, y
        n += 1
    return _correlate(a, wr, "full")[:keep], _correlate(b, wr, "full")[:keep]


def _phi_and_u(t: float, c: np.ndarray, lists: tuple):
    """Taylor windows of Phi = f (1 - p(w)) (order N+1) and U = -sum_k (k+1) p_k w^k.

    ``lists`` are the driver piece's :func:`_horner_lists`; both sums are
    one Horner pass over powers of w = e^{-t} f.
    """
    f = np.concatenate([_F_HEAD, c])
    wr = np.exp(-t) * f[::-1]  # w reversed; w_0 = e^{-t} * 0 = +0
    one_minus_p, u = _power_sums(*lists, wr)
    return _correlate(f, one_minus_p[::-1], "full")[: len(wr)], u


def _derivatives(t: float, y: np.ndarray, order: int, lists: tuple) -> np.ndarray:
    """dc and dpsibar, stacked like y = c ‖ psibar, at time t on the piece of ``lists``."""
    psz = y[order:]
    phi, u = _phi_and_u(t, y[:order], lists)
    jmax = min(order, len(psz) - 1)
    # dpsibar_m = 0 - U_1 psibar_{m+1} - U_2 psibar_{m+2} - ..., in increasing j, read from
    # psibar and jmax zeros; a sum that starts at +0 never becomes -0, so the zeros are inert
    terms = u[1 : jmax + 1, None] * np.concatenate([psz, np.zeros(jmax, dtype=complex)])[_hankel_table(jmax, len(psz))]
    return np.concatenate([phi[2:], np.subtract.reduce(terms, axis=0, initial=0)])  # dc_n/dt = Phi_{n+1}


def rhs(state: ShapeState, d: HerglotzDriver, pk=None):
    """Time derivatives (dc, dpsibar) at the state.

    ``pk`` holds the moments p_1..p_{N+1} of the driver piece to use; they
    are taken from ``d`` at ``state.t`` when omitted.
    """
    if pk is None:
        pk = d.moments(state.t, state.order + 1)
    y = np.concatenate([state.c, state.psibar])
    k = _derivatives(state.t, y, state.order, _horner_lists(pk))
    return k[: state.order], k[state.order :]


def state_blocks(states):
    """(lo, hi, c, psibar) per block of at most ``_BLOCK`` states, lo..hi-1 of
    a sequence of states of one order and window, with the block's c and
    psibar stacked as rows."""
    for lo in range(0, len(states), _BLOCK):
        block = states[lo : lo + _BLOCK]
        yield lo, lo + len(block), np.array([s.c for s in block]), np.array([s.psibar for s in block])


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

    def to_csv(self, fh, extra_columns=None):
        """Deterministic CSV dump to the open file ``fh``: t, c, psibar, Gbar, H (Re/Im split).

        ``extra_columns`` maps a column name to one real value per step;
        these are appended after the energy columns.  The rows are formatted
        and written a block of states at a time.
        """
        s0 = self.states[0]
        extra = {name: np.asarray(values, dtype=float) for name, values in (extra_columns or {}).items()}
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
        fh.write(",".join(cols) + "\n")
        for lo, hi, c, psz in state_blocks(self.states):
            values = np.concatenate([c, psz, self.gbar[lo:hi], self.hamiltonian[lo:hi, None]], axis=1)
            times = [float(s.t) for s in self.states[lo:hi]]
            rows = np.column_stack([times, values.view(float), *(v[lo:hi] for v in extra.values())])
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))


def _per_state(states, compute):
    """``compute(c, psibar)`` for one state, or for a sequence of states of one
    order and window a block at a time, each block's values, one per stacked
    row, written into one table."""
    one = isinstance(states, ShapeState)
    rows = [states] if one else states
    out = None
    for lo, hi, c, psz in state_blocks(rows):
        values = compute(c, psz)
        if out is None:
            out = np.empty((len(rows), *values.shape[1:]), dtype=complex)
        out[lo:hi] = values
    return out[0].copy() if one else out


def generating_function(states) -> np.ndarray:
    """Coefficients Gbar_k, k = -m_neg..n_psi, of Gbar(z) = f'(z) psibar(z).

    Gbar_k = psibar_k + sum_{j=1}^{min(N, n_psi-k)} (j+1) c_j psibar_{k+j} is
    the coefficient of z^{k-1}; it is stored like psibar, at index k + m_neg.
    Each Gbar_k adds its terms in increasing j.  Given a nonempty sequence
    of states of one order and window, returns the table [i, k + m_neg],
    computed ``_BLOCK`` states at a time.
    """
    return _per_state(states, _gbar_rows)


def _gbar_rows(c: np.ndarray, psz: np.ndarray) -> np.ndarray:
    """Gbar rows of stacked states (c, psibar); see :func:`generating_function`."""
    width = psz.shape[1]
    jmax = min(c.shape[1], width - 1)
    coef = _cmul(np.arange(2.0, jmax + 2), c[:, :jmax])
    out = psz.copy()
    for j in range(1, jmax + 1):  # Gbar_k has terms up to j = n_psi - k only
        out[:, : width - j] += _cmul(coef[:, j - 1, None], psz[:, j:])
    return out


def g0(states):
    """The value of ``corrected_G(0) = sum_k k c_k psibar_k`` at a state, k <= min(n_psi, order).

    Given a nonempty sequence of states of one order and window, returns
    the array of their values, computed ``_BLOCK`` states at a time.
    """
    m_neg = (states if isinstance(states, ShapeState) else states[0]).m_neg
    return _per_state(states, lambda c, psz: _pairing(np.arange(1, c.shape[1] + 1) * c, psz, m_neg))


def _pairing(dc: np.ndarray, psz: np.ndarray, m_neg: int) -> np.ndarray:
    """H = sum_{m>=1} Phi_{m+1} psibar_m in increasing m, from dc = Phi[2:].

    Each row of ``dc`` pairs with the same row of ``psz``, a block of
    psibar windows with offset m_neg; the sums start at +0 and round each
    product like scalar math.
    """
    total = np.zeros(len(dc), dtype=complex)
    for m in range(1, min(dc.shape[1], psz.shape[1] - 1 - m_neg) + 1):
        total += _cmul(dc[:, m - 1], psz[:, m_neg + m])
    return total


def pseudo_hamiltonian(state: ShapeState, d: HerglotzDriver, pk=None) -> complex:
    """H = sum_{m>=1} Phi_{m+1} psibar_m (z^0 pairing of the two windows).

    ``pk`` is as for :func:`rhs`.  ``evolve`` pairs the first RK4 stage's dc,
    which is Phi[2:] at the same state, so it calls this only at the last
    state.
    """
    if pk is None:
        pk = d.moments(state.t, state.order + 1)
    phi, _ = _phi_and_u(state.t, state.c, _horner_lists(pk))
    return _pairing(phi[None, 2:], state.psibar[None, :], state.m_neg)[0]


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

    The window bounds must be nonnegative and keep Gbar conserved, m_neg +
    n_psi <= order (see the module docstring), and the horizon must be a
    whole number of steps, to 1e-9 relative, so the last state sits at the
    horizon; else InvalidInput, as for step <= 0, horizon < 0 or an infinite
    step count, and InvalidMeasure when the driver's pieces do not start in
    strictly increasing order, all before any step.  Raises StepRejected
    when a state leaves the divergence guard (|c| above 1e6, or |psibar|
    above 1e6 times its starting peak) or when a state, a Gbar coefficient
    or H is not finite.

    Each RK4 step runs on one driver piece.  A switch strictly inside a step
    splits it into a step to the switch on the old piece and one from the
    switch on the new piece; a switch within ``SWITCH_SLACK * step`` of a
    grid time counts as at that time, and the state there, its H and the
    step from it belong to the new piece.  ``TrajectoryRecord.pieces`` holds
    each state's piece index, so H + G_0 can be compared within a piece.
    """
    _check_bounds(state0.m_neg, state0.n_psi)
    if state0.m_neg + state0.n_psi > state0.order:
        raise InvalidInput(
            f"m_neg + n_psi = {state0.m_neg} + {state0.n_psi} exceeds order {state0.order}: "
            "Gbar is conserved only when m_neg + n_psi <= order"
        )
    if not (step > 0 and 0 <= horizon / step < np.inf):
        raise InvalidInput("need step > 0 and a finite horizon / step >= 0")
    steps = horizon / step
    n_steps = round(steps)
    if abs(steps - n_steps) > 1e-9 * steps:
        raise InvalidInput(
            f"horizon {horizon} is not a whole number of steps of {step} ({steps:.6g} steps)"
        )
    starts = d.starts  # InvalidMeasure for pieces out of order
    slack = SWITCH_SLACK * step
    order, m_neg = state0.order, state0.m_neg

    @functools.cache
    def moments_of(i):  # p_1..p_{N+1} of piece i and their Horner lists, once per piece
        pk = d.moments(starts[i], order + 1)
        return pk, _horner_lists(pk)

    # the stacked c || psibar of the current state; each state's c and psibar
    # are views of its own y
    y = np.concatenate([state0.c, state0.psibar])
    state = ShapeState(state0.t, y[:order], y[order:], m_neg)
    # psibar is linear in its start, so its guard scales with it; the cap keeps
    # an infinite |psibar| outside the guard
    psi_peak = max(1.0, np.abs(state.psibar).max(initial=0.0))
    psi_bound = min(_DIVERGENCE_GUARD * psi_peak, np.finfo(float).max)
    _check_state(state, psi_bound)
    states = [state]
    pieces = [d.piece_index(state.t, slack)]
    # dc of each step's first RK4 stage, Phi[2:] at its grid state, as far as H pairs it
    first_dc = np.empty((n_steps, min(order, state0.n_psi)), dtype=complex)
    for k in range(n_steps):
        t_end = state0.t + (k + 1) * step  # avoid additive time drift
        # each RK4 step runs on one piece: the piece of the grid state it
        # starts from, and a switch strictly inside the step splits it into
        # an RK4 step to the switch and one on from it; every start after
        # that piece's lies past state.t + slack
        t, piece = state.t, pieces[-1]
        cuts = starts[piece + 1 : bisect.bisect_left(starts, t_end - slack, piece + 1)]
        for j, end in enumerate([*cuts, t_end]):
            pk, lists = moments_of(piece)
            if j == 0:  # the first stage runs at the grid state, on its piece
                k1 = np.concatenate(rhs(state, d, pk))
                first_dc[k] = k1[: first_dc.shape[1]]
            else:
                k1 = _derivatives(t, y, order, lists)
            y = _rk4_step(t, y, order, lists, end - t if cuts else step, k1)
            t = end
            piece = d.piece_index(end, slack)
        state = ShapeState(t, y[:order], y[order:], m_neg)
        _check_state(state, psi_bound)
        states.append(state)
        pieces.append(piece)
    gbar = generating_function(states)
    ham = np.empty(len(states), dtype=complex)
    for lo, hi, _, psz in state_blocks(states[:-1]):
        ham[lo:hi] = _pairing(first_dc[lo:hi], psz, m_neg)
    ham[-1] = pseudo_hamiltonian(state, d, moments_of(pieces[-1])[0])
    if not (np.isfinite(gbar).all() and np.isfinite(ham).all()):
        raise StepRejected("Gbar or H is not finite along the trajectory")
    times = np.array([s.t for s in states])
    return TrajectoryRecord(times, states, gbar, ham, np.array(pieces))


def _rk4_step(t: float, y: np.ndarray, order: int, lists: tuple, h: float, k1: np.ndarray):
    """The stacked state one RK4 step of size h on from (t, y), given the first stage k1."""
    k2 = _derivatives(t + h / 2, y + h / 2 * k1, order, lists)
    k3 = _derivatives(t + h / 2, y + h / 2 * k2, order, lists)
    k4 = _derivatives(t + h, y + h * k3, order, lists)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
