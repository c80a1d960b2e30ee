"""Generalized-time flows attached to a graph operator.

This module evaluates the integrable-hierarchy side of the pipeline: Schur
polynomials of a vector of times, the bilinear forms built from a shape's
coefficient matrix, the first wave coefficient and its exact partial
derivatives, the Baker-Akhiezer function of a graph, the tau determinant,
and a numerical residual for the KP equation.

Conventions
-----------
A time vector ``t = (t_1, ..., t_M)`` (``M >= 3``) defines the exponent
``xi(t, z) = sum_k t_k z^k`` and the Schur values ``a_q = S_q(t)`` with
``exp(xi) = sum_q a_q z^q``.  For a shape ``f(z) = z (1 + sum c_k z^k)``
the central scalar is the bilinear pairing

    D_s = sum_{m>=1} m conj(c_m) * sum_{j>=0} r_j a_{m+j-s},

where ``r`` is the reciprocal series of ``conj(f)'`` and ``a``-indices
below zero vanish.  Derivatives act by a pure index shift,
``d/dt_k D_s = D_{s+k}``, which is exact for the truncated sums because the
index set does not move.  :func:`omega1_and_partials` fills the whole jet
of ``omega_1 = D_1/(1-D_0)`` from one table by the Leibniz rule applied to
``omega_1 (1 - D_0) = D_1``, and :func:`kp_value` reads the KP residual off
that jet, so no finite differences enter and one table serves a sweep row.

Each Schur value ``S_q`` depends on ``q`` and the times alone, so the values
up to order K are a prefix of those up to any larger order, bit for bit.  A
:class:`GeneralizedTimes` keeps the values :func:`schur` has computed for it
and a later call extends that prefix, so a sweep row that builds one times
object runs one recurrence for all its tables: ``ABForm.build`` at N and 2N
and :func:`tau` read orders N+1, 2N+1 and N+n of the same run.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import NumericalFailure, WindowTooSmall
from .grassmannian import GraphOperator, _upper_toeplitz, fprime_reciprocal


class NearSingularA(NumericalFailure):
    """The denominator 1 - D_0 is too close to zero to divide by."""


class SingularSystem(NumericalFailure):
    """The Baker-Akhiezer linear system is singular at this truncation."""


# Depth of the tabulated D_s values: a fourth derivative taken entirely in
# t_3 shifts the index by 12.
_TABLE_DEPTH = 12

_NUMERIC = (int, float, complex, np.number)


def _weight(alpha) -> int:
    """The table shift w(alpha) = alpha_1 + 2 alpha_2 + 3 alpha_3 of d^alpha."""
    return alpha[0] + 2 * alpha[1] + 3 * alpha[2]


@dataclasses.dataclass(frozen=True)
class GeneralizedTimes:
    """A finite vector of flow times ``(t_1, ..., t_M)``.

    Vectors shorter than three entries are zero-padded so the three KP
    directions always exist; entries beyond ``M`` are treated as zero by
    :meth:`get`.
    """

    values: tuple
    # S_0, S_1, ... as computed so far by :func:`schur`; not part of the
    # value, so equal times compare and hash equal whatever each computed
    _schur: tuple = dataclasses.field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        if len(vals) < 3:
            vals = vals + (0.0,) * (3 - len(vals))
        object.__setattr__(self, "values", vals)

    @classmethod
    def of(cls, t) -> "GeneralizedTimes":
        """Coerce a GeneralizedTimes or a plain iterable of values."""
        if isinstance(t, cls):
            return t
        return cls(tuple(t))

    def get(self, k: int):
        """The time t_k (1-based); zero beyond the stored window."""
        if k < 1:
            raise IndexError(f"time index must be >= 1, got {k}")
        if k <= len(self.values):
            return self.values[k - 1]
        return 0.0

    def xi(self, z):
        """The exponent ``sum_k t_k z**k``; exact, the sum is finite."""
        total = 0.0
        for k, v in enumerate(self.values, start=1):
            total = total + v * z**k
        return total

    def sato_shifted(self, z: complex, terms: int = 24) -> "GeneralizedTimes":
        """The shifted vector ``t_k - 1/(k z^k)`` over ``k = 1..terms``.

        This is the time shift entering the wave-function quotient
        ``exp(xi) tau(t - [z^{-1}]) / tau(t)``; ``terms`` truncates the
        geometric tail, which decays like ``|z|^-terms``.
        """
        z = complex(z)
        span = max(len(self.values), int(terms))
        return GeneralizedTimes(
            tuple(self.get(k) - 1.0 / (k * z**k) for k in range(1, span + 1))
        )


def schur(t, K: int) -> np.ndarray:
    """Schur polynomial values ``S_0..S_K`` of the time vector.

    Defined by ``exp(sum_k t_k z^k) = sum_q S_q z^q`` and computed by the
    differential recurrence ``q S_q = sum_{j <= min(q, M)} (j t_j) S_{q-j}``
    in plain Python arithmetic, one code path for every coefficient ring.
    Numeric entries run on Python ``complex`` and scale by ``1.0 / q``, the
    reciprocal numpy's complex-by-integer division multiplies by, so the
    values are byte-identical to :func:`~shapeflow.series.exp_series`.
    Exact entries (Fractions, symbols) stay exact and scale by
    ``Fraction(1, q)``.

    ``S_q`` depends on ``q`` and ``t`` alone, so ``schur(t, K)`` is the first
    ``K + 1`` entries of ``schur(t, L)`` for every ``L >= K``, bit for bit.
    When ``t`` is a :class:`GeneralizedTimes` the values are kept on it and a
    later call runs only the steps past the longest earlier order; every call
    returns a fresh array.
    """
    times = GeneralizedTimes.of(t)
    if K < 0:
        raise ValueError("Schur order must be >= 0")
    numeric = all(isinstance(v, _NUMERIC) for v in times.values)
    out = times._schur
    if len(out) <= K:
        vals = times.values[:K]
        if numeric:
            vals = [complex(v) for v in vals]
        jt = [j * v for j, v in enumerate(vals, start=1)]
        out = list(out) or [1]
        for q in range(len(out), K + 1):
            # out holds S_0..S_{q-1}, so reversed(out) pairs t_j with S_{q-j}
            acc = 0
            for w, s in zip(jt, reversed(out)):
                acc = acc + w * s
            out.append(acc * (1.0 / q if numeric else Fraction(1, q)))
        # published whole, so a times object shared between threads only
        # ever holds a complete prefix
        object.__setattr__(times, "_schur", tuple(out))
    return np.asarray(out[: K + 1], dtype=complex if numeric else object)


@functools.lru_cache(maxsize=16)
def _shape_weights(coeffs: bytes, N: int) -> np.ndarray:
    """The weights ``v`` of ``D_s = sum_q v_q S_{q-s}`` for one shape and window.

    ``v = (m conj(c_m)) * r`` cut at ``q <= N+1``, the only ``q`` that pair
    with a Schur value ``S_0..S_{N+1}``; ``r`` is the reciprocal of
    ``conj(f)'``.  It depends on the shape alone, so a sweep computes it
    once per (shape, window).  The key is the ``complex128`` bytes of the
    first ``N`` coefficients, so shapes that differ in any bit, a signed
    zero included, get their own entry; the returned array is read-only.
    """
    c = np.zeros(N, dtype=complex)
    supplied = np.frombuffer(coeffs, dtype=complex)
    c[: supplied.size] = supplied
    cbar = np.conj(c)
    weighted = np.arange(N + 1) * np.concatenate([[0.0], cbar])
    v = np.convolve(weighted, fprime_reciprocal(cbar, N))[: N + 2]
    v.flags.writeable = False
    return v


@dataclasses.dataclass(frozen=True)
class ABForm:
    """The tabulated bilinear pairings ``D_s`` of a shape at a time vector.

    ``table[s]`` holds ``D_s`` for ``s = 0.._TABLE_DEPTH``; every partial
    derivative of the base value ``A = D_0`` with respect to the times is
    another table slot, ``d^alpha A = D_{w(alpha)}`` (see :func:`_weight`),
    because each ``d/dt_k`` shifts the Schur index by ``k``.
    """

    table: tuple

    @classmethod
    def build(cls, f_coeffs, t, N: int) -> "ABForm":
        if N < 1:
            raise WindowTooSmall(f"bilinear form needs N >= 1, got {N}")
        supplied = np.asarray(f_coeffs, dtype=complex).ravel()
        v = _shape_weights(supplied[:N].tobytes(), int(N))
        a = np.concatenate([np.zeros(_TABLE_DEPTH), schur(t, N + 1)])
        return cls(table=tuple((a[_lag_table(int(N))] @ v).tolist()))


@functools.lru_cache(maxsize=16)
def _lag_table(N: int) -> np.ndarray:
    """Read-only ``lags[s, q] = q - s + depth``: ``a[lags]`` holds ``S_{q-s}``
    when ``a`` is the Schur values after ``depth`` zeros, zero below q = s."""
    lags = np.arange(N + 2) - np.arange(_TABLE_DEPTH + 1)[:, None] + _TABLE_DEPTH
    lags.flags.writeable = False
    return lags


# omega_1's partials of total order <= 3, then the two higher t_1 orders the
# KP combination needs; sorted by total order, so that every alpha - gamma
# in the recurrence comes before alpha.
_ORDER3 = [a for a in itertools.product(range(4), repeat=3) if sum(a) <= 3]
_JET = tuple(sorted(_ORDER3 + [(4, 0, 0), (5, 0, 0)], key=sum))


def _leibniz_terms(alpha) -> tuple:
    """``(C(alpha, gamma), w(gamma), alpha - gamma)`` for every 0 < gamma <= alpha."""
    terms = []
    for gamma in itertools.product(*(range(x + 1) for x in alpha)):
        if any(gamma):
            rest = tuple(x - g for x, g in zip(alpha, gamma))
            terms.append((math.prod(map(math.comb, alpha, gamma)), _weight(gamma), rest))
    return tuple(terms)


# one entry per partial in _JET order: its table slot w(alpha) + 1 and its
# Leibniz terms, each (binomial, table slot, position of alpha - gamma in _JET)
_PLAN = tuple(
    (_weight(alpha) + 1, tuple((b, shift, _JET.index(rest)) for b, shift, rest in _leibniz_terms(alpha)))
    for alpha in _JET
)


def omega1_and_partials(ab: ABForm) -> dict:
    """omega_1 = D_1/(1 - D_0) and its exact time-partials: the whole jet.

    Returns a dict keyed by the multi-index ``(alpha_1, alpha_2, alpha_3)``
    with the 20 partials of total order <= 3 plus ``d_1^4`` and ``d_1^5``,
    the orders :func:`kp_value` reads.  Differentiating
    ``omega_1 (1 - D_0) = D_1`` by Leibniz, with
    ``d^gamma D_s = D_{s + w(gamma)}``, gives the Taylor-division recurrence

        (1 - D_0) d^alpha omega_1 = D_{w(alpha)+1}
            + sum_{0 < gamma <= alpha} C(alpha, gamma) D_{w(gamma)} d^{alpha-gamma} omega_1

    (Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13).
    """
    D = ab.table
    denom = 1.0 - complex(D[0])
    if abs(denom) <= 1e-10:
        raise NearSingularA(f"1 - A = {denom:.3e} is too small to divide by")
    jet = []
    for slot, terms in _PLAN:
        acc = D[slot]
        for binom, shift, rest in terms:
            acc += binom * D[shift] * jet[rest]
        jet.append(acc / denom)
    return dict(zip(_JET, jet))


def kp_value(jet: dict) -> complex:
    """``3 d2^2 lam - d1(4 d3 lam - 12 lam d1 lam - d1^3 lam)`` with lam = -d1 omega_1."""
    return (
        -3 * jet[(1, 2, 0)]
        + 4 * jet[(2, 0, 1)]
        + 12 * (jet[(2, 0, 0)] ** 2 + jet[(1, 0, 0)] * jet[(3, 0, 0)])
        - jet[(5, 0, 0)]
    )


def kp_residual(f_coeffs, t, N: int) -> float:
    """Absolute value of the KP combination for the first wave coefficient.

    Evaluates ``|3 d_{t2}^2 lam - d_{t1}(4 d_{t3} lam - 12 lam d_{t1} lam
    - d_{t1}^3 lam)|`` with ``lam = -d_{t1} omega_1``, every derivative
    taken exactly through the shift rule.  The combination is an algebraic
    identity in the table slots, so the returned value measures only the
    floating-point noise of the recurrence: it sits at roundoff level
    (~1e-15) for every window size N rather than decaying with N.  It equals
    ``abs(kp_value(jet))`` of the jet at the same arguments.
    """
    return float(abs(kp_value(omega1_and_partials(ABForm.build(f_coeffs, t, N)))))


@dataclasses.dataclass(frozen=True)
class BakerAkhiezer:
    """A wave function ``Psi = exp(xi) (1 + sum_k omega_k z^-k)``.

    ``laurent`` holds the coefficients of Psi on ``z^-n .. z^N`` (index
    p + n for the power p, as in :class:`GraphOperator`); ``values`` are
    evaluations at the requested sample points.
    """

    n: int
    omegas: tuple
    laurent: np.ndarray
    samples: tuple
    values: tuple


def _wave_system(op: GraphOperator, t, N: int):
    """``(a, body, shifted, T)``: the parts of the n-by-n system of Psi.

    With the Schur values ``a = S(t)``, Psi has ``body @ omega`` on
    ``z^-1..z^-n``, ``body[k, l] = a_{l-k}`` unit upper triangular, and
    ``a + shifted @ omega`` on ``z^0, z^1, ...``, ``shifted[i, l] = a_{i+l}``.
    The graph relation ``negative = T @ nonnegative``, with ``T`` the graph
    matrix cut to its first ``min(N, op.N) + 1`` columns, is then the
    system ``S omega = r`` with ``S = body - T shifted`` and ``r = T a``.
    """
    cols = min(N, op.N) + 1
    graph = np.asarray(op.matrix, dtype=complex)[:, :cols]
    a = np.asarray(schur(t, cols + op.n - 1), dtype=complex)
    return a, _upper_toeplitz(a[: op.n]), a[_shift_table(cols, op.n)], graph


@functools.lru_cache(maxsize=16)
def _shift_table(cols: int, n: int) -> np.ndarray:
    """Read-only ``idx[i, l] = i + l + 1``, so ``a[idx]`` is ``shifted``."""
    idx = np.arange(cols)[:, None] + np.arange(1, n + 1)
    idx.flags.writeable = False
    return idx


def baker_akhiezer(op: GraphOperator, t, z_samples: Sequence = ()) -> BakerAkhiezer:
    """The wave function of a graph operator at a time vector.

    The pole coefficients ``omega_1..omega_n`` are fixed by requiring the
    coefficient vector of Psi to satisfy the graph relation: each negative
    coefficient equals the graph matrix applied to the nonnegative ones.
    That is the n-by-n system ``S omega = r`` of :func:`_wave_system`, whose
    determinant is :func:`tau`; a condition number above 1e12 raises
    :class:`SingularSystem`.
    """
    times = GeneralizedTimes.of(t)
    n, N = op.n, op.N
    a, body, shifted, graph = _wave_system(op, times, N)
    system = body - graph @ shifted
    cond = np.linalg.cond(system)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularSystem(
            f"wave-coefficient system has condition number {cond:.3e} at N={N}"
        )
    omegas = np.linalg.solve(system, graph @ a[: N + 1])
    laurent = np.concatenate([(body @ omegas)[::-1], a[: N + 1] + shifted @ omegas])

    zs = np.atleast_1d(np.asarray(z_samples, dtype=complex)).ravel()
    values = []
    for z in zs:
        tail = sum(omegas[ell - 1] / z**ell for ell in range(1, n + 1))
        values.append(complex(np.exp(times.xi(z)) * (1.0 + tail)))
    return BakerAkhiezer(
        n=n,
        omegas=tuple(complex(w) for w in omegas),
        laurent=laurent,
        samples=tuple(complex(z) for z in zs),
        values=tuple(values),
    )


def tau(op: GraphOperator, t, N: int) -> complex:
    """The tau function ``det S`` of the Baker-Akhiezer system at window N.

    This is the (N+1)x(N+1) determinant ``det(1 + a^{-1} b T)``, with ``a``
    and ``b`` the triangular and cut blocks of multiplication by
    ``exp(-xi)``: since ``exp(xi) exp(-xi) = 1``, ``a^{-1} b`` equals
    ``-shifted @ body^{-1}`` exactly in the truncation, and Sylvester's
    identity gives ``det(1 + a^{-1} b T) = det(1 - T shifted body^{-1})
    = det(S) / det(body) = det(S)`` (see :func:`_wave_system`).  The
    determinant stabilizes once N covers the decay of the Schur values.
    """
    _, body, shifted, graph = _wave_system(op, t, N)
    return complex(np.linalg.det(body - graph @ shifted))


def sato_psi(op: GraphOperator, t, z: complex, N: int, terms: int = 24) -> complex:
    """The wave function reconstructed from two tau evaluations.

    Computes ``exp(xi(t, z)) * tau(t - [z^{-1}]) / tau(t)`` where
    ``[z^{-1}]_k = 1/(k z^k)``; for a graph of any order this must agree with
    :func:`baker_akhiezer` evaluated at z.
    """
    times = GeneralizedTimes.of(t)
    z = complex(z)
    numerator = tau(op, times.sato_shifted(z, terms), N)
    denominator = tau(op, times, N)
    return complex(np.exp(times.xi(z)) * numerator / denominator)
