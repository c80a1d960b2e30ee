"""Finite-rank graph model for the shape phase space.

The generating coefficients of a trajectory assemble into a Laurent vector
G(z) = sum_k G_{k+1} z^k whose positive part is governed by the
unit-triangular Toeplitz block C11 (multiplication by the derivative of the
conjugated map) and whose finitely many negative coefficients are linear in
the positive ones.  Step 1, the raw operator T~_n that removes the
psi-dependence, lives in the tests as a reference.  Step 2 replaces the n raw
negative rows with Kirillov's fields L_0, ..., L_{-(n-1)} of the map, one
closed form for every order n, producing an operator T_n whose graph

    W_{T_n} = span{e_0, e_1, ...}

contains every G built from the same map.  Rows n.. of the basis are C11,
the unit upper-triangular f' band, so e_k has order exactly k and the
projection W -> H_+ is invertible: the graph lies in Segal & Wilson's big
cell, with index set S_W = Z_+ and virtual dimension 0, for every c.  Input
is numbers only, computed on ``complex128``; the exact builders that pin
this path live in ``tests/helpers.py``.  The Toeplitz and Hankel gathers
come from :mod:`shapeflow.arrays`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import InvalidInput, NumericalFailure, WindowTooSmall
from .arrays import _hankel_table, _upper_toeplitz

__all__ = [
    "GraphOperator",
    "InverseCheckFailed",
    "UnsupportedOrder",
    "c_blocks",
    "fprime_reciprocal",
    "step2_graph",
]


class UnsupportedOrder(InvalidInput):
    """Requested a graph order n below 1."""


class InverseCheckFailed(NumericalFailure):
    """C11 times its Toeplitz inverse is not the identity to 1e-12 (or is not finite)."""


def _band(f_coeffs, N):
    """(b, d), the complex128 coefficient bands every block reads.

    b = [1, c_1, ..., c_{N+1}] (zero past the input) holds f/z and
    d_j = (j+1) b_j for j <= N (zero past N) the f' band of C11; both have
    length 2N + 2, so shifted rows read zeros past the window.
    """
    b = np.zeros(2 * N + 2, dtype=complex)
    b[0] = 1
    tail = list(f_coeffs)[: N + 1]
    b[1 : len(tail) + 1] = tail
    d = np.arange(1, 2 * N + 3) * b
    d[N + 1 :] = 0
    return b, d


def _unit_reciprocal(a):
    """Coefficients of 1/a(z) on the window of ``a``, for ``a_0 = 1``.

    ``r_0 = 1`` and ``r_k = -sum_{j=1..k} a_j r_{k-j}`` in plain Python
    ``complex`` arithmetic, so the values are byte-identical to
    :meth:`TruncatedSeries.reciprocal`.
    """
    tail = [complex(x) for x in a[1:]]
    r = [1]
    for _ in tail:
        # r holds r_0..r_{k-1}, so reversed(r) pairs a_j with r_{k-j}
        acc = 0
        for x, y in zip(tail, reversed(r)):
            acc = acc + x * y
        r.append(-acc)
    return np.array(r, dtype=complex)


def fprime_reciprocal(f_coeffs, N: int):
    """Coefficients 0..N of 1/(1 + sum_k (k+1) c_k z^k) as ``complex128``.

    The c_k are numbers: a ``Fraction`` is read as its float, and a sympy
    symbol raises ``TypeError`` from the complex conversion.
    """
    return _unit_reciprocal(_band(f_coeffs, N)[1][: N + 1])


def c_blocks(f_coeffs, n: int, N: int):
    """Truncated blocks (C11, C11inv) for the given map coefficients.

    C11 is the (N+1) x (N+1) upper unit-triangular Toeplitz band with first
    row 1, 2c_1, 3c_2, ...; C11inv is the Toeplitz band of the reciprocal
    of the derivative symbol, which inverts C11 exactly in this truncation.
    Both are ``complex128``, with :func:`fprime_reciprocal`'s input rule.
    Raises WindowTooSmall unless N >= n, the graph order the blocks serve.
    """
    if N < n:
        raise WindowTooSmall(f"window N = {N} must be at least n = {n}")
    fprime = _band(f_coeffs, N)[1][: N + 1]
    return _upper_toeplitz(fprime), _upper_toeplitz(_unit_reciprocal(fprime))


def _graph_rows(f_coeffs, n: int, N: int):
    """Gamma, the n x (N+1) block of negative rows; the rule is step2_graph's."""
    b, d = _band(f_coeffs, N)
    u = _unit_reciprocal(b[: N + 1])
    # Python scalar arithmetic: numpy's complex vector loops fuse
    # multiply-adds, which would move the last bits of the rows
    b, d, u = b.astype(object), d.astype(object), u.astype(object)
    powers = [None, u]  # powers[p] = u^p on powers 0..N
    for _ in range(2, n - 1):
        powers.append(np.convolve(powers[-1], u)[: N + 1])
    gamma = d[_hankel_table(n, N + 1)]  # d_{k+r}
    for r in range(n):
        q = {r - 1: 1}
        for p in range(r - 2, -2, -1):
            lower = range(max(p + 1, 1), r)
            q[p] = d[r - 1 - p] - sum(q[s] * powers[s][s - p] for s in lower)
        # summed negated, then added to d: rows 0 and 1 round as -c_k and
        # -2 c_1 c_k do, bit for bit
        terms = -q[-1] * b[1 : N + 2]
        for p in range(1, r):
            terms[: N - 1 - p] -= q[p] * powers[p][p + 2 :]
        gamma[r] += terms
    return gamma.astype(complex)


@dataclass
class GraphOperator:
    """Finite-rank operator T_n together with the graph basis it defines.

    Column k of ``basis`` is e_k and row p + n holds its coefficient of z^p,
    for powers -n..N; a coefficient window on those powers is an array of
    length n + N + 1 laid out the same way.  Rows n.. are ``c11``, unit
    upper triangular, so the graph is in the big cell: S_W = Z_+.
    """

    n: int
    N: int
    matrix: np.ndarray  # n x (N+1)
    c11: np.ndarray
    basis: np.ndarray  # (n+N+1) x (N+1)

    def to_json(self) -> str:
        # every complex entry as its [re, im] pair of floats
        T, band, basis = (np.stack([a.real, a.imag], axis=-1).tolist()
                          for a in (self.matrix, self.c11[0], self.basis.T))
        basis = [{"lo": -self.n, "coeffs": e} for e in basis]
        payload = {"n": self.n, "N": self.N, "T": T, "c11_band": band, "basis": basis}
        return json.dumps(payload, sort_keys=True, allow_nan=False)


def step2_graph(f_coeffs, n: int, N: int) -> GraphOperator:
    """Corrected graph operator of any order n >= 1: T_n = Gamma C11inv.

    Row r < n of Gamma is Kirillov's field L_{-r} f at the conjugated shape;
    column k - 1 holds its coefficient of z^{k+1}, the psibar_k component:

        L_{-r} f = z^{1-r} f' - sum_{p=-1}^{r-1} Q_p f^{-p},

    with Q_{r-1} = 1 and, with u = z/f and from p = r-2 down to -1, the Q_p
    that cancel z^{-p}: Q_p = d_{r-1-p} - sum_{s=max(p+1,1)}^{r-1} Q_s [u^s]_{s-p}.
    So Gamma[r, k-1] = d_{k+r} - Q_{-1} b_k - sum_{p=1}^{r-1} Q_p [u^p]_{k+1+p}
    (b, d from :func:`_band`).  f' and u are known on powers 0..N only, so
    terms past N are dropped: row r differs from the untruncated field
    exactly at k > N - r.  Every array is ``complex128``: a ``Fraction``
    coefficient is read as its float, and a sympy symbol raises
    ``TypeError`` from the complex conversion.  Raises UnsupportedOrder for
    n < 1 and WindowTooSmall unless N >= n, both before any computation.
    """
    if n < 1:
        raise UnsupportedOrder(f"graphs are constructed for n >= 1, got n = {n}")
    cbar = [v.conjugate() for v in f_coeffs]
    c11, c11inv = c_blocks(cbar, n, N)
    gamma = _graph_rows(cbar, n, N)
    t_n = gamma @ c11inv
    scale = max(1.0, float(np.abs(c11inv).max()))
    resid = np.abs(c11 @ c11inv - np.eye(N + 1)).max() / scale
    if not resid <= 1e-12:
        raise InverseCheckFailed(f"triangular inverse check failed: {resid:g}")
    basis = np.vstack([gamma[::-1], c11])
    return GraphOperator(n=n, N=N, matrix=t_n, c11=c11, basis=basis)
