"""Finite-rank graph model for the shape phase space.

The generating coefficients of a trajectory assemble into a Laurent vector
G(z) = sum_k G_{k+1} z^k whose positive part is governed by the
unit-triangular Toeplitz block C11 (multiplication by the derivative of the
conjugated map) and whose finitely many negative coefficients are linear in
the positive ones.  Step 1 removes the raw psi-dependence (operator T~_n);
Step 2 replaces the n raw negative rows with Kirillov's fields L_0, ...,
L_{-(n-1)} of the map, one closed form for every order n, producing an
operator T_n whose graph

    W_{T_n} = span{e_0, e_1, ...}

contains every G built from the same map.  Index bookkeeping is done through
finite symmetric-difference descriptions of subsets of the integers.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from . import InvalidInput, NumericalFailure, WindowTooSmall

__all__ = [
    "GraphOperator",
    "IndexSet",
    "InverseCheckFailed",
    "UnsupportedOrder",
    "c_blocks",
    "fprime_reciprocal",
    "graph_membership",
    "step1_ttilde",
    "step2_graph",
    "virtual_dimension",
]


class UnsupportedOrder(InvalidInput):
    """Requested a graph order n below 1."""


class InverseCheckFailed(NumericalFailure):
    """C11 times its Toeplitz inverse is not the identity to 1e-12 (or is not finite)."""


@dataclass(frozen=True)
class IndexSet:
    """A subset S of the integers with finite symmetric difference from Z+.

    `added` holds S \\ Z+ (negative members), `removed` holds Z+ \\ S.
    """

    added: frozenset
    removed: frozenset

    def __post_init__(self):
        if any(k >= 0 for k in self.added):
            raise ValueError("added indices must be negative")
        if any(k < 0 for k in self.removed):
            raise ValueError("removed indices must be nonnegative")


def virtual_dimension(s: IndexSet) -> int:
    """Fredholm index of the projection H_S -> H_+: kernel minus cokernel."""
    return len(s.added) - len(s.removed)


def _conjugate_all(f_coeffs):
    return [v.conjugate() if hasattr(v, "conjugate") else np.conj(v) for v in f_coeffs]


def _band(f_coeffs, N):
    """(b, d, exact), the coefficient bands every block reads.

    b = [1, c_1, ..., c_{N+1}] (zero past the input) holds f/z and
    d_j = (j+1) b_j for j <= N (zero past N) the f' band of C11; both have
    length 2N + 2, so shifted rows read zeros past the window.  Exact input
    gives object arrays of the exact values, numeric input complex128.
    """
    exact = any(not isinstance(v, (int, float, complex, np.number)) for v in f_coeffs)
    b = np.zeros(2 * N + 2, dtype=object if exact else complex)
    b[0] = 1
    tail = list(f_coeffs)[: N + 1]
    b[1 : len(tail) + 1] = tail
    d = np.arange(1, 2 * N + 3) * b
    d[N + 1 :] = 0
    return b, d, exact


def _unit_reciprocal(a, obj):
    """Coefficients of 1/a(z) on the window of ``a``, for ``a_0 = 1``.

    ``r_0 = 1`` and ``r_k = -sum_{j=1..k} a_j r_{k-j}`` in plain Python
    arithmetic: on ``complex`` for numeric input, whose values are then
    byte-identical to :meth:`TruncatedSeries.reciprocal`, and on the raw
    values for exact input, which stays exact.
    """
    if not obj:
        a = [complex(x) for x in a]
    tail = a[1:]
    r = [1]
    for _ in tail:
        # r holds r_0..r_{k-1}, so reversed(r) pairs a_j with r_{k-j}
        acc = 0
        for x, y in zip(tail, reversed(r)):
            acc = acc + x * y
        r.append(-acc)
    return np.array(r, dtype=object if obj else complex)


def fprime_reciprocal(f_coeffs, N: int):
    """Coefficients 0..N of 1/(1 + sum_k (k+1) c_k z^k); exact inputs stay exact.

    A ``complex128`` array for numeric coefficients, an object array of the
    exact values otherwise (see :func:`_unit_reciprocal`).
    """
    _, d, exact = _band(f_coeffs, N)
    return _unit_reciprocal(d[: N + 1], exact)


def _upper_toeplitz(band):
    """The square upper-triangular Toeplitz matrix whose entry (i, j) is band[j - i].

    One gather from ``band`` with a zero appended; the zero is that of the
    band's dtype, ``0j`` for complex and the int ``0`` for object bands, as
    ``np.triu`` writes.
    """
    padded = np.concatenate([band, np.zeros(1, dtype=band.dtype)])
    return padded[_toeplitz_table(len(band))]


@functools.lru_cache(maxsize=16)
def _toeplitz_table(size: int) -> np.ndarray:
    """Read-only index of ``_upper_toeplitz``: ``j - i`` on and above the
    diagonal, ``size`` (the appended zero) below it."""
    lag = np.arange(size) - np.arange(size)[:, None]
    lag[lag < 0] = size
    lag.flags.writeable = False
    return lag


def c_blocks(f_coeffs, n: int, N: int):
    """Truncated blocks (C11, C12_cut, C11inv) for the given map coefficients.

    C11 is the (N+1) x (N+1) upper unit-triangular Toeplitz band with first
    row 1, 2c_1, 3c_2, ...; C12_cut holds the n raw negative rows (column q
    pairs with psibar_{q+1}); C11inv is the Toeplitz band of the reciprocal
    of the derivative symbol, which inverts C11 exactly in this truncation.
    Numeric and exact coefficients share this code; exact entries stay exact.
    Raises WindowTooSmall unless N >= n.
    """
    if N < n:
        raise WindowTooSmall(f"window N = {N} must be at least n = {n}")
    _, d, exact = _band(f_coeffs, N)
    # row j, column q carries (q+1+j) c_{q+j} = d[q+j], zero past the window
    c12 = d[np.arange(1, n + 1)[:, None] + np.arange(N + 1)]
    fprime = d[: N + 1]
    return _upper_toeplitz(fprime), c12, _upper_toeplitz(_unit_reciprocal(fprime, exact))


def _graph_rows(f_coeffs, n: int, N: int):
    """Gamma, the n x (N+1) block of negative rows; the rule is step2_graph's."""
    b, d, exact = _band(f_coeffs, N)
    # Python scalar arithmetic on numbers too: numpy's complex vector loops
    # fuse multiply-adds, which would move the last bits of the rows
    b, d = b.astype(object), d.astype(object)
    u = _unit_reciprocal(b[: N + 1], obj=True)
    powers = [None, u]  # powers[p] = u^p on powers 0..N
    for _ in range(2, n - 1):
        powers.append(np.convolve(powers[-1], u)[: N + 1])
    gamma = d[np.arange(1, n + 1)[:, None] + np.arange(N + 1)]  # d_{k+r}
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
    return gamma if exact else gamma.astype(complex)


def step1_ttilde(f_coeffs, n: int, N: int):
    """Raw finite-rank operator: negative rows of the conjugated map times C11inv."""
    cbar = _conjugate_all(f_coeffs)
    _, c12, c11inv = c_blocks(cbar, n, N)
    return c12 @ c11inv


@dataclass
class GraphOperator:
    """Finite-rank operator T_n together with the graph basis it defines.

    Column k of ``basis`` is e_k and row p + n holds its coefficient of z^p,
    for powers -n..N; a coefficient window on those powers is an array of
    length n + N + 1 laid out the same way.
    """

    n: int
    N: int
    matrix: np.ndarray  # n x (N+1)
    c11: np.ndarray
    c11_inv: np.ndarray
    basis: np.ndarray  # (n+N+1) x (N+1)

    def _check_psi(self, psi):
        psi = np.asarray(psi)
        if psi.shape != (self.N + 1,):
            raise ValueError(f"psi must have length {self.N + 1}")
        return psi

    def element_from_psi(self, psi) -> np.ndarray:
        """The graph element with positive part C11 psi and negative part T (C11 psi)."""
        pos = self.c11 @ self._check_psi(psi)
        return np.concatenate([(self.matrix @ pos)[::-1], pos])

    def combination(self, psi) -> np.ndarray:
        """sum_k psi[k] e_k over the basis."""
        return self.basis @ self._check_psi(psi)

    def index_set(self) -> IndexSet:
        """The orders of the basis under column reduction, relative to Z+.

        This is Segal & Wilson's S_W.  A column's order is its highest power
        with a nonzero coefficient; while that order is already a pivot, the
        multiple of the pivot column that cancels it is subtracted and the
        search goes on below it, so each independent column contributes a
        new order.  In a graph basis the
        positive part of e_k is unit upper triangular, so e_k has order k
        exactly.  Powers in 0..N that never appear are `removed`; negative
        orders are `added`.
        """

        def order(v, below):
            nonzero = np.flatnonzero(v[:below])
            return int(nonzero[-1]) if nonzero.size else -1

        pivots = {}
        for v in np.array(self.basis, dtype=complex).T:
            r = order(v, len(v))
            while r in pivots:
                v = v - v[r] * pivots[r]
                r = order(v, r)
            if r >= 0:
                pivots[r] = v / v[r]
        powers = {r - self.n for r in pivots}
        added = frozenset(p for p in powers if p < 0)
        removed = frozenset(set(range(self.N + 1)) - powers)
        return IndexSet(added, removed)

    def virtual_dimension(self) -> int:
        return virtual_dimension(self.index_set())

    def to_json(self) -> str:
        def ri(x):
            x = complex(x)
            return [x.real, x.imag]

        payload = {
            "n": self.n,
            "N": self.N,
            "T": [[ri(x) for x in row] for row in self.matrix],
            "c11_band": [ri(self.c11[0, m]) for m in range(self.N + 1)],
            "basis": [
                {"lo": -self.n, "coeffs": [ri(x) for x in e]} for e in self.basis.T
            ],
        }
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
    exactly at k > N - r.  Exact input stays exact.  Raises UnsupportedOrder
    for n < 1 and WindowTooSmall unless N >= n, both before any computation.
    """
    if n < 1:
        raise UnsupportedOrder(f"graphs are constructed for n >= 1, got n = {n}")
    cbar = _conjugate_all(f_coeffs)
    c11, _, c11inv = c_blocks(cbar, n, N)
    gamma = _graph_rows(cbar, n, N)
    t_n = gamma @ c11inv
    if c11.dtype != object:
        scale = max(1.0, float(np.abs(c11inv).max()))
        resid = np.abs(c11 @ c11inv - np.eye(N + 1)).max() / scale
        if not resid <= 1e-12:
            raise InverseCheckFailed(f"triangular inverse check failed: {resid:g}")
    basis = np.vstack([gamma[::-1], c11])
    return GraphOperator(n=n, N=N, matrix=t_n, c11=c11, c11_inv=c11inv, basis=basis)


def graph_membership(g, op: GraphOperator, psi) -> float:
    """Sup-norm residual of G against the basis combination sum psi[k] e_k.

    ``g`` holds the coefficients of G on powers -n..N, as rows of the basis.
    """
    g = np.asarray(g)
    if g.shape != (op.n + op.N + 1,):
        raise ValueError(
            f"G must hold the {op.n + op.N + 1} coefficients of powers "
            f"{-op.n}..{op.N}, got shape {g.shape}"
        )
    return float(np.abs(g.astype(complex) - op.combination(psi).astype(complex)).max())
