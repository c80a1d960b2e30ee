"""Readers the tests share for package state that no command reports, and
the exact builders that serve as the oracle of the numeric graph and Schur
paths."""

from fractions import Fraction

import numpy as np

from shapeflow.arrays import _hankel_table, _upper_toeplitz
from shapeflow.grassmannian import GraphOperator


def tuple_terms(poly):
    """The terms of a PhasePoly as ``{tuple monomial: (re, im)}``."""
    decode = poly.window._keys.decode
    return {decode(key): pair for key, pair in poly._terms.items()}


def in_big_cell(op):
    """Whether rows n.. of a graph basis are ``op.c11`` and unit upper triangular.

    Then e_k has order exactly k, so the graph lies in Segal & Wilson's big
    cell: S_W = Z_+ and the virtual dimension is 0.
    """
    pos = op.basis[op.n :]
    return (
        pos.shape == op.c11.shape
        and np.array_equal(pos, op.c11)
        and np.array_equal(pos, np.triu(pos))
        and bool((np.diagonal(pos) == 1).all())
    )


# ---------------------------------------------------------------------------
# Exact builders: the rules of shapeflow.grassmannian and kp.schur on object
# arrays, in Python arithmetic on the raw values, so Fractions and sympy
# symbols stay exact.  On Python complex input each product and sum rounds as
# the package's complex128 path rounds it, so they pin that path bit for bit.


def exact_band(f_coeffs, N):
    """(b, d) of ``grassmannian._band`` as object arrays of the raw values."""
    b = np.zeros(2 * N + 2, dtype=object)
    b[0] = 1
    tail = list(f_coeffs)[: N + 1]
    b[1 : len(tail) + 1] = tail
    d = np.arange(1, 2 * N + 3) * b
    d[N + 1 :] = 0
    return b, d


def exact_unit_reciprocal(a):
    """Coefficients of 1/a(z) on the window of ``a``, for ``a_0 = 1``:
    ``r_k = -sum_{j=1..k} a_j r_{k-j}`` on the raw values."""
    tail = a[1:]
    r = [1]
    for _ in tail:
        acc = 0
        for x, y in zip(tail, reversed(r)):
            acc = acc + x * y
        r.append(-acc)
    return np.array(r, dtype=object)


def exact_fprime_reciprocal(f_coeffs, N):
    """``grassmannian.fprime_reciprocal`` on the raw values."""
    return exact_unit_reciprocal(exact_band(f_coeffs, N)[1][: N + 1])


def exact_c_blocks(f_coeffs, N):
    """``grassmannian.c_blocks`` on the raw values: (C11, C11inv) as object arrays."""
    fprime = exact_band(f_coeffs, N)[1][: N + 1]
    return _upper_toeplitz(fprime), _upper_toeplitz(exact_unit_reciprocal(fprime))


def exact_graph_rows(f_coeffs, n, N):
    """Gamma, the n x (N+1) block of negative rows, by ``step2_graph``'s rule."""
    b, d = exact_band(f_coeffs, N)
    u = exact_unit_reciprocal(b[: N + 1])
    powers = [None, u]  # powers[p] = u^p on powers 0..N
    for _ in range(2, n - 1):
        powers.append(np.convolve(powers[-1], u)[: N + 1])
    gamma = d[_hankel_table(n, N + 1)]  # d_{k+r}
    for r in range(n):
        q = {r - 1: 1}
        for p in range(r - 2, -2, -1):
            lower = range(max(p + 1, 1), r)
            q[p] = d[r - 1 - p] - sum(q[s] * powers[s][s - p] for s in lower)
        terms = -q[-1] * b[1 : N + 2]
        for p in range(1, r):
            terms[: N - 1 - p] -= q[p] * powers[p][p + 2 :]
        gamma[r] += terms
    return gamma


def exact_step2_graph(f_coeffs, n, N):
    """``grassmannian.step2_graph`` on the raw values, every array of dtype object."""
    cbar = [v.conjugate() for v in f_coeffs]
    c11, c11inv = exact_c_blocks(cbar, N)
    gamma = exact_graph_rows(cbar, n, N)
    basis = np.vstack([gamma[::-1], c11])
    return GraphOperator(n=n, N=N, matrix=gamma @ c11inv, c11=c11, basis=basis)


def exact_schur(values, K):
    """Schur values S_0..S_K of the times ``values`` by ``kp.schur``'s
    recurrence, scaled by ``Fraction(1, q)``, as an object array."""
    jt = [j * v for j, v in enumerate(list(values)[:K], start=1)]
    out = [1]
    for q in range(1, K + 1):
        acc = 0
        for w, s in zip(jt, reversed(out)):
            acc = acc + w * s
        out.append(acc * Fraction(1, q))
    return np.array(out, dtype=object)
