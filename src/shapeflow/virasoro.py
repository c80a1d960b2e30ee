"""Kirillov vector fields on coefficient space and the boundary variation.

The space of normalized univalent maps f(z) = z(1 + sum c_n z^n) carries a
family of first-order vector fields L_k, realized here in the affine
coordinates c_n.  Positive and zero indices have polynomial closed forms;
L_{-1} and L_{-2} have displayed closed forms; lower indices are produced
recursively from commutators, using the convention

    commutator(L_k, L_n) = (n - k) L_{k+n}.

`schaeffer_spencer` computes the same tangent vectors analytically, as a
contour integral over the boundary driven by the vector field -i z^k, and is
the numerical cross-check for the closed forms; it evaluates f with
:func:`shapeflow.arrays.taylor_values`, so no check loads the flow layer.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from .arrays import taylor_values
from .observables import (
    BracketWindow,
    PhasePoly,
    VectorFieldOnF0,
    WindowMismatch,
    WindowTooSmall,
    _apply_into,
    _c_term,
    _collect,
    reciprocal_coefficients,
)

__all__ = [
    "QuadratureDegenerate",
    "VectorFieldOnF0",
    "commutator",
    "kirillov_L",
    "schaeffer_spencer",
]


class QuadratureDegenerate(RuntimeError):
    """The contour quadrature hit a (near-)singular configuration."""


# the cap of each k's boundary rule in schaeffer_spencer, whose result a k
# that reaches it gets; f(w), f'(w) and the boundary tests run once on these
# points, and a Q-point rule takes every (_Q/Q)-th of them, the same bits as
# a Q-point grid, in O(_ROWS * Q) memory
_Q = 2048
# the first rule's points: the check maps and maps of degree 2 and 3 stop here
_Q_START = 128
# a rule is accepted once its row means and its half rule's (every other
# point) agree to this, relative to the larger of the largest row mean and
# weight, the integrand's size (the result is 0 for the identity at k <= 0);
# the trapezoid error falls geometrically, e_Q ~ e_{Q/2}^2, so a gap of
# 1e-10 leaves the accepted rule at roundoff
_HALF_RULE_TOL = 1e-10
# interior evaluation points per block of the quadrature matrix: at Q = 2048
# the calling thread's two complex block buffers take 0.5 MiB, where one whole
# n_z-by-Q temporary takes 4 MiB or more
_ROWS = 8
# fewest interior points of the quadrature: the images of k <= -2 are not
# polynomials, and their aliasing on |z| = r = 1/2 is r^n_z times the growth
# of L's coefficients, r^64 = 2^-64 (5e-20) here, below double roundoff; a
# multiple of _ROWS, so the blocks tile the rows
_MIN_INTERIOR = 64


def kirillov_L(k: int, window: BracketWindow) -> VectorFieldOnF0:
    """The field L_k as a polynomial vector field on the window's c-space.

    Components with indices beyond the window are dropped, and component
    polynomials lose the terms whose c-index does not fit; for k <= -1 the
    component polynomials clip termwise, so only components n <= n_c + k of
    the result agree with the untruncated field.  Hence a bracket of such
    fields restricted to components and c indices up to w, with -m the most
    negative degree involved, is decided on the window n_c = w + m.
    """
    w = window
    n_max = w.n_c
    if k >= 0:
        if n_max < k:
            raise WindowTooSmall(f"window holds no component of L_{k}")
        # component n is (n - k + 1) c_{n-k} with c_0 = 1, and n c_n for L_0
        comps = {
            n: _c_term(w, n - k, n - k + 1 if k else n) for n in range(max(k, 1), n_max + 1)
        }
        return VectorFieldOnF0._trusted(w, comps)
    if k == -1:
        if n_max < 2:
            raise WindowTooSmall("L_-1 needs c indices up to 2")
        comps = {}
        for n in range(1, n_max + 1):
            poly = PhasePoly.c(1, w) * PhasePoly.c(n, w) * PhasePoly.constant(-2, w)
            if n + 1 <= n_max:
                poly = poly + PhasePoly.c(n + 1, w).scale(n + 2)
            comps[n] = poly
        return VectorFieldOnF0._trusted(w, comps)
    if k == -2:
        if n_max < 3:
            raise WindowTooSmall("L_-2 needs c indices up to 3")
        c1, c2 = PhasePoly.c(1, w), PhasePoly.c(2, w)
        quad = c1 * c1 - c2.scale(4)
        a = reciprocal_coefficients(n_max, w)
        comps = {}
        for n in range(1, n_max + 1):
            poly = quad * PhasePoly.c(n, w)
            if n + 2 <= n_max:
                poly = poly + _c_term(w, n + 2, n + 3) - a[n + 2]
            comps[n] = poly
        return VectorFieldOnF0._trusted(w, comps)
    # k <= -3: L_k = commutator(L_{-1}, L_{k+1}) / (k + 2)
    if n_max < -k + 1:
        raise WindowTooSmall(f"L_{k} needs c indices up to {-k + 1}")
    field = kirillov_L(-2, w)
    lower = kirillov_L(-1, w)
    for j in range(-3, k - 1, -1):
        field = commutator(lower, field).scale(Fraction(1, j + 2))
    return field


def commutator(x: VectorFieldOnF0, y: VectorFieldOnF0) -> VectorFieldOnF0:
    """Bracket of two fields, normalized so kirillov_L indices add:

    commutator(L_k, L_n) = (n - k) L_{k+n}.

    Component n is ``sum_m (y_m dx_n/dc_m - x_m dy_n/dc_m)``, built as one exact
    accumulation: both products go into one dict of ``(re, im)`` parts, read
    straight from the stored terms of each component, and ``_collect`` turns
    it into the component.
    """
    if x.window != y.window:
        raise WindowMismatch("fields declared over different windows")
    w = x.window
    xs, ys = x._raw_components(), y._raw_components()
    zero = PhasePoly.zero(w)
    comps = {}
    for n in set(x.components) | set(y.components):
        acc = {}
        _apply_into(acc, ys, x.components.get(n, zero))
        _apply_into(acc, xs, y.components.get(n, zero), -1)
        comps[n] = _collect(w, acc)
    return VectorFieldOnF0._trusted(w, comps)


def _has_close_pair(values: np.ndarray, tol: float) -> bool:
    """True when two of the values lie closer than tol.

    Sort-and-sweep: after sorting by real part, neighbours d apart are
    compared for d = 1, 2, ... while some pair is within tol in real part.
    A pair with |a - b| < tol has |Re(a - b)| < tol, so no pair is missed,
    and the real-part gap of d-th neighbours only grows with d.  A difference
    that overflows is infinite, so its pair is far apart, with no warning.
    """
    v = values[np.argsort(values.real, kind="stable")]
    with np.errstate(over="ignore"):
        for d in range(1, len(v)):
            near = v.real[d:] - v.real[:-d] < tol
            if not near.any():
                return False
            if (np.abs(v[d:][near] - v[:-d][near]) < tol).any():
                return True
    return False


def _field_degrees(k) -> list:
    """The k of ``schaeffer_spencer``, a non-empty sequence of ints, as a list."""
    try:
        ks = list(k)
    except TypeError:
        ks = None
    if not ks or any(
        isinstance(j, bool) or not isinstance(j, (int, np.integer)) for j in ks
    ):
        raise ValueError(f"k must be a non-empty sequence of ints, got {k!r}")
    return [int(j) for j in ks]


def _row_sums(fw, fz, weights, sums, halves=None) -> None:
    """Row sums of weight / (f(w) - f(z)) into ``sums``.

    Row j of ``sums`` belongs to ``weights[j]``.  The rows go ``_ROWS`` at
    a time through two (_ROWS, Q) buffers, and each block is tested before
    any division, as ``schaeffer_spencer`` documents.  When ``halves`` is
    given, its row j takes the sums over every other point of the same
    quotients, at the cost of one more row reduction and no division.
    """
    Q = len(fw)
    denom = np.empty((_ROWS, Q), dtype=complex)
    quot = np.empty((_ROWS, Q), dtype=complex)
    # |f(w) - f(z)| takes the first half of each quotient row until the
    # division overwrites it
    size = quot.view(float)[:, :Q]
    # len(fz) is a multiple of _ROWS, so the blocks tile the rows
    for start in range(0, len(fz), _ROWS):
        rows = slice(start, start + _ROWS)
        np.subtract(fw[None, :], fz[rows, None], out=denom)
        np.abs(denom, out=size)
        if not (size.min() >= 1e-8):
            raise QuadratureDegenerate("f(w) - f(z) vanishes on the grid")
        for j, weight in enumerate(weights):
            np.divide(weight[None, :], denom, out=quot)
            np.add.reduce(quot, axis=1, out=sums[j, rows])
            if halves is not None:
                np.add.reduce(quot[:, ::2], axis=1, out=halves[j, rows])


def _boundary_means(fw, fz, weights) -> dict:
    """``{key: row means}`` of each weight / (f(w) - f(z)) at its own boundary rule.

    ``fw`` and the weights lie on the ``_Q``-point grid, and a Q-point rule
    takes every (_Q // Q)-th point of it.  The rules go as
    ``schaeffer_spencer`` documents: a doubled rule divides only at its new
    points, midway between the old, and adds their sums to the old sums;
    the cap divides every point again and sums them in one reduction.
    """
    means = {}
    keys = list(weights)
    Q = _Q_START
    step = _Q // Q
    sums = np.empty((len(keys), len(fz)), dtype=complex)
    halves = np.empty_like(sums)
    _row_sums(fw[::step], fz, [weights[key][::step] for key in keys], sums, halves)
    while True:
        level, half = sums / Q, halves / (Q // 2)
        pending = []
        for j, key in enumerate(keys):
            scale = max(np.abs(level[j]).max(), np.abs(weights[key][::step]).max())
            if np.abs(level[j] - half[j]).max() <= _HALF_RULE_TOL * scale:
                means[key] = level[j]
            else:
                pending.append(j)
        if not pending:
            return means
        keys = [keys[j] for j in pending]
        halves = sums[pending]
        sums = np.empty_like(halves)
        Q, step = 2 * Q, step // 2
        if Q == _Q:
            _row_sums(fw, fz, [weights[key] for key in keys], sums)
            # row sums divided by Q are what ndarray.mean computes
            means.update(zip(keys, sums / Q))
            return means
        new = slice(step, None, 2 * step)
        _row_sums(fw[new], fz, [weights[key][new] for key in keys], sums)
        sums += halves


def schaeffer_spencer(f, k: Sequence[int]) -> list[np.ndarray]:
    """Variation of f by the boundary field -i z^k, as Taylor coefficients.

    ``f`` holds the Taylor coefficients f_0..f_N of the map, at least two and
    all finite; the result holds those of the variation, of degree
    N + max(k, 0).  ``k`` is a non-empty sequence of ints; the result is a
    list of arrays in the order of ``k``.

    Computes the contour integral

        L(z) = f(z)^2 * (1/2pi) \\oint (w f'(w)/f(w))^2 w^k / (f(w) - f(z)) dtheta

    by the trapezoid rule on Q uniform boundary points, chosen for each k,
    evaluates it at n_z uniform points of the interior circle |z| = r = 1/2,
    and recovers Taylor coefficients by a discrete Fourier transform.  n_z
    is 64 (``_MIN_INTERIOR``), doubled until it is at least 2(d + 1) for the
    output degree d.  For k >= -1 the image is a polynomial of degree d, so
    the transform aliases nothing; for k <= -2 it is not, and coefficient j
    picks up the coefficients j + n_z, j + 2 n_z, ..., damped by
    r^{n_z} <= 2^-64 (5e-20) times their growth over L_j, below double
    roundoff, which is why 64 points suffice.  The coefficients are
    reliable where |L_j| 2^{-j} is above roundoff; for |z| <= 1/2 the
    re-evaluated series is spectrally accurate.

    The boundary rule starts at Q = 128 (``_Q_START``) points.  It is
    accepted once its row means agree with those of its half rule, every
    other point, to 1e-10 (``_HALF_RULE_TOL``) of the larger of the largest
    row mean and the largest weight; the error falls geometrically, e_Q ~
    e_{Q/2}^2 (the trapezoid rule on an analytic periodic integrand), so
    the accepted rule is at roundoff.  Otherwise Q doubles, up to a cap of
    2048 (``_Q``) points, whose rule is taken as it is.  The half rule of a
    doubled rule is the rule before, so a doubling divides only at its new
    points, and at the cap the rule sums every point at once, as a fixed
    2048-point rule does, to the bit.  Each k is decided on its own.

    The grid, f(w), f'(w) and the boundary test are computed once for all k,
    on 2048 points, and every rule takes a strided subset of them, the same
    values as a grid of Q points.  The k that need the same number n_z of
    interior points share one pass.  A pass takes its n_z points ``_ROWS``
    at a time: each block of f(w) - f(z) is formed and tested once, then
    divided into each k's weights and summed in two (_ROWS, Q) buffers, so
    memory is O(_ROWS * Q) at the rule reached rather than O(n_z * Q)
    whatever the number of k, 0.5 MiB at the cap.  Every element, row sum
    and transform is computed as on the whole n_z-by-Q matrices for one k,
    so each result is the same to the bit as a one-k call.

    Raises ValueError when k is not a sequence (a bare int included), is
    empty or holds a bool or a non-integral entry, or when f has fewer than
    two coefficients or a non-finite one.  Raises QuadratureDegenerate, with
    no numpy warning, when the coefficients of f' or the values f(w), f'(w)
    and f(z) overflow, when f(w) = 0 on the grid, when two boundary images
    f(w) lie closer than 1e-8 (a sort-and-sweep test, ``_has_close_pair``,
    O(Q log Q) unless many images share a real part), when f(w) - f(z)
    nearly vanishes, or is not a number, at a point a rule divides at (a
    point past the rule reached is not tested), or when the quadrature
    itself overflows, which an output degree above 1074 always does.
    """
    ks = _field_degrees(k)
    f = np.asarray(f, dtype=complex)
    if f.ndim != 1 or len(f) < 2:
        raise ValueError("f must be a 1-D array of at least two Taylor coefficients")
    if not np.isfinite(f).all():
        raise ValueError("f has a non-finite Taylor coefficient")
    r = 0.5
    orders = [len(f) - 1 + max(j, 0) for j in ks]
    # the rescale below divides by r^j, which is 0 past the subnormals
    if r ** max(orders) == 0:
        raise QuadratureDegenerate("the quadrature overflows")
    passes = {}  # n_z -> positions in ks, in order of first use
    for i, order_out in enumerate(orders):
        n_z = _MIN_INTERIOR
        while n_z < 2 * (order_out + 1):
            n_z *= 2
        passes.setdefault(n_z, []).append(i)
    theta = 2 * np.pi * np.arange(_Q) / _Q
    w = np.exp(1j * theta)
    # a huge map overflows here; the test below ends that in one error
    with np.errstate(over="ignore", invalid="ignore"):
        fprime = np.arange(1, len(f)) * f[1:]
        fw = taylor_values(f, w)
        fpw = taylor_values(fprime, w)
        fzs = {
            n_z: taylor_values(f, r * np.exp(2j * np.pi * np.arange(n_z) / n_z))
            for n_z in passes
        }
    if not all(np.isfinite(v).all() for v in (fprime, fw, fpw, *fzs.values())):
        raise QuadratureDegenerate("f' or the values of f or f' overflow")
    if not fw.all():
        raise QuadratureDegenerate("f vanishes on the boundary")
    if _has_close_pair(fw, 1e-8):
        raise QuadratureDegenerate("boundary images are not pairwise distinct")

    out = [None] * len(ks)
    # finite values can still overflow below; the test after ends that in one error
    with np.errstate(over="ignore", invalid="ignore"):
        squared = (w * fpw / fw) ** 2
        for n_z, members in passes.items():
            fz = fzs[n_z]
            means = _boundary_means(fw, fz, {i: squared * w ** ks[i] for i in members})
            fz2 = fz**2
            for i in members:
                lam = np.fft.fft(fz2 * means[i]) / n_z
                out[i] = lam[: orders[i] + 1] / r ** np.arange(orders[i] + 1)
    if not all(np.isfinite(taylor).all() for taylor in out):
        raise QuadratureDegenerate("the quadrature overflows")
    return out
