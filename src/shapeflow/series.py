"""Truncated Taylor series arithmetic on a fixed coefficient window.

This is the reference layer: the tests and the benchmark compare the
array kernels of the package against it, and no runtime module imports it.

Every object stores the coefficients of ``z**k`` for ``k`` in a finite window
and nothing else.  All arithmetic follows one truncation contract:

* a binary operation truncates to the *intersection* of the two input
  windows before combining coefficients;
* coefficients outside a window are read as zero;
* results never grow a window.

Coefficients are ordinarily ``complex`` (stored in a ``complex128`` numpy
array).  Any coefficient ring with Python arithmetic (``fractions.Fraction``,
sympy expressions, the exact phase-space polynomials from
:mod:`shapeflow.observables`) also works; such series fall back to object
arrays and pure-Python loops, which keeps symbolic identity checks exact.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TruncatedSeries",
    "exp_series",
    "ZeroConstantTerm",
    "NonzeroConstantTerm",
]


class ZeroConstantTerm(ValueError):
    """reciprocal() of a series whose z^0 coefficient vanishes."""


class NonzeroConstantTerm(ValueError):
    """exp_series() of a series whose z^0 coefficient is not zero."""


def _pack(values):
    """Return (ndarray, numeric_flag) for a coefficient sequence."""
    vals = list(values)
    if not vals:
        raise ValueError("series needs at least one coefficient")
    if all(isinstance(v, (int, float, complex, np.number)) for v in vals):
        arr = np.asarray(vals, dtype=complex)
        arr.flags.writeable = False
        return arr, True
    arr = np.empty(len(vals), dtype=object)
    for i, v in enumerate(vals):
        arr[i] = v
    arr.flags.writeable = False
    return arr, False


def _conv(a, b, keep, numeric):
    """First `keep` coefficients of the Cauchy product of a and b."""
    if numeric:
        return np.convolve(a, b)[:keep]
    out = [0] * keep
    for i, ai in enumerate(a):
        if i >= keep:
            break
        for j, bj in enumerate(b):
            if i + j >= keep:
                break
            out[i + j] = out[i + j] + ai * bj
    return out


class TruncatedSeries:
    """Taylor polynomial sum_{k=0}^{N} a_k z^k truncated at order N."""

    __slots__ = ("coeffs", "_numeric")

    def __init__(self, coefficients):
        self.coeffs, self._numeric = _pack(coefficients)

    @classmethod
    def zero(cls, order):
        return cls([0.0] * (order + 1))

    @classmethod
    def constant(cls, value, order):
        return cls([value] + [0.0] * order)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def coeff(self, k):
        """Coefficient of z^k; zero outside the window."""
        if 0 <= k <= self.order:
            return self.coeffs[k]
        return 0j if self._numeric else 0

    # -- ring operations ---------------------------------------------------

    def _common(self, other):
        n = min(self.order, other.order)
        return self.coeffs[: n + 1], other.coeffs[: n + 1], n

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b, _ = self._common(other)
        return TruncatedSeries([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b, _ = self._common(other)
        return TruncatedSeries([x - y for x, y in zip(a, b)])

    def __neg__(self):
        return TruncatedSeries([-x for x in self.coeffs])

    def scale(self, s):
        return TruncatedSeries([x * s for x in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            a, b, n = self._common(other)
            numeric = self._numeric and other._numeric
            return TruncatedSeries(_conv(a, b, n + 1, numeric))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def reciprocal(self):
        """Series r with (self * r) == 1 on this window.

        Raises ZeroConstantTerm when a_0 == 0.
        """
        a = self.coeffs
        a0 = a[0]
        if (self._numeric and a0 == 0) or (not self._numeric and _is_zero(a0)):
            raise ZeroConstantTerm("reciprocal needs a nonzero z^0 coefficient")
        unit = a0 == 1
        r = [1 if unit else 1 / a0]
        for k in range(1, len(a)):
            acc = 0
            for j in range(1, k + 1):
                acc = acc + a[j] * r[k - j]
            r.append(-acc if unit else -acc / a0)
        return TruncatedSeries(r)

    def differentiate(self):
        """d/dz, window shrinks by one (constant series maps to zero series)."""
        if self.order == 0:
            return TruncatedSeries([0 * self.coeffs[0]])
        return TruncatedSeries(
            [k * self.coeffs[k] for k in range(1, self.order + 1)]
        )

    def evaluate(self, z):
        """Horner evaluation at a point (or numpy array of points)."""
        if self._numeric:
            zz = np.asarray(z, dtype=complex)
            acc = np.zeros_like(zz)
            for ck in self.coeffs[::-1]:
                acc = acc * zz + ck
            return complex(acc) if acc.ndim == 0 else acc
        acc = 0
        for ck in self.coeffs[::-1]:
            acc = acc * z + ck
        return acc

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            x == y for x, y in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, coeffs={list(self.coeffs)!r})"


def _is_zero(x):
    try:
        return x == 0
    except TypeError:  # pragma: no cover - exotic coefficient rings
        return False


def exp_series(a: TruncatedSeries) -> TruncatedSeries:
    """exp(a) for a Taylor window with a_0 == 0.

    Uses the differential recurrence E' = a' E, so (exp a)' = a' exp(a) holds
    exactly on the window.  Raises NonzeroConstantTerm otherwise.
    """
    if not _is_zero(a.coeff(0)):
        raise NonzeroConstantTerm("exp_series needs a zero constant term")
    from fractions import Fraction

    n = a.order
    e = [1]
    for k in range(1, n + 1):
        acc = 0
        for j in range(1, k + 1):
            acc = acc + j * a.coeff(j) * e[k - j]
        e.append(acc / k if a._numeric else acc * Fraction(1, k))
    return TruncatedSeries(e)
