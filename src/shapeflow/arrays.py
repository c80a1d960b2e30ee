"""Scalar-rounded array primitives on numpy alone: the complex product,
Horner's rule on coefficient rows, and the upper Toeplitz and Hankel gathers
with their cached index tables, so that each command loads only its layer."""

import functools

import numpy as np

__all__ = ["taylor_values"]


def _cmul(a, b):
    """a * b as (ar br - ai bi) + i (ar bi + ai br), rounded like scalar math.

    numpy's SIMD loop for complex arrays may fuse the multiply-adds, which
    moves the last bits; the split form gives the scalar result exactly.
    """
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def taylor_values(coeffs: np.ndarray, z) -> np.ndarray:
    """sum_j coeffs[..., j] z^j by Horner's rule, at a point or array.

    Each leading axis of ``coeffs`` holds one polynomial per row, and every
    row is evaluated at every z, ahead of z's axes.  Rounds exactly like
    ``TruncatedSeries.evaluate``: the steps are ``np.polyval``'s.
    """
    z = np.asanyarray(z)
    coeffs = np.asarray(coeffs)
    # the coefficients of each power, highest first, each against every z
    columns = np.moveaxis(coeffs, -1, 0)[::-1].reshape(coeffs.shape[-1:] + coeffs.shape[:-1] + (1,) * z.ndim)
    y = np.zeros(coeffs.shape[:-1] + z.shape, dtype=z.dtype)
    for column in columns:
        y = y * z + column
    return y


def _upper_toeplitz(band, rows=None):
    """The ``rows`` x ``len(band)`` (square by default) upper-triangular
    Toeplitz matrix whose entry (i, j) is band[j - i].

    One gather from ``band`` with a zero appended; the zero is that of the
    band's dtype, ``0j`` for complex and the int ``0`` for object bands, as
    ``np.triu`` writes.
    """
    padded = np.concatenate([band, np.zeros(1, dtype=band.dtype)])
    return padded[_toeplitz_table(len(band), len(band) if rows is None else rows)]


@functools.lru_cache(maxsize=16)
def _toeplitz_table(size: int, rows: int) -> np.ndarray:
    """Read-only index of ``_upper_toeplitz``: ``j - i`` on and above the
    diagonal, ``size`` (the appended zero) below it."""
    lag = np.arange(size) - np.arange(rows)[:, None]
    lag[lag < 0] = size
    lag.flags.writeable = False
    return lag


@functools.lru_cache(maxsize=16)
def _hankel_table(rows: int, cols: int) -> np.ndarray:
    """Read-only ``idx[i, j] = i + j + 1``: ``x[idx]`` is the Hankel block of x from x_1."""
    idx = np.arange(rows)[:, None] + np.arange(1, cols + 1)
    idx.flags.writeable = False
    return idx
