"""Readers the tests share for package state that no command reports."""

import numpy as np


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
