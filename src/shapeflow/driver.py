"""Driving functions p(z,t) from discrete Herglotz measures.

A driver is piecewise constant in time; each piece carries finitely many
atoms (theta_j, mu_j) on the unit circle with mu_j >= 0 summing to 1, giving

    p(z) = sum_j mu_j (e^{i theta_j} + z) / (e^{i theta_j} - z)
         = 1 + sum_{k>=1} 2 (sum_j mu_j e^{-i k theta_j}) z^k.

A piece with no atoms stands for the normalized uniform measure, whose
Herglotz transform is identically 1 (the trivial driver).
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from . import InvalidInput, check_keys, read_number

__all__ = ["Atom", "DriverPiece", "HerglotzDriver", "InvalidMeasure"]

_WEIGHT_TOL = 1e-12


class InvalidMeasure(InvalidInput):
    """Atom weights violate the probability-measure invariants."""


@dataclass(frozen=True)
class Atom:
    theta: float
    mu: float


@dataclass(frozen=True)
class DriverPiece:
    t_start: float
    atoms: tuple = ()

    def check(self):
        """List of invariant violations (empty when valid)."""
        problems = []
        # written so that a NaN weight fails both tests
        if not all(a.mu >= 0 for a in self.atoms):
            problems.append("negative weight")
        if self.atoms and not abs(sum(a.mu for a in self.atoms) - 1.0) <= _WEIGHT_TOL:
            problems.append("weights do not sum to 1")
        return problems


@dataclass(frozen=True)
class HerglotzDriver:
    pieces: tuple

    @classmethod
    def single_atom(cls, theta=0.0):
        return cls(pieces=(DriverPiece(0.0, (Atom(theta, 1.0),)),))

    @classmethod
    def from_dict(cls, data):
        """The driver ``{"pieces": [{"t_start": t, "atoms": [{"theta": th, "mu": mu}]}]}``.

        Each number must be a finite real (see :func:`shapeflow.read_number`),
        else an InvalidInput; a missing key is a KeyError and a container of
        the wrong kind a TypeError; an unknown key is an InvalidInput.
        """
        check_keys(data, "driver", ("pieces",))
        pieces = []
        for p in data["pieces"]:
            check_keys(p, "driver piece", ("t_start", "atoms"))
            t_start = read_number(p["t_start"], "driver t_start")
            atoms = []
            for a in p.get("atoms", ()):
                check_keys(a, "driver atom", ("theta", "mu"))
                atoms.append(Atom(read_number(a["theta"], "driver theta"), read_number(a["mu"], "driver mu")))
            pieces.append(DriverPiece(t_start, tuple(atoms)))
        return cls(pieces=tuple(pieces))

    @functools.cached_property
    def starts(self) -> tuple:
        """The pieces' start times, read once; InvalidMeasure unless they strictly increase."""
        starts = tuple(p.t_start for p in self.pieces)
        if not all(b > a for a, b in zip(starts, starts[1:])):  # NaN fails too
            raise InvalidMeasure("t_start values must be strictly increasing")
        return starts

    def piece_index(self, t, slack=0.0):
        """The piece in force at t, the last to start by t + slack, found by
        bisection; else InvalidMeasure, as for pieces out of order."""
        starts = self.starts
        if not (starts and t + slack >= starts[0]):  # NaN fails too
            raise InvalidMeasure(f"no driver piece covers t={t}")
        return bisect.bisect_right(starts, t + slack) - 1

    def moments(self, t, N):
        """Coefficients p_1..p_N of p(z,t): p_k = 2 sum_j mu_j e^{-ik theta_j}.

        InvalidMeasure when the piece fails its check, or when k * theta is
        not a finite float for some atom and some k <= N.
        """
        index = self.piece_index(t)
        piece = self.pieces[index]
        problems = piece.check()
        if problems:
            raise InvalidMeasure("; ".join(problems))
        if not piece.atoms:
            return np.zeros(N, dtype=complex)
        thetas = np.array([a.theta for a in piece.atoms])
        mus = np.array([a.mu for a in piece.atoms])
        k = np.arange(1, N + 1)
        with np.errstate(over="ignore"):
            angles = np.outer(k, thetas)
        finite = np.isfinite(angles).all(axis=0)
        if not finite.all():
            theta = float(thetas[~finite][0])
            raise InvalidMeasure(f"piece {index}: k * theta is not finite for theta = {theta!r} and some k <= {N}")
        return 2.0 * (mus[None, :] * np.exp(-1j * angles)).sum(axis=1)

    def validate(self):
        """The list of invariant violations (empty when valid); never raises.

        Checks that the pieces start at t = 0, in strictly increasing order,
        and that each piece passes ``DriverPiece.check``.  Such a piece has
        Re p > 0 on the open disc, so no value of p is probed.
        """
        problems = []
        if not self.pieces:
            problems.append("no pieces")
        elif self.pieces[0].t_start != 0.0:
            problems.append("first piece must start at t=0")
        try:
            self.starts
        except InvalidMeasure as exc:
            problems.append(str(exc))
        for i, piece in enumerate(self.pieces):
            problems.extend(f"piece {i}: {msg}" for msg in piece.check())
        return problems
