"""shapeflow: Hamiltonian evolution of univalent-map coefficients, Witt-type
symmetry fields, finite-rank Grassmannian graphs and KP data, all at a fixed
truncation order."""

__version__ = "0.1.0"


class WindowTooSmall(ValueError):
    """Window cannot represent the requested object."""


class NumericalFailure(ArithmeticError):
    """A computation diverged, went non-finite or met a singular system (exit 3)."""
