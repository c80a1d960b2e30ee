"""shapeflow: Hamiltonian evolution of univalent-map coefficients, Witt-type
symmetry fields, finite-rank Grassmannian graphs and KP data, all at a fixed
truncation order."""

import math
import numbers

__version__ = "0.1.0"


class InvalidInput(ValueError):
    """An input breaks a rule of the layer that reads it (exit 2)."""


class WindowTooSmall(InvalidInput):
    """Window cannot represent the requested object."""


class NumericalFailure(ArithmeticError):
    """A computation diverged, went non-finite or met a singular system (exit 3)."""


def read_number(value, label, kind=float):
    """``kind(value)`` for one finite real input number; anything else is InvalidInput.

    A string or a boolean is refused rather than converted, and so are NaN,
    the infinities and a number too large for a float; an ``int`` input must
    be integral: 2.7 is refused rather than cut to 2.
    """
    what = "an integer" if kind is int else "a finite number"
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = kind(value)
            if math.isfinite(number) and (kind is float or number == value):
                return number
        except (ValueError, OverflowError):
            pass
    raise InvalidInput(f"{label} must be {what}, got {value!r}")


def check_keys(raw, label, known, exclusive=()):
    """InvalidInput when the config object ``raw`` has a key outside ``known``
    or gives more than one of the alternatives ``exclusive``.

    A misspelt key would otherwise leave its default in place, and a second
    alternative would be ignored.  A ``raw`` that is not a dict is a
    TypeError, the error of a container of the wrong kind.
    """
    if not isinstance(raw, dict):
        raise TypeError(f"{label} must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(known), key=str)
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise InvalidInput(f"{label} has the unknown key(s) {names}; it reads {', '.join(known)}")
    given = [key for key in exclusive if key in raw]
    if len(given) > 1:
        raise InvalidInput(f"{label} gives both {given[0]!r} and {given[1]!r}; give one")
