"""Exact polynomial observables on the (c, psibar) phase space.

Phase coordinates are the map coefficients ``c_1..c_Nc`` of
``f(z) = z(1 + sum c_n z^n)`` and conjugate variables ``psibar_m`` for
``-M <= m <= Npsi``, with the canonical bracket

    {c_n, psibar_m} = delta_{nm},   {c_n, c_k} = 0,   {psibar_l, psibar_m} = 0

(only ``m >= 1`` pairs with a ``c``; lower psibar indices are central).
Coefficients are exact rational-complex numbers, so every bracket identity
here is an equality of polynomials, not a tolerance check.  A polynomial
stores each coefficient as its pair of parts ``(re, im)``, each an ``int``
or a non-integral ``Fraction``, and every arithmetic result is built from
such pairs by ``_collect``, which puts the parts in that normal form.
``QC`` is the exact scalar at the public boundary: scalars enter as ``QC``
(or any number ``QC.from_number`` takes), and arithmetic happens on
polynomials.

Monomials are stored as packed ``int`` keys.  Each variable of a window owns
a 16-bit field holding its exponent (c_1..c_Nc in the low fields, then
psibar_{-M}..psibar_Npsi), so a monomial product is one integer addition and
d/dx reads its exponent with a shift and a mask.  The top bit of every field
is a guard: an exponent that reaches 2**15 raises ``ExponentOverflow``
instead of carrying into the next variable.  The layout belongs to the
window and is built on first use.  Tuple keys, sorted tuples of
``((kind, index), exponent)`` with kind 0 for c and 1 for psibar, are the
public form the constructor takes, and only this module reads a packed key.
The bracket and a field's action differentiate only by the variables held
in the OR of a polynomial's keys.  ``PhasePoly(...)`` and
``VectorFieldOnF0(...)`` check windows, indices and c-only components;
``_trusted`` wraps, unchecked, what this module and ``virasoro`` build from
checked operands (Kirillov fields, commutators, a field's scale/restriction).

The module also houses the generating-function coefficients ``Gbar_k`` (the
z^{k-1} coefficient of f'(z) psibar(z)), their corrected negative-index
versions ``G_0, G_{-1}, G_{-2}``, and the substitution psibar_k -> d/dc_k
turning a linear observable into a vector field on coefficient space.
``corrected_G(0)`` is the exact form of G_0; its value at a trajectory
state is the numeric ``evolution.g0``, which the flow reads without
loading this layer.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import WindowTooSmall

__all__ = [
    "QC",
    "BracketWindow",
    "PhasePoly",
    "VectorFieldOnF0",
    "poisson_bracket",
    "gbar_coefficient",
    "corrected_G",
    "reciprocal_coefficients",
    "iota",
    "WindowMismatch",
    "IndexOutOfWindow",
    "NotLinearInPsi",
    "WindowTooSmall",
    "ExponentOverflow",
]


class WindowMismatch(ValueError):
    """Binary operation on observables declared over different windows."""


class IndexOutOfWindow(ValueError):
    """Requested variable or coefficient index outside the declared window."""


class NotLinearInPsi(ValueError):
    """Observable is not linear homogeneous in psibar_{k>=1}."""


class ExponentOverflow(OverflowError):
    """A monomial exponent does not fit its field of the packed key."""


def _normal(x):
    """An int or Fraction in normal form: integral values are int."""
    if type(x) is int or x.denominator != 1:
        return x
    return int(x.numerator)


def _exact(x):
    """Any rational or float as an exact int or Fraction in normal form."""
    return _normal(x if isinstance(x, (int, Fraction)) else Fraction(x))


class QC:
    """Exact rational-complex scalar re + i*im, the public form of an input coefficient.

    int or Fraction parts; integral Fractions are stored as int, the normal
    form of a stored pair.  Floats enter exactly.  A QC does no arithmetic:
    scale a polynomial by it instead.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _exact(re)
        self.im = _exact(im)

    @classmethod
    def from_number(cls, x):
        if isinstance(x, QC):
            return x
        if isinstance(x, complex):
            return cls(x.real, x.imag)
        return cls(x)

    def __bool__(self):
        return self.re != 0 or self.im != 0


# A tuple monomial is a sorted tuple of ((kind, index), exponent) with kind 0
# for c and 1 for psibar; the empty tuple is the constant monomial.
_C, _PSI = 0, 1

# bits per variable in a packed key; the top bit of each field is the guard
_BITS = 16
_MAX_EXP = (1 << (_BITS - 1)) - 1


class _KeyLayout:
    """Where each variable of one window sits in a packed monomial key."""

    __slots__ = ("shift", "variables", "guard", "psi_mask", "psi_units")

    def __init__(self, window):
        self.variables = [(_C, n) for n in range(1, window.n_c + 1)] + [
            (_PSI, m) for m in range(-window.m_neg, window.n_psi + 1)
        ]
        self.shift = {var: _BITS * s for s, var in enumerate(self.variables)}
        self.guard = sum((_MAX_EXP + 1) << s for s in self.shift.values())
        self.psi_mask = sum(
            _MAX_EXP << s for (kind, _), s in self.shift.items() if kind == _PSI
        )
        # key of psibar_m alone -> m, for m >= 1
        self.psi_units = {
            1 << self.shift[(_PSI, m)]: m for m in range(1, window.n_psi + 1)
        }

    def encode(self, mono):
        """Packed key of a tuple monomial, a repeated variable's exponents summed;
        None when it has no key in this window, a sum above 2**15 - 1 included."""
        key = 0
        for var, e in mono:
            s = self.shift.get(var)
            if s is None or not 1 <= e <= _MAX_EXP - ((key >> s) & _MAX_EXP):
                return None
            key += e << s
        return key

    def decode(self, key):
        """Sorted tuple monomial of a packed key: fields are read lowest first."""
        mono = []
        while key:
            s = ((key & -key).bit_length() - 1) // _BITS * _BITS
            e = (key >> s) & _MAX_EXP
            mono.append((self.variables[s // _BITS], e))
            key -= e << s
        return tuple(mono)


@dataclass(frozen=True)
class BracketWindow:
    """Index window: c_n for 1 <= n <= n_c, psibar_m for -m_neg <= m <= n_psi."""

    n_c: int
    m_neg: int
    n_psi: int

    def __post_init__(self):
        if self.n_c < 1 or self.n_psi < 1 or self.m_neg < 0:
            raise ValueError("window needs n_c >= 1, n_psi >= 1, m_neg >= 0")

    def has_c(self, n):
        return 1 <= n <= self.n_c

    def has_psi(self, m):
        return -self.m_neg <= m <= self.n_psi

    @functools.cached_property
    def _keys(self):
        """Packed-key layout, built once per window on first use."""
        return _KeyLayout(self)


def _add_part(acc, key, re, im):
    """acc[key] += (re, im)."""
    part = acc.get(key)
    acc[key] = (re, im) if part is None else (part[0] + re, part[1] + im)


def _raw_diff(terms, shift, sign=1):
    """sign * d/dx of stored terms as ``{key: (re, im)}``; x sits at ``shift``.

    Distinct monomials keep distinct keys, so no two terms meet.
    """
    unit, mask = 1 << shift, _MAX_EXP
    out = {}
    for k, (re, im) in terms.items():
        e = (k >> shift) & mask
        if e:
            e *= sign
            out[k - unit] = (re * e, im * e)
    return out


def _product_into(acc, left, right):
    """acc[k1 + k2] += x1 * x2 over two ``{key: (re, im)}`` term dicts."""
    get = acc.get
    for k1, (a, b) in left.items():
        for k2, (c, d) in right.items():
            key = k1 + k2
            part = get(key)
            if part is None:
                acc[key] = [a * c - b * d, a * d + b * c]
            else:
                part[0] += a * c - b * d
                part[1] += a * d + b * c


def _collect(window, acc):
    """PhasePoly of accumulated part pairs ``{key: (re, im)}``, the one place every
    arithmetic result is built: zero terms go and each part is put in normal
    form.

    Raises ExponentOverflow when a key has a guard bit set.
    """
    if functools.reduce(operator.or_, acc, 0) & window._keys.guard:
        raise ExponentOverflow(f"a monomial exponent reached {_MAX_EXP + 1}")
    # _normal inlined for the int parts that most terms have
    return PhasePoly._trusted(window, {
        key: (re if type(re) is int else _normal(re), im if type(im) is int else _normal(im))
        for key, (re, im) in acc.items()
        if re or im
    })


class PhasePoly:
    """Polynomial in the phase variables with exact rational-complex coefficients.

    The public constructor checks every index against the window and
    normalizes every coefficient; arithmetic on checked operands skips the
    index checks, and each result passes ``_collect``.
    """

    __slots__ = ("window", "_terms")

    def __init__(self, window, terms=None):
        self.window = window
        keys = window._keys
        acc = {}
        for mono, coeff in (terms or {}).items():
            coeff = QC.from_number(coeff)
            if not coeff:
                continue
            for (kind, idx), e in mono:
                if e < 1:
                    raise ValueError("monomial exponents must be positive")
                if e > _MAX_EXP:
                    raise ExponentOverflow(f"exponent {e} exceeds {_MAX_EXP}")
                if (kind, idx) not in keys.shift:
                    raise IndexOutOfWindow(f"variable index {idx} outside window")
            key = keys.encode(mono)
            if key is None:
                raise ExponentOverflow(f"a variable's exponents sum past {_MAX_EXP}")
            _add_part(acc, key, coeff.re, coeff.im)
        self._terms = _collect(window, acc)._terms

    @classmethod
    def _trusted(cls, window, terms):
        """Wrap packed terms that are already clean: nonzero normal pairs, in-window keys."""
        poly = object.__new__(cls)
        poly.window = window
        poly._terms = terms
        return poly

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, window):
        return cls._trusted(window, {})

    @classmethod
    def constant(cls, value, window):
        return cls(window, {(): QC.from_number(value)})

    @classmethod
    def c(cls, n, window):
        if not window.has_c(n):
            raise IndexOutOfWindow(f"c_{n} outside window")
        return cls._trusted(window, {1 << window._keys.shift[(_C, n)]: (1, 0)})

    # -- inspection ----------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def uses_psi(self):
        mask = self.window._keys.psi_mask
        return any(k & mask for k in self._terms)

    def restricted(self, c_max):
        """Drop monomials with a c variable of index above ``c_max``.

        Used for window-interior comparisons where truncation edge terms are
        meaningless.
        """
        # c_1..c_Nc hold the low fields, so c_{j+1}..c_Nc are one run of bits
        n_c = self.window.n_c
        drop = (1 << _BITS * n_c) - (1 << _BITS * min(max(c_max, 0), n_c))
        kept = {k: q for k, q in self._terms.items() if not k & drop}
        return PhasePoly._trusted(self.window, kept)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.window is not other.window and self.window != other.window:
            raise WindowMismatch("operands declared over different windows")

    def __add__(self, other):
        if not isinstance(other, PhasePoly):
            return NotImplemented
        return self._sum(other, False)

    def __sub__(self, other):
        if not isinstance(other, PhasePoly):
            return NotImplemented
        return self._sum(other, True)

    def _sum(self, other, negate):
        """self + other, or self - other when ``negate``."""
        self._check(other)
        acc = dict(self._terms)
        sign = -1 if negate else 1
        for key, (re, im) in other._terms.items():
            _add_part(acc, key, sign * re, sign * im)
        return _collect(self.window, acc)

    def scale(self, s):
        if isinstance(s, (int, Fraction)):
            s = _normal(s)
            return _collect(self.window, {k: (re * s, im * s) for k, (re, im) in self._terms.items()})
        s = QC.from_number(s)
        acc = {}
        _product_into(acc, self._terms, {0: (s.re, s.im)})
        return _collect(self.window, acc)

    def __mul__(self, other):
        if not isinstance(other, PhasePoly):
            return NotImplemented
        self._check(other)
        acc = {}
        _product_into(acc, self._terms, other._terms)
        return _collect(self.window, acc)

    def __eq__(self, other):
        if not isinstance(other, PhasePoly):
            return NotImplemented
        return self.window == other.window and self._terms == other._terms

    __hash__ = None

    # -- calculus ------------------------------------------------------------

    def diff(self, kind, idx):
        """Partial derivative with respect to c_idx (kind 'c') or psibar_idx.

        Zero for a variable outside the window.
        """
        if kind not in ("c", "psi"):
            raise ValueError(f"kind must be 'c' or 'psi', got {kind!r}")
        shift = self.window._keys.shift.get((_C if kind == "c" else _PSI, idx))
        if shift is None:
            return PhasePoly.zero(self.window)
        return _collect(self.window, _raw_diff(self._terms, shift))

    def evaluate(self, c_values=None, psi_values=None):
        """Numeric value at a phase point.

        c_values maps n -> value for c_n, psi_values maps m -> value for
        psibar_m; missing entries count as zero.
        """
        c_values = c_values or {}
        psi_values = psi_values or {}
        decode = self.window._keys.decode
        total = 0j
        for key, (re, im) in self._terms.items():
            val = complex(re) + 1j * complex(im)
            for (kind, idx), e in decode(key):
                base = c_values.get(idx, 0) if kind == _C else psi_values.get(idx, 0)
                val *= complex(base) ** e
            total += val
        return total


def poisson_bracket(r1: PhasePoly, r2: PhasePoly) -> PhasePoly:
    """Canonical bracket {r1, r2} = sum_n (dr1/dc_n dr2/dpsi_n - dr1/dpsi_n dr2/dc_n)."""
    if r1.window != r2.window:
        raise WindowMismatch("bracket operands declared over different windows")
    w = r1.window
    shift = w._keys.shift
    t1, t2 = r1._terms, r2._terms
    s1, s2 = functools.reduce(operator.or_, t1, 0), functools.reduce(operator.or_, t2, 0)
    acc = {}
    for n in range(1, min(w.n_c, w.n_psi) + 1):
        sc, sp = shift[(_C, n)], shift[(_PSI, n)]
        if s1 >> sc & _MAX_EXP and s2 >> sp & _MAX_EXP:
            _product_into(acc, _raw_diff(t1, sc), _raw_diff(t2, sp))
        if s1 >> sp & _MAX_EXP and s2 >> sc & _MAX_EXP:
            _product_into(acc, _raw_diff(t1, sp, -1), _raw_diff(t2, sc))
    return _collect(w, acc)


def gbar_coefficient(k: int, window: BracketWindow) -> PhasePoly:
    """Coefficient Gbar_k of z^{k-1} in f'(z) psibar(z), as a PhasePoly.

    Gbar_k = sum_{j>=0} (j+1) c_j psibar_{k+j} with c_0 := 1, keeping the
    terms whose indices fit in the window.
    """
    if not window.has_psi(k):
        raise IndexOutOfWindow(f"Gbar_{k} not representable in window")
    shift = window._keys.shift
    terms = {1 << shift[(_PSI, k)]: (1, 0)}
    for j in range(1, window.n_c + 1):
        if window.has_psi(k + j):
            terms[(1 << shift[(_C, j)]) + (1 << shift[(_PSI, k + j)])] = (j + 1, 0)
    return PhasePoly._trusted(window, terms)


def reciprocal_coefficients(n: int, window: BracketWindow) -> list:
    """Taylor coefficients a_0..a_n of z/f(z) as polynomials in the c variables.

    Satisfies a_0 = 1 and a_n = -sum_{j=1}^{n} c_j a_{n-j}; the product
    c_j a_{n-j} shifts every key of a_{n-j} by the key of c_j.  c^lambda has
    coefficient (-1)^len(lambda) times the orderings of lambda's parts, a
    nonzero int, so ``{key: int}`` dicts carry the recursion and stay clean.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > window.n_c:
        raise IndexOutOfWindow(f"coefficient {n} needs c indices up to {n}")
    shift = window._keys.shift
    table = [{0: 1}]
    for m in range(1, n + 1):
        acc = {}
        get = acc.get
        for j in range(1, m + 1):
            unit = 1 << shift[(_C, j)]
            for k, x in table[m - j].items():
                k += unit
                acc[k] = get(k, 0) - x
        table.append(acc)
    return [PhasePoly._trusted(window, {k: (x, 0) for k, x in t.items()}) for t in table]


def corrected_G(j: int, window: BracketWindow) -> PhasePoly:
    """Corrected negative-index generating coefficients G_0, G_{-1}, G_{-2}.

    These replace the raw tails of Gbar with combinations supported on
    psibar_{k>=1} only:

        G_0    = sum_k k c_k psibar_k
        G_{-1} = sum_k ((k+2) c_{k+1} - 2 c_1 c_k) psibar_k
        G_{-2} = sum_k ((k+3) c_{k+2} + (c_1^2 - 4 c_2) c_k - a_{k+2}) psibar_k

    with a_n the reciprocal coefficients of f/z.  Terms whose indices do not
    fit in the window are dropped.
    """
    if j not in (0, -1, -2):
        raise ValueError("corrected coefficients are defined for j in {0, -1, -2}")
    if window.n_c < -j:
        raise IndexOutOfWindow(f"window too small for G_{j}")
    w = window
    shift = w._keys.shift
    cu = [0] + [1 << shift[(_C, n)] for n in range(1, w.n_c + 1)]
    a = reciprocal_coefficients(w.n_c, w) if j == -2 else None
    acc = {}
    for k in range(1, w.n_psi + 1):
        psi = 1 << shift[(_PSI, k)]
        if j == 0:
            if w.has_c(k):
                _add_part(acc, cu[k] + psi, k, 0)
        elif j == -1:
            if w.has_c(k + 1):
                _add_part(acc, cu[k + 1] + psi, k + 2, 0)
            if w.has_c(k):
                _add_part(acc, cu[1] + cu[k] + psi, -2, 0)
        else:
            if w.has_c(k + 2):
                _add_part(acc, cu[k + 2] + psi, k + 3, 0)
                for key, (re, im) in a[k + 2]._terms.items():
                    _add_part(acc, key + psi, -re, -im)
            if w.has_c(k):
                _add_part(acc, 2 * cu[1] + cu[k] + psi, 1, 0)
                _add_part(acc, cu[2] + cu[k] + psi, -4, 0)
    return _collect(w, acc)


class VectorFieldOnF0:
    """First-order vector field sum_n X_n(c) d/dc_n on coefficient space."""

    __slots__ = ("window", "components")

    def __init__(self, window, components):
        self.window = window
        comps = {}
        for n, poly in components.items():
            if poly.window != window:
                raise WindowMismatch("component window differs from field window")
            if poly.uses_psi():
                raise ValueError("components must be polynomials in c only")
            if not poly.is_zero():
                comps[n] = poly
        self.components = comps

    @classmethod
    def _trusted(cls, window, components):
        """Wrap c-only components built on ``window``; zero components go."""
        field = object.__new__(cls)
        field.window = window
        field.components = {n: p for n, p in components.items() if p._terms}
        return field

    def component(self, n):
        w = self.window
        return self.components.get(n, PhasePoly.zero(w))

    def _raw_components(self):
        """(shift of c_n, stored terms of X_n) for each component, in order."""
        shift = self.window._keys.shift
        return [(shift[(_C, n)], p._terms) for n, p in self.components.items()]

    def scale(self, s):
        return VectorFieldOnF0._trusted(
            self.window, {n: p.scale(s) for n, p in self.components.items()}
        )

    def restricted(self, n_max, c_max=None):
        """Keep components with index <= n_max, optionally capping c indices."""
        comps = {}
        for n, p in self.components.items():
            if n <= n_max:
                comps[n] = p if c_max is None else p.restricted(c_max=c_max)
        return VectorFieldOnF0._trusted(self.window, comps)

    def __eq__(self, other):
        if not isinstance(other, VectorFieldOnF0):
            return NotImplemented
        if self.window != other.window:
            return False
        keys = set(self.components) | set(other.components)
        return all(self.component(n) == other.component(n) for n in keys)

    __hash__ = None


def _apply_into(acc, raw_components, poly, sign=1):
    """acc += sign * sum_n X_n dpoly/dc_n, the field given by ``_raw_components``,
    over the c_n that ``poly`` holds, each term of dpoly/dc_n taken as it goes."""
    terms = poly._terms
    support = functools.reduce(operator.or_, terms, 0)
    get, mask = acc.get, _MAX_EXP
    for shift, comp in raw_components:
        if not support >> shift & mask:
            continue
        unit = 1 << shift
        for k1, (a, b) in comp.items():
            a, b, k1 = sign * a, sign * b, k1 - unit
            for k, (c, d) in terms.items():
                e = k >> shift & mask
                if e:
                    re, im = (a * c - b * d) * e, (a * d + b * c) * e
                    part = get(k + k1)
                    if part is None:
                        acc[k + k1] = [re, im]
                    else:
                        part[0] += re
                        part[1] += im


def _c_term(window, n, x):
    """x c_n, x a nonzero int, as one clean term; c_0 is the constant 1."""
    key = 1 << window._keys.shift[(_C, n)] if n else 0
    return PhasePoly._trusted(window, {key: (x, 0)})


def iota(p: PhasePoly) -> VectorFieldOnF0:
    """Substitution psibar_k -> d/dc_k on observables linear in psibar_{k>=1}.

    The result acts on c-polynomials; the substitution turns the Poisson
    bracket of linear observables into the (matching) Lie bracket of fields.
    """
    keys = p.window._keys
    comps = {}
    for key, coeff in p._terms.items():
        idx = keys.psi_units.get(key & keys.psi_mask)
        if idx is None:
            raise NotLinearInPsi(
                "observable must be linear homogeneous in psibar_{k>=1}"
            )
        comps.setdefault(idx, {})[key & ~keys.psi_mask] = coeff
    return VectorFieldOnF0(
        p.window, {n: PhasePoly._trusted(p.window, t) for n, t in comps.items()}
    )

