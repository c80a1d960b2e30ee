"""Exact polynomial observables on the (c, psibar) phase space.

Phase coordinates are the map coefficients ``c_1..c_Nc`` of
``f(z) = z(1 + sum c_n z^n)`` and conjugate variables ``psibar_m`` for
``-M <= m <= Npsi``, with the canonical bracket

    {c_n, psibar_m} = delta_{nm},   {c_n, c_k} = 0,   {psibar_l, psibar_m} = 0

(only ``m >= 1`` pairs with a ``c``; lower psibar indices are central).
Coefficients are exact rational-complex numbers, so every bracket identity
here is an equality of polynomials, not a tolerance check.

The module also houses the generating-function coefficients ``Gbar_k`` (the
z^{k-1} coefficient of f'(z) psibar(z)), their corrected negative-index
versions ``G_0, G_{-1}, G_{-2}``, and the substitution psibar_k -> d/dc_k
turning a linear observable into a vector field on coefficient space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "QC",
    "BracketWindow",
    "PhasePoly",
    "VectorFieldOnF0",
    "poisson_bracket",
    "gbar_coefficient",
    "corrected_G",
    "g0",
    "reciprocal_coefficient",
    "reciprocal_coefficients",
    "iota",
    "truncated_witt_bracket",
    "WindowMismatch",
    "IndexOutOfWindow",
    "NotLinearInPsi",
    "WindowTooSmall",
]


class WindowMismatch(ValueError):
    """Binary operation on observables declared over different windows."""


class IndexOutOfWindow(ValueError):
    """Requested variable or coefficient index outside the declared window."""


class NotLinearInPsi(ValueError):
    """Observable is not linear homogeneous in psibar_{k>=1}."""


class WindowTooSmall(ValueError):
    """Window cannot represent the requested object."""


def _normal(x):
    """An int or Fraction in normal form: integral values are int."""
    if type(x) is int or x.denominator != 1:
        return x
    return int(x.numerator)


def _exact(x):
    """Any rational or float as an exact int or Fraction in normal form."""
    return _normal(x if isinstance(x, (int, Fraction)) else Fraction(x))


class QC:
    """Exact rational-complex scalar re + i*im.

    int or Fraction parts; integral Fractions are stored as int, so integer
    arithmetic never builds a Fraction.  Floats enter exactly.
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

    def __add__(self, other):
        return _qc(_normal(self.re + other.re), _normal(self.im + other.im))

    def __sub__(self, other):
        return _qc(_normal(self.re - other.re), _normal(self.im - other.im))

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return _qc(_normal(a * c - b * d), _normal(a * d + b * c))

    def __neg__(self):
        return _qc(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, QC):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if self.im == 0:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


def _qc(re, im):
    """QC from parts already in normal form."""
    q = object.__new__(QC)
    q.re = re
    q.im = im
    return q


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


# A monomial is a sorted tuple of ((kind, index), exponent) with kind 0 for c
# and 1 for psibar; the empty tuple is the constant monomial.
_C, _PSI = 0, 1


def _mono_mul(m1, m2):
    d = dict(m1)
    for var, e in m2:
        d[var] = d.get(var, 0) + e
    return tuple(sorted(d.items()))


class PhasePoly:
    """Polynomial in the phase variables with exact QC coefficients.

    The public constructor checks every index against the window and
    normalizes every coefficient; arithmetic on checked operands builds its
    result with ``_trusted`` and skips both.
    """

    __slots__ = ("window", "_terms")

    def __init__(self, window, terms=None):
        self.window = window
        clean = {}
        for mono, coeff in (terms or {}).items():
            coeff = QC.from_number(coeff)
            if not coeff:
                continue
            for (kind, idx), e in mono:
                if e < 1:
                    raise ValueError("monomial exponents must be positive")
                ok = window.has_c(idx) if kind == _C else window.has_psi(idx)
                if not ok:
                    raise IndexOutOfWindow(f"variable index {idx} outside window")
            clean[mono] = coeff
        self._terms = clean

    @classmethod
    def _trusted(cls, window, terms):
        """Wrap terms that are already clean: nonzero QC, in-window indices."""
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
        return cls._trusted(window, {(((_C, n), 1),): QC(1)})

    @classmethod
    def psibar(cls, m, window):
        if not window.has_psi(m):
            raise IndexOutOfWindow(f"psibar_{m} outside window")
        return cls._trusted(window, {(((_PSI, m), 1),): QC(1)})

    # -- inspection ----------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def coefficient(self, mono):
        """Exact coefficient of a monomial key (QC(0) when absent)."""
        return self._terms.get(mono, QC(0))

    def terms(self):
        return dict(self._terms)

    def uses_psi(self):
        return any(kind == _PSI for mono in self._terms for (kind, _), _ in mono)

    def restricted(self, c_max=None, psi_max=None, psi_min=None):
        """Drop monomials with any variable index outside the given bounds.

        Used for window-interior comparisons where truncation edge terms are
        meaningless.
        """
        kept = {}
        for mono, coeff in self._terms.items():
            ok = True
            for (kind, idx), _ in mono:
                if kind == _C and c_max is not None and idx > c_max:
                    ok = False
                elif kind == _PSI and psi_max is not None and idx > psi_max:
                    ok = False
                elif kind == _PSI and psi_min is not None and idx < psi_min:
                    ok = False
            if ok:
                kept[mono] = coeff
        return PhasePoly._trusted(self.window, kept)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.window is not other.window and self.window != other.window:
            raise WindowMismatch("operands declared over different windows")

    def __add__(self, other):
        if not isinstance(other, PhasePoly):
            return NotImplemented
        self._check(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            prev = out.get(mono)
            if prev is None:
                out[mono] = coeff
            else:
                total = prev + coeff
                if total:
                    out[mono] = total
                else:
                    del out[mono]
        return PhasePoly._trusted(self.window, out)

    def __sub__(self, other):
        if not isinstance(other, PhasePoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PhasePoly._trusted(self.window, {m: -c for m, c in self._terms.items()})

    def scale(self, s):
        s = QC.from_number(s)
        if not s:
            return PhasePoly.zero(self.window)
        # a product of nonzero exact scalars is nonzero
        return PhasePoly._trusted(
            self.window, {m: c * s for m, c in self._terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, PhasePoly):
            return self.scale(other)
        self._check(other)
        out = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _mono_mul(m1, m2)
                prev = out.get(mono)
                out[mono] = c1 * c2 if prev is None else prev + c1 * c2
        return PhasePoly._trusted(self.window, {m: c for m, c in out.items() if c})

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, PhasePoly):
            return NotImplemented
        return self.window == other.window and self._terms == other._terms

    __hash__ = None

    def __repr__(self):
        if not self._terms:
            return "PhasePoly(0)"
        names = {_C: "c", _PSI: "psibar"}
        bits = []
        for mono, coeff in sorted(self._terms.items()):
            factors = [
                f"{names[kind]}_{idx}" + (f"^{e}" if e > 1 else "")
                for (kind, idx), e in mono
            ]
            bits.append(f"{coeff!r}*" + "*".join(factors) if factors else repr(coeff))
        return "PhasePoly(" + " + ".join(bits) + ")"

    # -- calculus ------------------------------------------------------------

    def diff(self, kind, idx):
        """Partial derivative with respect to c_idx (kind 'c') or psibar_idx."""
        k = _C if kind == "c" else _PSI
        out = {}
        for mono, coeff in self._terms.items():
            d = dict(mono)
            e = d.get((k, idx))
            if not e:
                continue
            if e == 1:
                del d[(k, idx)]
            else:
                d[(k, idx)] = e - 1
            # distinct monomials keep distinct keys, and e >= 1 keeps coeff nonzero
            out[tuple(sorted(d.items()))] = coeff * QC(e)
        return PhasePoly._trusted(self.window, out)

    def evaluate(self, c_values=None, psi_values=None):
        """Numeric value at a phase point.

        c_values maps n -> value for c_n, psi_values maps m -> value for
        psibar_m; missing entries count as zero.
        """
        c_values = c_values or {}
        psi_values = psi_values or {}
        total = 0j
        for mono, coeff in self._terms.items():
            val = complex(coeff)
            for (kind, idx), e in mono:
                base = c_values.get(idx, 0) if kind == _C else psi_values.get(idx, 0)
                val *= complex(base) ** e
            total += val
        return total


def poisson_bracket(r1: PhasePoly, r2: PhasePoly) -> PhasePoly:
    """Canonical bracket {r1, r2} = sum_n (dr1/dc_n dr2/dpsi_n - dr1/dpsi_n dr2/dc_n)."""
    if r1.window != r2.window:
        raise WindowMismatch("bracket operands declared over different windows")
    w = r1.window
    out = PhasePoly.zero(w)
    for n in range(1, min(w.n_c, w.n_psi) + 1):
        out = out + r1.diff("c", n) * r2.diff("psi", n)
        out = out - r1.diff("psi", n) * r2.diff("c", n)
    return out


def gbar_coefficient(k: int, window: BracketWindow) -> PhasePoly:
    """Coefficient Gbar_k of z^{k-1} in f'(z) psibar(z), as a PhasePoly.

    Gbar_k = sum_{j>=0} (j+1) c_j psibar_{k+j} with c_0 := 1, keeping the
    terms whose indices fit in the window.
    """
    if not window.has_psi(k):
        raise IndexOutOfWindow(f"Gbar_{k} not representable in window")
    terms = {(((_PSI, k), 1),): QC(1)}
    for j in range(1, window.n_c + 1):
        if window.has_psi(k + j):
            mono = (((_C, j), 1), ((_PSI, k + j), 1))
            terms[mono] = QC(j + 1)
    return PhasePoly(window, terms)


def reciprocal_coefficients(n: int, window: BracketWindow) -> list:
    """Taylor coefficients a_0..a_n of z/f(z) as polynomials in the c variables.

    Satisfies a_0 = 1 and a_n = -sum_{j=1}^{n} c_j a_{n-j}.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > window.n_c:
        raise IndexOutOfWindow(f"coefficient {n} needs c indices up to {n}")
    table = [PhasePoly.constant(1, window)]
    for m in range(1, n + 1):
        acc = PhasePoly.zero(window)
        for j in range(1, m + 1):
            acc = acc + PhasePoly.c(j, window) * table[m - j]
        table.append(-acc)
    return table


def reciprocal_coefficient(n: int, window: BracketWindow) -> PhasePoly:
    """n-th Taylor coefficient a_n of z/f(z); see ``reciprocal_coefficients``."""
    return reciprocal_coefficients(n, window)[n]


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
    a = reciprocal_coefficients(w.n_c, w) if j == -2 else None
    out = PhasePoly.zero(w)
    for k in range(1, w.n_psi + 1):
        psi = PhasePoly.psibar(k, w)
        if j == 0:
            if w.has_c(k):
                out = out + PhasePoly.c(k, w).scale(k) * psi
        elif j == -1:
            if w.has_c(k + 1):
                out = out + PhasePoly.c(k + 1, w).scale(k + 2) * psi
            if w.has_c(k):
                out = out - PhasePoly.c(1, w) * PhasePoly.c(k, w).scale(2) * psi
        else:
            if w.has_c(k + 2):
                out = out + PhasePoly.c(k + 2, w).scale(k + 3) * psi
                out = out - a[k + 2] * psi
            if w.has_c(k):
                c1, c2 = PhasePoly.c(1, w), PhasePoly.c(2, w)
                quad = c1 * c1 - c2.scale(4)
                out = out + quad * PhasePoly.c(k, w) * psi
    return out


def g0(state) -> complex:
    """``corrected_G(0) = sum_k k c_k psibar_k`` at a trajectory state, k <= min(n_psi, order)."""
    kmax = min(state.n_psi, state.order)
    return sum(k * state.c[k - 1] * state.psi(k) for k in range(1, kmax + 1))


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

    def component(self, n):
        w = self.window
        return self.components.get(n, PhasePoly.zero(w))

    def apply_to(self, poly: PhasePoly) -> PhasePoly:
        """Derivative of a c-polynomial along the field."""
        out = PhasePoly.zero(self.window)
        for n, comp in self.components.items():
            out = out + comp * poly.diff("c", n)
        return out

    def __add__(self, other):
        self._check(other)
        comps = dict(self.components)
        for n, p in other.components.items():
            comps[n] = comps.get(n, PhasePoly.zero(self.window)) + p
        return VectorFieldOnF0(self.window, comps)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        return VectorFieldOnF0(
            self.window, {n: p.scale(s) for n, p in self.components.items()}
        )

    def _check(self, other):
        if self.window != other.window:
            raise WindowMismatch("fields declared over different windows")

    def restricted(self, n_max, c_max=None):
        """Keep components with index <= n_max, optionally capping c indices."""
        comps = {}
        for n, p in self.components.items():
            if n <= n_max:
                comps[n] = p if c_max is None else p.restricted(c_max=c_max)
        return VectorFieldOnF0(self.window, comps)

    def __eq__(self, other):
        if not isinstance(other, VectorFieldOnF0):
            return NotImplemented
        if self.window != other.window:
            return False
        keys = set(self.components) | set(other.components)
        return all(self.component(n) == other.component(n) for n in keys)

    __hash__ = None

    def __repr__(self):
        return f"VectorFieldOnF0({self.components!r})"


def iota(p: PhasePoly) -> VectorFieldOnF0:
    """Substitution psibar_k -> d/dc_k on observables linear in psibar_{k>=1}.

    The result acts on c-polynomials; the substitution turns the Poisson
    bracket of linear observables into the (matching) Lie bracket of fields.
    """
    comps = {}
    for mono, coeff in p.terms().items():
        psis = [(idx, e) for (kind, idx), e in mono if kind == _PSI]
        if len(psis) != 1 or psis[0][1] != 1 or psis[0][0] < 1:
            raise NotLinearInPsi(
                "observable must be linear homogeneous in psibar_{k>=1}"
            )
        idx = psis[0][0]
        cpart = tuple(sorted((v, e) for v, e in mono if v[0] == _C))
        poly = PhasePoly(p.window, {cpart: coeff})
        comps[idx] = comps.get(idx, PhasePoly.zero(p.window)) + poly
    return VectorFieldOnF0(p.window, comps)


def truncated_witt_bracket(gk: PhasePoly, gl: PhasePoly, n: int) -> PhasePoly:
    """Poisson bracket of two generating coefficients in the n-truncated algebra.

    Computes {gk, gl} and then projects out the generating-function
    components with index below -n+1: a Gbar_m component shows up as the
    pure monomial psibar_m with a scalar coefficient (the c_0 term of
    Gbar_m), so for every index m <= -n that scalar multiple of
    gbar_coefficient(m) is subtracted.
    """
    b = poisson_bracket(gk, gl)
    w = b.window
    for m in range(-w.m_neg, min(-n, w.n_psi) + 1):
        lam = b.coefficient((((_PSI, m), 1),))
        if lam:
            b = b - gbar_coefficient(m, w).scale(lam)
    return b
