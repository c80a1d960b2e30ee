"""Runnable identity checks behind the command-line ``check`` command.

Each check re-verifies one algebraic identity of the library at runtime and
produces a machine-readable record.  A check is declared once, by
``@_declare`` on its function, with its name, its suite and the library
function it exercises; the record's ``source`` is that function's import
path, so a failing record can be traced straight to the responsible code.
The suites, ``run_suite`` and the ``catalogue`` all read the declarations.
"""

from __future__ import annotations

import numpy as np

from .grassmannian import step2_graph
from .observables import (
    BracketWindow,
    corrected_G,
    gbar_coefficient,
    iota,
    poisson_bracket,
)
from .virasoro import commutator, kirillov_L, schaeffer_spencer

# name -> (suite, exercised library function, check), in declaration order;
# filled by @_declare as the module loads and only read afterwards
CHECKS = {}


def _declare(name: str, suite: str, exercises):
    """Declare the decorated function as the identity check ``name`` of ``suite``.

    The function takes no arguments and returns ``(passed, detail)``;
    ``exercises`` is the library function whose identity it verifies.
    """

    def register(run):
        CHECKS[name] = (suite, exercises, run)
        return run

    return register


def _field_closed_form(f, k: int):
    """Direct image of f (a ``TruncatedSeries``) under the degree-k deformation field.

    Built with the reference arithmetic of :mod:`shapeflow.series`, so the
    quadrature check shares no code with the array kernel it tests.
    """
    from .series import TruncatedSeries

    def shift(series, m, order):
        """z^m * series, truncated to the given order."""
        coeffs = np.zeros(order + 1, dtype=complex)
        src = series.coeffs[: max(order + 1 - m, 0)]
        coeffs[m : m + len(src)] = src
        return TruncatedSeries(coeffs)

    if k >= 1:
        return shift(f.differentiate(), k + 1, f.order + k)
    if k == 0:
        return shift(f.differentiate(), 1, f.order) - f
    if k == -1:
        c1 = complex(f.coeff(2))
        one = TruncatedSeries.constant(1, f.order)
        fp = shift(f.differentiate(), 0, f.order)
        return fp - f.scale(2 * c1) - one
    raise ValueError(k)


def _worst(errors) -> float:
    """The largest of the errors, or NaN when one is NaN.

    A check passes on ``worst <= tol``, which a NaN fails, where
    ``max(worst, err)`` or ``worst > tol`` would drop it.
    """
    return float(np.max(errors))


# ---------------------------------------------------------------------------
# witt suite


def _witt_window(pairs, w: int) -> int:
    """The n_c that decides [L_k, L_n] = (n - k) L_{k+n} restricted to window w.

    A restriction keeps components and c indices up to w.  By the truncation
    rule of :func:`kirillov_L`, components n <= n_c + j of L_j are exact, so
    with -m the most negative degree of the pairs, n_c = w + m decides them.
    """
    return w + max(0, -min(j for pair in pairs for j in pair))


def _witt_sides(pairs, w: int, n_c: int) -> list:
    """Both sides of [L_k, L_n] = (n - k) L_{k+n} per pair, restricted to window w.

    The fields are built on c-window n_c; the checks take the one
    :func:`_witt_window` derives.
    """
    window = BracketWindow(n_c=n_c, m_neg=0, n_psi=n_c)
    degrees = sorted({j for k, n in pairs for j in (k, n, k + n)})
    fields = {j: kirillov_L(j, window) for j in degrees}
    return [
        (
            commutator(fields[k], fields[n]).restricted(w, c_max=w),
            fields[k + n].restricted(w, c_max=w).scale(n - k),
        )
        for k, n in pairs
    ]


# (pairs (k, n), compared window) of the two witt checks
_STRUCTURE_CONSTANTS = ((1, 2), (1, 3), (2, 3), (0, 2), (-1, 1), (-1, 2), (-2, 3)), 12
_RECURSIVE_FIELD = ((-3, 3),), 4


@_declare("witt_structure_constants", "witt", commutator)
def _check_structure_constants() -> tuple[bool, str]:
    pairs, w = _STRUCTURE_CONSTANTS
    for (k, n), (got, want) in zip(pairs, _witt_sides(pairs, w, _witt_window(pairs, w))):
        if got != want:
            return False, f"[L_{k}, L_{n}] != ({n}-{k}) L_{k + n} on window {w}"
    return True, f"{len(pairs)} bracket pairs exact on window {w}"


@_declare("witt_recursive_fields", "witt", kirillov_L)
def _check_recursive_fields() -> tuple[bool, str]:
    pairs, w = _RECURSIVE_FIELD
    [(got, want)] = _witt_sides(pairs, w, _witt_window(pairs, w))
    if got != want:
        return False, f"[L_-3, L_3] != 6 L_0 on window {w}"
    return True, "recursively built L_-3 satisfies its bracket with L_3"


# ---------------------------------------------------------------------------
# bracket suite


@_declare("bracket_generating_coefficients", "bracket", poisson_bracket)
def _check_gbar_brackets() -> tuple[bool, str]:
    window = BracketWindow(n_c=12, m_neg=0, n_psi=12)
    gs = {m: gbar_coefficient(m, window) for m in range(1, 9)}
    count = 0
    for m in range(1, 5):
        for n in range(m + 1, 5):
            got = poisson_bracket(gs[m], gs[n])
            want = gs[m + n].scale(n - m)
            if got != want:
                return False, f"{{G_{m}, G_{n}}} != ({n}-{m}) G_{m + n} at window 12"
            count += 1
    return True, f"{count} generating-coefficient brackets exact at window 12"


@_declare("bracket_observable_lift", "bracket", iota)
def _check_observable_lift() -> tuple[bool, str]:
    window = BracketWindow(n_c=10, m_neg=2, n_psi=10)
    for k in (1, 2, 3):
        if iota(gbar_coefficient(k, window)) != kirillov_L(k, window):
            return False, f"lift of G_{k} differs from L_{k}"
    for j in (0, -1, -2):
        if iota(corrected_G(j, window)) != kirillov_L(j, window):
            return False, f"lift of corrected G_{j} differs from L_{j}"
    return True, "gradient lift reproduces L_k for k in {1,2,3,0,-1,-2}"


# ---------------------------------------------------------------------------
# basis suite


def _basis_fixture():
    N = 8
    c = 0.4 ** np.arange(1, N + 1) * np.exp(0.2j * np.arange(1, N + 1))
    return c, step2_graph(c, 3, N)


@_declare("basis_displayed_coefficients", "basis", step2_graph)
def _check_basis_displays() -> tuple[bool, str]:
    c, op = _basis_fixture()
    b = np.conj(np.concatenate([[0.0], c]))  # b[k] = conj(c_k)
    display = {
        (0, -1): b[1],
        (0, -2): 3 * b[2] - 2 * b[1] ** 2,
        (0, -3): 5 * b[3] + 2 * b[1] ** 3 - 6 * b[1] * b[2],
        (1, 0): 2 * b[1],
        (1, -1): 2 * b[2],
        (1, -2): 4 * b[3] - 2 * b[1] * b[2],
        (1, -3): 6 * b[4] - 5 * b[2] ** 2 + 4 * b[1] ** 2 * b[2]
        - 2 * b[1] * b[3] - b[1] ** 4,
        (2, 1): 2 * b[1],
        (2, 0): 3 * b[2],
        (2, -1): 3 * b[3],
        (2, -2): 5 * b[4] - 2 * b[1] * b[3],
        (2, -3): 7 * b[5] - 6 * b[2] * b[3] + 4 * b[1] ** 2 * b[3]
        + 3 * b[1] * b[2] ** 2 - 2 * b[1] * b[4] - 4 * b[1] ** 3 * b[2]
        + b[1] ** 5,
    }
    worst = _worst(
        [abs(complex(op.basis[power + op.n, k]) - want) for (k, power), want in display.items()]
    )
    if not worst <= 1e-12:
        return False, f"basis coefficient mismatch, worst |error| = {worst:.3e}"
    return True, f"e_0..e_2 match their closed forms, worst |error| = {worst:.3e}"


@_declare("basis_observable_gradients", "basis", step2_graph)
def _check_basis_gradients() -> tuple[bool, str]:
    c, op = _basis_fixture()
    N = len(c)
    window = BracketWindow(n_c=N, m_neg=0, n_psi=N + 1)
    cbar = {i + 1: np.conj(c[i]) for i in range(N)}
    errors = []
    for j in (1, 2, 3):
        g = corrected_G(1 - j, window)
        for k in range(N + 1):
            grad = g.diff("psi", k + 1).evaluate(cbar, {})
            errors.append(abs(complex(op.basis[op.n - j, k]) - complex(grad)))
    worst = _worst(errors)
    if not worst <= 1e-12:
        return False, f"basis/gradient mismatch, worst |error| = {worst:.3e}"
    return True, f"negative basis parts equal observable gradients, worst {worst:.3e}"


# ---------------------------------------------------------------------------
# quadrature suite


@_declare("quadrature_identity_map", "quadrature", schaeffer_spencer)
def _check_quadrature_identity_map() -> tuple[bool, str]:
    f = np.concatenate([[0.0, 1.0], np.zeros(7)])
    ks = (1, 2, 3, 0, -1)
    errors = []
    for k, out in zip(ks, schaeffer_spencer(f, ks)):
        want = np.zeros(len(out))
        if k >= 1:
            want[k + 1] = 1.0
        errors.append(_worst(np.abs(out - want)))
        if not errors[-1] <= 1e-12:
            image = f"z^{k + 1}" if k >= 1 else "zero"
            return False, f"identity map at k={k} is not {image}, |error| = {errors[-1]:.3e}"
    worst = _worst(errors)
    return True, f"monomial images of the identity map reproduced, worst |error| = {worst:.3e}"


@_declare("quadrature_sample_map", "quadrature", schaeffer_spencer)
def _check_quadrature_sample_map() -> tuple[bool, str]:
    # the reference layer is loaded only here: importing the CLI leaves it out
    from .series import TruncatedSeries

    coeffs = [0.0, 1.0, 0.12, -0.08 + 0.05j, 0.04, -0.02j, 0.01, 0.005j]
    f = TruncatedSeries(np.asarray(coeffs, dtype=complex))
    z = 0.5 * np.exp(2j * np.pi * np.arange(129) / 129)
    errors = []
    ks = (-1, 0, 1, 2, 3)
    for k, taylor in zip(ks, schaeffer_spencer(f.coeffs, ks)):
        got = TruncatedSeries(taylor)
        want = _field_closed_form(f, k)
        errors.append(np.abs(got.evaluate(z) - want.evaluate(z)).max())
    worst = _worst(errors)
    if not worst <= 1e-10:
        return False, f"quadrature sup-error {worst:.3e} exceeds 1e-10"
    return True, f"quadrature matches closed forms, sup-error {worst:.3e}"


def catalogue() -> list:
    """Name/suite/source listing of every identity check, without running.

    The source is the ``module:function`` import path of the exercised function.
    """
    return [
        {"name": name, "suite": suite, "source": f"{fn.__module__}:{fn.__name__}"}
        for name, (suite, fn, _) in CHECKS.items()
    ]


def run_suite(suite: str) -> list:
    """Execute one suite; returns one record dict per identity."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    records = []
    for record, (_, _, run) in zip(catalogue(), CHECKS.values()):
        if record["suite"] == suite:
            passed, detail = run()
            records.append({**record, "passed": bool(passed), "detail": detail})
    return records


# the suites in the order their first check is declared
SUITES = tuple(dict.fromkeys(suite for suite, _, _ in CHECKS.values()))
