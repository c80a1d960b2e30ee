"""Tests for the truncated series window arithmetic."""

import operator
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeflow.series import (
    NonzeroConstantTerm,
    TruncatedSeries,
    ZeroConstantTerm,
    exp_series,
)


def test_geometric_reciprocal():
    # 1/(1-z) = 1 + z + z^2 + ... on any window
    s = TruncatedSeries([1, -1] + [0] * 8)
    r = s.reciprocal()
    np.testing.assert_allclose(r.coeffs, np.ones(10), atol=0)


def test_mul_truncates_to_smaller_window():
    a = TruncatedSeries([1, 1, 1, 1, 1])
    b = TruncatedSeries([1, 2])
    p = a * b
    assert p.order == 1
    np.testing.assert_allclose(p.coeffs, [1, 3])


def test_mul_hand_expanded():
    # (1 + c z)(1 - c z + c^2 z^2) = 1 + c^3 z^3 -> window 2 sees exactly 1
    c = 0.37 + 0.21j
    a = TruncatedSeries([1, c, 0])
    b = TruncatedSeries([1, -c, c * c])
    p = a * b
    np.testing.assert_allclose(p.coeffs, [1, 0, 0], atol=1e-15)


def test_reciprocal_rejects_zero_constant():
    with pytest.raises(ZeroConstantTerm):
        TruncatedSeries([0, 1, 2]).reciprocal()


def test_symbolic_reciprocal_matches_closed_forms():
    # Inverse-coefficient recurrence against hand-expanded formulas:
    # for a = 1 + a1 z + a2 z^2 + a3 z^3 the reciprocal starts
    #   1, -a1, a1^2 - a2, -a1^3 + 2 a1 a2 - a3
    a1, a2, a3 = sympy.symbols("a1 a2 a3")
    s = TruncatedSeries([sympy.Integer(1), a1, a2, a3])
    r = s.reciprocal()
    expected = [
        sympy.Integer(1),
        -a1,
        a1**2 - a2,
        -(a1**3) + 2 * a1 * a2 - a3,
    ]
    for got, want in zip(r.coeffs, expected):
        assert sympy.expand(got - want) == 0


def test_symbolic_exp_is_exponential_bell_polynomials():
    x1, x2, x3 = sympy.symbols("x1 x2 x3")
    e = exp_series(TruncatedSeries([sympy.Integer(0), x1, x2, x3]))
    expected = [
        sympy.Integer(1),
        x1,
        x2 + x1**2 / 2,
        x3 + x1 * x2 + x1**3 / 6,
    ]
    for got, want in zip(e.coeffs, expected):
        assert sympy.expand(sympy.nsimplify(got) - want) == 0


def test_exp_rejects_nonzero_constant():
    with pytest.raises(NonzeroConstantTerm):
        exp_series(TruncatedSeries([1.0, 2.0]))


def test_exp_numeric_against_scipy_style_reference():
    rng = np.random.default_rng(7)
    a = np.concatenate([[0], rng.normal(size=6) * 0.3])
    e = exp_series(TruncatedSeries(a))
    # reference: exponentiate the polynomial pointwise and fit Taylor
    # coefficients by evaluating exp(a(z)) derivatives via very small mpmath-free
    # finite geometry: compare against sympy's series expansion instead.
    z = sympy.symbols("z")
    expr = sympy.exp(sum(float(ak) * z**k for k, ak in enumerate(a)))
    ref = sympy.series(expr, z, 0, 7).removeO().as_poly(z).all_coeffs()[::-1]
    ref = ref + [0] * (7 - len(ref))
    np.testing.assert_allclose(
        np.asarray(e.coeffs, dtype=complex),
        np.asarray([complex(x) for x in ref]),
        atol=1e-12,
    )


def test_fraction_coefficients_stay_exact():
    s = TruncatedSeries([Fraction(1), Fraction(1, 3), Fraction(2, 5)])
    r = s.reciprocal()
    assert r.coeffs[1] == Fraction(-1, 3)
    assert r.coeffs[2] == Fraction(1, 9) - Fraction(2, 5)
    p = s * r
    assert list(p.coeffs) == [Fraction(1), Fraction(0), Fraction(0)]


gaussian_int = st.integers(min_value=-3, max_value=3)


@st.composite
def unit_leading_series(draw, max_order=12):
    n = draw(st.integers(min_value=1, max_value=max_order))
    tail = draw(
        st.lists(
            st.tuples(gaussian_int, gaussian_int), min_size=n, max_size=n
        )
    )
    return TruncatedSeries([1] + [complex(a, b) for a, b in tail])


@given(unit_leading_series())
@settings(max_examples=60)
def test_reciprocal_is_exact_two_sided_inverse_on_gaussian_integers(s):
    # Small Gaussian-integer inputs keep every intermediate exactly
    # representable in doubles, so the identity holds with zero tolerance.
    r = s.reciprocal()
    one = (s * r).coeffs
    assert one[0] == 1 and not one[1:].any()
    one = (r * s).coeffs
    assert one[0] == 1 and not one[1:].any()


@st.composite
def random_series(draw, max_order=10):
    n = draw(st.integers(min_value=1, max_value=max_order))
    tail = draw(
        st.lists(
            st.tuples(
                st.floats(-1, 1, allow_nan=False),
                st.floats(-1, 1, allow_nan=False),
            ),
            min_size=n + 1,
            max_size=n + 1,
        )
    )
    return TruncatedSeries([complex(a, b) for a, b in tail])


@given(random_series(), random_series())
@settings(max_examples=60)
def test_product_rule_within_common_window(a, b):
    # (ab)' = a'b + ab' holds on the window where all three sides live.
    lhs = (a * b).differentiate()
    rhs = a.differentiate() * b + a * b.differentiate()
    n = min(lhs.order, rhs.order)
    np.testing.assert_allclose(
        lhs.coeffs[: n + 1], rhs.coeffs[: n + 1], atol=1e-12
    )


@given(random_series(), random_series())
@settings(max_examples=40)
def test_mul_commutes_and_distributes(a, b):
    np.testing.assert_allclose(
        (a * b).coeffs, (b * a).coeffs, atol=1e-13
    )
    lhs = a * (a + b)
    rhs = a * a + a * b
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_taylor_evaluate_matches_polyval():
    rng = np.random.default_rng(3)
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    s = TruncatedSeries(c)
    z = rng.normal(size=5) + 1j * rng.normal(size=5)
    np.testing.assert_allclose(s.evaluate(z), np.polyval(c[::-1], z), atol=1e-12)


def test_coeff_out_of_window_is_zero():
    s = TruncatedSeries([1, 2, 3])
    assert s.coeff(5) == 0


def test_series_needs_a_coefficient():
    with pytest.raises(ValueError, match="^series needs at least one coefficient$"):
        TruncatedSeries([])
    # so a constant has no derivative on its window
    with pytest.raises(ValueError, match="^series needs at least one coefficient$"):
        TruncatedSeries([5.0]).differentiate()


@pytest.mark.parametrize("other", [2, 0.5j, Fraction(1, 3)])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_arithmetic_with_a_non_series_is_a_type_error(op, other):
    # a scalar multiplies through scale; neither order of operands takes one
    s = TruncatedSeries([1, 2, 3])
    with pytest.raises(TypeError):
        op(s, other)
    with pytest.raises(TypeError):
        op(other, s)
