"""Exact bracket algebra tests for the phase-space observables."""

import ast
import glob
import operator
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeflow import observables
from shapeflow.observables import (
    QC,
    BracketWindow,
    IndexOutOfWindow,
    NotLinearInPsi,
    PhasePoly,
    WindowMismatch,
    ExponentOverflow,
    corrected_G,
    gbar_coefficient,
    iota,
    VectorFieldOnF0,
    poisson_bracket,
    reciprocal_coefficients,
)
from shapeflow.virasoro import commutator

from helpers import tuple_terms

W = BracketWindow(n_c=6, m_neg=3, n_psi=6)


def c(n, w=W):
    return PhasePoly.c(n, w)


def psi(m, w=W):
    return PhasePoly(w, {(((1, m), 1),): 1})


def test_canonical_pairs():
    assert poisson_bracket(c(2), psi(2)) == PhasePoly.constant(1, W)
    assert poisson_bracket(c(1), c(2)).is_zero()
    assert poisson_bracket(psi(1), psi(3)).is_zero()
    # psibar with index <= 0 is central
    assert poisson_bracket(c(1), psi(0)).is_zero()
    assert poisson_bracket(c(1), psi(-2)).is_zero()


def test_leibniz_by_hand():
    # {c1 c2, psibar_2} = c1
    assert poisson_bracket(c(1) * c(2), psi(2)) == c(1)


def test_window_mismatch_raises():
    other = BracketWindow(n_c=4, m_neg=1, n_psi=4)
    with pytest.raises(WindowMismatch):
        poisson_bracket(c(1), PhasePoly.c(1, other))


def test_out_of_window_variable_raises():
    with pytest.raises(IndexOutOfWindow):
        PhasePoly.c(7, W)
    with pytest.raises(IndexOutOfWindow):
        psi(-4)


def test_public_constructor_checks_every_term():
    with pytest.raises(IndexOutOfWindow):
        PhasePoly(W, {(((0, 7), 1),): 1})
    with pytest.raises(IndexOutOfWindow):
        PhasePoly(W, {(((0, 1), 1), ((1, -4), 1)): 1})
    with pytest.raises(ValueError):
        PhasePoly(W, {(((0, 1), 0),): 1})
    # coefficients are normalized and zeros dropped
    p = PhasePoly(W, {(((0, 1), 1),): Fraction(6, 3), (((1, 2), 1),): 0})
    assert p == c(1).scale(2)
    assert type(tuple_terms(p)[(((0, 1), 1),)][0]) is int


def test_cancelled_terms_are_dropped():
    prod = (c(1) + c(2)) * (c(1) - c(2))
    assert set(tuple_terms(prod)) == {(((0, 1), 2),), (((0, 2), 2),)}
    assert prod == c(1) * c(1) - c(2) * c(2)
    assert tuple_terms(c(1) + c(2) - c(2)) == tuple_terms(c(1))
    assert tuple_terms(c(1).scale(0)) == {}


# ---------------------------------------------------------------------------
# QC and stored-pair normal form


def _const(value):
    return PhasePoly.constant(value, W)


def _stored(poly):
    """The one stored (re, im) pair of a nonzero constant."""
    ((key, pair),) = poly._terms.items()
    assert key == 0
    return pair


def _typed(q):
    """The parts of a QC with their types."""
    return [(type(x), x) for x in (q.re, q.im)]


def test_qc_integer_parts_stay_int():
    q = QC(3, -2)
    assert type(q.re) is int and type(q.im) is int
    re, im = _stored(_const(q) * _const(q) + _const(1) - _const(QC(0, 5)))
    assert (re, im) == (6, -17)
    assert type(re) is int and type(im) is int
    assert type(QC(True).re) is int


def test_qc_integral_fraction_is_stored_as_int():
    q = QC(Fraction(4, 2), Fraction(-9, 3))
    assert q.re == 2 and type(q.re) is int
    assert q.im == -3 and type(q.im) is int
    # a Fraction sum that lands on an integer is normalized too
    half = _const(Fraction(1, 2))
    assert type(_stored(half + half)[0]) is int
    assert type(_stored(half * _const(4))[0]) is int
    assert isinstance(QC(Fraction(1, 3)).re, Fraction)


def test_qc_floats_enter_exactly():
    assert QC(0.5).re == Fraction(1, 2)
    assert QC(0.1).re == Fraction(0.1)  # the binary value, not 1/10
    assert type(QC(2.0).re) is int
    assert _typed(QC.from_number(0.25 - 1.5j)) == [(Fraction, Fraction(1, 4)), (Fraction, Fraction(-3, 2))]


def test_qc_equality_across_forms():
    assert _typed(QC(2)) == _typed(QC(Fraction(2, 1))) == _typed(QC(2.0)) == [(int, 2), (int, 0)]
    assert _typed(QC(Fraction(1, 2))) == _typed(QC(0.5)) == [(Fraction, Fraction(1, 2)), (int, 0)]
    assert _typed(QC(1, 1)) != _typed(QC(1))
    assert _typed(QC(0)) == _typed(QC(Fraction(0), 0.0)) == [(int, 0), (int, 0)] and not QC(0.0)


# ---------------------------------------------------------------------------
# results do not depend on how the same exact coefficient entered

_FORMS = (int, lambda k: Fraction(k, 1), float)


@st.composite
def _poly_spec(draw, w, c_only=False):
    """Terms as (re, im, variables) with small integer parts."""
    spec = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        re = draw(st.integers(min_value=-4, max_value=4))
        im = draw(st.integers(min_value=-4, max_value=4))
        variables = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            if c_only or draw(st.booleans()):
                variables.append((0, draw(st.integers(min_value=1, max_value=w.n_c))))
            else:
                variables.append(
                    (1, draw(st.integers(min_value=-w.m_neg, max_value=w.n_psi)))
                )
        spec.append((re, im, variables))
    return spec


def _build(spec, w, form):
    poly = PhasePoly.zero(w)
    for re, im, variables in spec:
        term = PhasePoly.constant(QC(form(re), form(im)), w)
        for kind, idx in variables:
            term = term * (PhasePoly.c(idx, w) if kind == 0 else psi(idx, w))
        poly = poly + term
    return poly


def _construct(spec, w, form):
    """The public constructor on tuple keys in drawn order, so that two keys
    can name one monomial and their coefficients add."""
    return PhasePoly(w, {
        tuple(((kind, idx), 1) for kind, idx in variables): QC(form(re), form(im))
        for re, im, variables in spec
    })


def _int_parts(poly):
    return all(type(x) is int for pair in poly._terms.values() for x in pair)


def _normal_parts(poly):
    """Every stored part is an int or a Fraction that is not integral."""
    return all(
        type(x) is int or type(x) is Fraction and x.denominator != 1
        for pair in poly._terms.values()
        for x in pair
    )


_SCALARS = (3, Fraction(-3, 2), 0.75, QC(Fraction(1, 3), -2))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_results_agree_across_coefficient_forms(data):
    w = BracketWindow(n_c=3, m_neg=1, n_psi=3)
    p_spec = data.draw(_poly_spec(w))
    q_spec = data.draw(_poly_spec(w))
    x_spec = {n: data.draw(_poly_spec(w, c_only=True)) for n in (1, 2, 3)}
    y_spec = {n: data.draw(_poly_spec(w, c_only=True)) for n in (1, 3)}
    # one spec term per tuple key, so the constructor sees every term
    unique = list({tuple(v): (re, im, v) for re, im, v in p_spec}.values())
    variables = [("c", n) for n in range(1, w.n_c + 1)] + [("psi", m) for m in range(-w.m_neg, w.n_psi + 1)]
    results = []
    for form in _FORMS:
        p, q = _build(p_spec, w, form), _build(q_spec, w, form)
        x = VectorFieldOnF0(w, {n: _build(sp, w, form) for n, sp in x_spec.items()})
        y = VectorFieldOnF0(w, {n: _build(sp, w, form) for n, sp in y_spec.items()})
        built = _construct(unique, w, form)
        assert built == _build(unique, w, form)
        exact = [p * q, poisson_bracket(p, q), *commutator(x, y).components.values()]
        exact += [p + q, p - q, built, *(p.diff(kind, idx) for kind, idx in variables)]
        scaled = [p.scale(s) for s in _SCALARS]
        assert all(map(_int_parts, exact))
        assert all(map(_normal_parts, scaled))
        assert (p - p).is_zero()
        results.append(exact + scaled)
    assert results[0] == results[1] == results[2]


# ---------------------------------------------------------------------------
# reciprocal coefficients


def test_reciprocal_table_matches_single_coefficients():
    w = BracketWindow(n_c=8, m_neg=0, n_psi=8)
    table = reciprocal_coefficients(8, w)
    assert len(table) == 9
    for n in range(9):
        for k in range(n + 1):
            assert reciprocal_coefficients(n, w)[k] == table[k]
    with pytest.raises(IndexOutOfWindow):
        reciprocal_coefficients(9, w)
    with pytest.raises(ValueError):
        reciprocal_coefficients(-1, w)


def _random_poly(draw, w, max_terms=4, max_degree=3):
    n_terms = draw(st.integers(min_value=1, max_value=max_terms))
    poly = PhasePoly.zero(w)
    for _ in range(n_terms):
        coeff = QC(
            draw(st.integers(min_value=-4, max_value=4)),
            draw(st.integers(min_value=-4, max_value=4)),
        )
        term = PhasePoly.constant(coeff, w)
        deg = draw(st.integers(min_value=0, max_value=max_degree))
        for _ in range(deg):
            if draw(st.booleans()):
                term = term * PhasePoly.c(
                    draw(st.integers(min_value=1, max_value=w.n_c)), w
                )
            else:
                term = term * psi(
                    draw(st.integers(min_value=-w.m_neg, max_value=w.n_psi)), w
                )
        poly = poly + term
    return poly


@st.composite
def poly_triples(draw):
    w = BracketWindow(n_c=3, m_neg=1, n_psi=3)
    return tuple(_random_poly(draw, w) for _ in range(3))


@given(poly_triples())
@settings(max_examples=40, deadline=None)
def test_bracket_antisymmetry_and_jacobi(polys):
    p, q, r = polys
    assert poisson_bracket(p, q) == poisson_bracket(q, p).scale(-1)
    jac = (
        poisson_bracket(p, poisson_bracket(q, r))
        + poisson_bracket(q, poisson_bracket(r, p))
        + poisson_bracket(r, poisson_bracket(p, q))
    )
    assert jac.is_zero()


@given(poly_triples())
@settings(max_examples=40, deadline=None)
def test_bracket_leibniz_rule(polys):
    p, q, r = polys
    lhs = poisson_bracket(p * q, r)
    rhs = p * poisson_bracket(q, r) + poisson_bracket(p, r) * q
    assert lhs == rhs


def test_gbar_pattern():
    # Gbar_1 = psibar_1 + 2 c_1 psibar_2 + 3 c_2 psibar_3 + ...
    g1 = gbar_coefficient(1, W)
    expected = psi(1)
    for j in range(1, W.n_psi):
        expected = expected + c(j).scale(j + 1) * psi(1 + j)
    assert g1 == expected
    # formally setting every c to zero leaves psibar_k
    assert gbar_coefficient(3, W).restricted(c_max=0) == psi(3)


def test_gbar_negative_index_and_bounds():
    gm = gbar_coefficient(-2, W)
    expected = psi(-2)
    for j in range(1, W.n_psi + 3):
        if -2 + j <= W.n_psi and j <= W.n_c:
            expected = expected + c(j).scale(j + 1) * psi(-2 + j)
    assert gm == expected
    with pytest.raises(IndexOutOfWindow):
        gbar_coefficient(W.n_psi + 1, W)
    with pytest.raises(IndexOutOfWindow):
        gbar_coefficient(-W.m_neg - 1, W)


def test_reciprocal_coefficient_closed_forms():
    # z/f coefficients: a_1 = -c1, a_2 = c1^2 - c2, a_3 = -c1^3 + 2 c1 c2 - c3
    a = reciprocal_coefficients(3, W)
    assert a[0] == PhasePoly.constant(1, W)
    assert a[1] == c(1).scale(-1)
    assert a[2] == c(1) * c(1) - c(2)
    assert a[3] == c(1).scale(2) * c(2) - c(1) * c(1) * c(1) - c(3)


def test_corrected_G_displays():
    g0 = corrected_G(0, W)
    expected = PhasePoly.zero(W)
    for k in range(1, W.n_c + 1):
        expected = expected + c(k).scale(k) * psi(k)
    assert g0 == expected
    # every G_{-1} term carries a c factor
    assert corrected_G(-1, W).restricted(c_max=0).is_zero()
    # G_{-2} = sum_k ((k+3) c_{k+2} + (c1^2 - 4 c2) c_k - a_{k+2}) psibar_k
    gm2 = corrected_G(-2, W)
    a = reciprocal_coefficients(W.n_c, W)
    expected = PhasePoly.zero(W)
    for k in range(1, W.n_psi + 1):
        row = PhasePoly.zero(W)
        if k + 2 <= W.n_c:
            row = row + c(k + 2).scale(k + 3) - a[k + 2]
        if k <= W.n_c:
            row = row + (c(1) * c(1) - c(2).scale(4)) * c(k)
        expected = expected + row * psi(k)
    assert gm2 == expected


def test_witt_relation_on_positive_gbars():
    # {Gbar_m, Gbar_n} = (n-m) Gbar_{m+n}: exact on an equal-window algebra,
    # since every unpaired edge term is excluded by the shared psi window.
    w = BracketWindow(n_c=12, m_neg=2, n_psi=12)
    for m in range(1, 6):
        for n in range(1, 6):
            if m + n > w.n_psi:
                continue
            lhs = poisson_bracket(gbar_coefficient(m, w), gbar_coefficient(n, w))
            rhs = gbar_coefficient(m + n, w).scale(n - m)
            assert lhs == rhs, (m, n)


def test_iota_on_gbar_1():
    # iota(Gbar_1) = d_1 + sum (n+1) c_n d_{1+n}
    field = iota(gbar_coefficient(1, W))
    assert field.component(1) == PhasePoly.constant(1, W)
    for n in range(1, W.n_psi):
        assert field.component(1 + n) == c(n).scale(n + 1)


def test_iota_on_corrected_G0():
    field = iota(corrected_G(0, W))
    for n in range(1, W.n_c + 1):
        assert field.component(n) == c(n).scale(n)


def test_iota_single_variable():
    field = iota(psi(3))
    assert field.component(3) == PhasePoly.constant(1, W)
    assert field.component(1).is_zero()


def test_iota_rejects_nonlinear():
    with pytest.raises(NotLinearInPsi):
        iota(psi(1) * psi(2))
    with pytest.raises(NotLinearInPsi):
        iota(c(1))
    with pytest.raises(NotLinearInPsi):
        iota(psi(0))


def truncated_witt_bracket(gk, gl, n):
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
        lam = tuple_terms(b).get((((1, m), 1),))
        if lam:
            b = b - gbar_coefficient(m, w).scale(QC(*lam))
    return b


def test_truncated_bracket_positive_case():
    w = BracketWindow(n_c=8, m_neg=2, n_psi=8)
    out = truncated_witt_bracket(
        gbar_coefficient(1, w), gbar_coefficient(2, w), n=1
    )
    assert out == gbar_coefficient(3, w)


def test_truncated_bracket_antisymmetry_zero():
    g0 = corrected_G(0, W)
    assert truncated_witt_bracket(g0, g0, n=3).is_zero()


def test_truncated_bracket_corrected_pair():
    # {G_0, G_{-1}} = (l-k) G_{-1} with k=0, l=-1, i.e. -G_{-1}; the corrected
    # coefficients close on the truncated algebra away from the c-window edge.
    w = BracketWindow(n_c=10, m_neg=2, n_psi=10)
    lhs = truncated_witt_bracket(corrected_G(0, w), corrected_G(-1, w), n=2)
    rhs = corrected_G(-1, w).scale(-1)
    cap = w.n_c - 2
    assert lhs.restricted(c_max=cap) == rhs.restricted(c_max=cap)


def test_truncated_bracket_projects_low_components():
    # {Gbar_{-2}, Gbar_1} contains the pure monomial 2 psibar_{-1} (from
    # pairing 2 c_1 psibar_{-1} against psibar_1); at truncation level n=1
    # index -1 lies below -n+1 = 0, so 2*Gbar_{-1} is projected away, while
    # n=4 keeps the raw bracket unchanged.
    w = BracketWindow(n_c=10, m_neg=4, n_psi=10)
    gm2, g1 = gbar_coefficient(-2, w), gbar_coefficient(1, w)
    raw = poisson_bracket(gm2, g1)
    out = truncated_witt_bracket(gm2, g1, n=1)
    assert out == raw - gbar_coefficient(-1, w).scale(2)
    pure = [
        mono
        for mono in tuple_terms(out)
        if len(mono) == 1 and mono[0][0][0] == 1 and mono[0][0][1] <= 0
    ]
    assert pure == []
    assert truncated_witt_bracket(gm2, g1, n=4) == raw


def test_evaluate_is_exact_on_rationals():
    p = c(1) * psi(2) - PhasePoly.constant(Fraction(1, 2), W)
    val = p.evaluate(c_values={1: 2.0}, psi_values={2: 0.25})
    assert val == 2.0 * 0.25 - 0.5


# ---------------------------------------------------------------------------
# packed keys against a tuple-key reference

# The reference keeps the public form: {sorted tuple monomial: (re, im)} with
# int or Fraction parts, and multiplies monomials by merging exponent dicts.


def _ref_mono(exps):
    return tuple(sorted((var, e) for var, e in exps.items() if e))


def _ref_add(p, q, sign=1):
    out = dict(p)
    for mono, (c, d) in q.items():
        a, b = out.get(mono, (0, 0))
        out[mono] = (a + sign * c, b + sign * d)
    return {m: v for m, v in out.items() if v != (0, 0)}


def _ref_mul(p, q):
    out = {}
    for m1, (a, b) in p.items():
        for m2, (c, d) in q.items():
            exps = dict(m1)
            for var, e in m2:
                exps[var] = exps.get(var, 0) + e
            out = _ref_add(out, {_ref_mono(exps): (a * c - b * d, a * d + b * c)})
    return out


def _ref_diff(p, var):
    out = {}
    for mono, (a, b) in p.items():
        exps = dict(mono)
        e = exps.get(var, 0)
        if e:
            exps[var] = e - 1
            out[_ref_mono(exps)] = (a * e, b * e)
    return out


def _ref_bracket(p, q, w):
    out = {}
    for n in range(1, min(w.n_c, w.n_psi) + 1):
        out = _ref_add(out, _ref_mul(_ref_diff(p, (0, n)), _ref_diff(q, (1, n))))
        out = _ref_add(out, _ref_mul(_ref_diff(p, (1, n)), _ref_diff(q, (0, n))), -1)
    return out


def _ref_apply(field, p):
    out = {}
    for n, comp in field.items():
        out = _ref_add(out, _ref_mul(comp, _ref_diff(p, (0, n))))
    return out


def _ref_restricted(p, c_max):
    return {m: v for m, v in p.items() if all(kind != 0 or idx <= c_max for (kind, idx), _ in m)}


def _ref_scale(p, s):
    return _ref_mul(p, {(): (s.re, s.im) if isinstance(s, QC) else (Fraction(s), 0)})


_WINDOWS = (BracketWindow(3, 2, 3), BracketWindow(4, 1, 2), BracketWindow(2, 3, 4))


# a stored part: an int, or a Fraction that may be integral or not
_PARTS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
# scale factors: an int (0 and -1, 1 among them), a Fraction, a QC or a float
_SCALES = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-5, 5),
    st.fractions(-3, 3, max_denominator=6),
    st.builds(QC, _PARTS, _PARTS),
    st.floats(-4, 4, allow_nan=False),
)


@st.composite
def _ref_poly(draw, w, c_only=False, max_terms=4):
    variables = [(0, n) for n in range(1, w.n_c + 1)]
    if not c_only:
        variables += [(1, m) for m in range(-w.m_neg, w.n_psi + 1)]
    out = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        chosen = draw(st.lists(st.sampled_from(variables), max_size=3, unique=True))
        exps = {var: draw(st.integers(min_value=1, max_value=3)) for var in chosen}
        out = _ref_add(out, {_ref_mono(exps): (draw(_PARTS), draw(_PARTS))})
    return out


def _ref_field(data, w):
    """Components drawn with at most one term, as every component of L_k for
    k >= 0 has, or with several, as the tails of L_-2 have."""
    return {
        n: data.draw(_ref_poly(w, c_only=True, max_terms=data.draw(st.sampled_from([1, 4]))))
        for n in range(1, w.n_c + 1)
    }


def _poly(ref, w):
    return PhasePoly(w, {m: QC(a, b) for m, (a, b) in ref.items()})


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_packed_kernels_match_tuple_reference(data):
    w = data.draw(st.sampled_from(_WINDOWS))
    p_ref, q_ref = data.draw(_ref_poly(w)), data.draw(_ref_poly(w))
    p, q = _poly(p_ref, w), _poly(q_ref, w)
    assert tuple_terms(p) == p_ref  # the constructor round-trips the public keys
    assert tuple_terms(p * q) == _ref_mul(p_ref, q_ref)
    assert tuple_terms(p - q) == _ref_add(p_ref, q_ref, -1)
    assert tuple_terms(poisson_bracket(p, q)) == _ref_bracket(p_ref, q_ref, w)
    for kind, idx in [(0, n) for n in range(1, w.n_c + 1)] + [(1, m) for m in range(-w.m_neg, w.n_psi + 1)]:
        got = p.diff("c" if kind == 0 else "psi", idx)
        assert tuple_terms(got) == _ref_diff(p_ref, (kind, idx))
    c_max = data.draw(st.integers(0, w.n_c))
    assert tuple_terms(p.restricted(c_max)) == _ref_restricted(p_ref, c_max)
    s = data.draw(_SCALES)
    assert tuple_terms(p.scale(s)) == _ref_scale(p_ref, s)
    assert _normal_parts(p.scale(s))

    x_ref, y_ref = _ref_field(data, w), _ref_field(data, w)
    x = VectorFieldOnF0(w, {n: _poly(r, w) for n, r in x_ref.items()})
    y = VectorFieldOnF0(w, {n: _poly(r, w) for n, r in y_ref.items()})
    field = commutator(x, y)
    n_max = data.draw(st.integers(0, w.n_c))
    derived = [field, x.scale(s), x.restricted(n_max), x.restricted(n_max, c_max=c_max)]
    for n in range(1, w.n_c + 1):
        want = _ref_add(_ref_apply(y_ref, x_ref[n]), _ref_apply(x_ref, y_ref[n]), -1)
        assert tuple_terms(field.component(n)) == want
        assert tuple_terms(x.scale(s).component(n)) == _ref_scale(x_ref[n], s)
        kept = x_ref[n] if n <= n_max else {}
        assert tuple_terms(x.restricted(n_max).component(n)) == kept
        assert tuple_terms(x.restricted(n_max, c_max=c_max).component(n)) == _ref_restricted(kept, c_max)
    # a derived field keeps no zero component, as the public constructor does
    assert all(not q.is_zero() for f in derived for q in f.components.values())
    assert all(_normal_parts(q) for f in derived for q in f.components.values())


def test_terms_round_trip_through_the_constructor():
    w = BracketWindow(5, 3, 5)
    p = (c(1, w) * c(1, w) * psi(-3, w) - psi(5, w).scale(QC(0, 2))) * c(5, w) + PhasePoly.constant(7, w)
    terms = tuple_terms(p)
    assert terms == {
        (((0, 1), 2), ((0, 5), 1), ((1, -3), 1)): (1, 0),
        (((0, 5), 1), ((1, 5), 1)): (0, -2),
        (): (7, 0),
    }
    assert PhasePoly(w, {mono: QC(*pair) for mono, pair in terms.items()}) == p


def test_exponent_overflow_raises_and_never_carries():
    # each variable holds exponents below 2**15; reaching 2**15 raises
    # instead of carrying into the field of c_2
    p = c(1)
    for _ in range(14):
        p = p * p
    assert tuple_terms(p) == {(((0, 1), 2**14),): (1, 0)}
    top = p * PhasePoly(W, {(((0, 1), 2**14 - 1),): 1})
    assert tuple_terms(top) == {(((0, 1), 2**15 - 1),): (1, 0)}
    with pytest.raises(ExponentOverflow):
        p * p
    with pytest.raises(ExponentOverflow):
        top * c(1)
    with pytest.raises(ExponentOverflow):
        PhasePoly(W, {(((0, 1), 2**15),): 1})


def test_repeated_variable_sums_its_exponents_and_never_carries():
    # entries of one variable add up; a sum past 2**15 - 1 raises where it
    # would carry into the field of c_2
    assert PhasePoly(W, {(((0, 1), 1),) * 2: 1}) == c(1) * c(1)
    for count in (2, 3):
        with pytest.raises(ExponentOverflow):
            PhasePoly(W, {(((0, 1), 2**15 - 1),) * count: 1})
    # an exponent just below the bound stays in its own field
    p = PhasePoly(W, {(((0, 1), 2**15 - 3), ((0, 2), 1)): 1})
    assert tuple_terms(p) == {(((0, 1), 2**15 - 3), ((0, 2), 1)): (1, 0)}


@pytest.mark.parametrize("kind", ["x", "C"])
def test_diff_refuses_an_unknown_kind(kind):
    # only "c" and "psi" name a kind; another name is not read as psibar
    with pytest.raises(ValueError, match=rf"^kind must be 'c' or 'psi', got '{kind}'$"):
        c(1).diff(kind, 1)


def test_out_of_window_coefficient_and_diff_are_zero():
    p = c(1) * psi(-3) + c(6) * psi(6)
    for kind, idx in [("c", 0), ("c", 7), ("psi", -4), ("psi", 7)]:
        assert p.diff(kind, idx).is_zero()
    assert p.diff("c", 6) == psi(6)


# ---------------------------------------------------------------------------
# refusals

OTHER = BracketWindow(n_c=4, m_neg=1, n_psi=4)


@pytest.mark.parametrize("n_c, m_neg, n_psi", [(0, 0, 1), (1, 0, 0), (1, -1, 1)])
def test_window_bounds_are_checked(n_c, m_neg, n_psi):
    with pytest.raises(ValueError, match=r"^window needs n_c >= 1, n_psi >= 1, m_neg >= 0$"):
        BracketWindow(n_c=n_c, m_neg=m_neg, n_psi=n_psi)


@pytest.mark.parametrize(
    "j, window, error, message",
    [
        (1, W, ValueError, r"^corrected coefficients are defined for j in \{0, -1, -2\}$"),
        (-3, W, ValueError, r"^corrected coefficients are defined for j in \{0, -1, -2\}$"),
        (-2, BracketWindow(n_c=1, m_neg=0, n_psi=4), IndexOutOfWindow, r"^window too small for G_-2$"),
    ],
)
def test_corrected_G_refuses_an_index_or_a_window(j, window, error, message):
    with pytest.raises(error, match=message) as info:
        corrected_G(j, window)
    assert type(info.value) is error


def test_vector_field_components_are_checked():
    with pytest.raises(WindowMismatch, match="^component window differs from field window$"):
        VectorFieldOnF0(W, {1: PhasePoly.c(1, OTHER)})
    with pytest.raises(ValueError, match="^components must be polynomials in c only$"):
        VectorFieldOnF0(W, {1: c(1) * psi(2)})


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_arithmetic_across_windows_raises(op):
    with pytest.raises(WindowMismatch, match="^operands declared over different windows$"):
        op(c(1), PhasePoly.c(1, OTHER))


def test_constructor_sums_tuple_keys_that_name_one_monomial():
    # the variables of a monomial listed in another order, or one variable
    # listed twice, pack to one key, and their coefficients add
    swapped = PhasePoly(W, {(((0, 1), 1), ((1, 2), 1)): 1, (((1, 2), 1), ((0, 1), 1)): QC(0, 2)})
    assert swapped == (c(1) * psi(2)).scale(QC(1, 2))
    assert PhasePoly(W, {(((0, 1), 2),): 3, (((0, 1), 1), ((0, 1), 1)): -3}).is_zero()


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_arithmetic_with_another_type_is_a_type_error(op):
    # a scalar multiplies through scale; neither order of operands takes one
    for other in (2, Fraction(1, 2), 0.5j, QC(2)):
        with pytest.raises(TypeError):
            op(c(1), other)
        with pytest.raises(TypeError):
            op(other, c(1))


def test_equality_with_another_type_or_window_is_false():
    field = iota(gbar_coefficient(1, W))
    assert c(1) != 1 and field != c(1)
    assert field != iota(gbar_coefficient(1, OTHER))


def test_only_observables_reads_stored_terms():
    # the stored (re, im) form of a coefficient has one owner; every other
    # module goes through PhasePoly's methods or observables' kernels
    package = os.path.dirname(observables.__file__)
    readers = []
    for path in sorted(glob.glob(os.path.join(package, "**", "*.py"), recursive=True)):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        if any(isinstance(node, ast.Attribute) and node.attr == "_terms" for node in ast.walk(tree)):
            readers.append(os.path.relpath(path, package))
    assert readers == ["observables.py"]


def test_only_observables_and_virasoro_build_unchecked_fields():
    # VectorFieldOnF0._trusted skips the public constructor's window and
    # psibar checks; only the modules that build c-only components on their
    # own window call it
    package = os.path.dirname(observables.__file__)
    callers = []
    for path in sorted(glob.glob(os.path.join(package, "**", "*.py"), recursive=True)):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        if any(
            isinstance(node, ast.Attribute) and node.attr == "_trusted"
            and isinstance(node.value, ast.Name) and node.value.id == "VectorFieldOnF0"
            for node in ast.walk(tree)
        ):
            callers.append(os.path.relpath(path, package))
    assert callers == ["observables.py", "virasoro.py"]
