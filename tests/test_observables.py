"""Exact bracket algebra tests for the phase-space observables."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    truncated_witt_bracket,
)
from shapeflow.virasoro import commutator

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
    assert type(p.coefficient((((0, 1), 1),)).re) is int


def test_cancelled_terms_are_dropped():
    prod = (c(1) + c(2)) * (c(1) - c(2))
    assert set(prod.terms()) == {(((0, 1), 2),), (((0, 2), 2),)}
    assert prod == c(1) * c(1) - c(2) * c(2)
    assert (c(1) + c(2) - c(2)).terms() == c(1).terms()
    assert c(1).scale(0).terms() == {}


# ---------------------------------------------------------------------------
# QC normal form


def test_qc_integer_parts_stay_int():
    q = QC(3, -2)
    assert type(q.re) is int and type(q.im) is int
    prod = q * q + QC(1) - QC(0, 5)
    assert (prod.re, prod.im) == (6, -17)
    assert type(prod.re) is int and type(prod.im) is int
    assert type(QC(True).re) is int


def test_qc_integral_fraction_is_stored_as_int():
    q = QC(Fraction(4, 2), Fraction(-9, 3))
    assert q.re == 2 and type(q.re) is int
    assert q.im == -3 and type(q.im) is int
    # a Fraction sum that lands on an integer is normalized too
    half = QC(Fraction(1, 2))
    assert type((half + half).re) is int
    assert type((half * QC(4)).re) is int
    assert isinstance(QC(Fraction(1, 3)).re, Fraction)


def test_qc_floats_enter_exactly():
    assert QC(0.5).re == Fraction(1, 2)
    assert QC(0.1).re == Fraction(0.1)  # the binary value, not 1/10
    assert type(QC(2.0).re) is int
    assert QC.from_number(0.25 - 1.5j) == QC(Fraction(1, 4), Fraction(-3, 2))


def test_qc_equality_across_forms():
    assert QC(2) == QC(Fraction(2, 1)) == QC(2.0) == 2 == Fraction(2)
    assert QC(Fraction(1, 2)) == QC(0.5) == Fraction(1, 2)
    assert QC(1, 1) != QC(1)
    assert QC(0) == QC(Fraction(0), 0.0) and not QC(0.0)
    assert repr(QC(Fraction(4, 2), Fraction(1, 2))) == "QC(2, 1/2)"


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


def _int_parts(poly):
    return all(
        type(q.re) is int and type(q.im) is int for q in poly.terms().values()
    )


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_results_agree_across_coefficient_forms(data):
    w = BracketWindow(n_c=3, m_neg=1, n_psi=3)
    p_spec = data.draw(_poly_spec(w))
    q_spec = data.draw(_poly_spec(w))
    x_spec = {n: data.draw(_poly_spec(w, c_only=True)) for n in (1, 2, 3)}
    y_spec = {n: data.draw(_poly_spec(w, c_only=True)) for n in (1, 3)}
    results = []
    for form in _FORMS:
        p, q = _build(p_spec, w, form), _build(q_spec, w, form)
        x = VectorFieldOnF0(w, {n: _build(sp, w, form) for n, sp in x_spec.items()})
        y = VectorFieldOnF0(w, {n: _build(sp, w, form) for n, sp in y_spec.items()})
        prod, bracket, field = p * q, poisson_bracket(p, q), commutator(x, y)
        assert all(map(_int_parts, [prod, bracket, *field.components.values()]))
        assert (p - p).terms() == {}
        results.append((prod, bracket, field))
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
        for mono in out.terms()
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
# int parts, and multiplies monomials by merging exponent dicts.


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


def _as_ref(poly):
    return {m: (q.re, q.im) for m, q in poly.terms().items()}


_WINDOWS = (BracketWindow(3, 2, 3), BracketWindow(4, 1, 2), BracketWindow(2, 3, 4))


@st.composite
def _ref_poly(draw, w, c_only=False):
    variables = [(0, n) for n in range(1, w.n_c + 1)]
    if not c_only:
        variables += [(1, m) for m in range(-w.m_neg, w.n_psi + 1)]
    out = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        chosen = draw(st.lists(st.sampled_from(variables), max_size=3, unique=True))
        exps = {var: draw(st.integers(min_value=1, max_value=3)) for var in chosen}
        coeff = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        out = _ref_add(out, {_ref_mono(exps): coeff})
    return out


def _poly(ref, w):
    return PhasePoly(w, {m: QC(a, b) for m, (a, b) in ref.items()})


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_packed_kernels_match_tuple_reference(data):
    w = data.draw(st.sampled_from(_WINDOWS))
    p_ref, q_ref = data.draw(_ref_poly(w)), data.draw(_ref_poly(w))
    p, q = _poly(p_ref, w), _poly(q_ref, w)
    assert _as_ref(p) == p_ref  # terms() round-trips the public keys
    assert _as_ref(p * q) == _ref_mul(p_ref, q_ref)
    assert _as_ref(p - q) == _ref_add(p_ref, q_ref, -1)
    assert _as_ref(poisson_bracket(p, q)) == _ref_bracket(p_ref, q_ref, w)
    for kind, idx in [(0, n) for n in range(1, w.n_c + 1)] + [(1, m) for m in range(-w.m_neg, w.n_psi + 1)]:
        got = p.diff("c" if kind == 0 else "psi", idx)
        assert _as_ref(got) == _ref_diff(p_ref, (kind, idx))
    c_max = data.draw(st.integers(0, w.n_c))
    assert _as_ref(p.restricted(c_max)) == _ref_restricted(p_ref, c_max)

    x_ref = {n: data.draw(_ref_poly(w, c_only=True)) for n in range(1, w.n_c + 1)}
    y_ref = {n: data.draw(_ref_poly(w, c_only=True)) for n in range(1, w.n_c + 1)}
    x = VectorFieldOnF0(w, {n: _poly(r, w) for n, r in x_ref.items()})
    y = VectorFieldOnF0(w, {n: _poly(r, w) for n, r in y_ref.items()})
    field = commutator(x, y)
    for n in range(1, w.n_c + 1):
        want = _ref_add(_ref_apply(y_ref, x_ref[n]), _ref_apply(x_ref, y_ref[n]), -1)
        assert _as_ref(field.component(n)) == want


def test_terms_round_trip_through_the_constructor():
    w = BracketWindow(5, 3, 5)
    p = (c(1, w) * c(1, w) * psi(-3, w) - psi(5, w).scale(QC(0, 2))) * c(5, w) + PhasePoly.constant(7, w)
    terms = p.terms()
    assert terms == {
        (((0, 1), 2), ((0, 5), 1), ((1, -3), 1)): QC(1),
        (((0, 5), 1), ((1, 5), 1)): QC(0, -2),
        (): QC(7),
    }
    assert PhasePoly(w, terms) == p
    for mono, coeff in terms.items():
        assert p.coefficient(mono) == coeff


def test_exponent_overflow_raises_and_never_carries():
    # each variable holds exponents below 2**15; reaching 2**15 raises
    # instead of carrying into the field of c_2
    p = c(1)
    for _ in range(14):
        p = p * p
    assert p.terms() == {(((0, 1), 2**14),): QC(1)}
    top = p * PhasePoly(W, {(((0, 1), 2**14 - 1),): 1})
    assert top.terms() == {(((0, 1), 2**15 - 1),): QC(1)}
    with pytest.raises(ExponentOverflow):
        p * p
    with pytest.raises(ExponentOverflow):
        top * c(1)
    with pytest.raises(ExponentOverflow):
        PhasePoly(W, {(((0, 1), 2**15),): 1})


def test_out_of_window_coefficient_and_diff_are_zero():
    p = c(1) * psi(-3) + c(6) * psi(6)
    for mono in [(((0, 7), 1),), (((1, -4), 1),), (((1, 7), 1),), (((0, 0), 1),)]:
        assert p.coefficient(mono) == QC(0)
    assert p.coefficient((((0, 1), 2**15),)) == QC(0)
    for kind, idx in [("c", 0), ("c", 7), ("psi", -4), ("psi", 7)]:
        assert p.diff(kind, idx).is_zero()
    assert p.diff("c", 6) == psi(6)
