"""Graph-operator construction and index bookkeeping tests."""

from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from shapeflow.grassmannian import (
    GraphOperator,
    _upper_toeplitz,
    IndexSet,
    InverseCheckFailed,
    UnsupportedOrder,
    c_blocks,
    fprime_reciprocal,
    graph_membership,
    step1_ttilde,
    step2_graph,
    virtual_dimension,
)
from shapeflow.observables import BracketWindow, corrected_G, reciprocal_coefficients
from shapeflow.series import TruncatedSeries
from shapeflow.virasoro import kirillov_L


def test_virtual_dimension_examples():
    assert virtual_dimension(IndexSet(frozenset(), frozenset())) == 0
    assert virtual_dimension(IndexSet(frozenset({-1}), frozenset())) == 1
    assert virtual_dimension(IndexSet(frozenset(), frozenset({0}))) == -1
    with pytest.raises(ValueError):
        IndexSet(frozenset({1}), frozenset())
    with pytest.raises(ValueError):
        IndexSet(frozenset(), frozenset({-2}))


def _basis_operator(n, N, columns):
    """A GraphOperator around a hand-built basis; columns list {power: coefficient}."""
    basis = np.zeros((n + N + 1, len(columns)), dtype=complex)
    for k, column in enumerate(columns):
        for power, value in column.items():
            basis[power + n, k] = value
    empty = np.zeros((0, 0))
    return GraphOperator(n=n, N=N, matrix=empty, c11=empty, c11_inv=empty, basis=basis)


def test_index_set_reads_each_column_at_its_order():
    # a z^-1 column and no z^0 column: S = {-1, 1, 2}
    op = _basis_operator(1, 2, [{-1: 1.0}, {1: 1.0}, {2: 1.0}])
    assert op.index_set() == IndexSet(frozenset({-1}), frozenset({0}))
    assert op.virtual_dimension() == 0
    # the order is the highest power, however small its coefficient against
    # the others; a repeated order is reduced below, a dependent column dropped
    op = _basis_operator(1, 2, [{-1: 1e40, 1: 1e-3}, {-1: 2.0, 0: 5.0, 1: 3.0}, {-1: 2e40, 1: 2e-3}])
    assert op.index_set() == IndexSet(frozenset(), frozenset({2}))
    assert op.virtual_dimension() == -1


@pytest.mark.parametrize("n", [16, 48])
def test_index_set_of_a_graph_with_large_rows_is_z_plus(n):
    # c_k = 0.8^k e^{ik}: the Gamma rows reach 1e18 at n = N = 48, far above
    # the unit C11 part; pivoting on the largest entry read dimension -10 there,
    # and 8 added with 8 removed at n = N = 16
    c = [0.8**k * np.exp(1j * k) for k in range(1, 9)]
    op = step2_graph(c, n, n)
    assert op.index_set() == IndexSet(frozenset(), frozenset())
    assert op.virtual_dimension() == 0


def test_c_blocks_identity_map():
    c11, c12, c11inv = c_blocks([], 2, 6)
    np.testing.assert_array_equal(c11, np.eye(7))
    np.testing.assert_array_equal(c11inv, np.eye(7))
    np.testing.assert_array_equal(c12, np.zeros((2, 7)))


def test_c_blocks_band_and_exact_inverse():
    c = [Fraction(1, 3), Fraction(-1, 5), Fraction(2, 7), Fraction(1, 11)]
    c11, c12, c11inv = c_blocks(c, 3, 6)
    first = [c11[0, m] for m in range(5)]
    assert first == [1, 2 * c[0], 3 * c[1], 4 * c[2], 5 * c[3]]
    prod = c11 @ c11inv
    for k in range(7):
        for m in range(7):
            assert prod[k, m] == (1 if k == m else 0)


@pytest.mark.parametrize(
    "band",
    [
        np.array([1.0, -0.0j, complex(-0.0, -0.0), 2 - 1j]),
        np.array([1, Fraction(1, 3), Fraction(-2, 5)], dtype=object),
        np.array([0.5 + 0.5j]),
    ],
    ids=["complex", "object", "one"],
)
def test_upper_toeplitz_matches_triu(band):
    # the gather writes the zero np.triu writes: 0j for complex, int 0 for object
    idx = np.arange(len(band))
    want = np.triu(band[np.abs(idx - idx[:, None])])
    for _ in range(2):  # the second call reads the cached index table
        got = _upper_toeplitz(band)
        assert got.dtype == want.dtype and got.shape == want.shape
        if band.dtype == object:
            assert [(type(x), x) for x in got.ravel()] == [(type(x), x) for x in want.ravel()]
        else:
            assert got.tobytes() == want.tobytes()
        got[0, 0] = 9  # the result is the caller's own


def test_c_blocks_numeric_inverse_matches_linalg():
    rng = np.random.default_rng(7)
    c = 0.3 * (rng.normal(size=16) + 1j * rng.normal(size=16)) / np.arange(1, 17)
    c11, _, c11inv = c_blocks(c, 1, 16)
    assert np.abs(c11inv - np.linalg.inv(c11)).max() < 1e-12


def test_fprime_reciprocal_matches_series_reciprocal():
    # the recurrence keeps the bytes of TruncatedSeries.reciprocal on numbers
    # and its exact values on Fractions, for windows shorter and longer than c
    rng = np.random.default_rng(17)
    for N in range(0, 33):
        size = int(rng.integers(0, 20))
        c = 0.5 * (rng.normal(size=size) + 1j * rng.normal(size=size)) / np.arange(1, size + 1)
        coeffs = list(np.conj(c))
        symbol = [1] + [(j + 1) * (coeffs[j - 1] if j <= size else 0) for j in range(1, N + 1)]
        got = fprime_reciprocal(coeffs, N)
        assert got.dtype == complex
        assert got.tobytes() == TruncatedSeries(symbol).reciprocal().coeffs.tobytes()
        exact = [Fraction(int(k), 7) for k in rng.integers(-5, 6, size=size + 1)]
        symbol = [1] + [(j + 1) * (exact[j - 1] if j <= size + 1 else 0) for j in range(1, N + 1)]
        got = fprime_reciprocal(exact, N)
        want = TruncatedSeries(symbol).reciprocal().coeffs
        assert got.dtype == object and list(got) == list(want)
        assert all(isinstance(x, (int, Fraction)) for x in got)


def test_inverse_check_rejects_a_non_finite_residual():
    # c_1 = 1e200 overflows the Toeplitz inverse: the residual is NaN, which
    # a plain `resid > 1e-12` test let through
    with np.errstate(all="ignore"):
        with pytest.raises(InverseCheckFailed, match="triangular inverse check failed: nan"):
            step2_graph([1e200], 1, 4)
    assert issubclass(InverseCheckFailed, ArithmeticError)


def test_cut_rows_follow_raw_tail_pattern():
    c = [Fraction(k, k + 3) for k in range(1, 7)]
    _, c12, _ = c_blocks(c, 3, 6)
    # row j, column q carries (q+1+j) c_{q+j}
    for j in range(1, 4):
        for q in range(7):
            want = (q + 1 + j) * c[q + j - 1] if q + j <= 6 else 0
            assert c12[j - 1, q] == want


def test_step1_identity_and_reexpression():
    assert np.abs(step1_ttilde([], 2, 8)).max() == 0
    c = [Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)]
    t1 = step1_ttilde(c, 1, 8)
    c11, c12, _ = c_blocks(c, 1, 8)
    back = t1 @ c11
    # undoing the change of coordinates recovers the raw tail row
    # sum_k (k+1) c_k psibar_k
    for q in range(9):
        assert back[0, q] == c12[0, q]


def sympy_coeffs(N):
    return [sp.Symbol(f"c{i}", real=True) for i in range(1, N + 1)]


def test_basis_closed_forms_through_z3():
    c = sympy_coeffs(8)
    op = step2_graph(c, 3, 8)
    c1, c2, c3, c4, c5 = c[:5]
    display = {
        (0, 0): sp.Integer(1),
        (0, -1): c1,
        (0, -2): 3 * c2 - 2 * c1**2,
        (0, -3): 5 * c3 + 2 * c1**3 - 6 * c1 * c2,
        (1, 1): sp.Integer(1),
        (1, 0): 2 * c1,
        (1, -1): 2 * c2,
        (1, -2): 4 * c3 - 2 * c1 * c2,
        (1, -3): 6 * c4 - 5 * c2**2 + 4 * c1**2 * c2 - 2 * c1 * c3 - c1**4,
        (2, 2): sp.Integer(1),
        (2, 1): 2 * c1,
        (2, 0): 3 * c2,
        (2, -1): 3 * c3,
        (2, -2): 5 * c4 - 2 * c1 * c3,
        (2, -3): 7 * c5 - 6 * c2 * c3 + 4 * c1**2 * c3 + 3 * c1 * c2**2
        - 2 * c1 * c4 - 4 * c1**3 * c2 + c1**5,
    }
    for (k, power), want in display.items():
        got = op.basis[power + op.n, k]
        assert sp.expand(got - want) == 0, (k, power)


def test_basis_negative_parts_match_observable_gradients():
    rng = np.random.default_rng(21)
    N = 10
    c = 0.4 * (rng.normal(size=N) + 1j * rng.normal(size=N)) / np.arange(1, N + 1)
    op = step2_graph(c, 3, N)
    w = BracketWindow(n_c=N, m_neg=0, n_psi=N + 1)
    cbar = {i + 1: np.conj(c[i]) for i in range(N)}
    for j in (1, 2, 3):
        g = corrected_G(1 - j, w)
        for k in range(N + 1):
            grad = g.diff("psi", k + 1).evaluate(cbar, {})
            assert abs(op.basis[op.n - j, k] - grad) < 1e-12, (j, k)


def _exact_at(poly, c):
    """A polynomial in c_1, c_2, ... at the real rational point c (zero past it), exactly."""
    total = Fraction(0)
    for mono, q in poly.terms().items():
        assert q.im == 0
        term = Fraction(q.re)
        for (_, idx), e in mono:
            term *= (c[idx - 1] if idx <= len(c) else 0) ** e
        total += term
    return total


def test_row_two_drops_reciprocal_coefficients_past_the_window():
    # row 2 of Gamma (step2_graph's closed form for L_-2 f) is the
    # psibar_k-gradient of G_-2 at cbar except at k = N-1..N+1, where a_{k+2}
    # lies past the window and is dropped; the untruncated gradient comes
    # from corrected_G(-2) on a window three wider
    N = 16
    rng = np.random.default_rng(5)
    c = [Fraction(int(rng.integers(-9, 10)), 10 * n * n) for n in range(1, N + 1)]
    row = step2_graph(c, 3, N).basis[0]  # Gamma's row 2, the first basis row at n = 3
    w = BracketWindow(n_c=N + 3, m_neg=0, n_psi=N + 1)
    g = corrected_G(-2, w)
    a = reciprocal_coefficients(N + 3, w)
    for k in range(1, N + 2):
        grad = _exact_at(g.diff("psi", k), c)
        dropped = _exact_at(a[k + 2], c) if k >= N - 1 else 0
        assert row[k - 1] - grad == dropped, k
        if k >= N - 1:
            assert dropped != 0, k


def test_rows_three_to_five_are_kirillov_fields_inside_the_window():
    # row r of Gamma is L_{-r} at cbar where no term lies past the window,
    # k <= N - r, and differs from it at every k > N - r; the exact field
    # comes from the recursion of kirillov_L on a window n + 2 wider
    N, n = 12, 6
    rng = np.random.default_rng(8)
    c = [Fraction(int(rng.integers(-9, 10)), 10 * m * m) for m in range(1, N + 3)]
    basis = step2_graph(c, n, N).basis
    w = BracketWindow(n_c=N + n + 2, m_neg=0, n_psi=N + 1)
    for r in (3, 4, 5):
        field = kirillov_L(-r, w)
        row = basis[n - 1 - r]
        for k in range(1, N + 2):
            diff = row[k - 1] - _exact_at(field.component(k), c)
            assert (diff == 0) == (k <= N - r), (r, k)


def test_identity_map_graph_is_canonical():
    op = step2_graph([], 2, 6)
    assert np.abs(op.matrix).max() == 0
    for k in range(7):
        for p in range(-2, 7):
            assert op.basis[p + op.n, k] == (1 if p == k else 0)
    assert op.virtual_dimension() == 0


def test_unsupported_order():
    for n in (0, -1):
        with pytest.raises(UnsupportedOrder):
            step2_graph([0.1], n, 8)
    assert step2_graph([0.1], 4, 8).virtual_dimension() == 0


def test_membership_unit_vector_is_e0():
    rng = np.random.default_rng(3)
    c = 0.2 * (rng.normal(size=8) + 1j * rng.normal(size=8)) / np.arange(1, 9)
    op = step2_graph(c, 2, 8)
    psi = np.zeros(9, dtype=complex)
    psi[0] = 1.0
    assert graph_membership(op.basis[:, 0], op, psi) == 0.0


def test_membership_identity_map():
    rng = np.random.default_rng(4)
    psi = rng.normal(size=9) + 1j * rng.normal(size=9)
    op = step2_graph([], 3, 8)
    g = np.concatenate([[0, 0, 0], psi])
    assert graph_membership(g, op, psi) < 1e-15


def test_membership_dual_route_small_residual():
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(12):
        n = 1 + trial % 3
        c = 0.3 * (rng.normal(size=16) + 1j * rng.normal(size=16)) / np.arange(1, 17)
        psi = rng.normal(size=17) + 1j * rng.normal(size=17)
        op = step2_graph(c, n, 16)
        g = op.element_from_psi(psi)
        worst = max(worst, graph_membership(g, op, psi))
        assert op.virtual_dimension() == 0
    assert worst < 1e-10


def test_membership_window_check():
    op = step2_graph([0.1], 2, 6)
    too_narrow = np.ones(8)
    with pytest.raises(ValueError):
        graph_membership(too_narrow, op, np.zeros(7))
    with pytest.raises(ValueError):
        graph_membership(np.ones(10), op, np.zeros(7))


def test_json_dump_deterministic():
    op = step2_graph([0.1 + 0.2j, -0.05], 2, 5)
    blob = op.to_json()
    assert blob == step2_graph([0.1 + 0.2j, -0.05], 2, 5).to_json()
    import json

    data = json.loads(blob)
    assert data["n"] == 2 and data["N"] == 5
    assert data["c11_band"][1] == [0.2, -0.4]  # band built from conj(c)
    assert len(data["basis"]) == 6 and data["basis"][0]["lo"] == -2


def test_json_dump_refuses_non_finite_values():
    op = step2_graph([0.1], 1, 3)
    op.matrix[0, 1] = np.nan
    with pytest.raises(ValueError):
        op.to_json()
