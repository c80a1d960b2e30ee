"""Graph-operator construction and big-cell tests."""

import json
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from shapeflow.arrays import _hankel_table, _upper_toeplitz
from shapeflow.grassmannian import (
    GraphOperator,
    InverseCheckFailed,
    UnsupportedOrder,
    c_blocks,
    fprime_reciprocal,
    step2_graph,
)
from shapeflow.observables import BracketWindow, corrected_G, reciprocal_coefficients
from shapeflow.series import TruncatedSeries
from shapeflow.virasoro import kirillov_L

from helpers import (
    exact_c_blocks,
    exact_band,
    exact_fprime_reciprocal,
    exact_graph_rows,
    exact_step2_graph,
    in_big_cell,
    tuple_terms,
)


def _basis_operator(n, N, columns):
    """A GraphOperator around a hand-built basis, its positive rows as c11;
    columns list {power: coefficient}."""
    basis = np.zeros((n + N + 1, len(columns)), dtype=complex)
    for k, column in enumerate(columns):
        for power, value in column.items():
            basis[power + n, k] = value
    return GraphOperator(n=n, N=N, matrix=np.zeros((n, N + 1)), c11=basis[n:], basis=basis)


def test_big_cell_predicate_rejects_a_column_below_its_order():
    # a z^-1 column and no z^0 column: S = {-1, 1, 2}, not Z+, although the
    # virtual dimension is still 0
    op = _basis_operator(1, 2, [{-1: 1.0}, {1: 1.0}, {2: 1.0}])
    assert not in_big_cell(op)
    assert in_big_cell(_basis_operator(1, 2, [{-1: 1.0, 0: 1.0}, {1: 1.0}, {2: 1.0}]))
    # a graph of exact input is in the big cell exactly, and so is the
    # numeric graph of the same input
    c = [Fraction(1, 10), Fraction(-1, 3)]
    assert exact_step2_graph(c, 3, 6).c11.dtype == object
    assert in_big_cell(exact_step2_graph(c, 3, 6)) and in_big_cell(step2_graph(c, 3, 6))


@pytest.mark.parametrize("n", [16, 48])
def test_index_set_of_a_graph_with_large_rows_is_z_plus(n):
    # c_k = 0.8^k e^{ik}: the Gamma rows reach 1e18 at n = N = 48, far above
    # the unit C11 part, where a numerical column reduction of the basis is
    # unreliable; the positive rows stay C11 exactly
    c = [0.8**k * np.exp(1j * k) for k in range(1, 9)]
    op = step2_graph(c, n, n)
    assert np.abs(op.basis[: op.n]).max() > (1e18 if n == 48 else 1e3)
    assert in_big_cell(op)


def c12_cut(f_coeffs, n, N):
    """Step 1's n raw negative rows: row j - 1, column q carries (q+1+j) c_{q+j}
    = d_{q+j} (column q pairs with psibar_{q+1}), zero past the window."""
    _, d = exact_band(f_coeffs, N)
    return d[np.arange(1, n + 1)[:, None] + np.arange(N + 1)]


def step1_ttilde(f_coeffs, n, N):
    """Step 1's raw finite-rank operator: negative rows of the conjugated map times C11inv."""
    cbar = [v.conjugate() for v in f_coeffs]
    _, c11inv = exact_c_blocks(cbar, N)
    return c12_cut(cbar, n, N) @ c11inv


def test_c_blocks_identity_map():
    c11, c11inv = c_blocks([], 2, 6)
    c12 = c12_cut([], 2, 6)
    np.testing.assert_array_equal(c11, np.eye(7))
    np.testing.assert_array_equal(c11inv, np.eye(7))
    np.testing.assert_array_equal(c12, np.zeros((2, 7)))


def test_c_blocks_band_and_exact_inverse():
    c = [Fraction(1, 3), Fraction(-1, 5), Fraction(2, 7), Fraction(1, 11)]
    c11, c11inv = exact_c_blocks(c, 6)
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
    # the gather writes the zero np.triu writes: 0j for complex, int 0 for
    # object; square by default, else with rows below, equal to and above
    # len(band)
    size = len(band)
    for rows in (None, size - 1, size, size + 2, size + 9):
        lag = np.arange(size) - np.arange(size if rows is None else rows)[:, None]
        want = np.triu(band[np.abs(lag) % size])
        for _ in range(2):  # the second call reads the cached index table
            got = _upper_toeplitz(band, rows)
            assert got.dtype == want.dtype and got.shape == want.shape
            if band.dtype == object:
                assert [(type(x), x) for x in got.ravel()] == [(type(x), x) for x in want.ravel()]
            else:
                assert got.tobytes() == want.tobytes()
            got[...] = 9  # the result is the caller's own


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 5), (4, 1), (3, 17), (17, 3), (6, 6)])
def test_hankel_table_is_i_plus_j_plus_one(rows, cols):
    want = [[i + j + 1 for j in range(cols)] for i in range(rows)]
    for _ in range(2):  # the second call reads the cache
        table = _hankel_table(rows, cols)
        assert table.tolist() == want and table.shape == (rows, cols)
        assert not table.flags.writeable


def test_c_blocks_numeric_inverse_matches_linalg():
    rng = np.random.default_rng(7)
    c = 0.3 * (rng.normal(size=16) + 1j * rng.normal(size=16)) / np.arange(1, 17)
    c11, c11inv = c_blocks(c, 1, 16)
    assert np.abs(c11inv - np.linalg.inv(c11)).max() < 1e-12


def test_fprime_reciprocal_matches_series_reciprocal():
    # the recurrence keeps the bytes of TruncatedSeries.reciprocal on numbers,
    # and the exact builder its exact values on Fractions, for windows
    # shorter and longer than c
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
        got = exact_fprime_reciprocal(exact, N)
        want = TruncatedSeries(symbol).reciprocal().coeffs
        assert got.dtype == object and list(got) == list(want)
        assert all(isinstance(x, (int, Fraction)) for x in got)


def oracle_cases(seed, count):
    """Seeded (c, n, N) with n = 1..6 and N = n..32: every coefficient of the
    window c_1..c_{N+1} given as a Python complex, so neither path pads with
    zeros of its own, and about one in five a signed zero."""
    rng = np.random.default_rng(seed)
    zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    for _ in range(count):
        n = int(rng.integers(1, 7))
        N = int(rng.integers(n, 33))
        size = int(rng.integers(0, N + 2))
        c = 0.5 * (rng.normal(size=size) + 1j * rng.normal(size=size)) / np.arange(1, size + 1)
        c = [complex(x) for x in c] + [0j] * (N + 1 - size)
        for k in np.flatnonzero(rng.random(N + 1) < 0.2):
            c[k] = zeros[rng.integers(0, 4)]
        yield c, n, N


def test_numeric_graph_matches_exact_builder_bit_for_bit():
    # the exact builders run on Python complex values round each product and
    # sum as the complex128 path must: Gamma, C11 and C11inv, the f'
    # reciprocal, and T as one product of the pinned blocks; n >= 4 runs the
    # powers of u = z/f
    def same(got, want):
        assert got.dtype == complex and got.tobytes() == want.astype(complex).tobytes()

    count = 0
    for c, n, N in oracle_cases(42, 400):
        same(fprime_reciprocal(c, N), exact_fprime_reciprocal(c, N))
        for got, want in zip(c_blocks(c, n, N), exact_c_blocks(c, N)):
            same(got, want)
        cbar = [v.conjugate() for v in c]
        gamma = exact_graph_rows(cbar, n, N).astype(complex)
        c11, c11inv = (block.astype(complex) for block in exact_c_blocks(cbar, N))
        op = step2_graph(c, n, N)
        same(op.basis, np.vstack([gamma[::-1], c11]))
        same(op.c11, c11)
        same(op.matrix, gamma @ c11inv)
        count += n >= 4
    assert count > 100


@pytest.mark.parametrize(
    "build",
    [
        lambda c: step2_graph(c, 2, 4).basis,
        lambda c: np.concatenate(c_blocks(c, 2, 4)),
        lambda c: fprime_reciprocal(c, 4),
    ],
    ids=["step2_graph", "c_blocks", "fprime_reciprocal"],
)
def test_graph_input_is_numbers_only(build):
    # a Fraction is read as its float; a symbol fails the complex conversion
    exact = [Fraction(1, 3), Fraction(-2, 7), Fraction(1, 5)]
    got = build(exact)
    assert got.dtype == complex
    assert got.tobytes() == build([float(x) for x in exact]).tobytes()
    with pytest.raises(TypeError):
        build([sp.Symbol("c1", real=True), 0.1])


def test_inverse_check_rejects_a_non_finite_residual():
    # c_1 = 1e200 overflows the Toeplitz inverse: the residual is NaN, which
    # a plain `resid > 1e-12` test let through
    with np.errstate(all="ignore"):
        with pytest.raises(InverseCheckFailed, match="triangular inverse check failed: nan"):
            step2_graph([1e200], 1, 4)
    assert issubclass(InverseCheckFailed, ArithmeticError)


def test_cut_rows_follow_raw_tail_pattern():
    c = [Fraction(k, k + 3) for k in range(1, 7)]
    c12 = c12_cut(c, 3, 6)
    # row j, column q carries (q+1+j) c_{q+j}
    for j in range(1, 4):
        for q in range(7):
            want = (q + 1 + j) * c[q + j - 1] if q + j <= 6 else 0
            assert c12[j - 1, q] == want


def test_step1_identity_and_reexpression():
    assert np.abs(step1_ttilde([], 2, 8)).max() == 0
    c = [Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)]
    t1 = step1_ttilde(c, 1, 8)
    c11, _ = exact_c_blocks(c, 8)
    c12 = c12_cut(c, 1, 8)
    back = t1 @ c11
    # undoing the change of coordinates recovers the raw tail row
    # sum_k (k+1) c_k psibar_k
    for q in range(9):
        assert back[0, q] == c12[0, q]


def sympy_coeffs(N):
    return [sp.Symbol(f"c{i}", real=True) for i in range(1, N + 1)]


def test_basis_closed_forms_through_z3():
    c = sympy_coeffs(8)
    op = exact_step2_graph(c, 3, 8)
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
    for mono, (re, im) in tuple_terms(poly).items():
        assert im == 0
        term = Fraction(re)
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
    row = exact_step2_graph(c, 3, N).basis[0]  # Gamma's row 2, the first basis row at n = 3
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
    basis = exact_step2_graph(c, n, N).basis
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
    assert in_big_cell(op)


def test_unsupported_order():
    for n in (0, -1):
        with pytest.raises(UnsupportedOrder):
            step2_graph([0.1], n, 8)
    assert in_big_cell(step2_graph([0.1], 4, 8))


def test_membership_unit_vector_is_e0():
    rng = np.random.default_rng(3)
    c = 0.2 * (rng.normal(size=8) + 1j * rng.normal(size=8)) / np.arange(1, 9)
    op = step2_graph(c, 2, 8)
    psi = np.zeros(9, dtype=complex)
    psi[0] = 1.0
    assert np.abs(op.basis[:, 0] - op.basis @ psi).max() == 0.0


def test_membership_identity_map():
    rng = np.random.default_rng(4)
    psi = rng.normal(size=9) + 1j * rng.normal(size=9)
    op = step2_graph([], 3, 8)
    g = np.concatenate([[0, 0, 0], psi])
    assert np.abs(g - op.basis @ psi).max() < 1e-15


def test_membership_dual_route_small_residual():
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(12):
        n = 1 + trial % 3
        c = 0.3 * (rng.normal(size=16) + 1j * rng.normal(size=16)) / np.arange(1, 17)
        psi = rng.normal(size=17) + 1j * rng.normal(size=17)
        op = step2_graph(c, n, 16)
        # the T route: positive part C11 psi, negative part T (C11 psi),
        # against the basis route sum_k psi[k] e_k
        pos = op.c11 @ psi
        g = np.concatenate([(op.matrix @ pos)[::-1], pos])
        worst = max(worst, np.abs(g - op.basis @ psi).max())
        assert in_big_cell(op)
    assert worst < 1e-10


def test_json_dump_deterministic():
    op = step2_graph([0.1 + 0.2j, -0.05], 2, 5)
    blob = op.to_json()
    assert blob == step2_graph([0.1 + 0.2j, -0.05], 2, 5).to_json()
    data = json.loads(blob)
    assert data["n"] == 2 and data["N"] == 5
    assert data["c11_band"][1] == [0.2, -0.4]  # band built from conj(c)
    assert len(data["basis"]) == 6 and data["basis"][0]["lo"] == -2


def test_json_dump_writes_each_entry_as_its_float_pair():
    # the whole-array dump writes the bytes of a per-entry [re, im] dump,
    # signed zeros included
    def ri(x):
        x = complex(x)
        return [x.real, x.imag]

    for c, n, N in oracle_cases(7, 30):
        op = step2_graph(c, n, N)
        payload = {
            "n": n,
            "N": N,
            "T": [[ri(x) for x in row] for row in op.matrix],
            "c11_band": [ri(op.c11[0, m]) for m in range(N + 1)],
            "basis": [{"lo": -n, "coeffs": [ri(x) for x in e]} for e in op.basis.T],
        }
        assert op.to_json() == json.dumps(payload, sort_keys=True, allow_nan=False)


def test_json_dump_refuses_non_finite_values():
    op = step2_graph([0.1], 1, 3)
    op.matrix[0, 1] = np.nan
    with pytest.raises(ValueError):
        op.to_json()
