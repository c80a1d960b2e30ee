"""Vector-field algebra and contour-variation tests."""

import concurrent.futures
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from shapeflow import virasoro
from shapeflow.checks import _field_closed_form
from shapeflow.observables import (
    QC,
    BracketWindow,
    PhasePoly,
    WindowMismatch,
    WindowTooSmall,
    corrected_G,
    gbar_coefficient,
    iota,
)
from shapeflow.series import TruncatedSeries
from shapeflow.virasoro import (
    QuadratureDegenerate,
    VectorFieldOnF0,
    _has_close_pair,
    commutator,
    kirillov_L,
    schaeffer_spencer,
)

W16 = BracketWindow(n_c=16, m_neg=0, n_psi=16)


def test_field_shapes_at_identity():
    l1 = kirillov_L(1, W16)
    assert l1.component(1) == PhasePoly.constant(1, W16)
    assert l1.component(2) == PhasePoly.c(1, W16).scale(2)
    zeros = {n: p.evaluate({m: 0.0 for m in range(1, 17)}) for n, p in
             kirillov_L(0, W16).components.items()}
    assert all(abs(v) < 1e-15 for v in zeros.values())


def test_window_too_small():
    small = BracketWindow(n_c=2, m_neg=0, n_psi=2)
    with pytest.raises(WindowTooSmall):
        kirillov_L(5, small)
    with pytest.raises(WindowTooSmall):
        kirillov_L(-2, small)
    with pytest.raises(WindowTooSmall):
        kirillov_L(-4, BracketWindow(n_c=4, m_neg=0, n_psi=4))


def test_L_minus_one_needs_c_2():
    with pytest.raises(WindowTooSmall, match="^L_-1 needs c indices up to 2$"):
        kirillov_L(-1, BracketWindow(n_c=1, m_neg=0, n_psi=1))


def test_commutator_window_mismatch_and_self():
    other = BracketWindow(n_c=8, m_neg=0, n_psi=8)
    with pytest.raises(WindowMismatch):
        commutator(kirillov_L(1, W16), kirillov_L(1, other))
    x = kirillov_L(2, W16)
    assert not commutator(x, x).components


def test_same_index_distinct_copies_commute():
    w = BracketWindow(n_c=8, m_neg=0, n_psi=8)
    for k in (-2, 0, 3):
        x, y = kirillov_L(k, w), kirillov_L(k, w)
        assert x is not y
        out = commutator(x, y).restricted(8 + min(k, 0), c_max=8 + min(k, 0))
        assert not out.components


def test_witt_relations_on_representative_pairs():
    fields = {k: kirillov_L(k, W16) for k in range(-2, 6)}
    for k in (-2, -1, 0, 1, 3):
        for n in (-1, 1, 2, 5):
            if k >= n:
                continue
            got = commutator(fields[k], fields[n]).restricted(12, c_max=12)
            want = kirillov_L(k + n, W16).scale(n - k).restricted(12, c_max=12)
            assert got == want, (k, n)


def test_negative_recursion_matches_hand_derived():
    w = BracketWindow(n_c=10, m_neg=0, n_psi=10)
    lm3 = kirillov_L(-3, w)

    def mono(coef, *cs):
        out = PhasePoly.constant(coef, w)
        for idx in cs:
            out = out * PhasePoly.c(idx, w)
        return out

    # derived once by hand from [L_{-1}, L_{-2}] = -L_{-3}
    comp1 = (
        mono(7, 4) + mono(-8, 1, 3) + mono(6, 1, 1, 2) + mono(-3, 2, 2)
        + mono(-1, 1, 1, 1, 1)
    )
    comp2 = (
        mono(8, 5) + mono(-2, 1, 4) + mono(4, 1, 1, 3) + mono(-12, 2, 3)
        + mono(10, 1, 2, 2) + mono(-8, 1, 1, 1, 2) + mono(2, 1, 1, 1, 1, 1)
    )
    assert lm3.component(1) == comp1
    assert lm3.component(2) == comp2


def test_recursive_field_satisfies_witt_with_closed_forms():
    w = BracketWindow(n_c=10, m_neg=0, n_psi=10)
    lm3 = kirillov_L(-3, w)
    got = commutator(lm3, kirillov_L(3, w)).restricted(4)
    assert got == kirillov_L(0, w).scale(6).restricted(4)
    got2 = commutator(kirillov_L(2, w), lm3).restricted(5)
    assert got2 == kirillov_L(-1, w).scale(-5).restricted(5)


def apply_field(x, poly):
    """Derivative of a c-polynomial along a field: sum_m X_m dpoly/dc_m."""
    out = PhasePoly.zero(x.window)
    for m, comp in x.components.items():
        out = out + comp * poly.diff("c", m)
    return out


def two_pass_commutator(x, y):
    """Reference bracket: each component as two derivatives and a subtraction."""
    keys = set(x.components) | set(y.components)
    return VectorFieldOnF0(
        x.window,
        {n: apply_field(y, x.component(n)) - apply_field(x, y.component(n)) for n in keys},
    )


@pytest.mark.parametrize("m_neg", [0, 2])
def test_commutator_matches_two_pass_definition(m_neg):
    # L_{-3} and L_{-4} carry Fraction coefficients from the recursion
    w = BracketWindow(n_c=10, m_neg=m_neg, n_psi=10)
    fields = {a: kirillov_L(a, w) for a in range(-4, 5)}
    for a, x in fields.items():
        for b, y in fields.items():
            assert commutator(x, y) == two_pass_commutator(x, y), (a, b)


def test_fields_agree_with_observable_lift():
    w = BracketWindow(n_c=10, m_neg=2, n_psi=10)
    for k in range(1, 6):
        assert iota(gbar_coefficient(k, w)) == kirillov_L(k, w)
    for j in (0, -1, -2):
        assert iota(corrected_G(j, w)) == kirillov_L(j, w)


def sample_map():
    c = [0.12, -0.08 + 0.05j, 0.04, -0.02j, 0.01, 0.005j]
    return TruncatedSeries([0, 1] + c)


def test_quadrature_identity_map():
    f = TruncatedSeries([0, 1])
    for k, want in ((1, [0, 0, 1]), (2, [0, 0, 0, 1]), (0, [0, 0])):
        (got,) = schaeffer_spencer(f.coeffs, [k])
        np.testing.assert_allclose(
            got, np.array(want, dtype=complex), atol=1e-12
        )


def test_quadrature_matches_closed_forms():
    f = sample_map()
    zs = 0.5 * np.exp(2j * np.pi * np.arange(257) / 257)
    for k in (-1, 0, 1, 2, 3):
        (got,) = schaeffer_spencer(f.coeffs, [k])
        want = _field_closed_form(f, k)
        sup = np.abs(np.polyval(got[::-1], zs) - want.evaluate(zs)).max()
        assert sup < 1e-10, (k, sup)


def test_closed_form_has_no_degree_below_minus_one():
    with pytest.raises(ValueError, match="^-2$"):
        _field_closed_form(TruncatedSeries([0.0, 1.0, 0.2]), -2)


def test_quadrature_low_coefficients_exact():
    f = sample_map()
    got = TruncatedSeries(schaeffer_spencer(f.coeffs, [1])[0])
    want = _field_closed_form(f, 1)
    for j in range(10):
        assert abs(got.coeff(j) - complex(want.coeff(j))) < 1e-11


def test_quadrature_degenerate_interior_collision():
    f = TruncatedSeries([0, 1, -2.0 / 3.0])  # f(1) == f(1/2) exactly
    with pytest.raises(QuadratureDegenerate):
        schaeffer_spencer(f.coeffs, [1])


def test_quadrature_rejects_folded_boundary():
    f = TruncatedSeries([0, 1, -1 / np.sqrt(2)])  # f(e^{i pi/4}) == f(e^{-i pi/4})
    with pytest.raises(QuadratureDegenerate):
        schaeffer_spencer(f.coeffs, [1])


def whole_matrix_schaeffer_spencer(f, k, Q=None, n_min=64):
    """Reference quadrature: each matrix of quotients over f(w) - f(z) built at once.

    n_z is n_min doubled until it is at least 2(d + 1) for the output degree
    d; the default n_min is the kernel's own rule.  A given Q fixes the
    boundary rule at Q points.  Without one, the rule is the kernel's: the
    128-point rule, doubled while its mean misses the mean over every other
    point by more than 1e-10 of the larger of the largest mean and the
    largest weight; a doubled rule adds the sums at its new points to the
    old sums, and the 2048-point rule sums all its points at once.
    """
    r = 0.5
    f = np.asarray(f, dtype=complex)
    order_out = len(f) - 1 + max(k, 0)
    n_z = n_min
    while n_z < 2 * (order_out + 1):
        n_z *= 2
    fz = np.polyval(f[::-1], r * np.exp(2j * np.pi * np.arange(n_z) / n_z))

    def quotients(Q):
        """The weights of the Q-point rule and the n_z-by-Q matrix of their quotients."""
        w = np.exp(1j * 2 * np.pi * np.arange(Q) / Q)
        fw = np.polyval(f[::-1], w)
        fpw = np.polyval((np.arange(1, len(f)) * f[1:])[::-1], w)
        weight = (w * fpw / fw) ** 2 * w**k
        return weight, weight[None, :] / (fw[None, :] - fz[:, None])

    if Q is not None:
        mean = quotients(Q)[1].mean(axis=1)
    else:
        Q = 128
        weight, quot = quotients(Q)
        sums, halves = quot.sum(axis=1), quot[:, ::2].sum(axis=1)
        while Q < 2048:
            scale = max(np.abs(sums / Q).max(), np.abs(weight).max())
            if np.abs(sums / Q - halves / (Q // 2)).max() <= 1e-10 * scale:
                break
            Q, halves = 2 * Q, sums
            weight, quot = quotients(Q)
            if Q == 2048:
                sums = quot.sum(axis=1)
            else:
                # the new points summed on their own, then added to the old sums
                sums = np.ascontiguousarray(quot[:, 1::2]).sum(axis=1) + halves
        mean = sums / Q
    lam = np.fft.fft(fz**2 * mean) / n_z
    return lam[: order_out + 1] / r ** np.arange(order_out + 1)


def seeded_map(rng, order):
    j = np.arange(1, order)
    return np.concatenate([[0.0, 1.0], 0.5**j / j * np.exp(2j * np.pi * rng.uniform(size=j.size))])


# order 20 keeps n_z = 64 interior points for every k below and order 70
# needs 256; order 60 takes 128 for k <= 3 and 256 for k = 5, so one call
# on all of them makes two passes.  Orders 20 and 70 stop at the 128-point
# boundary rule, order 40 goes up to 512 points, order 39 to 1024 and order
# 60 to the 2048-point cap
@pytest.mark.parametrize("order", [20, 39, 40, 60, 70])
def test_quadrature_matches_whole_matrix_bit_for_bit(order):
    f = seeded_map(np.random.default_rng(order), order)
    ks = (-2, -1, 0, 1, 2, 3, 5)
    # an array of numpy integers is a sequence of ints too
    together = schaeffer_spencer(f, np.array(ks))
    assert len(together) == len(ks)
    for k, shared in zip(ks, together):
        (got,) = schaeffer_spencer(f, [k])
        assert got.tobytes() == whole_matrix_schaeffer_spencer(f, k).tobytes(), k
        assert shared.tobytes() == got.tobytes(), k


def boundary_columns(monkeypatch, f, ks):
    """The column counts of the row-sum calls one schaeffer_spencer call makes."""
    columns = []
    row_sums = virasoro._row_sums

    def counted(fw, *args):
        columns.append(len(fw))
        return row_sums(fw, *args)

    with monkeypatch.context() as patch:
        patch.setattr(virasoro, "_row_sums", counted)
        schaeffer_spencer(f, ks)
    return columns


def test_quadrature_at_the_cap_returns_the_fixed_rule(monkeypatch):
    # a near-critical map: its 128-point rule misses by order one, and its
    # 1024-point rule still misses the 2048-point rule by 7e-6
    f = seeded_map(np.random.default_rng(60), 60)
    for k in (-2, -1, 0, 1, 2, 3, 5):
        # the 128-point rule, the new points of 256, 512 and 1024, then all
        assert boundary_columns(monkeypatch, f, [k]) == [128, 128, 256, 512, 2048], k
        (got,) = schaeffer_spencer(f, [k])
        assert got.tobytes() == whole_matrix_schaeffer_spencer(f, k, Q=2048).tobytes(), k


def test_quadrature_between_the_first_rule_and_the_cap(monkeypatch):
    f = seeded_map(np.random.default_rng(2), 30)
    zs = 0.5 * np.exp(2j * np.pi * np.arange(257) / 257)
    for k in (-2, -1, 0, 1, 2, 3, 5):
        # the 128-point rule, then the new points of 256 and 512
        assert boundary_columns(monkeypatch, f, [k]) == [128, 128, 256], k
        (got,) = schaeffer_spencer(f, [k])
        ref = np.polyval(whole_matrix_schaeffer_spencer(f, k, Q=2048)[::-1], zs)
        first = np.polyval(whole_matrix_schaeffer_spencer(f, k, Q=128)[::-1], zs)
        sup = np.abs(np.polyval(got[::-1], zs) - ref).max()
        assert sup <= 1e-14 * np.abs(ref).max(), (k, sup)
        # negative control: the first rule alone misses by far more
        miss = np.abs(first - ref).max()
        assert miss > 1e-11 * np.abs(ref).max(), (k, miss)


# maps of degree 2 and 3, whose 64 interior points are set by the floor of
# the rule alone; f' vanishes near the unit circle for the first
LOW_DEGREE_MAPS = ([0, 1, 0.49], [0, 1, -0.45j, 0.02], [0, 1, 0.3, 0.05j])


# the maps of the two quadrature checks, then those of degree 2 and 3
SMOOTH_MAPS = (
    [0.0, 1.0] + [0.0] * 7,
    sample_map().coeffs,
    *LOW_DEGREE_MAPS,
)


@pytest.mark.parametrize("f", SMOOTH_MAPS)
@pytest.mark.parametrize("k", [-3, -2, -1, 0, 1, 2, 3, 5])
def test_quadrature_stops_at_the_first_boundary_rule_on_smooth_maps(monkeypatch, k, f):
    assert boundary_columns(monkeypatch, f, [k]) == [128]


# The images of k <= -2 are power series, not polynomials, so they alias
# into the transform, and no closed form in checks covers them.  Component n
# of L_k is coefficient n + 1 of the variation.  The window holds every
# nonzero c of the maps below, and its components n <= 12 + k are those of
# the untruncated field.  Two maps are also zero-padded to 16 coefficients,
# where the output degree, not the floor, sets n_z.
@pytest.mark.parametrize("k", [-2, -3])
@pytest.mark.parametrize("f, size, tol", [
    *((f, len(f), 1e-13) for f in LOW_DEGREE_MAPS),
    *((f, 16, 2e-14) for f in LOW_DEGREE_MAPS[:2]),
])
def test_quadrature_matches_kirillov_fields_below_minus_one(k, f, size, tol):
    f = np.concatenate([np.asarray(f, dtype=complex), np.zeros(size - len(f))])
    field = kirillov_L(k, BracketWindow(n_c=12, m_neg=0, n_psi=1))
    c = {n: f[n + 1] for n in range(1, size - 1)}
    (got,) = schaeffer_spencer(f, [k])
    n_max = min(size - 2, 12 + k)
    want = [field.component(n).evaluate(c) for n in range(1, n_max + 1)]
    np.testing.assert_allclose(got[2 : n_max + 2], want, rtol=0, atol=tol)


@pytest.mark.parametrize("k", [-2, -3])
@pytest.mark.parametrize("f", LOW_DEGREE_MAPS)
def test_quadrature_below_minus_one_matches_dense_reference(k, f):
    # 1024 interior points and 2048 boundary points push the aliasing and
    # the trapezoid error of the reference far below roundoff; the kernel's
    # 64 interior points and its own boundary rule must match it on |z| = 1/2
    (got,) = schaeffer_spencer(f, [k])
    want = whole_matrix_schaeffer_spencer(f, k, Q=2048, n_min=1024)
    zs = 0.5 * np.exp(2j * np.pi * np.arange(257) / 257)
    ref = np.polyval(want[::-1], zs)
    sup = np.abs(np.polyval(got[::-1], zs) - ref).max()
    assert sup <= 1e-14 * np.abs(ref).max(), sup


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_quadrature_collision_in_any_row_block(where):
    # f = z - (2/3) z^2 has f(1) == f(1/2); rotating the map by the angle of
    # interior point i moves that collision onto row i of the quadrature
    n_z = 64
    i = {"first": 0, "middle": n_z // 2, "last": n_z - 1}[where]
    f = [0.0, 1.0, -2.0 / 3.0 * np.exp(-2j * np.pi * i / n_z)]
    with pytest.raises(QuadratureDegenerate, match="vanishes on the grid"):
        schaeffer_spencer(f, [1])
    with pytest.raises(QuadratureDegenerate, match="vanishes on the grid"):
        schaeffer_spencer(f, [-1, 0, 1, 2, 3])


# a clean run, and a collision on the first row or on the last, as in the
# test above: the quadrature runs on the calling thread and starts none
@pytest.mark.parametrize("where", ["none", "first", "last"])
def test_quadrature_leaves_no_thread_behind(where):
    before = threading.enumerate()
    if where == "none":
        schaeffer_spencer(seeded_map(np.random.default_rng(5), 70), [-1, 0, 1, 2, 3, 5])
    else:
        i = {"first": 0, "last": 63}[where]
        f = [0.0, 1.0, -2.0 / 3.0 * np.exp(-2j * np.pi * i / 64)]
        with pytest.raises(QuadratureDegenerate, match="vanishes on the grid"):
            schaeffer_spencer(f, [-1, 0, 1, 2, 3])
    assert threading.enumerate() == before


def test_quadrature_is_bit_identical_under_concurrent_callers():
    # more callers than cores, each with its own block buffers, switching often
    f = seeded_map(np.random.default_rng(7), 70)
    ks = [-1, 0, 1, 2, 3, 5]
    want = [taylor.tobytes() for taylor in schaeffer_spencer(f, ks)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            runs = [pool.submit(schaeffer_spencer, f, ks) for _ in range(8)]
            got = [[taylor.tobytes() for taylor in run.result(timeout=60)] for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * len(runs)


# the order-40 map stops at the 256-point boundary rule; the order-60 map
# reaches the 2048-point cap, after the half-rule sums of every smaller rule
def test_quadrature_memory_stays_at_row_blocks():
    for seed, order in ((3, 40), (60, 60)):
        f = seeded_map(np.random.default_rng(seed), order)
        for k in ([2], [-1, 0, 1, 2, 3]):
            schaeffer_spencer(f, k)
            tracemalloc.start()
            try:
                schaeffer_spencer(f, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * 2**20, (order, k, peak)


@pytest.mark.parametrize(
    "f", [[0.0, 1.0, np.nan], [0.0, np.inf, 0.1], [0.0, 1.0, complex(0.1, np.nan)]]
)
def test_quadrature_refuses_non_finite_map(f):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            schaeffer_spencer(f, [2])


@pytest.mark.parametrize(
    "f, message",
    [
        ([0.0, 1.0, 1e308], "overflow"),  # f' has the coefficient 2e308
        ([0.0, 1.0, -1.0], "vanishes on the boundary"),  # f(1) = 0 on the grid
        ([0.0, 1e308], "the quadrature overflows"),  # f, f' finite; f(w) - f(z) overflows
    ],
)
def test_quadrature_refuses_overflowing_or_vanishing_map(f, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureDegenerate, match=message):
            schaeffer_spencer(f, [2])


def test_quadrature_past_the_subnormals_overflows_without_warning():
    # output degree 1102: the rescale by 2^j divides by 0.5^1102 == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureDegenerate, match="the quadrature overflows"):
            schaeffer_spencer([0.0, 1.0, 0.1], [1100])


@pytest.mark.parametrize(
    "k",
    # a bare int is refused too: every caller passes a sequence of k
    [
        1.5, True, np.bool_(True), [], (), [1, 2.5], [0, False], "2", None, np.array(2),
        pytest.param(2, id="bare-int"),
        pytest.param(np.int64(2), id="bare-int64"),
    ],
)
def test_quadrature_refuses_unusable_field_degree(k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="k must be a non-empty sequence of ints"):
            schaeffer_spencer([0.0, 1.0, 0.1], k)


@pytest.mark.parametrize("f", [[], [0.0], [[0.0, 1.0]]])
def test_quadrature_refuses_too_few_coefficients(f):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least two"):
            schaeffer_spencer(f, [2])


# ---------------------------------------------------------------------------
# boundary distinctness test


def brute_close_pair(values, tol):
    """O(Q^2) reference: some pair i < j with |v_i - v_j| < tol."""
    return any(
        (np.abs(values[i + 1 :] - values[i]) < tol).any() for i in range(len(values) - 1)
    )


TOL = 1e-3


def separated_points(rng, count):
    """Jittered grid points at least 5 * TOL apart, in random order."""
    side = int(np.ceil(np.sqrt(count)))
    idx = rng.permutation(side * side)[:count]
    jitter = rng.uniform(-2 * TOL, 2 * TOL, (2, count))
    return (idx % side) * 10 * TOL + jitter[0] + 1j * ((idx // side) * 10 * TOL + jitter[1])


def test_close_pair_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(11)
    found = 0
    for size in (2, 3, 17, 64, 300):
        for _ in range(10):
            v = rng.uniform(0, 0.1, size) + 1j * rng.uniform(0, 0.1, size)
            want = brute_close_pair(v, TOL)
            assert _has_close_pair(v, TOL) == want
            found += want
    assert 0 < found < 50  # both outcomes occur


@pytest.mark.parametrize("gap, want", [(0.5, True), (2.0, False)])
def test_close_pair_finds_a_planted_pair(gap, want):
    rng = np.random.default_rng(12)
    for size in (2, 50, 400):
        v = separated_points(rng, size)
        i = rng.integers(size)
        v = np.append(v, v[i] + gap * TOL * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        v = rng.permutation(v)
        assert brute_close_pair(v, TOL) is want
        assert _has_close_pair(v, TOL) is want


@pytest.mark.parametrize("step, want", [(2.0, False), (0.5, True)])
def test_close_pair_with_shared_real_parts(step, want):
    # columns of 40 points with one real part each; only the vertical step decides
    rng = np.random.default_rng(13)
    column = 1j * step * TOL * np.arange(40)
    v = rng.permutation(np.concatenate([column + x for x in (0.0, 0.2, 0.2 + 3 * TOL)]))
    assert brute_close_pair(v, TOL) is want
    assert _has_close_pair(v, TOL) is want


def test_close_pair_finds_exact_copies():
    assert _has_close_pair(np.array([0.5 + 0j, 2.0, 0.5 + 0j]), TOL)
    assert not _has_close_pair(np.array([0.5 + 0j]), TOL)


def test_close_pair_overflowing_difference_is_far_apart():
    # a shared real part with imaginary parts of 1e308 and -1e308: the
    # difference overflows, and that pair is not close
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not _has_close_pair(np.array([1e308 + 1e308j, 1e308 - 1e308j]), TOL)


@pytest.mark.parametrize(
    "c2, want",
    [
        (-2.0 / 3.0, False),  # f(1) == f(1/2): the boundary itself stays injective
        (-1 / np.sqrt(2), True),  # f(e^{i pi/4}) == f(e^{-i pi/4}) on the grid
    ],
)
def test_close_pair_on_degenerate_boundaries(c2, want):
    f = TruncatedSeries([0, 1, c2])
    w = np.exp(2j * np.pi * np.arange(2048) / 2048)
    fw = np.asarray(f.evaluate(w))
    assert brute_close_pair(fw, 1e-8) is want
    assert _has_close_pair(fw, 1e-8) is want
