"""Boundary-measure driver tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeflow.driver import Atom, DriverPiece, HerglotzDriver, InvalidMeasure
from shapeflow.evolution import SWITCH_SLACK


def test_uniform_measure_gives_constant_one():
    d = HerglotzDriver((DriverPiece(0.0),))
    pk = d.moments(0.0, 8)
    assert pk.shape == (8,)
    assert all(pk[k - 1] == 0 for k in range(1, 9))


def test_single_atom_series():
    d = HerglotzDriver.single_atom(0.0)
    pk = d.moments(0.5, 6)
    for k in range(1, 7):
        assert abs(pk[k - 1] - 2.0) < 1e-15
    d_pi = HerglotzDriver.single_atom(np.pi)
    qk = d_pi.moments(0.0, 6)
    for k in range(1, 7):
        assert abs(qk[k - 1] - 2.0 * (-1) ** k) < 1e-14


def test_moments_of_two_atoms():
    atoms = (Atom(0.0, 0.25), Atom(np.pi / 2, 0.75))
    d = HerglotzDriver(pieces=(DriverPiece(0.0, atoms),))
    pk = d.moments(0.0, 4)
    for k in range(1, 5):
        expected = 2 * (0.25 + 0.75 * np.exp(-1j * k * np.pi / 2))
        assert abs(pk[k - 1] - expected) < 1e-14


def test_piecewise_selection():
    d = HerglotzDriver(
        pieces=(
            DriverPiece(0.0, (Atom(0.0, 1.0),)),
            DriverPiece(0.5, (Atom(np.pi, 1.0),)),
        )
    )
    # p_1 = 2 e^{-i theta}: 2 on the first piece, -2 from t = 0.5 on
    assert abs(d.moments(0.25, 1)[0] - 2.0) < 1e-15
    assert abs(d.moments(0.5, 1)[0] + 2.0) < 1e-14
    assert abs(d.moments(2.0, 1)[0] + 2.0) < 1e-14


def test_bad_weights_raise():
    d = HerglotzDriver(pieces=(DriverPiece(0.0, (Atom(0.0, 0.9),)),))
    with pytest.raises(InvalidMeasure):
        d.moments(0.0, 4)
    d2 = HerglotzDriver(
        pieces=(DriverPiece(0.0, (Atom(0.0, 1.5), Atom(1.0, -0.5))),)
    )
    with pytest.raises(InvalidMeasure):
        d2.moments(0.0, 4)
    # NaN compares false both ways, so it must fail the checks, not slip past
    nan_weight = HerglotzDriver(pieces=(DriverPiece(0.0, (Atom(0.0, float("nan")),)),))
    assert nan_weight.validate() == ["piece 0: negative weight", "piece 0: weights do not sum to 1"]
    with pytest.raises(InvalidMeasure):
        nan_weight.moments(0.0, 4)
    with pytest.raises(ValueError):
        HerglotzDriver((DriverPiece(0.0),)).moments(-0.1, 4)


def test_piece_index_is_the_last_piece_to_start_by_t_plus_slack():
    # the rule moments (no slack) and evolve (SWITCH_SLACK * step) share; the
    # second piece starts one ulp after the float grid time 10 * 0.0003
    step = 0.0003
    grid = 10 * step
    start = 0.003
    assert np.nextafter(grid, 1.0) == start
    slack = SWITCH_SLACK * step
    d = HerglotzDriver((DriverPiece(0.0), DriverPiece(start, (Atom(0.0, 1.0),)), DriverPiece(0.5)))
    assert [d.piece_index(t) for t in (0.0, grid, start, np.nextafter(start, 1.0), 0.25, 0.5, 9.0)] == [0, 0, 1, 1, 1, 2, 2]
    # with slack a start up to slack past t counts as started at t
    assert d.piece_index(grid, slack) == 1
    assert d.piece_index(start - slack, slack) == 1
    assert d.piece_index(np.nextafter(start - slack, 0.0), slack) == 0
    assert d.piece_index(-slack, slack) == 0
    for t, s in ((-1e-300, 0.0), (np.nextafter(-slack, -1.0), slack), (float("nan"), 0.0)):
        with pytest.raises(InvalidMeasure, match="no driver piece covers t="):
            d.piece_index(t, s)
    with pytest.raises(InvalidMeasure):
        HerglotzDriver(()).piece_index(0.0)
    # moments reads its piece by the same rule
    assert (d.moments(start, 3) == 2).all() and (d.moments(grid, 3) == 0).all()


def test_piece_index_refuses_pieces_out_of_order():
    # the last piece to start by t is found by bisection, which needs the
    # starts in order: a driver validate() refuses is refused by its words
    for starts in ((0.0, 0.8, 0.4), (0.0, 0.5, 0.5), (0.0, float("nan"))):
        d = HerglotzDriver(tuple(DriverPiece(t) for t in starts))
        for read in (lambda: d.piece_index(0.6), lambda: d.moments(0.6, 3)):
            with pytest.raises(InvalidMeasure) as refused:
                read()
            assert [str(refused.value)] == d.validate()


def test_theta_whose_multiples_overflow_is_an_invalid_measure():
    # k theta passes the largest float for some k <= N: the moments would be
    # NaN, so the piece is refused by name, with no numpy warning on the way
    d = HerglotzDriver(
        pieces=(DriverPiece(0.0, (Atom(0.0, 1.0),)), DriverPiece(0.5, (Atom(1.0, 0.5), Atom(-1e306, 0.5))))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(d.moments(0.7, 179)).all()
        assert np.isfinite(d.moments(0.2, 10**4)).all()
        with pytest.raises(InvalidMeasure, match=r"^piece 1: k \* theta is not finite for theta = -1e\+306 and some k <= 180$"):
            d.moments(0.7, 180)
        with pytest.raises(InvalidMeasure, match=r"^piece 0: k \* theta is not finite for theta = 1e\+308 "):
            HerglotzDriver.single_atom(1e308).moments(0.0, 2)


def test_valid_driver_validates_to_no_problems():
    two_pieces = HerglotzDriver(
        pieces=(DriverPiece(0.0), DriverPiece(0.5, (Atom(0.3, 0.25), Atom(2.0, 0.75))))
    )
    for d in (HerglotzDriver((DriverPiece(0.0),)), HerglotzDriver.single_atom(1.0), two_pieces):
        assert d.validate() == []


def test_validate_reports():
    bad = HerglotzDriver(pieces=(DriverPiece(0.3, (Atom(0.0, 1.0),)),)).validate()
    assert bad == ["first piece must start at t=0"]
    unordered = HerglotzDriver(
        pieces=(
            DriverPiece(0.0, (Atom(0.0, 1.0),)),
            DriverPiece(0.8, (Atom(0.1, 1.0),)),
            DriverPiece(0.4, (Atom(0.2, 1.0),)),
        )
    ).validate()
    assert unordered == ["t_start values must be strictly increasing"]
    late_nan = HerglotzDriver(pieces=(DriverPiece(0.0), DriverPiece(float("nan")))).validate()
    assert late_nan == ["t_start values must be strictly increasing"]


@pytest.mark.parametrize(
    "t_start, theta, mu",
    [
        ("0", 0.0, 1.0),
        (0.0, "0", 1.0),
        (0.0, 0.0, "1"),
        (0.0, True, 1.0),
        (0.0, 0.0, float("nan")),
        (0.0, float("inf"), 1.0),
        (0.0, 10**400, 1.0),
        (0.0, None, 1.0),
    ],
)
def test_from_dict_refuses_non_numbers_and_non_finite(t_start, theta, mu):
    data = {"pieces": [{"t_start": t_start, "atoms": [{"theta": theta, "mu": mu}]}]}
    with pytest.raises(ValueError, match="must be a finite number"):
        HerglotzDriver.from_dict(data)


def test_from_dict_reads_integers_and_reports_bad_structure():
    d = HerglotzDriver.from_dict({"pieces": [{"t_start": 0, "atoms": [{"theta": 0, "mu": 1}]}]})
    assert d == HerglotzDriver.single_atom(0.0)
    with pytest.raises(KeyError):
        HerglotzDriver.from_dict({"pieces": [{"atoms": []}]})
    with pytest.raises(TypeError):
        HerglotzDriver.from_dict([])
    with pytest.raises(ValueError, match="must be a finite number"):
        HerglotzDriver.from_dict({"pieces": [{"t_start": 0.0, "atoms": [{"theta": 1j, "mu": 1}]}]})


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 2 * np.pi, allow_nan=False),
            st.floats(0.01, 1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_herglotz_real_part_positive_on_grid(raw):
    total = sum(mu for _, mu in raw)
    atoms = tuple(Atom(th, mu / total) for th, mu in raw)
    d = HerglotzDriver(pieces=(DriverPiece(0.0, atoms),))
    p = np.concatenate([[1.0], d.moments(0.0, 24)])
    r = 0.9
    zs = r * np.exp(2j * np.pi * np.arange(64) / 64)
    vals = np.polyval(p[::-1], zs)
    # Re p >= (1-r)/(1+r) on |z|=r minus the series tail
    tail = 2 * r**25 / (1 - r)
    assert vals.real.min() > (1 - r) / (1 + r) - tail - 1e-9
