"""Boundary-measure driver tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeflow.driver import Atom, DriverPiece, HerglotzDriver, InvalidMeasure


def test_uniform_measure_gives_constant_one():
    d = HerglotzDriver.identity()
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
    assert d.piece_at(0.25).atoms[0].theta == 0.0
    assert d.piece_at(0.5).atoms[0].theta == np.pi
    assert d.piece_at(2.0).atoms[0].theta == np.pi
    assert abs(d.moments(0.2, 1)[0] - 2.0) < 1e-15
    assert abs(d.moments(0.7, 1)[0] + 2.0) < 1e-14


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
    assert not nan_weight.validate()["ok"]
    with pytest.raises(InvalidMeasure):
        nan_weight.moments(0.0, 4)
    with pytest.raises(ValueError):
        HerglotzDriver.identity().moments(-0.1, 4)


def test_validate_reports():
    ok = HerglotzDriver.single_atom(1.0).validate()
    assert ok["ok"] and ok["problems"] == []
    assert ok["min_re_p"] > 0
    bad = HerglotzDriver(pieces=(DriverPiece(0.3, (Atom(0.0, 1.0),)),)).validate()
    assert not bad["ok"]
    assert any("start" in p for p in bad["problems"])
    unordered = HerglotzDriver(
        pieces=(
            DriverPiece(0.0, (Atom(0.0, 1.0),)),
            DriverPiece(0.8, (Atom(0.1, 1.0),)),
            DriverPiece(0.4, (Atom(0.2, 1.0),)),
        )
    ).validate()
    assert not unordered["ok"]
    late_nan = HerglotzDriver(pieces=(DriverPiece(0.0), DriverPiece(float("nan")))).validate()
    assert not late_nan["ok"]


def test_json_roundtrip():
    src = {
        "pieces": [
            {"t_start": 0.0, "atoms": [{"theta": 0.1, "mu": 0.5}, {"theta": 2.0, "mu": 0.5}]},
            {"t_start": 1.0, "atoms": [{"theta": 3.0, "mu": 1.0}]},
        ]
    }
    d = HerglotzDriver.from_json(json.dumps(src))
    assert json.loads(d.to_json()) == src
    d2 = HerglotzDriver.from_json(d.to_json())
    assert d2 == d



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
    with pytest.raises(ValueError, match="must be a finite number"):
        HerglotzDriver.from_json(json.dumps(data))


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
