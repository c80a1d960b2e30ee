"""End-to-end tests of the command-line front end."""

import concurrent.futures
import csv
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeflow import (
    InvalidInput,
    NumericalFailure,
    WindowTooSmall,
    checks,
    cli,
    driver,
    evolution,
    grassmannian,
    kp,
)
from shapeflow.grassmannian import step2_graph

IDENTITY_CONFIG = {
    "driver": {"pieces": [{"t_start": 0.0, "atoms": []}]},
    "horizon": 0.2,
    "step": 0.01,
    "order": 8,
    "m_neg": 2,
    "n_psi": 2,
    "seed": 5,
}

ATOM_CONFIG = {
    "driver": {"pieces": [{"t_start": 0.0, "atoms": [{"theta": 0.0, "mu": 1.0}]}]},
    "horizon": 0.3,
    "step": 0.005,
    "order": 16,
    "m_neg": 4,
    "n_psi": 4,
    "seed": 1,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# argument handling / exit codes


def test_dump_identities_lists_catalogue(capsys):
    assert cli.main(["--dump-identities"]) == cli.EXIT_OK
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert len(lines) == len(checks.CHECKS)
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"name", "suite", "source"}


def test_no_command_is_config_error():
    assert cli.main([]) == cli.EXIT_CONFIG_ERROR


def test_unknown_command_exits_nonzero():
    assert cli.main(["frobnicate"]) != cli.EXIT_OK


def test_missing_config_file(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["evolve", "--config", missing]) == cli.EXIT_CONFIG_ERROR


def test_malformed_json_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"driver": ')
    assert cli.main(["evolve", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR


def test_invalid_driver_weights_rejected(tmp_path):
    bad = dict(IDENTITY_CONFIG)
    bad["driver"] = {
        "pieces": [{"t_start": 0.0, "atoms": [{"theta": 0.0, "mu": 0.25}]}]
    }
    path = write_config(tmp_path, bad)
    assert cli.main(["evolve", "--config", path]) == cli.EXIT_CONFIG_ERROR


def test_driver_theta_too_large_for_its_moments_is_config_error(tmp_path, capsys):
    # theta = 1e308 makes k theta overflow at k = 2: a config error naming
    # the piece, not a runaway
    config = {"driver": one_atom(theta=1e308), "horizon": 0.01, "step": 0.001, "order": 3}
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", write_config(tmp_path, config), "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "config error: piece 0: k * theta is not finite for theta = 1e+308 and some k <= 4"
    assert not out.exists()


@pytest.mark.parametrize(
    "seed, code", [(-1, cli.EXIT_CONFIG_ERROR), (-2**70, cli.EXIT_CONFIG_ERROR), (2**70, cli.EXIT_OK)]
)
def test_seed_must_be_nonnegative(tmp_path, capsys, seed, code):
    # the generator takes any nonnegative integer, a huge one included
    out = tmp_path / "out"
    path = write_config(tmp_path, dict(IDENTITY_CONFIG, seed=seed))
    assert cli.main(["evolve", "--config", path, "--out", str(out)]) == code
    if code == cli.EXIT_CONFIG_ERROR:
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"config error: seed must be nonnegative, got {seed}"
        assert not out.exists()


def test_psibar0_width_mismatch_rejected(tmp_path):
    bad = dict(IDENTITY_CONFIG)
    bad["psibar0"] = [1.0, 2.0]  # window [-2, 2] needs five entries
    path = write_config(tmp_path, bad)
    assert cli.main(["evolve", "--config", path]) == cli.EXIT_CONFIG_ERROR


def one_atom(theta=0.0, mu=1.0):
    """A one-piece driver with a single atom."""
    return {"pieces": [{"t_start": 0.0, "atoms": [{"theta": theta, "mu": mu}]}]}


KP_CONFIG = {"f_source": {"c": [0.3]}, "n": 1, "N": 4, "t_rows": [[0.05]]}


@pytest.mark.parametrize(
    "command, base, key, value",
    [
        ("evolve", IDENTITY_CONFIG, "horizon", "nan"),
        ("evolve", IDENTITY_CONFIG, "horizon", "inf"),
        ("evolve", IDENTITY_CONFIG, "step", "x"),
        ("evolve", IDENTITY_CONFIG, "step", "-inf"),
        ("evolve", IDENTITY_CONFIG, "order", "abc"),
        ("evolve", IDENTITY_CONFIG, "m_neg", [1]),
        ("evolve", IDENTITY_CONFIG, "n_psi", None),
        ("evolve", IDENTITY_CONFIG, "seed", "s"),
        ("evolve", IDENTITY_CONFIG, "psibar0", [[1.0, "b"]] * 5),
        ("kp", KP_CONFIG, "n", "x"),
        ("kp", KP_CONFIG, "N", "y"),
        ("kp", KP_CONFIG, "t_rows", [["a"]]),
        ("kp", KP_CONFIG, "t_grid", {"t1": ["b"]}),
        ("tau", KP_CONFIG, "t_rows", [[0.05, "nan"]]),
        ("graph-dump", {"c": [0.3]}, "n", "x"),
        ("graph-dump", {"c": [0.3]}, "N", 1e400),
        ("evolve", IDENTITY_CONFIG, "order", 8.5),
        ("evolve", IDENTITY_CONFIG, "horizon", True),
        ("evolve", IDENTITY_CONFIG, "seed", False),
        ("kp", KP_CONFIG, "N", 2.7),
        ("kp", KP_CONFIG, "n", True),
        ("kp", KP_CONFIG, "convergence_pair", "no"),
        ("kp", KP_CONFIG, "convergence_pair", 1),
        ("graph-dump", {"c": [0.3]}, "N", 4.5),
        ("graph-dump", {"c": [True]}, "n", 1),
        ("evolve", IDENTITY_CONFIG, "driver", {"pieces": [{"t_start": "0", "atoms": []}]}),
        ("evolve", IDENTITY_CONFIG, "driver", one_atom(theta="0")),
        ("evolve", IDENTITY_CONFIG, "driver", one_atom(mu="1")),
        ("evolve", IDENTITY_CONFIG, "driver", one_atom(theta=True)),
        ("evolve", IDENTITY_CONFIG, "driver", one_atom(mu=math.nan)),
        ("evolve", IDENTITY_CONFIG, "driver", one_atom(theta=1e400)),
        ("evolve", IDENTITY_CONFIG, "driver", {"pieces": [{"t_start": 0.0}, {"t_start": math.nan}]}),
        # tau reads the kp config, convergence_pair included
        ("tau", KP_CONFIG, "convergence_pair", "no"),
        ("tau", KP_CONFIG, "convergence_pair", 1),
    ],
)
def test_malformed_config_number_is_config_error(tmp_path, capsys, command, base, key, value):
    config = dict(base, **{key: value})
    if key == "t_grid":
        del config["t_rows"]
    path = write_config(tmp_path, config)
    code = cli.main([command, "--config", path, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("command", ["evolve", "kp", "tau", "graph-dump"])
@pytest.mark.parametrize("root", [[1, 2], "abc", 3])
def test_config_root_must_be_an_object(tmp_path, capsys, command, root):
    path = write_config(tmp_path, root)
    code = cli.main([command, "--config", path, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG_ERROR
    assert "config root must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, label",
    [
        ("kp", {"f_source": {"c": [0.1]}, "n": "1", "N": "4", "t_rows": [["0.05"]]}, "n"),
        ("kp", dict(KP_CONFIG, N="4"), "N"),
        ("kp", dict(KP_CONFIG, t_rows=[["0.05"]]), "t_rows entry"),
        ("kp", dict(KP_CONFIG, f_source={"snapshot_csv": "traj.csv", "at_t": "0.1"}), "at_t"),
        ("evolve", dict(IDENTITY_CONFIG, horizon="0.01"), "horizon"),
        ("evolve", dict(IDENTITY_CONFIG, order="8"), "order"),
    ],
)
def test_config_number_given_as_string_is_refused(tmp_path, capsys, command, config, label):
    # JSON numbers only: a string that would parse as a number is still refused
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main([command, "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith(f"config error: {label} must be")
    assert not out.exists()


KP_GRID_CONFIG = {"f_source": {"c": [0.3]}, "n": 1, "N": 4, "t_grid": {"t1": [0.05]}}


@pytest.mark.parametrize(
    "command, config, named",
    [
        ("evolve", dict(IDENTITY_CONFIG, horizn=0.01), "config has the unknown key(s) 'horizn'"),
        ("evolve", dict(IDENTITY_CONFIG, driver=dict(one_atom(), piece=[])), "driver has the unknown key(s) 'piece'"),
        ("evolve", dict(IDENTITY_CONFIG, driver={"pieces": [{"t_start": 0.0, "atom": []}]}), "driver piece has the unknown key(s) 'atom'"),
        ("evolve", dict(IDENTITY_CONFIG, driver={"pieces": [{"t_start": 0.0, "atoms": [{"theta": 0.0, "mu": 1.0, "weight": 1.0}]}]}), "driver atom has the unknown key(s) 'weight'"),
        ("kp", dict(KP_CONFIG, convergence_par=True), "config has the unknown key(s) 'convergence_par'"),
        ("tau", dict(KP_CONFIG, NN=8), "config has the unknown key(s) 'NN'"),
        ("kp", dict(KP_CONFIG, f_source={"c": [0.3], "at": 0.5}), "f_source has the unknown key(s) 'at'"),
        ("tau", dict(KP_GRID_CONFIG, t_grid={"t1": [0.05], "t_2": [0.02]}), "t_grid has the unknown key(s) 't_2'"),
        ("graph-dump", {"c": [0.3], "n": 1, "M": 4}, "config has the unknown key(s) 'M'"),
        ("kp", dict(KP_CONFIG, f_source={"c": [0.3], "snapshot_csv": "traj.csv", "at_t": 0.0}), "f_source gives both 'c' and 'snapshot_csv'"),
        ("kp", dict(KP_GRID_CONFIG, t_rows=[[0.05]]), "config gives both 't_rows' and 't_grid'"),
        ("tau", dict(KP_GRID_CONFIG, t_rows=[[0.05]]), "config gives both 't_rows' and 't_grid'"),
        ("kp", dict(KP_CONFIG, f_source={"c": [0.1], "at_t": 0.3}), "f_source.at_t is read only with 'snapshot_csv'"),
    ],
    ids=["evolve", "driver", "piece", "atom", "kp", "tau", "f_source", "t_grid", "graph-dump",
         "c+snapshot_csv", "kp-t_rows+t_grid", "tau-t_rows+t_grid", "c+at_t"],
)
def test_unknown_config_key_or_both_alternatives_is_config_error(tmp_path, capsys, monkeypatch, command, config, named):
    # a misspelt key would leave its default in place, and a second
    # alternative would be ignored
    _no_computation(monkeypatch)
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_config(tmp_path, config), "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error:") and named in line
    assert not out.exists()


def test_tau_reads_a_kp_config(tmp_path):
    path = write_config(tmp_path, dict(KP_CONFIG, convergence_pair=True))
    assert cli.main(["tau", "--config", path, "--out", str(tmp_path / "out")]) == cli.EXIT_OK


# the files each command writes under --out
OUTPUTS = {
    "evolve": ("trajectory.csv", "conservation.json"),
    "check": ("check_witt.json",),
    "kp": ("kp_sweep.csv",),
    "tau": ("tau.csv",),
    "graph-dump": ("graph.json",),
}


def _no_computation(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("computation started before the output directory was checked")

    monkeypatch.setattr(evolution, "evolve", unreachable)
    monkeypatch.setattr(grassmannian, "step2_graph", unreachable)
    monkeypatch.setattr(checks, "run_suite", unreachable)


@pytest.mark.parametrize(
    "command, config",
    [
        ("evolve", IDENTITY_CONFIG),
        ("check", None),
        ("kp", KP_CONFIG),
        ("tau", KP_CONFIG),
        ("graph-dump", {"c": [0.3], "n": 1, "N": 4}),
    ],
)
@pytest.mark.parametrize("below", [False, True, None])
def test_unusable_out_is_config_error(tmp_path, capsys, monkeypatch, command, config, below):
    # --out naming an existing file (below=False) or a path below one
    # (below=True), or any one of the command's output files being a
    # directory (below=None), ends in exit 2 with one line and nothing
    # written, before any computation
    _no_computation(monkeypatch)
    argv = ["check", "witt"] if config is None else [command, "--config", write_config(tmp_path, config)]
    if below is None:
        cases = []
        for name in OUTPUTS[command]:
            out = tmp_path / f"out_{name}"
            (out / name).mkdir(parents=True)
            cases.append((out, f"config error: output file '{out / name}' is unusable"))
    else:
        blocker = tmp_path / "a_file"
        blocker.write_text("keep")
        out = blocker / "x" if below else blocker
        cases = [(out, f"config error: output directory '{out}' is unusable")]
    for out, message in cases:
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(message)
        if below is None:
            (taken,) = os.listdir(out)
            assert os.listdir(out / taken) == []
    if below is not None:
        assert blocker.read_text() == "keep"


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--parallel", "2"],
        ["check", "witt", "--config", "cfg.json"],
        ["check", "witt", "--order", "8"],
        ["check", "witt", "--step", "0.1"],
        ["check", "witt", "--horizon", "1"],
        ["check", "witt", "--parallel", "2"],
        ["kp", "--step", "0.1"],
        ["kp", "--horizon", "1"],
        ["tau", "--parallel", "2"],
        ["tau", "--step", "0.1"],
        ["graph-dump", "--horizon", "1"],
        ["graph-dump", "--parallel", "2"],
        # order, step, horizon and N are config keys only
        ["evolve", "--order", "8"],
        ["evolve", "--step", "0.1"],
        ["evolve", "--horizon", "1"],
        ["kp", "--order", "8"],
        ["tau", "--order", "8"],
        ["graph-dump", "--order", "8"],
    ],
)
def test_command_refuses_flags_it_does_not_read(capsys, monkeypatch, argv):
    _no_computation(monkeypatch)
    assert cli.main(argv) == cli.EXIT_CONFIG_ERROR
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"horizon": 1e9, "step": 1e-12},
        {"horizon": 1e300, "step": 1e-300},
        {"horizon": 1e9},
        {"step": 1e-9},
    ],
)
def test_step_count_is_bounded(tmp_path, overrides):
    # rejected while reading the config, before any state is allocated
    path = write_config(tmp_path, dict(IDENTITY_CONFIG, **overrides))
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
    assert not out.exists()


@pytest.mark.parametrize("horizon, step", [(1.0, 0.3), (1e-4, 1e-3)])
def test_horizon_must_be_a_whole_number_of_steps(tmp_path, capsys, horizon, step):
    # else the last row misses the reported horizon: t = 0.9 for 1.0 / 0.3,
    # and no step at all for 1e-4 / 1e-3
    path = write_config(tmp_path, dict(IDENTITY_CONFIG, horizon=horizon, step=step))
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: horizon {horizon} is not a whole number of steps")
    assert not out.exists()


def test_evolve_reports_the_steps_taken_and_the_last_time(tmp_path, capsys):
    path = write_config(tmp_path, IDENTITY_CONFIG)  # 0.2 / 0.01: 20 steps, 21 rows
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", path, "--out", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("evolved 20 steps to t=0.2;")
    _, rows = read_rows(out / "trajectory.csv")
    assert float(rows[-1][0]) == 0.2
    # conservation.json counts trajectory rows, the start included
    assert json.loads((out / "conservation.json").read_text())["steps"] == len(rows) == 21


def test_divergence_maps_to_numerical_failure(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise evolution.StepRejected("blew up")

    monkeypatch.setattr(evolution, "evolve", explode)
    path = write_config(tmp_path, IDENTITY_CONFIG)
    code = cli.main(["evolve", "--config", path, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_NUMERICAL_FAILURE


# ---------------------------------------------------------------------------
# evolve


def test_evolve_identity_driver_conserves_everything(tmp_path):
    path = write_config(tmp_path, IDENTITY_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", path, "--out", str(out)]) == cli.EXIT_OK

    report = json.loads((out / "conservation.json").read_text())
    assert report["steps"] == 21
    assert report["energy_invariant_drift"] <= 1e-12
    assert max(report["drift"].values()) <= 1e-12

    header, rows = read_rows(out / "trajectory.csv")
    for name in ("re_c_1", "im_c_8", "re_psibar_-2", "re_Gbar_0", "re_H"):
        assert name in header
    c_cols = [i for i, name in enumerate(header) if name.startswith(("re_c_", "im_c_"))]
    for row in rows:
        assert all(float(row[i]) == 0.0 for i in c_cols)


def test_evolve_atom_reports_koebe_error(tmp_path):
    path = write_config(tmp_path, ATOM_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", path, "--out", str(out)]) == cli.EXIT_OK

    report = json.loads((out / "conservation.json").read_text())
    assert report["koebe_max_error"] < 1e-8
    assert report["energy_invariant_drift"] < 1e-9

    header, rows = read_rows(out / "trajectory.csv")
    assert header[-1] == "koebe_error"
    worst = max(float(row[-1]) for row in rows)
    assert worst == pytest.approx(report["koebe_max_error"])


def test_evolve_huge_psibar_fails_closed(tmp_path):
    config = dict(ATOM_CONFIG, m_neg=1, n_psi=1, psibar0=[1e308] * 3)
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["evolve", "--config", path, "--out", str(out)])
    assert code == cli.EXIT_NUMERICAL_FAILURE
    assert not out.exists()


def test_energy_drift_is_taken_within_each_piece(tmp_path):
    # H jumps at the switch; H + G_0 is conserved only inside a piece.  The
    # second run's switch is one ulp after its grid time 10 * 3e-4: that state
    # and the steps from it belong to the second piece
    for switch, step, horizon in ((0.05, 1e-3, 0.1), (0.003, 3e-4, 0.0099)):
        rng = np.random.default_rng(4)
        pieces = []
        for start, count in ((0.0, 3), (switch, 2)):
            mus = rng.uniform(0.2, 1.0, count)
            mus = [float(v) for v in mus[:-1] / mus.sum()]
            mus.append(1.0 - sum(mus))
            thetas = rng.uniform(0, 2 * np.pi, count)
            pieces.append({"t_start": start, "atoms": [{"theta": float(t), "mu": m} for t, m in zip(thetas, mus)]})
        config = {"driver": {"pieces": pieces}, "horizon": horizon, "step": step, "order": 16, "m_neg": 8, "n_psi": 8}
        path = write_config(tmp_path, config)
        out = tmp_path / f"out{switch}"
        assert cli.main(["evolve", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        report = json.loads((out / "conservation.json").read_text())
        assert report["energy_invariant_drift"] < 1e-7
        assert max(report["drift"].values()) < 1e-7
        # across the switch the combination moves by O(1)
        header, rows = read_rows(out / "trajectory.csv")
        h = np.array([complex(float(r[header.index("re_H")]), float(r[header.index("im_H")])) for r in rows])
        assert np.abs(np.diff(h)).max() > 1e-2


def test_energy_drift_needs_only_the_record():
    # the switch is one ulp after the grid time 10 * 3e-4; the record says
    # which piece each state is on, so no driver or step goes in
    pieces = [
        {"t_start": 0.0, "atoms": [{"theta": 0.7, "mu": 1.0}]},
        {"t_start": 0.003, "atoms": [{"theta": 2.4, "mu": 0.6}, {"theta": 4.9, "mu": 0.4}]},
    ]
    d = driver.HerglotzDriver.from_dict({"pieces": pieces})
    rng = np.random.default_rng(3)
    s0 = evolution.ShapeState.initial(16, 8, 8, psibar=rng.normal(size=17) + 1j * rng.normal(size=17))
    record = evolution.evolve(s0, d, horizon=0.0099, step=3e-4)
    assert list(inspect.signature(cli._energy_drift).parameters) == ["record"]
    assert cli._energy_drift(record) < 1e-7
    # read as one piece, the run spans the jump of H at the switch
    record.pieces = np.zeros_like(record.pieces)
    assert cli._energy_drift(record) > 1e-2


def _finite_json(text):
    def refuse(token):
        raise ValueError(f"non-finite JSON constant {token}")

    payload = json.loads(text, parse_constant=refuse)
    stack = [payload]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, float):
            assert math.isfinite(item)
    return payload


_PSIBAR_ENTRY = st.one_of(
    st.floats(-10, 10), st.sampled_from([1e300, -1e300, 1e307, 1e308, -1e308])
)


@st.composite
def evolve_configs(draw):
    order = draw(st.integers(1, 6))
    m_neg, n_psi = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    step = draw(st.sampled_from([0.005, 0.01, 0.02]))
    steps = draw(st.integers(1, 200))
    starts = sorted(draw(st.sets(st.integers(1, steps), max_size=2)))
    pieces = []
    for start in [0, *starts]:
        mus = draw(st.lists(st.floats(0.1, 1.0), max_size=3))
        if mus and draw(st.integers(0, 4)):  # else raw weights, mostly an invalid measure
            mus = [v / sum(mus) for v in mus[:-1]]
            mus.append(1.0 - sum(mus))
        atoms = [{"theta": draw(st.floats(0, 2 * math.pi)), "mu": mu} for mu in mus]
        pieces.append({"t_start": start * step, "atoms": atoms})
    psibar0 = draw(st.lists(_PSIBAR_ENTRY, min_size=m_neg + n_psi + 1, max_size=m_neg + n_psi + 1))
    return {
        "driver": {"pieces": pieces},
        "horizon": steps * step,
        "step": step,
        "order": order,
        "m_neg": m_neg,
        "n_psi": n_psi,
        "psibar0": psibar0,
    }


@settings(max_examples=40, deadline=None, derandomize=True)
@given(config=evolve_configs())
def test_evolve_fails_closed_on_generated_configs(tmp_path_factory, config):
    # every run ends in 0, 2 or 3, and whatever it writes is finite and parses
    tmp = tmp_path_factory.mktemp("evolve")
    path = write_config(tmp, config)
    out = tmp / "out"
    with np.errstate(all="ignore"):
        code = cli.main(["evolve", "--config", path, "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG_ERROR, cli.EXIT_NUMERICAL_FAILURE)
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    if code != cli.EXIT_OK:
        assert written == []
        return
    assert written == ["conservation.json", "trajectory.csv"]
    report = _finite_json((out / "conservation.json").read_text())
    header, rows = read_rows(out / "trajectory.csv")
    assert len(rows) == report["steps"]
    assert all(len(row) == len(header) and all(math.isfinite(float(x)) for x in row) for row in rows)


def test_evolve_identity_driver_omits_koebe_column(tmp_path):
    path = write_config(tmp_path, IDENTITY_CONFIG)
    out = tmp_path / "out"
    cli.main(["evolve", "--config", path, "--out", str(out)])
    header, _ = read_rows(out / "trajectory.csv")
    assert "koebe_error" not in header
    report = json.loads((out / "conservation.json").read_text())
    assert "koebe_max_error" not in report


def test_evolve_reruns_are_byte_identical(tmp_path):
    path = write_config(tmp_path, ATOM_CONFIG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["evolve", "--config", path, "--out", str(out)]) == cli.EXIT_OK
        outs.append(out)
    for fname in ("trajectory.csv", "conservation.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_evolve_config_sets_order_step_and_horizon(tmp_path):
    path = write_config(tmp_path, dict(IDENTITY_CONFIG, horizon=0.1, step=0.02, order=4))
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", path, "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "conservation.json").read_text())
    assert report["steps"] == 6
    assert report["order"] == 4
    header, _ = read_rows(out / "trajectory.csv")
    assert "re_c_4" in header and "re_c_5" not in header


# ---------------------------------------------------------------------------
# check


def test_check_suite_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["check", "bracket", "--out", str(out)]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "bracket" and payload["passed"]
    assert all(r["passed"] for r in payload["results"])
    on_disk = json.loads((out / "check_bracket.json").read_text())
    assert on_disk == payload


def test_check_failure_sets_exit_code(monkeypatch, capsys):
    def fake_suite(suite):
        return [
            {"name": "x", "suite": suite, "source": "s", "passed": False, "detail": "d"}
        ]

    monkeypatch.setattr(checks, "run_suite", fake_suite)
    assert cli.main(["check", "basis"]) == cli.EXIT_CHECK_FAILURE
    capsys.readouterr()


def test_check_quadrature_is_byte_identical_across_runs_and_threads(tmp_path, capsys):
    # twice on this thread, then once from another: the quadrature splits
    # its rows over a worker thread whichever thread calls it
    outs = [tmp_path / name for name in ("first", "second", "thread")]
    for out in outs[:2]:
        assert cli.main(["check", "quadrature", "--out", str(out)]) == cli.EXIT_OK
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        run = pool.submit(cli.main, ["check", "quadrature", "--out", str(outs[2])])
        assert run.result() == cli.EXIT_OK
    capsys.readouterr()
    first, second, thread = (
        (out / "check_quadrature.json").read_bytes() for out in outs
    )
    assert json.loads(first)["passed"]
    assert first == second == thread


def test_unknown_suite_is_usage_error(monkeypatch, capsys):
    def unreachable(suite):
        raise AssertionError("a suite ran for an unknown suite name")

    monkeypatch.setattr(checks, "run_suite", unreachable)
    assert cli.main(["check", "nosuch"]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "invalid choice: 'nosuch'" in err
    assert all(repr(suite) in err for suite in checks.SUITES)


# ---------------------------------------------------------------------------
# kp / tau


def test_kp_trivial_shape_rows(tmp_path):
    config = {
        "f_source": {"c": []},
        "n": 1,
        "N": 8,
        "t_rows": [[0.05, 0.03, 0.02], [0.2]],
    }
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["kp", "--config", path, "--out", str(out)]) == cli.EXIT_OK
    header, rows = read_rows(out / "kp_sweep.csv")
    assert header == [
        "t1",
        "t2",
        "t3",
        "re_omega1",
        "im_omega1",
        "re_lambda1",
        "im_lambda1",
        "residual",
        "re_tau",
        "im_tau",
    ]
    assert len(rows) == 2
    for row in rows:
        record = dict(zip(header, row))
        assert float(record["re_omega1"]) == 0.0
        assert float(record["im_omega1"]) == 0.0
        assert float(record["residual"]) == 0.0
        assert float(record["re_tau"]) == 1.0
        assert float(record["im_tau"]) == 0.0
    # 1-entry rows are padded with zeros
    assert [rows[1][0], rows[1][1], rows[1][2]] == ["0.2", "0.0", "0.0"]


def test_kp_matches_library_route(tmp_path):
    c = [0.5, 0.125, 0.0416, 0.015]
    trow = (0.05, 0.03, 0.02)
    config = {
        "f_source": {"c": c},
        "n": 1,
        "N": 12,
        "t_rows": [list(trow)],
        "convergence_pair": True,
    }
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["kp", "--config", path, "--out", str(out)]) == cli.EXIT_OK
    header, rows = read_rows(out / "kp_sweep.csv")
    assert header[-1] == "residual_24"
    record = dict(zip(header, rows[0]))

    parts = kp.omega1_and_partials(kp.ABForm.build(c, trow, 12))
    omega1 = parts[(0, 0, 0)]
    lambda1 = -parts[(1, 0, 0)]
    op = step2_graph(c, 1, 12)
    tau_value = kp.tau(op, trow, 12)
    assert float(record["re_omega1"]) == omega1.real
    assert float(record["im_omega1"]) == omega1.imag
    assert float(record["re_lambda1"]) == lambda1.real
    assert float(record["im_lambda1"]) == lambda1.imag
    assert float(record["re_tau"]) == tau_value.real
    assert float(record["residual"]) == kp.kp_residual(c, trow, 12)
    assert float(record["residual_24"]) == kp.kp_residual(c, trow, 24)


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("pair", [False, True])
def test_kp_builds_one_table_per_row_and_window(tmp_path, monkeypatch, pair, parallel):
    # omega_1, lambda_1 and the window-N residual come from one table and one
    # jet; the convergence pair adds one table at 2N
    windows = []
    build = kp.ABForm.build.__func__

    def counting(cls, f_coeffs, t, N):
        windows.append(N)
        return build(cls, f_coeffs, t, N)

    monkeypatch.setattr(kp.ABForm, "build", classmethod(counting))
    rows = [[0.05], [0.1, 0.02], [0.0, 0.0, 0.01]]
    path = write_config(tmp_path, dict(KP_CONFIG, t_rows=rows, convergence_pair=pair))
    argv = ["kp", "--config", path, "--out", str(tmp_path / "out"), "--parallel", str(parallel)]
    assert cli.main(argv) == cli.EXIT_OK
    assert sorted(windows) == [4] * 3 + ([8] * 3 if pair else [])


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("pair", [False, True])
def test_kp_and_tau_run_one_schur_recurrence_per_row(tmp_path, monkeypatch, pair, n, parallel):
    # every recurrence step reverses the Schur prefix once, so counting the
    # calls of reversed in kp counts the steps; a kp row's tables and tau
    # extend one recurrence: to 2N+1 with the pair, else to N+n
    steps = []

    def counting(seq):
        steps.append(1)
        return reversed(seq)

    monkeypatch.setattr(kp, "reversed", counting, raising=False)
    rows = [[0.05], [0.1, 0.02], [0.0, 0.0, 0.01]]
    N = KP_CONFIG["N"]
    path = write_config(tmp_path, dict(KP_CONFIG, n=n, t_rows=rows, convergence_pair=pair))
    argv = ["kp", "--config", path, "--out", str(tmp_path / "kp"), "--parallel", str(parallel)]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(steps) == len(rows) * (2 * N + 1 if pair else N + n)
    steps.clear()
    assert cli.main(["tau", "--config", path, "--out", str(tmp_path / "tau")]) == cli.EXIT_OK
    assert len(steps) == len(rows) * (N + n)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("pair", [False, True])
def test_kp_sweep_tau_strings_equal_the_tau_sweep(tmp_path, pair, n):
    # kp reads tau off a prefix of its row's longest Schur run, tau runs its own
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "scripts", "configs", "kp_sweep.json")) as fh:
        sweep = json.load(fh)
    path = write_config(tmp_path, dict(sweep, n=n, convergence_pair=pair))
    assert cli.main(["kp", "--config", path, "--out", str(tmp_path / "kp")]) == cli.EXIT_OK
    assert cli.main(["tau", "--config", path, "--out", str(tmp_path / "tau")]) == cli.EXIT_OK
    with open(tmp_path / "kp" / "kp_sweep.csv") as fh:
        kp_rows = list(csv.DictReader(fh))
    with open(tmp_path / "tau" / "tau.csv") as fh:
        tau_rows = list(csv.DictReader(fh))
    assert len(kp_rows) == len(tau_rows) == 12
    for kp_row, tau_row in zip(kp_rows, tau_rows):
        assert {key: kp_row[key] for key in tau_row} == tau_row


def test_kp_snapshot_roundtrip(tmp_path):
    config = dict(ATOM_CONFIG, horizon=0.2, step=0.01, order=10, m_neg=2, n_psi=2)
    evolve_path = write_config(tmp_path, config, "evolve.json")
    out = tmp_path / "traj"
    assert cli.main(["evolve", "--config", evolve_path, "--out", str(out)]) == 0

    snapshot = str(out / "trajectory.csv")
    kp_config = {
        "f_source": {"snapshot_csv": snapshot, "at_t": 0.1},
        "n": 1,
        "N": 10,
        "t_rows": [[0.02, 0.01, 0.005]],
    }
    kp_path = write_config(tmp_path, kp_config, "kp.json")
    kp_out = tmp_path / "kp"
    assert cli.main(["kp", "--config", kp_path, "--out", str(kp_out)]) == cli.EXIT_OK

    header, rows = read_rows(kp_out / "kp_sweep.csv")
    record = dict(zip(header, rows[0]))
    c = cli._read_snapshot(snapshot, 0.1)
    # the t=0.1 row of the atom trajectory has c_1 = 2 e^{-t} - 2 exactly
    assert abs(c[0] - (2 * np.exp(-0.1) - 2)) < 1e-9
    parts = kp.omega1_and_partials(kp.ABForm.build(c, (0.02, 0.01, 0.005), 10))
    assert float(record["re_omega1"]) == parts[(0, 0, 0)].real
    assert float(record["im_omega1"]) == parts[(0, 0, 0)].imag


@pytest.mark.parametrize("value", [0, 2, True, 5], ids=["fd0", "fd2", "true", "fd5"])
def test_snapshot_csv_that_is_not_a_string_is_config_error(tmp_path, value):
    # open() would take an int or a bool as a file descriptor: 0 reads stdin,
    # 1 and 2 are the output streams and are closed when the read ends.  A
    # fresh interpreter keeps this process's streams out of reach.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]))
    config = write_config(tmp_path, dict(KP_CONFIG, f_source={"snapshot_csv": value, "at_t": 0.1}))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "shapeflow", "kp", "--config", config, "--out", str(out)],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == cli.EXIT_CONFIG_ERROR
    (line,) = proc.stderr.splitlines()
    assert line.startswith("config error: f_source.snapshot_csv must be a path string")
    assert not out.exists()


def _snapshot_text(order):
    """A one-row snapshot CSV with every column up to ``order``."""
    names = [f"{p}_c_{n}" for n in range(1, order + 1) for p in ("re", "im")]
    return ",".join(["t", *names]) + "\n" + ",".join(["0.1"] + ["0.0"] * len(names)) + "\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("t,re_c_1,im_c_1,re_c_3,im_c_3\n0.1,0.5,0.0,0.1,0.0\n", "re_c_2"),
        ("t,re_c_1,im_c_1\n0.0,0.5,0.0\n0.1,0.5\n", "line 3 has 2 fields"),
        # the order is bounded before the missing columns are listed
        ("t,re_c_1000000000,im_c_1000000000\n0.1,0.5,0.0\n", "snapshot order = 1000000000 exceeds"),
        (_snapshot_text(cli.MAX_WINDOW + 1), "exceeds the largest window"),
        # coefficient columns start at c_1
        ("t,re_c_-3,im_c_-3\n0.1,0.5,0.0\n", "column for c_-3"),
        ("t,re_c_0,im_c_0\n0.1,0.5,0.0\n", "column for c_0"),
    ],
    ids=["missing-column", "short-row", "huge-order", "order-above-window", "negative-index", "zero-index"],
)
@pytest.mark.parametrize("command", ["kp", "tau"])
def test_malformed_snapshot_csv_is_config_error(tmp_path, capsys, command, text, message):
    snapshot = tmp_path / "trajectory.csv"
    snapshot.write_text(text)
    config = dict(KP_CONFIG, f_source={"snapshot_csv": str(snapshot), "at_t": 0.1})
    path = write_config(tmp_path, config)
    code = cli.main([command, "--config", path, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert len(err.splitlines()) == 1 and len(err.encode()) < 1024
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("times", ["t_rows", "t_grid"])
@pytest.mark.parametrize("command", ["kp", "tau"])
def test_sweep_row_count_is_bounded(tmp_path, capsys, monkeypatch, command, times):
    # refused from the list lengths alone: neither the grid nor the graph is built
    def unreachable(*args, **kwargs):
        raise AssertionError("sweep rows built past the bound")

    monkeypatch.setattr(itertools, "product", unreachable)
    monkeypatch.setattr(grassmannian, "step2_graph", unreachable)
    side = int(cli.MAX_SWEEP_ROWS ** (1 / 3)) + 1
    if times == "t_grid":
        config = {"f_source": {"c": [0.3]}, "n": 1, "N": 4}
        config["t_grid"] = {key: [0.01] * side for key in ("t1", "t2", "t3")}
        count = side**3
    else:
        count = cli.MAX_SWEEP_ROWS + 1
        config = dict(KP_CONFIG, t_rows=[[0.01]] * count)
    out = tmp_path / "out"
    code = cli.main([command, "--config", write_config(tmp_path, config), "--out", str(out)])
    assert code == cli.EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.splitlines() == [
        f"config error: the sweep asks for {count} rows; at most {cli.MAX_SWEEP_ROWS} are allowed"
    ]
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-3", str(cli.MAX_PARALLEL + 1)])
def test_parallel_count_is_bounded(tmp_path, capsys, monkeypatch, count):
    # a usage error while parsing: no pool is built and nothing is computed
    def unbuilt(*args, **kwargs):
        raise AssertionError("a worker pool was built")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", unbuilt)
    _no_computation(monkeypatch)
    out = tmp_path / "out"
    argv = ["kp", "--config", write_config(tmp_path, KP_CONFIG), "--out", str(out), "--parallel", count]
    assert cli.main(argv) == cli.EXIT_CONFIG_ERROR
    assert f"must be from 1 to {cli.MAX_PARALLEL}, got {int(count)}" in capsys.readouterr().err
    assert not out.exists()


def test_largest_parallel_count_runs(tmp_path):
    # KP_CONFIG has one time row, so the pool starts one worker thread
    out = tmp_path / "out"
    argv = ["kp", "--config", write_config(tmp_path, KP_CONFIG), "--out", str(out)]
    assert cli.main([*argv, "--parallel", str(cli.MAX_PARALLEL)]) == cli.EXIT_OK
    _, rows = read_rows(out / "kp_sweep.csv")
    assert len(rows) == 1


def test_kp_grid_parallel_matches_serial(tmp_path):
    config = {
        "f_source": {"c": [0.3, 0.09]},
        "n": 2,
        "N": 10,
        "t_grid": {"t1": [0.01, 0.02], "t2": [0.0, 0.01], "t3": [0.005]},
    }
    path = write_config(tmp_path, config)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert cli.main(["kp", "--config", path, "--out", str(serial)]) == cli.EXIT_OK
    code = cli.main(
        ["kp", "--config", path, "--out", str(parallel), "--parallel", "2"]
    )
    assert code == cli.EXIT_OK
    a = (serial / "kp_sweep.csv").read_bytes()
    b = (parallel / "kp_sweep.csv").read_bytes()
    assert a == b
    _, rows = read_rows(serial / "kp_sweep.csv")
    assert len(rows) == 4  # 2 x 2 x 1 grid


def test_kp_sweep_config_runs_and_reruns_byte_identical(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "scripts", "configs", "kp_sweep.json")
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        for command in ("kp", "tau"):
            assert cli.main([command, "--config", path, "--out", str(out)]) == cli.EXIT_OK
    for name in ("kp_sweep.csv", "tau.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    with open(outs[0] / "kp_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    with open(outs[0] / "tau.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 12
    assert len(rows) == 12  # the 3 x 2 x 2 grid of configs/kp_sweep.json
    for row in rows:
        assert float(row["residual"]) <= 1e-12
        assert float(row["residual_32"]) <= 1e-12


def test_kp_near_singular_denominator_exit(tmp_path):
    # c_1 = conj(u)/t_1 with u(1-u) = 1 lands the wave denominator on zero
    u = complex(0.5, np.sqrt(3.0) / 2.0)
    cu = np.conj(u) / 0.1
    config = {
        "f_source": {"c": [[cu.real, cu.imag]]},
        "n": 1,
        "N": 1,
        "t_rows": [[0.1, 0.0, 0.0]],
    }
    path = write_config(tmp_path, config)
    code = cli.main(["kp", "--config", path, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_NUMERICAL_FAILURE


@pytest.mark.parametrize("command", ["kp", "tau"])
def test_non_finite_sweep_row_is_numerical_failure(tmp_path, capsys, command):
    config = {"f_source": {"c": [1e200]}, "n": 1, "N": 4, "t_rows": [[0.05]]}
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        code = cli.main([command, "--config", path, "--out", str(out)])
    assert code == cli.EXIT_NUMERICAL_FAILURE
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not out.exists()


def test_non_finite_graph_is_numerical_failure(tmp_path, capsys):
    path = write_config(tmp_path, {"c": [1e200], "n": 1, "N": 4})
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        code = cli.main(["graph-dump", "--config", path, "--out", str(out)])
    assert code == cli.EXIT_NUMERICAL_FAILURE
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not out.exists()


HUGE_C = {"f_source": {"c": [1e200]}, "n": 1, "N": 4, "t_rows": [[0.05]]}
HUGE_T = {"f_source": {"c": [0.3]}, "n": 1, "N": 4, "t_rows": [[1e200, 1e150], [1e300]]}
INVERSE_NAN = "triangular inverse check failed: nan"


@pytest.mark.parametrize(
    "command, config, flags, message",
    [
        ("graph-dump", {"c": [1e200], "n": 1, "N": 4}, [], INVERSE_NAN),
        ("kp", HUGE_C, [], INVERSE_NAN),
        ("tau", HUGE_C, [], INVERSE_NAN),
        ("kp", HUGE_T, [], "the kp sweep holds a non-finite value; nothing was written"),
        ("kp", HUGE_T, ["--parallel", "2"], "the kp sweep holds a non-finite value; nothing was written"),
        ("tau", HUGE_T, [], "the tau sweep holds a non-finite value; nothing was written"),
    ],
)
def test_numerical_failure_is_one_line_and_no_warnings(tmp_path, capsys, command, config, flags, message):
    # no caller-side np.errstate: the CLI itself keeps numpy quiet, worker
    # threads included, and ends in exit 3 with nothing written; c_1 = 1e200
    # gives a NaN inverse residual, the huge times overflow the sweep rows
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--config", path, "--out", str(out), *flags])
    assert code == cli.EXIT_NUMERICAL_FAILURE
    assert capsys.readouterr().err.splitlines() == [f"numerical failure: {message}"]
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


@pytest.mark.parametrize(
    "command, good, bad",
    [
        ("evolve", ATOM_CONFIG, dict(ATOM_CONFIG, m_neg=1, n_psi=1, psibar0=[1e308] * 3)),
        ("kp", dict(HUGE_T, t_rows=[[0.05]]), HUGE_T),
        ("tau", dict(HUGE_T, t_rows=[[0.05]]), HUGE_T),
    ],
)
def test_failed_rerun_leaves_the_earlier_outputs(tmp_path, capsys, command, good, bad):
    # exit 3 writes nothing, so the files of an earlier run into the same
    # directory stay byte for byte, though they no longer match the last config
    out = tmp_path / "out"
    run = [command, "--out", str(out), "--config"]
    assert cli.main([*run, write_config(tmp_path, good, "good.json")]) == cli.EXIT_OK
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert before
    assert cli.main([*run, write_config(tmp_path, bad, "bad.json")]) == cli.EXIT_NUMERICAL_FAILURE
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


# every NumericalFailure of the package, raised inside the layer that owns it
NUMERICAL_FAILURES = [
    (evolution.StepRejected, "evolve", IDENTITY_CONFIG, evolution, "evolve"),
    (kp.NearSingularA, "kp", KP_CONFIG, kp, "omega1_and_partials"),
    (kp.SingularSystem, "tau", KP_CONFIG, kp, "tau"),
    (grassmannian.InverseCheckFailed, "graph-dump", {"c": [0.3], "n": 1, "N": 4}, grassmannian, "step2_graph"),
    (cli.NonFiniteOutput, "kp", KP_CONFIG, kp, "tau"),
]


def test_numerical_failure_list_is_complete():
    assert {case[0] for case in NUMERICAL_FAILURES} == set(NumericalFailure.__subclasses__())
    # each keeps the base it had before the common one
    assert issubclass(NumericalFailure, ArithmeticError)
    assert issubclass(evolution.StepRejected, RuntimeError)


@pytest.mark.parametrize(
    "failure, command, config, module, name",
    NUMERICAL_FAILURES,
    ids=[case[0].__name__ for case in NUMERICAL_FAILURES],
)
def test_each_numerical_failure_exits_3(tmp_path, capsys, monkeypatch, failure, command, config, module, name):
    def fail(*args, **kwargs):
        raise failure("injected")

    monkeypatch.setattr(module, name, fail)
    out = tmp_path / "out"
    code = cli.main([command, "--config", write_config(tmp_path, config), "--out", str(out)])
    assert code == cli.EXIT_NUMERICAL_FAILURE
    assert capsys.readouterr().err.splitlines() == ["numerical failure: injected"]
    assert not out.exists()


# every InvalidInput subclass of the package, raised inside the layer that owns it
INVALID_INPUTS = [
    (WindowTooSmall, "graph-dump", {"c": [0.3], "n": 1, "N": 4}, grassmannian, "c_blocks"),
    (grassmannian.UnsupportedOrder, "tau", KP_CONFIG, grassmannian, "step2_graph"),
    (driver.InvalidMeasure, "evolve", IDENTITY_CONFIG, driver.HerglotzDriver, "moments"),
]


def test_invalid_input_list_is_complete():
    assert {case[0] for case in INVALID_INPUTS} == set(InvalidInput.__subclasses__())
    # each keeps the base it had before the common one
    assert issubclass(InvalidInput, ValueError)


@pytest.mark.parametrize(
    "failure, command, config, owner, name",
    INVALID_INPUTS,
    ids=[case[0].__name__ for case in INVALID_INPUTS],
)
def test_each_invalid_input_exits_2(tmp_path, capsys, monkeypatch, failure, command, config, owner, name):
    def fail(*args, **kwargs):
        raise failure("injected")

    monkeypatch.setattr(owner, name, fail)
    out = tmp_path / "out"
    code = cli.main([command, "--config", write_config(tmp_path, config), "--out", str(out)])
    assert code == cli.EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.splitlines() == ["config error: injected"]
    assert not out.exists()


@pytest.mark.parametrize("n, N", [(0, 4), (3, 2)], ids=["n=0", "N<n"])
@pytest.mark.parametrize("command", ["kp", "tau", "graph-dump"])
def test_graph_order_and_window_rules_exit_2(tmp_path, capsys, command, n, N):
    base = {"c": [0.3]} if command == "graph-dump" else KP_CONFIG
    out = tmp_path / "out"
    code = cli.main([command, "--config", write_config(tmp_path, dict(base, n=n, N=N)), "--out", str(out)])
    assert code == cli.EXIT_CONFIG_ERROR
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["kp", "tau", "graph-dump"])
def test_graph_orders_above_three_run(tmp_path, command):
    # every order n >= 1 builds a graph; each output is finite and reruns
    # byte-identical
    base = {"c": [0.3, [0.0, -0.1], 0.02]} if command == "graph-dump" else dict(KP_CONFIG, t_rows=[[0.05, 0.01, 0.02]])
    for n in (4, 5, 6):
        path = write_config(tmp_path, dict(base, n=n, N=8), name=f"n{n}.json")
        outs = [tmp_path / f"{command}-n{n}-{run}" for run in (1, 2)]
        for out in outs:
            assert cli.main([command, "--config", path, "--out", str(out)]) == cli.EXIT_OK
        (name,) = os.listdir(outs[0])
        text = (outs[0] / name).read_text()
        assert text == (outs[1] / name).read_text()
        if command == "graph-dump":
            values = np.array(json.loads(text)["T"], dtype=float)
            assert values.shape == (n, 9, 2)
        else:
            values = np.array(read_rows(outs[0] / name)[1], dtype=float)
        assert np.isfinite(values).all()


TOO_WIDE = cli.MAX_WINDOW + 1


@pytest.mark.parametrize(
    "command, config, flags",
    [
        ("evolve", dict(IDENTITY_CONFIG, order=TOO_WIDE), []),
        ("evolve", dict(IDENTITY_CONFIG, m_neg=TOO_WIDE), []),
        ("evolve", dict(IDENTITY_CONFIG, n_psi=TOO_WIDE), []),
        ("evolve", dict(IDENTITY_CONFIG, order=10**8), []),
        ("kp", dict(KP_CONFIG, N=TOO_WIDE), []),
        # the bound is checked before a worker pool is built
        ("kp", dict(KP_CONFIG, n=TOO_WIDE), ["--parallel", "2"]),
        ("tau", dict(KP_CONFIG, N=TOO_WIDE), []),
        ("tau", dict(KP_CONFIG, N=10**8), []),
        ("graph-dump", {"c": [0.3], "n": 1, "N": TOO_WIDE}, []),
        ("graph-dump", {"c": [0.3], "n": 1, "N": 10**8}, []),
        ("graph-dump", {"c": [0.01] * TOO_WIDE, "n": 1}, []),
    ],
)
def test_window_size_is_bounded(tmp_path, capsys, monkeypatch, command, config, flags):
    # rejected while reading the config, before any state or matrix is built
    def unreachable(*args, **kwargs):
        raise AssertionError("window arrays built for an oversized window")

    monkeypatch.setattr(evolution, "evolve", unreachable)
    monkeypatch.setattr(grassmannian, "step2_graph", unreachable)
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    code = cli.main([command, "--config", path, "--out", str(out), *flags])
    assert code == cli.EXIT_CONFIG_ERROR
    assert f"exceeds the largest window, {cli.MAX_WINDOW}" in capsys.readouterr().err
    assert not out.exists()


def test_largest_window_is_admitted(tmp_path):
    path = write_config(tmp_path, {"c": [0.3], "n": 1, "N": cli.MAX_WINDOW})
    out = tmp_path / "out"
    assert cli.main(["graph-dump", "--config", path, "--out", str(out)]) == cli.EXIT_OK
    assert json.loads((out / "graph.json").read_text())["N"] == cli.MAX_WINDOW


def test_parser_is_built_once_and_carries_no_state(tmp_path, capsys, monkeypatch):
    workers = []
    run_cells = cli._run_cells

    def recording(cells, parallel):
        workers.append(parallel)
        return run_cells(cells, parallel)

    monkeypatch.setattr(cli, "_run_cells", recording)
    config = {
        "f_source": {"c": [0.4]},
        "n": 1,
        "N": 4,
        "t_rows": [[0.05]],
        "convergence_pair": True,
    }
    path = write_config(tmp_path, config)
    wide = write_config(tmp_path, dict(config, N=8), name="wide.json")
    outs = [tmp_path / name for name in ("wide", "plain", "after_error")]
    assert cli.main(["kp", "--config", wide, "--out", str(outs[0]), "--parallel", "2"]) == cli.EXIT_OK
    assert cli.main(["kp", "--config", path, "--out", str(outs[1])]) == cli.EXIT_OK
    assert cli.main(["kp", "--config", path, "--parallel", "two"]) == cli.EXIT_CONFIG_ERROR
    assert cli.main(["kp", "--config", path, "--out", str(outs[2])]) == cli.EXIT_OK
    capsys.readouterr()
    assert workers == [2, 1, 1]
    headers = [read_rows(out / "kp_sweep.csv")[0][-1] for out in outs]
    assert headers == ["residual_16", "residual_8", "residual_8"]
    assert (outs[1] / "kp_sweep.csv").read_bytes() == (outs[2] / "kp_sweep.csv").read_bytes()
    assert cli._build_parser() is cli._build_parser()


def test_tau_command_matches_library(tmp_path):
    c = [0.4, 0.16, 0.064]
    config = {"f_source": {"c": c}, "n": 2, "N": 8, "t_rows": [[0.05, 0.03, 0.02]]}
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["tau", "--config", path, "--out", str(out)]) == cli.EXIT_OK
    header, rows = read_rows(out / "tau.csv")
    assert header == ["t1", "t2", "t3", "re_tau", "im_tau"]
    record = dict(zip(header, rows[0]))
    value = kp.tau(step2_graph(c, 2, 8), (0.05, 0.03, 0.02), 8)
    assert float(record["re_tau"]) == value.real
    assert float(record["im_tau"]) == value.imag


# ---------------------------------------------------------------------------
# graph-dump


def test_graph_dump_is_deterministic(tmp_path):
    config = {"c": [0.4, 0.16, 0.064], "n": 2, "N": 8}
    path = write_config(tmp_path, config)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(["graph-dump", "--config", path, "--out", str(out)])
        assert code == cli.EXIT_OK
        blobs.append((out / "graph.json").read_bytes())
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    assert payload["n"] == 2 and payload["N"] == 8
    assert len(payload["T"]) == 2 and len(payload["T"][0]) == 9


def test_graph_dump_stdout_mode(tmp_path, capsys):
    config = {"c": [0.3], "n": 1, "N": 4}
    path = write_config(tmp_path, config)
    assert cli.main(["graph-dump", "--config", path]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 1


def test_graph_dump_requires_c(tmp_path):
    path = write_config(tmp_path, {"n": 1, "N": 4})
    assert cli.main(["graph-dump", "--config", path]) == cli.EXIT_CONFIG_ERROR


# ---------------------------------------------------------------------------
# module entry point


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "shapeflow", "--dump-identities"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    assert len(lines) == len(checks.CHECKS)


def test_output_digests_script_lists_every_output():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "output_digests.py")],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    want = [f"check/check_{suite}.json" for suite in sorted(checks.SUITES)]
    evolve_runs = ("single_atom", "switch_off_grid", "switch_on_grid", "three_atoms", "wide_window")
    want += [f"evolve/{name}/{file}" for name in evolve_runs for file in ("conservation.json", "trajectory.csv")]
    want += [f"graph/n{n}_N{N}/graph.json" for n in (1, 2, 3) for N in (16, 32, 4)]
    want += ["identities.jsonl"]
    want += [f"sweep/n{n}{part}" for n in (1, 2, 3)
             for part in ("/kp_sweep.csv", "/tau.csv", "_nopair/kp_sweep.csv")
             + (("_rows/kp_sweep.csv", "_rows/tau.csv") if n == 2 else ())]
    want += ["sweep/snapshot/kp_sweep.csv", "sweep/snapshot/tau.csv"]
    digests, paths = zip(*(line.split("  ") for line in proc.stdout.splitlines()))
    assert list(paths) == want
    assert all(len(d) == 64 and set(d) <= set("0123456789abcdef") for d in digests)
