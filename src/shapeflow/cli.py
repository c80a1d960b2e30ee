"""Command-line front end.

Commands
--------
``evolve``      run a shape trajectory and write a CSV plus a conservation
                report JSON.
``check``       execute one identity-check suite and emit pass/fail JSON.
``kp``          sweep a grid of generalized times: wave coefficient,
                its first derivative, KP residual, and tau per row.
``tau``         tau determinant over a time grid.
``graph-dump``  build a graph operator from shape coefficients and dump its
                deterministic JSON form.

All outputs are deterministic given the config and seed: floats are written
with ``repr`` so re-runs produce byte-identical files.  Each command takes
only the flags it reads.  Exit codes: 0 success, 1 check failure, 2 config
or usage error (an unusable ``--out`` directory, or an output file whose
name a directory takes, included, found before any computation), 3
numerical failure.  The CLI only parses the inputs, bounds their sizes
(``MAX_*``) and checks ``--out``; each other input rule lives in its layer.
Any :class:`shapeflow.InvalidInput` ends in exit 2, any
:class:`shapeflow.NumericalFailure` in exit 3.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import InvalidInput, NumericalFailure, check_keys, read_number

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3

# evolve keeps every state in memory, so a run may ask for at most this many
# steps (the example configs in scripts/configs ask for 1000)
MAX_STEPS = 100_000
# kp and tau hold a whole sweep in memory until the finiteness check, so a
# sweep may ask for at most this many time rows (the example config asks for 12)
MAX_SWEEP_ROWS = 100_000
# kp runs its sweep on at most this many worker threads (--parallel); the
# benchmark and the tests ask for 2
MAX_PARALLEL = 64
# largest order or window a config may ask for: order, m_neg, n_psi (evolve), a
# snapshot's order, n and N (kp, tau, graph-dump); the example configs and the
# benchmark use at most 16, and kp's convergence pair doubles N
MAX_WINDOW = 256


class NonFiniteOutput(NumericalFailure):
    """A value about to be written is NaN or infinite."""


# ---------------------------------------------------------------------------
# config plumbing


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated trajectory-run configuration."""

    driver: HerglotzDriver  # annotations stay strings: the driver layer loads on use
    horizon: float
    step: float
    order: int
    m_neg: int
    n_psi: int
    seed: int
    psibar0: np.ndarray

    @classmethod
    def from_dict(cls, raw) -> "RunConfig":
        from .driver import HerglotzDriver
        check_keys(raw, "config", ("driver", "horizon", "step", "order", "m_neg", "n_psi", "seed", "psibar0"))
        if "driver" not in raw:
            raise InvalidInput("config needs a 'driver' object")
        try:
            driver = HerglotzDriver.from_dict(raw["driver"])
        except (ValueError, TypeError, KeyError) as exc:
            raise InvalidInput(f"bad driver config: {exc}") from exc
        problems = driver.validate()
        if problems:
            raise InvalidInput("; ".join(problems))
        horizon = read_number(raw.get("horizon", 1.0), "horizon")
        step = read_number(raw.get("step", 1e-3), "step")
        order = read_number(raw.get("order", 16), "order", int)
        m_neg = read_number(raw.get("m_neg", 8), "m_neg", int)
        n_psi = read_number(raw.get("n_psi", 8), "n_psi", int)
        seed = read_number(raw.get("seed", 0), "seed", int)
        if horizon <= 0 or step <= 0 or order <= 0:
            raise InvalidInput("horizon, step, and order must be positive")
        steps = horizon / step
        if not (math.isfinite(steps) and round(steps) <= MAX_STEPS):
            raise InvalidInput(
                f"horizon/step asks for {steps:.3g} steps; at most {MAX_STEPS} are allowed"
            )
        if m_neg < 0 or n_psi < 0:
            raise InvalidInput("psibar window bounds must be nonnegative")
        if seed < 0:
            raise InvalidInput(f"seed must be nonnegative, got {seed}")
        _check_window({"order": order, "m_neg": m_neg, "n_psi": n_psi})
        width = m_neg + n_psi + 1
        if "psibar0" in raw:
            psibar0 = _complex_vector(raw["psibar0"], "psibar0")
            if psibar0.size != width:
                raise InvalidInput(
                    f"psibar0 must have {width} entries for window "
                    f"[-{m_neg}, {n_psi}], got {psibar0.size}"
                )
        else:
            rng = np.random.default_rng(seed)
            scale = 1.0 / (1.0 + np.abs(np.arange(-m_neg, n_psi + 1)))
            psibar0 = scale * (rng.standard_normal(width) + 1j * rng.standard_normal(width))
        return cls(
            driver=driver,
            horizon=horizon,
            step=step,
            order=order,
            m_neg=m_neg,
            n_psi=n_psi,
            seed=seed,
            psibar0=psibar0,
        )


def _load_config(path) -> dict:
    if not path:
        raise InvalidInput("this command requires --config <path>")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidInput("config root must be a JSON object")
    return raw


def _cell(text, label, kind=float):
    """A snapshot-CSV cell, which is text, parsed as ``kind`` and checked by ``read_number``."""
    try:
        value = kind(text)
    except ValueError:
        raise InvalidInput(f"{label} must be a number, got {text!r}") from None
    return read_number(value, label, kind)


def _check_window(sizes):
    """InvalidInput when a window size passes MAX_WINDOW; checked before allocating."""
    for label, size in sizes.items():
        if size > MAX_WINDOW:
            raise InvalidInput(f"{label} = {size} exceeds the largest window, {MAX_WINDOW}")


def _complex_vector(values, label) -> np.ndarray:
    """Accept [x, ...] or [[re, im], ...] JSON lists."""
    out = []
    if not isinstance(values, (list, tuple)):
        raise InvalidInput(f"{label} must be a JSON list")
    for v in values:
        if not isinstance(v, (list, tuple)):
            out.append(complex(read_number(v, label)))
        elif len(v) == 2:
            out.append(complex(read_number(v[0], label), read_number(v[1], label)))
        else:
            raise InvalidInput(f"{label} entries must be numbers or [re, im]")
    return np.asarray(out, dtype=complex)


def _check_out_dir(path, filenames):
    """InvalidInput unless ``path`` is, or can be made, a writable directory
    in which no ``filenames`` entry is taken by a directory.

    Checked before any computation; the directory itself is made only when
    the first output is written, so a failed run leaves nothing behind.
    """
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise InvalidInput(f"output directory {path!r} is unusable: {probe!r} is not a directory")
    if not os.access(probe, os.W_OK | os.X_OK):
        raise InvalidInput(f"output directory {path!r} is unusable: {probe!r} is not writable")
    for name in filenames:
        target = os.path.join(path, name)
        if os.path.isdir(target):
            raise InvalidInput(f"output file {target!r} is unusable: it is a directory")


def _outputs(args) -> list:
    """The names of the files ``args.command`` writes, from ``_COMMANDS``."""
    return [name.format(**vars(args)) for name in _COMMANDS[args.command][3]]


def _out_paths(args) -> list:
    """The paths of the command's output files; their directory is made here."""
    out_dir = args.out or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise InvalidInput(f"output directory {out_dir!r} is unusable: {exc}") from exc
    return [os.path.join(out_dir, name) for name in _outputs(args)]


def _fmt(value: float) -> str:
    return repr(float(value))


def _require_finite(values, what):
    """NonFiniteOutput unless every value is finite; checked before writing."""
    if not np.isfinite(np.asarray(values, dtype=complex)).all():
        raise NonFiniteOutput(f"{what} holds a non-finite value; nothing was written")


# ---------------------------------------------------------------------------
# evolve


def _koebe_errors(record) -> list:
    """Per-step implicit-solution error K(e^-t f(z)) - e^-t K(z) on |z| <= 0.2."""
    z = 0.2 * np.exp(2j * np.pi * np.arange(10) / 10)

    def kb(x):
        return x / (1.0 + x) ** 2

    errs = []
    for state in record.states:
        w = np.exp(-state.t) * state.f(z)
        errs.append(float(np.abs(kb(w) - np.exp(-state.t) * kb(z)).max()))
    return errs


def _energy_drift(record) -> float:
    """Largest drift of H + G_0 within one driver piece.

    H + G_0 is conserved along the flow of one piece; H jumps at a switch.
    Each state's piece is the one ``evolve`` recorded, ``record.pieces``.
    """
    from .evolution import g0
    energy = record.hamiltonian + np.array([g0(s) for s in record.states])
    switches = np.flatnonzero(np.diff(record.pieces)) + 1
    return float(np.max([np.abs(e - e[0]).max() for e in np.split(energy, switches)]))


def cmd_evolve(args) -> int:
    from . import evolution
    from .driver import HerglotzDriver
    config = RunConfig.from_dict(_load_config(args.config))
    state0 = evolution.ShapeState.initial(config.order, config.m_neg, config.n_psi, config.psibar0)
    record = evolution.evolve(state0, config.driver, config.horizon, config.step)

    extra = {}
    koebe_max = None
    # the closed form is known for one unit atom at angle zero from t = 0
    if config.driver == HerglotzDriver.single_atom():
        errs = _koebe_errors(record)
        extra["koebe_error"] = errs
        koebe_max = max(errs)

    report = {
        "drift": record.drift_report(),
        "energy_invariant_drift": _energy_drift(record),
        "horizon": config.horizon,
        "step": config.step,
        "order": config.order,
        "m_neg": config.m_neg,
        "n_psi": config.n_psi,
        "seed": config.seed,
        "steps": len(record.states),
    }
    if koebe_max is not None:
        report["koebe_max_error"] = koebe_max
    checked = [*report["drift"].values(), report["energy_invariant_drift"]]
    _require_finite(checked + extra.get("koebe_error", []), "the conservation report")

    csv_path, report_path = _out_paths(args)
    record.to_csv(csv_path, extra_columns=extra)
    report["trajectory_csv"] = os.path.basename(csv_path)
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    worst = max(report["drift"].values()) if report["drift"] else 0.0
    print(
        f"evolved {len(record.states) - 1} steps to t={float(record.times[-1])}; "
        f"max generating-coefficient drift {worst:.3e}; wrote {csv_path}, {report_path}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    from . import checks
    records = checks.run_suite(args.suite)
    passed = all(r["passed"] for r in records)
    payload = {"suite": args.suite, "passed": passed, "results": records}
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        (path,) = _out_paths(args)
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK if passed else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# kp / tau sweeps


def _read_snapshot(path, at_t) -> np.ndarray:
    """Shape coefficients from a trajectory CSV row nearest to at_t."""
    try:
        with open(path) as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InvalidInput(f"cannot read snapshot CSV: {exc}") from exc
    if len(rows) < 2:
        raise InvalidInput("snapshot CSV has no data rows")
    header = rows[0]
    try:
        t_col = header.index("t")
    except ValueError:
        raise InvalidInput("snapshot CSV lacks a 't' column")
    indices = [
        _cell(name[len("re_c_") :], "snapshot column", int)
        for name in header
        if name.startswith(("re_c_", "im_c_"))
    ]
    if not indices:
        raise InvalidInput("snapshot CSV lacks re_c_*/im_c_* columns")
    if min(indices) < 1:
        raise InvalidInput(f"snapshot CSV has a column for c_{min(indices)}; c_n starts at n = 1")
    order = max(indices)
    _check_window({"snapshot order": order})
    missing = [
        f"{p}_c_{n}"
        for n in range(1, order + 1)
        for p in ("re", "im")
        if f"{p}_c_{n}" not in header
    ]
    if missing:
        raise InvalidInput(f"snapshot CSV lacks the column(s) {', '.join(missing)}")
    data = rows[1:]
    for line, r in enumerate(data, start=2):
        if len(r) < len(header):
            raise InvalidInput(
                f"snapshot CSV line {line} has {len(r)} fields, its header has {len(header)}"
            )
    times = np.array([_cell(r[t_col], "snapshot t") for r in data])
    pick = data[int(np.abs(times - at_t).argmin())]
    c = np.empty(order, dtype=complex)
    for n in range(1, order + 1):
        re = _cell(pick[header.index(f"re_c_{n}")], f"snapshot re_c_{n}")
        im = _cell(pick[header.index(f"im_c_{n}")], f"snapshot im_c_{n}")
        c[n - 1] = complex(re, im)
    return c


def _shape_from_source(raw) -> np.ndarray:
    source = raw.get("f_source")
    if not isinstance(source, dict):
        raise InvalidInput("config needs an 'f_source' object")
    check_keys(source, "f_source", ("c", "snapshot_csv", "at_t"), exclusive=("c", "snapshot_csv"))
    if "at_t" in source and "snapshot_csv" not in source:
        raise InvalidInput("f_source.at_t is read only with 'snapshot_csv'")
    if "c" in source:
        return _complex_vector(source["c"], "f_source.c")
    if "snapshot_csv" in source:
        path = source["snapshot_csv"]
        if not isinstance(path, str):
            raise InvalidInput(f"f_source.snapshot_csv must be a path string, got {path!r}")
        if "at_t" not in source:
            raise InvalidInput("snapshot f_source needs 'at_t'")
        return _read_snapshot(path, read_number(source["at_t"], "at_t"))
    raise InvalidInput("f_source must supply 'c' or 'snapshot_csv'")


def _check_rows(count):
    """InvalidInput when a sweep asks for more than MAX_SWEEP_ROWS rows, before they are built."""
    if count > MAX_SWEEP_ROWS:
        raise InvalidInput(f"the sweep asks for {count} rows; at most {MAX_SWEEP_ROWS} are allowed")


def _time_rows(raw) -> list:
    if "t_rows" in raw:
        rows = raw["t_rows"]
        if not isinstance(rows, list) or not rows:
            raise InvalidInput("t_rows must be a nonempty list of [t1, t2, t3] rows")
        _check_rows(len(rows))
        out = []
        for row in rows:
            if not isinstance(row, list) or not (1 <= len(row) <= 3):
                raise InvalidInput("each t_rows entry must list 1 to 3 times")
            vals = tuple(read_number(v, "t_rows entry") for v in row)
            out.append(vals + (0.0,) * (3 - len(vals)))
        return out
    if "t_grid" in raw:
        grid = raw["t_grid"]
        if not isinstance(grid, dict):
            raise InvalidInput("t_grid must be an object with t1/t2/t3 lists")
        check_keys(grid, "t_grid", ("t1", "t2", "t3"))
        axes = {key: grid.get(key, [0.0]) for key in ("t1", "t2", "t3")}
        for key, vals in axes.items():
            if not isinstance(vals, list) or not vals:
                raise InvalidInput(f"t_grid.{key} must be a nonempty list")
        _check_rows(math.prod(len(vals) for vals in axes.values()))
        times = [[read_number(v, f"t_grid.{k} entry") for v in vals] for k, vals in axes.items()]
        return list(itertools.product(*times))
    raise InvalidInput("config needs 't_rows' or 't_grid'")


def _graph_ints(raw, default_N=16) -> tuple:
    """Graph order n and window N, N by default max(default_N, n); their rules are step2_graph's."""
    n = read_number(raw.get("n", 1), "n", int)
    _check_window({"n": n})
    N = read_number(raw.get("N", max(default_N, n)), "N", int)
    _check_window({"N": N})
    return n, N


def _kp_cell(payload):
    from . import kp
    c, op, trow, N, pair = payload
    # one times object per row: its tables and tau share one Schur recurrence
    times = kp.GeneralizedTimes(trow)
    parts = kp.omega1_and_partials(kp.ABForm.build(c, times, N))
    omega1 = parts[(0, 0, 0)]
    lambda1 = -parts[(1, 0, 0)]
    residual = float(abs(kp.kp_value(parts)))
    tau_value = kp.tau(op, times, N)
    row = [*trow, omega1.real, omega1.imag, lambda1.real, lambda1.imag, residual]
    row += [tau_value.real, tau_value.imag]
    if pair:
        row.append(kp.kp_residual(c, times, 2 * N))
    return row


def _run_cells(cells, parallel):
    if parallel > 1:
        import concurrent.futures
        import contextvars
        # each cell runs in a copy of the caller's context, so the numpy error
        # state set around the dispatch holds in the worker threads too
        with concurrent.futures.ThreadPoolExecutor(max_workers=parallel) as pool:
            jobs = [pool.submit(contextvars.copy_context().run, _kp_cell, c) for c in cells]
            return [job.result() for job in jobs]
    return [_kp_cell(cell) for cell in cells]


def _sweep_input(raw) -> tuple:
    """The shape c, the window N, the time rows, the graph and the convergence
    pair flag of a kp or tau config."""
    from . import grassmannian
    keys = ("f_source", "n", "N", "t_rows", "t_grid", "convergence_pair")
    check_keys(raw, "config", keys, exclusive=("t_rows", "t_grid"))
    pair = raw.get("convergence_pair", False)
    if not isinstance(pair, bool):
        raise InvalidInput(f"convergence_pair must be true or false, got {pair!r}")
    c = _shape_from_source(raw)
    n, N = _graph_ints(raw)
    rows = _time_rows(raw)
    return c, N, rows, grassmannian.step2_graph(c, n, N), pair


def _write_sweep(args, header, rows, what) -> int:
    """The rows under their CSV header, once every value is finite."""
    _require_finite(rows, what)
    (path,) = _out_paths(args)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
    print(f"wrote {len(rows)} rows to {path}")
    return EXIT_OK


def cmd_kp(args) -> int:
    c, N, rows, op, pair = _sweep_input(_load_config(args.config))
    header = "t1,t2,t3,re_omega1,im_omega1,re_lambda1,im_lambda1,residual,re_tau,im_tau"
    if pair:
        header += f",residual_{2 * N}"
    results = _run_cells([(c, op, trow, N, pair) for trow in rows], args.parallel)
    return _write_sweep(args, header, results, "the kp sweep")


def cmd_tau(args) -> int:
    from . import kp
    _, N, rows, op, _ = _sweep_input(_load_config(args.config))
    values = [kp.tau(op, trow, N) for trow in rows]
    table = [(*trow, value.real, value.imag) for trow, value in zip(rows, values)]
    return _write_sweep(args, "t1,t2,t3,re_tau,im_tau", table, "the tau sweep")


# ---------------------------------------------------------------------------
# graph-dump


def cmd_graph_dump(args) -> int:
    from . import grassmannian
    raw = _load_config(args.config)
    check_keys(raw, "config", ("c", "n", "N"))
    if "c" not in raw:
        raise InvalidInput("graph-dump config needs a 'c' list")
    c = _complex_vector(raw["c"], "c")
    n, N = _graph_ints(raw, default_N=len(c))
    op = grassmannian.step2_graph(c, n, N)
    values = [op.matrix.ravel(), op.c11[0], op.basis.ravel()]
    _require_finite(np.concatenate(values), "the graph operator")
    text = op.to_json()
    if args.out:
        (path,) = _out_paths(args)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch


def _workers(text):
    """A ``--parallel`` count, an integer from 1 to MAX_PARALLEL; else a usage error."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= count <= MAX_PARALLEL:
        raise argparse.ArgumentTypeError(f"must be from 1 to {MAX_PARALLEL}, got {count}")
    return count


# the flags each command reads; any other flag is a usage error
_FLAGS = {
    "config": ("--config", {"help": "path to a JSON config file"}),
    "out": ("--out", {"default": ".", "help": "output directory (default: current)"}),
    "out_or_stdout": ("--out", {"help": "output directory (default: print to stdout)"}),
    "parallel": ("--parallel", {"type": _workers, "default": 1, "help": "worker count for sweep cells"}),
}
# per command: handler, help text, the flags it reads, and the files it
# writes under --out (formatted with the parsed arguments)
_COMMANDS = {
    "evolve": (
        cmd_evolve,
        "run a shape trajectory",
        ("config", "out"),
        ("trajectory.csv", "conservation.json"),
    ),
    "check": (
        cmd_check,
        "run an identity suite",
        ("out_or_stdout",),
        ("check_{suite}.json",),
    ),
    "kp": (
        cmd_kp,
        "sweep generalized times",
        ("config", "out", "parallel"),
        ("kp_sweep.csv",),
    ),
    "tau": (
        cmd_tau,
        "tau determinant over a time grid",
        ("config", "out"),
        ("tau.csv",),
    ),
    "graph-dump": (
        cmd_graph_dump,
        "dump a graph operator as JSON",
        ("config", "out_or_stdout"),
        ("graph.json",),
    ),
}


def _suite(name):
    """A check suite name; checked only when ``check`` is parsed, so only it loads the checks."""
    from . import checks
    if name not in checks.SUITES:
        choices = ", ".join(map(repr, checks.SUITES))
        raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {choices})")
    return name


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and then reused.

    It is not built at import, so importing the CLI builds no parser.
    """
    parser = argparse.ArgumentParser(
        prog="shapeflow",
        description="Shape evolution, identity checks, and integrable-flow sweeps.",
    )
    parser.add_argument(
        "--dump-identities",
        action="store_true",
        help="list every identity check with its source location and exit",
    )
    sub = parser.add_subparsers(dest="command")
    for command, (_, text, flags, _) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=text)
        if command == "check":
            cmd.add_argument("suite", type=_suite, help="identity suite (see --dump-identities)")
        for flag in flags:
            name, options = _FLAGS[flag]
            cmd.add_argument(name, **options)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else EXIT_OK
    if args.dump_identities:
        from . import checks
        for record in checks.catalogue():
            print(json.dumps(record, sort_keys=True))
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG_ERROR
    handler = _COMMANDS[args.command][0]
    try:
        if args.out is not None:
            _check_out_dir(args.out or ".", _outputs(args))
        # overflow and NaN are caught by the finiteness checks before any
        # write, and reported once as a numerical failure
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return handler(args)
    except InvalidInput as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
