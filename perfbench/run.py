"""Seeded benchmark of the ``shapeflow`` command line.

    python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/``; the
run refuses to start when it is missing.  Inputs are generated from the
seed (see ``workloads.py``), every output is checked by ``oracles.py``, and
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

* ``items_per_s``: items completed per second of command time, the 10th
  percentile over rounds of the workload's commands.  An item is one RK4
  step (flow), one sweep row of ``kp`` or ``tau`` (kp_sweep), or one
  identity record or graph (identities).
* ``op_p90_s``: 90th percentile of the wall time of one user operation, one
  in-process ``cli.main`` call.  On kp_sweep a user operation is a shape's
  ``kp`` command together with its ``tau`` command, so that every sample
  covers both kinds of command.
* ``setup_s``: median over fresh interpreters of importing ``shapeflow.cli``,
  loading (flow: validating) the workload's configs and, on kp_sweep, the
  first omega_1 and KP-residual evaluation that builds the sympy engine.
* ``peak_rss_mb``: peak resident memory of a fresh interpreter after set-up
  and one round of the workload's commands.
* ``ok_frac``: operations whose exit code and outputs passed, over those
  attempted (1 - the failed fraction; ``failed`` itself can be 0).

``items_per_s`` and ``op_p90_s`` are tail statistics on purpose.  On a
shared host the speed alternates between a steady state and bursts of extra
speed that come and go over minutes; the slow tail tracks the steady state
and moves least from run to run, where the medians moved by a fifth.  The
medians are kept in the run record.

Commands run in a closed loop, one at a time: one untimed warm round of the
workload, then whole rounds until ``--seconds`` have passed.  Every command
is rerun and its output must be byte-identical to its first run.

With ``--trace 1`` the run ignores ``--seconds`` and runs a fixed mix of
commands from all three workloads, once untraced and once with spans around
each module's public functions (``spans.py``), so per-layer counts repeat
exactly; it adds the layer timings of ``micro.py``, cold-start probes in
fresh interpreters and the ``kp --parallel 2`` ratio.  Spans and a record
of the machine and sizes are written under ``.bench_out/records/``.

Child interpreters get one BLAS thread and run one at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)  # before numpy is imported, here and in children

SETUP_PROBES = 5
LAYER_PROBES = 3
PARALLEL_REPEATS = 3
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "items_per_s": "1/s",
    "op_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
COUNT_SPANS = ("series.init", "driver.moments", "evolution.rhs", "observables.poisson_bracket",
               "grassmannian.step2_graph", "kp.abform_build")
SELF_SPANS = {
    "series.init": "series.init_s",
    "driver.moments": "driver.moments_s",
    "driver.validate": "driver.validate_s",
    "evolution.rhs": "evolution.rhs_s",
    "evolution.generating_function": "evolution.generating_function_s",
    "evolution.pseudo_hamiltonian": "evolution.pseudo_hamiltonian_s",
    "evolution.evolve": "evolution.evolve_self_s",
    "evolution.to_csv": "evolution.to_csv_s",
    "observables.poisson_bracket": "observables.poisson_bracket_s",
    "observables.gbar_coefficient": "observables.gbar_coefficient_s",
    "observables.corrected_G": "observables.corrected_G_s",
    "observables.iota": "observables.iota_s",
    "virasoro.kirillov_L": "virasoro.kirillov_L_s",
    "virasoro.commutator": "virasoro.commutator_s",
    "virasoro.schaeffer_spencer": "virasoro.schaeffer_spencer_s",
    "grassmannian.step2_graph": "grassmannian.step2_graph_s",
    "kp.abform_build": "kp.abform_build_s",
    "kp.omega1": "kp.omega1_s",
    "kp.kp_residual": "kp.kp_residual_s",
    "kp.tau": "kp.tau_s",
    "kp.schur": "kp.schur_s",
    "checks.witt": "checks.witt_s",
    "checks.bracket": "checks.bracket_s",
    "checks.basis": "checks.basis_s",
    "checks.quadrature": "checks.quadrature_s",
    "cli.command": "cli.command_self_s",
}
MICRO = ("series.mul_us.n16", "series.mul_us.n64", "series.mul_exact_us.n8", "series.reciprocal_us.n16",
         "series.exp_us.n16", "evolution.rhs_us.n16", "evolution.rhs_us.n64", "kp.abform_build_us.n16",
         "kp.abform_build_us.n64", "grassmannian.step2_graph_us.n16", "grassmannian.step2_graph_us.n64")
PER_LAYER = {
    **{f"{name}_count": "count" for name in COUNT_SPANS},
    **{metric: "s" for metric in SELF_SPANS.values()},
    **{name: "us" for name in MICRO},
    "evolution.csv_bytes": "bytes",
    "cli.import_s": "s",
    "cli.modules_loaded": "count",
    "kp.engine_cold_s": "s",
    "cli.bytes_written": "bytes",
    "cli.kp_parallel2_over_serial": "ratio",
    "trace.overhead_frac": "fraction",
}
# fixed traced mix: leading commands of each workload
TRACE_MIX = {"flow": 2, "kp_sweep": 6, "identities": 5}


class BenchError(RuntimeError):
    """The benchmark could not measure (not a failed operation)."""


def _child_env():
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = SRC
    return env


def _probe(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), *args],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"probe {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec(work, wl, round_argv=()):
    path = os.path.join(work, f"spec-{wl.name}.json")
    rows = [[[[v.real, v.imag] for v in c], list(t), N] for c, t, N in wl.setup_rows]
    with open(path, "w") as fh:
        json.dump({"workload": wl.name, "configs": wl.configs, "setup_rows": rows, "round": list(round_argv)}, fh)
    return path


class Runner:
    """Runs operations in-process, checks them and keeps the tallies."""

    def __init__(self):
        from shapeflow import cli

        self.cli = cli
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.bytes_written = 0

    def run(self, op):
        """Wall seconds of one command; a failure is tallied, not raised."""
        shutil.rmtree(op.out_dir, ignore_errors=True)
        gc.collect()  # garbage of earlier commands is not this one's cost
        buf = io.StringIO()
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(op.argv)
            elapsed = time.perf_counter() - t0
            stdout = buf.getvalue()
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                problems = [f"exit code {rc}"] if rc != 0 else op.check(stdout)
            digest, size = _digest(op.out_dir, stdout)
            self.bytes_written += size
            first = self.digests.setdefault(op.key, digest)
            if first != digest:
                problems.append("output differs from the first run of the same command")
        except Exception as exc:  # a crash is a failed operation
            elapsed, problems = 0.0, [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{op.key}: {'; '.join(problems)}")
        return elapsed


def _digest(out_dir, stdout):
    h = hashlib.sha256(stdout.encode())
    size = len(stdout.encode())
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def _groups(ops):
    """Consecutive ops of one group, as lists."""
    out = []
    for op in ops:
        if out and out[-1][0].group == op.group:
            out[-1].append(op)
        else:
            out.append([op])
    return out


def measure(wl, seconds, work):
    probes = [_probe("setup", _spec(work, wl)) for _ in range(SETUP_PROBES - 1)]
    round_argv = [[a if a != op.out_dir else os.path.join(work, "probe", op.key) for a in op.argv] for op in wl.ops]
    probes.append(_probe("setup", _spec(work, wl, round_argv)))
    if probes[-1]["exit_codes"] != [0] * len(wl.ops):
        raise BenchError(f"set-up probe round exited {probes[-1]['exit_codes']}")

    runner = Runner()
    groups = _groups(wl.ops)
    for op in wl.ops:  # warm round: fills lazy caches, checked but not timed
        runner.run(op)
    samples, rates, items = [], [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(rates) < 2:  # whole rounds keep the mix fixed
        round_s = 0.0
        for group in groups:
            samples.append(sum(runner.run(op) for op in group))
            round_s += samples[-1]
        items += sum(op.items for op in wl.ops)
        rates.append(sum(op.items for op in wl.ops) / round_s)
    busy = sum(samples)
    attempted = runner.attempted
    metrics = {
        "items_per_s": statistics.quantiles(rates, n=10, method="inclusive")[0],
        "op_p90_s": statistics.quantiles(samples, n=10, method="inclusive")[8],
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": probes[-1]["peak_rss_mb"],
        "ok_frac": (attempted - runner.failed) / attempted,
    }
    info = {"op_samples": samples, "op_p50_s": statistics.median(samples), "round_rates": rates,
            "items_per_s_p50": statistics.median(rates), "items": items, "busy_s": busy,
            "setup_samples": [p["setup_s"] for p in probes]}
    return runner, metrics, info


def trace_run(workload, seed, work, tiny):
    import micro
    import spans
    import workloads

    layer = {}
    imports = [_probe("import") for _ in range(LAYER_PROBES)]
    layer["cli.import_s"] = statistics.median(p["import_s"] for p in imports)
    layer["cli.modules_loaded"] = imports[0]["modules_loaded"]

    wls = {name: workloads.generate(name, seed, os.path.join(work, name), tiny) for name in workloads.WORKLOADS}
    kp_spec = _spec(work, wls["kp_sweep"])
    layer["kp.engine_cold_s"] = statistics.median(
        _probe("engine", kp_spec)["engine_cold_s"] for _ in range(LAYER_PROBES)
    )

    from shapeflow import kp

    (c, t, N), = wls["kp_sweep"].setup_rows
    kp.omega1_and_partials(kp.ABForm.build(c, t, N))  # build the engine before timing
    kp.kp_residual(c, t, N)
    timings, sizes = micro.timings(seed)
    layer.update(timings)

    mix = [op for name, count in TRACE_MIX.items() for op in wls[name].ops[:count]]
    runner = Runner()
    base = sum(runner.run(op) for op in mix)
    bytes_before = runner.bytes_written
    tracer = runner.tracer = spans.Tracer()
    tracer.install()
    try:
        traced = sum(runner.run(op) for op in mix)
    finally:
        tracer.remove()
        runner.tracer = None
    layer["trace.overhead_frac"] = traced / base - 1.0
    layer["cli.bytes_written"] = runner.bytes_written - bytes_before
    layer["evolution.csv_bytes"] = sum(
        os.path.getsize(os.path.join(op.out_dir, "trajectory.csv")) for op in mix if op.argv[0] == "evolve"
    )
    summary = tracer.summary()
    for name in COUNT_SPANS:
        layer[f"{name}_count"] = summary.get(name, (0, 0.0))[0]
    for name, metric in SELF_SPANS.items():
        layer[metric] = summary.get(name, (0, 0.0))[1]
    idle = sorted(name for name in SELF_SPANS if name not in summary)
    if idle:
        raise BenchError(f"traced mix never called: {', '.join(idle)}")

    layer["cli.kp_parallel2_over_serial"] = _parallel_ratio(runner, wls["kp_sweep"].ops[0])
    os.makedirs(os.path.join(ROOT, ".bench_out", "records"), exist_ok=True)
    spans_path = os.path.join(ROOT, ".bench_out", "records", f"spans-{workload}-seed{seed}.jsonl")
    tracer.write(spans_path)
    info = {"mix": [op.key for op in mix], "spans": len(tracer.spans), "spans_file": spans_path,
            "micro_sizes": sizes, "workload_sizes": {name: wl.sizes for name, wl in wls.items()}}
    return runner, layer, info


def _parallel_ratio(runner, kp_op):
    """Warm ``kp --parallel 2`` time over serial on one grid, medians of alternating runs."""
    serial, parallel = [], []
    for _ in range(PARALLEL_REPEATS):
        serial.append(runner.run(kp_op))
        parallel.append(runner.run(_with_parallel(kp_op)))
    return statistics.median(parallel) / statistics.median(serial)


def _with_parallel(op):
    # same key: the parallel output must be byte-identical to the serial one
    return dataclasses.replace(op, argv=op.argv + ["--parallel", "2"])


def _source_id():
    """Hash of the package sources, plus the git commit when the checkout has one."""
    h = hashlib.sha256()
    for name in sorted(glob.glob(os.path.join(SRC, "shapeflow", "*.py"))):
        with open(name, "rb") as fh:
            h.update(os.path.basename(name).encode() + b"\0" + fh.read())
    out = {"source_sha256": h.hexdigest()}
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        path = os.path.join(ROOT, ".git", ref[5:]) if ref.startswith("ref: ") else None
        if path is None:
            out["git_sha"] = ref
        elif os.path.isfile(path):
            with open(path) as fh:
                out["git_sha"] = fh.read().strip()
    return out


def _machine():
    import numpy
    import sympy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "sympy": sympy.__version__, "platform": platform.platform(), "blas_threads": BLAS_ENV,
            "child_processes": "one at a time"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("flow", "kp_sweep", "identities"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "shapeflow", "__init__.py")):
        print(f"no shapeflow package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import shapeflow

    if not os.path.abspath(shapeflow.__file__).startswith(SRC + os.sep):
        print(f"shapeflow imported from {shapeflow.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = os.path.join(ROOT, ".bench_out", tag)
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            runner, metrics, info = trace_run(args.workload, args.seed, work, args.tiny)
            units = PER_LAYER
        else:
            wl = workloads.generate(args.workload, args.seed, work, args.tiny)
            runner, metrics, info = measure(wl, args.seconds, work)
            info["sizes"] = wl.sizes
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": _machine(), **_source_id(), **info, "metrics": metrics,
              "attempted": runner.attempted, "failed": runner.failed, "problems": runner.problems}
    records = os.path.join(ROOT, ".bench_out", "records")
    os.makedirs(records, exist_ok=True)
    with open(os.path.join(records, f"{tag.rsplit('-', 1)[0]}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)

    for problem in runner.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name in units:
        print(f"{args.workload:>10} {name:<40} {metrics[name]:.6g} {units[name]}")
    print(f"{args.workload:>10} failed_frac {runner.failed}/{runner.attempted}"
          + (f", {len(info['op_samples'])} op samples" if "op_samples" in info else ""))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
