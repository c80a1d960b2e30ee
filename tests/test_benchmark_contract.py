"""The benchmark's contract with the package: every name ``perfbench`` reaches for exists,
and the tiny benchmark passes its own output checks.

``perfbench/run.py --trace 1`` wraps each ``(module, attribute)`` of
``spans.TARGETS`` and stops on a missing one or on a span its mix never
enters, the output oracles and workload generators import the library by
name, and an operation whose output fails its oracle lowers ``ok_frac``.
These tests fail as soon as a package change would do any of that, without
running the timed benchmark.
"""

import contextlib
import importlib
import io
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench_on_path(monkeypatch):
    # the benchmark's modules import each other as top-level modules
    monkeypatch.syspath_prepend(PERFBENCH)


def test_every_traced_target_resolves(perfbench_on_path):
    spans = importlib.import_module("spans")
    for module, path, name in spans.TARGETS:
        mod = importlib.import_module(f"shapeflow.{module}")
        if "." in path:
            # the tracer replaces methods in the class __dict__
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(mod, cls_name)), name
        else:
            assert callable(getattr(mod, path, None)), name


@pytest.mark.parametrize("name", ["oracles", "workloads"])
def test_benchmark_modules_import(perfbench_on_path, name):
    importlib.import_module(name)


def test_tiny_workloads_pass_their_oracles_and_enter_every_span(perfbench_on_path, tmp_path):
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    from shapeflow import checks, cli, driver, evolution

    for module in {module for module, _, _ in spans.TARGETS}:
        importlib.import_module(f"shapeflow.{module}")
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name in workloads.WORKLOADS:
            for op in workloads.generate(name, 7, tmp_path / name, tiny=True).ops:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(op.argv)
                with tracer.paused():
                    assert (op.key, code, op.check(stdout.getvalue())) == (op.key, cli.EXIT_OK, [])
        # perfbench/micro.py also calls rhs directly, leaving the driver moments to it
        state = evolution.ShapeState.initial(16, m_neg=8, n_psi=8)
        evolution.rhs(state, driver.HerglotzDriver.single_atom(0.5))
    finally:
        tracer.remove()
    expected = set()
    for _, _, span in spans.TARGETS:
        expected |= {span.format(suite) for suite in checks.SUITES} if "{0}" in span else {span}
    assert expected - set(tracer.summary()) == set()
