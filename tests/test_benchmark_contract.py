"""The benchmark's contract with the package: every name ``perfbench`` reaches for exists.

``perfbench/run.py --trace 1`` wraps each ``(module, attribute)`` of
``spans.TARGETS`` and stops on a missing one, and the output oracles and
workload generators import the library by name.  These tests fail as soon as
a package change would break either, without running the benchmark.
"""

import importlib
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
