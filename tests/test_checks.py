"""Tests for the identity-check registry."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from shapeflow import checks


def test_catalogue_shape():
    cat = checks.catalogue()
    assert len(cat) == len(checks.registry())
    for rec in cat:
        assert set(rec) == {"name", "suite", "source"}
        assert rec["suite"] in checks.SUITES
        module, _, func = rec["source"].partition(":")
        assert module.startswith("shapeflow.") and func


def test_every_suite_is_nonempty_and_passes():
    for suite in checks.SUITES:
        records = checks.run_suite(suite)
        assert records, suite
        for rec in records:
            assert rec["passed"], (suite, rec["name"], rec["detail"])
            assert rec["detail"]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        checks.run_suite("nope")


def test_identity_audit_script_passes():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "identity_audit.py")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    verdicts = [ln.split(":")[0] for ln in lines[:-1]]
    assert verdicts == [f"[ok] {c.suite}/{c.name}" for c in checks.registry()]
    assert lines[-1] == "all identity checks passed"
