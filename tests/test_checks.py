"""Tests for the identity-check declarations."""

import importlib
import json

import numpy as np
import pytest

from shapeflow import checks, cli

DUMP_IDENTITIES = """\
{"name": "witt_structure_constants", "source": "shapeflow.virasoro:commutator", "suite": "witt"}
{"name": "witt_recursive_fields", "source": "shapeflow.virasoro:kirillov_L", "suite": "witt"}
{"name": "bracket_generating_coefficients", "source": "shapeflow.observables:poisson_bracket", "suite": "bracket"}
{"name": "bracket_observable_lift", "source": "shapeflow.observables:iota", "suite": "bracket"}
{"name": "basis_displayed_coefficients", "source": "shapeflow.grassmannian:step2_graph", "suite": "basis"}
{"name": "basis_observable_gradients", "source": "shapeflow.grassmannian:step2_graph", "suite": "basis"}
{"name": "quadrature_identity_map", "source": "shapeflow.virasoro:schaeffer_spencer", "suite": "quadrature"}
{"name": "quadrature_sample_map", "source": "shapeflow.virasoro:schaeffer_spencer", "suite": "quadrature"}
"""


def test_dump_identities_listing_is_pinned(capsys):
    assert cli.main(["--dump-identities"]) == cli.EXIT_OK
    assert capsys.readouterr().out == DUMP_IDENTITIES


def test_catalogue_shape():
    # the catalogue and the suites come from the declarations
    cat = checks.catalogue()
    assert [rec["name"] for rec in cat] == list(checks.CHECKS)
    assert checks.SUITES == ("witt", "bracket", "basis", "quadrature")
    for rec in cat:
        suite, exercised, _ = checks.CHECKS[rec["name"]]
        assert rec["suite"] == suite
        module, _, func = rec["source"].partition(":")
        assert getattr(importlib.import_module(module), func) is exercised


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


def _terms(field):
    return {n: poly.terms() for n, poly in field.components.items()}


@pytest.mark.parametrize(
    "spec, n_c", [(checks._STRUCTURE_CONSTANTS, 14), (checks._RECURSIVE_FIELD, 7)]
)
def test_witt_window_is_derived_and_tight(spec, n_c):
    pairs, w = spec
    assert checks._witt_window(pairs, w) == n_c
    derived = checks._witt_sides(pairs, w, n_c)
    wide = checks._witt_sides(pairs, w, 16)
    for (got, want), (got16, want16) in zip(derived, wide):
        assert got.window.n_c == n_c and got16.window.n_c == 16
        assert got == want
        # the same polynomials as on the old 16-window, not merely both exact
        assert _terms(got) == _terms(got16) and _terms(want) == _terms(want16)
    # one smaller and the truncation edge reaches the compared window
    assert any(got != want for got, want in checks._witt_sides(pairs, w, n_c - 1))


def _failing(suite, capsys):
    """Name -> detail of the failing records of one suite, whose CLI run must fail too."""
    records = checks.run_suite(suite)
    assert cli.main(["check", suite]) == cli.EXIT_CHECK_FAILURE
    assert json.loads(capsys.readouterr().out)["passed"] is False
    return {rec["name"]: rec["detail"] for rec in records if not rec["passed"]}


# (row offset from n, column) of one NaN in the basis: row n - 1 of column 0
# is read by both checks, row n of column 1 only by the displayed
# coefficients, row n - 3 of column 8 only by the gradients
@pytest.mark.parametrize(
    "offset, column, failing",
    [
        (-1, 0, {"basis_displayed_coefficients", "basis_observable_gradients"}),
        (0, 1, {"basis_displayed_coefficients"}),
        (-3, 8, {"basis_observable_gradients"}),
    ],
)
def test_basis_checks_fail_on_nan(monkeypatch, capsys, offset, column, failing):
    c, op = checks._basis_fixture()
    op.basis[op.n + offset, column] = np.nan
    monkeypatch.setattr(checks, "_basis_fixture", lambda: (c, op))
    details = _failing("basis", capsys)
    assert set(details) == failing
    assert all(detail.endswith("= nan") for detail in details.values())


# the checks ask for k = (1, 2, 3, 0, -1) and (-1, 0, 1, 2, 3): a NaN in the
# first or the last result
@pytest.mark.parametrize("at", [0, -1])
def test_quadrature_checks_fail_on_nan(monkeypatch, capsys, at):
    quadrature = checks.schaeffer_spencer

    def with_nan(f, ks):
        out = quadrature(f, ks)
        out[at][1] = np.nan
        return out

    monkeypatch.setattr(checks, "schaeffer_spencer", with_nan)
    details = _failing("quadrature", capsys)
    assert set(details) == {"quadrature_identity_map", "quadrature_sample_map"}
    assert details["quadrature_identity_map"].endswith(", |error| = nan")
    assert details["quadrature_sample_map"] == "quadrature sup-error nan exceeds 1e-10"


# A check whose identity fails: the exercised function, as checks imports it,
# doubles its result on the arguments ``wrong`` picks.  The recursive field
# is L_-3, which only witt_recursive_fields builds; iota is wrong only on
# corrected G_0, after the three Gbar lifts have passed.
@pytest.mark.parametrize(
    "suite, name, wrong, failing",
    [
        ("witt", "commutator", lambda x, y: True, {
            "witt_structure_constants": "[L_1, L_2] != (2-1) L_3 on window 12",
            "witt_recursive_fields": "[L_-3, L_3] != 6 L_0 on window 4",
        }),
        ("witt", "kirillov_L", lambda k, window: k == -3, {
            "witt_recursive_fields": "[L_-3, L_3] != 6 L_0 on window 4",
        }),
        ("bracket", "poisson_bracket", lambda r1, r2: True, {
            "bracket_generating_coefficients": "{G_1, G_2} != (2-1) G_3 at window 12",
        }),
        ("bracket", "iota", lambda p: True, {
            "bracket_observable_lift": "lift of G_1 differs from L_1",
        }),
        ("bracket", "iota", lambda p: p == checks.corrected_G(0, p.window), {
            "bracket_observable_lift": "lift of corrected G_0 differs from L_0",
        }),
    ],
    ids=["commutator", "kirillov_L", "poisson_bracket", "iota-gbar", "iota-corrected"],
)
def test_identity_checks_fail_on_a_wrong_result(monkeypatch, capsys, suite, name, wrong, failing):
    right = getattr(checks, name)

    def doubled(*args):
        out = right(*args)
        return out.scale(2) if wrong(*args) else out

    monkeypatch.setattr(checks, name, doubled)
    assert _failing(suite, capsys) == failing
