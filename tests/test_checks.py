"""Tests for the identity-check declarations."""

import importlib

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
