"""Byte-exact regression against the frozen feature and reverse files."""

import io

import pytest

from flowspec.cli import run
from flowspec.emit import emit_feature
from flowspec.feature import format_feature

from conftest import DATA_DIR

GOLDEN = DATA_DIR / "golden"
REVERSE_INPUTS = sorted(GOLDEN.glob("*.feature")) + [DATA_DIR / "special_cases.feature"]


@pytest.mark.parametrize("key", [f"m{i}" for i in range(1, 10)])
@pytest.mark.parametrize("mode,style", [("paper_exact", "paper_upper"), ("strict", "gherkin")])
def test_emission_matches_frozen_file(fixtures, key, mode, style):
    suffix = "paper" if mode == "paper_exact" else "strict"
    expected = (GOLDEN / f"{key}.{suffix}.feature").read_text()
    got = format_feature(emit_feature(fixtures[key], mode), style)
    assert got == expected


@pytest.mark.parametrize("feature", REVERSE_INPUTS, ids=lambda p: p.stem)
def test_reverse_matches_frozen_file(feature):
    # `flowspec reverse` stdout (the inferred model as DSL) and its
    # diagnostics, in order, are frozen under golden/reverse/<stem>.pml|.diag
    out, err = io.StringIO(), io.StringIO()
    run(["reverse", str(feature)], stdout=out, stderr=err)
    assert out.getvalue() == (GOLDEN / "reverse" / f"{feature.stem}.pml").read_text()
    assert err.getvalue() == (GOLDEN / "reverse" / f"{feature.stem}.diag").read_text()
