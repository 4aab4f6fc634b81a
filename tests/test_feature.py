"""Feature text parsing, formatting and the parse/format adjunction."""

import pytest

from flowspec.emit import emit_feature
from flowspec.errors import FeatureSyntaxError
from flowspec.feature import ActionSeq, Term, format_feature, parse_feature

SEQUENCE_TEXT = """\
GIVEN S1
WHEN ev1
THEN a1
"""

CHOICE_TEXT = """\
GIVEN S1 AND g1 AND NOT g2
WHEN ev1
THEN a1 AND a2

GIVEN S1 AND g2 AND NOT g1
WHEN ev1
THEN a1 AND a3

GIVEN S1 AND g1 AND g2
WHEN ev1
THEN a1 AND a2 AND a3
"""

SENTENCE_TEXT = """\
Scenario: server is available
  Given there is a resource at "http://localhost:8081/myresource"
  When I request this resource as raw
  Then the response code is 200
"""


def test_parse_single_scenario_terms():
    doc = parse_feature(SEQUENCE_TEXT)
    assert len(doc.scenarios) == 1
    s = doc.scenarios[0]
    assert s.given == (Term("S1"),)
    assert s.when == (Term("ev1"),)
    assert s.then == (ActionSeq(("a1",)),)


def test_parse_negated_guards():
    doc = parse_feature(CHOICE_TEXT)
    first = doc.scenarios[0]
    assert first.given == (Term("S1"), Term("g1"), Term("g2", True))
    assert first.given[2].role == "guard"


def test_scenarios_split_on_given_after_then():
    doc = parse_feature(CHOICE_TEXT)
    assert len(doc.scenarios) == 3
    assert [s.name for s in doc.scenarios] == [
        "scenario 1",
        "scenario 2",
        "scenario 3",
    ]


def test_empty_input_rejected():
    with pytest.raises(FeatureSyntaxError) as exc:
        parse_feature("")
    assert exc.value.code == "EmptyDocument"


def test_unknown_keyword_with_position():
    with pytest.raises(FeatureSyntaxError) as exc:
        parse_feature("GIVEN S1\nWHEN ev1\nTHEN a1\nWHATEVER x\n", "f.feature")
    assert exc.value.code == "UnknownKeyword"
    assert exc.value.span.line == 4


def test_clause_without_content_rejected():
    with pytest.raises(FeatureSyntaxError) as exc:
        parse_feature("GIVEN S1\nWHEN\nTHEN a1\n")
    assert exc.value.code == "MalformedClause"


def test_scenario_missing_clause_rejected():
    with pytest.raises(FeatureSyntaxError) as exc:
        parse_feature("Scenario: incomplete\nGIVEN S1\nTHEN a1\n")
    assert exc.value.code == "MalformedClause"
    assert "When" in exc.value.reason


def test_sentence_steps_parse_unstructured():
    doc = parse_feature(SENTENCE_TEXT)
    s = doc.scenarios[0]
    assert s.name == "server is available"
    assert not s.structured
    assert s.steps[0].text.startswith("there is a resource at")


def test_sequenced_then_items():
    doc = parse_feature("GIVEN S1 AND S2\nWHEN e1 AND e2 AND e3\nTHEN a1; a2; a3 AND S3\n")
    s = doc.scenarios[0]
    assert s.then == (ActionSeq(("a1", "a2", "a3")), ActionSeq(("S3",)))


def test_headers_and_hints_parsed():
    text = """\
# flowspec: mode=strict
# states: S1, S2
# guards: g1
Feature: demo
As a tester
I request things
To gain insight

Scenario: one
GIVEN S1
WHEN ev1
THEN a1
"""
    doc = parse_feature(text)
    assert doc.mode_hint == "strict"
    assert doc.hints.states == ("S1", "S2")
    assert doc.hints.guards == ("g1",)
    assert doc.title == "demo"
    assert doc.role == "tester"
    assert doc.feature == "things"
    assert doc.benefit == "insight"


def test_name_hinted_in_two_roles_rejected_at_later_hint():
    text = "# states: S1, x\n# events: ev1\n# guards: g1, x\nGIVEN S1\nWHEN ev1\nTHEN a1\n"
    with pytest.raises(FeatureSyntaxError) as exc:
        parse_feature(text)
    assert exc.value.code == "MalformedClause"
    assert exc.value.span.line == 3
    assert "x hinted as both states and guards" in str(exc.value)


def test_case_insensitive_keywords():
    doc = parse_feature("given S1\nwhen ev1\nthen a1\n")
    assert doc.scenarios[0].steps[0].keyword == "Given"


def test_duplicate_scenario_names_rejected():
    text = "Scenario: x\nGIVEN S1\nWHEN e\nTHEN a\nScenario: x\nGIVEN S1\nWHEN e\nTHEN a\n"
    with pytest.raises(FeatureSyntaxError) as exc:
        parse_feature(text)
    assert exc.value.code == "MalformedClause"


# ---------------------------------------------------------------------------
# Adjunction: parse after format is the identity on parsed docs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("style", ["paper_upper", "gherkin"])
@pytest.mark.parametrize("text", [SEQUENCE_TEXT, CHOICE_TEXT, SENTENCE_TEXT])
def test_parse_format_adjunction_on_texts(text, style):
    doc = parse_feature(text)
    assert parse_feature(format_feature(doc, style)) == doc


@pytest.mark.parametrize("style", ["paper_upper", "gherkin"])
def test_parse_format_adjunction_on_emitted_docs(fixtures, style):
    for model in fixtures.values():
        for mode in ("paper_exact", "strict"):
            doc = emit_feature(model, mode)
            assert parse_feature(format_feature(doc, style)) == doc


def test_format_parse_format_is_stable():
    doc = parse_feature(CHOICE_TEXT)
    once = format_feature(doc)
    twice = format_feature(parse_feature(once))
    assert once == twice


# ---------------------------------------------------------------------------
# Randomized adjunction property
# ---------------------------------------------------------------------------

from hypothesis import given as hyp_given
from hypothesis import strategies as st

_ident = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,5}", fullmatch=True)
_term = st.builds(lambda a, n: ("NOT " if n else "") + a, _ident, st.booleans())
_clause = st.lists(_term, min_size=1, max_size=3).map(" AND ".join)
_seq = st.lists(_ident, min_size=1, max_size=3).map("; ".join)
_then = st.lists(_seq, min_size=1, max_size=3).map(" AND ".join)


@hyp_given(st.lists(st.tuples(_clause, _clause, _then), min_size=1, max_size=4))
def test_random_documents_round_trip_through_text(rows):
    text = "\n\n".join(
        f"GIVEN {g}\nWHEN {w}\nTHEN {t}" for g, w, t in rows
    )
    doc = parse_feature(text)
    for style in ("paper_upper", "gherkin"):
        assert parse_feature(format_feature(doc, style)) == doc
