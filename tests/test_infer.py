"""Model inference: named-document round trips and structural folding."""

import pytest

from flowspec.canon import canonical_form, isomorphic
from flowspec.dsl import parse_dsl, serialize_dsl
from flowspec.emit import emit_feature
from flowspec.feature import format_feature, parse_feature
from flowspec.generator import GeneratorLimits, random_model
from flowspec.infer import InferenceHints, infer_model
from flowspec.model import PatternKind
from flowspec.patterns import classify
from flowspec.replay import check_suite

EMBEDDED_ROWS = """\
GIVEN S5
WHEN ev7
THEN a9 AND S6.1

GIVEN S6.1
WHEN ev8
THEN a10 AND S6.2

GIVEN S6.1
WHEN ev10
THEN a12 AND S6.3

GIVEN S6.2
WHEN ev9
THEN a11 AND S6.3

GIVEN S6.3
WHEN ev11
THEN a13 AND Beta
"""

SYNC_ROWS = """\
GIVEN S1
WHEN ev1
THEN a1 AND a3

GIVEN S2
WHEN ev2
THEN a2 AND a3
"""

CHOICE_ROWS = """\
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


def roundtrip(model):
    doc = emit_feature(model, "strict")
    text = format_feature(doc, "gherkin")
    inferred, diags = infer_model(parse_feature(text))
    return doc, text, inferred, diags


def test_m1_strict_roundtrip_is_isomorphic(m1):
    _doc, _text, inferred, diags = roundtrip(m1)
    assert diags == []
    assert isomorphic(inferred, m1)


@pytest.mark.parametrize("key", ["m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8", "m9"])
def test_fixture_strict_roundtrips(fixtures, key):
    model = fixtures[key]
    _doc, text, inferred, diags = roundtrip(model)
    assert [d for d in diags if d.severity == "error"] == [], key
    assert isomorphic(inferred, model), key
    again = format_feature(emit_feature(inferred, "strict"), "gherkin")
    assert again == text, key
    assert parse_dsl(serialize_dsl(inferred)) == inferred, key


def test_roundtrip_keeps_transition_ids(m9):
    _doc, _text, inferred, _diags = roundtrip(m9)
    assert [t.id for t in inferred.transitions] == [t.id for t in m9.transitions]


def test_inferred_scenarios_replay_against_inferred_model(m6):
    _doc, _text, inferred, _diags = roundtrip(m6)
    report = check_suite(inferred, emit_feature(inferred, "strict"), "strict")
    assert report.passed and report.coverage == 1.0


# ---------------------------------------------------------------------------
# Structural inference of hand-written documents
# ---------------------------------------------------------------------------


def test_embedded_rows_rebuild_composite():
    model, diags = infer_model(parse_feature(EMBEDDED_ROWS))
    composite = next(s for s in model.states if s.path == "S6")
    assert composite.initial_child == "S6.1"
    assert [c.path for c in composite.children] == ["S6.1", "S6.2", "S6.3"]
    internal = [
        t
        for t in model.transitions
        if all("." in b.source for b in t.inputs) or any(
            b.target == model.final_name for b in t.outputs
        )
    ]
    assert len(internal) == 4
    assert len(model.transitions) == 5
    assert [d for d in diags if d.severity == "error"] == []


def test_synchronization_rows_fold_into_join():
    model, diags = infer_model(parse_feature(SYNC_ROWS))
    assert len(model.transitions) == 1
    t = model.transitions[0]
    assert [b.source for b in t.inputs] == ["S1", "S2"]
    assert [b.event for b in t.inputs] == ["ev1", "ev2"]
    assert [b.actions for b in t.inputs] == [("a1",), ("a2",)]
    assert t.shared_actions == ("a3",)
    assert any(d.code == "AmbiguousJoin" for d in diags)
    assert any(d.code == "SyntheticTarget" for d in diags)
    assert t.outputs[0].target.startswith("_after_")


def test_choice_family_folds_into_or_split():
    model, diags = infer_model(parse_feature(CHOICE_ROWS))
    assert len(model.transitions) == 1
    t = model.transitions[0]
    assert t.split_kind == "or"
    guards = [b.guard.literals if b.guard else None for b in t.outputs]
    assert (("g1", False),) in guards and (("g2", False),) in guards
    assert t.shared_actions == ("a1",)
    instances, _ = classify(model)
    assert instances[0].kind == PatternKind.MULTIPLE_CHOICE


def test_distinct_targets_do_not_fold():
    # two rows into the same state but without a shared action suffix stay
    # separate transitions
    text = "GIVEN S1\nWHEN e1\nTHEN a1 AND S3\n\nGIVEN S2\nWHEN e2\nTHEN a2 AND S3\n"
    model, _diags = infer_model(parse_feature(text), InferenceHints(declared_states=frozenset({"S3"})))
    assert len(model.transitions) == 2


def test_bare_when_terms_default_to_events_with_diagnostic():
    text = "GIVEN S1\nWHEN g1\nTHEN a1\n\nGIVEN S1\nWHEN g2\nTHEN a2\n"
    model, diags = infer_model(parse_feature(text))
    assert all(t.shared_event or any(b.event for b in t.inputs) for t in model.transitions)
    assert any(d.code == "AmbiguousTerm" and d.location == "g1" for d in diags)


def test_hints_override_term_roles():
    text = "GIVEN S1\nWHEN g1\nTHEN a1\n"
    hints = InferenceHints(declared_guards=frozenset({"g1"}))
    model, _ = infer_model(parse_feature(text), hints)
    t = model.transitions[0]
    assert t.shared_guard is not None
    assert t.shared_guard.literals == (("g1", False),)
    assert t.shared_event is None


def test_hint_comments_apply():
    text = "# guards: g1\nGIVEN S1\nWHEN g1\nTHEN a1\n"
    model, _ = infer_model(parse_feature(text))
    assert model.transitions[0].shared_guard.literals == (("g1", False),)


def test_unstructured_scenarios_skipped_with_diagnostic():
    text = (
        'Scenario: web\nGiven there is a resource at "http://x"\nWhen I fetch\nThen ok ok\n\n'
        "Scenario: term\nGIVEN S1\nWHEN e1\nTHEN a1\n"
    )
    model, diags = infer_model(parse_feature(text))
    assert len(model.transitions) == 1
    assert any(d.code == "UnstructuredScenario" for d in diags)


def test_inference_is_deterministic():
    doc = parse_feature(SYNC_ROWS)
    a_model, a_diags = infer_model(doc)
    b_model, b_diags = infer_model(doc)
    assert a_model == b_model
    assert a_diags == b_diags


def test_renamed_pseudostates_via_hints():
    text = "# initial: start\n# final: stop\nGIVEN start\nWHEN go\nTHEN a1 AND stop\n"
    model, diags = infer_model(parse_feature(text))
    assert model.initial_name == "start"
    assert model.final_name == "stop"
    assert model.transitions[0].inputs[0].source == "start"
    assert model.transitions[0].outputs[0].target == "stop"


def test_hinted_states_keep_document_order():
    # hinted states come first, as the document lists them, then extra
    # hint states sorted; the order of a set must not leak into the model
    text = (
        "# states: S6, S5, S4, S3, S2, S1\n"
        "GIVEN S1\nWHEN e1\nTHEN a1 AND S2\n\nGIVEN S2\nWHEN e2\nTHEN a2 AND S3\n"
    )
    hints = InferenceHints(declared_states=frozenset({"X2", "X1", "S4"}))
    model, _ = infer_model(parse_feature(text), hints)
    assert [s.path for s in model.states] == ["S6", "S5", "S4", "S3", "S2", "S1", "X1", "X2"]


def test_structural_rows_with_one_given_and_when_fold_into_and_split():
    text = (
        "GIVEN S1\nWHEN e1\nTHEN a1 AND a2 AND S2\n\n"
        "GIVEN S1\nWHEN e1\nTHEN a1 AND a3 AND S3\n\n"
        "GIVEN S2\nWHEN e2\nTHEN a4 AND Beta\n\n"
        "GIVEN S3\nWHEN e3\nTHEN a5 AND Beta\n"
    )
    model, _ = infer_model(parse_feature(text))
    t = model.transitions[0]
    assert (t.split_kind, t.shared_actions) == ("and", ("a1",))
    assert [(b.target, b.actions) for b in t.outputs] == [("S2", ("a2",)), ("S3", ("a3",))]
    assert len(model.transitions) == 3


def test_structural_join_keeps_shared_event_and_guard():
    text = (
        "GIVEN S1 AND g1\nWHEN e1 AND e3\nTHEN a1 AND a3 AND S3\n\n"
        "GIVEN S2 AND g1\nWHEN e2 AND e3\nTHEN a2 AND a3 AND S3\n\n"
        "GIVEN S3\nWHEN e4\nTHEN a4 AND Beta\n"
    )
    model, diags = infer_model(parse_feature(text))
    t = model.transitions[0]
    assert t.join_kind == "and"
    assert [(b.source, b.event, b.actions) for b in t.inputs] == [
        ("S1", "e1", ("a1",)),
        ("S2", "e2", ("a2",)),
    ]
    assert (t.shared_event, t.shared_guard.literals, t.shared_actions) == (
        "e3",
        (("g1", False),),
        ("a3",),
    )
    assert not any(d.message.startswith("merge branches") for d in diags)


def test_structural_join_rows_that_disagree_keep_the_first_row():
    # the named route's rule: the first row's guard and shared event win,
    # and each disagreement is a warning
    text = (
        "GIVEN S1\nWHEN e1 AND e3\nTHEN a1 AND a3 AND S3\n\n"
        "GIVEN S2 AND g2\nWHEN e2 AND e4\nTHEN a2 AND a3 AND S3\n\n"
        "GIVEN S3\nWHEN e5\nTHEN a5 AND Beta\n"
    )
    model, diags = infer_model(parse_feature(text))
    t = model.transitions[0]
    assert [b.source for b in t.inputs] == ["S1", "S2"]
    assert (t.shared_event, t.shared_guard) == ("e3", None)
    assert [d.message for d in diags if d.message.startswith("merge branches")] == [
        "merge branches disagree on guard literals",
        "merge branches disagree on shared event",
    ]


def test_structural_choice_family_keeps_mandatory_output():
    text = (
        "# states: S2, S3, S4\n"
        "GIVEN S1 AND g1 AND NOT g2\nWHEN ev1\nTHEN a1 AND a2 AND S4 AND S2\n\n"
        "GIVEN S1 AND g2 AND NOT g1\nWHEN ev1\nTHEN a1 AND a3 AND S4 AND S3\n\n"
        "GIVEN S1 AND g1 AND g2\nWHEN ev1\nTHEN a1 AND a2 AND a3 AND S4 AND S2 AND S3\n"
    )
    model, _ = infer_model(parse_feature(text))
    (t,) = model.transitions
    assert (t.split_kind, t.shared_actions) == ("or", ("a1",))
    assert [
        (b.target, b.guard.literals if b.guard else None, b.actions, b.mandatory)
        for b in t.outputs
    ] == [
        ("S4", None, (), True),
        ("S2", (("g1", False),), ("a2",), False),
        ("S3", (("g2", False),), ("a3",), False),
    ]


def test_named_merge_rows_that_disagree_keep_the_first_row():
    text = (
        "# flowspec: mode=strict\nFeature: disagree\n\n"
        "Scenario: SimpleMerge t1 1\nGiven S1 AND g1\nWhen e1 AND e3\nThen a1; a3 AND S3\n\n"
        "Scenario: SimpleMerge t1 2\nGiven S2 AND g2\nWhen e2 AND e4\nThen a2; a3 AND S4\n"
    )
    model, diags = infer_model(parse_feature(text))
    (t,) = model.transitions
    assert (t.join_kind, t.outputs[0].target, t.shared_event) == ("xor", "S3", "e3")
    assert t.shared_guard.literals == (("g1", False),)
    assert [(d.location, d.message) for d in diags if d.code == "AmbiguousTerm"] == [
        ("t1", "merge branches disagree on guard literals"),
        ("t1", "merge branches disagree on target"),
        ("t1", "merge branches disagree on shared event"),
    ]


@pytest.mark.parametrize("key", ["m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8", "m9"])
def test_paper_exact_documents_infer_without_errors(fixtures, key):
    # the compact shapes drop result states, so sinks and warnings are
    # expected; the rebuilt model must still be valid and drawable
    model = fixtures[key]
    text = format_feature(emit_feature(model, "paper_exact"))
    inferred, diags = infer_model(parse_feature(text))
    assert [d for d in diags if d.severity == "error"] == [], key
    assert len(inferred.transitions) == len(model.transitions), key
    assert parse_dsl(serialize_dsl(inferred)) == inferred, key
    from flowspec.dot import render_dot

    assert render_dot(inferred).startswith("digraph process {")


def test_paper_exact_merge_rows_fold_per_input(m3):
    # compact merge rows name no target, so the join lands on a sink
    text = format_feature(emit_feature(m3, "paper_exact"))
    inferred, diags = infer_model(parse_feature(text))
    t2 = next(t for t in inferred.transitions if t.id == "t2")
    assert t2.join_kind == "and"
    assert [b.source for b in t2.inputs] == ["S1", "S2"]
    assert [b.actions for b in t2.inputs] == [("a1",), ("a2",)]
    assert t2.shared_actions == ("a3",)
    assert t2.outputs[0].target.startswith("_after_")
    assert any(d.code == "SyntheticTarget" for d in diags)


# ---------------------------------------------------------------------------
# Generated corpus round trips
# ---------------------------------------------------------------------------


# The default limits (ids are the bare seeds), then two rungs of the size
# ladder, GeneratorLimits(n + 2, n), beyond them.
ROUNDTRIP_CASES = [pytest.param(seed, None, id=str(seed)) for seed in range(40)] + [
    pytest.param(seed, GeneratorLimits(n + 2, n), id=f"n{n}-{seed}")
    for n, seeds in ((80, 30), (160, 8))
    for seed in range(seeds)
]


@pytest.mark.parametrize("seed, limits", ROUNDTRIP_CASES)
def test_generated_roundtrip(seed, limits):
    model = random_model(seed, limits)
    doc = emit_feature(model, "strict")
    text = format_feature(doc, "gherkin")
    report = check_suite(model, parse_feature(text), "strict")
    assert report.passed and report.coverage == 1.0, seed
    inferred, diags = infer_model(parse_feature(text))
    assert [d for d in diags if d.severity == "error"] == [], seed
    assert canonical_form(inferred) == canonical_form(model), seed
    assert format_feature(emit_feature(inferred, "strict"), "gherkin") == text, seed
    assert parse_dsl(serialize_dsl(inferred)) == inferred, seed
