"""Model inference: named-document round trips and structural folding."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowspec.canon import canonical_form, isomorphic
from flowspec.dsl import parse_dsl, serialize_dsl
from flowspec.emit import emit_feature
from flowspec.errors import Diagnostic, FlowspecError, IllegalGiven
from flowspec.feature import DocHints, format_feature, parse_feature
from flowspec.generator import GeneratorLimits, random_model
from flowspec.infer import infer_model
from flowspec.model import COMPLETION_EVENT, PatternKind, iter_states, model_index
from flowspec.patterns import classify
from flowspec.replay import check_suite, replay_scenario

from conftest import DATA_DIR, GUARD_READ_AS_SOURCE, JOIN_SPLIT_VARIANTS, JOIN_SPLITS, join_split_model

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


def test_final_then_term_named_in_a_given_is_a_state():
    # S2 heads no row, but it ends a THEN and is a join source in a GIVEN
    text = "GIVEN S1\nWHEN e1\nTHEN a1 AND S2\n\nGIVEN S3 AND S2\nWHEN e2\nTHEN a2 AND Beta\n"
    model, diags = infer_model(parse_feature(text))
    assert [s.path for s in model.states] == ["S1", "S3", "S2"]
    assert [b.source for b in model.transitions[1].inputs] == ["S3", "S2"]
    assert [d for d in diags if d.severity == "error"] == []


def test_distinct_targets_do_not_fold():
    # two rows into the same state but without a shared action suffix stay
    # separate transitions
    text = "GIVEN S1\nWHEN e1\nTHEN a1 AND S3\n\nGIVEN S2\nWHEN e2\nTHEN a2 AND S3\n"
    model, _diags = infer_model(dataclasses.replace(parse_feature(text), hints=DocHints(states=("S3",))))
    assert len(model.transitions) == 2


def test_bare_when_terms_default_to_events_with_diagnostic():
    text = "GIVEN S1\nWHEN g1\nTHEN a1\n\nGIVEN S1\nWHEN g2\nTHEN a2\n"
    model, diags = infer_model(parse_feature(text))
    assert all(t.shared_event or any(b.event for b in t.inputs) for t in model.transitions)
    assert any(d.code == "AmbiguousTerm" and d.location == "g1" for d in diags)


def test_hints_override_term_roles():
    # hints a library caller adds go into the document
    text = "GIVEN S1\nWHEN g1\nTHEN a1\n"
    model, _ = infer_model(dataclasses.replace(parse_feature(text), hints=DocHints(guards=("g1",))))
    t = model.transitions[0]
    assert t.shared_guard is not None
    assert t.shared_guard.literals == (("g1", False),)
    assert t.shared_event is None


def test_hint_comments_apply():
    text = "# guards: g1\nGIVEN S1\nWHEN g1\nTHEN a1\n"
    model, _ = infer_model(parse_feature(text))
    assert model.transitions[0].shared_guard.literals == (("g1", False),)


@pytest.mark.parametrize(
    "text",
    [
        "GIVEN S1\nWHEN e1\nTHEN a1 AND _done\n",
        "GIVEN S1\nWHEN e1\nTHEN _done\n",
        "GIVEN S1\nWHEN e1\nTHEN a1; _done; a2 AND S2\n\nGIVEN S2\nWHEN e2\nTHEN a3 AND Beta\n",
        "# flowspec: mode=strict\nScenario: Sequence t1\nGIVEN S1\nWHEN e1\nTHEN a1 AND _done\n",
        "# flowspec: mode=strict\nScenario: Sequence t1\nGIVEN S1\nWHEN _done\nTHEN _done; a1 AND S2\n",
    ],
    ids=["last-chunk", "alone", "in-a-sequence", "named", "named-first"],
)
def test_a_then_completion_event_is_an_error_not_an_action(text):
    doc = parse_feature(text)
    model, diags = infer_model(doc)
    assert COMPLETION_EVENT not in model_index(model).spaces["action"]
    message = "THEN names the completion event _done, which is not an action; dropped"
    named = Diagnostic("ReservedName", "error", doc.scenarios[0].name, message)
    assert [d for d in diags if d.code == "ReservedName"] == [named]
    assert not any("_done" in d.message for d in diags if d.code != "ReservedName")


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
    # hinted states come first, in the order the hints list them
    text = (
        "# states: S6, S5, S4, S3, S2, S1\n"
        "GIVEN S1\nWHEN e1\nTHEN a1 AND S2\n\nGIVEN S2\nWHEN e2\nTHEN a2 AND S3\n"
    )
    doc = parse_feature(text)
    model, _ = infer_model(doc)
    assert [s.path for s in model.states] == ["S6", "S5", "S4", "S3", "S2", "S1"]
    # and so do states a caller adds, none sorted
    hinted = dataclasses.replace(doc, hints=DocHints(states=("X2", *doc.hints.states, "X1")))
    model, _ = infer_model(hinted)
    assert [s.path for s in model.states] == ["X2", "S6", "S5", "S4", "S3", "S2", "S1", "X1"]


def test_hints_that_give_a_name_two_roles_are_a_feature_error():
    # in the text, a MalformedClause at the later hint line (test_feature)
    doc = parse_feature("# states: S1, S2\n# guards: x\nGIVEN S1 AND x\nWHEN e1\nTHEN a1 AND S2\n")
    # hints a caller adds are rejected, not resolved
    with pytest.raises(ValueError, match="^x hinted as both states and guards$"):
        dataclasses.replace(doc.hints, states=("S1", "S2", "x"))
    # hints that agree with the document apply
    model, _ = infer_model(dataclasses.replace(doc, hints=dataclasses.replace(doc.hints, guards=("x", "y"))))
    assert [s.path for s in model.states] == ["S1", "S2"]
    assert model.transitions[0].shared_guard.literals == (("x", False),)


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


def _messages(text):
    _, diags = infer_model(parse_feature(text))
    return [(d.code, d.location, d.message) for d in diags]


def test_hinted_guard_heading_a_given_is_ambiguous():
    text = "# guards: S1\nFeature: f\n\nScenario: s\nGiven S1\nWhen e\nThen a AND S2\n"
    assert ("AmbiguousTerm", "S1", "GIVEN head also classified as a non-state") in _messages(text)


def test_given_without_a_state_reads_as_a_row_with_no_input():
    text = "Feature: f\n\nScenario: s\nGiven NOT g1\nWhen e\nThen a AND S2\n"
    messages = _messages(text)
    assert ("AmbiguousTerm", "s", "GIVEN names no state; the row has no input") in messages
    assert ("EmptyInputs", "u1", "transition has no inputs") in messages


def test_sinks_of_names_with_one_slug_are_numbered():
    text = (
        "Feature: f\n\nScenario: x\nGiven S1\nWhen e\nThen a\n\n"
        "Scenario: x!\nGiven S1\nWhen f\nThen b\n"
    )
    model, diags = infer_model(parse_feature(text))
    assert [t.outputs[0].target for t in model.transitions] == ["_after_x", "_after_x_1"]
    assert [(d.location, d.message) for d in diags if d.code == "SyntheticTarget"] == [
        ("x", "no resulting state; synthesized _after_x"),
        ("x!", "no resulting state; synthesized _after_x_1"),
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


@pytest.mark.parametrize("key", ["m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8", "m9"])
def test_golden_paper_reverse_replays_like_its_source(fixtures, key):
    """The reverse of a golden paper-exact feature has no error, its own
    strict suite is green at coverage 1.0, and the document gets the same
    verdicts against it as against the source model.  Only Synchronization
    rows fail there: they name one source of an and-join each (m3)."""
    doc = parse_feature((DATA_DIR / "golden" / f"{key}.paper.feature").read_text())
    inferred, diags = infer_model(doc)
    assert [d for d in diags if d.severity == "error"] == [], key
    own = check_suite(inferred, emit_feature(inferred, "strict"), "strict")
    assert own.passed and own.coverage == 1.0, key
    verdicts = [(name, v.passed) for name, v in check_suite(fixtures[key], doc, "paper_exact").verdicts]
    assert [(name, v.passed) for name, v in check_suite(inferred, doc, "paper_exact").verdicts] == verdicts
    assert all(name.startswith("Synchronization ") for name, passed in verdicts if not passed), key


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


@pytest.mark.parametrize(
    "join, split, variant",
    [
        pytest.param(
            join,
            split,
            variant,
            id=f"{variant.replace(' ', '-')}-{join}-{split}",
            marks=[pytest.mark.xfail(strict=True)]
            if variant == "guarded" and (join, split) in GUARD_READ_AS_SOURCE
            else [],
        )
        for variant in JOIN_SPLIT_VARIANTS
        for join, split in JOIN_SPLITS
    ],
)
def test_join_split_reverse_is_exact_and_no_t1_row_can_go_unseen(join, split, variant):
    """The strict reverse of a transition that joins and splits is exact,
    and a suite without any one of its rows never reverses silently into
    an isomorphic model."""
    model = join_split_model(join, split, variant)
    doc = emit_feature(model, "strict")
    inferred, diags = infer_model(parse_feature(format_feature(doc, "gherkin")))
    assert diags == [] and isomorphic(inferred, model)
    for k, scenario in enumerate(doc.scenarios):
        if scenario.name.split()[1] == "t1":
            cut = dataclasses.replace(doc, scenarios=doc.scenarios[:k] + doc.scenarios[k + 1 :])
            inferred, diags = infer_model(parse_feature(format_feature(cut, "gherkin")))
            assert diags or not isomorphic(inferred, model), scenario.name


def _stripped(doc):
    """A strict document without its mode line and with its scenarios
    renamed ``row <i>``: nothing left says which kind a row is."""
    return dataclasses.replace(
        doc,
        mode_hint=None,
        scenarios=tuple(
            dataclasses.replace(s, name=f"row {i}") for i, s in enumerate(doc.scenarios)
        ),
    )


FIXTURE_KEYS = ["m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8", "m9"]


@pytest.mark.parametrize(
    "seed, limits", ROUNDTRIP_CASES + [pytest.param(key, None, id=key) for key in FIXTURE_KEYS]
)
def test_stripped_strict_documents_reverse_without_errors(fixtures, seed, limits):
    model = fixtures[seed] if seed in fixtures else random_model(seed, limits)
    text = format_feature(_stripped(emit_feature(model, "strict")), "gherkin")
    inferred, diags = infer_model(parse_feature(text))
    assert [d for d in diags if d.severity == "error"] == [], seed
    # every source state (each is named in some GIVEN) comes back a state
    states = {node.path for node in iter_states(inferred)} | {inferred.initial_name}
    assert {b.source for t in model.transitions for b in t.inputs} <= states, seed


# Random row documents over small name pools, so that one name turns up in
# several rows and roles have to be reconciled across them: GIVEN draws states
# then guard literals, WHEN events, and THEN an action sequence and states.
_STATES = ["S1", "S2", "S3", "S4", "S1.x", "S1.y", "alpha", "Beta"]


def _pick(pool, low, high):
    return st.lists(st.sampled_from(pool), min_size=low, max_size=high)


def _row(states, lits, events, acts, targets):
    chunks = (["; ".join(acts)] if acts else []) + targets
    return " AND ".join(states + lits), " AND ".join(events), " AND ".join(chunks or ["a1"])


_lit = st.builds(
    lambda g, n: ("NOT " if n else "") + g, st.sampled_from(["g1", "g2", "g3"]), st.booleans()
)
_clauses = st.builds(
    _row,
    _pick(_STATES, 1, 3),
    st.lists(_lit, max_size=2),
    _pick(["e1", "e2", "e3", "_done"], 1, 2),
    _pick(["a1", "a2", "a3", "a4"], 0, 3),
    _pick(_STATES, 0, 2),
)
_name = st.builds(
    lambda kind, tid, idx: f"{kind} t{tid}" + (f" {idx}" if idx else ""),
    st.sampled_from([k.value for k in PatternKind]),
    st.integers(1, 4),
    st.integers(0, 3),
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([None, "strict", "paper-exact"]),
    st.lists(st.tuples(_name, _clauses), min_size=1, max_size=6),
    st.booleans(),
)
def test_random_row_documents_infer_runnable_models(mode, rows, named):
    lines = [f"# flowspec: mode={mode}"] if mode else []
    for i, (name, (g, w, t)) in enumerate(rows):
        name = name if named else f"row {i}"
        lines += ["", f"Scenario: {name}", f"GIVEN {g}", f"WHEN {w}", f"THEN {t}"]
    try:
        model, diags = infer_model(parse_feature("\n".join(lines) + "\n"))
    except FlowspecError:
        return
    if any(d.severity == "error" for d in diags):
        return
    for scenario in emit_feature(model, "strict").scenarios:
        try:
            replay_scenario(model, scenario, "strict")
        except IllegalGiven as exc:
            pytest.fail(f"{scenario.name}: {exc}")
