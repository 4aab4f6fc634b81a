"""Replay semantics: enabledness, stepping, verdicts, coverage, exploration."""

import inspect
import json

import pytest

from flowspec import replay
from flowspec.dsl import parse_dsl
from flowspec.emit import emit_feature
from flowspec.errors import FlowspecError, IllegalGiven, NondeterminismConflict, UnknownState
from flowspec.feature import FeatureDoc, Scenario, Step, parse_feature
from flowspec.generator import GeneratorLimits, random_model
from flowspec.model import (
    Configuration,
    InBranch,
    OutBranch,
    PatternKind,
    ProcessModel,
    StateNode,
    TransitionDecl,
    firing_plan,
    guard,
    initial_configuration,
    model_index,
    validate,
)
from flowspec.replay import (
    CheckReport,
    ExploreStep,
    StepResult,
    Verdict,
    _offers,
    _view,
    check_suite,
    enabled,
    explore,
    firings_for,
    replay_scenario,
    report_for,
    step,
)

def _stimuli(model, config):
    """The (events, valuation) pairs ``explore`` offers at ``config``."""
    return list(_offers(_view(model, config)[1]).values())


TRUE = {"g1": True, "g2": True, "h1": True, "h2": True, "h3": True}


def test_enabled_matching_event(m1):
    assert enabled(m1, Configuration.of("S1"), {"ev1"}, {}) == ["t2"]


def test_enabled_no_matching_event(m1):
    assert enabled(m1, Configuration.of("S1"), {"evX"}, {}) == []


def test_and_join_requires_all_inputs(m3):
    assert enabled(m3, Configuration.of("S1"), {"ev1", "ev2"}, {}) == []
    assert enabled(m3, Configuration.of("S1", "S2"), {"ev1", "ev2"}, {}) == ["t2"]


def test_step_entry_actions_after_transition_actions(m9):
    result = step(m9, Configuration.of("alpha"), {"ev1"}, {})
    assert result.trace == ("a1", "a2")
    assert result.after == Configuration.of("S1")
    assert result.fired == ("t1",)


def test_step_exit_actions_before_branch_actions(m9):
    result = step(m9, Configuration.of("S1"), {"ev2"}, {})
    assert result.trace == ("a3", "a4", "a5", "a6")
    assert result.after == Configuration.of("S2", "S3")


def test_step_enters_composite_initial_child(m9):
    result = step(m9, Configuration.of("S5"), {"ev7"}, {})
    assert result.after == Configuration.of("S6.1")
    assert result.trace == ("a9",)


def test_step_conflict_on_overlapping_guards(m4):
    with pytest.raises(NondeterminismConflict) as exc:
        step(m4, Configuration.of("S1"), set(), {"g1": True, "g2": True})
    assert exc.value.transition_ids == ["t2", "t3"]


def test_step_determinism(m9):
    a = step(m9, Configuration.of("S1"), {"ev2"}, {})
    b = step(m9, Configuration.of("S1"), {"ev2"}, {})
    assert a == b


def test_multi_join_fires_once_per_activation(m8):
    config = Configuration.of("S1", "S2", "S3")
    result = step(m8, config, {"ev1", "ev2", "ev3"}, {"g1": True})
    assert result.fired == ("t2", "t2", "t2")
    assert result.trace == ("a1", "a4", "a2", "a4", "a3", "a4")
    assert result.after == Configuration.of("S4", "S4", "S4")


def test_multi_join_single_activation(m8):
    result = step(m8, Configuration.of("S1"), {"ev1"}, {"g1": True})
    assert result.trace == ("a1", "a4")
    assert result.after == Configuration.of("S4")


OR_JOIN_DSL = """\
process "or join" {
  role "analyst"
  feature "synchronizing merge"
  benefit "no deadlock on partial choice"
  state S1
  state S2
  state S3
  trans t1 { from alpha on start split or to S1 if h1, S2 if h2 }
  trans t2 { from S1 on e1 do a1, S2 on e2 do a2 join or do a3 to S3 }
}
"""


def test_or_join_waits_only_for_activated_branches():
    model = parse_dsl(OR_JOIN_DSL)
    after_split = step(
        model, initial_configuration(model), {"start"}, {"h1": True, "h2": False}
    ).after
    assert after_split.counts() == {"S1": 1}
    assert after_split.mark("t1") == (0,)
    # only branch one was activated, so e1 alone completes the merge
    result = step(model, after_split, {"e1"}, {})
    assert result.fired == ("t2",)
    assert result.trace == ("a1", "a3")
    assert result.after == Configuration.of("S3")


def test_or_join_waits_for_both_when_both_activated():
    model = parse_dsl(OR_JOIN_DSL)
    after_split = step(
        model, initial_configuration(model), {"start"}, {"h1": True, "h2": True}
    ).after
    assert after_split.counts() == {"S1": 1, "S2": 1}
    assert enabled(model, after_split, {"e1"}, {}) == []
    result = step(model, after_split, {"e1", "e2"}, {})
    assert result.after == Configuration.of("S3")


# ---------------------------------------------------------------------------
# Scenario replay
# ---------------------------------------------------------------------------


def test_every_m9_paper_scenario_passes(m9):
    doc = emit_feature(m9, "paper_exact")
    for scenario in doc.scenarios:
        verdict = replay_scenario(m9, scenario, "paper_exact")
        assert verdict.passed, (scenario.name, verdict.mismatches)


def test_handwritten_sequence_text_replays_against_m1(m1):
    doc = parse_feature("GIVEN S1\nWHEN ev1\nTHEN a1\n")
    verdict = replay_scenario(m1, doc.scenarios[0], "paper_exact")
    assert verdict.passed
    assert verdict.fired == ("t2",)


def test_altered_then_fails_with_positioned_mismatch(m1):
    doc = parse_feature("GIVEN S1\nWHEN ev1\nTHEN a2\n")
    verdict = replay_scenario(m1, doc.scenarios[0], "paper_exact")
    assert not verdict.passed
    expected, observed, position = verdict.mismatches[0]
    assert expected == "a2"
    assert "a1" in observed
    assert position == "then actions[0]"


def test_illegal_given_raises(m9):
    doc = parse_feature("GIVEN S6.1 AND S6.2\nWHEN ev8\nTHEN a10\n")
    with pytest.raises(IllegalGiven):
        replay_scenario(m9, doc.scenarios[0], "paper_exact")


def _reference_replay():
    """``replay._replay`` with its one-state shortcut taken out: every GIVEN
    builds ``Configuration.of`` and passes ``legal_configuration``."""
    source = inspect.getsource(replay._replay)
    shortcut = "if len(paths) == 1:"
    assert source.count(shortcut) == 1
    namespace = dict(vars(replay))
    exec(source.replace(shortcut, "if False:"), namespace)
    return namespace["_replay"]


ONE_STATE_GIVENS = [
    ("m9", "GIVEN S6.1\nWHEN ev8\nTHEN a10 AND S6.2\n"),  # a leaf
    ("m9", "GIVEN S6\nWHEN ev8\nTHEN a10 AND S6.2\n"),  # a composite
    ("m9", "GIVEN S5\nWHEN ev7\nTHEN a9 AND S6.1\n"),  # into a composite
    ("m9", "GIVEN alpha\nWHEN ev1\nTHEN a1; a2 AND S1\n"),
    ("m7", "GIVEN alpha AND h1 AND NOT h2\nWHEN start\nTHEN S1\n"),  # a state and guard literals
    ("m7", "GIVEN h1 AND S1\nWHEN e1\nTHEN a1 AND S3\n"),
]
ILLEGAL_GIVENS = [
    ("GIVEN S1 AND S1\nWHEN ev2\nTHEN a5\n", "count 2 on S1 which is not a multi-join target"),
    ("GIVEN S6.1 AND S6.2\nWHEN ev8\nTHEN a10\n", "two active children of S6: S6.1 and S6.2"),
    ("GIVEN ev1\nWHEN ev1\nTHEN a1\n", "GIVEN term 'ev1' is not a state or guard of the model"),
    ("GIVEN S9\nWHEN ev1\nTHEN a1\n", "GIVEN term 'S9' is not a state or guard of the model"),
]


@pytest.mark.parametrize("mode", ["strict", "paper_exact"])
def test_one_state_given_replays_as_the_checked_reference(monkeypatch, fixtures, mode):
    reference = _reference_replay()
    checked = []
    legal = replay.m.legal_configuration
    monkeypatch.setattr(replay.m, "legal_configuration", lambda *a: checked.append(a[1]) or legal(*a))
    passed = []
    for name, text in ONE_STATE_GIVENS:
        model = fixtures[name]
        scenario = parse_feature(text).scenarios[0]
        want = reference(model, model_index(model).kinds, scenario, mode)
        assert len(checked) == 1, text
        verdict = replay_scenario(model, scenario, mode)
        assert verdict == want, text
        assert len(checked) == 1, text  # the shortcut checks nothing
        checked.clear()
        passed.append(verdict.passed)
    assert passed == [True, False, True, True, True, False]


@pytest.mark.parametrize("text, reason", ILLEGAL_GIVENS)
def test_illegal_givens_keep_their_reasons(m9, text, reason):
    scenario = parse_feature(text).scenarios[0]
    with pytest.raises(IllegalGiven) as caught:
        _reference_replay()(m9, model_index(m9).kinds, scenario, "strict")
    assert str(caught.value) == reason
    with pytest.raises(IllegalGiven) as caught:
        replay_scenario(m9, scenario, "strict")
    assert str(caught.value) == reason


def test_a_given_naming_no_state_is_illegal(m7):
    scenario = parse_feature("GIVEN h1 AND NOT h2\nWHEN start\nTHEN S1\n").scenarios[0]
    with pytest.raises(IllegalGiven, match="^GIVEN names no states$"):
        replay_scenario(m7, scenario, "strict")


def test_a_state_inside_a_strict_then_sequence_splits_it(m9):
    """A THEN sequence ``a1; S1; a2`` reads as the runs ``a1`` and ``a2``,
    each in trace order, and the state S1."""
    for then, passed in (("a1; S1; a2", True), ("a2; S1; a1", True), ("a1; S1; a9", False)):
        scenario = parse_feature(f"GIVEN alpha\nWHEN ev1\nTHEN {then}\n").scenarios[0]
        verdict = replay_scenario(m9, scenario, "strict")
        assert verdict.passed is passed, (then, verdict.mismatches)


# -- the atom-kind table ---------------------------------------------------


def test_kinds_name_the_first_space_holding_each_name(fixtures):
    models = list(fixtures.values()) + [random_model(seed) for seed in range(40)]
    for model in models:
        index = model_index(model)
        assert index.kinds.keys() == set().union(*index.spaces.values())
        for names in index.spaces.values():
            for name in names:
                first = next(kind for kind, space in index.spaces.items() if name in space)
                assert index.kinds[name] == first, name


def test_a_name_both_state_and_guard_replays_as_a_state():
    # X is a state and also t3's guard; the state space comes first
    model = ProcessModel(
        states=(StateNode("S1", "S1"), StateNode("X", "X"), StateNode("S2", "S2")),
        transitions=(
            TransitionDecl("t0", (InBranch("alpha"),), (OutBranch("S1"),)),
            TransitionDecl("t1", (InBranch("S1", "e1"),), (OutBranch("X"),)),
            TransitionDecl("t2", (InBranch("X", "e2"),), (OutBranch("S2"),)),
            TransitionDecl("t3", (InBranch("S2", "e3"),), (OutBranch("S1", guard("X")),)),
        ),
    )
    assert [d.code for d in validate(model)] == ["NamespaceCollision"]
    assert model_index(model).kinds["X"] == "state"
    # as a guard, X would leave GIVEN with no state; in THEN it would be an action
    for text in ("GIVEN X\nWHEN e2\nTHEN S2\n", "GIVEN S1\nWHEN e1\nTHEN X\n"):
        scenario = parse_feature(text).scenarios[0]
        assert replay_scenario(model, scenario, "strict").passed, text


def test_strict_mode_requires_exact_configuration(m2):
    doc = emit_feature(m2, "strict")
    split = next(s for s in doc.scenarios if s.name == "ParallelSplit t2")
    # strict passes as emitted
    assert replay_scenario(m2, split, "strict").passed
    # dropping one resulting state flips it to failed
    trimmed = Scenario(
        split.name,
        tuple(
            Step(s.keyword, s.text.replace(" AND E3", "")) if s.keyword == "Then" else s
            for s in split.steps
        ),
    )
    assert not replay_scenario(m2, trimmed, "strict").passed
    # paper-exact accepts the subset view
    assert replay_scenario(m2, trimmed, "paper_exact").passed


def test_strict_scenarios_all_pass_with_full_coverage(fixtures):
    for name, model in fixtures.items():
        report = check_suite(model, emit_feature(model, "strict"), "strict")
        assert report.passed, name
        assert report.coverage == 1.0, name
        assert report.uncovered == (), name


def test_empty_doc_has_zero_coverage(m1):
    report = check_suite(m1, FeatureDoc(title="none"), "strict")
    assert report.coverage == 0.0
    assert report.uncovered == ("t1", "t2")


def test_missing_row_reported_uncovered(m9):
    doc = emit_feature(m9, "paper_exact")
    trimmed = FeatureDoc(
        title=doc.title,
        role=doc.role,
        feature=doc.feature,
        benefit=doc.benefit,
        scenarios=tuple(
            s for s in doc.scenarios if "ev11" not in s.steps[1].text
        ),
        mode_hint=doc.mode_hint,
    )
    report = check_suite(m9, trimmed, "paper_exact")
    assert report.passed
    assert report.uncovered == ("t7",)
    assert report.coverage == pytest.approx(6 / 7)


def test_coverage_is_monotone(m9):
    doc = emit_feature(m9, "strict")
    last = 0.0
    for n in range(len(doc.scenarios) + 1):
        partial = FeatureDoc(title="part", scenarios=doc.scenarios[:n])
        coverage = check_suite(m9, partial, "strict").coverage
        assert coverage >= last
        last = coverage


def test_check_report_json_shape(m1):
    report = check_suite(m1, emit_feature(m1, "strict"), "strict")
    payload = report.to_json()
    assert list(payload) == ["verdicts", "coverage", "uncovered"]
    assert payload["coverage"] == 1.0
    assert payload["verdicts"][0]["scenario"] == "Sequence t1"


MIXED_SUITE = """\
Scenario: passes first
GIVEN alpha
WHEN start
THEN S1

Scenario: prose
Given the analyst has opened "the form"
When start
Then S1

Scenario: illegal given
GIVEN S9 AND g1
WHEN _done
THEN a1 AND S2

Scenario: no states
GIVEN g1
WHEN _done
THEN a1 AND S2

Scenario: conflict
GIVEN S1 AND g1 AND g2
WHEN _done
THEN a1 AND S2

Scenario: prose then
GIVEN S1 AND g2
WHEN _done
THEN a2 and then S3

Scenario: passes last
GIVEN S1 AND NOT g2 AND g1
WHEN _done
THEN a1 AND S2

Scenario: fails
GIVEN S1 AND g2
WHEN _done
THEN a1 AND S3
"""


def per_scenario_check(model, doc, mode):
    """``check_suite`` as one pass: each scenario read and replayed in turn."""
    verdicts = []
    for scenario in doc.scenarios:
        try:
            verdict = replay_scenario(model, scenario, mode)
        except FlowspecError as exc:
            verdict = Verdict(False, (("replayable scenario", str(exc), scenario.name),))
        verdicts.append((scenario.name, verdict))
    return report_for(model, verdicts)


@pytest.mark.parametrize("mode", ["strict", "paper_exact"])
def test_two_pass_check_matches_per_scenario_replay(m4, mode):
    doc = parse_feature(MIXED_SUITE)
    report = check_suite(m4, doc, mode)
    # the reference reads each scenario's clauses just before its replay
    assert report == per_scenario_check(m4, parse_feature(MIXED_SUITE), mode)
    assert [name for name, _ in report.verdicts] == [s.name for s in doc.scenarios]
    assert [v.passed for _, v in report.verdicts] == [True, False, False, False, False, False, True, False]
    firsts = [v.mismatches[0] for _, v in report.verdicts if v.mismatches]
    assert firsts == [
        ("structured clauses", "free-text steps", "prose"),
        ("replayable scenario", "GIVEN term 'S9' is not a state or guard of the model", "illegal given"),
        ("replayable scenario", "GIVEN names no states", "no states"),
        ("deterministic step", "conflict: t2, t3", "conflict"),
        ("structured clauses", "free-text steps", "prose then"),
        ("a1", "a2", "then actions[0]"),
    ]
    assert (report.coverage, report.uncovered) == (2 / 3, ("t3",))


def _mutated(doc):
    """Every third scenario of `doc` with an action its firing cannot run
    appended to its THEN."""
    scenarios = tuple(
        Scenario(s.name, s.steps + (Step("Then", "zz_not_run"),)) if i % 3 == 0 else s
        for i, s in enumerate(doc.scenarios)
    )
    return FeatureDoc(title=doc.title, scenarios=scenarios)


def _assert_json_text(report):
    assert report.to_json_text() == json.dumps(report.to_json(), indent=2)


def test_report_text_is_json_dumps_on_generated_suites(fixtures, generated_models):
    outcomes = set()
    for model in [*fixtures.values(), *generated_models]:
        strict = emit_feature(model, "strict")
        for doc, mode in (
            (strict, "strict"),
            (emit_feature(model, "paper_exact"), "paper_exact"),
            (_mutated(strict), "strict"),
        ):
            report = check_suite(model, doc, mode)
            _assert_json_text(report)
            outcomes.update(v.passed for _, v in report.verdicts)
    assert outcomes == {True, False}


@pytest.mark.parametrize("coverage", [0.0, 1.0, 1 / 3])
def test_report_text_is_json_dumps_on_edge_reports(coverage):
    odd = 'q"b\\s\nl\u2028 é 名 \x00\t'
    _assert_json_text(CheckReport((), coverage, ()))
    _assert_json_text(CheckReport((("s", Verdict(True)),), coverage, ("t1",)))
    verdicts = (
        (odd, Verdict(False, ((odd, "", "then trace"), ("a1", odd, odd)), (odd,))),
        ("", Verdict(True, (), ("t1", "t2"))),
        ("s2", Verdict(False, (("a", "b", "then actions[0]"),))),
    )
    _assert_json_text(CheckReport(verdicts, coverage, (odd, "t3")))


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


def test_explore_m1_single_maximal_trace(m1):
    traces = explore(m1, 2)
    assert len(traces) == 1
    assert [s.fired for s in traces[0]] == [("t1",), ("t2",)]


def test_explore_depth_zero_is_empty(m1):
    assert explore(m1, 0) == []


def test_explore_m6_one_trace_per_guard_subset(m6):
    traces = explore(m6, 2)
    assert len(traces) == 3
    finals = {tuple(sorted(t[-1].after.paths())) for t in traces}
    assert finals == {("E1", "E2"), ("E1", "E3"), ("E1", "E2", "E3")}


@pytest.mark.parametrize("start, trace", [("S1", ("a1", "a3")), ("S2", ("a2", "a3"))])
def test_or_fed_and_join_synchronizes_what_the_or_split_fired(m7, start, trace):
    # t2 joins S1 and S2 by "join and", but or-split t1 feeds it, so it is a
    # synchronizing merge: it waits only for the branches t1 fired
    assert model_index(m7).patterns["t2"][0] is PatternKind.SYNCHRONIZE_MERGE
    runs = explore(m7, 3, Configuration.of(start))
    assert [[(s.fired, s.trace, s.after) for s in run] for run in runs] == [
        [(("t2",), trace, Configuration.of("S3"))]
    ]
    # from alpha: every guard subset of t1 reaches S3, with nothing left
    runs = explore(m7, 3)
    assert len(runs) == 3
    assert all([s.fired for s in run] == [("t1",), ("t2",)] for run in runs)
    assert {run[-1].after for run in runs} == {Configuration.of("S3")}


def test_explore_rejects_an_undeclared_start_state(m1):
    with pytest.raises(UnknownState, match="Nope"):
        explore(m1, 2, Configuration.of("Nope"))
    with pytest.raises(UnknownState, match="Nope"):
        explore(m1, 2, Configuration.of("S1", "Nope"))


def test_explore_accepts_every_configuration_it_lists(fixtures):
    # validation checks only that each entry is declared: a reachable
    # configuration need not pass legal_configuration
    for model in fixtures.values():
        for run in explore(model, 3):
            for s in run:
                explore(model, 1, s.after)


def test_explore_depth_bound_enforced(m1):
    with pytest.raises(ValueError):
        explore(m1, 64)


def test_explore_fires_every_transition(fixtures):
    for name, model in fixtures.items():
        traces = explore(model, 6)
        fired = {tid for t in traces for s in t for tid in s.fired}
        if name == "m9":
            # the detached fragment is attested without its inbound wiring;
            # witness it from its own entry state
            fired.update(
                tid
                for t in explore(model, 6, start=Configuration.of("S5"))
                for s in t
                for tid in s.fired
            )
        assert fired == {t.id for t in model.transitions}, name


def test_configurations_stay_legal_during_exploration(fixtures):
    from flowspec.model import legal_configuration

    for name, model in fixtures.items():
        for trace in explore(model, 5):
            for record in trace:
                assert legal_configuration(model, record.after) is None, name


def per_stimulus_explore(model, depth_bound, start=None):
    """``explore`` as it was before one candidate scan served every
    stimulus at a configuration: ``_stimuli``, then public ``step`` for
    each stimulus."""
    traces = []

    def walk(config, prefix):
        extended = False
        if len(prefix) < depth_bound:
            for events, valuation in _stimuli(model, config):
                try:
                    result = step(model, config, events, valuation)
                except NondeterminismConflict:
                    continue
                if not result.fired:
                    continue
                record = ExploreStep(
                    tuple(sorted(events)),
                    tuple(sorted(valuation.items())),
                    result.fired,
                    result.trace,
                    result.after,
                )
                extended = True
                walk(result.after, prefix + (record,))
        if not extended and prefix:
            traces.append(prefix)

    walk(start or initial_configuration(model), ())
    return traces


# Tokens accumulate on a multi-join target (S1 and S3 share e1); an
# or-split's mark feeds an or-join; an xor-join has both inputs ready on one
# event; and two transitions compete for S7's token on e9.
EXPLORE_CASES = [
    """\
process "multi" {
  state S1
  state S2
  state S3
  state S4
  state S5
  trans t1 { from alpha on go split and to S1, S2, S3 }
  trans t2 { from S1 on e1 do a1, S2 on e2 do a2, S3 on e1 do a3 join multi to S4 }
  trans t3 { from S4 on e4 do a4 to S5 }
  trans t4 { from S5 on e5 do a5 to Beta }
}
""",
    """\
process "or" {
  state S1
  state S2
  state S3
  state S4
  trans t1 { from alpha on go split or to S1 if h1, S2 if h2, S4 do a0 mandatory }
  trans t2 { from S1 on e1 do a1, S2 on e2 do a2 join or do a3 to S3 }
  trans t3 { from S3 on e3 to Beta }
}
""",
    """\
process "joins" {
  state S1
  state S2
  state S3
  state S4
  state S5
  state S6
  state S7
  state S8
  trans t1 { from alpha on go split and to S1, S2, S3 }
  trans t2 { from S1 on e1 do b1, S2 on e1 do b2 join xor to S4 }
  trans t3 { from S2 on e2 do c1, S3 on e3 do c2 join multi to S5 }
  trans t4 { from S5 on e4 to S6 }
  trans t5 { from S4 on e5, S6 on e6 join and to S7 }
  trans t6 { from S7 on e9 do d1 to S8 }
  trans t7 { from S7 on e9 do d2 to S1 }
}
""",
]


def test_explore_matches_per_stimulus_explore(fixtures):
    for name, model in fixtures.items():
        assert explore(model, 5) == per_stimulus_explore(model, 5), name
    start = Configuration.of("S5")
    assert explore(fixtures["m9"], 5, start) == per_stimulus_explore(fixtures["m9"], 5, start)


@pytest.mark.parametrize("seed", range(60))
def test_explore_matches_per_stimulus_explore_on_generated_models(seed):
    model = random_model(seed, GeneratorLimits(22, 20))
    assert explore(model, 4) == per_stimulus_explore(model, 4)


@pytest.mark.parametrize("text", EXPLORE_CASES, ids=["multi", "or", "joins"])
def test_explore_matches_per_stimulus_explore_on_joins(text):
    model = parse_dsl(text)
    runs = explore(model, 5)
    assert runs == per_stimulus_explore(model, 5)
    assert runs


# ---------------------------------------------------------------------------
# Replay modes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["bogus", "Strict", "", "paper exact"])
def test_unknown_replay_mode_is_rejected(m1, mode):
    doc = emit_feature(m1, "strict")
    with pytest.raises(ValueError, match="unknown mode"):
        check_suite(m1, doc, mode)
    with pytest.raises(ValueError, match="unknown mode"):
        check_suite(m1, FeatureDoc(title="empty"), mode)
    with pytest.raises(ValueError, match="unknown mode"):
        replay_scenario(m1, doc.scenarios[0], mode)


# ---------------------------------------------------------------------------
# Candidate selection: step and enabled against a scan of every transition
# ---------------------------------------------------------------------------


def oracle_enabled(model, config, events, valuation):
    events = set(events)
    return [t.id for t in model.transitions if firings_for(model, t, config, events, valuation)]


def oracle_step(model, config, events, valuation):
    """``step`` as a scan of every transition in declaration order."""
    events = set(events)
    firings = [
        f for t in model.transitions for f in firings_for(model, t, config, events, valuation)
    ]
    counts = config.counts()
    demanders: dict[str, list[str]] = {}
    for f in firings:
        for i in f.consumed:
            demanders.setdefault(f.transition.inputs[i].source, []).append(f.transition.id)
    for src, ids in demanders.items():
        if len(ids) > counts.get(src, 0):
            raise NondeterminismConflict(sorted(set(ids)))
    marks = dict(config.or_marks)
    trace: list[str] = []
    for f in firings:
        t = f.transition
        consumed = tuple(t.inputs[i] for i in f.consumed)
        for b in consumed:
            counts[b.source] -= 1
            if not counts[b.source]:
                del counts[b.source]
        plan = firing_plan(model, t, consumed, f.fired_outputs)
        for leaf in plan.leaves:
            counts[leaf] = counts.get(leaf, 0) + 1
        if t.split_kind == "or":
            marks[t.id] = f.fired_outputs
        if f.clear_mark is not None:
            marks.pop(f.clear_mark, None)
        trace.extend(plan.trace)
    after = Configuration(tuple(sorted(counts.items())), tuple(sorted(marks.items())))
    return StepResult(tuple(f.transition.id for f in firings), tuple(trace), after)


def outcome(run, *args):
    try:
        return run(*args)
    except NondeterminismConflict as exc:
        return ("conflict", exc.transition_ids)


def assert_candidates_match_scan(model, start=None):
    """Compare at every configuration ``explore(model, 4)`` reaches, under
    every stimulus ``_stimuli`` offers there.  Returns the number of
    comparisons."""
    start = start or initial_configuration(model)
    configs = {start} | {s.after for run in explore(model, 4, start) for s in run}
    compared = 0
    for config in sorted(configs, key=repr):
        for events, valuation in _stimuli(model, config):
            args = (model, config, events, valuation)
            assert enabled(*args) == oracle_enabled(*args), (config, events, valuation)
            assert outcome(step, *args) == outcome(oracle_step, *args), (config, events, valuation)
            compared += 1
    return compared


def test_candidates_match_scan_on_fixtures(fixtures):
    for name, model in fixtures.items():
        assert assert_candidates_match_scan(model), name


@pytest.mark.parametrize("seed", range(40))
def test_candidates_match_scan_on_generated_models(seed):
    assert assert_candidates_match_scan(random_model(seed))


def test_candidates_include_transitions_without_inputs():
    model = ProcessModel(
        states=(StateNode("S1", "S1"), StateNode("S2", "S2")),
        transitions=(
            TransitionDecl("t1", (InBranch("alpha", "ev1"),), (OutBranch("S1"),)),
            TransitionDecl("t0", (), (OutBranch("S2", actions=("a0",)),)),
        ),
    )
    assert enabled(model, Configuration.of("alpha"), {"ev1"}, {}) == ["t1", "t0"]
    result = step(model, Configuration.of("S1"), set(), {})
    assert result.fired == ("t0",)
    assert result.after == Configuration.of("S1", "S2")
    assert assert_candidates_match_scan(model)


def test_candidates_on_a_multi_join_target_with_two_tokens():
    states = tuple(StateNode(s, s) for s in ("S1", "S2", "S3", "S4", "S5"))
    model = ProcessModel(
        states=states,
        transitions=(
            TransitionDecl(
                "t1", (InBranch("alpha", "ev1"),), (OutBranch("S1"), OutBranch("S2")),
                split_kind="and",
            ),
            TransitionDecl(
                "t2", (InBranch("S1"), InBranch("S2")), (OutBranch("S3"),), join_kind="multi",
            ),
            TransitionDecl("t3", (InBranch("S3", "ev3"),), (OutBranch("S4"),)),
            TransitionDecl("t4", (InBranch("S3", "ev3"),), (OutBranch("S5"),)),
            TransitionDecl("t5", (InBranch("S4", "ev5"),), (OutBranch("Beta"),)),
        ),
    )
    two = step(model, Configuration.of("S1", "S2"), set(), {})
    assert two.fired == ("t2", "t2")
    assert two.after == Configuration.of("S3", "S3")
    # Two tokens feed two transitions: no conflict.
    assert step(model, two.after, {"ev3"}, {}).after == Configuration.of("S4", "S5")
    with pytest.raises(NondeterminismConflict):
        step(model, Configuration.of("S3"), {"ev3"}, {})
    assert assert_candidates_match_scan(model)
