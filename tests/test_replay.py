"""Replay semantics: enabledness, stepping, verdicts, coverage, exploration."""

import pytest

from flowspec.dsl import parse_dsl
from flowspec.emit import emit_feature
from flowspec.errors import IllegalGiven, NondeterminismConflict
from flowspec.feature import FeatureDoc, Scenario, Step, parse_feature
from flowspec.generator import random_model
from flowspec.model import (
    Configuration,
    InBranch,
    OutBranch,
    ProcessModel,
    StateNode,
    TransitionDecl,
    firing_plan,
    initial_configuration,
)
from flowspec.replay import (
    StepResult,
    _stimuli,
    check_suite,
    enabled,
    explore,
    firings_for,
    replay_scenario,
    step,
)

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
        for leaf in plan.result_leaves():
            counts[leaf] = counts.get(leaf, 0) + 1
        if t.split_kind == "or":
            marks[t.id] = f.fired_outputs
        if f.clear_mark is not None:
            marks.pop(f.clear_mark, None)
        trace.extend(plan.trace())
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
