"""Scenario emission: golden shapes, subset enumeration, formatting."""

import pytest

from flowspec import emit
from flowspec.emit import emit_feature, enumerate_choice_subsets
from flowspec.errors import TooManyChoiceBranches
from flowspec.feature import (
    KEYWORDS,
    STYLES,
    ActionSeq,
    Scenario,
    Step,
    Term,
    format_feature,
)
from flowspec.dsl import parse_dsl
from flowspec.model import COMPLETION_EVENT, normalize_mode

from gwt_texts import PATTERN_GOLDENS, gwt_lines, normalize_block, pattern_lines
from gwt_texts import SPECIAL_CASES_GWT


@pytest.mark.parametrize("key", sorted(PATTERN_GOLDENS))
def test_pattern_emission_matches_golden(fixtures, key):
    got, want = pattern_lines(fixtures[key], key)
    assert got == want


def test_special_cases_rows_match_golden(m9):
    doc = emit_feature(m9, "paper_exact")
    assert gwt_lines(doc) == normalize_block(SPECIAL_CASES_GWT)
    assert len(doc.scenarios) == len(normalize_block(SPECIAL_CASES_GWT)) // 3


def test_sequence_scenario_shape(m1):
    doc = emit_feature(m1, "paper_exact")
    assert [s.name for s in doc.scenarios] == ["Sequence t1", "Sequence t2"]
    assert doc.mode_hint == "paper-exact"
    assert doc.title == "Sequence"
    assert doc.role == "analyst"


def test_strict_sequence_appends_result_state(m1):
    doc = emit_feature(m1, "strict")
    text = format_feature(doc, "gherkin")
    assert "Given S1\nWhen ev1\nThen a1 AND S2" in text
    assert doc.mode_hint == "strict"


def test_strict_setup_scenario_has_state_only_then(m1):
    doc = emit_feature(m1, "strict")
    scenario = doc.scenarios[0]
    assert scenario.steps[2].text == "S1"


def test_strict_parallel_split_lists_all_leaves(m2):
    doc = emit_feature(m2, "strict")
    t2 = next(s for s in doc.scenarios if s.name == "ParallelSplit t2")
    assert t2.steps[2].text == "a1; a2; a3 AND E1 AND E2 AND E3"


def test_strict_multiple_choice_given_matches_paper_placement(m6):
    paper = emit_feature(m6, "paper_exact")
    strict = emit_feature(m6, "strict")
    for p, s in zip(paper.scenarios[1:], strict.scenarios[1:]):
        assert p.steps[0].text == s.steps[0].text


def test_strict_exclusive_choice_moves_guard_to_given(m4):
    doc = emit_feature(m4, "strict")
    t2 = next(s for s in doc.scenarios if s.name == "ExclusiveChoice t2")
    assert t2.steps[0].text == "S1 AND g1"
    assert t2.steps[1].text == "_done"
    assert t2.steps[2].text == "a1 AND S2"


def test_strict_multiple_merge_moves_guard_to_given(m8):
    doc = emit_feature(m8, "strict")
    first = next(s for s in doc.scenarios if s.name == "MultipleMerge t2 1")
    assert first.steps[0].text == "S1 AND g1"
    assert first.steps[1].text == "ev1"
    assert first.steps[2].text == "a1; a4 AND S4"


def test_strict_synchronization_single_scenario(m3):
    doc = emit_feature(m3, "strict")
    sync = [s for s in doc.scenarios if s.name.startswith("Synchronization")]
    assert len(sync) == 1
    assert sync[0].steps[0].text == "S1 AND S2"
    assert sync[0].steps[1].text == "ev1 AND ev2"
    assert sync[0].steps[2].text == "a1; a2; a3 AND S3"


def test_emission_is_deterministic(fixtures):
    for model in fixtures.values():
        for mode in ("paper_exact", "strict"):
            a = format_feature(emit_feature(model, mode))
            b = format_feature(emit_feature(model, mode))
            assert a == b


def test_scenario_names_unique(fixtures):
    for model in fixtures.values():
        for mode in ("paper_exact", "strict"):
            names = [s.name for s in emit_feature(model, mode).scenarios]
            assert len(names) == len(set(names))


def test_unknown_mode_rejected(m1):
    with pytest.raises(ValueError):
        emit_feature(m1, "loose")


# ---------------------------------------------------------------------------
# Emission pinned to the term renderer
# ---------------------------------------------------------------------------
# The emitter writes step text directly.  The copies below build each clause
# from Term and ActionSeq items and render them, as it once did (a resulting
# state is a one-name ActionSeq, as the parser reads it back);
# both must give the same scenarios and the same feature text.


def _term_trace_items(plan):
    trace = plan.trace
    items = [ActionSeq(trace)] if trace else []
    return items + [ActionSeq((leaf,)) for leaf in plan.leaves]


def _term_action_items(plan):
    return [ActionSeq((a,)) for a in plan.trace] or [
        ActionSeq((leaf,)) for leaf in plan.leaves
    ]


def _term_special_items(plan, outputs):
    items = [ActionSeq((a,)) for a in plan.exit_actions + plan.actions]
    for out in outputs:
        items.extend(ActionSeq((a,)) for a in out.branch.actions + out.entry_actions)
        if not out.entry_actions:
            items.append(ActionSeq((out.leaf,)))
    return items


class _TermEmitter(emit._Emitter):
    def row(self, name, t, consumed, items, given_lits=(), when_lits=()):
        given = [Term(b.source) for b in consumed]
        given.extend(Term(a, n) for a, n in given_lits)
        when = [Term(b.event) for b in consumed if b.event]
        if t.shared_event:
            when.append(Term(t.shared_event))
        when.extend(Term(a, n) for a, n in when_lits)
        clauses = (given, when or [Term(COMPLETION_EVENT)], items)
        steps = tuple(
            Step(keyword, " AND ".join(item.render() for item in clause))
            for keyword, clause in zip(KEYWORDS, clauses)
        )
        return Scenario(name=name, steps=steps)


def _term_emission(model, mode, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(emit, "_trace_items", _term_trace_items)
        patch.setattr(emit, "_action_items", _term_action_items)
        patch.setattr(emit, "_special_items", _term_special_items)
        return _TermEmitter(model, normalize_mode(mode)).emit()


def test_emission_matches_term_renderer(fixtures, generated_models, monkeypatch):
    for model in [*fixtures.values(), *generated_models]:
        for mode in ("paper_exact", "strict"):
            got = emit_feature(model, mode)
            want = _term_emission(model, mode, monkeypatch)
            assert got.scenarios == want.scenarios, (model.title, mode)
            for style in STYLES:
                assert format_feature(got, style) == format_feature(want, style)


# ---------------------------------------------------------------------------
# Choice subset enumeration
# ---------------------------------------------------------------------------


def test_two_branches_give_three_subsets():
    assert enumerate_choice_subsets(["g1", "g2"]) == [
        ("g1",),
        ("g2",),
        ("g1", "g2"),
    ]


def test_single_branch():
    assert enumerate_choice_subsets(["g1"]) == [("g1",)]


def test_three_branches_give_seven_subsets():
    subsets = enumerate_choice_subsets(["g1", "g2", "g3"])
    assert len(subsets) == 7
    assert subsets[0] == ("g1",)
    assert subsets[-1] == ("g1", "g2", "g3")
    sizes = [len(s) for s in subsets]
    assert sizes == sorted(sizes)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 7), (4, 15)])
def test_subset_counts(n, count):
    assert len(enumerate_choice_subsets(list(range(n)))) == count


def test_too_many_branches_rejected():
    with pytest.raises(TooManyChoiceBranches):
        enumerate_choice_subsets(list(range(11)))


def test_or_split_scenario_count_is_subset_count(m6):
    doc = emit_feature(m6, "paper_exact")
    choice = [s for s in doc.scenarios if s.name.startswith("MultipleChoice")]
    assert len(choice) == 3


def test_wide_or_split_emission_rejected():
    branches = ", ".join(f"E{i} if g{i} do a{i}" for i in range(11))
    states = "\n".join(f"  state E{i}" for i in range(11))
    text = f"""\
process "wide" {{
  state S1
{states}
  trans t1 {{ from alpha on start to S1 }}
  trans t2 {{ from S1 on ev1 split or to {branches} }}
}}
"""
    model = parse_dsl(text)
    with pytest.raises(TooManyChoiceBranches):
        emit_feature(model, "paper_exact")


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def test_format_sequenced_then_line(m7):
    text = format_feature(emit_feature(m7, "paper_exact"))
    assert "THEN a1; a2; a3 AND S3" in text


def test_format_when_event_and_guard_line(m8):
    text = format_feature(emit_feature(m8, "paper_exact"))
    assert "WHEN ev1 AND g1" in text


def test_format_empty_scenario_list_is_header_only():
    from flowspec.feature import FeatureDoc

    doc = FeatureDoc(title="t", role="r", feature="f", benefit="b")
    text = format_feature(doc)
    assert text == "Feature: t\nAs a r\nI request f\nTo gain b\n"


def test_gherkin_style_casing(m1):
    text = format_feature(emit_feature(m1, "paper_exact"), "gherkin")
    assert "Given S1" in text
    assert "GIVEN" not in text


def test_strict_result_states_form_legal_configurations(fixtures):
    from flowspec.model import Configuration, legal_configuration, namespaces

    for name, model in fixtures.items():
        states = namespaces(model)["state"]
        for scenario in emit_feature(model, "strict").scenarios:
            then_text = scenario.steps[2].text
            atoms = [a for a in then_text.replace(";", " AND ").split(" AND ")]
            leaves = [a.strip() for a in atoms if a.strip() in states]
            assert leaves, (name, scenario.name)
            config = Configuration.of(*leaves)
            assert legal_configuration(model, config) is None, (name, scenario.name)


@pytest.mark.parametrize("kind", ["xor", "multi"])
def test_merge_output_guard_is_emitted(kind):
    from flowspec.canon import isomorphic
    from flowspec.feature import parse_feature
    from flowspec.infer import infer_model
    from flowspec.replay import check_suite

    model = parse_dsl(
        'process "guarded merge" {\n'
        "  state S1\n  state S2\n  state S3\n"
        "  trans t1 { from alpha on start split and to S1, S2 }\n"
        f"  trans t2 {{ from S1 on e1 do a1, S2 on e2 do a2 join {kind} to S3 if g1 do a3 }}\n"
        "  trans t3 { from S3 on e3 to Beta }\n"
        "}\n"
    )
    for mode in ("strict", "paper_exact"):
        doc = parse_feature(format_feature(emit_feature(model, mode)))
        report = check_suite(model, doc, mode)
        assert report.passed and report.coverage == 1.0, (mode, report.to_json())
    strict = parse_feature(format_feature(emit_feature(model, "strict")))
    inferred, diags = infer_model(strict)
    assert diags == []
    assert isomorphic(inferred, model)
