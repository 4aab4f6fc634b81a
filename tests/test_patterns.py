"""Pattern classification and lint behavior."""

import itertools
import random

import pytest

from flowspec.dsl import parse_dsl
from flowspec.model import (
    GuardExpr,
    InBranch,
    OutBranch,
    PatternKind,
    ProcessModel,
    StateNode,
    TransitionDecl,
)
from flowspec.patterns import classify, guards_overlap, lint


def kinds_by_tid(model):
    instances, _ = classify(model)
    return {inst.transition_id: inst.kind for inst in instances}


def test_fixture_kinds(fixtures):
    expected = {
        "m1": {"t2": PatternKind.SEQUENCE},
        "m2": {"t2": PatternKind.PARALLEL_SPLIT},
        "m3": {"t2": PatternKind.SYNCHRONIZATION},
        "m4": {"t2": PatternKind.EXCLUSIVE_CHOICE, "t3": PatternKind.EXCLUSIVE_CHOICE},
        "m5": {"t3": PatternKind.SIMPLE_MERGE},
        "m6": {"t2": PatternKind.MULTIPLE_CHOICE},
        "m7": {"t2": PatternKind.SYNCHRONIZE_MERGE},
        "m8": {"t2": PatternKind.MULTIPLE_MERGE},
        "m9": {
            "t1": PatternKind.SEQUENCE,
            "t2": PatternKind.PARALLEL_SPLIT,
            "t3": PatternKind.SEQUENCE,
        },
    }
    for name, wanted in expected.items():
        kinds = kinds_by_tid(fixtures[name])
        for tid, kind in wanted.items():
            assert kinds[tid] == kind, (name, tid)


def test_one_in_one_out_unguarded_is_sequence(m1):
    assert kinds_by_tid(m1)["t1"] == PatternKind.SEQUENCE


def test_synchronize_merge_requires_or_split_provenance(m7, m3):
    instances, _ = classify(m7)
    t2 = next(i for i in instances if i.transition_id == "t2")
    assert t2.kind == PatternKind.SYNCHRONIZE_MERGE
    assert any("or-split t1" in note for note in t2.notes)
    # same join kind without the upstream or-split stays a synchronization
    assert kinds_by_tid(m3)["t2"] == PatternKind.SYNCHRONIZATION


def test_or_join_kind_is_synchronize_merge():
    text = """\
process "p" {
  state S1
  state S2
  state S3
  trans t1 { from alpha on start split or to S1 if h1, S2 if h2 }
  trans t2 { from S1 on e1, S2 on e2 join or to S3 }
}
"""
    model = parse_dsl(text)
    assert kinds_by_tid(model)["t2"] == PatternKind.SYNCHRONIZE_MERGE


def test_classification_is_total(fixtures):
    for name, model in fixtures.items():
        instances, _ = classify(model)
        assert len(instances) == len(model.transitions), name


def _rename_model(model, fn):
    def seg(path):
        return ".".join(fn(p) for p in path.split("."))

    def node(n):
        return StateNode(
            name=fn(n.name),
            path=seg(n.path),
            entry_actions=tuple(fn(a) for a in n.entry_actions),
            exit_actions=tuple(fn(a) for a in n.exit_actions),
            children=tuple(node(c) for c in n.children),
            initial_child=seg(n.initial_child) if n.initial_child else None,
        )

    def g(expr):
        if expr is None:
            return None
        return GuardExpr(tuple((fn(a), neg) for a, neg in expr.literals))

    return ProcessModel(
        title=model.title,
        role=model.role,
        feature=model.feature,
        benefit=model.benefit,
        initial_name=fn(model.initial_name),
        final_name=fn(model.final_name),
        states=tuple(node(s) for s in model.states),
        transitions=tuple(
            TransitionDecl(
                id=fn(t.id),
                inputs=tuple(
                    InBranch(seg(b.source), fn(b.event) if b.event else None,
                             tuple(fn(a) for a in b.actions))
                    for b in t.inputs
                ),
                outputs=tuple(
                    OutBranch(seg(b.target), g(b.guard),
                              tuple(fn(a) for a in b.actions), b.mandatory)
                    for b in t.outputs
                ),
                join_kind=t.join_kind,
                split_kind=t.split_kind,
                shared_event=fn(t.shared_event) if t.shared_event else None,
                shared_guard=g(t.shared_guard),
                shared_actions=tuple(fn(a) for a in t.shared_actions),
            )
            for t in model.transitions
        ),
    )


def test_classification_is_structural_only(fixtures):
    for name, model in fixtures.items():
        renamed = _rename_model(model, lambda s: f"q{s}_z")
        original, _ = classify(model)
        after, _ = classify(renamed)
        assert [i.kind for i in original] == [i.kind for i in after], name


def test_state_special_cases(m9):
    _, specials = classify(m9)
    entries = {(s.kind, s.state_path) for s in specials}
    assert (PatternKind.ENTRY_EXIT_CASE, "S1") in entries
    assert (PatternKind.EMBEDDED_STATES, "S6") in entries
    assert all(s.kind != PatternKind.ENTRY_EXIT_CASE or s.state_path != "S2"
               for s in specials)


# ---------------------------------------------------------------------------
# Lint
# ---------------------------------------------------------------------------


def test_lint_m1_clean(m1):
    assert lint(m1) == []


def test_lint_flags_m4_overlap(m4):
    codes = [d.code for d in lint(m4)]
    assert "OverlappingGuards" in codes


def test_lint_overlap_subsumed_guard():
    text = """\
process "p" {
  state S1
  state S2
  state S3
  trans t1 { from alpha on start to S1 }
  trans t2 { from S1 if g1 do a1 to S2 }
  trans t3 { from S1 if g1 and g2 do a2 to S3 }
}
"""
    model = parse_dsl(text)
    report = [d for d in lint(model) if d.code == "OverlappingGuards"]
    assert len(report) == 1
    assert "g1=True" in report[0].message and "g2=True" in report[0].message


def test_lint_disjoint_guards_not_flagged():
    text = """\
process "p" {
  state S1
  state S2
  state S3
  trans t1 { from alpha on start to S1 }
  trans t2 { from S1 if g1 do a1 to S2 }
  trans t3 { from S1 if not g1 do a2 to S3 }
}
"""
    model = parse_dsl(text)
    assert all(d.code != "OverlappingGuards" for d in lint(model))


def test_lint_unreachable(m9):
    flagged = {d.location for d in lint(m9) if d.code == "UnreachableState"}
    assert "S5" in flagged
    assert "S1" not in flagged and "S2" not in flagged


def test_lint_or_join_without_or_split():
    text = """\
process "p" {
  state S1
  state S2
  state S3
  trans t1 { from alpha on start split and to S1, S2 }
  trans t2 { from S1 on e1, S2 on e2 join or to S3 }
}
"""
    model = parse_dsl(text)
    assert "OrJoinWithoutOrSplit" in [d.code for d in lint(model)]


def test_lint_dangling_final():
    text = """\
process "p" {
  finalname "omega"
  state S1
  trans t1 { from alpha on start to S1 }
}
"""
    model = parse_dsl(text)
    assert "DanglingFinal" in [d.code for d in lint(model)]


# ---------------------------------------------------------------------------
# Overlap detection against an analytic oracle
# ---------------------------------------------------------------------------


def _polarity_conflict(a, b):
    """Two conjunctions can hold together iff no atom appears with opposite
    polarity across them (and neither repeats an atom inconsistently)."""
    seen = {}
    for atom, neg in list(a) + list(b):
        if atom in seen and seen[atom] != neg:
            return True
        seen[atom] = neg
    return False


def test_guards_overlap_matches_analytic_oracle():
    atoms = ["p", "q", "r"]
    literal_pool = [(a, neg) for a in atoms for neg in (False, True)]
    for size_a in (1, 2):
        for size_b in (1, 2):
            for a in itertools.combinations(literal_pool, size_a):
                for b in itertools.combinations(literal_pool, size_b):
                    if len({x for x, _ in a}) < len(a) or len({x for x, _ in b}) < len(b):
                        continue
                    brute = guards_overlap(a, b) is not None
                    assert brute == (not _polarity_conflict(a, b)), (a, b)


@pytest.mark.parametrize("width", [17, 40, 200])
def test_guards_overlap_wide_guards(width):
    rng = random.Random(width)
    a = tuple((f"g{i}", rng.random() < 0.5) for i in range(width))
    shared = dict(a[width // 2 :])
    b = tuple(shared.items()) + tuple((f"h{i}", rng.random() < 0.5) for i in range(width))
    witness = guards_overlap(a, b)
    assert not _polarity_conflict(a, b)
    assert witness == {atom: not neg for atom, neg in a + b}
    for atom in (f"g{width - 1}", f"g{width // 2}"):
        flipped = tuple((x, not neg if x == atom else neg) for x, neg in b)
        assert _polarity_conflict(a, flipped)
        assert guards_overlap(a, flipped) is None


def test_classification_total_on_generated_models():
    from flowspec.generator import random_model

    for seed in range(25):
        model = random_model(seed + 1000)
        instances, _ = classify(model)
        assert len(instances) == len(model.transitions)
        renamed = _rename_model(model, lambda s: f"r{s}")
        after, _ = classify(renamed)
        assert [i.kind for i in instances] == [i.kind for i in after]
