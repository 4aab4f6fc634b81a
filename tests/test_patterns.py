"""Pattern classification and lint behavior."""

import dataclasses
import itertools
import random

import pytest

from flowspec.canon import canonical_form
from flowspec.dsl import parse_dsl
from flowspec.emit import emit_feature
from flowspec.generator import GeneratorLimits, random_model
from flowspec.model import (
    GuardExpr,
    InBranch,
    OutBranch,
    PatternKind,
    ProcessModel,
    StateNode,
    TransitionDecl,
    chain,
    is_pseudostate,
    model_index,
    namespaces,
    validate,
)
from flowspec.patterns import _reachable_paths, classify, guards_overlap, lint

import patterns_reference
from conftest import FIXTURE_DSL, JOIN_SPLIT_VARIANTS, JOIN_SPLITS, join_split_model, or_fed_join_model


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


OR_JOIN_WITHOUT_OR_SPLIT = """\
process "p" {
  state S1
  state S2
  state S3
  trans t1 { from alpha on start split and to S1, S2 }
  trans t2 { from S1 on e1, S2 on e2 join or to S3 }
}
"""


def test_lint_or_join_without_or_split():
    model = parse_dsl(OR_JOIN_WITHOUT_OR_SPLIT)
    assert "OrJoinWithoutOrSplit" in [d.code for d in lint(model)]


@pytest.mark.parametrize(
    "build",
    [
        *(pytest.param(lambda name=name: parse_dsl(FIXTURE_DSL[name]), id=name) for name in sorted(FIXTURE_DSL)),
        pytest.param(lambda: parse_dsl(OR_JOIN_WITHOUT_OR_SPLIT), id="or-join without or-split"),
        pytest.param(lambda: or_fed_join_model("or"), id="or-fed or-join"),
        pytest.param(lambda: join_split_model("or", "or"), id="join or split or"),
    ],
)
def test_lint_leaves_the_pattern_table_unbuilt(build):
    """lint tests OrJoinWithoutOrSplit on ``or_feeds``, so only classify,
    emission and canon build ``ModelIndex.patterns``."""
    model = build()
    lint(model)
    assert "patterns" not in vars(model_index(model))
    classify(model)
    assert "patterns" in vars(model_index(model))


@pytest.mark.parametrize("join", ["and", "or", "xor", "multi"])
def test_or_split_into_composites_feeds_a_join_of_their_leaves(join):
    """An or-split output feeds a join input whose source is the output's
    target or that target's default leaf, so targeting C and D reads as
    targeting C.a and D.a."""
    model = or_fed_join_model(join, "composite")
    twin = or_fed_join_model(join, "leaf")
    assert model_index(model).or_feeds == {"t2": [("t1", {0: (0,), 1: (1,)})]}
    assert classify(model) == classify(twin)
    assert lint(model) == lint(twin)
    assert "OrJoinWithoutOrSplit" not in [d.code for d in lint(model)]


def test_every_or_split_reaching_a_join_input_is_noted():
    model = parse_dsl("""\
process "p" {
  state S1
  state S2
  state S3
  trans t1 { from alpha on start split or to S1 if g1, S2 if g2 }
  trans t2 { from S3 on again split or to S2 if h1, S3 if h2 }
  trans t3 { from S1 on e1, S2 on e2 join and to S3 }
}
""")
    assert model_index(model).or_feeds["t3"] == [("t1", {0: (0,), 1: (1,)}), ("t2", {0: (1,)})]
    t3 = classify(model)[0][2]
    assert t3.kind == PatternKind.SYNCHRONIZE_MERGE
    assert t3.notes == ("inputs fed by or-split t1", "inputs fed by or-split t2")


def test_an_output_to_an_undeclared_state_feeds_by_its_own_path():
    """``classify`` and ``lint`` take models ``validate`` rejects: an or-split
    output to an undeclared X feeds an input from X, and the leaf descent
    stops at an initial child that is no child of its state."""
    g1, g2 = GuardExpr((("g1", False),)), GuardExpr((("g2", False),))
    model = ProcessModel(
        states=(StateNode("C", "C", children=(StateNode("a", "C.a"),), initial_child="C.b"),),
        transitions=(
            TransitionDecl("t1", (InBranch("alpha", "go"),), (OutBranch("X", g1), OutBranch("C", g2)), split_kind="or"),
            TransitionDecl("t2", (InBranch("X", "e1"), InBranch("C.a", "e2")), (OutBranch("Beta"),), join_kind="and"),
        ),
    )
    assert {d.code for d in validate(model)} == {"BadInitialChild", "UnresolvedEndpoint"}
    assert model_index(model).or_feeds == {"t2": [("t1", {0: (0,)})]}
    assert classify(model)[0][1].notes == ("inputs fed by or-split t1",)
    assert [(d.code, d.location) for d in lint(model)] == [("UnreachableState", "C.a")]
    # an initial child naming its own state ends the descent too
    looped = ProcessModel(
        states=(dataclasses.replace(model.states[0], initial_child="C"),),
        transitions=model.transitions,
    )
    assert model_index(looped).or_feeds == model_index(model).or_feeds
    assert classify(looped)[0] == classify(model)[0]


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


@pytest.mark.parametrize("join,split", JOIN_SPLITS)
def test_lint_join_with_split(join, split):
    model = join_split_model(join, split)
    assert validate(model) == []
    flagged = [d for d in lint(model) if d.code == "JoinWithSplit"]
    assert [(d.location, d.severity) for d in flagged] == [("t1", "warning")]


def _reference_corpus(generated_models):
    yield from ((name, parse_dsl(text)) for name, text in FIXTURE_DSL.items())
    yield from ((f"generated {i}", model) for i, model in enumerate(generated_models))
    for join, split in JOIN_SPLITS:
        yield f"join {join} split {split}", join_split_model(join, split)


def test_pattern_decision_matches_reference(generated_models):
    """classify, canonical_form and lint read the model index and agree
    with the earlier per-module decisions, but for the traces of an
    or-split; the one new finding is JoinWithSplit, on exactly the
    transitions that join and split.

    An or-split's traces are now one per strict row, every guard subset
    under every consumed set, where the earlier decision kept each guarded
    output alone and then every output: each of those is still among them.
    """
    for name, model in _reference_corpus(generated_models):
        instances, _ = classify(model)
        assert instances == patterns_reference.classify(model), name
        got, want = canonical_form(model), patterns_reference.canonical_form(model)
        for tid, sig in want["transitions"].items():
            if sig[2] == "or":
                traces = got["transitions"][tid][-1]
                assert set(sig[-1]) <= set(traces), (name, tid)
                want["transitions"][tid] = (*sig[:-1], traces)
        assert got == want, name
        found = lint(model)
        assert [d for d in found if d.code != "JoinWithSplit"] == patterns_reference.lint(model), name
        both = [t.id for t in model.transitions if t.join_kind != "none" and t.split_kind != "none"]
        assert [d.location for d in found if d.code == "JoinWithSplit"] == both, name


def test_canonical_traces_are_the_strict_then_traces(fixtures):
    """canonical_form carries, per transition, the action trace of each of
    its strict rows, in the order the strict text lists them: an or-split
    with three guarded outputs has seven."""
    joins = [join_split_model(j, s, v) for v in JOIN_SPLIT_VARIANTS for j, s in JOIN_SPLITS]
    # an or-split with one unguarded and one guarded output has one row
    mandatory = parse_dsl("""\
process "mandatory" {
  state S1 state S2
  trans t1 { from alpha on go split or to S1 do a1, S2 if g1 and not g2 do a2 }
}
""")
    widths = set()
    for model in [*fixtures.values(), *joins, mandatory, *_rungs()]:
        states = namespaces(model)["state"]
        want: dict[str, list] = {t.id: [] for t in model.transitions}
        for scenario in emit_feature(model, "strict").scenarios:
            # THEN is the trace, when there is one, then one state per fired output
            first = scenario.then[0].actions
            want[scenario.name.split()[1]].append(() if first[0] in states else first)
        got = canonical_form(model)["transitions"]
        assert {tid: list(sig[-1]) for tid, sig in got.items()} == want, model.title
        widths.update(sum(b.guard is not None for b in t.outputs) for t in model.transitions if t.split_kind == "or")
    assert {1, 2, 3} <= widths


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
    for seed in range(25):
        model = random_model(seed + 1000)
        instances, _ = classify(model)
        assert len(instances) == len(model.transitions)
        renamed = _rename_model(model, lambda s: f"r{s}")
        after, _ = classify(renamed)
        assert [i.kind for i in instances] == [i.kind for i in after]


# ---------------------------------------------------------------------------
# Reachability: the worklist against the earlier whole-model fixpoint
# ---------------------------------------------------------------------------


def reference_reachable_paths(model):
    """The earlier fixpoint: rescan every transition until nothing changes,
    marking each target that is not yet reached."""
    nodes = model_index(model).nodes
    reached = set()

    def mark(path):
        if is_pseudostate(model, path):
            reached.add(path)
            return
        reached.update(chain(path))
        node = nodes.get(path)
        while node is not None and node.composite and node.initial_child:
            reached.add(node.initial_child)
            node = nodes.get(node.initial_child)

    mark(model.initial_name)
    changed = True
    while changed:
        changed = False
        for t in model.transitions:
            if any(b.source in reached for b in t.inputs):
                for b in t.outputs:
                    if b.target not in reached:
                        mark(b.target)
                        changed = True
    return reached


# An and-join whose second input is never reached still marks its target
# (the documented over-approximation), a composite is entered through its
# default child, Beta is a target, and an island of two states is never
# reached.
REACH_CASES = """\
process "reach" {
  state S1
  state S2
  state S3
  state J
  state P {
    initial P.A
    state P.A {
      initial P.A.x
      state P.A.x
      state P.A.y
    }
    state P.B
  }
  state I1
  state I2
  trans t1 { from alpha on go to S1 }
  trans t2 { from S1 on e2, S2 on e3 join and to J }
  trans t3 { from J on e4 to P }
  trans t4 { from P.A.x on e5 to P.B }
  trans t5 { from P.B on e6 to Beta }
  trans t6 { from I1 on e7 to I2 }
  trans t7 { from I2 on e8 to S3 }
}
"""


def test_reachable_paths_hand_built_cases():
    model = parse_dsl(REACH_CASES)
    reached = _reachable_paths(model)
    assert reached == reference_reachable_paths(model)
    assert reached == {"alpha", "S1", "J", "P", "P.A", "P.A.x", "P.B", "Beta"}
    flagged = [d.location for d in lint(model) if d.code == "UnreachableState"]
    assert flagged == ["S2", "S3", "P.A.y", "I1", "I2"]


def _rungs():
    for n, seeds in ((10, 40), (40, 20), (160, 5)):
        for seed in range(seeds):
            yield random_model(seed, GeneratorLimits(n + 2, n))


def test_reachable_paths_match_fixpoint(fixtures):
    for model in [*fixtures.values(), *_rungs()]:
        assert _reachable_paths(model) == reference_reachable_paths(model)
    assert "S5" not in _reachable_paths(fixtures["m9"])


def test_reachable_paths_enter_a_composite_reached_as_an_ancestor():
    # t1 reaches P only as the parent of P.B; t2 then enters P itself, so
    # its default child P.A is reached too.  The fixpoint skipped a target
    # that was already reached, so it found P.A only when t2 came first.
    later = """\
process "p" {
  state P {
    initial P.A
    state P.A
    state P.B
  }
  trans t1 { from alpha on e1 to P.B }
  trans t2 { from alpha on e2 to P }
}
"""
    want = {"alpha", "P", "P.A", "P.B"}
    model = parse_dsl(later)
    assert _reachable_paths(model) == want
    assert reference_reachable_paths(model) == want - {"P.A"}
    reordered = ProcessModel(states=model.states, transitions=model.transitions[::-1])
    assert _reachable_paths(reordered) == reference_reachable_paths(reordered) == want
    assert "UnreachableState" not in [d.code for d in lint(model)]
