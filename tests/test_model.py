"""Core model invariants: validation, resolution, configurations."""

import dataclasses
import gc
import json
import os
import subprocess
import sys
import weakref

import pytest

from flowspec import model as m
from flowspec.emit import emit_feature
from flowspec.errors import UnknownState
from flowspec.generator import GeneratorLimits, random_model
from flowspec.model import (
    Configuration,
    InBranch,
    OutBranch,
    ProcessModel,
    StateNode,
    TransitionDecl,
    guard,
    initial_configuration,
    resolve,
    validate,
)
from flowspec.replay import check_suite


def simple(name, path=None, **kw):
    return StateNode(name=name, path=path or name, **kw)


def test_is_ident_accepts_tokens_and_paths():
    for good in ("S1", "ev11", "a_1", "S6.1", "Beta", "x.y.z", "1"):
        assert m.is_ident(good)
    for bad in ("", "S 1", ".S1", "S1.", "S..1", "a-b", "é", "S1\n", "S6.1\n"):
        assert not m.is_ident(bad)


def test_duplicate_sibling_states_reported(m1):
    bad = ProcessModel(
        title="dup",
        states=(simple("S1"), simple("S1")),
    )
    codes = [d.code for d in validate(bad)]
    assert "DuplicateStateName" in codes


def test_unresolved_endpoint_reported():
    bad = ProcessModel(
        title="bad",
        states=(simple("S1"),),
        transitions=(
            TransitionDecl(
                id="t1",
                inputs=(InBranch("S1", "ev1"),),
                outputs=(OutBranch("SX"),),
            ),
        ),
    )
    codes = [d.code for d in validate(bad)]
    assert codes.count("UnresolvedEndpoint") == 1


def test_fixture_m9_validates_clean(m9):
    assert validate(m9) == []


def test_all_fixtures_validate_clean(fixtures):
    for name, model in fixtures.items():
        assert validate(model) == [], name


def test_validate_reports_every_violation_not_only_first():
    bad = ProcessModel(
        title="multi",
        states=(simple("S1"), simple("S1")),
        transitions=(
            TransitionDecl(
                id="t1",
                inputs=(InBranch("S1"), InBranch("SX")),
                outputs=(OutBranch("SY"),),
            ),
        ),
    )
    codes = [d.code for d in validate(bad)]
    assert "DuplicateStateName" in codes
    assert "UnresolvedEndpoint" in codes
    assert "JoinKindRequired" in codes


def test_validate_is_order_stable(m9):
    assert validate(m9) == validate(m9)


def test_namespace_collision_reported():
    bad = ProcessModel(
        states=(simple("S1"), simple("S2")),
        transitions=(
            TransitionDecl(
                id="t1",
                inputs=(InBranch("S1", event="S2"),),
                outputs=(OutBranch("S2"),),
            ),
        ),
    )
    codes = [d.code for d in validate(bad)]
    assert "NamespaceCollision" in codes


@pytest.mark.parametrize("kind", ["state", "event", "guard", "action"])
def test_completion_event_is_reserved(kind):
    name = m.COMPLETION_EVENT
    states = (simple("S1"), simple(name if kind == "state" else "S2"))
    bad = ProcessModel(
        states=states,
        transitions=(
            TransitionDecl(
                id="t1",
                inputs=(InBranch("S1", event=name if kind == "event" else "e1"),),
                outputs=(
                    OutBranch(
                        states[1].path,
                        guard=guard(name) if kind == "guard" else None,
                        actions=(name,) if kind == "action" else (),
                    ),
                ),
            ),
        ),
    )
    reserved = [d for d in validate(bad) if d.code == "ReservedName"]
    assert [(d.location, d.message.split()[0]) for d in reserved] == [(name, kind)]


@pytest.mark.parametrize("kind", ["state", "event", "guard", "action"])
def test_trailing_newline_name_is_a_bad_ident(kind):
    name = "x1\n"
    states = (simple("S1"), simple(name if kind == "state" else "S2"))
    bad = ProcessModel(
        states=states,
        transitions=(
            TransitionDecl(
                id="t1",
                inputs=(InBranch("S1", event=name if kind == "event" else "e1"),),
                outputs=(
                    OutBranch(
                        states[1].path,
                        guard=guard(name) if kind == "guard" else None,
                        actions=(name,) if kind == "action" else (),
                    ),
                ),
            ),
        ),
    )
    assert [d.location for d in validate(bad) if d.code == "BadIdent"] == [
        name if kind == "state" else "t1"
    ]


def _join_model(*sources, join_kind="and"):
    composite = StateNode(
        name="C",
        path="C",
        children=(simple("a", "C.a"), simple("b", "C.b")),
        initial_child="C.a",
    )
    return ProcessModel(
        states=(simple("S1"), composite),
        transitions=(
            TransitionDecl(
                id="t1",
                inputs=tuple(InBranch(src) for src in sources),
                outputs=(OutBranch("S1"),),
                join_kind=join_kind,
            ),
        ),
    )


def test_and_join_over_sibling_children_is_unsatisfiable():
    report = validate(_join_model("S1", "C.a", "C.b"))
    assert [(d.code, d.location) for d in report] == [("UnsatisfiableJoin", "t1")]
    assert "C.a and C.b" in report[0].message
    # inputs that can be active together, or a join that needs only one input
    assert validate(_join_model("S1", "C.a")) == []
    assert validate(_join_model("C", "C.b")) == []
    assert validate(_join_model("C.a", "C.b", join_kind="xor")) == []


@pytest.mark.parametrize(
    "join_kind, runs, coverage, second_event",
    [
        ("and", False, 0.5, "e2"),
        ("or", False, 0.5, "e2"),
        ("xor", True, 1.0, "e2"),
        ("multi", True, 1.0, "e2"),
        ("xor", False, 1.0, "e1"),
        ("multi", False, 0.5, "e1"),
    ],
    ids=["and-False", "or-False", "xor-True", "multi-True", "xor-same-event", "multi-same-event"],
)
def test_join_listing_one_source_twice(join_kind, runs, coverage, second_event):
    # an and- or or-join over S1 twice waits for two tokens on S1, which only
    # a multi-join target may hold; xor and multi fire on one input, unless
    # both copies wait for the same event: then one token enables both, xor
    # always fires the first (every row runs, the second with the wrong
    # action) and multi fires both in conflict
    model = ProcessModel(
        states=(simple("S1"), simple("S2")),
        transitions=(
            TransitionDecl(id="t0", inputs=(InBranch("alpha", "go"),), outputs=(OutBranch("S1"),)),
            TransitionDecl(
                id="t1",
                inputs=(InBranch("S1", "e1", ("a1",)), InBranch("S1", second_event, ("a2",))),
                outputs=(OutBranch("S2"),),
                join_kind=join_kind,
            ),
        ),
    )
    report = check_suite(model, emit_feature(model, "strict"), "strict")
    assert (report.passed, report.coverage) == (runs, coverage)
    expected = [] if runs else [("UnsatisfiableJoin", "t1")]
    assert [(d.code, d.location) for d in validate(model)] == expected


def test_or_join_over_sibling_children_is_unsatisfiable():
    # its strict row seeds every input at once, which no configuration holds
    report = validate(_join_model("C.a", "C.b", join_kind="or"))
    assert [(d.code, d.location) for d in report] == [("UnsatisfiableJoin", "t1")]
    assert report[0].message.startswith("or-join inputs C.a and C.b are different children")
    assert validate(_join_model("S1", "C.b", join_kind="or")) == []


def test_unsatisfiable_join_reported_beside_unresolved_endpoints():
    report = validate(_join_model("C.x", "C.y"))
    assert [d.code for d in report] == [
        "UnsatisfiableJoin",
        "UnresolvedEndpoint",
        "UnresolvedEndpoint",
    ]


def test_reversed_sibling_join_with_done_action_is_rejected():
    from flowspec.feature import parse_feature
    from flowspec.infer import infer_model

    doc = parse_feature(
        "# flowspec: mode=strict\n"
        "Feature: found\n\n"
        "Scenario: Synchronization t1\n"
        "Given ev1 AND S1.y AND S1.x\n"
        "When _done\n"
        "Then S3; _done; g1\n"
    )
    model, diags = infer_model(doc)
    errors = {(d.code, d.location) for d in diags if d.severity == "error"}
    # the THEN's _done is reported at its scenario and made no action
    assert errors == {("UnsatisfiableJoin", "t1"), ("ReservedName", "Synchronization t1")}
    assert model.transitions[0].shared_actions == ("S3", "g1")


def test_namespaces_disjoint_in_valid_models(fixtures):
    for model in fixtures.values():
        spaces = list(m.namespaces(model).values())
        for i, a in enumerate(spaces):
            for b in spaces[i + 1 :]:
                assert not (a & b)


# Test-local copies of the four per-space walks ``ModelIndex.spaces`` replaced.


def _state_paths(model):
    return {node.path for node in m.iter_states(model)}


def _event_names(model):
    names = set()
    for t in model.transitions:
        if t.shared_event:
            names.add(t.shared_event)
        for b in t.inputs:
            if b.event:
                names.add(b.event)
    return names


def _guard_atoms(model):
    atoms = set()
    for t in model.transitions:
        if t.shared_guard:
            atoms.update(t.shared_guard.atoms())
        for b in t.outputs:
            if b.guard:
                atoms.update(b.guard.atoms())
    return atoms


def _action_names(model):
    names = set()
    for node in m.iter_states(model):
        names.update(node.entry_actions)
        names.update(node.exit_actions)
    for t in model.transitions:
        names.update(t.shared_actions)
        for b in t.inputs:
            names.update(b.actions)
        for b in t.outputs:
            names.update(b.actions)
    return names


def test_namespaces_match_one_walk_per_space(fixtures):
    models = [*fixtures.values(), *(random_model(seed) for seed in range(40))]
    models += [
        random_model(seed, GeneratorLimits(n + 2, n))
        for n, seeds in ((80, 30), (160, 8))
        for seed in range(seeds)
    ]
    # a path declared twice, with different actions on each declaration
    models.append(ProcessModel(states=(simple("S", entry_actions=("a1",)), simple("S", exit_actions=("a2",)))))
    for model in models:
        want = {
            "state": _state_paths(model) | {model.initial_name, model.final_name},
            "event": _event_names(model),
            "guard": _guard_atoms(model),
            "action": _action_names(model),
        }
        spaces = m.namespaces(model)
        assert list(spaces) == ["state", "event", "guard", "action"]
        assert spaces == want, model.title


def test_a_state_declared_twice_keeps_the_rules_on_both_declarations():
    bad = ProcessModel(states=(simple("S", entry_actions=("_done", "a.b")), simple("S")))
    assert [(d.code, d.location) for d in validate(bad)] == [
        ("DuplicateStateName", "S"),
        ("BadIdent", "S"),
        ("ReservedName", "_done"),
    ]


def test_split_kind_rules():
    base = dict(
        states=(simple("S1"), simple("S2"), simple("S3")),
    )
    or_no_guard = ProcessModel(
        **base,
        transitions=(
            TransitionDecl(
                id="t1",
                inputs=(InBranch("S1", "ev1"),),
                outputs=(OutBranch("S2"), OutBranch("S3")),
                split_kind="or",
            ),
        ),
    )
    assert "OrSplitNeedsGuardedOutput" in [d.code for d in validate(or_no_guard)]
    and_guarded = ProcessModel(
        **base,
        transitions=(
            TransitionDecl(
                id="t1",
                inputs=(InBranch("S1", "ev1"),),
                outputs=(OutBranch("S2", guard=guard("g1")), OutBranch("S3")),
                split_kind="and",
            ),
        ),
    )
    assert "AndSplitForbidsGuards" in [d.code for d in validate(and_guarded)]


def _one_rule_model(states=(), transitions=()):
    """S1, then each of ``states``; t0 enters S1 from alpha, then each of
    ``transitions``."""
    return ProcessModel(
        states=(simple("S1"), *states),
        transitions=(TransitionDecl("t0", (InBranch("alpha", "go"),), (OutBranch("S1"),)), *transitions),
    )


def _t1(inputs=(InBranch("S1", "e1"),), outputs=(OutBranch("Beta"),), **kw):
    return TransitionDecl("t1", inputs, outputs, **kw)


VALIDATE_RULES = [
    (
        # no transition: one from X would also leave the final pseudostate
        ProcessModel(initial_name="X", final_name="X", states=(simple("S1"),)),
        [("ReservedName", "X", "initial and final names collide")],
    ),
    (
        _one_rule_model(states=(simple("alpha"),)),
        [("ReservedName", "alpha", "state shadows a pseudostate")],
    ),
    (
        # two siblings of one name share a path (a path off its name is BadChildPath)
        _one_rule_model(
            states=(StateNode("C", "C", children=(simple("a", "C.a"), simple("a", "C.a")), initial_child="C.a"),)
        ),
        [("DuplicateStateName", "C.a", "duplicate state path")],
    ),
    (
        _one_rule_model(states=(StateNode("C", "C", children=(simple("a"),), initial_child="a"),)),
        [("BadChildPath", "a", "child a of C is not at C.a")],
    ),
    (
        _one_rule_model(states=(StateNode("C", "C", children=(simple("a", "C.a"),)),)),
        [("MissingInitialChild", "C", "composite lacks an initial child")],
    ),
    (
        _one_rule_model(states=(simple("S2", initial_child="S2"),)),
        [("BadInitialChild", "S2", "simple state declares an initial child")],
    ),
    (
        _one_rule_model(transitions=(_t1(outputs=(OutBranch("Beta", m.GuardExpr(())),)),)),
        [("EmptyGuard", "t1", "guard has no literals")],
    ),
    (
        _one_rule_model(transitions=(_t1(), _t1())),
        [("DuplicateTransitionId", "t1", "duplicate transition id")],
    ),
    (
        _one_rule_model(transitions=(_t1(join_kind="all", split_kind="any"),)),
        [("BadKind", "t1", "unknown join kind 'all'"), ("BadKind", "t1", "unknown split kind 'any'")],
    ),
    (
        _one_rule_model(transitions=(_t1(inputs=()),)),
        [("EmptyInputs", "t1", "transition has no inputs")],
    ),
    (
        _one_rule_model(transitions=(_t1(outputs=()),)),
        [("EmptyOutputs", "t1", "transition has no outputs")],
    ),
    (
        _one_rule_model(transitions=(_t1(outputs=(OutBranch("S1"), OutBranch("Beta"))),)),
        [("SplitKindRequired", "t1", "multiple outputs need a split kind")],
    ),
]


@pytest.mark.parametrize("model, expected", VALIDATE_RULES, ids=[rows[0][0] for _, rows in VALIDATE_RULES])
def test_validate_reports_each_rule_alone(model, expected):
    assert [(d.code, d.location, d.message) for d in validate(model)] == expected


def test_a_sibling_of_a_taken_name_off_its_path_is_reported_once():
    # the second "a" is off its parent's path; that is its only fault
    model = _one_rule_model(
        states=(StateNode("P", "P", children=(simple("a", "P.a"), simple("a", "Q.a")), initial_child="P.a"),)
    )
    assert [(d.code, d.location) for d in validate(model)] == [("BadChildPath", "Q.a")]


def test_rule_models_differ_from_a_clean_one_by_one_rule():
    assert validate(_one_rule_model(transitions=(_t1(),))) == []


def test_resolve_nested_child(m9):
    node = resolve(m9, "S6.1")
    assert isinstance(node, StateNode)
    assert node.name == "S6.1".split(".")[-1]
    parent = resolve(m9, "S6")
    assert parent.children[0] is node
    assert parent.initial_child == "S6.1"


def test_resolve_pseudostates(m9):
    assert resolve(m9, "alpha").kind == "initial"
    assert resolve(m9, "Beta").kind == "final"


def test_resolve_unknown_state(m9):
    with pytest.raises(UnknownState):
        resolve(m9, "S6.9")


def test_resolve_is_left_inverse_of_paths(fixtures):
    for model in fixtures.values():
        for node in m.iter_states(model):
            assert resolve(model, node.path) is node


def test_initial_configuration(m9, m1):
    assert initial_configuration(m9) == Configuration.of("alpha")
    assert initial_configuration(m1) == Configuration.of("alpha")


def test_initial_configuration_renamed():
    model = ProcessModel(initial_name="start", states=(simple("S1"),))
    assert initial_configuration(model) == Configuration.of("start")


def test_guard_expr_semantics():
    g = guard("g1", ("g2", True))
    assert g.holds({"g1": True})
    assert g.holds({"g1": True, "g2": False})
    assert not g.holds({"g1": True, "g2": True})
    assert not g.holds({})
    assert g.render() == "g1 and not g2"


LEGAL_CONFIGURATION_RULES = [
    ("m9", (("S6.1", 1),), None),
    ("m9", (("S2", 1), ("S3", 1)), None),
    ("m9", (("S9", 1),), "unknown state S9"),
    ("m9", (("S2", 0),), "nonpositive count on S2"),
    # two children of the same composite cannot both be active
    ("m9", (("S6.1", 1), ("S6.2", 1)), "two active children of S6: S6.1 and S6.2"),
    # token counts above one only on multi-join targets
    ("m8", (("S4", 2),), None),
    ("m8", (("S1", 2),), "count 2 on S1 which is not a multi-join target"),
]


def test_legal_configuration_rules(fixtures):
    for name, entries, reason in LEGAL_CONFIGURATION_RULES:
        assert m.legal_configuration(fixtures[name], Configuration(entries)) == reason, entries


@pytest.mark.parametrize(
    "path, leaf", [("alpha", "alpha"), ("Beta", "Beta"), ("S6", "S6.1"), ("S6.2", "S6.2"), ("S9", None)]
)
def test_leaf_path_rules(m9, path, leaf):
    if leaf is None:
        with pytest.raises(UnknownState, match="S9"):
            m.leaf_path(m9, path)
    else:
        assert m.leaf_path(m9, path) == leaf


# Models whose C.D names as its initial child itself, an ancestor, a state
# that is no child of it, or an undeclared path; every default-child descent
# stops at C.D.  Each library call runs in a child process, so a descent that
# never ends fails the test at the timeout instead of hanging the run.
ODD_INITIAL_CHILD_RUN = """
import json, sys
from flowspec import canon, emit, model as m, patterns, replay
from flowspec.errors import FlowspecError
from flowspec.model import InBranch, OutBranch, ProcessModel, StateNode, TransitionDecl

def odd_model(initial):
    d = StateNode("D", "C.D", ("ed",), children=(StateNode("a", "C.D.a", ("ea",)),), initial_child=initial)
    return ProcessModel(
        states=(StateNode("C", "C", ("ec",), children=(d,), initial_child="C.D"), StateNode("S", "S")),
        transitions=(
            TransitionDecl("t1", (InBranch("alpha", "go"),), (OutBranch("C"),)),
            TransitionDecl("t2", (InBranch("C.D.a", "e2"),), (OutBranch("S"),)),
        ),
    )

out = {}
for initial in sys.argv[1:]:
    model = odd_model(initial)
    calls = {
        "leaf_path": lambda: m.leaf_path(model, "C"),
        "firing_plan": lambda: m.firing_plan(model, model.transitions[0]).leaves,
        "step": lambda: replay.step(model, m.initial_configuration(model), {"go"}, {}).after.entries,
        "explore": lambda: len(replay.explore(model, 2)),
        "lint": lambda: [(d.code, d.location) for d in patterns.lint(model)],
        "classify": lambda: [p.kind.value for p in patterns.classify(model)[0]],
        "strict": lambda: len(emit.emit_feature(model, "strict").scenarios),
        "paper_exact": lambda: len(emit.emit_feature(model, "paper_exact").scenarios),
        "canonical_form": lambda: bool(canon.canonical_form(model)),
    }
    for name, call in calls.items():
        try:
            out[f"{initial} {name}"] = call()
        except FlowspecError as exc:
            out[f"{initial} {name}"] = type(exc).__name__
print(json.dumps(out))
"""


def test_every_descent_ends_on_an_odd_initial_child():
    initials = ["C.D", "C", "S", "C.D.z"]
    proc = subprocess.run(
        [sys.executable, "-c", ODD_INITIAL_CHILD_RUN, *initials],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    expected = {
        "leaf_path": "C.D",
        "firing_plan": ["C.D"],
        "step": [["C.D", 1]],
        "explore": 1,
        "lint": [["UnreachableState", "C.D.a"], ["UnreachableState", "S"]],
        "classify": ["Sequence", "Sequence"],
        "strict": 2,
        "paper_exact": 2,
        "canonical_form": True,
    }
    assert json.loads(proc.stdout) == {f"{i} {name}": v for i in initials for name, v in expected.items()}


def test_firing_plan_orders_exits_then_actions_then_entries(m9):
    t2 = m9.transitions[1]
    plan = m.firing_plan(m9, t2)
    assert plan.exit_actions == ("a3", "a4")
    assert plan.trace == ("a3", "a4", "a5", "a6")
    assert plan.leaves == ("S2", "S3")

    t3 = m9.transitions[2]
    plan = m.firing_plan(m9, t3)
    assert plan.trace == ("a9",)
    assert plan.leaves == ("S6.1",)

    t1 = m9.transitions[0]
    plan = m.firing_plan(m9, t1)
    assert plan.trace == ("a1", "a2")
    assert plan.leaves == ("S1",)


# ---------------------------------------------------------------------------
# Model index lifetime
# ---------------------------------------------------------------------------


def test_check_suite_builds_one_index(monkeypatch, m9):
    doc = emit_feature(m9, "strict")
    model = dataclasses.replace(m9)  # equal to m9, but a new object
    built = []
    init = m.ModelIndex.__init__

    def counting_init(self, model):
        built.append(model)
        init(self, model)

    monkeypatch.setattr(m.ModelIndex, "__init__", counting_init)
    assert check_suite(model, doc, "strict").passed
    assert len(built) == 1 and built[0] is model


def test_replaced_model_gets_its_own_index(m9):
    assert check_suite(m9, emit_feature(m9, "strict"), "strict").passed
    s6 = resolve(m9, "S6")
    states = tuple(
        dataclasses.replace(s6, initial_child="S6.2") if s is s6 else s for s in m9.states
    )
    changed = dataclasses.replace(m9, states=states)
    assert m.leaf_path(changed, "S6") == "S6.2"
    assert m.firing_plan(changed, changed.transitions[2]).leaves == ("S6.2",)
    assert check_suite(changed, emit_feature(changed, "strict"), "strict").passed
    assert m.leaf_path(m9, "S6") == "S6.1"


def test_index_does_not_keep_a_model_alive(m1):
    class Probe(m.ProcessModel):  # no __slots__ of its own, so it takes weak references
        pass

    fields = [getattr(m1, f.name) for f in dataclasses.fields(m1)]
    a, b = Probe(*fields), Probe(*fields)
    doc = emit_feature(m1, "strict")
    check_suite(a, doc, "strict")
    check_suite(b, doc, "strict")
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None
