"""Core model invariants: validation, resolution, configurations."""

import dataclasses
import gc
import weakref

import pytest

from flowspec import model as m
from flowspec.emit import emit_feature
from flowspec.errors import UnknownState
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
    for bad in ("", "S 1", ".S1", "S1.", "S..1", "a-b", "é"):
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
    _, diags = infer_model(doc)
    errors = {(d.code, d.location) for d in diags if d.severity == "error"}
    assert errors == {("UnsatisfiableJoin", "t1"), ("ReservedName", "_done")}


def test_namespaces_disjoint_in_valid_models(fixtures):
    for model in fixtures.values():
        spaces = list(m.namespaces(model).values())
        for i, a in enumerate(spaces):
            for b in spaces[i + 1 :]:
                assert not (a & b)


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


def test_legal_configuration_rules(m9, m8):
    assert m.legal_configuration(m9, Configuration.of("S6.1")) is None
    assert m.legal_configuration(m9, Configuration.of("S2", "S3")) is None
    # two children of the same composite cannot both be active
    assert m.legal_configuration(m9, Configuration.of("S6.1", "S6.2")) is not None
    # token counts above one only on multi-join targets
    assert m.legal_configuration(m8, Configuration.of("S4", "S4")) is None
    assert m.legal_configuration(m8, Configuration.of("S1", "S1")) is not None


def test_firing_plan_orders_exits_then_actions_then_entries(m9):
    t2 = m9.transitions[1]
    plan = m.firing_plan(m9, t2)
    assert plan.exit_actions == ("a3", "a4")
    assert plan.trace() == ["a3", "a4", "a5", "a6"]
    assert plan.result_leaves() == ["S2", "S3"]

    t3 = m9.transitions[2]
    plan = m.firing_plan(m9, t3)
    assert plan.trace() == ["a9"]
    assert plan.result_leaves() == ["S6.1"]

    t1 = m9.transitions[0]
    plan = m.firing_plan(m9, t1)
    assert plan.trace() == ["a1", "a2"]
    assert plan.result_leaves() == ["S1"]


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
    assert m.firing_plan(changed, changed.transitions[2]).result_leaves() == ["S6.2"]
    assert check_suite(changed, emit_feature(changed, "strict"), "strict").passed
    assert m.leaf_path(m9, "S6") == "S6.1"


def test_index_does_not_keep_a_model_alive(m1):
    a, b = dataclasses.replace(m1), dataclasses.replace(m1)
    doc = emit_feature(m1, "strict")
    check_suite(a, doc, "strict")
    check_suite(b, doc, "strict")
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None
