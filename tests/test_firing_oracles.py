"""Differential tests for the firing geometry and the enabling rule.

``model.firing_plan`` states its exits and entries as containment rules,
``replay.firings_for`` classifies each input once as active or ready, and
``replay._offers`` reads a configuration's view.  The reference copies below
compute the same results the earlier way, with chain depths
(``_common_depth``), one input scan per join kind (``_input_satisfied``) and
the stimuli from candidates and token counts (``reference_offers``), and
every result is compared with them.  ``reference_match_or_split`` is the
or-join match as replay found it before ``ModelIndex.or_feeds``, by a scan
of every or-split at each call.  The reference fires an and-join that an
or-split feeds (``reference_or_fed``) by the or-join rule, as the
synchronizing merge (WCP-7) that ``ModelIndex.patterns`` calls it; needing
every input of such a join deadlocked m7 (test_replay.py,
``test_or_fed_and_join_synchronizes_what_the_or_split_fired``).
``model.iter_states`` and
``patterns._reachable_paths`` are compared the same way with the recursive
walk and the leaf-chain worklist they replaced, and ``explore``'s explicit
stack with the recursive walk it replaced.
"""

import dataclasses
import gc
import types
from types import SimpleNamespace

import pytest

from flowspec.dsl import parse_dsl
from flowspec.errors import NondeterminismConflict, UnknownState
from flowspec.generator import random_model
from flowspec.model import (
    Configuration,
    FiringPlan,
    InBranch,
    OutBranch,
    OutputPlan,
    chain,
    firing_plan,
    initial_configuration,
    is_pseudostate,
    leaf_path,
    iter_states,
    model_index,
    nonempty_subsets,
    validate,
)
from flowspec.patterns import _reachable_paths
from flowspec.replay import (
    ExploreStep,
    Firing,
    StepResult,
    _offers,
    _step,
    _view,
    explore,
    firings_for,
)

from conftest import OR_FED_JOINS, or_fed_join_model


def _stimuli(model, config):
    """The (events, valuation) pairs ``explore`` offers at ``config``."""
    return list(_offers(_view(model, config)[1]).values())


# Entry and exit actions on every level, and a move of each kind: child to
# sibling (t2), child to parent boundary (t3), parent to child (t4), simple
# and composite self-loops (t5, t9), into Beta (t6), an and-join from two
# depths (t7) and an and-split that enters P once for two targets (t8).
# An xor-join with both inputs ready on one event (t10) and an or-join that
# no or-split feeds (t11) exercise the enabling rule.
THREE_LEVELS = """\
process "Three levels" {
  state P {
    entry p_in
    exit p_out
    initial P.A
    state P.A {
      entry a_in
      exit a_out
      initial P.A.x
      state P.A.x {
        entry x_in
        exit x_out
      }
      state P.A.y {
        entry y_in
        exit y_out
      }
    }
    state P.B {
      entry b_in
      exit b_out
    }
  }
  state Q {
    entry q_in
    exit q_out
  }
  state R
  trans t1 { from alpha on go split and to P, Q }
  trans t2 { from P.A.x on sib do m2 to P.A.y }
  trans t3 { from P.A.y on up do m3 to P.A }
  trans t4 { from P.A on down do m4 to P.A.y }
  trans t5 { from P.B on again do m5 to P.B }
  trans t6 { from P.A.x on out do m6 to Beta }
  trans t7 { from P.A.y on e7 do m7a, Q on e8 do m7b join and do m7 to R }
  trans t8 { from R on back split and to P.A.x do m8a, P.B do m8b }
  trans t9 { from P.A on redo to P.A }
  trans t10 { from P.A.y on e9 do m10a, Q on e9 do m10b join xor to R }
  trans t11 { from P.A.y on e11, Q on e12 join or do m11 to R }
}
"""


@pytest.fixture(scope="module")
def three_levels():
    model = parse_dsl(THREE_LEVELS)
    assert validate(model) == []
    return model


# A move from a default child to its parent (t2) leaves the child and enters
# it again as a default descendant; from the other child (t3) only the
# default child is entered.
RE_ENTRY = """\
process "Re-entry" {
  state A {
    entry ea
    exit xa
    initial A.x
    state A.x {
      entry ex
      exit xx
    }
    state A.y
  }
  trans t1 { from alpha to A }
  trans t2 { from A.x on e to A }
  trans t3 { from A.y on f to A }
}
"""


@pytest.fixture(scope="module")
def re_entry():
    model = parse_dsl(RE_ENTRY)
    assert validate(model) == []
    return model


def _models(fixtures, three_levels, re_entry):
    return [
        *fixtures.values(),
        *(random_model(seed) for seed in range(40)),
        three_levels,
        re_entry,
        *(or_fed_join_model(join, target) for join, target in OR_FED_JOINS),
    ]


# ---------------------------------------------------------------------------
# Geometry: the chain-depth firing_plan
# ---------------------------------------------------------------------------


def _common_depth(a, b):
    ca, cb = chain(a), chain(b)
    depth = 0
    for xa, xb in zip(ca, cb):
        if xa != xb:
            break
        depth += 1
    return depth


def reference_firing_plan(model, transition, consumed=None, fired_outputs=None):
    index = model_index(model)
    nodes = index.nodes
    if consumed is None:
        consumed = transition.inputs
    if fired_outputs is None:
        fired_outputs = tuple(range(len(transition.outputs)))
    targets = [transition.outputs[i].target for i in fired_outputs]

    exited, exit_actions = [], []
    for branch in consumed:
        src = branch.source
        if is_pseudostate(model, src):
            continue
        keep = min((_common_depth(src, t) for t in targets), default=0)
        for path in reversed(chain(src)[keep:]):
            if path in exited:
                continue
            exited.append(path)
            node = nodes.get(path)
            if node is not None:
                exit_actions.extend(node.exit_actions)

    input_actions = [a for branch in consumed for a in branch.actions]

    entered_all, outputs = set(), []
    sources = [b.source for b in consumed]
    for i in fired_outputs:
        branch = transition.outputs[i]
        target = branch.target
        if is_pseudostate(model, target):
            outputs.append((branch, (), target))
            continue
        keep = max((_common_depth(target, s) for s in sources), default=0)
        entered = [p for p in chain(target)[keep:] if p not in entered_all]
        leaf = index.leaf(target)
        for p in chain(leaf):
            if len(p) > len(target) and p.startswith(target + ".") and p not in entered_all:
                if p not in entered:
                    entered.append(p)
        entry_actions = []
        for p in entered:
            node = nodes.get(p)
            if node is not None:
                entry_actions.extend(node.entry_actions)
            entered_all.add(p)
        outputs.append((branch, tuple(entry_actions), leaf))

    actions = tuple(input_actions) + tuple(transition.shared_actions)
    trace = [*exit_actions, *actions]
    for branch, entry_actions, _ in outputs:
        trace += [*branch.actions, *entry_actions]
    return SimpleNamespace(
        exit_actions=tuple(exit_actions),
        actions=actions,
        outputs=outputs,
        trace=tuple(trace),
        leaves=tuple(leaf for _, _, leaf in outputs),
    )


def assert_plans_match(model):
    """Compare every field on every consumed and fired subset, the empty
    ones and the defaults included: the exits, actions and outputs, and the
    trace and leaves that replay reads.  Returns the number of comparisons."""
    compared = 0
    for t in model.transitions:
        consumed_cases = [None, (), *nonempty_subsets(t.inputs)]
        fired_cases = [None, (), *nonempty_subsets(range(len(t.outputs)))]
        for consumed in consumed_cases:
            for fired in fired_cases:
                plan = firing_plan(model, t, consumed, fired)
                want = reference_firing_plan(model, t, consumed, fired)
                # records built at C speed are still the NamedTuples
                assert type(plan) is FiringPlan and plan == FiringPlan(*plan)
                assert all(type(o) is OutputPlan and o == OutputPlan(*o) for o in plan.outputs)
                got = [(o.branch, o.entry_actions, o.leaf) for o in plan.outputs]
                case = (t.id, consumed, fired)
                assert plan.exit_actions == want.exit_actions, case
                assert plan.actions == want.actions, case
                assert got == want.outputs, case
                assert plan.trace == want.trace, case
                assert plan.leaves == want.leaves, case
                compared += 1
    return compared


def test_firing_plan_matches_chain_depth_reference(
    fixtures, generated_models, three_levels, re_entry
):
    models = [*_models(fixtures, three_levels, re_entry), *generated_models]
    compared = sum(assert_plans_match(model) for model in models)
    assert compared > 1000


def test_default_descendant_is_entered_again_when_consumed(re_entry):
    t = {tr.id: tr for tr in re_entry.transitions}
    plan = firing_plan(re_entry, t["t2"])
    assert plan.trace == ("xx", "ex")
    assert plan.leaves == ("A.x",)
    assert firing_plan(re_entry, t["t3"]).trace == ("ex",)


def test_firing_plan_rejects_an_undeclared_source_or_target(m1):
    t1, t2 = m1.transitions  # alpha -> S1, S1 -> S2
    with pytest.raises(UnknownState, match="Ghost"):
        firing_plan(m1, t1, (InBranch("Ghost"),))
    with pytest.raises(UnknownState, match="Ghost"):
        firing_plan(m1, dataclasses.replace(t2, outputs=(OutBranch("Ghost"),)))
    with pytest.raises(UnknownState, match="S1.x"):
        firing_plan(m1, t2, (InBranch("S1.x"),))


def test_firing_plan_passes_over_pseudostate_ends(m1):
    t1, t2 = m1.transitions
    plan = firing_plan(m1, t1, (InBranch("alpha", "start", ("a0",)),))
    assert (plan.exit_actions, plan.actions, plan.leaves) == ((), ("a0",), ("S1",))
    into_final = dataclasses.replace(t2, outputs=(OutBranch("Beta", None, ("b0",)),))
    plan = firing_plan(m1, into_final, (InBranch("alpha"),))
    assert plan.outputs == (OutputPlan(into_final.outputs[0], (), "Beta"),)
    assert (plan.trace, plan.leaves) == (("b0",), ("Beta",))
    assert plan._replace(leaves=()) == FiringPlan(plan.exit_actions, plan.actions, plan.outputs, plan.trace, ())
    assert plan.outputs[0]._replace(leaf="S1").leaf == "S1"


# ---------------------------------------------------------------------------
# Hierarchy walks: the explicit-stack iter_states and the node-descending
# reachability worklist
# ---------------------------------------------------------------------------


def reference_iter_states(model):
    """The earlier recursive pre-order walk."""

    def walk(nodes):
        for node in nodes:
            yield node
            yield from walk(node.children)

    yield from walk(model.states)


def reference_worklist_reachable_paths(model):
    """The earlier worklist, which reached the chain of each target's leaf."""
    index = model_index(model)
    start = model.initial_name
    reached, marked, todo = {start}, {start}, [start]
    while todo:
        for i in index.by_source.get(todo.pop(), ()):
            for b in model.transitions[i].outputs:
                if b.target in marked:
                    continue
                marked.add(b.target)
                for p in chain(index.leaf(b.target)):
                    if p not in reached:
                        reached.add(p)
                        todo.append(p)
    return reached


def test_hierarchy_walks_match_references(fixtures, generated_models, three_levels, re_entry):
    models = [*_models(fixtures, three_levels, re_entry), *generated_models]
    assert max(len(m.transitions) for m in models) >= 60
    nested = 0
    for model in models:
        got, want = list(iter_states(model)), list(reference_iter_states(model))
        assert len(got) == len(want), model.title
        assert all(a is b for a, b in zip(got, want)), model.title
        assert _reachable_paths(model) == reference_worklist_reachable_paths(model), model.title
        nested += any(node.children for node in got)
    assert nested >= 10


# ---------------------------------------------------------------------------
# Firing plans belong to the exploration that uses them
# ---------------------------------------------------------------------------


def test_replaced_transition_is_not_served_the_original_plan(m9):
    t = m9.transitions[2]  # t3: from S5 on ev7 do a9 to S6
    assert firing_plan(m9, t).trace == ("a9",)
    changed = dataclasses.replace(t, shared_actions=("z",))
    assert firing_plan(m9, changed).trace == ("a9", "z")
    branch = dataclasses.replace(t.inputs[0], actions=("q",))
    assert firing_plan(m9, t, (branch,)).trace == ("q",)
    assert firing_plan(m9, t).trace == ("a9",)


_EXPLORE_RESULTS = (Configuration, ExploreStep, Firing, FiringPlan, OutputPlan, StepResult)


def _reachable(root):
    """Every object reachable from ``root`` through ``gc.get_referents``,
    not descending into classes or modules."""
    seen, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen[id(obj)] = obj
        todo.extend(gc.get_referents(obj))
    return seen.values()


def test_explore_leaves_nothing_on_the_model_index(fixtures, three_levels):
    for model in [*fixtures.values(), three_levels]:
        runs = explore(model, 4)
        assert runs
        index = model_index(model)
        assert index.model is model
        left = [o for o in _reachable(index.__dict__) if isinstance(o, _EXPLORE_RESULTS)]
        assert left == [], left[:3]


def test_three_level_moves(three_levels):
    t = {tr.id: tr for tr in three_levels.transitions}
    cases = {
        "t1": ["p_in", "a_in", "x_in", "q_in"],
        "t2": ["x_out", "m2", "y_in"],
        "t3": ["y_out", "m3", "x_in"],
        "t4": ["m4", "y_in"],
        "t5": ["m5"],
        "t6": ["x_out", "a_out", "p_out", "m6"],
        "t7": ["y_out", "a_out", "p_out", "q_out", "m7a", "m7b", "m7"],
        "t8": ["m8a", "p_in", "a_in", "x_in", "m8b", "b_in"],
        "t9": ["x_in"],
    }
    for tid, trace in cases.items():
        assert firing_plan(three_levels, t[tid]).trace == tuple(trace), tid


# ---------------------------------------------------------------------------
# Enabling: the per-join-scan firings_for
# ---------------------------------------------------------------------------


def _reference_fired_outputs(t, valuation):
    if t.split_kind == "or":
        fired = []
        any_guarded_true = False
        for i, b in enumerate(t.outputs):
            if b.guard is None:
                fired.append(i)
            elif b.guard.holds(valuation):
                fired.append(i)
                any_guarded_true = True
        if not any_guarded_true:
            return None
        return tuple(fired)
    if len(t.outputs) == 1 and t.outputs[0].guard is not None:
        if not t.outputs[0].guard.holds(valuation):
            return None
    return tuple(range(len(t.outputs)))


def _input_satisfied(b, counts, events):
    if counts.get(b.source, 0) < 1:
        return False
    if b.event is not None and b.event not in events:
        return False
    return True


def reference_match_or_split(model, t, config):
    for s in model.transitions:
        if s.split_kind != "or":
            continue
        mark = config.mark(s.id)
        if mark is None:
            continue
        fired_targets = set()
        for i in mark:
            target = s.outputs[i].target
            fired_targets.add(target)
            fired_targets.add(leaf_path(model, target))
        required = tuple(i for i, b in enumerate(t.inputs) if b.source in fired_targets)
        if required:
            return s.id, required
    return None


def reference_or_fed(model, t):
    """Whether an or-split output targets an input source of ``t``, or a
    target whose default leaf is one."""
    targets = set()
    for s in model.transitions:
        if s.split_kind == "or":
            targets.update(p for b in s.outputs for p in (b.target, leaf_path(model, b.target)))
    return any(b.source in targets for b in t.inputs)


def reference_firings_for(model, t, config, events, valuation):
    counts = config.counts()
    if t.shared_event is not None and t.shared_event not in events:
        return []
    if t.shared_guard is not None and not t.shared_guard.holds(valuation):
        return []
    outs = _reference_fired_outputs(t, valuation)
    if outs is None:
        return []
    if t.join_kind == "multi":
        return [
            Firing(t, (i,), outs)
            for i, b in enumerate(t.inputs)
            if _input_satisfied(b, counts, events)
        ]
    if t.join_kind == "xor":
        for i, b in enumerate(t.inputs):
            if _input_satisfied(b, counts, events):
                return [Firing(t, (i,), outs)]
        return []
    if t.join_kind == "or" or (t.join_kind == "and" and reference_or_fed(model, t)):
        match = reference_match_or_split(model, t, config)
        if match is not None:
            split_id, required = match
            if all(_input_satisfied(t.inputs[i], counts, events) for i in required):
                return [Firing(t, required, outs, clear_mark=split_id)]
            return []
        active = tuple(i for i, b in enumerate(t.inputs) if counts.get(b.source, 0) >= 1)
        if not active:
            return []
        if all(_input_satisfied(t.inputs[i], counts, events) for i in active):
            return [Firing(t, active, outs)]
        return []
    if all(_input_satisfied(b, counts, events) for b in t.inputs):
        return [Firing(t, tuple(range(len(t.inputs))), outs)]
    return []


def assert_firings_match(model):
    """Compare every transition at every configuration ``explore(model, 4)``
    reaches, under each stimulus ``_stimuli`` offers there, each of those
    with one event removed, and the empty stimulus.  Returns the number of
    comparisons."""
    start = initial_configuration(model)
    configs = {start} | {s.after for run in explore(model, 4) for s in run}
    compared = 0
    for config in sorted(configs, key=repr):
        stimuli = [(set(), {})]
        for events, valuation in _stimuli(model, config):
            stimuli.append((events, valuation))
            stimuli.extend((events - {e}, valuation) for e in sorted(events))
        for events, valuation in stimuli:
            for t in model.transitions:
                got = firings_for(model, t, config, events, valuation)
                want = reference_firings_for(model, t, config, events, valuation)
                assert got == want, (t.id, config, events, valuation)
                compared += 1
    return compared


def test_firings_for_matches_per_join_reference(fixtures, three_levels, re_entry):
    models = _models(fixtures, three_levels, re_entry)
    compared = sum(assert_firings_match(model) for model in models)
    assert compared > 1000


# ---------------------------------------------------------------------------
# Stimuli: _offers over the configuration view
# ---------------------------------------------------------------------------


def reference_offers(candidates, counts):
    """The stimuli at a configuration, computed from its candidate
    transitions and token counts, with the guard fold written out."""
    out = {}

    def add(events, valuation):
        key = (tuple(sorted(events)), tuple(sorted(valuation.items())))
        if key not in out:
            out[key] = (events, valuation)

    for t in candidates:
        if not any(counts.get(b.source, 0) >= 1 for b in t.inputs):
            continue
        base_events = {b.event for b in t.inputs if b.event}
        if t.shared_event:
            base_events.add(t.shared_event)
        base_val = {}
        if t.shared_guard:
            for atom, neg in t.shared_guard.literals:
                base_val[atom] = not neg
        if t.split_kind == "or":
            guarded = [i for i, b in enumerate(t.outputs) if b.guard]
            for included in nonempty_subsets(guarded):
                valuation = dict(base_val)
                ok = True
                for i in guarded:
                    for atom, neg in t.outputs[i].guard.literals:
                        want = (not neg) if i in included else neg
                        if valuation.setdefault(atom, want) != want:
                            ok = False
                    if not ok:
                        break
                if ok:
                    add(base_events, valuation)
            continue
        valuation = dict(base_val)
        if len(t.outputs) == 1 and t.outputs[0].guard:
            for atom, neg in t.outputs[0].guard.literals:
                valuation.setdefault(atom, not neg)
        if t.join_kind in ("xor", "multi"):
            for b in t.inputs:
                if counts.get(b.source, 0) >= 1:
                    ev = {b.event} if b.event else set()
                    if t.shared_event:
                        ev.add(t.shared_event)
                    add(ev, valuation)
        else:
            add(base_events, valuation)
    return out


# Or-splits with one guarded output (t2, and t5 whose shared guard denies
# it), with multi-literal guards (t3), and plain transitions whose shared
# guard repeats an output-guard atom with the opposite sign (t4, t6), next
# to an xor-join with a shared event (t7).
OFFER_CASES = """\
process "Offer cases" {
  state S1
  state S2
  state S3
  state S4
  state S5
  trans t1 { from alpha on go split and to S1, S2 }
  trans t2 { from S1 on e1 split or to S3 if g1 }
  trans t3 { from S2 on e2 split or to S3 if g2 and not g3, S4 if g3 and g4, S5 }
  trans t4 { from S3 on e4 if not g5 to S4 if g5 and g6 }
  trans t5 { from S1 on e5 split or if not g7 to S5 if g7 }
  trans t6 { from S4 on e6 if g8 and not g9 to S5 if not g8 }
  trans t7 { from S3 on e7, S5 join xor on e8 do a7 to Beta }
}
"""


def assert_offers_match(model):
    """Compare ``_offers``, order included, with the reference at every
    configuration ``explore(model, 4)`` reaches.  Returns the number of
    stimuli compared."""
    index = model_index(model)
    start = initial_configuration(model)
    configs = {start} | {s.after for run in explore(model, 4) for s in run}
    compared = 0
    for config in sorted(configs, key=repr):
        counts = config.counts()
        want = reference_offers(index.candidates(counts), counts)
        got = _offers(_view(model, config)[1])
        assert list(got.items()) == list(want.items()), config
        compared += len(got)
    return compared


def test_offers_match_reference(fixtures, three_levels):
    cases = parse_dsl(OFFER_CASES)
    assert validate(cases) == []
    assert assert_offers_match(cases) >= 10
    models = [*fixtures.values(), three_levels, *(random_model(seed) for seed in range(60))]
    assert sum(assert_offers_match(model) for model in models) > 1000


# ---------------------------------------------------------------------------
# explore: the explicit stack and the recursive walk
# ---------------------------------------------------------------------------


def reference_explore(model, depth_bound, start=None, conflicts=None):
    """The earlier recursive walk of ``explore``; appends each stimulus it
    skips for a NondeterminismConflict to ``conflicts``."""
    traces = []
    plans = {}

    def walk(config, prefix):
        extended = False
        if len(prefix) < depth_bound:
            view = _view(model, config)
            for (sorted_events, sorted_valuation), (events, valuation) in _offers(view[1]).items():
                try:
                    fired, trace, after = _step(model, config, view, events, valuation, plans)
                except NondeterminismConflict:
                    if conflicts is not None:
                        conflicts.append((config, sorted_events, sorted_valuation))
                    continue
                if not fired:
                    continue
                record = ExploreStep(sorted_events, sorted_valuation, fired, trace, after)
                extended = True
                walk(after, prefix + (record,))
        if not extended and prefix:
            traces.append(prefix)

    walk(start or initial_configuration(model), ())
    return traces


# Two transitions leave S1 on one event, so ``explore`` skips a
# NondeterminismConflict at S1, and the walk goes on past it through e2.
CONFLICT_CASE = """\
process "Conflict case" {
  state S1
  state S2
  state S3
  trans t1 { from alpha on go to S1 }
  trans t2 { from S1 on e1 to S2 }
  trans t3 { from S1 on e1 to S3 }
  trans t4 { from S1 on e2 to S2 }
  trans t5 { from S2 on e3 to S1 }
}
"""


def test_explore_matches_the_recursive_walk(fixtures, generated_models):
    conflict_case = parse_dsl(CONFLICT_CASE)
    conflicts = []
    for model in [*fixtures.values(), *generated_models, parse_dsl(OFFER_CASES), conflict_case]:
        seen = conflicts if model is conflict_case else None
        for bound in range(6):
            want = reference_explore(model, bound, None, seen)
            assert explore(model, bound) == want, (model.title, bound)
        starts = dict.fromkeys(s.after for run in explore(model, 2) for s in run)
        assert starts, model.title
        for start in starts:
            want = reference_explore(model, 3, start, seen)
            assert explore(model, 3, start) == want, (model.title, start)
    assert conflicts
