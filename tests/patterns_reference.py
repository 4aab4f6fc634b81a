"""Pattern classification, canonical form and lint as they were before the
model index decided each transition's pattern.

``classify`` has its own if-chain over join and split kinds and its own
or-split target and choice family helpers, which ``lint`` runs again, and
``transition_signature`` lists the four merge kinds in a tuple.
``test_patterns.py`` compares today's ``classify``, ``canonical_form`` and
``lint`` against these copies.
"""

from __future__ import annotations

import itertools

from flowspec import model as m
from flowspec.canon import _branch_guards
from flowspec.model import PatternKind
from flowspec.patterns import PatternInstance, _reachable_paths, _warn, guards_overlap


def effective_guard_literals(t):
    lits = []
    if t.shared_guard:
        lits.extend(t.shared_guard.literals)
    if len(t.outputs) == 1 and t.outputs[0].guard:
        lits.extend(t.outputs[0].guard.literals)
    return tuple(lits)


def or_split_targets(model):
    targets = {}
    for t in model.transitions:
        if t.split_kind == "or":
            for b in t.outputs:
                targets.setdefault(b.target, t.id)
    return targets


def choice_families(model):
    groups = {}
    for t in model.transitions:
        if (
            len(t.inputs) == 1
            and len(t.outputs) == 1
            and t.split_kind == "none"
            and t.join_kind == "none"
            and effective_guard_literals(t)
        ):
            groups.setdefault(t.inputs[0].source, []).append(t)
    return {src: ts for src, ts in groups.items() if len(ts) >= 2}


def classify(model):
    """The transition instances of the old ``classify``."""
    or_targets = or_split_targets(model)
    family_ids = {t.id for ts in choice_families(model).values() for t in ts}
    instances = []
    for t in model.transitions:
        notes = ()
        if t.join_kind == "and":
            fed_by = sorted({or_targets[b.source] for b in t.inputs if b.source in or_targets})
            if fed_by:
                kind = PatternKind.SYNCHRONIZE_MERGE
                notes = tuple(f"inputs fed by or-split {tid}" for tid in fed_by)
            else:
                kind = PatternKind.SYNCHRONIZATION
        elif t.join_kind == "or":
            kind = PatternKind.SYNCHRONIZE_MERGE
        elif t.join_kind == "xor":
            kind = PatternKind.SIMPLE_MERGE
        elif t.join_kind == "multi":
            kind = PatternKind.MULTIPLE_MERGE
        elif t.split_kind == "and":
            kind = PatternKind.PARALLEL_SPLIT
        elif t.split_kind == "or":
            kind = PatternKind.MULTIPLE_CHOICE
        elif t.id in family_ids:
            kind = PatternKind.EXCLUSIVE_CHOICE
        else:
            kind = PatternKind.SEQUENCE
        instances.append(PatternInstance(kind=kind, transition_id=t.id, notes=notes))
    return instances


def _characteristic_traces(model, t, kind):
    traces = []
    if t.split_kind == "or":
        guarded = [i for i, b in enumerate(t.outputs) if b.guard]
        always = tuple(i for i, b in enumerate(t.outputs) if not b.guard)
        for g in guarded:
            traces.append(m.firing_plan(model, t, None, tuple(sorted(always + (g,)))).trace)
        traces.append(m.firing_plan(model, t).trace)
        return tuple(traces)
    if kind in (PatternKind.SIMPLE_MERGE, PatternKind.MULTIPLE_MERGE):
        return tuple(m.firing_plan(model, t, (b,), None).trace for b in t.inputs)
    return (m.firing_plan(model, t).trace,)


def transition_signature(model, t, kind):
    if len(t.inputs) == 1:
        events = tuple(e for e in (t.inputs[0].event, t.shared_event) if e)
        inputs = ((t.inputs[0].source, None),)
        shared_event = None
    else:
        events = ()
        inputs = tuple((b.source, b.event) for b in t.inputs)
        shared_event = t.shared_event
    if t.split_kind == "or":
        guards = ("per-branch", _branch_guards(t))
        mandatory = tuple(b.guard is None for b in t.outputs)
    else:
        guards = ("folded", effective_guard_literals(t))
        mandatory = tuple(False for _ in t.outputs)
    targets = tuple(m.leaf_path(model, b.target) for b in t.outputs)
    join_class = (
        kind.value
        if kind
        in (
            PatternKind.SYNCHRONIZATION,
            PatternKind.SYNCHRONIZE_MERGE,
            PatternKind.SIMPLE_MERGE,
            PatternKind.MULTIPLE_MERGE,
        )
        else "none"
    )
    return (
        kind.value,
        join_class,
        t.split_kind,
        inputs,
        events,
        shared_event,
        guards,
        targets,
        mandatory,
        _characteristic_traces(model, t, kind),
    )


def canonical_form(model):
    kinds = {inst.transition_id: inst.kind for inst in classify(model)}
    states = {
        node.path: (tuple(c.path for c in node.children), node.initial_child)
        for node in m.iter_states(model)
    }
    transitions = {
        t.id: transition_signature(model, t, kinds[t.id]) for t in model.transitions
    }
    return {
        "initial": model.initial_name,
        "final": model.final_name,
        "states": states,
        "transitions": transitions,
        "order": tuple(t.id for t in model.transitions),
    }


def lint(model):
    report = []
    for source, family in sorted(choice_families(model).items()):
        for ta, tb in itertools.combinations(family, 2):
            witness = guards_overlap(effective_guard_literals(ta), effective_guard_literals(tb))
            if witness is not None:
                shown = ", ".join(f"{k}={v}" for k, v in sorted(witness.items()))
                report.append(
                    _warn(
                        "OverlappingGuards",
                        source,
                        f"guards of transitions {ta.id} and {tb.id} overlap ({shown})",
                    )
                )
    reached = _reachable_paths(model)
    for node in m.iter_states(model):
        if node.path not in reached:
            report.append(
                _warn("UnreachableState", node.path, "state is unreachable from the initial pseudostate")
            )
    or_targets = or_split_targets(model)
    for t in model.transitions:
        if t.join_kind == "or" and not any(b.source in or_targets for b in t.inputs):
            report.append(
                _warn("OrJoinWithoutOrSplit", t.id, "or-join has no upstream or-split feeding its inputs")
            )
    final_targeted = any(b.target == model.final_name for t in model.transitions for b in t.outputs)
    if model.final_name != m.DEFAULT_FINAL and not final_targeted:
        report.append(
            _warn("DanglingFinal", model.final_name, "final pseudostate is declared but never targeted")
        )
    return report
