"""Canonical forms for comparing models up to observable behavior.

The feature text cannot carry every placement detail of the source model:
whether an action lived on a state's entry list or on the transition, or
whether a lone event sat on the input branch or on the transition itself,
is invisible in the emitted scenarios.  Two models are therefore compared
through a canonical summary that folds those placements into observable
quantities: the classified pattern kind, the (source, event) shape, folded
guard literals, leaf-resolved targets, and the action trace of each strict
row (``model.strict_rows``), the firings the strict text shows.  An or-split
with more than 10 guarded outputs has no strict rows, so comparing it raises
TooManyChoiceBranches.
"""

from __future__ import annotations

from . import model as m
from .model import PatternKind, ProcessModel, TransitionDecl


def _branch_guards(t: TransitionDecl) -> tuple:
    shared = tuple(t.shared_guard.literals) if t.shared_guard else ()
    out = []
    for b in t.outputs:
        if b.guard is None:
            out.append(None)
        else:
            out.append(shared + tuple(b.guard.literals))
    return tuple(out)


def transition_signature(model: ProcessModel, t: TransitionDecl, kind: PatternKind):
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
        guards = ("folded", m.effective_guard_literals(t))
        mandatory = tuple(False for _ in t.outputs)
    targets = tuple(m.leaf_path(model, b.target) for b in t.outputs)
    join_class = kind.value if t.join_kind in m.MERGES else "none"
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
        tuple(m.firing_plan(model, t, c, f).trace for c, f in m.strict_rows(t)),
    )


def canonical_form(model: ProcessModel) -> dict:
    """A comparable summary of state structure and transition behavior."""
    patterns = m.model_index(model).patterns
    states = {
        node.path: (tuple(c.path for c in node.children), node.initial_child)
        for node in m.model_index(model).all_nodes
    }
    transitions = {
        t.id: transition_signature(model, t, patterns[t.id][0]) for t in model.transitions
    }
    return {
        "initial": model.initial_name,
        "final": model.final_name,
        "states": states,
        "transitions": transitions,
        "order": tuple(t.id for t in model.transitions),
    }


def isomorphic(a: ProcessModel, b: ProcessModel) -> bool:
    """Same state graph and behaviorally identical labeled transitions."""
    return canonical_form(a) == canonical_form(b)
