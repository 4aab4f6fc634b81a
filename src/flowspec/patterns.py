"""Workflow-pattern classification and semantic lints.

Every transition of a valid model is assigned exactly one pattern kind; the
assignment is purely structural, so renaming identifiers never changes it.
States with entry/exit actions and composite states are reported separately
as special cases.
"""

from __future__ import annotations

import itertools

from . import model as m
from .errors import Diagnostic
from .model import PatternKind, ProcessModel
from .values import value_type


@value_type
class PatternInstance:
    kind: PatternKind
    transition_id: str
    notes: tuple[str, ...] = ()


@value_type
class StateSpecialCase:
    kind: PatternKind  # ENTRY_EXIT_CASE or EMBEDDED_STATES
    state_path: str
    notes: tuple[str, ...] = ()


def classify(model: ProcessModel) -> tuple[list[PatternInstance], list[StateSpecialCase]]:
    """Assign one pattern kind per transition, plus state-level special cases.

    The kinds are ``ModelIndex.patterns``; an and-join that an or-split
    feeds notes each feeding or-split."""
    patterns = m.model_index(model).patterns
    instances: list[PatternInstance] = []
    for t in model.transitions:
        kind, fed = patterns[t.id]
        notes = tuple(f"inputs fed by or-split {tid}" for tid in fed) if t.join_kind == "and" else ()
        instances.append(PatternInstance(kind=kind, transition_id=t.id, notes=notes))

    specials: list[StateSpecialCase] = []
    for node in m.model_index(model).all_nodes:
        if node.entry_actions or node.exit_actions:
            notes = []
            if node.entry_actions:
                notes.append("entry: " + ", ".join(node.entry_actions))
            if node.exit_actions:
                notes.append("exit: " + ", ".join(node.exit_actions))
            specials.append(
                StateSpecialCase(PatternKind.ENTRY_EXIT_CASE, node.path, tuple(notes))
            )
        if node.composite:
            specials.append(
                StateSpecialCase(
                    PatternKind.EMBEDDED_STATES,
                    node.path,
                    (f"children: {', '.join(c.path for c in node.children)}",),
                )
            )
    return instances, specials


# ---------------------------------------------------------------------------
# Lint
# ---------------------------------------------------------------------------

def guards_overlap(a, b) -> dict[str, bool] | None:
    """Whether two literal conjunctions can hold together.

    They can exactly when no atom appears with both polarities; the witness
    valuation over their atoms is then unique.  Returns it, or None.
    """
    witness: dict[str, bool] = {}
    for atom, neg in tuple(a) + tuple(b):
        if witness.setdefault(atom, not neg) == neg:
            return None
    return witness


def _warn(code: str, location: str, message: str) -> Diagnostic:
    return Diagnostic(code=code, severity="warning", location=location, message=message)


def _reachable_paths(model: ProcessModel) -> set[str]:
    """Paths reachable from the initial pseudostate, over-approximated: a
    transition counts as fired as soon as any one of its input sources is
    reached.  Reaching a target reaches the chain of its leaf, that is its
    ancestors and its default descendants; a pseudostate reaches only
    itself.  A worklist of newly reached paths visits the transitions that
    read each of them."""
    index = m.model_index(model)
    defaults, transitions = index.defaults, model.transitions
    start = model.initial_name
    reached, marked, todo = {start}, {start}, [start]
    while todo:
        for i in index.by_source.get(todo.pop(), ()):
            for b in transitions[i].outputs:
                if b.target in marked:
                    continue
                marked.add(b.target)
                paths = m.chain(b.target)
                while child := defaults.get(paths[-1]):
                    paths.append(child.path)
                for p in paths:
                    if p not in reached:
                        reached.add(p)
                        todo.append(p)
    return reached


def lint(model: ProcessModel) -> list[Diagnostic]:
    """Report semantic hazards on a structurally valid model.

    Codes: OverlappingGuards, UnreachableState, OrJoinWithoutOrSplit,
    JoinWithSplit, DanglingFinal.  All findings are warnings.
    """
    report: list[Diagnostic] = []
    index = m.model_index(model)

    for source, family in sorted(index.choice_families.items()):
        for ta, tb in itertools.combinations(family, 2):
            witness = guards_overlap(
                m.effective_guard_literals(ta), m.effective_guard_literals(tb)
            )
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
    for node in index.all_nodes:
        if node.path not in reached:
            report.append(
                _warn("UnreachableState", node.path, "state is unreachable from the initial pseudostate")
            )

    for t in model.transitions:
        if t.join_kind == "or" and t.id not in index.or_feeds:
            report.append(
                _warn(
                    "OrJoinWithoutOrSplit",
                    t.id,
                    "or-join has no upstream or-split feeding its inputs",
                )
            )
        if t.join_kind in m.MERGES and t.split_kind in m.SPLITS:
            report.append(
                _warn("JoinWithSplit", t.id, "transition both joins and splits; paper-exact emission reads only the join")
            )

    final_targeted = any(
        b.target == model.final_name for t in model.transitions for b in t.outputs
    )
    if model.final_name != m.DEFAULT_FINAL and not final_targeted:
        report.append(
            _warn(
                "DanglingFinal",
                model.final_name,
                "final pseudostate is declared but never targeted",
            )
        )

    return report
