"""Workflow-pattern classification and semantic lints.

Every transition of a valid model is assigned exactly one pattern kind; the
assignment is purely structural, so renaming identifiers never changes it.
States with entry/exit actions and composite states are reported separately
as special cases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import model as m
from .errors import Diagnostic
from .model import PatternKind, ProcessModel, TransitionDecl


@dataclass(frozen=True)
class PatternInstance:
    kind: PatternKind
    transition_id: str
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class StateSpecialCase:
    kind: PatternKind  # ENTRY_EXIT_CASE or EMBEDDED_STATES
    state_path: str
    notes: tuple[str, ...] = ()


def effective_guard_literals(t: TransitionDecl) -> tuple[tuple[str, bool], ...]:
    """Shared guard plus, for single-output transitions, the output guard."""
    lits: list[tuple[str, bool]] = []
    if t.shared_guard:
        lits.extend(t.shared_guard.literals)
    if len(t.outputs) == 1 and t.outputs[0].guard:
        lits.extend(t.outputs[0].guard.literals)
    return tuple(lits)


def or_split_targets(model: ProcessModel) -> dict[str, str]:
    """Map each target of an or-split output to the splitting transition id."""
    targets: dict[str, str] = {}
    for t in model.transitions:
        if t.split_kind == "or":
            for b in t.outputs:
                targets.setdefault(b.target, t.id)
    return targets


def choice_families(model: ProcessModel) -> dict[str, list[TransitionDecl]]:
    """Groups of guarded single-input/single-output transitions per source."""
    groups: dict[str, list[TransitionDecl]] = {}
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


def classify(model: ProcessModel) -> tuple[list[PatternInstance], list[StateSpecialCase]]:
    """Assign one pattern kind per transition, plus state-level special cases."""
    or_targets = or_split_targets(model)
    families = choice_families(model)
    family_ids = {t.id for ts in families.values() for t in ts}

    instances: list[PatternInstance] = []
    for t in model.transitions:
        notes: tuple[str, ...] = ()
        if t.join_kind == "and":
            fed_by = sorted(
                {or_targets[b.source] for b in t.inputs if b.source in or_targets}
            )
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

    specials: list[StateSpecialCase] = []
    for node in m.iter_states(model):
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
    nodes = m.model_index(model).nodes
    reached: set[str] = set()

    def mark(path: str):
        if path in reached or m.is_pseudostate(model, path):
            reached.update([path])
            if m.is_pseudostate(model, path):
                return
        for anc in m.chain(path):
            reached.add(anc)
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


def lint(model: ProcessModel) -> list[Diagnostic]:
    """Report semantic hazards on a structurally valid model.

    Codes: OverlappingGuards, UnreachableState, OrJoinWithoutOrSplit,
    DanglingFinal.  All findings are warnings.
    """
    report: list[Diagnostic] = []

    for source, family in sorted(choice_families(model).items()):
        for ta, tb in itertools.combinations(family, 2):
            witness = guards_overlap(
                effective_guard_literals(ta), effective_guard_literals(tb)
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
    for node in m.iter_states(model):
        if node.path not in reached:
            report.append(
                _warn("UnreachableState", node.path, "state is unreachable from the initial pseudostate")
            )

    or_targets = or_split_targets(model)
    for t in model.transitions:
        if t.join_kind == "or" and not any(b.source in or_targets for b in t.inputs):
            report.append(
                _warn(
                    "OrJoinWithoutOrSplit",
                    t.id,
                    "or-join has no upstream or-split feeding its inputs",
                )
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
