"""Scenario emission: turn a classified model into a feature document.

Two modes:

``paper_exact``
    Reproduces the compact presentation shape of each pattern: sequences and
    plain splits/merges list their actions as AND-joined terms and omit the
    resulting state; synchronizing and multiple merges render ordered
    ``;``-sequences and name the target; transitions that touch entry/exit
    actions or embedded states render one row per output with the resulting
    state appended (entry actions, when present, stand in for the state).

``strict``
    Lossless and replayable: guard literals always sit in GIVEN, events in
    WHEN (with a ``_done`` placeholder when a transition has none), and THEN
    carries the full ordered action trace followed by one state term per
    resulting active leaf.
"""

from __future__ import annotations

from . import model as m
from .errors import TooManyChoiceBranches
from .feature import ActionSeq, FeatureDoc, Scenario, StateTerm, Term, scenario_from_clauses
from .model import COMPLETION_EVENT, PatternKind, ProcessModel, TransitionDecl, normalize_mode
from .patterns import classify, effective_guard_literals

MAX_CHOICE_BRANCHES = 10


def enumerate_choice_subsets(branches):
    """All nonempty subsets of ``branches``, smallest first, then by
    declaration order.  Raises TooManyChoiceBranches above 10 branches."""
    items = list(branches)
    if not items:
        raise ValueError("at least one branch is required")
    if len(items) > MAX_CHOICE_BRANCHES:
        raise TooManyChoiceBranches(len(items), MAX_CHOICE_BRANCHES)
    return m.nonempty_subsets(items)


# -- THEN item shapes --------------------------------------------------------


def _trace_items(plan: m.FiringPlan) -> list:
    """The whole trace as one sequence, then the resulting leaves."""
    trace = plan.trace()
    items: list = [ActionSeq(tuple(trace))] if trace else []
    return items + [StateTerm(leaf) for leaf in plan.result_leaves()]


def _action_items(plan: m.FiringPlan) -> list:
    """One term per action, or the resulting leaves when there are none."""
    return [ActionSeq((a,)) for a in plan.trace()] or [
        StateTerm(leaf) for leaf in plan.result_leaves()
    ]


def _special_items(plan: m.FiringPlan, outputs) -> list:
    """Entry/exit styling: one term per action, and per output its entry
    actions standing in for the resulting state when there are any."""
    prefix = plan.exit_actions + plan.input_actions + plan.shared_actions
    items: list = [ActionSeq((a,)) for a in prefix]
    for out in outputs:
        items.extend(ActionSeq((a,)) for a in out.branch.actions + out.entry_actions)
        if not out.entry_actions:
            items.append(StateTerm(out.leaf))
    return items


class _Emitter:
    def __init__(self, model: ProcessModel, mode: str):
        self.model = model
        self.mode = mode
        instances, _ = classify(model)
        self.kinds = {inst.transition_id: inst.kind for inst in instances}

    def row(self, name, t, consumed, items, given_lits=(), when_lits=()) -> Scenario:
        """GIVEN the consumed sources and ``given_lits``; WHEN their events,
        then ``when_lits``, else the completion event."""
        given = [Term(b.source, False, "state") for b in consumed]
        given.extend(Term(a, n, "guard") for a, n in given_lits)
        when = [Term(b.event, False, "event") for b in consumed if b.event]
        if t.shared_event:
            when.append(Term(t.shared_event, False, "event"))
        when.extend(Term(a, n, "guard") for a, n in when_lits)
        return scenario_from_clauses(
            name, given, when or [Term(COMPLETION_EVENT, False, "event")], items
        )

    # -- strict mode -----------------------------------------------------

    def strict_firing(self, name, t, consumed, fired, lits) -> Scenario:
        plan = m.firing_plan(self.model, t, consumed, fired)
        return self.row(name, t, consumed, _trace_items(plan), lits)

    def strict_scenarios(self, t: TransitionDecl, kind: PatternKind) -> list[Scenario]:
        base = f"{kind.value} {t.id}"
        if kind == PatternKind.MULTIPLE_CHOICE:
            return [
                self.strict_firing(f"{base} {i + 1}", t, t.inputs, fired, lits)
                for i, (fired, lits) in enumerate(self.choice_cases(t))
            ]
        if kind in (PatternKind.SIMPLE_MERGE, PatternKind.MULTIPLE_MERGE):
            shared = t.shared_guard.literals if t.shared_guard else ()
            return [
                self.strict_firing(f"{base} {i + 1}", t, (inp,), None, shared)
                for i, inp in enumerate(t.inputs)
            ]
        return [self.strict_firing(base, t, t.inputs, None, effective_guard_literals(t))]

    # -- choice enumeration ------------------------------------------------

    def choice_cases(self, t: TransitionDecl):
        """(fired output indices, guard literals) per nonempty guard subset."""
        guarded = [i for i, b in enumerate(t.outputs) if b.guard]
        always = [i for i, b in enumerate(t.outputs) if not b.guard]
        shared = t.shared_guard.literals if t.shared_guard else ()
        cases = []
        for included in enumerate_choice_subsets(guarded) if guarded else ():
            lits = list(shared)
            seen = {atom for atom, _ in lits}
            for i in included:
                for atom, neg in t.outputs[i].guard.literals:
                    if atom not in seen:
                        seen.add(atom)
                        lits.append((atom, neg))
            for i in guarded:
                if i in included:
                    continue
                for atom, neg in t.outputs[i].guard.literals:
                    if atom not in seen:
                        seen.add(atom)
                        lits.append((atom, not neg))
                        break
            cases.append((tuple(sorted(always + list(included))), lits))
        return cases

    # -- paper-exact mode ---------------------------------------------------

    def special_involved(self, t: TransitionDecl) -> bool:
        nodes = m.model_index(self.model).nodes
        for b in t.inputs:
            node = nodes.get(b.source)
            if "." in b.source or (node and (node.exit_actions or node.composite)):
                return True
        for b in t.outputs:
            node = nodes.get(b.target)
            if "." in b.target or (node and (node.entry_actions or node.composite)):
                return True
        return False

    def paper_scenarios(self, t: TransitionDecl, kind: PatternKind) -> list[Scenario]:
        base = f"{kind.value} {t.id}"
        lits = effective_guard_literals(t)
        if kind == PatternKind.SYNCHRONIZE_MERGE:
            return [self.strict_firing(base, t, t.inputs, None, lits)]
        if kind in (
            PatternKind.MULTIPLE_MERGE,
            PatternKind.SYNCHRONIZATION,
            PatternKind.SIMPLE_MERGE,
        ):
            items = _trace_items if kind == PatternKind.MULTIPLE_MERGE else _action_items
            shared = t.shared_guard.literals if t.shared_guard else ()
            return [
                self.row(
                    f"{base} {i + 1}",
                    t,
                    (inp,),
                    items(m.firing_plan(self.model, t, (inp,))),
                    when_lits=shared,
                )
                for i, inp in enumerate(t.inputs)
            ]
        if kind == PatternKind.MULTIPLE_CHOICE:
            return [
                self.row(
                    f"{base} {i + 1}",
                    t,
                    t.inputs,
                    _action_items(m.firing_plan(self.model, t, t.inputs, fired)),
                    given_lits=case,
                )
                for i, (fired, case) in enumerate(self.choice_cases(t))
            ]
        # Exclusive choice, sequence and parallel split; special-case styling
        # applies to the latter two.
        plan = m.firing_plan(self.model, t)
        special = kind != PatternKind.EXCLUSIVE_CHOICE and self.special_involved(t)
        if special and kind == PatternKind.PARALLEL_SPLIT:
            return [
                self.row(f"{base} {i + 1}", t, t.inputs, _special_items(plan, (out,)))
                for i, out in enumerate(plan.outputs)
            ]
        items = _special_items(plan, plan.outputs) if special else _action_items(plan)
        return [self.row(base, t, t.inputs, items, when_lits=lits)]

    # -- entry point ---------------------------------------------------------

    def emit(self) -> FeatureDoc:
        scenarios: list[Scenario] = []
        for t in self.model.transitions:
            kind = self.kinds[t.id]
            if self.mode == "strict":
                scenarios.extend(self.strict_scenarios(t, kind))
            else:
                scenarios.extend(self.paper_scenarios(t, kind))
        return FeatureDoc(
            title=self.model.title,
            role=self.model.role,
            feature=self.model.feature,
            benefit=self.model.benefit,
            scenarios=tuple(scenarios),
            mode_hint="strict" if self.mode == "strict" else "paper-exact",
        )


def emit_feature(model: ProcessModel, mode: str = "paper_exact") -> FeatureDoc:
    """Emit one scenario group per transition, in declaration order."""
    return _Emitter(model, normalize_mode(mode)).emit()
