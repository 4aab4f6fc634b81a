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
from .feature import KEYWORDS, FeatureDoc, Scenario, Step
from .model import COMPLETION_EVENT, PatternKind, ProcessModel, TransitionDecl, normalize_mode
# re-exported: the or-split enumeration lives with the strict row table
from .model import MAX_CHOICE_BRANCHES, enumerate_choice_subsets


# -- THEN item shapes --------------------------------------------------------
# Each helper gives the text of its THEN items, which ``row`` joins by AND.


def _trace_items(plan: m.FiringPlan) -> list[str]:
    """The whole trace as one sequence, then the resulting leaves."""
    trace = plan.trace
    return (["; ".join(trace)] if trace else []) + list(plan.leaves)


def _action_items(plan: m.FiringPlan) -> list[str]:
    """One term per action, or the resulting leaves when there are none."""
    return list(plan.trace or plan.leaves)


def _special_items(plan: m.FiringPlan, outputs) -> list[str]:
    """Entry/exit styling: one term per action, and per output its entry
    actions standing in for the resulting state when there are any."""
    items = [*plan.exit_actions, *plan.actions]
    for out in outputs:
        items.extend(out.branch.actions + out.entry_actions)
        if not out.entry_actions:
            items.append(out.leaf)
    return items


class _Emitter:
    def __init__(self, model: ProcessModel, mode: str):
        self.model = model
        self.mode = mode
        self.patterns = m.model_index(model).patterns

    def row(self, name, t, consumed, items, given_lits=(), when_lits=()) -> Scenario:
        """GIVEN the consumed sources and ``given_lits``; WHEN their events,
        then ``when_lits``, else the completion event; THEN ``items``."""
        given = [b.source for b in consumed]
        given.extend("NOT " + a if n else a for a, n in given_lits)
        when = [b.event for b in consumed if b.event]
        if t.shared_event:
            when.append(t.shared_event)
        when.extend("NOT " + a if n else a for a, n in when_lits)
        texts = (given, when or [COMPLETION_EVENT], items)
        return Scenario(name, tuple(map(Step, KEYWORDS, map(" AND ".join, texts))))

    # -- strict mode -----------------------------------------------------

    def strict_firing(self, name, t, consumed, fired, lits) -> Scenario:
        plan = m.firing_plan(self.model, t, consumed, fired)
        return self.row(name, t, consumed, _trace_items(plan), lits)

    def strict_scenarios(self, t: TransitionDecl, kind: PatternKind) -> list[Scenario]:
        """One row per ``model.strict_rows`` entry, numbered for a per-input
        merge or an or-split."""
        base = f"{kind.value} {t.id}"
        numbered = t.split_kind == "or" or t.join_kind in m.PER_INPUT_JOINS
        return [
            self.strict_firing(f"{base} {i}" if numbered else base, t, consumed, fired, m.row_literals(t, fired))
            for i, (consumed, fired) in enumerate(m.strict_rows(t), 1)
        ]

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
        lits = m.effective_guard_literals(t)
        if kind == PatternKind.SYNCHRONIZE_MERGE:
            return [self.strict_firing(base, t, t.inputs, None, lits)]
        if kind in m.MERGES.values():
            items = _trace_items if kind == PatternKind.MULTIPLE_MERGE else _action_items
            return [
                self.row(
                    f"{base} {i + 1}",
                    t,
                    (inp,),
                    items(m.firing_plan(self.model, t, (inp,))),
                    when_lits=lits,
                )
                for i, inp in enumerate(t.inputs)
            ]
        if kind == PatternKind.MULTIPLE_CHOICE:
            return [
                self.row(
                    f"{base} {i}",
                    t,
                    consumed,
                    _action_items(m.firing_plan(self.model, t, consumed, fired)),
                    given_lits=m.row_literals(t, fired),
                )
                for i, (consumed, fired) in enumerate(m.strict_rows(t), 1)
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
            kind = self.patterns[t.id][0]
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
