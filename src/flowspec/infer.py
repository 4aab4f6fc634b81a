"""Reverse translation: rebuild a process model from a feature document.

Two routes differ only in how they group rows into transitions:

* documents produced by the emitter carry a mode stamp and scenario names of
  the form ``<Kind> <transition-id> [<index>]``; those names group the
  scenarios per transition and make reconstruction deterministic and, for
  strict documents, lossless up to canonical form;

* other documents go through term classification (hints win, negated terms
  are guards, GIVEN heads and dotted names are states, final THEN terms
  recurring in a GIVEN are states, leftover WHEN terms are events and
  leftover THEN terms actions) followed by structural grouping: rows sharing
  GIVEN and WHEN form and-splits, rows sharing targets and a last action
  across distinct sources form joins, and complemented guard-subset
  families form or-splits.

Both routes read a row with one GIVEN splitter (``_split_given``: leading
state terms are sources, the rest guard literals) and one THEN peel
(``_peel``: trailing state terms are targets, the rest actions), and both
build transitions with the same folds: ``one_row`` for a transition read
from a single row, ``fold_split`` for an and-split over rows with one GIVEN
and WHEN, ``fold_join`` for a join over rows with one target and a shared
action suffix, and ``build`` for the model.

Rows without a recoverable resulting state get a synthetic ``_after_...``
sink so the graph stays drawable.  Ambiguities never abort; they surface as
warning diagnostics.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from . import model as m
from .errors import Diagnostic
from .feature import ActionSeq, FeatureDoc, Scenario
from .model import COMPLETION_EVENT, PatternKind, ProcessModel

# Scenario names carry a transition's pattern kind, never a state special case.
_STATE_CASES = {PatternKind.ENTRY_EXIT_CASE, PatternKind.EMBEDDED_STATES}
_NAME_RE = re.compile(
    rf"^({'|'.join(k.value for k in PatternKind if k not in _STATE_CASES)})"
    r"\s+([A-Za-z0-9_.]+)(?:\s+(\d+))?$"
)

# Paper-shaped rows of these kinds always name the resulting state.
_SHAPE_CARRIES_TARGET = {PatternKind.SYNCHRONIZE_MERGE, PatternKind.MULTIPLE_MERGE}

_JOIN_KIND_OF = {
    PatternKind.SIMPLE_MERGE: "xor",
    PatternKind.MULTIPLE_MERGE: "multi",
    PatternKind.SYNCHRONIZATION: "and",
    PatternKind.SYNCHRONIZE_MERGE: "or",
}


@dataclass(frozen=True)
class InferenceHints:
    declared_states: frozenset[str] = frozenset()
    declared_events: frozenset[str] = frozenset()
    declared_guards: frozenset[str] = frozenset()
    declared_actions: frozenset[str] = frozenset()
    initial_name: str | None = None
    final_name: str | None = None

    def __post_init__(self):
        sets = (
            self.declared_states,
            self.declared_events,
            self.declared_guards,
            self.declared_actions,
        )
        for i, a in enumerate(sets):
            for b in sets[i + 1 :]:
                clash = a & b
                if clash:
                    raise ValueError(f"hint names in several roles: {sorted(clash)}")


def _merge_hints(doc: FeatureDoc, hints: InferenceHints | None) -> InferenceHints:
    given = hints or InferenceHints()
    return InferenceHints(
        declared_states=given.declared_states | frozenset(doc.hints.states),
        declared_events=given.declared_events | frozenset(doc.hints.events),
        declared_guards=given.declared_guards | frozenset(doc.hints.guards),
        declared_actions=given.declared_actions | frozenset(doc.hints.actions),
        initial_name=given.initial_name or doc.hints.initial,
        final_name=given.final_name or doc.hints.final,
    )


def parse_scenario_name(name: str):
    match = _NAME_RE.match(name)
    if not match:
        return None
    kind = PatternKind(match.group(1))
    idx = int(match.group(3)) if match.group(3) else None
    return kind, match.group(2), idx


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]+", "_", text).strip("_") or "row"


def _chunks_of(scenario: Scenario) -> list[tuple[str, ...]]:
    return [
        item.actions if isinstance(item, ActionSeq) else (item.path,)
        for item in scenario.then
    ]


def _split_given(terms, is_state) -> tuple[list[str], list[tuple[str, bool]]]:
    """Leading positive state terms are sources; the rest are guard literals."""
    sources: list[str] = []
    lits: list[tuple[str, bool]] = []
    for term in terms:
        if not lits and not term.negated and is_state(term.atom):
            sources.append(term.atom)
        else:
            lits.append((term.atom, term.negated))
    return sources, lits


def _peel(chunks, is_state) -> tuple[list[str], list[str]]:
    """Trailing single-atom state chunks are targets; the rest are actions."""
    idx = len(chunks)
    while idx > 0 and len(chunks[idx - 1]) == 1 and is_state(chunks[idx - 1][0]):
        idx -= 1
    return [a for c in chunks[:idx] for a in c], [c[0] for c in chunks[idx:]]


@dataclass
class _Draft:
    """A transition being assembled, kept in document order."""

    order: int
    id: str
    inputs: list[tuple[str, str | None, tuple[str, ...]]]
    outputs: list[tuple[str, tuple | None, tuple[str, ...], bool]]
    join_kind: str = "none"
    split_kind: str = "none"
    shared_event: str | None = None
    shared_guard: tuple | None = None
    shared_actions: tuple[str, ...] = ()

    def build(self) -> m.TransitionDecl:
        return m.TransitionDecl(
            id=self.id,
            inputs=tuple(m.InBranch(src, ev, acts) for src, ev, acts in self.inputs),
            outputs=tuple(
                m.OutBranch(tgt, m.GuardExpr(tuple(g)) if g else None, acts, mand)
                for tgt, g, acts, mand in self.outputs
            ),
            join_kind=self.join_kind,
            split_kind=self.split_kind,
            shared_event=self.shared_event,
            shared_guard=m.GuardExpr(tuple(self.shared_guard)) if self.shared_guard else None,
            shared_actions=self.shared_actions,
        )


@dataclass
class _Row:
    scenario: Scenario
    sources: list[str]
    lits: list[tuple[str, bool]]
    events: list[str]
    actions: list[str]
    targets: list[str]
    index: int = 0

    @property
    def source(self) -> str | None:
        return self.sources[0] if self.sources else None


class _Inferrer:
    def __init__(self, doc: FeatureDoc, hints: InferenceHints | None):
        self.doc = doc
        self.hints = _merge_hints(doc, hints)
        self.initial = self.hints.initial_name or m.DEFAULT_INITIAL
        self.final = self.hints.final_name or m.DEFAULT_FINAL
        self.diags: list[Diagnostic] = []
        self.states: set[str] = set(self.hints.declared_states)
        self.states.update((self.initial, self.final))
        self.state_order: list[str] = []
        # declared states in the order the document lists them, then any
        # further hinted ones sorted: state order is output
        listed = doc.hints.states
        for name in (*listed, *sorted(self.hints.declared_states.difference(listed))):
            self.note_state(name)
        self.initial_children: dict[str, str] = {}
        self.sink_counter = 0
        self.scenarios: list[Scenario] = []
        for s in doc.scenarios:
            if s.structured:
                self.scenarios.append(s)
            else:
                self.warn(
                    "UnstructuredScenario",
                    s.name,
                    "free-text steps are not model-inferable",
                )

    # -- bookkeeping -------------------------------------------------------

    def warn(self, code: str, location: str, message: str):
        self.diags.append(Diagnostic(code, "warning", location, message))

    def note_state(self, path: str):
        if path in (self.initial, self.final):
            return
        for anc in m.chain(path):
            self.states.add(anc)
            if anc not in self.state_order:
                self.state_order.append(anc)

    def sink_for(self, scenario_name: str) -> str:
        name = f"_after_{_slug(scenario_name)}"
        while name in self.states:
            self.sink_counter += 1
            name = f"_after_{_slug(scenario_name)}_{self.sink_counter}"
        self.note_state(name)
        self.warn("SyntheticTarget", scenario_name, f"no resulting state; synthesized {name}")
        return name

    def target_of(self, row: _Row) -> str:
        return row.targets[0] if row.targets else self.sink_for(row.scenario.name)

    def note_entry(self, source: str, leaf: str):
        """Record default children of composites entered from outside."""
        if "." not in leaf:
            return
        segs = m.chain(leaf)
        src_chain = set(m.chain(source)) if source else set()
        for parent, child in zip(segs, segs[1:]):
            if parent in src_chain:
                continue
            seen = self.initial_children.get(parent)
            if seen is None:
                self.initial_children[parent] = child
            elif seen != child:
                self.warn(
                    "AmbiguousInitialChild",
                    parent,
                    f"entered both via {seen} and via {child}; keeping {seen}",
                )

    def attach_events(self, draft: _Draft, events: list[str], location: str):
        k = len(draft.inputs)
        if len(events) > k + 1:
            self.warn("AmbiguousTerm", location, f"more events than event slots: {events}")
        if 0 < len(events) < k:
            self.warn("AmbiguousTerm", location, "fewer events than join inputs; pairing positionally")
        for i in range(min(k, len(events))):
            src, _, acts = draft.inputs[i]
            draft.inputs[i] = (src, events[i], acts)
        if len(events) > k:
            draft.shared_event = events[k]

    # -- folds shared by both routes ------------------------------------------

    def one_row(self, order, tid, row: _Row, sources, targets, join_kind="none") -> _Draft:
        """A transition read from one row; callers note its entries.

        A lone input carries the row's actions, as the DSL reads them back.
        """
        lone = len(sources) == 1
        draft = _Draft(
            order,
            tid,
            inputs=[(src, None, tuple(row.actions) if lone else ()) for src in sources],
            outputs=[(t, None, (), False) for t in targets],
            join_kind=join_kind,
            split_kind="and" if len(targets) > 1 else "none",
            shared_guard=tuple(row.lits) or None,
            shared_actions=() if lone else tuple(row.actions),
        )
        self.attach_events(draft, row.events, row.scenario.name)
        return draft

    def fold_split(self, order, tid, rows: list[_Row]) -> _Draft:
        """An and-split: one output per row, the common action prefix shared."""
        prefix = _common_prefix([tuple(r.actions) for r in rows])
        outputs = []
        for r in rows:
            target = self.target_of(r)
            self.note_entry(rows[0].source, target)
            outputs.append((target, None, tuple(r.actions[len(prefix):]), False))
        draft = _Draft(
            order,
            tid,
            inputs=[(rows[0].source, None, ())],
            outputs=outputs,
            split_kind="and",
            shared_guard=tuple(rows[0].lits) or None,
            shared_actions=prefix,
        )
        self.attach_events(draft, rows[0].events, rows[0].scenario.name)
        return draft

    def fold_join(self, order, tid, rows: list[_Row], join_kind: str) -> _Draft:
        """A join: one input per row, the common action suffix shared.

        Where rows disagree, the first row's guard, target and shared event
        win and each disagreement is a warning.
        """
        if len({tuple(r.lits) for r in rows}) > 1:
            self.warn("AmbiguousTerm", tid, "merge branches disagree on guard literals")
        named = [r.targets[0] for r in rows if r.targets]
        for t in named[1:]:
            if t != named[0]:
                self.warn("AmbiguousTerm", tid, "merge branches disagree on target")
        target = named[0] if named else self.sink_for(rows[0].scenario.name)
        suffix = _common_suffix([tuple(r.actions) for r in rows])
        draft = _Draft(
            order,
            tid,
            inputs=[],
            outputs=[(target, None, (), False)],
            join_kind=join_kind,
            shared_guard=tuple(rows[0].lits) or None,
            shared_actions=suffix,
        )
        for r in rows:
            if len(r.events) > 1:
                if draft.shared_event is None:
                    draft.shared_event = r.events[1]
                elif draft.shared_event != r.events[1]:
                    self.warn("AmbiguousTerm", tid, "merge branches disagree on shared event")
            branch_actions = tuple(r.actions[: len(r.actions) - len(suffix)])
            draft.inputs.append((r.source, r.events[0] if r.events else None, branch_actions))
            self.note_entry(r.source, target)
        return draft

    # -- named reconstruction --------------------------------------------------

    def split_then(self, scenario: Scenario, shape: str):
        """Partition THEN chunks into action atoms and trailing state terms.

        ``shape`` is one of:
          - "strict-single": the last chunk is the one resulting state;
          - "strict-multi": a leading multi-atom chunk is the trace, the rest
            are states; otherwise known states are peeled from the end;
          - "target-last": the row shape guarantees a trailing state;
          - "evidence": peel trailing chunks only while they are known states.
        """
        chunks = _chunks_of(scenario)
        if shape == "strict-single" or shape == "target-last":
            last = chunks[-1]
            # a single bare chunk is a state only if something says so
            if len(last) == 1 and (
                len(chunks) > 1 or shape == "target-last" or last[0] in self.states
            ):
                return [a for c in chunks[:-1] for a in c], [last[0]]
            return [a for c in chunks for a in c], []
        if shape == "strict-multi" and chunks and len(chunks[0]) > 1:
            actions = list(chunks[0])
            targets = []
            for c in chunks[1:]:
                if len(c) == 1:
                    targets.append(c[0])
                else:
                    self.warn(
                        "AmbiguousTerm",
                        scenario.name,
                        f"unexpected sequence {'; '.join(c)} after result states",
                    )
                    actions.extend(c)
            return actions, targets
        return _peel(chunks, self.states.__contains__)

    def row(self, scenario: Scenario, shape: str) -> _Row:
        sources, lits = _split_given(
            scenario.given,
            lambda a: a in self.states and a not in self.hints.declared_guards,
        )
        if not sources:
            sources = [scenario.given[0].atom]
            lits = [(t.atom, t.negated) for t in scenario.given[1:]]
        actions, targets = self.split_then(scenario, shape)
        for t in targets:
            self.note_state(t)
        events = [t.atom for t in scenario.when if t.atom != COMPLETION_EVENT]
        return _Row(scenario, sources, lits, events, actions, targets)

    def named_state_evidence(self, groups):
        strict = self.doc.mode_hint == "strict"
        for _kind, _tid, scens in groups:
            for s in scens:
                self.note_state(s.given[0].atom)
                for term in list(s.given) + list(s.when):
                    if "." in term.atom:
                        self.note_state(term.atom)
                for c in _chunks_of(s):
                    for a in c:
                        if "." in a:
                            self.note_state(a)
        if not strict:
            return
        for _kind, _tid, scens in groups:
            for s in scens:
                chunks = _chunks_of(s)
                if len(chunks[-1]) == 1:
                    self.note_state(chunks[-1][0])
                if len(chunks[0]) > 1:
                    for c in chunks[1:]:
                        if len(c) == 1:
                            self.note_state(c[0])

    def infer_named(self, groups) -> list[_Draft]:
        strict = self.doc.mode_hint == "strict"
        self.named_state_evidence(groups)
        drafts: list[_Draft] = []
        for order, (kind, tid, scens) in enumerate(groups):
            if kind in _JOIN_KIND_OF:
                shape = "strict-single" if strict else (
                    "target-last" if kind in _SHAPE_CARRIES_TARGET else "evidence"
                )
                # per-input rows (one scenario per branch) fold like a merge;
                # a single combined row carries all sources in its GIVEN
                if len(scens) == 1 and kind in (
                    PatternKind.SYNCHRONIZATION,
                    PatternKind.SYNCHRONIZE_MERGE,
                ):
                    drafts.append(self.named_sync(order, kind, tid, scens, shape))
                else:
                    rows = [self.row(s, shape) for s in scens]
                    drafts.append(self.fold_join(order, tid, rows, _JOIN_KIND_OF[kind]))
            elif kind == PatternKind.PARALLEL_SPLIT:
                drafts.append(self.named_parallel(order, tid, scens, strict))
            elif kind == PatternKind.MULTIPLE_CHOICE:
                drafts.append(self.named_choice(order, tid, scens, strict))
            else:
                shape = "strict-single" if strict else "evidence"
                row = self.row(self.one_scenario(kind, tid, scens), shape)
                target = self.target_of(row)
                self.note_entry(row.source, target)
                if len(row.targets) > 1:
                    self.warn("AmbiguousTerm", tid, "single-target row names several states")
                drafts.append(self.one_row(order, tid, row, [row.source], [target]))
        return drafts

    def one_scenario(self, kind, tid, scens) -> Scenario:
        if len(scens) != 1:
            self.warn("AmbiguousTerm", tid, f"{kind.value} expects one scenario, got {len(scens)}")
        return scens[0]

    def named_sync(self, order, kind, tid, scens, shape) -> _Draft:
        s = self.one_scenario(kind, tid, scens)
        # a combined join row lists every source in its GIVEN; leading
        # positive atoms without guard evidence are sources
        for term in s.given:
            if term.negated or term.atom in self.hints.declared_guards:
                break
            self.note_state(term.atom)
        row = self.row(s, shape)
        target = self.target_of(row)
        draft = self.one_row(order, tid, row, row.sources, [target], _JOIN_KIND_OF[kind])
        for src in row.sources:
            self.note_entry(src, target)
        return draft

    def named_parallel(self, order, tid, scens, strict) -> _Draft:
        if strict or len(scens) == 1:
            row = self.row(scens[0], "strict-multi" if strict else "evidence")
            if len(scens) > 1:
                self.warn("AmbiguousTerm", tid, "unexpected extra rows for a parallel split")
            targets = row.targets or [self.sink_for(row.scenario.name)]
            for t in targets:
                self.note_entry(row.source, t)
            return self.one_row(order, tid, row, [row.source], targets)
        # per-output rows: shared prefix, then one branch per row
        return self.fold_split(order, tid, [self.row(s, "evidence") for s in scens])

    def named_choice(self, order, tid, scens, strict) -> _Draft:
        shape = "strict-multi" if strict else "evidence"
        if not strict:
            # actionless or-splits list fired targets instead of actions;
            # one known state among the bare terms marks the whole group
            atoms = {
                c[0] for s in scens for c in _chunks_of(s) if len(c) == 1
            }
            if any(a in self.states for a in atoms):
                for a in sorted(atoms):
                    self.note_state(a)
        rows = [self.row(s, shape) for s in scens]
        count = len(rows)
        n = (count + 1).bit_length() - 1
        if 2**n - 1 != count or n == 0:
            self.warn("AmbiguousTerm", tid, f"{count} rows do not form a guard-subset family")
            n = max(1, min(n, count))
        full = rows[-1]
        singles = rows[:n]

        if n == 1:
            shared_lits: list = []
            own = {0: [lit for lit in full.lits]}
        else:
            shared_lits = [lit for lit in full.lits if all(lit in r.lits for r in rows)]
            own = {
                i: [
                    lit
                    for lit in singles[i].lits
                    if lit in full.lits and lit not in shared_lits
                ]
                for i in range(n)
            }
        prefix = _common_prefix([tuple(r.actions) for r in rows]) if count > 1 else ()
        always = [t for t in full.targets if all(t in r.targets for r in rows)]
        if n == 1 and full.targets:
            # cannot tell mandatory branches from the single guarded one;
            # take the last named state as the guarded branch's target
            always = full.targets[:-1]
            if len(full.targets) > 1:
                self.warn("AmbiguousTerm", tid, "single-branch choice with several targets")

        branch_targets: dict[int, str] = {}
        for i in range(n):
            candidates = [t for t in singles[i].targets if t not in always]
            if candidates:
                branch_targets[i] = candidates[0]
            else:
                branch_targets[i] = self.sink_for(singles[i].scenario.name)
        branch_actions = {
            i: tuple(singles[i].actions[len(prefix):] if count > 1 else singles[i].actions)
            for i in range(n)
        }

        outputs: list[tuple[str, tuple | None, tuple[str, ...], bool]] = []
        placed: set[int] = set()
        for t in full.targets:
            if t in always:
                outputs.append((t, None, (), True))
                continue
            for i in range(n):
                if i not in placed and branch_targets[i] == t:
                    outputs.append((t, tuple(own[i]), branch_actions[i], False))
                    placed.add(i)
                    break
        for i in range(n):
            if i not in placed:
                outputs.append((branch_targets[i], tuple(own[i]), branch_actions[i], False))
        for t, _g, _a, _mand in outputs:
            self.note_entry(full.source, t)
        draft = _Draft(
            order,
            tid,
            inputs=[(full.source, None, ())],
            outputs=outputs,
            split_kind="or",
            shared_guard=tuple(shared_lits) or None,
            shared_actions=tuple(prefix),
        )
        self.attach_events(draft, full.events, full.scenario.name)
        return draft

    # -- structural reconstruction ----------------------------------------------

    def classify_terms(self):
        in_given_head: set[str] = set()
        in_given: set[str] = set()
        negated: set[str] = set()
        in_when: set[str] = set()
        then_final: set[str] = set()
        everywhere: dict[str, set[str]] = {}

        def note(atom, clause):
            everywhere.setdefault(atom, set()).add(clause)

        for s in self.scenarios:
            for i, term in enumerate(s.given):
                note(term.atom, "given")
                in_given.add(term.atom)
                if term.negated:
                    negated.add(term.atom)
                elif i == 0:
                    in_given_head.add(term.atom)
            for term in s.when:
                if term.atom == COMPLETION_EVENT:
                    continue
                note(term.atom, "when")
                in_when.add(term.atom)
                if term.negated:
                    negated.add(term.atom)
            atoms = [a for c in _chunks_of(s) for a in c]
            for a in atoms:
                note(a, "then")
            if atoms:
                then_final.add(atoms[-1])

        roles: dict[str, str] = {}
        for role, names in (
            ("state", self.hints.declared_states),
            ("event", self.hints.declared_events),
            ("guard", self.hints.declared_guards),
            ("action", self.hints.declared_actions),
        ):
            roles.update(dict.fromkeys(names, role))
        roles[self.initial] = "state"
        roles[self.final] = "state"

        for atom in sorted(everywhere):
            if "." in atom:
                roles.setdefault(atom, "state")
        for atom in sorted(negated):
            roles.setdefault(atom, "guard")
        for atom in sorted(in_given_head):
            if roles.setdefault(atom, "state") != "state":
                self.warn("AmbiguousTerm", atom, "GIVEN head also classified as a non-state")
        for atom in sorted(then_final):
            if atom in in_given:
                roles.setdefault(atom, "state")
        for atom in sorted(in_given):
            roles.setdefault(atom, "guard")
        for atom in sorted(in_when):
            if atom not in roles:
                roles[atom] = "event"
                if everywhere[atom] == {"when"}:
                    self.warn(
                        "AmbiguousTerm",
                        atom,
                        "bare WHEN term defaulted to event (could be a guard)",
                    )
        for atom in sorted(everywhere):
            roles.setdefault(atom, "action")
        for atom, role in roles.items():
            if role == "state":
                self.note_state(atom)
        return roles

    def structural_rows(self, roles) -> list[_Row]:
        def is_state(atom):
            return roles.get(atom) == "state"

        rows: list[_Row] = []
        for i, s in enumerate(self.scenarios):
            sources, lits = _split_given(s.given, is_state)
            events: list[str] = []
            for term in s.when:
                if term.atom == COMPLETION_EVENT:
                    continue
                if roles.get(term.atom) == "guard":
                    lits.append((term.atom, term.negated))
                else:
                    events.append(term.atom)
            chunks = _chunks_of(s)
            actions, targets = _peel(chunks, is_state)
            if len(chunks) > 1 and not targets:
                self.warn(
                    "AmbiguousTerm",
                    s.name,
                    f"trailing term {chunks[-1][-1]!r} defaulted to action",
                )
            rows.append(_Row(s, sources, lits, events, actions, targets, i))
        return rows

    def infer_structural(self) -> list[_Draft]:
        rows = self.structural_rows(self.classify_terms())
        drafts: list[_Draft] = []
        used: set[int] = set()
        ids = (f"u{i}" for i in itertools.count(1))

        def groups(key) -> list[list[_Row]]:
            """Unfolded single-source rows grouped by ``key``, in document order."""
            by_key: dict[tuple, list[_Row]] = {}
            for row in rows:
                if row.index not in used and len(row.sources) == 1:
                    k = key(row)
                    if k is not None:
                        by_key.setdefault(k, []).append(row)
            return list(by_key.values())

        def fold(members, draft):
            drafts.append(draft)
            used.update(r.index for r in members)

        # guard-subset families fold into or-splits
        for members in groups(lambda r: (r.source, tuple(r.events)) if r.lits else None):
            positives = [frozenset(l for l in r.lits if not l[1]) for r in members]
            union = frozenset().union(*positives)
            n = len(union)
            # each non-empty subset of the positive guards once; the count
            # check comes first so that the subsets are only listed when few
            if len(members) < 3 or len(members) != 2**n - 1:
                continue
            if set(positives) != {
                frozenset(c) for k in range(1, n + 1) for c in itertools.combinations(union, k)
            }:
                continue
            src = members[0].source
            prefix = _common_prefix([tuple(r.actions) for r in members])
            common_targets = [t for t in members[0].targets if all(t in r.targets for r in members)]
            outputs = [(t, None, (), True) for t in common_targets]
            for r, own in zip(members, positives):
                if len(own) != 1:
                    continue
                row_targets = [t for t in r.targets if t not in common_targets]
                target = row_targets[0] if row_targets else self.sink_for(r.scenario.name)
                self.note_entry(src, target)
                outputs.append((target, tuple(own), tuple(r.actions[len(prefix):]), False))
            draft = _Draft(
                members[0].index,
                next(ids),
                inputs=[(src, None, ())],
                outputs=outputs,
                split_kind="or",
                shared_actions=prefix,
            )
            self.attach_events(draft, members[0].events, members[0].scenario.name)
            fold(members, draft)

        # identical GIVEN and WHEN fold into and-splits
        for members in groups(lambda r: (r.source, tuple(r.lits), tuple(r.events))):
            if len(members) > 1:
                fold(members, self.fold_split(members[0].index, next(ids), members))

        # the same targets and last action across distinct sources fold into joins
        for members in groups(lambda r: (tuple(r.targets), r.actions[-1]) if r.actions else None):
            if len(members) > 1 and len({r.source for r in members}) == len(members):
                fold(members, self.fold_join(members[0].index, next(ids), members, "and"))
                self.warn(
                    "AmbiguousJoin",
                    members[0].scenario.name,
                    "join kind is not recoverable from text; assuming synchronization",
                )

        # everything else: one transition per row
        for row in rows:
            if row.index in used:
                continue
            targets = row.targets or [self.sink_for(row.scenario.name)]
            for t in targets:
                for src in row.sources:
                    self.note_entry(src, t)
            draft = _Draft(
                row.index,
                next(ids),
                inputs=[(src, None, ()) for src in row.sources],
                outputs=[
                    (t, None, tuple(row.actions) if i == 0 else (), False)
                    for i, t in enumerate(targets)
                ],
                join_kind="none" if len(row.sources) == 1 else "and",
                split_kind="none" if len(targets) == 1 else "and",
                shared_guard=tuple(row.lits) or None,
            )
            if len(row.sources) > 1:
                self.warn(
                    "AmbiguousJoin",
                    row.scenario.name,
                    "multiple GIVEN states; assuming a synchronizing join",
                )
            self.attach_events(draft, row.events, row.scenario.name)
            drafts.append(draft)

        drafts.sort(key=lambda d: d.order)
        return drafts

    # -- model assembly -----------------------------------------------------

    def build(self, drafts: list[_Draft]) -> ProcessModel:
        composites = sorted({m.parent_path(p) for p in self.state_order if "." in p})
        for parent in composites:
            if parent is None or parent in self.initial_children:
                continue
            children = [p for p in self.state_order if m.parent_path(p) == parent]
            if children:
                self.initial_children[parent] = children[0]
                self.warn(
                    "AmbiguousInitialChild",
                    parent,
                    f"never entered from outside; defaulting to {children[0]}",
                )

        def build_node(path: str) -> m.StateNode:
            children = [p for p in self.state_order if m.parent_path(p) == path]
            return m.StateNode(
                name=path.rsplit(".", 1)[-1],
                path=path,
                children=tuple(build_node(c) for c in children),
                initial_child=self.initial_children.get(path),
            )

        roots = [p for p in self.state_order if "." not in p]
        return ProcessModel(
            title=self.doc.title,
            role=self.doc.role,
            feature=self.doc.feature,
            benefit=self.doc.benefit,
            initial_name=self.initial,
            final_name=self.final,
            states=tuple(build_node(p) for p in roots),
            transitions=tuple(d.build() for d in drafts),
        )

    def run(self):
        order: list[str] = []
        grouped: dict[str, tuple[PatternKind, list[Scenario]]] = {}
        all_named = bool(self.scenarios) and self.doc.mode_hint in ("strict", "paper-exact")
        if all_named:
            for s in self.scenarios:
                parsed = parse_scenario_name(s.name)
                if parsed is None:
                    all_named = False
                    break
                kind, tid, _idx = parsed
                if tid not in grouped:
                    grouped[tid] = (kind, [])
                    order.append(tid)
                grouped[tid][1].append(s)

        if all_named:
            drafts = self.infer_named(
                [(grouped[tid][0], tid, grouped[tid][1]) for tid in order]
            )
        else:
            drafts = self.infer_structural()
        model = self.build(drafts)
        self.diags.extend(m.validate(model))
        return model, self.diags


def infer_model(doc: FeatureDoc, hints: InferenceHints | None = None):
    """Rebuild a process model from a feature document.

    Returns ``(model, diagnostics)``; ambiguity never raises.
    """
    return _Inferrer(doc, hints).run()


def _common_prefix(seqs: list[tuple]) -> tuple:
    if not seqs:
        return ()
    prefix = seqs[0]
    for s in seqs[1:]:
        limit = 0
        for a, b in zip(prefix, s):
            if a != b:
                break
            limit += 1
        prefix = prefix[:limit]
    return prefix


def _common_suffix(seqs: list[tuple]) -> tuple:
    if not seqs:
        return ()
    rev = [tuple(reversed(s)) for s in seqs]
    return tuple(reversed(_common_prefix(rev)))
