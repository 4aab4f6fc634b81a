"""Reverse translation: rebuild a process model from a feature document.

Every term gets one role (state, event, guard or action) from one table per
document, built by ``_Inferrer._roles`` before any row is read:

* seeds, where the first role given to a name stays: the document's hint
  comments (``FeatureDoc.hints``) and the two pseudostates; the named
  route's shape seeds (below); dotted names are states; negated terms are
  guards; positive GIVEN heads are states; a final THEN atom that also
  appears in a GIVEN is a state;
* propagation to a fixpoint: a positive GIVEN term before a state term is a
  state, and a single-atom THEN chunk after a state chunk is a state;
* defaults: what is left is a guard in a GIVEN, an event in a WHEN and an
  action elsewhere.

Two routes differ only in how they group rows into transitions:

* documents produced by the emitter carry a mode stamp and scenario names of
  the form ``<Kind> <transition-id> [<index>]``; those names group the
  scenarios per transition, and the row shape of each kind adds seeds: WHEN
  terms are events unless the document negates them, a strict row ends in
  its result states, a paper-exact merge row ends in its target, and a
  combined join row lists its sources first.  Each group is read as
  emission's row table (``model.strict_rows``) in reverse.  For strict
  documents reconstruction is lossless up to canonical form;

* other documents are grouped by structure: complemented guard-subset
  families form or-splits, rows sharing GIVEN and WHEN form and-splits, and
  rows sharing targets and a last action across distinct sources form joins.

Both routes read a row with one GIVEN splitter (``_split_given``: leading
state terms are sources, the rest guard literals) and one THEN peel
(``_peel``: trailing state terms are targets, the rest actions), and both
build transitions with the same folds: ``one_row`` for a transition read
from a single row, ``fold_split`` for an and-split over rows with one GIVEN
and WHEN, ``fold_join`` for a join over one-input transitions with a shared
action suffix, ``fold_choice`` for an or-split over a guard-subset family,
and ``build`` for the model.

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
from .feature import FeatureDoc, Scenario
from .model import COMPLETION_EVENT, PatternKind, ProcessModel

# Scenario names carry a transition's pattern kind, never a state special case.
_STATE_CASES = {PatternKind.ENTRY_EXIT_CASE, PatternKind.EMBEDDED_STATES}
_NAME_RE = re.compile(
    rf"^({'|'.join(k.value for k in PatternKind if k not in _STATE_CASES)})"
    r"\s+([A-Za-z0-9_.]+)(?:\s+(\d+))?$"
)

# Paper-shaped rows of these kinds always name the resulting state.
_SHAPE_CARRIES_TARGET = {PatternKind.SYNCHRONIZE_MERGE, PatternKind.MULTIPLE_MERGE}

# A single scenario of these kinds is one combined row over every input.
_COMBINED_JOINS = set(m.MERGES.values()) - m.PER_INPUT_MERGES

_JOIN_KIND_OF = {kind: join for join, kind in m.MERGES.items()}


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
    return [item.actions for item in scenario.then]


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
            inputs=tuple(
                m.InBranch(src, ev, acts) for src, ev, acts in self.inputs if src is not None
            ),
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
    def __init__(self, doc: FeatureDoc):
        self.doc = doc
        # the mode stamp, spelled as in ``model.MODES`` when it names a mode
        self.mode = (doc.mode_hint or "").replace("-", "_")
        self.hints = doc.hints
        self.initial = self.hints.initial or m.DEFAULT_INITIAL
        self.final = self.hints.final or m.DEFAULT_FINAL
        self.diags: list[Diagnostic] = []
        # insertion-ordered: state order is output, hinted states first
        self.state_order: dict[str, None] = {}
        for name in self.hints.states:
            self.note_state(name)
        self.roles: dict[str, str] = {}
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
        if path not in (self.initial, self.final):
            self.state_order.update(dict.fromkeys(m.chain(path)))

    def is_state(self, atom: str) -> bool:
        return self.roles.get(atom) == "state"

    def sink_for(self, scenario_name: str) -> str:
        name = f"_after_{_slug(scenario_name)}"
        while name in self.state_order or name in self.roles:
            self.sink_counter += 1
            name = f"_after_{_slug(scenario_name)}_{self.sink_counter}"
        self.note_state(name)
        self.warn("SyntheticTarget", scenario_name, f"no resulting state; synthesized {name}")
        return name

    def target_of(self, row: _Row) -> str:
        return row.targets[0] if row.targets else self.sink_for(row.scenario.name)

    def with_sink(self, draft: _Draft, name: str) -> _Draft:
        """``draft``, given a sink after scenario ``name`` if it has no output."""
        draft.outputs = draft.outputs or [(self.sink_for(name), None, (), False)]
        return draft

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

    # -- term roles ------------------------------------------------------------

    def _roles(self, shapes: dict[str, str]) -> dict[str, str]:
        """One role per term for the whole document; see the module docstring.

        ``shapes`` are the named route's seeds, empty for the structural one.
        """
        roles: dict[str, str] = {}
        for key in ("states", "events", "guards", "actions"):  # each a role's plural
            roles.update(dict.fromkeys(getattr(self.hints, key), key[:-1]))
        roles[self.initial] = roles[self.final] = "state"

        for atom, role in shapes.items():
            roles.setdefault(atom, role)

        def seed(atoms, role):
            for atom in atoms:
                roles.setdefault(atom, role)

        rows = [(s.given, s.when, _chunks_of(s)) for s in self.scenarios]
        terms = [t for g, w, _ in rows for t in (*g, *w) if t.atom != COMPLETION_EVENT]
        then_atoms = dict.fromkeys(a for _, _, chunks in rows for c in chunks for a in c)
        in_given = {t.atom for g, _, _ in rows for t in g}
        in_when = {t.atom for _, w, _ in rows for t in w} - {COMPLETION_EVENT}
        seed((a for a in (*(t.atom for t in terms), *then_atoms) if "." in a), "state")
        seed((t.atom for t in terms if t.negated), "guard")
        for atom in sorted({g[0].atom for g, _, _ in rows if not g[0].negated}):
            if roles.setdefault(atom, "state") != "state":
                self.warn("AmbiguousTerm", atom, "GIVEN head also classified as a non-state")
        seed((c[-1][-1] for _, _, c in rows if c[-1][-1] in in_given), "state")

        # propagate to a fixpoint, revisiting the rows of each new state
        rows_of: dict[str, list[int]] = {}
        for i, (g, _, chunks) in enumerate(rows):
            for atom in {t.atom for t in g}.union(c[0] for c in chunks if len(c) == 1):
                rows_of.setdefault(atom, []).append(i)
        todo = list(range(len(rows)))
        while todo:
            g, _, chunks = rows[todo.pop()]
            last = max(
                (k for k, t in enumerate(g) if not t.negated and roles.get(t.atom) == "state"),
                default=0,
            )
            found = [t.atom for t in g[:last] if not t.negated]
            first = next(
                (k for k, c in enumerate(chunks) if len(c) == 1 and roles.get(c[0]) == "state"),
                len(chunks),
            )
            found += [c[0] for c in chunks[first + 1 :] if len(c) == 1]
            for atom in found:
                if atom not in roles:
                    roles[atom] = "state"
                    todo.extend(rows_of[atom])

        seed(in_given, "guard")
        for atom in sorted(in_when):
            if atom not in roles:
                roles[atom] = "event"
                if atom not in then_atoms:
                    self.warn(
                        "AmbiguousTerm",
                        atom,
                        "bare WHEN term defaulted to event (could be a guard)",
                    )
        seed(then_atoms, "action")
        roles.pop(COMPLETION_EVENT, None)  # no role: see ``read``
        return roles

    def read(self, scenario: Scenario, index: int = 0) -> _Row:
        """Read one row over the role table; its sources and targets are noted."""
        sources, lits = _split_given(scenario.given, self.is_state)
        events: list[str] = []
        for term in scenario.when:
            if term.atom == COMPLETION_EVENT:
                continue
            if self.roles.get(term.atom) == "guard":
                lits.append((term.atom, term.negated))
            else:
                events.append(term.atom)
        if not sources:
            self.warn("AmbiguousTerm", scenario.name, "GIVEN names no state; the row has no input")
        actions, targets = _peel(_chunks_of(scenario), self.is_state)
        if COMPLETION_EVENT in actions:
            actions = [a for a in actions if a != COMPLETION_EVENT]
            self.diags.append(Diagnostic(
                "ReservedName", "error", scenario.name,
                f"THEN names the completion event {COMPLETION_EVENT}, which is not an action; dropped",
            ))
        for name in (*sources, *targets):
            self.note_state(name)
        return _Row(scenario, sources, lits, events, actions, targets, index)

    # -- folds shared by both routes ------------------------------------------

    def one_row(self, order, tid, row: _Row, targets) -> _Draft:
        """A transition read from one row, every source into every target.

        A lone input carries the row's actions, as the DSL reads them back.
        """
        lone = len(row.sources) == 1
        for src in row.sources:
            for t in targets:
                self.note_entry(src, t)
        draft = _Draft(
            order,
            tid,
            inputs=[(src, None, tuple(row.actions) if lone else ()) for src in row.sources],
            outputs=[(t, None, (), False) for t in targets],
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

    def fold_join(self, order, tid, parts: list[_Draft], join_kind: str) -> _Draft:
        """A join over transitions read from one input each: their first
        inputs, the common action suffix shared, and the outputs of the
        first part that has any.

        Where parts disagree, the first part's guard, outputs and shared
        event win and each disagreement is a warning.
        """
        if len({d.shared_guard for d in parts}) > 1:
            self.warn("AmbiguousTerm", tid, "merge branches disagree on guard literals")
        named = [d for d in parts if d.outputs]
        for d in named[1:]:
            if [o[0] for o in d.outputs] != [o[0] for o in named[0].outputs]:
                self.warn("AmbiguousTerm", tid, "merge branches disagree on target")
        shape = (named or parts)[0]
        actions = [sum((acts for _, _, acts in d.inputs), ()) + d.shared_actions for d in parts]
        suffix = _common_suffix(actions)
        draft = _Draft(
            order,
            tid,
            inputs=[],
            outputs=shape.outputs,
            join_kind=join_kind,
            split_kind=shape.split_kind,
            shared_guard=parts[0].shared_guard,
            shared_actions=suffix,
        )
        for d, acts in zip(parts, actions):
            if d.shared_event:
                if draft.shared_event is None:
                    draft.shared_event = d.shared_event
                elif draft.shared_event != d.shared_event:
                    self.warn("AmbiguousTerm", tid, "merge branches disagree on shared event")
            src, event, _ = d.inputs[0] if d.inputs else (None, None, ())
            draft.inputs.append((src, event, acts[: len(acts) - len(suffix)]))
        return draft

    def fold_choice(self, order, tid, rows: list[_Row]) -> _Draft:
        """An or-split over a guard-subset family: the single-guard rows come
        first and the row with every guard last, as the emitter lists them.

        Outputs follow the last row's targets, mandatory ones unguarded;
        a branch whose target that row does not name comes after them.
        Every source of the last row is an input.
        """
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
            for src in full.sources:
                self.note_entry(src, t)
        draft = _Draft(
            order,
            tid,
            inputs=[(src, None, ()) for src in full.sources or [None]],
            outputs=outputs,
            split_kind="or",
            shared_guard=tuple(shared_lits) or None,
            shared_actions=tuple(prefix),
        )
        self.attach_events(draft, full.events, full.scenario.name)
        return draft

    # -- named reconstruction --------------------------------------------------

    def shape_roles(self, groups) -> dict[str, str]:
        """The named route's seeds, in document order: WHEN terms are events,
        but for an atom the document negates somewhere, which ``_roles``
        then reads as a guard (a paper-exact ExclusiveChoice row puts its
        guard literals in WHEN); in a strict row the last chunk, and every
        chunk after a multi-atom trace, is a result state; a paper-exact
        merge row ends in its target; a combined join row lists its sources
        before its first guard."""
        strict = self.mode == "strict"
        negated = {t.atom for s in self.scenarios for t in (*s.given, *s.when) if t.negated}
        shapes: dict[str, str] = {}
        for kind, _tid, scens in groups:
            for s in scens:
                for t in s.when:
                    if t.atom != COMPLETION_EVENT and t.atom not in negated:
                        shapes.setdefault(t.atom, "event")
                chunks = _chunks_of(s)
                ends = [chunks[-1]] if strict or kind in _SHAPE_CARRIES_TARGET else []
                if strict and len(chunks[0]) > 1:
                    ends += chunks[1:]
                if len(scens) == 1 and kind in _COMBINED_JOINS:
                    for t in s.given:
                        if t.negated or t.atom in self.hints.guards:
                            break
                        shapes.setdefault(t.atom, "state")
                for c in ends:
                    if len(c) == 1:
                        shapes.setdefault(c[0], "state")
        return shapes

    def infer_named(self, groups) -> list[_Draft]:
        """Each group read as the strict row table in reverse: rows with one
        GIVEN source list and WHEN event list share one consumed set, whose
        fired cases fold into a choice (several rows, or a multiple choice's
        one) or are one row with every target; several consumed sets, or a
        per-input merge's one, fold into a join.  Paper-exact parallel
        splits list one row per output instead."""
        drafts: list[_Draft] = []
        for order, (kind, tid, scens) in enumerate(groups):
            rows = [self.read(s) for s in scens]
            if kind == PatternKind.PARALLEL_SPLIT and self.mode != "strict" and len(rows) > 1:
                drafts.append(self.fold_split(order, tid, rows))
                continue
            sets: dict[tuple, list[_Row]] = {}
            for r in rows:
                sets.setdefault((tuple(r.sources), tuple(r.events)), []).append(r)
            joined = len(sets) > 1 or kind in m.PER_INPUT_MERGES
            parts = [
                self.fold_choice(order, tid, part)
                if len(part) > 1 or kind == PatternKind.MULTIPLE_CHOICE
                else self.one_row(order, tid, part[0], part[0].targets)
                for part in sets.values()
            ]
            join_kind = _JOIN_KIND_OF.get(kind, "none")
            draft = self.fold_join(order, tid, parts, join_kind) if joined else parts[0]
            draft.join_kind = join_kind
            drafts.append(self.with_sink(draft, scens[0].name))
        return drafts

    # -- structural reconstruction ----------------------------------------------

    def infer_structural(self) -> list[_Draft]:
        rows = [self.read(s, i) for i, s in enumerate(self.scenarios)]
        for row in rows:
            chunks = _chunks_of(row.scenario)
            if len(chunks) > 1 and not row.targets and chunks[-1][-1] != COMPLETION_EVENT:
                self.warn(
                    "AmbiguousTerm",
                    row.scenario.name,
                    f"trailing term {chunks[-1][-1]!r} defaulted to action",
                )
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
            if set(positives) != set(map(frozenset, m.nonempty_subsets(union))):
                continue
            family = sorted(members, key=lambda r: sum(not neg for _, neg in r.lits))
            fold(members, self.fold_choice(members[0].index, next(ids), family))

        # identical GIVEN and WHEN fold into and-splits
        for members in groups(lambda r: (r.source, tuple(r.lits), tuple(r.events))):
            if len(members) > 1:
                fold(members, self.fold_split(members[0].index, next(ids), members))

        # the same targets and last action across distinct sources fold into joins
        for members in groups(lambda r: (tuple(r.targets), r.actions[-1]) if r.actions else None):
            if len(members) > 1 and len({r.source for r in members}) == len(members):
                parts = [self.one_row(0, "", r, r.targets) for r in members]
                draft = self.fold_join(members[0].index, next(ids), parts, "and")
                fold(members, self.with_sink(draft, members[0].scenario.name))
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
        children: dict[str | None, list[str]] = {}
        for p in self.state_order:
            children.setdefault(m.parent_path(p), []).append(p)
        for parent in sorted(p for p in children if p is not None):
            if parent not in self.initial_children:
                self.initial_children[parent] = children[parent][0]
                self.warn(
                    "AmbiguousInitialChild",
                    parent,
                    f"never entered from outside; defaulting to {children[parent][0]}",
                )
        return ProcessModel(
            title=self.doc.title,
            role=self.doc.role,
            feature=self.doc.feature,
            benefit=self.doc.benefit,
            initial_name=self.initial,
            final_name=self.final,
            states=m.state_tree(
                children,
                lambda path, kids: m.StateNode(
                    path.rsplit(".", 1)[-1], path, children=kids, initial_child=self.initial_children.get(path)
                ),
            ),
            transitions=tuple(d.build() for d in drafts),
        )

    def run(self):
        order: list[str] = []
        grouped: dict[str, tuple[PatternKind, list[Scenario]]] = {}
        all_named = bool(self.scenarios) and self.mode in m.MODES
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
        groups = [(grouped[tid][0], tid, grouped[tid][1]) for tid in order] if all_named else []

        shapes = self.shape_roles(groups)
        self.roles = self._roles(shapes)
        # state order is output: states known by position come first, in
        # document order (GIVEN heads and dotted names, then a strict
        # document's shape seeds), and rows note the rest as they are read
        known = []
        for s in self.scenarios:
            atoms = [t.atom for t in (*s.given, *s.when)] + [a for c in _chunks_of(s) for a in c]
            known += [s.given[0].atom, *(a for a in atoms if "." in a)]
        if self.mode == "strict":
            known += shapes
        for atom in known:
            if self.is_state(atom):
                self.note_state(atom)

        drafts = self.infer_named(groups) if all_named else self.infer_structural()
        model = self.build(drafts)
        self.diags.extend(m.validate(model))
        return model, self.diags


def infer_model(doc: FeatureDoc):
    """Rebuild a process model from a feature document, whose ``hints``
    are the only hints read.

    Returns ``(model, diagnostics)``; ambiguity never raises.
    """
    return _Inferrer(doc).run()


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
