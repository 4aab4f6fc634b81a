"""Statechart intermediate representation and its structural invariants.

The model is a hierarchical statechart: a forest of states (simple or
composite), one implicit initial pseudostate, an optional final pseudostate,
and transitions that may fan in (joins) and fan out (splits).  All values are
immutable after construction; every other module consumes this one.

Facts derived from a model (its path->node map, the name space table, the
leaf targets of multi-joins, its or-splits and its transitions keyed by
input source) live in a ``ModelIndex``.  Each fact is computed on first use
and then kept, so ``validate`` pays only for the name spaces it reads while
replay builds the rest once per model instead of once per scenario or step.  ``model_index`` keeps the index of one model at a
time, the last one asked for, compared by identity: replay, emission and
canonicalization work through one model after another, so one entry serves
them all, and an index is never kept for a model no longer in use.  (A cache
per model kept an index alive for each of 1,600 generated models in a
lint-and-explore run and raised its peak memory by 18 %.)
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import Diagnostic, UnknownState

IDENT_RE = re.compile(r"[A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)*$")

DEFAULT_INITIAL = "alpha"
DEFAULT_FINAL = "Beta"
# Placeholder WHEN term of a transition without an event; reserved as a name.
COMPLETION_EVENT = "_done"


def is_ident(text: str) -> bool:
    """True for a nonempty token of letters/digits/underscores, with dots
    only as interior hierarchy separators."""
    return bool(IDENT_RE.match(text))


@dataclass(frozen=True)
class GuardExpr:
    """Conjunction of possibly negated boolean atoms."""

    literals: tuple[tuple[str, bool], ...]  # (atom, negated)

    def atoms(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.literals)

    def holds(self, valuation) -> bool:
        return all(bool(valuation.get(a, False)) != neg for a, neg in self.literals)

    def render(self) -> str:
        return " and ".join(("not " if neg else "") + a for a, neg in self.literals)


def guard(*literals) -> GuardExpr:
    """Convenience constructor: ``guard("g1", ("g2", True))``."""
    out = []
    for lit in literals:
        if isinstance(lit, str):
            out.append((lit, False))
        else:
            out.append((lit[0], bool(lit[1])))
    return GuardExpr(tuple(out))


@dataclass(frozen=True)
class StateNode:
    """A state; composite when ``children`` is nonempty.

    ``name`` is the local segment; ``path`` the dot-qualified location.
    ``initial_child`` holds the qualified path of the default child.
    """

    name: str
    path: str
    entry_actions: tuple[str, ...] = ()
    exit_actions: tuple[str, ...] = ()
    children: tuple["StateNode", ...] = ()
    initial_child: str | None = None

    @property
    def composite(self) -> bool:
        return bool(self.children)


@dataclass(frozen=True)
class Pseudostate:
    """Initial or final marker; resolvable like a state but carries nothing."""

    name: str
    kind: str  # "initial" | "final"

    @property
    def path(self) -> str:
        return self.name


@dataclass(frozen=True)
class InBranch:
    source: str
    event: str | None = None
    actions: tuple[str, ...] = ()


@dataclass(frozen=True)
class OutBranch:
    target: str
    guard: GuardExpr | None = None
    actions: tuple[str, ...] = ()
    mandatory: bool = False


@dataclass(frozen=True)
class TransitionDecl:
    id: str
    inputs: tuple[InBranch, ...]
    outputs: tuple[OutBranch, ...]
    join_kind: str = "none"  # none | and | xor | or | multi
    split_kind: str = "none"  # none | and | or
    shared_event: str | None = None
    shared_guard: GuardExpr | None = None
    shared_actions: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProcessModel:
    title: str = ""
    role: str = ""
    feature: str = ""
    benefit: str = ""
    initial_name: str = DEFAULT_INITIAL
    final_name: str = DEFAULT_FINAL
    states: tuple[StateNode, ...] = ()
    transitions: tuple[TransitionDecl, ...] = ()


class PatternKind(enum.Enum):
    SEQUENCE = "Sequence"
    PARALLEL_SPLIT = "ParallelSplit"
    SYNCHRONIZATION = "Synchronization"
    EXCLUSIVE_CHOICE = "ExclusiveChoice"
    SIMPLE_MERGE = "SimpleMerge"
    MULTIPLE_CHOICE = "MultipleChoice"
    SYNCHRONIZE_MERGE = "SynchronizeMerge"
    MULTIPLE_MERGE = "MultipleMerge"
    ENTRY_EXIT_CASE = "EntryExitCase"
    EMBEDDED_STATES = "EmbeddedStates"


JOIN_KINDS = ("none", "and", "xor", "or", "multi")
SPLIT_KINDS = ("none", "and", "or")
# Emission and replay modes, as library calls spell them.
MODES = ("paper_exact", "strict")


def normalize_mode(mode: str) -> str:
    """``mode`` spelled as in ``MODES`` (``paper-exact`` is accepted);
    raises ValueError for any other mode."""
    mode = mode.replace("-", "_")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return mode


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def iter_states(model: ProcessModel):
    """Depth-first, declaration-ordered iteration over all state nodes."""

    def walk(nodes):
        for node in nodes:
            yield node
            yield from walk(node.children)

    yield from walk(model.states)


def state_map(model: ProcessModel) -> dict[str, StateNode]:
    return dict(model_index(model).nodes)


def chain(path: str) -> list[str]:
    """Ancestor chain from outermost to the path itself."""
    parts = path.split(".")
    return [".".join(parts[: i + 1]) for i in range(len(parts))]


def parent_path(path: str) -> str | None:
    if "." not in path:
        return None
    return path.rsplit(".", 1)[0]


def resolve(model: ProcessModel, path: str):
    """Return the node at ``path`` (a state or a pseudostate).

    Raises UnknownState when nothing is declared there.
    """
    if path == model.initial_name:
        return Pseudostate(model.initial_name, "initial")
    if path == model.final_name:
        return Pseudostate(model.final_name, "final")
    node = model_index(model).nodes.get(path)
    if node is None:
        raise UnknownState(path)
    return node


def is_pseudostate(model: ProcessModel, path: str) -> bool:
    return path in (model.initial_name, model.final_name)


def leaf_path(model: ProcessModel, path: str) -> str:
    """Descend default children until a simple state (or pseudostate)."""
    return model_index(model).leaf(path)


def event_names(model: ProcessModel) -> set[str]:
    names = set()
    for t in model.transitions:
        if t.shared_event:
            names.add(t.shared_event)
        for b in t.inputs:
            if b.event:
                names.add(b.event)
    return names


def guard_atoms(model: ProcessModel) -> set[str]:
    atoms = set()
    for t in model.transitions:
        if t.shared_guard:
            atoms.update(t.shared_guard.atoms())
        for b in t.outputs:
            if b.guard:
                atoms.update(b.guard.atoms())
    return atoms


def action_names(model: ProcessModel) -> set[str]:
    names = set()
    for node in iter_states(model):
        names.update(node.entry_actions)
        names.update(node.exit_actions)
    for t in model.transitions:
        names.update(t.shared_actions)
        for b in t.inputs:
            names.update(b.actions)
        for b in t.outputs:
            names.update(b.actions)
    return names


def state_paths(model: ProcessModel) -> set[str]:
    return {node.path for node in iter_states(model)}


def namespaces(model: ProcessModel) -> dict[str, frozenset[str]]:
    """The four name spaces, in the order bare feature terms are classified:
    state (pseudostates included), event, guard, action."""
    return dict(model_index(model).spaces)


class ModelIndex:
    """Facts derived from one model, each computed on first use and kept.

    Get one through ``model_index``, which keeps the index of one model at
    a time.
    """

    def __init__(self, model: ProcessModel):
        self.model = model

    @cached_property
    def nodes(self) -> dict[str, StateNode]:
        """Path -> state node."""
        return {node.path: node for node in iter_states(self.model)}

    @cached_property
    def spaces(self) -> dict[str, frozenset[str]]:
        """The table ``namespaces`` returns."""
        model = self.model
        return {
            "state": frozenset(state_paths(model) | {model.initial_name, model.final_name}),
            "event": frozenset(event_names(model)),
            "guard": frozenset(guard_atoms(model)),
            "action": frozenset(action_names(model)),
        }

    @cached_property
    def multi_targets(self) -> frozenset[str]:
        """Leaves of the multi-join targets, the only paths that may hold
        more than one token."""
        return frozenset(
            self.leaf(b.target)
            for t in self.model.transitions
            if t.join_kind == "multi"
            for b in t.outputs
        )

    @cached_property
    def or_splits(self) -> tuple[TransitionDecl, ...]:
        return tuple(t for t in self.model.transitions if t.split_kind == "or")

    @cached_property
    def by_source(self) -> dict[str, list[int]]:
        """Input source -> positions of the transitions reading it."""
        out: dict[str, list[int]] = {}
        for i, t in enumerate(self.model.transitions):
            for b in t.inputs:
                out.setdefault(b.source, []).append(i)
        return out

    @cached_property
    def inputless(self) -> tuple[int, ...]:
        """Positions of the transitions with no inputs."""
        return tuple(i for i, t in enumerate(self.model.transitions) if not t.inputs)

    def candidates(self, counts: dict[str, int]) -> list[TransitionDecl]:
        """In declaration order, the transitions with an input on a path
        that holds a token in ``counts``, and those with no inputs (which
        ``all([])`` enables).  No other transition can fire."""
        picked = set(self.inputless)
        for path, n in counts.items():
            if n >= 1:
                picked.update(self.by_source.get(path, ()))
        transitions = self.model.transitions
        return [transitions[i] for i in sorted(picked)]

    def leaf(self, path: str) -> str:
        """See ``leaf_path``."""
        if is_pseudostate(self.model, path):
            return path
        node = self.nodes.get(path)
        if node is None:
            raise UnknownState(path)
        while node.composite and node.initial_child:
            node = self.nodes[node.initial_child]
        return node.path


_last_index: ModelIndex | None = None


def model_index(model: ProcessModel) -> ModelIndex:
    """The index of ``model``.  Only the index of the model last asked for
    is kept; asking for another model replaces it.  Models are immutable,
    so an index never goes stale, and the kept index holds its model, so
    the identity test cannot match a new model at a reused address."""
    global _last_index
    index = _last_index
    if index is None or index.model is not model:
        index = _last_index = ModelIndex(model)
    return index


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Configuration:
    """Multiset of active state paths, plus bookkeeping for or-splits.

    ``entries`` maps each active path to a token count (>= 1).  ``or_marks``
    records, per or-split transition id, which output branches its last
    firing activated; synchronizing merges consult it.
    """

    entries: tuple[tuple[str, int], ...] = ()
    or_marks: tuple[tuple[str, tuple[int, ...]], ...] = ()

    @staticmethod
    def of(*paths: str, or_marks=()) -> "Configuration":
        counts: dict[str, int] = {}
        for p in paths:
            counts[p] = counts.get(p, 0) + 1
        return Configuration(tuple(sorted(counts.items())), tuple(sorted(or_marks)))

    def counts(self) -> dict[str, int]:
        return dict(self.entries)

    def active(self, path: str) -> bool:
        return self.counts().get(path, 0) > 0

    def paths(self) -> list[str]:
        """Active paths with multiplicity, sorted."""
        out = []
        for path, n in self.entries:
            out.extend([path] * n)
        return out

    def mark(self, transition_id: str):
        for tid, branches in self.or_marks:
            if tid == transition_id:
                return branches
        return None


def initial_configuration(model: ProcessModel) -> Configuration:
    """The starting configuration: one token on the initial pseudostate."""
    return Configuration.of(model.initial_name)


def _claim_children(child_of: dict[str, str], path: str) -> tuple[str, str, str] | None:
    """Record in ``child_of`` the child each ancestor of ``path`` is entered
    through.  Returns (state, recorded child, new child) when ``path`` needs a
    second child of a state, since no two children are ever active together."""
    segs = chain(path)
    for parent, child in zip(segs, segs[1:]):
        seen = child_of.setdefault(parent, child)
        if seen != child:
            return parent, seen, child
    return None


def legal_configuration(model: ProcessModel, config: Configuration) -> str | None:
    """Return None when legal, else a human-readable reason.

    Legality: every entry resolves; counts above one appear only on targets
    of multi-joins; no two active paths descend through different children
    of the same composite.
    """
    multi_targets = model_index(model).multi_targets
    child_of: dict[str, str] = {}
    for path, count in config.entries:
        try:
            resolve(model, path)
        except UnknownState:
            return f"unknown state {path}"
        if count < 1:
            return f"nonpositive count on {path}"
        if count > 1 and path not in multi_targets:
            return f"count {count} on {path} which is not a multi-join target"
        conflict = _claim_children(child_of, path)
        if conflict:
            return "two active children of {}: {} and {}".format(*conflict)
    return None


# ---------------------------------------------------------------------------
# Firing geometry (shared by emission, replay and canonicalization)
# ---------------------------------------------------------------------------


def nonempty_subsets(items) -> list[tuple]:
    """All nonempty subsets of ``items``, smallest first, then by order."""
    items = list(items)
    return [
        tuple(items[i] for i in picked)
        for size in range(1, len(items) + 1)
        for picked in combinations(range(len(items)), size)
    ]


@dataclass(frozen=True)
class OutputPlan:
    branch: OutBranch
    index: int
    entered: tuple[str, ...]  # paths entered, outermost first
    entry_actions: tuple[str, ...]
    leaf: str  # resulting active path


@dataclass(frozen=True)
class FiringPlan:
    """Everything a single firing touches, in execution order."""

    transition: TransitionDecl
    consumed: tuple[InBranch, ...]
    exited: tuple[str, ...]  # innermost first
    exit_actions: tuple[str, ...]
    input_actions: tuple[str, ...]
    shared_actions: tuple[str, ...]
    outputs: tuple[OutputPlan, ...]

    def trace(self) -> list[str]:
        out = list(self.exit_actions)
        out.extend(self.input_actions)
        out.extend(self.shared_actions)
        for plan in self.outputs:
            out.extend(plan.branch.actions)
            out.extend(plan.entry_actions)
        return out

    def result_leaves(self) -> list[str]:
        return [plan.leaf for plan in self.outputs]


def _common_depth(a: str, b: str) -> int:
    ca, cb = chain(a), chain(b)
    depth = 0
    for xa, xb in zip(ca, cb):
        if xa != xb:
            break
        depth += 1
    return depth


def firing_plan(
    model: ProcessModel,
    transition: TransitionDecl,
    consumed: tuple[InBranch, ...] | None = None,
    fired_outputs: tuple[int, ...] | None = None,
) -> FiringPlan:
    """Compute exits, entries and the action order for one firing.

    ``consumed`` defaults to all inputs; ``fired_outputs`` to all outputs.
    Exit actions run innermost-first, entry actions outermost-first, and a
    composite entered through its boundary descends to its default child.
    """
    index = model_index(model)
    nodes = index.nodes
    if consumed is None:
        consumed = transition.inputs
    if fired_outputs is None:
        fired_outputs = tuple(range(len(transition.outputs)))
    targets = [transition.outputs[i].target for i in fired_outputs]

    exited: list[str] = []
    exit_actions: list[str] = []
    for branch in consumed:
        src = branch.source
        if is_pseudostate(model, src):
            continue
        keep = min((_common_depth(src, t) for t in targets), default=0)
        segs = chain(src)
        for path in reversed(segs[keep:]):
            if path in exited:
                continue
            exited.append(path)
            node = nodes.get(path)
            if node is not None:
                exit_actions.extend(node.exit_actions)

    input_actions: list[str] = []
    for branch in consumed:
        input_actions.extend(branch.actions)

    entered_all: set[str] = set()
    outputs: list[OutputPlan] = []
    sources = [b.source for b in consumed]
    for i in fired_outputs:
        branch = transition.outputs[i]
        target = branch.target
        if is_pseudostate(model, target):
            outputs.append(OutputPlan(branch, i, (target,), (), target))
            continue
        keep = max((_common_depth(target, s) for s in sources), default=0)
        entered = [p for p in chain(target)[keep:] if p not in entered_all]
        # Descend through default children below the boundary target.
        leaf = index.leaf(target)
        for p in chain(leaf):
            if len(p) > len(target) and p.startswith(target + ".") and p not in entered_all:
                if p not in entered:
                    entered.append(p)
        entry_actions: list[str] = []
        for p in entered:
            node = nodes.get(p)
            if node is not None:
                entry_actions.extend(node.entry_actions)
            entered_all.add(p)
        outputs.append(OutputPlan(branch, i, tuple(entered), tuple(entry_actions), leaf))

    return FiringPlan(
        transition=transition,
        consumed=tuple(consumed),
        exited=tuple(exited),
        exit_actions=tuple(exit_actions),
        input_actions=tuple(input_actions),
        shared_actions=tuple(transition.shared_actions),
        outputs=tuple(outputs),
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _diag(code: str, location: str, message: str) -> Diagnostic:
    return Diagnostic(code=code, severity="error", location=location, message=message)


def validate(model: ProcessModel) -> list[Diagnostic]:
    """Check every structural invariant; returns all violations, never just
    the first.  An empty report means the model is well formed."""
    report: list[Diagnostic] = []

    for name, what in ((model.initial_name, "initial"), (model.final_name, "final")):
        if not is_ident(name) or "." in name:
            report.append(_diag("BadIdent", name, f"bad {what} pseudostate name"))
    if model.initial_name == model.final_name:
        report.append(
            _diag("ReservedName", model.initial_name, "initial and final names collide")
        )

    paths: set[str] = set()
    for node in iter_states(model):
        if not is_ident(node.name) or "." in node.name:
            report.append(_diag("BadIdent", node.path, "state name is not a plain token"))
        if node.path in (model.initial_name, model.final_name):
            report.append(_diag("ReservedName", node.path, "state shadows a pseudostate"))
        if node.path in paths:
            report.append(_diag("DuplicateStateName", node.path, "duplicate state path"))
        paths.add(node.path)
        seen_children = set()
        for child in node.children:
            if child.name in seen_children:
                report.append(
                    _diag("DuplicateStateName", child.path, "duplicate sibling name")
                )
            seen_children.add(child.name)
        if node.composite:
            child_paths = {c.path for c in node.children}
            if node.initial_child is None:
                report.append(
                    _diag("MissingInitialChild", node.path, "composite lacks an initial child")
                )
            elif node.initial_child not in child_paths:
                report.append(
                    _diag(
                        "BadInitialChild",
                        node.path,
                        f"initial child {node.initial_child} is not a child",
                    )
                )
        elif node.initial_child is not None:
            report.append(
                _diag("BadInitialChild", node.path, "simple state declares an initial child")
            )

    def check_plain(name: str, what: str, location: str):
        if not is_ident(name) or "." in name:
            report.append(_diag("BadIdent", location, f"bad {what} name {name!r}"))

    def check_guard(g: GuardExpr, location: str):
        if not g.literals:
            report.append(_diag("EmptyGuard", location, "guard has no literals"))
        seen = set()
        for atom, _ in g.literals:
            check_plain(atom, "guard atom", location)
            if atom in seen:
                report.append(
                    _diag("DuplicateGuardAtom", location, f"atom {atom} repeated")
                )
            seen.add(atom)

    tids: set[str] = set()
    for t in model.transitions:
        loc = t.id
        if not is_ident(t.id) or "." in t.id:
            report.append(_diag("BadIdent", loc, "bad transition id"))
        if t.id in tids:
            report.append(_diag("DuplicateTransitionId", loc, "duplicate transition id"))
        tids.add(t.id)
        if t.join_kind not in JOIN_KINDS:
            report.append(_diag("BadKind", loc, f"unknown join kind {t.join_kind!r}"))
        if t.split_kind not in SPLIT_KINDS:
            report.append(_diag("BadKind", loc, f"unknown split kind {t.split_kind!r}"))
        if not t.inputs:
            report.append(_diag("EmptyInputs", loc, "transition has no inputs"))
        if not t.outputs:
            report.append(_diag("EmptyOutputs", loc, "transition has no outputs"))
        if len(t.inputs) > 1 and t.join_kind == "none":
            report.append(_diag("JoinKindRequired", loc, "multiple inputs need a join kind"))
        if len(t.outputs) > 1 and t.split_kind == "none":
            report.append(_diag("SplitKindRequired", loc, "multiple outputs need a split kind"))
        if t.join_kind == "and":
            child_of: dict[str, str] = {}
            for b in t.inputs:
                conflict = _claim_children(child_of, b.source)
                if conflict:
                    report.append(
                        _diag(
                            "UnsatisfiableJoin",
                            loc,
                            "and-join inputs {1} and {2} are different children "
                            "of {0}, never active together".format(*conflict),
                        )
                    )
                    break
        if t.split_kind == "or" and not any(b.guard for b in t.outputs):
            report.append(
                _diag("OrSplitNeedsGuardedOutput", loc, "or-split has no guarded output")
            )
        if t.split_kind == "and" and any(b.guard for b in t.outputs):
            report.append(_diag("AndSplitForbidsGuards", loc, "and-split outputs are guarded"))
        if t.shared_event:
            check_plain(t.shared_event, "event", loc)
        if t.shared_guard:
            check_guard(t.shared_guard, loc)
        for a in t.shared_actions:
            check_plain(a, "action", loc)
        for b in t.inputs:
            if b.source == model.final_name:
                report.append(_diag("TransitionFromFinal", loc, "final pseudostate as source"))
            elif b.source != model.initial_name and b.source not in paths:
                report.append(
                    _diag("UnresolvedEndpoint", loc, f"unknown source {b.source}")
                )
            if b.event:
                check_plain(b.event, "event", loc)
            for a in b.actions:
                check_plain(a, "action", loc)
        for b in t.outputs:
            if b.target == model.initial_name:
                report.append(_diag("TransitionToInitial", loc, "initial pseudostate as target"))
            elif b.target != model.final_name and b.target not in paths:
                report.append(
                    _diag("UnresolvedEndpoint", loc, f"unknown target {b.target}")
                )
            if b.guard:
                check_guard(b.guard, loc)
            for a in b.actions:
                check_plain(a, "action", loc)

    for node in iter_states(model):
        for a in node.entry_actions + node.exit_actions:
            check_plain(a, "action", node.path)

    spaces = model_index(model).spaces
    for kind, names in spaces.items():
        if COMPLETION_EVENT in names:
            report.append(
                _diag(
                    "ReservedName",
                    COMPLETION_EVENT,
                    f"{kind} name {COMPLETION_EVENT} is reserved for the completion event",
                )
            )
    kinds = list(spaces)
    for i, ka in enumerate(kinds):
        for kb in kinds[i + 1 :]:
            for name in sorted(spaces[ka] & spaces[kb]):
                report.append(
                    _diag(
                        "NamespaceCollision",
                        name,
                        f"name used both as {ka} and as {kb}",
                    )
                )

    return report
