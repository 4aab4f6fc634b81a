"""Statechart intermediate representation and its structural invariants.

The model is a hierarchical statechart: a forest of states (simple or
composite), one implicit initial pseudostate, an optional final pseudostate,
and transitions that may fan in (joins) and fan out (splits).  All values are
immutable after construction; every other module consumes this one.

Facts derived from a model live in a ``ModelIndex``: its state nodes in
walk order and its path->node map, each state's default child, which every
default-child descent reads, the name space table, the kind a feature term
is read as, the leaf targets of multi-joins, its transitions keyed by input
source, the or-split outputs feeding each transition's inputs, its
exclusive-choice families, and each transition's workflow pattern with the
or-splits feeding it.
Classification, lint, emission and canonicalization all read that one
pattern table, built from ``MERGES`` and ``SPLITS``, and replay synchronizes
an or-join by the same feeds.  Each fact is computed on first use and then
kept, so ``validate`` pays only for the state walk and name spaces it reads
while replay builds the rest once per model instead of once per scenario or
step.
``model_index`` keeps the index of one model at a time, the last one asked
for, compared by identity: replay, emission and canonicalization work
through one model after another, so one entry serves them all, and a run
over many models holds no index beside each one.

The value types are declared with ``values.value_type``: frozen, slotted
dataclasses, so a model, state, branch, transition, guard or configuration
carries no per-instance ``__dict__``, built by an ``__init__`` that stores
each field through its slot instead of through ``object.__setattr__``.
They stay immutable: assigning a field raises ``FrozenInstanceError``.
"""

from __future__ import annotations

import enum
import itertools
import re
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .errors import Diagnostic, TooManyChoiceBranches, UnknownState
from .values import value_type

IDENT_RE = re.compile(r"[A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)*\Z")

DEFAULT_INITIAL = "alpha"
DEFAULT_FINAL = "Beta"
# Placeholder WHEN term of a transition without an event; reserved as a name.
COMPLETION_EVENT = "_done"


def is_ident(text: str) -> bool:
    """True for a nonempty token of letters/digits/underscores, with dots
    only as interior hierarchy separators."""
    return bool(IDENT_RE.match(text))


def _is_plain(text: str) -> bool:
    """True for an ``is_ident`` token with no dot: a name, not a path."""
    return "." not in text and is_ident(text)


@value_type
class GuardExpr:
    """Conjunction of possibly negated boolean atoms."""

    literals: tuple[tuple[str, bool], ...]  # (atom, negated)

    def atoms(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.literals)

    def holds(self, valuation) -> bool:
        for a, neg in self.literals:
            if bool(valuation.get(a, False)) == neg:
                return False
        return True

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


@value_type
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


@value_type
class Pseudostate:
    """Initial or final marker; resolvable like a state but carries nothing."""

    name: str
    kind: str  # "initial" | "final"

    @property
    def path(self) -> str:
        return self.name


@value_type
class InBranch:
    source: str
    event: str | None = None
    actions: tuple[str, ...] = ()


@value_type
class OutBranch:
    target: str
    guard: GuardExpr | None = None
    actions: tuple[str, ...] = ()
    mandatory: bool = False


@value_type
class TransitionDecl:
    id: str
    inputs: tuple[InBranch, ...]
    outputs: tuple[OutBranch, ...]
    join_kind: str = "none"  # none | and | xor | or | multi
    split_kind: str = "none"  # none | and | or
    shared_event: str | None = None
    shared_guard: GuardExpr | None = None
    shared_actions: tuple[str, ...] = ()


@value_type
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
# The pattern a join reads as; an and-join that an or-split feeds is a
# SynchronizeMerge instead (``ModelIndex.synchronizing``).
MERGES = {
    "and": PatternKind.SYNCHRONIZATION,
    "or": PatternKind.SYNCHRONIZE_MERGE,
    "xor": PatternKind.SIMPLE_MERGE,
    "multi": PatternKind.MULTIPLE_MERGE,
}
# Joins whose strict rows fire one input each, so each input's trace shows.
PER_INPUT_JOINS = ("xor", "multi")
PER_INPUT_MERGES = frozenset(MERGES[join] for join in PER_INPUT_JOINS)
# The pattern a split reads as when its transition does not join.
SPLITS = {"and": PatternKind.PARALLEL_SPLIT, "or": PatternKind.MULTIPLE_CHOICE}
# Or-split scenario enumeration covers at most this many guarded branches.
MAX_CHOICE_BRANCHES = 10
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


def iter_states(model: ProcessModel) -> list[StateNode]:
    """All state nodes, depth first in declaration order, gathered in one
    loop (``ModelIndex.all_nodes`` keeps them)."""
    nodes: list[StateNode] = []
    stack = list(reversed(model.states))
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack += reversed(node.children)
    return nodes


def chain(path: str) -> list[str]:
    """Ancestor chain from outermost to the path itself."""
    if "." not in path:
        return [path]
    parts = path.split(".")
    return [".".join(parts[: i + 1]) for i in range(len(parts))]


def parent_path(path: str) -> str | None:
    if "." not in path:
        return None
    return path.rsplit(".", 1)[0]


def state_tree(children: dict[str | None, list[str]], make) -> tuple[StateNode, ...]:
    """The top nodes of the tree ``children`` maps parent paths (``None``: the top) to, each
    made by ``make(path, child nodes)``; deepest paths first, so no depth exhausts the stack."""
    built: dict[str, StateNode] = {}
    for path in sorted((p for kids in children.values() for p in kids), key=lambda p: -p.count(".")):
        built[path] = make(path, tuple(built[c] for c in children.get(path, ())))
    return tuple(built[p] for p in children.get(None, ()))


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


def effective_guard_literals(t: TransitionDecl) -> tuple[tuple[str, bool], ...]:
    """Shared guard plus, for single-output transitions, the output guard."""
    lits: list[tuple[str, bool]] = []
    if t.shared_guard:
        lits.extend(t.shared_guard.literals)
    if len(t.outputs) == 1 and t.outputs[0].guard:
        lits.extend(t.outputs[0].guard.literals)
    return tuple(lits)


def namespaces(model: ProcessModel) -> dict[str, frozenset[str]]:
    """The four name spaces, in the order bare feature terms are classified:
    state (pseudostates included), event, guard, action."""
    return dict(model_index(model).spaces)


class ModelIndex:
    """Facts derived from one model, each computed on first use and kept,
    so a caller pays only for the facts it reads: ``lint`` tests or-joins on
    ``or_feeds``, and only ``classify``, emission and ``canon`` build
    ``patterns``.

    Get one through ``model_index``, which keeps the index of one model at
    a time.
    """

    def __init__(self, model: ProcessModel):
        self.model = model

    @cached_property
    def all_nodes(self) -> tuple[StateNode, ...]:
        """Every state node, in ``iter_states`` order: a path declared twice
        has a node for each declaration."""
        return tuple(iter_states(self.model))

    @cached_property
    def nodes(self) -> dict[str, StateNode]:
        """Path -> state node."""
        return {node.path: node for node in self.all_nodes}

    @cached_property
    def spaces(self) -> dict[str, frozenset[str]]:
        """The table ``namespaces`` returns, read off ``all_nodes`` and one
        pass over the transitions."""
        model, nodes = self.model, self.all_nodes
        transitions = model.transitions
        inputs = [b for t in transitions for b in t.inputs]
        outputs = [b for t in transitions for b in t.outputs]
        guards = [t.shared_guard for t in transitions] + [b.guard for b in outputs]
        actions = (
            [n.entry_actions for n in nodes]
            + [n.exit_actions for n in nodes]
            + [t.shared_actions for t in transitions]
            + [b.actions for b in inputs]
            + [b.actions for b in outputs]
        )
        events = [t.shared_event for t in transitions] + [b.event for b in inputs]
        return {
            "state": frozenset([model.initial_name, model.final_name] + [n.path for n in nodes]),
            "event": frozenset(filter(None, events)),
            "guard": frozenset(atom for g in guards if g for atom, _ in g.literals),
            "action": frozenset(itertools.chain.from_iterable(actions)),
        }

    @cached_property
    def kinds(self) -> dict[str, str]:
        """Name -> the first name space in ``spaces`` that holds it, the
        kind a bare feature term is read as."""
        out: dict[str, str] = {}
        for kind, names in self.spaces.items():
            for name in names:
                out.setdefault(name, kind)
        return out

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
    def defaults(self) -> dict[str, StateNode]:
        """Path -> its default child node, only where the state's initial
        child is one of its children.  Every default-child descent reads
        this table, so each step moves past its state in ``iter_states``
        order and every descent ends, on a model ``validate`` rejects too."""
        return {
            path: child
            for path, node in self.nodes.items()
            for child in node.children
            if child.path == node.initial_child
        }

    @cached_property
    def or_feeds(self) -> dict[str, list[tuple[str, dict[int, tuple[int, ...]]]]]:
        """Transition id -> the or-splits that feed its inputs, in
        declaration order, each as (or-split id, output index -> positions
        of the inputs that output feeds).  An or-split output feeds an input
        whose source is the output's target or that target's default leaf
        (``defaults``)."""
        defaults = self.defaults
        reaches: dict[str, list[tuple[int, int]]] = {}  # path -> (or-split, output)
        for n, s in enumerate(self.model.transitions):
            if s.split_kind == "or":
                for i, b in enumerate(s.outputs):
                    path = b.target
                    reaches.setdefault(path, []).append((n, i))
                    while child := defaults.get(path):
                        path = child.path
                    if path != b.target:
                        reaches.setdefault(path, []).append((n, i))
        out: dict[str, list[tuple[str, dict[int, tuple[int, ...]]]]] = {}
        transitions = self.model.transitions
        for t in transitions:
            fed: dict[int, dict[int, tuple[int, ...]]] = {}
            for j, b in enumerate(t.inputs):
                for n, i in reaches.get(b.source, ()):
                    outputs = fed.setdefault(n, {})
                    outputs[i] = outputs.get(i, ()) + (j,)
            if fed:
                out[t.id] = [(transitions[n].id, fed[n]) for n in sorted(fed)]
        return out

    @cached_property
    def choice_families(self) -> dict[str, list[TransitionDecl]]:
        """Source -> its guarded single-input, single-output transitions
        that neither join nor split, where it has two or more."""
        groups: dict[str, list[TransitionDecl]] = {}
        for t in self.model.transitions:
            if (
                len(t.inputs) == 1
                and len(t.outputs) == 1
                and t.split_kind == "none"
                and t.join_kind == "none"
                and effective_guard_literals(t)
            ):
                groups.setdefault(t.inputs[0].source, []).append(t)
        return {src: ts for src, ts in groups.items() if len(ts) >= 2}

    @cached_property
    def patterns(self) -> dict[str, tuple[PatternKind, tuple[str, ...]]]:
        """Transition id -> its workflow pattern and the sorted ids of the
        or-splits that feed its inputs (``or_feeds``).  A synchronizing merge
        (``synchronizing``) reads as SynchronizeMerge, any other join as in
        ``MERGES``, a split that does not join as in ``SPLITS``, a choice
        family member as an exclusive choice and any other transition as a
        sequence."""
        or_feeds, synchronizing = self.or_feeds, self.synchronizing
        family = {t.id for ts in self.choice_families.values() for t in ts}
        out: dict[str, tuple[PatternKind, tuple[str, ...]]] = {}
        for t in self.model.transitions:
            fed = tuple(sorted({split_id for split_id, _ in or_feeds.get(t.id, ())}))
            kind = (
                (PatternKind.SYNCHRONIZE_MERGE if t.id in synchronizing else MERGES.get(t.join_kind))
                or SPLITS.get(t.split_kind)
                or (PatternKind.EXCLUSIVE_CHOICE if t.id in family else PatternKind.SEQUENCE)
            )
            out[t.id] = (kind, fed)
        return out

    @cached_property
    def synchronizing(self) -> frozenset[str]:
        """Ids of the synchronizing merges (WCP-7), which replay fires by the
        or-join rule: or-joins, and the and-joins an or-split feeds."""
        return frozenset(
            t.id for t in self.model.transitions
            if t.join_kind == "or" or (t.join_kind == "and" and t.id in self.or_feeds)
        )

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

    def leaf(self, path: str) -> str:
        """See ``leaf_path``."""
        if path not in self.nodes and not is_pseudostate(self.model, path):
            raise UnknownState(path)
        while child := self.defaults.get(path):
            path = child.path
        return path


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


@value_type
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
    index = model_index(model)
    states, multi_targets = index.spaces["state"], index.multi_targets
    child_of: dict[str, str] = {}
    for path, count in config.entries:
        if path not in states:
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
    items = tuple(items)
    return [subset for size in range(1, len(items) + 1) for subset in combinations(items, size)]


def enumerate_choice_subsets(branches):
    """All nonempty subsets of ``branches``, smallest first, then by
    declaration order.  Raises TooManyChoiceBranches above 10 branches."""
    items = list(branches)
    if not items:
        raise ValueError("at least one branch is required")
    if len(items) > MAX_CHOICE_BRANCHES:
        raise TooManyChoiceBranches(len(items), MAX_CHOICE_BRANCHES)
    return nonempty_subsets(items)


def strict_rows(t: TransitionDecl) -> list[tuple[tuple[InBranch, ...], tuple[int, ...] | None]]:
    """The strict rows of ``t`` in emission order, as (consumed inputs, fired
    output indices): each consumed set (each input alone for a join in
    ``PER_INPUT_JOINS``, every input together otherwise) crossed with each
    fired case (an or-split's unguarded outputs with each nonempty subset of
    its guarded ones, else ``None``: every output).  A row's guard literals
    are ``row_literals(t, fired)``.  Emission, ``canon`` and ``explore`` read
    it.  Raises TooManyChoiceBranches above 10 guarded outputs."""
    fired = [None]
    if t.split_kind == "or":
        guarded = [i for i, b in enumerate(t.outputs) if b.guard]
        always = tuple(i for i, b in enumerate(t.outputs) if not b.guard)
        fired = [tuple(sorted(always + s)) for s in enumerate_choice_subsets(guarded)] if guarded else []
    consumed = [(b,) for b in t.inputs] if t.join_kind in PER_INPUT_JOINS else [t.inputs]
    return [(c, f) for c in consumed for f in fired]


def row_literals(t: TransitionDecl, fired: tuple[int, ...] | None) -> tuple[tuple[str, bool], ...]:
    """The guard literals of ``t``'s strict row firing ``fired``: the folded
    guard when every output fires (``None``); else the shared guard, each
    fired output's guard, then the first new literal of each unfired guarded
    output, negated.  An atom met before is skipped."""
    if fired is None:
        return effective_guard_literals(t)
    lits = dict(t.shared_guard.literals if t.shared_guard else ())  # atom -> negated
    outs = t.outputs
    for i in fired:
        for atom, neg in outs[i].guard.literals if outs[i].guard else ():
            lits.setdefault(atom, neg)
    for i, b in enumerate(outs):
        if b.guard and i not in fired:
            fresh = [(atom, not neg) for atom, neg in b.guard.literals if atom not in lits]
            lits.update(fresh[:1])
    return tuple(lits.items())


# ``firing_plan`` builds both with ``tuple.__new__``, skipping NamedTuple's Python ``__new__``.
class OutputPlan(NamedTuple):
    branch: OutBranch
    entry_actions: tuple[str, ...]
    leaf: str  # resulting active path


class FiringPlan(NamedTuple):
    """Everything a single firing runs, in execution order."""

    exit_actions: tuple[str, ...]
    actions: tuple[str, ...]  # input-branch actions, then shared actions
    outputs: tuple[OutputPlan, ...]
    trace: tuple[str, ...]  # the three fields' actions as they run
    leaves: tuple[str, ...]  # each output's resulting active path


def firing_plan(
    model: ProcessModel,
    transition: TransitionDecl,
    consumed: tuple[InBranch, ...] | None = None,
    fired_outputs: tuple[int, ...] | None = None,
) -> FiringPlan:
    """The exits, entries and action order of one firing.

    ``consumed`` defaults to all inputs; ``fired_outputs`` to all outputs.
    The firing leaves, innermost first, each state on a consumed source's
    chain that does not contain every fired target (the whole chain when no
    target fires).  It enters, outermost first, each state on a fired
    target's chain that contains no consumed source, then the target's
    default descendants, even one that is a consumed source.  No state is
    left or entered twice, and a pseudostate is neither left nor entered.
    A state contains a path exactly when it is on the path's ancestor chain.
    Raises UnknownState for an undeclared consumed source or fired target.
    """
    index = model_index(model)
    nodes, defaults = index.nodes, index.defaults
    initial, final = model.initial_name, model.final_name
    outs = transition.outputs
    fired = range(len(outs)) if fired_outputs is None else fired_outputs
    # the states that contain every fired target: a common prefix of chains
    around_targets: list[str] | tuple[str, ...] | None = None
    for i in fired:
        target = outs[i].target
        up = chain(target) if "." in target else (target,)
        around_targets = up if around_targets is None else [p for p in around_targets if p in up]
    around_targets = around_targets or ()

    # every state that contains a consumed source; those left are among them
    around_sources: set[str] = set()
    exit_actions: list[str] = []
    actions: list[str] = []
    for branch in transition.inputs if consumed is None else consumed:
        source = branch.source
        actions += branch.actions
        if source == initial or source == final:
            around_sources.update(chain(source))
            continue
        if source not in nodes:
            raise UnknownState(source)
        # innermost first; a state met again has its ancestors met too
        for path in reversed(chain(source)) if "." in source else (source,):
            if path in around_sources:
                break
            around_sources.add(path)
            if path not in around_targets:
                exit_actions += nodes[path].exit_actions if path in nodes else ()
    actions += transition.shared_actions

    trace = exit_actions + actions
    entered: set[str] = set()
    outputs: list[OutputPlan] = []
    leaves: list[str] = []
    for i in fired:
        branch = outs[i]
        target = branch.target
        trace += branch.actions
        if target == initial or target == final:
            outputs.append(tuple.__new__(OutputPlan, (branch, (), target)))
            leaves.append(target)
            continue
        node = nodes.get(target)
        if node is None:
            raise UnknownState(target)
        entry_actions: list[str] = []
        for path in chain(target) if "." in target else (target,):
            if path not in around_sources and path not in entered:
                entered.add(path)
                entry_actions += nodes[path].entry_actions if path in nodes else ()
        # default descendants: entered even when one is a consumed source
        while child := defaults.get(node.path):
            node = child
            if node.path not in entered:
                entered.add(node.path)
                entry_actions += node.entry_actions
        trace += entry_actions
        outputs.append(tuple.__new__(OutputPlan, (branch, tuple(entry_actions), node.path)))
        leaves.append(node.path)

    return tuple.__new__(FiringPlan, (tuple(exit_actions), tuple(actions), tuple(outputs), tuple(trace), tuple(leaves)))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _diag(code: str, location: str, message: str) -> Diagnostic:
    return Diagnostic(code=code, severity="error", location=location, message=message)


def validate(model: ProcessModel) -> list[Diagnostic]:
    """Check every structural invariant; returns all violations, never just
    the first.  An empty report means the model is well formed."""
    report: list[Diagnostic] = []
    initial, final = model.initial_name, model.final_name

    for name, what in ((initial, "initial"), (final, "final")):
        if not _is_plain(name):
            report.append(_diag("BadIdent", name, f"bad {what} pseudostate name"))
    if initial == final:
        report.append(_diag("ReservedName", initial, "initial and final names collide"))

    # every name that must be plain is tested at once: joined by dots, they
    # are one identifier with one dot per join exactly when each is plain;
    # each is tested, and located, only when that fails
    index = model_index(model)
    spaces = index.spaces
    names = [node.name for node in index.all_nodes] + [t.id for t in model.transitions]
    names += spaces["event"] | spaces["guard"] | spaces["action"]
    joined = ".".join(names)
    locate = not (is_ident(joined) and joined.count(".") == len(names) - 1)

    paths: set[str] = set()
    for node in index.all_nodes:
        path = node.path
        if locate and not _is_plain(node.name):
            report.append(_diag("BadIdent", path, "state name is not a plain token"))
        if path == initial or path == final:
            report.append(_diag("ReservedName", path, "state shadows a pseudostate"))
        if path in paths:
            report.append(_diag("DuplicateStateName", path, "duplicate state path"))
        paths.add(path)
        for child in node.children:
            if child.path != f"{path}.{child.name}":
                reason = f"child {child.name} of {path} is not at {path}.{child.name}"
                report.append(_diag("BadChildPath", child.path, reason))
        if node.children:
            if node.initial_child is None:
                report.append(
                    _diag("MissingInitialChild", path, "composite lacks an initial child")
                )
            elif node.initial_child not in {c.path for c in node.children}:
                report.append(
                    _diag("BadInitialChild", path, f"initial child {node.initial_child} is not a child")
                )
        elif node.initial_child is not None:
            report.append(_diag("BadInitialChild", path, "simple state declares an initial child"))

    def check_plain(names, what: str, location: str):
        for name in names:
            if not _is_plain(name):
                report.append(_diag("BadIdent", location, f"bad {what} name {name!r}"))

    def check_guard(g: GuardExpr, location: str):
        if not g.literals:
            report.append(_diag("EmptyGuard", location, "guard has no literals"))
        seen = set()
        for atom, _ in g.literals:
            if locate:
                check_plain((atom,), "guard atom", location)
            if atom in seen:
                report.append(_diag("DuplicateGuardAtom", location, f"atom {atom} repeated"))
            seen.add(atom)

    tids: set[str] = set()
    for t in model.transitions:
        loc, join, split, inputs, outputs = t.id, t.join_kind, t.split_kind, t.inputs, t.outputs
        if locate and not _is_plain(loc):
            report.append(_diag("BadIdent", loc, "bad transition id"))
        if loc in tids:
            report.append(_diag("DuplicateTransitionId", loc, "duplicate transition id"))
        tids.add(loc)
        if join not in JOIN_KINDS:
            report.append(_diag("BadKind", loc, f"unknown join kind {join!r}"))
        if split not in SPLIT_KINDS:
            report.append(_diag("BadKind", loc, f"unknown split kind {split!r}"))
        if not inputs:
            report.append(_diag("EmptyInputs", loc, "transition has no inputs"))
        if not outputs:
            report.append(_diag("EmptyOutputs", loc, "transition has no outputs"))
        if len(inputs) > 1 and join == "none":
            report.append(_diag("JoinKindRequired", loc, "multiple inputs need a join kind"))
        if len(outputs) > 1 and split == "none":
            report.append(_diag("SplitKindRequired", loc, "multiple outputs need a split kind"))
        if join == "and" or join == "or":
            # an and-join fires, and an or-join's strict row starts, with
            # every input active at once: a source listed twice needs two
            # tokens on it, which only a multi-join target may hold, and no
            # two children of one state are ever active together
            child_of: dict[str, str] = {}
            seen: set[str] = set()
            for b in inputs:
                if b.source in seen:
                    reason = f"lists input {b.source} twice, which needs two tokens on it"
                elif conflict := _claim_children(child_of, b.source):
                    reason = (
                        "inputs {1} and {2} are different children of {0}, "
                        "never active together".format(*conflict)
                    )
                else:
                    seen.add(b.source)
                    continue
                report.append(_diag("UnsatisfiableJoin", loc, f"{join}-join {reason}"))
                break
        elif join == "xor" or join == "multi":
            # an xor or multi join fires on one input, but one token on a
            # source enables both copies of an input listed twice with one
            # event: xor always takes the first, multi takes both in conflict
            keys = [(b.source, b.event) for b in inputs]
            if len(set(keys)) < len(keys):
                reason = "lists an input twice on one event, so one token enables both"
                report.append(_diag("UnsatisfiableJoin", loc, f"{join}-join {reason}"))
        if split == "or" and not any(b.guard for b in outputs):
            report.append(_diag("OrSplitNeedsGuardedOutput", loc, "or-split has no guarded output"))
        elif split == "and" and any(b.guard for b in outputs):
            report.append(_diag("AndSplitForbidsGuards", loc, "and-split outputs are guarded"))
        if t.shared_event and locate:
            check_plain((t.shared_event,), "event", loc)
        if t.shared_guard:
            check_guard(t.shared_guard, loc)
        if locate:
            check_plain(t.shared_actions, "action", loc)
        for b in inputs:
            if b.source == final:
                report.append(_diag("TransitionFromFinal", loc, "final pseudostate as source"))
            elif b.source != initial and b.source not in paths:
                report.append(_diag("UnresolvedEndpoint", loc, f"unknown source {b.source}"))
            if locate:
                check_plain((b.event,) if b.event else (), "event", loc)
                check_plain(b.actions, "action", loc)
        for b in outputs:
            if b.target == initial:
                report.append(_diag("TransitionToInitial", loc, "initial pseudostate as target"))
            elif b.target != final and b.target not in paths:
                report.append(_diag("UnresolvedEndpoint", loc, f"unknown target {b.target}"))
            if b.guard:
                check_guard(b.guard, loc)
            if locate:
                check_plain(b.actions, "action", loc)

    if locate:
        for node in index.all_nodes:
            check_plain(node.entry_actions + node.exit_actions, "action", node.path)

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
