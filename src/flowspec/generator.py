"""Seeded random model generation for property and conformance testing.

Models grow as pattern blocks wired from already-reachable frontier states,
so every generated model validates, stays reachable from the initial
pseudostate, and keeps within configurable size bounds.  Conventions the
reverse path relies on are honored here: split branches carry at least one
action, or-split guarded branches follow any unguarded (mandatory) ones,
join inputs all carry events, and names never collide across namespaces.
"""

from __future__ import annotations

import random
import sys

from . import model as m
from .model import GuardExpr, InBranch, OutBranch, ProcessModel, StateNode, TransitionDecl
from .values import value_type


@value_type
class GeneratorLimits:
    max_states: int = 12
    max_transitions: int = 10
    max_or_arity: int = 3  # guarded branches per or-split and or-join width

    def __post_init__(self):
        # every model has a first state and the transition into it
        for name in ("max_states", "max_transitions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        # a split needs two branches, and emission enumerates at most
        # MAX_CHOICE_BRANCHES guarded ones
        if not 2 <= self.max_or_arity <= m.MAX_CHOICE_BRANCHES:
            raise ValueError(
                f"max_or_arity must be between 2 and {m.MAX_CHOICE_BRANCHES}, got {self.max_or_arity}"
            )


class _Builder:
    def __init__(self, rng: random.Random, limits: GeneratorLimits):
        self.rng = rng
        self.limits = limits
        self.states: list[str] = []
        self.composites: dict[str, list[str]] = {}
        self.entry_actions: dict[str, tuple[str, ...]] = {}
        self.exit_actions: dict[str, tuple[str, ...]] = {}
        self.transitions: list[TransitionDecl] = []
        self.frontier: list[str] = []
        self.counters = {"S": 0, "ev": 0, "g": 0, "a": 0, "t": 0}

    def fresh(self, prefix: str) -> str:
        """The next name for ``prefix``, interned so that models share one
        string per name.  A name is the prefix and a counter the model's
        size bounds, so the interned set stays small."""
        self.counters[prefix] += 1
        return sys.intern(f"{prefix}{self.counters[prefix]}")

    def new_state(self) -> str:
        name = self.fresh("S")
        self.states.append(name)
        if self.rng.random() < 0.15:
            self.entry_actions[name] = (self.fresh("a"),)
        if self.rng.random() < 0.15:
            self.exit_actions[name] = (self.fresh("a"),)
        return name

    def new_composite(self, n_children: int) -> tuple[str, list[str]]:
        parent = self.fresh("S")
        self.states.append(parent)
        children = []
        for _ in range(n_children):
            child = sys.intern(f"{parent}.{self.fresh('S')}")
            children.append(child)
        self.composites[parent] = children
        return parent, children

    def acts(self, low=1, high=2) -> tuple[str, ...]:
        return tuple(self.fresh("a") for _ in range(self.rng.randint(low, high)))

    def add(self, inputs, outputs, **kw):
        self.transitions.append(
            TransitionDecl(
                id=self.fresh("t"),
                inputs=tuple(inputs),
                outputs=tuple(outputs),
                **kw,
            )
        )

    def room(self, states: int, transitions: int) -> bool:
        return (
            len(self.states) + sum(len(c) for c in self.composites.values()) + states
            <= self.limits.max_states
            and len(self.transitions) + transitions <= self.limits.max_transitions
        )

    def pick_frontier(self) -> str:
        return self.frontier.pop(self.rng.randrange(len(self.frontier)))

    # -- pattern blocks ------------------------------------------------------

    def block_sequence(self):
        if not self.room(1, 1):
            return
        src = self.pick_frontier()
        dst = self.new_state()
        self.add(
            [InBranch(src, self.fresh("ev"), self.acts(0, 1))],
            [OutBranch(dst, actions=self.acts(0, 1))],
        )
        self.frontier.append(dst)

    def block_guarded_choice(self):
        width = self.rng.randint(2, 3)
        if not self.room(width, width):
            return
        src = self.pick_frontier()
        # guards must be pairwise exclusive under a closed world: either a
        # complementary pair over one atom or distinct positive atoms
        if width == 2 and self.rng.random() < 0.4:
            atom = self.fresh("g")
            guards = [GuardExpr(((atom, False),)), GuardExpr(((atom, True),))]
        else:
            guards = [GuardExpr(((self.fresh("g"), False),)) for _ in range(width)]
        for g in guards:
            dst = self.new_state()
            self.add(
                [InBranch(src, None, ())],
                [OutBranch(dst, actions=self.acts())],
                shared_guard=g,
            )
            self.frontier.append(dst)

    def block_parallel(self, join_kind: str):
        width = self.rng.randint(2, min(3, self.limits.max_or_arity))
        if not self.room(width + 1, 2):
            return
        src = self.pick_frontier()
        mids = [self.new_state() for _ in range(width)]
        self.add(
            [InBranch(src, self.fresh("ev"), ())],
            [OutBranch(s, actions=self.acts()) for s in mids],
            split_kind="and",
        )
        dst = self.new_state()
        self.add(
            [InBranch(s, self.fresh("ev"), self.acts(0, 1)) for s in mids],
            [OutBranch(dst, actions=())],
            join_kind=join_kind,
            shared_actions=self.acts(0, 1),
            shared_guard=(
                GuardExpr(((self.fresh("g"), False),))
                if join_kind == "multi" and self.rng.random() < 0.5
                else None
            ),
        )
        self.frontier.append(dst)

    def block_or_split(self, with_join: bool):
        width = self.rng.randint(2, self.limits.max_or_arity)
        mandatory = self.rng.random() < 0.4
        extra = 1 if mandatory else 0
        if not self.room(width + extra + (1 if with_join else 0), 2):
            return
        src = self.pick_frontier()
        outputs = []
        mids = []
        if mandatory:
            dst = self.new_state()
            outputs.append(OutBranch(dst, actions=self.acts(), mandatory=True))
            self.frontier.append(dst)
        for _ in range(width):
            dst = self.new_state()
            outputs.append(
                OutBranch(dst, guard=GuardExpr(((self.fresh("g"), False),)), actions=self.acts())
            )
            mids.append(dst)
        self.add(
            [InBranch(src, self.fresh("ev"), ())],
            outputs,
            split_kind="or",
        )
        if with_join:
            dst = self.new_state()
            self.add(
                [InBranch(s, self.fresh("ev"), self.acts(0, 1)) for s in mids],
                [OutBranch(dst)],
                join_kind="or",
                shared_actions=self.acts(0, 1),
            )
            self.frontier.append(dst)
        else:
            self.frontier.extend(mids)

    def block_embedded(self):
        if not self.room(4, 3):
            return
        src = self.pick_frontier()
        parent, children = self.new_composite(2)
        self.add(
            [InBranch(src, self.fresh("ev"), self.acts(0, 1))],
            [OutBranch(parent)],
        )
        self.add(
            [InBranch(children[0], self.fresh("ev"), self.acts())],
            [OutBranch(children[1])],
        )
        after = self.new_state()
        self.add(
            [InBranch(children[1], self.fresh("ev"), self.acts(0, 1))],
            [OutBranch(after)],
        )
        self.frontier.append(after)

    # -- assembly ------------------------------------------------------------

    def build(self, seed: int) -> ProcessModel:
        first = self.new_state()
        self.add([InBranch(m.DEFAULT_INITIAL, self.fresh("ev"), ())], [OutBranch(first)])
        self.frontier.append(first)

        blocks = [
            (self.block_sequence, 4),
            (self.block_guarded_choice, 2),
            (lambda: self.block_parallel("and"), 2),
            (lambda: self.block_parallel("xor"), 1),
            (lambda: self.block_parallel("multi"), 1),
            (lambda: self.block_or_split(False), 1),
            (lambda: self.block_or_split(True), 1),
            (self.block_embedded, 1),
        ]
        names = [b for b, w in blocks for _ in range(w)]
        stalls = 0
        while (
            self.frontier
            and stalls < 20
            and len(self.transitions) < self.limits.max_transitions - 1
            and len(self.states) < self.limits.max_states - 1
        ):
            before = len(self.transitions)
            self.rng.choice(names)()
            stalls = stalls + 1 if len(self.transitions) == before else 0
        if self.frontier and self.rng.random() < 0.5 and self.room(0, 1):
            src = self.pick_frontier()
            self.add(
                [InBranch(src, self.fresh("ev"), self.acts(0, 1))],
                [OutBranch(m.DEFAULT_FINAL)],
            )
        return ProcessModel(
            title=f"generated {seed}",
            role="generator",
            feature="random process",
            benefit="property coverage",
            states=m.state_tree(
                {None: self.states, **self.composites},
                lambda path, kids: StateNode(
                    name=sys.intern(path.rsplit(".", 1)[-1]),
                    path=path,
                    entry_actions=self.entry_actions.get(path, ()),
                    exit_actions=self.exit_actions.get(path, ()),
                    children=kids,
                    initial_child=kids[0].path if kids else None,
                ),
            ),
            transitions=tuple(self.transitions),
        )


def random_model(seed: int, limits: GeneratorLimits | None = None) -> ProcessModel:
    """Deterministically generate a valid, reachable process model."""
    rng = random.Random(seed)
    builder = _Builder(rng, limits or GeneratorLimits())
    model = builder.build(seed)
    report = m.validate(model)
    if report:  # generator bug guard; surfaced loudly in tests
        raise AssertionError(f"generated model invalid (seed {seed}): {report}")
    return model
