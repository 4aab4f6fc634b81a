"""Operational semantics: enabledness, stepping, scenario replay, coverage.

A step fires every enabled, non-conflicting transition once, except that a
multi-join fires once per satisfied input (tokens accumulate on its target).
Within one firing the action order is: exit actions of exited states
(innermost first), input-branch actions, shared actions, then per output
branch its actions followed by entry actions of entered states (outermost
first).  Unmentioned guard atoms are false during replay.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import model as m
from .errors import FlowspecError, IllegalGiven, NondeterminismConflict
from .feature import FeatureDoc, Scenario, StateTerm
from .model import (
    COMPLETION_EVENT,
    Configuration,
    ProcessModel,
    TransitionDecl,
    nonempty_subsets,
    normalize_mode,
)

MAX_EXPLORE_DEPTH = 32


@dataclass(frozen=True)
class Firing:
    transition: TransitionDecl
    consumed: tuple[int, ...]  # input indices
    fired_outputs: tuple[int, ...]
    clear_mark: str | None = None  # or-split id whose activation is consumed


@dataclass(frozen=True)
class StepResult:
    fired: tuple[str, ...]
    trace: tuple[str, ...]
    after: Configuration


@dataclass(frozen=True)
class Verdict:
    passed: bool
    mismatches: tuple[tuple[str, str, str], ...] = ()  # (expected, observed, position)
    fired: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Enabledness
# ---------------------------------------------------------------------------


def _fired_outputs(t: TransitionDecl, valuation) -> tuple[int, ...] | None:
    """Output indices produced by a firing, or None when the split blocks."""
    if t.split_kind == "or":
        fired = []
        any_guarded_true = False
        for i, b in enumerate(t.outputs):
            if b.guard is None:
                fired.append(i)
            elif b.guard.holds(valuation):
                fired.append(i)
                any_guarded_true = True
        if not any_guarded_true:
            return None
        return tuple(fired)
    if len(t.outputs) == 1 and t.outputs[0].guard is not None:
        if not t.outputs[0].guard.holds(valuation):
            return None
    return tuple(range(len(t.outputs)))


def _input_satisfied(b: m.InBranch, counts, events) -> bool:
    if counts.get(b.source, 0) < 1:
        return False
    if b.event is not None and b.event not in events:
        return False
    return True


def _match_or_split(model: ProcessModel, t: TransitionDecl, config: Configuration):
    """Locate the or-split whose recorded activation feeds this or-join."""
    index = m.model_index(model)
    for s in index.or_splits:
        mark = config.mark(s.id)
        if mark is None:
            continue
        fired_targets = set()
        for i in mark:
            target = s.outputs[i].target
            fired_targets.add(target)
            fired_targets.add(index.leaf(target))
        required = tuple(
            i for i, b in enumerate(t.inputs) if b.source in fired_targets
        )
        if required:
            return s.id, required
    return None


def firings_for(
    model: ProcessModel,
    t: TransitionDecl,
    config: Configuration,
    events,
    valuation,
) -> list[Firing]:
    """All firings of one transition under the given stimulus (empty when
    the transition is not enabled)."""
    counts = config.counts()
    if t.shared_event is not None and t.shared_event not in events:
        return []
    if t.shared_guard is not None and not t.shared_guard.holds(valuation):
        return []
    outs = _fired_outputs(t, valuation)
    if outs is None:
        return []

    if t.join_kind == "multi":
        firings = []
        for i, b in enumerate(t.inputs):
            if _input_satisfied(b, counts, events):
                firings.append(Firing(t, (i,), outs))
        return firings

    if t.join_kind == "xor":
        for i, b in enumerate(t.inputs):
            if _input_satisfied(b, counts, events):
                return [Firing(t, (i,), outs)]
        return []

    if t.join_kind == "or":
        match = _match_or_split(model, t, config)
        if match is not None:
            split_id, required = match
            if all(
                _input_satisfied(t.inputs[i], counts, events) for i in required
            ):
                return [Firing(t, required, outs, clear_mark=split_id)]
            return []
        active = tuple(
            i for i, b in enumerate(t.inputs) if counts.get(b.source, 0) >= 1
        )
        if not active:
            return []
        if all(_input_satisfied(t.inputs[i], counts, events) for i in active):
            return [Firing(t, active, outs)]
        return []

    # "and" joins and plain single-input transitions: every input must hold.
    if all(_input_satisfied(b, counts, events) for b in t.inputs):
        return [Firing(t, tuple(range(len(t.inputs))), outs)]
    return []


def enabled(model: ProcessModel, config: Configuration, events, valuation) -> list[str]:
    """Transition ids with at least one firing, in declaration order."""
    events = set(events)
    out = []
    for t in m.model_index(model).candidates(config.counts()):
        if firings_for(model, t, config, events, valuation):
            out.append(t.id)
    return out


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


def step(model: ProcessModel, config: Configuration, events, valuation) -> StepResult:
    """Fire all enabled non-conflicting transitions once.

    Raises NondeterminismConflict when the enabled firings demand more
    tokens from some state than the configuration holds.
    """
    events = set(events)
    counts = config.counts()
    firings: list[Firing] = []
    for t in m.model_index(model).candidates(counts):
        firings.extend(firings_for(model, t, config, events, valuation))

    demand: dict[str, int] = {}
    demanders: dict[str, list[str]] = {}
    for firing in firings:
        for i in firing.consumed:
            src = firing.transition.inputs[i].source
            demand[src] = demand.get(src, 0) + 1
            demanders.setdefault(src, []).append(firing.transition.id)
    for src, needed in demand.items():
        if needed > counts.get(src, 0):
            raise NondeterminismConflict(sorted(set(demanders[src])))

    marks = dict(config.or_marks)
    trace: list[str] = []
    fired_ids: list[str] = []
    for firing in firings:
        t = firing.transition
        consumed = tuple(t.inputs[i] for i in firing.consumed)
        plan = m.firing_plan(model, t, consumed, firing.fired_outputs)
        for branch in consumed:
            counts[branch.source] -= 1
            if counts[branch.source] == 0:
                del counts[branch.source]
        for leaf in plan.result_leaves():
            counts[leaf] = counts.get(leaf, 0) + 1
        if t.split_kind == "or":
            marks[t.id] = firing.fired_outputs
        if firing.clear_mark is not None:
            marks.pop(firing.clear_mark, None)
        trace.extend(plan.trace())
        fired_ids.append(t.id)

    after = Configuration(
        tuple(sorted(counts.items())), tuple(sorted(marks.items()))
    )
    return StepResult(tuple(fired_ids), tuple(trace), after)


# ---------------------------------------------------------------------------
# Scenario replay
# ---------------------------------------------------------------------------


def _is_subsequence(needle, haystack) -> bool:
    it = iter(haystack)
    return all(x in it for x in needle)


def _classify_atom(spaces: dict[str, set[str]], atom: str) -> str:
    """The first name space of ``model.namespaces`` that holds ``atom``."""
    return next((kind for kind, names in spaces.items() if atom in names), "unknown")


def replay_scenario(model: ProcessModel, scenario: Scenario, mode: str = "strict") -> Verdict:
    """Execute one step from the scenario's GIVEN and judge its THEN.

    Strict mode demands the exact trace (each ``;``-sequence in order, AND
    groups in any order) and the exact resulting configuration; paper-exact
    mode accepts any scenario whose actions embed into the trace in order
    and whose state terms are contained in the resulting configuration.
    """
    mode = normalize_mode(mode)
    if not scenario.structured:
        return Verdict(False, (("structured clauses", "free-text steps", scenario.name),))

    spaces = m.model_index(model).spaces
    paths: list[str] = []
    valuation: dict[str, bool] = {}
    for term in scenario.given:
        kind = _classify_atom(spaces, term.atom)
        if kind == "state" and not term.negated:
            paths.append(term.atom)
        elif kind == "guard":
            valuation.setdefault(term.atom, not term.negated)
        else:
            raise IllegalGiven(
                f"GIVEN term {term.render()!r} is not a state or guard of the model"
            )
    if not paths:
        raise IllegalGiven("GIVEN names no states")
    config = Configuration.of(*paths)
    reason = m.legal_configuration(model, config)
    if reason is not None:
        raise IllegalGiven(reason)

    events: set[str] = set()
    for term in scenario.when:
        kind = _classify_atom(spaces, term.atom)
        if kind == "guard":
            valuation.setdefault(term.atom, not term.negated)
        elif term.atom != COMPLETION_EVENT:
            events.add(term.atom)

    expected_chunks: list[tuple[str, ...]] = []
    expected_states: list[str] = []
    for item in scenario.then:
        if isinstance(item, StateTerm):
            expected_states.append(item.path)
            continue
        run: list[str] = []
        for atom in item.actions:
            if _classify_atom(spaces, atom) == "state":
                if run:
                    expected_chunks.append(tuple(run))
                    run = []
                expected_states.append(atom)
            else:
                run.append(atom)
        if run:
            expected_chunks.append(tuple(run))

    try:
        result = step(model, config, events, valuation)
    except NondeterminismConflict as exc:
        return Verdict(
            False,
            (("deterministic step", f"conflict: {', '.join(exc.transition_ids)}", scenario.name),),
        )

    mismatches: list[tuple[str, str, str]] = []
    trace = list(result.trace)
    for pos, chunk in enumerate(expected_chunks):
        if not _is_subsequence(chunk, trace):
            mismatches.append(
                ("; ".join(chunk), "; ".join(trace), f"then actions[{pos}]")
            )
    after_paths = result.after.paths()
    if mode == "strict":
        if sorted(a for c in expected_chunks for a in c) != sorted(trace):
            mismatches.append(
                (
                    "; ".join(a for c in expected_chunks for a in c),
                    "; ".join(trace),
                    "then trace",
                )
            )
        if sorted(expected_states) != sorted(after_paths):
            mismatches.append(
                (
                    " AND ".join(sorted(expected_states)),
                    " AND ".join(sorted(after_paths)),
                    "then states",
                )
            )
    else:
        remaining = list(after_paths)
        for pos, path in enumerate(expected_states):
            if path in remaining:
                remaining.remove(path)
            else:
                mismatches.append(
                    (path, " AND ".join(after_paths), f"then states[{pos}]")
                )
    return Verdict(not mismatches, tuple(mismatches), result.fired)


# ---------------------------------------------------------------------------
# Suite checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    verdicts: tuple[tuple[str, Verdict], ...]
    coverage: float
    uncovered: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for _, v in self.verdicts)

    def to_json(self) -> dict:
        return {
            "verdicts": [
                {
                    "scenario": name,
                    "passed": v.passed,
                    "mismatches": [
                        {"expected": e, "observed": o, "position": p}
                        for e, o, p in v.mismatches
                    ],
                    "fired": list(v.fired),
                }
                for name, v in self.verdicts
            ],
            "coverage": self.coverage,
            "uncovered": list(self.uncovered),
        }


def report_for(model: ProcessModel, verdicts) -> CheckReport:
    """Aggregate (scenario name, verdict) pairs; coverage counts transitions
    fired by at least one passing scenario."""
    covered = {tid for _, v in verdicts if v.passed for tid in v.fired}
    total = len(model.transitions)
    coverage = 1.0 if total == 0 else len(covered & {t.id for t in model.transitions}) / total
    uncovered = tuple(t.id for t in model.transitions if t.id not in covered)
    return CheckReport(tuple(verdicts), coverage, uncovered)


def check_suite(model: ProcessModel, doc: FeatureDoc, mode: str = "strict") -> CheckReport:
    """Replay every scenario and aggregate the verdicts with ``report_for``.
    Raises ValueError for a mode not in ``model.MODES``."""
    mode = normalize_mode(mode)
    verdicts: list[tuple[str, Verdict]] = []
    for scenario in doc.scenarios:
        try:
            verdict = replay_scenario(model, scenario, mode)
        except FlowspecError as exc:
            verdict = Verdict(False, (("replayable scenario", str(exc), scenario.name),))
        verdicts.append((scenario.name, verdict))
    return report_for(model, verdicts)


# ---------------------------------------------------------------------------
# Bounded exploration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExploreStep:
    events: tuple[str, ...]
    valuation: tuple[tuple[str, bool], ...]
    fired: tuple[str, ...]
    trace: tuple[str, ...]
    after: Configuration


def _stimuli(model: ProcessModel, config: Configuration):
    """Candidate (events, valuation) pairs at a configuration, deterministic."""
    counts = config.counts()
    seen = set()
    out = []

    def add(events: set[str], valuation: dict[str, bool]):
        key = (tuple(sorted(events)), tuple(sorted(valuation.items())))
        if key not in seen:
            seen.add(key)
            out.append((set(events), dict(valuation)))

    for t in m.model_index(model).candidates(counts):
        if not any(counts.get(b.source, 0) >= 1 for b in t.inputs):
            continue
        base_events = {b.event for b in t.inputs if b.event}
        if t.shared_event:
            base_events.add(t.shared_event)
        base_val: dict[str, bool] = {}
        if t.shared_guard:
            for atom, neg in t.shared_guard.literals:
                base_val[atom] = not neg
        if t.split_kind == "or":
            guarded = [i for i, b in enumerate(t.outputs) if b.guard]
            for included in nonempty_subsets(guarded):
                valuation = dict(base_val)
                ok = True
                for i in guarded:
                    for atom, neg in t.outputs[i].guard.literals:
                        want = (not neg) if i in included else neg
                        if valuation.setdefault(atom, want) != want:
                            ok = False
                    if not ok:
                        break
                if ok:
                    add(base_events, valuation)
            continue
        valuation = dict(base_val)
        if len(t.outputs) == 1 and t.outputs[0].guard:
            for atom, neg in t.outputs[0].guard.literals:
                valuation.setdefault(atom, not neg)
        if t.join_kind in ("xor", "multi"):
            for b in t.inputs:
                if counts.get(b.source, 0) >= 1:
                    ev = {b.event} if b.event else set()
                    if t.shared_event:
                        ev.add(t.shared_event)
                    add(ev, valuation)
        else:
            add(base_events, valuation)
    return out


def explore(
    model: ProcessModel,
    depth_bound: int,
    start: Configuration | None = None,
) -> list[tuple[ExploreStep, ...]]:
    """Exhaustively enumerate maximal runs up to ``depth_bound`` steps.

    Branches over the event sets and guard valuations each reachable
    transition could be offered; conflicting stimuli are skipped.
    """
    if depth_bound > MAX_EXPLORE_DEPTH:
        raise ValueError(f"depth bound above {MAX_EXPLORE_DEPTH}")
    if depth_bound <= 0:
        return []
    traces: list[tuple[ExploreStep, ...]] = []

    def walk(config: Configuration, prefix: tuple[ExploreStep, ...]):
        extended = False
        if len(prefix) < depth_bound:
            for events, valuation in _stimuli(model, config):
                try:
                    result = step(model, config, events, valuation)
                except NondeterminismConflict:
                    continue
                if not result.fired:
                    continue
                record = ExploreStep(
                    tuple(sorted(events)),
                    tuple(sorted(valuation.items())),
                    result.fired,
                    result.trace,
                    result.after,
                )
                extended = True
                walk(result.after, prefix + (record,))
        if not extended and prefix:
            traces.append(prefix)

    walk(start or m.initial_configuration(model), ())
    return traces
