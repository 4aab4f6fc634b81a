"""Operational semantics: enabledness, stepping, scenario replay, coverage.

A step fires every enabled, non-conflicting transition once, except that a
multi-join fires once per ready input (tokens accumulate on its target).
Within one firing the action order is: exit actions of exited states
(innermost first), input-branch actions, shared actions, then per output
branch its actions followed by entry actions of entered states (outermost
first).  Unmentioned guard atoms are false during replay.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from . import model as m
from .errors import FlowspecError, IllegalGiven, NondeterminismConflict, UnknownState
from .feature import FeatureDoc, Scenario
from .model import (
    COMPLETION_EVENT,
    Configuration,
    ProcessModel,
    TransitionDecl,
    normalize_mode,
)
from .values import value_type

MAX_EXPLORE_DEPTH = 32


@value_type
class Firing:
    transition: TransitionDecl
    consumed: tuple[int, ...]  # input indices
    fired_outputs: tuple[int, ...]
    clear_mark: str | None = None  # or-split id whose activation is consumed


@value_type
class StepResult:
    fired: tuple[str, ...]
    trace: tuple[str, ...]
    after: Configuration


@value_type
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


def _match_or_split(model: ProcessModel, t: TransitionDecl, config: Configuration):
    """(id, input positions) of the first or-split feeding this merge
    (``ModelIndex.or_feeds``) whose recorded activation reaches an input:
    the inputs its marked outputs feed.  None when there is none."""
    for split_id, feeds in m.model_index(model).or_feeds.get(t.id, ()):
        required = {j for i in config.mark(split_id) or () for j in feeds.get(i, ())}
        if required:
            return split_id, tuple(sorted(required))
    return None


def firings_for(
    model: ProcessModel,
    t: TransitionDecl,
    config: Configuration,
    events,
    valuation,
) -> list[Firing]:
    """All firings of one transition under the given stimulus (empty when
    the transition is not enabled).

    An input is active when its source holds a token, and ready when it is
    also active and its event is None or offered.  A multi-join fires once
    per ready input and an xor-join its first ready input.  A synchronizing
    merge (``ModelIndex.synchronizing``: an or-join, or an and-join that an
    or-split feeds) fires the inputs its matching or-split activated, or
    else every active input, when all of them are ready.  Any other
    and-join, or a plain transition, fires when every input is ready.
    """
    entry = _entry(model, t, config, config.counts(), m.model_index(model).synchronizing)
    return [Firing(*firing) for firing in _firings(entry, events, valuation)]


def _entry(model, t, config, counts, synchronizing):
    """(``t``, its active input positions, its merge match) at ``config``,
    whose token counts are ``counts``.  The match is None unless ``t`` is
    in ``synchronizing``, and then (the matching or-split's id, or None
    when there is none, and the input positions it needs)."""
    active = tuple([i for i, b in enumerate(t.inputs) if counts.get(b.source, 0) >= 1])
    match = (_match_or_split(model, t, config) or (None, active)) if t.id in synchronizing else None
    return t, active, match


def _view(model: ProcessModel, config: Configuration):
    """What enabling reads of ``config`` under any stimulus: its token
    counts, and the ``_entry`` of each transition that could fire there, in
    declaration order.  Those are the transitions with no inputs
    (``ModelIndex.inputless``), which ``all([])`` enables, and those with an
    input on a path holding a token (``ModelIndex.by_source``).  Tokens on
    one path with no inputless transition read that path's list as it is."""
    counts = config.counts()
    index = m.model_index(model)
    by_source = index.by_source
    if len(counts) == 1 and not index.inputless:
        picked = by_source.get(config.entries[0][0], ())
    else:
        picked = set(index.inputless)
        for path, n in counts.items():
            if n >= 1 and path in by_source:
                picked.update(by_source[path])
        picked = sorted(picked)
    transitions, synchronizing = model.transitions, index.synchronizing
    return counts, [_entry(model, transitions[i], config, counts, synchronizing) for i in picked]


def _firings(entry, events, valuation) -> list[tuple]:
    """``firings_for`` of one ``_entry``, each firing as a plain
    ``(transition, consumed, fired_outputs, clear_mark)`` tuple in the field
    order of ``Firing``."""
    t, active, match = entry
    if t.shared_event is not None and t.shared_event not in events:
        return []
    if t.shared_guard is not None and not t.shared_guard.holds(valuation):
        return []
    outs = _fired_outputs(t, valuation)
    if outs is None:
        return []
    inputs = t.inputs
    ready = tuple([i for i in active if inputs[i].event is None or inputs[i].event in events])

    if t.join_kind == "multi":
        return [(t, (i,), outs, None) for i in ready]
    if t.join_kind == "xor":
        return [(t, ready[:1], outs, None)] if ready else []
    if match is not None:
        split_id, wanted = match
        if wanted and set(wanted) <= set(ready):
            return [(t, wanted, outs, split_id)]
        return []
    if len(ready) == len(inputs):
        return [(t, ready, outs, None)]
    return []


def enabled(model: ProcessModel, config: Configuration, events, valuation) -> list[str]:
    """Transition ids with at least one firing, in declaration order."""
    events = set(events)
    _, entries = _view(model, config)
    return [entry[0].id for entry in entries if _firings(entry, events, valuation)]


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


def step(model: ProcessModel, config: Configuration, events, valuation) -> StepResult:
    """Fire all enabled non-conflicting transitions once.

    Raises NondeterminismConflict when the enabled firings demand more
    tokens from some state than the configuration holds.
    """
    return StepResult(*_step(model, config, _view(model, config), set(events), valuation))


def _step(model, config, view, events, valuation, plans=None) -> tuple:
    """``step``, given the ``_view`` of ``config`` and ``events`` as a set,
    as a plain ``(fired, trace, after)`` tuple in the field order of
    ``StepResult``.  ``plans``, when given, keeps firing plans by (``id`` of
    the transition, consumed positions, fired outputs), so the caller must
    hold every transition it keys for as long as it keeps the dict.

    A lone firing that consumes one input takes that input's token directly:
    its source is active, so it holds one, and nothing competes for it.  Any
    other set of firings sums its demand per source first.  ``after`` reuses
    ``config.or_marks`` unless a firing sets or clears a mark."""
    counts, entries = view
    firings = []
    for entry in entries:
        firings += _firings(entry, events, valuation)

    counts = dict(counts)
    if len(firings) == 1 and len(firings[0][1]) == 1:
        t, (i,), _, _ = firings[0]
        src = t.inputs[i].source
        if counts[src] > 1:
            counts[src] -= 1
        else:
            del counts[src]
    else:
        demand: dict[str, int] = {}
        for t, consumed, _, _ in firings:
            for i in consumed:
                src = t.inputs[i].source
                demand[src] = demand.get(src, 0) + 1
        for src, needed in demand.items():
            left = counts.get(src, 0) - needed
            if left < 0:
                raise NondeterminismConflict(sorted({
                    t.id for t, consumed, _, _ in firings for i in consumed if t.inputs[i].source == src
                }))
            if left:
                counts[src] = left
            else:
                counts.pop(src, None)

    marks = None
    trace: list[str] = []
    fired_ids: list[str] = []
    for t, consumed, outs, clear_mark in firings:
        if plans is None:
            plan = m.firing_plan(model, t, tuple([t.inputs[i] for i in consumed]), outs)
        elif (plan := plans.get(key := (id(t), consumed, outs))) is None:
            plan = plans[key] = m.firing_plan(model, t, tuple([t.inputs[i] for i in consumed]), outs)
        for leaf in plan.leaves:
            counts[leaf] = counts.get(leaf, 0) + 1
        if t.split_kind == "or" or clear_mark is not None:
            if marks is None:
                marks = dict(config.or_marks)
            if t.split_kind == "or":
                marks[t.id] = outs
            if clear_mark is not None:
                marks.pop(clear_mark, None)
        trace.extend(plan.trace)
        fired_ids.append(t.id)

    or_marks = config.or_marks if marks is None else tuple(sorted(marks.items()))
    after = Configuration(tuple(sorted(counts.items())), or_marks)
    return tuple(fired_ids), tuple(trace), after


# ---------------------------------------------------------------------------
# Scenario replay
# ---------------------------------------------------------------------------


def _is_subsequence(needle, haystack) -> bool:
    it = iter(haystack)
    return all(x in it for x in needle)


def replay_scenario(model: ProcessModel, scenario: Scenario, mode: str = "strict") -> Verdict:
    """Execute one step from the scenario's GIVEN and judge its THEN.

    Strict mode demands the exact trace (each ``;``-sequence in order, AND
    groups in any order) and the exact resulting configuration; paper-exact
    mode accepts any scenario whose actions embed into the trace in order
    and whose state terms are contained in the resulting configuration.
    """
    return _replay(model, m.model_index(model).kinds, scenario, normalize_mode(mode))


def _replay(model: ProcessModel, kinds, scenario: Scenario, mode: str) -> Verdict:
    """``replay_scenario`` in a mode spelled as in ``MODES``, where ``kinds``
    is the model's ``ModelIndex.kinds``.  It reads the scenario's plain
    ``views`` (``(atom, negated)`` pairs and tuples of names), not the typed
    ``given``/``when``/``then``.  A THEN whose action runs, joined in the
    order written, equal the trace passes both action tests without running
    them; any other THEN runs both, so its mismatches are listed in full."""
    given, when, then = views = scenario.views
    if None in views:
        return Verdict(False, (("structured clauses", "free-text steps", scenario.name),))

    paths: list[str] = []
    valuation: dict[str, bool] = {}
    for atom, negated in given:
        kind = kinds.get(atom, "unknown")
        if kind == "state" and not negated:
            paths.append(atom)
        elif kind == "guard":
            valuation.setdefault(atom, not negated)
        else:
            term = ("NOT " if negated else "") + atom
            raise IllegalGiven(f"GIVEN term {term!r} is not a state or guard of the model")
    if not paths:
        raise IllegalGiven("GIVEN names no states")
    if len(paths) == 1:  # one declared state holding one token is always legal
        config = Configuration(((paths[0], 1),))
    else:
        config = Configuration.of(*paths)
        if (reason := m.legal_configuration(model, config)) is not None:
            raise IllegalGiven(reason)

    events: set[str] = set()
    for atom, negated in when:
        if kinds.get(atom) == "guard":
            valuation.setdefault(atom, not negated)
        elif atom != COMPLETION_EVENT:
            events.add(atom)

    expected_chunks: list[tuple[str, ...]] = []
    expected_states: list[str] = []
    for names in then:
        run: list[str] = []
        for atom in names:
            if kinds.get(atom) == "state":
                if run:
                    expected_chunks.append(tuple(run))
                    run = []
                expected_states.append(atom)
            else:
                run.append(atom)
        if run:
            expected_chunks.append(tuple(run))
    expected = tuple([a for c in expected_chunks for a in c])

    try:
        fired, trace, after = _step(model, config, _view(model, config), events, valuation)
    except NondeterminismConflict as exc:
        return Verdict(
            False,
            (("deterministic step", f"conflict: {', '.join(exc.transition_ids)}", scenario.name),),
        )

    mismatches: list[tuple[str, str, str]] = []
    # the chunks written in trace order embed and have the trace's multiset
    if expected != trace:
        for pos, chunk in enumerate(expected_chunks):
            if not _is_subsequence(chunk, trace):
                mismatches.append(("; ".join(chunk), "; ".join(trace), f"then actions[{pos}]"))
        if mode == "strict" and sorted(expected) != sorted(trace):
            mismatches.append(("; ".join(expected), "; ".join(trace), "then trace"))
    after_paths = after.paths()  # already sorted
    if mode == "strict":
        if sorted(expected_states) != after_paths:
            mismatches.append(
                (
                    " AND ".join(sorted(expected_states)),
                    " AND ".join(after_paths),
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
    return Verdict(not mismatches, tuple(mismatches), fired)


# ---------------------------------------------------------------------------
# Suite checking
# ---------------------------------------------------------------------------


@value_type
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

    def to_json_text(self) -> str:
        """The text of ``json.dumps(self.to_json(), indent=2)``, written from
        the report's fixed shape with the C string encoder, one format per
        verdict."""
        verdicts = [
            _FIRED_VERDICT % (_quote(name), "true" if v.passed else "false", _SEP6.join(map(_quote, v.fired)))
            if v.fired and not v.mismatches
            else _VERDICT % (
                _quote(name),
                "true" if v.passed else "false",
                _json_list([_MISMATCH % tuple(map(_quote, m)) for m in v.mismatches], 6),
                _json_list(map(_quote, v.fired), 6),
            )
            for name, v in self.verdicts
        ]
        return (
            '{\n  "verdicts": ' + _json_list(verdicts, 2)
            + ',\n  "coverage": ' + json.dumps(self.coverage)
            + ',\n  "uncovered": ' + _json_list(map(_quote, self.uncovered), 2)
            + "\n}"
        )


# a verdict as ``indent=2`` lays it out; most fire and list no mismatch
_SEP6 = ",\n        "
_FIRED_VERDICT = (
    '{\n      "scenario": %s,\n      "passed": %s,\n      "mismatches": [],\n'
    '      "fired": [\n        %s\n      ]\n    }'
)
_VERDICT = (
    '{\n      "scenario": %s,\n      "passed": %s,\n      "mismatches": %s,\n      "fired": %s\n    }'
)
_MISMATCH = '{\n          "expected": %s,\n          "observed": %s,\n          "position": %s\n        }'


def _json_list(items, indent: int) -> str:
    """A JSON list of encoded items, laid out as ``indent=2`` lays out a
    list whose key starts at column `indent`."""
    items = list(items)
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


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
    Raises ValueError for a mode not in ``model.MODES``.  A first pass reads
    every scenario's clause views and a second replays them: that measured
    faster than reading each scenario's clauses just before its replay."""
    mode = normalize_mode(mode)
    kinds = m.model_index(model).kinds
    for scenario in doc.scenarios:
        scenario.views
    verdicts: list[tuple[str, Verdict]] = []
    for scenario in doc.scenarios:
        try:
            verdict = _replay(model, kinds, scenario, mode)
        except FlowspecError as exc:
            verdict = Verdict(False, (("replayable scenario", str(exc), scenario.name),))
        verdicts.append((scenario.name, verdict))
    return report_for(model, verdicts)


# ---------------------------------------------------------------------------
# Bounded exploration
# ---------------------------------------------------------------------------


@value_type
class ExploreStep:
    events: tuple[str, ...]
    valuation: tuple[tuple[str, bool], ...]
    fired: tuple[str, ...]
    trace: tuple[str, ...]
    after: Configuration


def _offers(entries, rows) -> dict[tuple, tuple[set[str], dict[str, bool]]]:
    """The WHEN events and GIVEN guard valuation of each strict row
    (``model.strict_rows``) of each transition with an active input in these
    ``_view`` entries, keyed by both sorted; of a per-input join, the rows of
    its active inputs only.  ``rows`` keeps each transition's rows by ``id``
    for a caller that holds the transitions.  Raises TooManyChoiceBranches."""
    out: dict[tuple, tuple[set[str], dict[str, bool]]] = {}
    for t, active, _ in entries:
        if not active:
            continue
        if (offered := rows.get(id(t))) is None:
            offered = rows[id(t)] = []
            table = m.strict_rows(t)
            cases = len(table) // len(t.inputs)  # a per-input join's rows run input by input
            for n, (consumed, fired) in enumerate(table):
                events = {b.event for b in consumed if b.event}
                if t.shared_event:
                    events.add(t.shared_event)
                valuation: dict[str, bool] = {}
                for atom, neg in m.row_literals(t, fired):  # the first literal of an atom wins
                    valuation.setdefault(atom, not neg)
                key = (tuple(sorted(events)), tuple(sorted(valuation.items())))
                offered.append((n // cases if len(consumed) < len(t.inputs) else None, key, (events, valuation)))
        for position, key, stimulus in offered:
            if position is None or position in active:
                out.setdefault(key, stimulus)
    return out


def explore(
    model: ProcessModel,
    depth_bound: int,
    start: Configuration | None = None,
) -> list[tuple[ExploreStep, ...]]:
    """Exhaustively enumerate maximal runs up to ``depth_bound`` steps.

    At each configuration it offers each transition that could fire there
    its strict rows' stimuli (``_offers``), skipping conflicting ones.
    Raises UnknownState for an undeclared path in ``start``, and
    TooManyChoiceBranches for an or-split with over 10 guarded outputs.
    """
    if depth_bound > MAX_EXPLORE_DEPTH:
        raise ValueError(f"depth bound above {MAX_EXPLORE_DEPTH}")
    for path, _ in () if start is None else start.entries:
        if path not in m.model_index(model).spaces["state"]:
            raise UnknownState(path)
    if depth_bound <= 0:
        return []
    traces: list[tuple[ExploreStep, ...]] = []
    # firing plans and offered rows met again at another configuration; this
    # call holds the model, and with it every transition they are keyed by
    plans: dict[tuple, m.FiringPlan] = {}
    rows: dict[int, list[tuple]] = {}
    # depth first on a stack: a recursive closure would hold every run in a cycle
    stack = [(start or m.initial_configuration(model), ())]
    while stack:
        config, prefix = stack.pop()
        children = []
        if len(prefix) < depth_bound:
            # one view of the configuration serves every stimulus
            view = _view(model, config)
            for (sorted_events, sorted_valuation), (events, valuation) in _offers(view[1], rows).items():
                try:
                    fired, trace, after = _step(model, config, view, events, valuation, plans)
                except NondeterminismConflict:
                    continue
                if fired:
                    record = ExploreStep(sorted_events, sorted_valuation, fired, trace, after)
                    children.append((after, prefix + (record,)))
        if children:
            stack += reversed(children)
        elif prefix:
            traces.append(prefix)
    return traces
