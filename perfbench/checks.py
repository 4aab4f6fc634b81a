"""Correctness checks for the benchmark's outputs.

Every check compares an output with a known answer or a required property,
never with a stored copy of an earlier run.  A check returns a list of
``Finding``s; an empty list means the output is right.  A finding is
*known* when it is one of the two program faults the benchmark keeps on
purpose (see README.md); any other finding makes the run incorrect.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass

PASS, FAIL = True, False

KNOWN_SYNC = "paper-exact Synchronization row judged FAIL"
KNOWN_DSL = "DSL text of the reverse parses back with actions moved to the input branch"


@dataclass(frozen=True)
class Finding:
    reason: str
    detail: str
    known: bool = False


def titled_transition(name: str) -> str:
    """The transition id in an emitted scenario title ``<Kind> <tid> [<n>]``."""
    return name.split()[1]


# ---------------------------------------------------------------------------
# check: one `flowspec check --json` command against one suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    name: str
    expected: bool  # PASS or FAIL, known by construction


def check_command(output, rows: list[Row], suite: str) -> list[Finding]:
    """Judge one check command's ``(exit code, stdout, stderr)``.

    ``suite`` is ``strict``, ``paper`` or ``mutated``.  Self-suite rows are
    known to PASS; mutated rows are known to FAIL.
    """
    code, stdout, stderr = output
    if stderr:
        return [Finding("stderr output", stderr.strip()[:200])]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [Finding("stdout is not a JSON report", str(exc))]
    verdicts = report["verdicts"]
    names = [v["scenario"] for v in verdicts]
    if names != [r.name for r in rows]:
        return [Finding("verdicts do not match the suite's rows", f"{len(names)} verdicts for {len(rows)} rows")]

    out: list[Finding] = []
    for row, verdict in zip(rows, verdicts):
        passed = verdict["passed"]
        if passed != row.expected:
            if row.expected is FAIL:
                out.append(Finding("mutated row judged PASS", row.name))
            elif suite == "paper" and row.name.startswith("Synchronization "):
                out.append(Finding(KNOWN_SYNC, row.name, known=True))
            else:
                out.append(Finding(f"{suite} self-suite row judged FAIL", row.name))
        if passed and titled_transition(row.name) not in verdict["fired"]:
            out.append(Finding("passing verdict did not fire its titled transition", row.name))
    if suite == "strict" and report["coverage"] != 1.0:
        out.append(Finding("strict self-suite coverage below 1.0", str(report["coverage"])))
    want_code = 0 if all(v["passed"] for v in verdicts) else 1
    if code != want_code:
        out.append(Finding("exit code disagrees with the verdicts", f"{code} != {want_code}"))
    return out


# ---------------------------------------------------------------------------
# roundtrip: parse, emit both modes, read back, reverse, compare, render
# ---------------------------------------------------------------------------


def _chain(path: str) -> list[str]:
    parts = path.split(".")
    return [".".join(parts[: i + 1]) for i in range(len(parts))]


def _within(path: str, ancestor: str) -> bool:
    return path == ancestor or path.startswith(ancestor + ".")


def state_nodes(model) -> dict:
    """Every state of the model by path."""
    nodes = {}
    todo = list(model.states)
    while todo:
        node = todo.pop()
        nodes[node.path] = node
        todo.extend(node.children)
    return nodes


def structure(model) -> tuple:
    """What strict feature text carries about a model, in the benchmark's
    own terms: state paths, transition ids, and per transition its input
    sources, leaf-resolved output targets, events, guard literals and the
    multiset of actions its full firing performs (its own actions plus the
    exit actions of states it leaves and the entry actions of states it
    enters, since the text cannot say where those actions were declared).
    """
    nodes = state_nodes(model)

    def leaf(path: str) -> str:
        node = nodes.get(path)
        while node is not None and node.children:
            path = node.initial_child
            node = nodes.get(path)
        return path

    transitions = []
    for t in model.transitions:
        sources = [b.source for b in t.inputs]
        targets = [b.target for b in t.outputs]
        actions = [a for b in t.inputs for a in b.actions] + list(t.shared_actions)
        actions += [a for b in t.outputs for a in b.actions]
        left: list[str] = []
        for src in sources:
            for p in _chain(src):
                if p in nodes and p not in left and not any(_within(x, p) for x in targets):
                    left.append(p)
                    actions += nodes[p].exit_actions
        entered: list[str] = []
        for x in targets:
            for p in _chain(leaf(x)):
                if p in nodes and p not in entered and not any(_within(s, p) for s in sources):
                    entered.append(p)
                    actions += nodes[p].entry_actions
        events = [b.event for b in t.inputs if b.event]
        if t.shared_event:
            events.append(t.shared_event)
        literals = list(t.shared_guard.literals) if t.shared_guard else []
        literals += [lit for b in t.outputs if b.guard for lit in b.guard.literals]
        transitions.append(
            (
                t.id,
                tuple(sources),
                tuple(leaf(x) for x in targets),
                tuple(sorted(events)),
                tuple(sorted(literals)),
                tuple(sorted(actions)),
            )
        )
    return tuple(sorted(nodes)), tuple(transitions)


def step_matches(pattern: str, line: str) -> bool:
    """A skeleton pattern read as a regex whose only wildcards are its
    ``(.*)`` groups, tested with ``re.fullmatch``."""
    regex = "(.*)".join(re.escape(part) for part in pattern.split("(.*)"))
    return re.fullmatch(regex, line) is not None


def roundtrip(source, out, reemit_strict, reparse_dsl, isomorphic_without_action) -> list[Finding]:
    """Judge one round trip.

    ``out`` holds the operation's outputs (see ``workloads.RoundTrip``).
    The last three arguments are the program's answers to the follow-up
    questions the checks ask: the strict text re-emitted from the reversed
    model, the reversed model parsed back from its DSL text, and whether
    ``isomorphic`` accepts the source with one action removed.
    """
    f: list[Finding] = []
    errors = [d for d in out.diagnostics if d.severity == "error"]
    if errors:
        f.append(Finding("strict reverse reported errors", str(errors[0])))
    if not out.isomorphic:
        f.append(Finding("reverse is not isomorphic to its source", ""))
    if structure(out.reversed_model) != structure(source):
        f.append(Finding("reverse differs from its source structurally", ""))
    if reemit_strict != out.strict_text:
        f.append(Finding("re-emitting the reverse changed the strict bytes", ""))
    if reparse_dsl != out.reversed_model:
        if structure(reparse_dsl) == structure(out.reversed_model):
            f.append(Finding(KNOWN_DSL, "", known=True))
        else:
            f.append(Finding("DSL text of the reverse parses back to another structure", ""))
    if out.xml_model is not None and out.xml_model != out.model:
        f.append(Finding("parse_xml and parse_dsl disagree", ""))
    if out.model != source:
        f.append(Finding("parse_dsl did not rebuild the source model", ""))
    if isomorphic_without_action:
        f.append(Finding("isomorphic accepted a model with one action removed", ""))

    rows = Counter(titled_transition(s.name) for s in out.paper_doc.scenarios)
    for t in source.transitions:
        if rows[t.id] == 0:
            f.append(Finding("paper-exact output omits a transition", t.id))
        guarded = sum(1 for b in t.outputs if b.guard is not None)
        if t.split_kind == "or" and rows[t.id] != 2**guarded - 1:
            f.append(Finding("or-split rows are not 2^n - 1", f"{t.id}: {rows[t.id]} rows, n={guarded}"))

    pairs = sum(len(t.inputs) * len(t.outputs) for t in source.transitions)
    edges = sum(1 for line in out.dot_text.splitlines() if re.match(r'\s*"[^"]*" -> "[^"]*"', line))
    if edges != pairs:
        f.append(Finding("DOT edges are not one per (input, output) pair", f"{edges} != {pairs}"))

    literal = {s.pattern for s in out.skeletons if "(.*)" not in s.pattern}
    wild = [s.pattern for s in out.skeletons if "(.*)" in s.pattern]
    for scenario in out.paper_doc.scenarios:
        for step in scenario.steps:
            line = f"{step.keyword} {step.text}"
            candidates = ([line] if line in literal else []) + wild
            if not any(step_matches(p, line) for p in candidates):
                f.append(Finding("step matches no skeleton pattern", line))
    return f


# ---------------------------------------------------------------------------
# explore: lint plus bounded run enumeration
# ---------------------------------------------------------------------------


def explore(model, depth, lint_report, runs, initial, step) -> list[Finding]:
    """Judge one model's ``lint`` report and ``explore`` runs.

    ``initial`` is the initial configuration and ``step(config, events,
    valuation)`` re-executes one step with the program's ``step``; each
    listed step must reproduce its ``fired``, ``trace`` and ``after`` from
    the configuration the previous step left (the initial one for the first
    step).
    """
    f: list[Finding] = []
    if len(set(runs)) != len(runs):
        f.append(Finding("explore listed a run twice", ""))
    memo: dict = {}
    visited: set[str] = set()
    for n, run in enumerate(runs):
        if not run or len(run) > depth:
            f.append(Finding("run length outside 1..depth", f"run {n}: {len(run)} steps"))
        config = initial
        for k, s in enumerate(run):
            key = (config, s.events, s.valuation)
            if key not in memo:
                r = step(config, set(s.events), dict(s.valuation))
                memo[key] = (r.fired, r.trace, r.after)
            if memo[key] != (s.fired, s.trace, s.after):
                reason = "run does not start at the initial configuration" if k == 0 else "steps do not chain"
                f.append(Finding(reason, f"run {n} step {k}"))
                break
            visited.update(p for path, _ in s.after.entries for p in _chain(path))
            config = s.after
    unreachable = {d.location for d in lint_report if d.code == "UnreachableState"}
    for path in sorted(visited & unreachable):
        f.append(Finding("explore visits a state lint calls unreachable", path))
    return f
