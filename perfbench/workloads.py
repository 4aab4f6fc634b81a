"""The benchmark's three workloads.

Each workload builds its inputs from the run seed in ``setup``, offers one
round of operations (callables timed one by one), says how much work each
operation did, and judges each operation's output with ``checks``.  The program is
called through its module attributes (``dsl.parse_dsl``, ``cli.run``...), so
a tracer that swaps those attributes sees every call.
"""

from __future__ import annotations

import dataclasses
import io
import random
from dataclasses import dataclass
from pathlib import Path

from flowspec import canon, cli, dot, dsl, emit, feature, generator, infer, patterns, replay, skeletons, xmlio
from flowspec import model as fmodel

import checks
from checks import FAIL, PASS, Row

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "data"


@dataclass(frozen=True)
class Work:
    scenarios: int
    transitions: int
    runs: int


def _limits(n: int) -> generator.GeneratorLimits:
    """The size ladder's rung n, as the ROADMAP defines it."""
    return generator.GeneratorLimits(max_states=n + 2, max_transitions=n)


def _actions(model) -> list[str]:
    names = set()
    for node in checks.state_nodes(model).values():
        names.update(node.entry_actions, node.exit_actions)
    for t in model.transitions:
        names.update(t.shared_actions)
        names.update(a for b in t.inputs for a in b.actions)
        names.update(a for b in t.outputs for a in b.actions)
    return sorted(names)


# ---------------------------------------------------------------------------
# check: `flowspec check <model.pml> <suite.feature> --json`, in-process
# ---------------------------------------------------------------------------


def mutate(text: str, extra: dict[str, str]) -> str:
    """Append `` AND <action>`` to the THEN line of each scenario named in
    ``extra`` (scenario name -> action)."""
    lines = text.split("\n")
    current = None
    for i, line in enumerate(lines):
        if line.startswith("Scenario: "):
            current = line[len("Scenario: "):]
        elif line.startswith("Then ") and current in extra:
            lines[i] = f"{line} AND {extra[current]}"
    return "\n".join(lines)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    rows: tuple[Row, ...]
    suite: str  # strict | paper | mutated
    transitions: int


class Check:
    """Seeded models at the n=160 rung, each checked against its strict
    self-suite, its paper-exact self-suite and a mutated strict suite."""

    name = "check"
    mutate_share = 0.25

    def __init__(self, seed: int, models: int = 16, size: int = 160):
        self.seed, self.n_models, self.size = seed, models, size
        self.commands: list[Command] = []

    def setup(self, workdir: Path) -> None:
        rng = random.Random(f"check:{self.seed}")
        mutation_rng = random.Random(f"check-mutations:{self.seed}")
        while len(self.commands) < 3 * self.n_models:
            model = generator.random_model(rng.randrange(2**31), _limits(self.size))
            strict = emit.emit_feature(model, "strict")
            paper = emit.emit_feature(model, "paper_exact")
            # Every paper-exact command must meet the known Synchronization
            # fault, so that the failed share is the same for every seed.
            if not any(s.name.startswith("Synchronization ") for s in paper.scenarios):
                continue
            k = len(self.commands) // 3
            pml = workdir / f"m{k}.pml"
            pml.write_text(dsl.serialize_dsl(model), encoding="utf-8")
            strict_text = feature.format_feature(strict, "gherkin")
            actions = _actions(model)
            extra = {}
            for s in strict.scenarios:
                if mutation_rng.random() < self.mutate_share:
                    then = set(s.steps[2].text.replace(";", " ").split())
                    extra[s.name] = mutation_rng.choice([a for a in actions if a not in then])
            suites = (
                ("strict", strict_text, [Row(s.name, PASS) for s in strict.scenarios]),
                ("paper", feature.format_feature(paper, "paper_upper"), [Row(s.name, PASS) for s in paper.scenarios]),
                (
                    "mutated",
                    mutate(strict_text, extra),
                    [Row(s.name, FAIL if s.name in extra else PASS) for s in strict.scenarios],
                ),
            )
            for suite, text, rows in suites:
                path = workdir / f"m{k}.{suite}.feature"
                path.write_text(text, encoding="utf-8")
                argv = ("check", str(pml), str(path), "--json")
                self.commands.append(Command(argv, tuple(rows), suite, len(model.transitions)))

    @staticmethod
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(list(argv), out, err)
        return code, out.getvalue(), err.getvalue()

    def operations(self):
        return [lambda c=c: self._run(c.argv) for c in self.commands]

    def work(self, i, output) -> Work:
        c = self.commands[i]
        return Work(len(c.rows), c.transitions, 1)

    def verify(self, i, output):
        c = self.commands[i]
        return checks.check_command(output, list(c.rows), c.suite)


# ---------------------------------------------------------------------------
# roundtrip: compile both modes, read back, reverse, compare, render
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundTrip:
    model: object
    xml_model: object
    strict_text: str
    strict_doc: object
    paper_doc: object
    reversed_model: object
    diagnostics: tuple
    isomorphic: bool
    dsl_text: str
    dot_text: str
    skeletons: tuple


def round_trip(pml: str, xml: str | None) -> RoundTrip:
    model = dsl.parse_dsl(pml)
    xml_model = xmlio.parse_xml(xml) if xml is not None else None
    strict_text = feature.format_feature(emit.emit_feature(model, "strict"), "gherkin")
    paper_text = feature.format_feature(emit.emit_feature(model, "paper_exact"), "paper_upper")
    strict_doc = feature.parse_feature(strict_text)
    paper_doc = feature.parse_feature(paper_text)
    reversed_model, diagnostics = infer.infer_model(strict_doc)
    return RoundTrip(
        model,
        xml_model,
        strict_text,
        strict_doc,
        paper_doc,
        reversed_model,
        tuple(diagnostics),
        canon.isomorphic(reversed_model, model),
        dsl.serialize_dsl(reversed_model),
        dot.render_dot(reversed_model),
        tuple(skeletons.emit_skeletons(paper_doc)),
    )


def _drop_first_action(branches):
    i = next((i for i, b in enumerate(branches) if b.actions), None)
    if i is None:
        return None
    out = list(branches)
    out[i] = dataclasses.replace(out[i], actions=out[i].actions[1:])
    return tuple(out)


def without_one_action(model):
    """The model with the first action of its first transition that has one
    removed."""
    for k, t in enumerate(model.transitions):
        if t.shared_actions:
            t2 = dataclasses.replace(t, shared_actions=t.shared_actions[1:])
        elif (outs := _drop_first_action(t.outputs)) is not None:
            t2 = dataclasses.replace(t, outputs=outs)
        elif (ins := _drop_first_action(t.inputs)) is not None:
            t2 = dataclasses.replace(t, inputs=ins)
        else:
            continue
        ts = list(model.transitions)
        ts[k] = t2
        return dataclasses.replace(model, transitions=tuple(ts))
    raise ValueError("model has no transition action to remove")


class Roundtrip:
    """Seeded models at the n=640 rung, and fixtures m1-m9 read from both
    their .pml and .xml files, each fixture ``fixture_repeats`` times a
    round: a fixture's round trip takes about a millisecond, so it needs
    many samples for a steady median."""

    name = "roundtrip"

    def __init__(self, seed: int, models: int = 6, size: int = 640, fixture_repeats: int = 10):
        self.seed, self.n_models, self.size, self.fixture_repeats = seed, models, size, fixture_repeats
        self.inputs: list[tuple[object, str, str | None]] = []  # (source, pml, xml)

    def setup(self, workdir: Path) -> None:
        rng = random.Random(f"roundtrip:{self.seed}")
        seeded = []
        for _ in range(self.n_models):
            source = generator.random_model(rng.randrange(2**31), _limits(self.size))
            seeded.append((source, dsl.serialize_dsl(source), None))
        fixtures = []
        for pml_path in sorted(FIXTURES.glob("m[1-9].pml")):
            pml = pml_path.read_text(encoding="utf-8")
            xml = pml_path.with_suffix(".xml").read_text(encoding="utf-8")
            fixtures.append((dsl.parse_dsl(pml), pml, xml))
        fixtures *= self.fixture_repeats
        # Spread the short fixture round trips between the long ones, so that
        # a burst of load on the machine cannot slow all of them at once.
        if not seeded:
            self.inputs = fixtures
        for k, item in enumerate(seeded):
            self.inputs.append(item)
            self.inputs.extend(fixtures[k * len(fixtures) // len(seeded): (k + 1) * len(fixtures) // len(seeded)])

    def operations(self):
        return [lambda p=pml, x=xml: round_trip(p, x) for _, pml, xml in self.inputs]

    def work(self, i, output) -> Work:
        scenarios = len(output.strict_doc.scenarios) + len(output.paper_doc.scenarios)
        return Work(scenarios, len(output.model.transitions), 1)

    def verify(self, i, output):
        source = self.inputs[i][0]
        reemit = feature.format_feature(emit.emit_feature(output.reversed_model, "strict"), "gherkin")
        reparse = dsl.parse_dsl(output.dsl_text)
        return checks.roundtrip(source, output, reemit, reparse, canon.isomorphic(without_one_action(source), source))


# ---------------------------------------------------------------------------
# explore: lint, then every maximal run up to a fixed depth
# ---------------------------------------------------------------------------


class Explore:
    """Many small seeded models (GeneratorLimits(22, 20)), each linted and
    explored from its initial configuration to a fixed depth."""

    name = "explore"
    depth = 4

    def __init__(self, seed: int, models: int = 1600):
        self.seed, self.n_models = seed, models
        self.models: list = []

    def setup(self, workdir: Path) -> None:
        rng = random.Random(f"explore:{self.seed}")
        limits = generator.GeneratorLimits(max_states=22, max_transitions=20)
        self.models = [generator.random_model(rng.randrange(2**31), limits) for _ in range(self.n_models)]

    def operations(self):
        return [lambda m=m: (patterns.lint(m), replay.explore(m, self.depth)) for m in self.models]

    def work(self, i, output) -> Work:
        runs = output[1]
        steps = [s for run in runs for s in run]
        return Work(len(steps), sum(len(s.fired) for s in steps), len(runs))

    def verify(self, i, output):
        model = self.models[i]
        lint_report, runs = output
        return checks.explore(
            model,
            self.depth,
            lint_report,
            runs,
            fmodel.initial_configuration(model),
            lambda c, e, v: replay.step(model, c, e, v),
        )


WORKLOADS = {w.name: w for w in (Check, Roundtrip, Explore)}
