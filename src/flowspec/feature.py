"""Given-When-Then feature documents: types, text parser and formatter.

A scenario's source of truth is its raw step lines.  Structured views
(terms, action sequences) are derived from the text on demand, so a document
produced by the emitter and the same document re-read from disk compare
equal.  Steps whose text is free prose (quoted sentences rather than bare
tokens) simply have no structured view; they still feed the skeleton
generator.

Conventions understood by the parser:
  - ``GIVEN/WHEN/THEN`` or ``Given/When/Then`` keywords, one clause per line;
  - uppercase ``AND`` separates terms, ``NOT`` negates a guard term,
    ``;`` separates the members of an ordered action sequence;
  - optional header lines ``Feature:``, ``As a``, ``I request``, ``To gain``;
  - leading comments may carry hints: ``# flowspec: mode=strict``,
    ``# states: S1, S2``, ``# guards: g1``, ``# events: ...``,
    ``# actions: ...``, ``# initial: start``, ``# final: stop``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import FeatureSyntaxError, SourceSpan
from .model import is_ident

_AND_SPLIT = re.compile(r"\s+AND\s+")
_SEQ_SPLIT = re.compile(r"\s*;\s*")
_KEYWORDS = {"given": "Given", "when": "When", "then": "Then"}


@dataclass(frozen=True)
class Term:
    """One conjunct of a GIVEN or WHEN clause.

    ``role`` is advisory metadata (the parser can only guess from syntax;
    replay and inference classify against a model), so it does not take part
    in equality.
    """

    atom: str
    negated: bool = False
    role: str | None = field(default=None, compare=False)

    def render(self) -> str:
        return ("NOT " if self.negated else "") + self.atom


@dataclass(frozen=True)
class ActionSeq:
    """Ordered actions, rendered joined by '; '."""

    actions: tuple[str, ...]

    def render(self) -> str:
        return "; ".join(self.actions)


@dataclass(frozen=True)
class StateTerm:
    """A resulting-state term in a THEN clause."""

    path: str

    def render(self) -> str:
        return self.path


ThenItem = ActionSeq | StateTerm


@dataclass(frozen=True)
class Step:
    keyword: str  # "Given" | "When" | "Then"
    text: str


def _structure_terms(text: str, default_role: str):
    terms = []
    for chunk in _AND_SPLIT.split(text.strip()):
        negated = False
        if chunk.startswith("NOT "):
            negated = True
            chunk = chunk[4:].strip()
        if not is_ident(chunk):
            return None
        terms.append(Term(chunk, negated, "guard" if negated else default_role))
    return tuple(terms)


def _structure_then(text: str):
    items = []
    for chunk in _AND_SPLIT.split(text.strip()):
        parts = [p for p in _SEQ_SPLIT.split(chunk.strip()) if p]
        if not parts or not all(is_ident(p) for p in parts):
            return None
        items.append(ActionSeq(tuple(parts)))
    return tuple(items)


@dataclass(frozen=True)
class Scenario:
    name: str
    steps: tuple[Step, ...]

    def _texts(self, keyword: str) -> list[str]:
        return [s.text for s in self.steps if s.keyword == keyword]

    @cached_property
    def given(self):
        terms: list[Term] = []
        for text in self._texts("Given"):
            part = _structure_terms(text, "state")
            if part is None:
                return None
            terms.extend(part)
        return tuple(terms) or None

    @cached_property
    def when(self):
        terms: list[Term] = []
        for text in self._texts("When"):
            part = _structure_terms(text, "event")
            if part is None:
                return None
            terms.extend(part)
        return tuple(terms) or None

    @cached_property
    def then(self):
        items: list[ThenItem] = []
        for text in self._texts("Then"):
            part = _structure_then(text)
            if part is None:
                return None
            items.extend(part)
        return tuple(items) or None

    @property
    def structured(self) -> bool:
        return self.given is not None and self.when is not None and self.then is not None


@dataclass(frozen=True)
class DocHints:
    states: tuple[str, ...] = ()
    events: tuple[str, ...] = ()
    guards: tuple[str, ...] = ()
    actions: tuple[str, ...] = ()
    initial: str | None = None
    final: str | None = None

    def __bool__(self) -> bool:
        return bool(
            self.states or self.events or self.guards or self.actions
            or self.initial or self.final
        )


@dataclass(frozen=True)
class FeatureDoc:
    title: str = ""
    role: str = ""
    feature: str = ""
    benefit: str = ""
    scenarios: tuple[Scenario, ...] = ()
    mode_hint: str | None = None
    hints: DocHints = DocHints()


def scenario_from_clauses(name, given, when, then) -> Scenario:
    """Build a scenario from structured clauses, rendering its step text."""
    steps = (
        Step("Given", " AND ".join(t.render() for t in given)),
        Step("When", " AND ".join(t.render() for t in when)),
        Step("Then", " AND ".join(i.render() for i in then)),
    )
    return Scenario(name=name, steps=steps)


# ---------------------------------------------------------------------------
# Formatter
# ---------------------------------------------------------------------------

STYLES = ("paper_upper", "gherkin")


def format_feature(doc: FeatureDoc, style: str = "paper_upper") -> str:
    """Deterministic text rendering; LF endings, one clause per line."""
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}")
    upper = style == "paper_upper"
    lines: list[str] = []
    if doc.mode_hint:
        lines.append(f"# flowspec: mode={doc.mode_hint}")
    for key, values in (
        ("states", doc.hints.states),
        ("events", doc.hints.events),
        ("guards", doc.hints.guards),
        ("actions", doc.hints.actions),
    ):
        if values:
            lines.append(f"# {key}: " + ", ".join(values))
    if doc.hints.initial:
        lines.append(f"# initial: {doc.hints.initial}")
    if doc.hints.final:
        lines.append(f"# final: {doc.hints.final}")
    if doc.title:
        lines.append(f"Feature: {doc.title}")
    if doc.role:
        lines.append(f"As a {doc.role}")
    if doc.feature:
        lines.append(f"I request {doc.feature}")
    if doc.benefit:
        lines.append(f"To gain {doc.benefit}")
    for scenario in doc.scenarios:
        if lines:
            lines.append("")
        lines.append(f"Scenario: {scenario.name}")
        for step in scenario.steps:
            keyword = step.keyword.upper() if upper else step.keyword
            lines.append(f"{keyword} {step.text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_HINT_RE = re.compile(r"#\s*(states|events|guards|actions|initial|final)\s*:\s*(.*)")
_MODE_RE = re.compile(r"#\s*flowspec:\s*mode=([\w-]+)")


class _DocBuilder:
    def __init__(self, filename: str):
        self.filename = filename
        self.title = ""
        self.role = ""
        self.feature = ""
        self.benefit = ""
        self.mode_hint: str | None = None
        self.hint_fields: dict[str, object] = {}
        self.scenarios: list[Scenario] = []
        self.names: set[str] = set()
        self.current_name: str | None = None
        self.current_steps: list[Step] = []
        self.current_span: SourceSpan | None = None
        self.auto = 0
        self.saw_header = False

    def span(self, line: int, column: int = 1) -> SourceSpan:
        return SourceSpan(self.filename, line, column)

    def open_scenario(self, name: str | None, span: SourceSpan):
        self.close_scenario()
        if name is None:
            self.auto += 1
            name = f"scenario {self.auto}"
        if name in self.names:
            raise FeatureSyntaxError(
                "MalformedClause", f"duplicate scenario name {name!r}", span
            )
        self.current_name = name
        self.current_steps = []
        self.current_span = span

    def close_scenario(self):
        if self.current_name is None:
            return
        kinds = {s.keyword for s in self.current_steps}
        if kinds != {"Given", "When", "Then"}:
            missing = sorted({"Given", "When", "Then"} - kinds)
            raise FeatureSyntaxError(
                "MalformedClause",
                f"scenario {self.current_name!r} lacks {', '.join(missing)} clauses",
                self.current_span or self.span(1),
            )
        self.names.add(self.current_name)
        self.scenarios.append(Scenario(self.current_name, tuple(self.current_steps)))
        self.current_name = None
        self.current_steps = []


def parse_feature(text: str, filename: str = "<string>") -> FeatureDoc:
    """Parse feature text into a document.

    Raises FeatureSyntaxError with codes EmptyDocument, MalformedClause
    (a malformed clause, or a name hinted in two roles) or UnknownKeyword.
    """
    b = _DocBuilder(filename)
    in_preamble = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if in_preamble:
                mode = _MODE_RE.match(line)
                if mode:
                    b.mode_hint = mode.group(1)
                    continue
                hint = _HINT_RE.match(line)
                if hint:
                    key, payload = hint.group(1), hint.group(2)
                    if key in ("initial", "final"):
                        b.hint_fields[key] = payload.strip()
                    else:
                        names = tuple(
                            n.strip() for n in payload.split(",") if n.strip()
                        )
                        for other in ("states", "events", "guards", "actions"):
                            clash = set(names) & set(b.hint_fields.get(other, ()))
                            if other != key and clash:
                                raise FeatureSyntaxError(
                                    "MalformedClause",
                                    f"{', '.join(sorted(clash))} hinted as both "
                                    f"{other} and {key}",
                                    b.span(lineno),
                                )
                        b.hint_fields[key] = names
            continue
        span = b.span(lineno)
        first, _, rest = line.partition(" ")
        rest = rest.strip()
        if line.startswith("Scenario:"):
            in_preamble = False
            name = line[len("Scenario:") :].strip() or None
            b.open_scenario(name, span)
            continue
        keyword = _KEYWORDS.get(first.lower())
        if keyword:
            in_preamble = False
            if not rest:
                raise FeatureSyntaxError("MalformedClause", "clause has no content", span)
            if b.current_name is None or (
                keyword == "Given"
                and any(s.keyword == "Then" for s in b.current_steps)
            ):
                b.open_scenario(None, span)
            b.current_steps.append(Step(keyword, rest))
            continue
        if b.current_name is None and b.auto == 0 and not b.scenarios:
            if line.startswith("Feature:"):
                b.title = line[len("Feature:") :].strip()
                b.saw_header = True
                continue
            if line.startswith("As a "):
                b.role = line[len("As a ") :].strip()
                b.saw_header = True
                continue
            if line.startswith("I request "):
                b.feature = line[len("I request ") :].strip()
                b.saw_header = True
                continue
            if line.startswith("To gain "):
                b.benefit = line[len("To gain ") :].strip()
                b.saw_header = True
                continue
        raise FeatureSyntaxError("UnknownKeyword", f"unrecognized line {line!r}", span)
    b.close_scenario()
    if not b.scenarios and not b.saw_header:
        raise FeatureSyntaxError(
            "EmptyDocument", "no scenarios or header lines found", b.span(1)
        )
    hints = DocHints(
        states=tuple(b.hint_fields.get("states", ())),
        events=tuple(b.hint_fields.get("events", ())),
        guards=tuple(b.hint_fields.get("guards", ())),
        actions=tuple(b.hint_fields.get("actions", ())),
        initial=b.hint_fields.get("initial"),
        final=b.hint_fields.get("final"),
    )
    return FeatureDoc(
        title=b.title,
        role=b.role,
        feature=b.feature,
        benefit=b.benefit,
        scenarios=tuple(b.scenarios),
        mode_hint=b.mode_hint,
        hints=hints,
    )
