"""Given-When-Then feature documents: types, text parser and formatter.

A scenario's source of truth is its raw step lines.  Structured views are
derived from the text, so a document produced by the emitter and the same
document re-read from disk compare equal.  The three views of a scenario
are read together, in one pass over its steps, into a derived slot on first
use, as plain data: ``(atom, negated)`` pairs for GIVEN and WHEN, a tuple of
names per THEN chunk.  Replay and ``reverse`` read those; the ``given``,
``when`` and ``then`` accessors build ``Term`` and ``ActionSeq`` values from
them on each read.  Parsing builds none (a round trip through
the text reads none); ``check_suite`` reads every scenario's in a first pass
and replays in a second, which measured faster than reading each scenario's
just before its replay.  Steps whose text is free prose (quoted sentences
rather than bare tokens) have no structured view; they still feed the
skeleton generator.

Conventions understood by the parser:
  - ``GIVEN/WHEN/THEN`` or ``Given/When/Then`` keywords, one clause per line;
  - uppercase ``AND`` separates terms, ``NOT`` negates a guard term,
    ``;`` separates the members of an ordered action sequence;
  - optional header lines ``Feature:``, ``As a``, ``I request``, ``To gain``;
  - leading comments may carry hints: ``# flowspec: mode=strict``,
    ``# states: S1, S2``, ``# guards: g1``, ``# events: ...``,
    ``# actions: ...``, ``# initial: start``, ``# final: stop``.

The clause keywords, header prefixes and hint keys are spelled once, below;
the parser reads each line once and the formatter writes the same shapes.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .errors import FeatureSyntaxError, SourceSpan
from .model import IDENT_RE
from .values import derived, value_type

_AND_SPLIT = re.compile(r"\s+AND\s+")
_SEQ_SPLIT = re.compile(r"\s*;\s*")

KEYWORDS = ("Given", "When", "Then")
# document field and line prefix; only ``Feature:`` needs no space after it
_HEADERS = (
    ("title", "Feature:"),
    ("role", "As a "),
    ("feature", "I request "),
    ("benefit", "To gain "),
)
# comment hints in the order they are written; the first four list names
_HINT_KEYS = ("states", "events", "guards", "actions", "initial", "final")
_NAME_HINTS = _HINT_KEYS[:4]


@value_type
class Term:
    """One conjunct of a GIVEN or WHEN clause.  What the atom names (state,
    event or guard) is not in the text: replay reads it from a model and
    ``reverse`` from the document's hints and row shapes."""

    atom: str
    negated: bool = False

    def render(self) -> str:
        return ("NOT " if self.negated else "") + self.atom


@value_type
class ActionSeq:
    """One THEN chunk: ordered names, rendered joined by '; '.  A state
    name in it is a resulting state, which replay and ``reverse`` tell
    apart from the actions."""

    actions: tuple[str, ...]

    def render(self) -> str:
        return "; ".join(self.actions)


@value_type
class Step:
    keyword: str  # "Given" | "When" | "Then"
    text: str


_ident = IDENT_RE.match

# A clause as the emitter spells it, names joined by exactly " AND " (or "; " in
# a THEN), none a bare AND or NOT, reads the same through `str.split`.
_NAME = r"(?!(?:AND|NOT)(?:[ ;]|\Z))[A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)*"
_TERMS = re.compile(rf"{_NAME}(?: AND {_NAME})*").fullmatch
_PLAIN = {"Given": _TERMS, "When": _TERMS, "Then": re.compile(rf"{_NAME}(?:(?: AND |; ){_NAME})*").fullmatch}


def _structure(steps: tuple[Step, ...]) -> tuple:
    """The (given, when, then) views of `steps`, read in one pass.  A GIVEN
    or WHEN view holds an ``(atom, negated)`` pair per term and a THEN view
    a tuple of names per chunk.  A view is None when its keyword has no step
    or has a prose step."""
    views: dict[str, list | None] = {"Given": [], "When": [], "Then": []}
    for step in steps:
        keyword = step.keyword
        items = views.get(keyword)
        if items is None:  # not a clause keyword, or its view is already prose
            continue
        text = step.text
        if _PLAIN[keyword](text):
            chunks = text.split(" AND ")
            if keyword == "Then":
                items += [tuple(chunk.split("; ")) for chunk in chunks]
            else:
                items += [(chunk, False) for chunk in chunks]
            continue
        chunks = _AND_SPLIT.split(text.strip())
        if keyword == "Then":
            for chunk in chunks:
                parts = [p for p in _SEQ_SPLIT.split(chunk) if p]
                if not parts or not all(map(_ident, parts)):
                    break
                items.append(tuple(parts))
            else:
                continue
        else:
            for chunk in chunks:
                negated = chunk.startswith("NOT ")
                if negated:
                    chunk = chunk[4:].strip()
                if not _ident(chunk):
                    break
                items.append((chunk, negated))
            else:
                continue
        views[keyword] = None
    return tuple(tuple(items) if items else None for items in views.values())


def _terms(pairs) -> tuple[Term, ...] | None:
    return None if pairs is None else tuple([Term(atom, negated) for atom, negated in pairs])


@value_type
class Scenario:
    name: str
    steps: tuple[Step, ...]
    # (given, when, then) as plain data, read from the steps when first
    # needed: ``(atom, negated)`` pairs in GIVEN and WHEN (the shape of
    # ``GuardExpr.literals``), a tuple of names per THEN chunk
    views: tuple = derived(lambda scenario: _structure(scenario.steps))

    # the typed views, built from the plain ones on each read
    @property
    def given(self) -> tuple[Term, ...] | None:
        return _terms(self.views[0])

    @property
    def when(self) -> tuple[Term, ...] | None:
        return _terms(self.views[1])

    @property
    def then(self) -> tuple[ActionSeq, ...] | None:
        then = self.views[2]
        return None if then is None else tuple([ActionSeq(names) for names in then])

    @property
    def structured(self) -> bool:
        return None not in self.views


def _clash(hints: dict, key: str, names) -> str | None:
    """Why ``names``, hinted as ``key``, clash with the name hints in
    ``hints`` (hint key -> names); None when no name takes two roles."""
    for other in _NAME_HINTS:
        if other != key and (clash := set(names).intersection(hints.get(other, ()))):
            return f"{', '.join(sorted(clash))} hinted as both {other} and {key}"
    return None


@value_type
class DocHints:
    """The hint comments of a document, the only hints ``reverse`` reads.
    Raises ValueError when a name is hinted in two roles."""

    states: tuple[str, ...] = ()
    events: tuple[str, ...] = ()
    guards: tuple[str, ...] = ()
    actions: tuple[str, ...] = ()
    initial: str | None = None
    final: str | None = None

    def __post_init__(self):
        for i, key in enumerate(_NAME_HINTS):
            earlier = {other: getattr(self, other) for other in _NAME_HINTS[:i]}
            if reason := _clash(earlier, key, getattr(self, key)):
                raise ValueError(reason)


@value_type
class FeatureDoc:
    title: str = ""
    role: str = ""
    feature: str = ""
    benefit: str = ""
    scenarios: tuple[Scenario, ...] = ()
    mode_hint: str | None = None
    hints: DocHints = DocHints()


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
    for key in _HINT_KEYS:
        value = getattr(doc.hints, key)
        if value:
            lines.append(f"# {key}: " + (", ".join(value) if key in _NAME_HINTS else value))
    for name, prefix in _HEADERS:
        value = getattr(doc, name)
        if value:
            lines.append(f"{prefix.rstrip()} {value}")
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

_HINT_RE = re.compile(rf"#\s*({'|'.join(_HINT_KEYS)})\s*:\s*(.*)")
_MODE_RE = re.compile(r"#\s*flowspec:\s*mode=([\w-]+)")


def _fail(code: str, reason: str, filename: str, line: int) -> NoReturn:
    raise FeatureSyntaxError(code, reason, SourceSpan(filename, line))


def _closed(name: str, steps: list[Step], filename: str, line: int) -> Scenario:
    """The scenario opened at `line`, once it has a clause of each kind."""
    if len({s.keyword for s in steps}) < len(KEYWORDS):
        missing = sorted(set(KEYWORDS).difference(s.keyword for s in steps))
        reason = f"scenario {name!r} lacks {', '.join(missing)} clauses"
        _fail("MalformedClause", reason, filename, line)
    return Scenario(name, tuple(steps))


def parse_feature(text: str, filename: str = "<string>") -> FeatureDoc:
    """Parse feature text into a document.

    Raises FeatureSyntaxError with codes EmptyDocument, MalformedClause
    (a malformed clause, or a name hinted in two roles) or UnknownKeyword.
    Hint comments and header lines count only before the first scenario;
    comments after it are ignored.
    """
    mode_hint = None
    hints: dict[str, object] = {}
    header: dict[str, str] = {}
    scenarios: dict[str, Scenario] = {}
    name: str | None = None  # the open scenario, from its first line on
    steps: list[Step] = []
    start = 1  # the line that opened it
    then_seen = False  # the open scenario has a Then step
    auto = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if name is None and (mode := _MODE_RE.match(line)):
                mode_hint = mode.group(1)
            elif name is None and (hint := _HINT_RE.match(line)):
                key, payload = hint.groups()
                if key not in _NAME_HINTS:
                    hints[key] = payload.strip()
                    continue
                names = tuple(n.strip() for n in payload.split(",") if n.strip())
                if reason := _clash(hints, key, names):
                    _fail("MalformedClause", reason, filename, lineno)
                hints[key] = names
            continue
        first, _, rest = line.partition(" ")
        keyword = first.capitalize()
        step = None
        if line.startswith("Scenario:"):
            opened = line[len("Scenario:") :].strip() or None
        elif keyword in KEYWORDS:
            rest = rest.strip()
            if not rest:
                _fail("MalformedClause", "clause has no content", filename, lineno)
            step = Step(keyword, rest)
            # a Given after a Then opens the next unnamed scenario
            if name is not None and not (keyword == "Given" and then_seen):
                steps.append(step)
                then_seen = then_seen or keyword == "Then"
                continue
            opened = None
        else:
            for field_name, prefix in _HEADERS:
                if name is None and line.startswith(prefix):
                    header[field_name] = line[len(prefix) :].strip()
                    break
            else:
                _fail("UnknownKeyword", f"unrecognized line {line!r}", filename, lineno)
            continue
        if name is not None:
            scenarios[name] = _closed(name, steps, filename, start)
        if opened is None:
            auto += 1
            opened = f"scenario {auto}"
        if opened in scenarios:
            _fail("MalformedClause", f"duplicate scenario name {opened!r}", filename, lineno)
        name, steps, start, then_seen = opened, [step] if step else [], lineno, keyword == "Then"
    if name is not None:
        scenarios[name] = _closed(name, steps, filename, start)
    if not scenarios and not header:
        _fail("EmptyDocument", "no scenarios or header lines found", filename, 1)
    return FeatureDoc(
        **header,
        scenarios=tuple(scenarios.values()),
        mode_hint=mode_hint,
        hints=DocHints(**hints),
    )
