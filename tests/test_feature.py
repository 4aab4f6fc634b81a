"""Feature text parsing, formatting and the parse/format adjunction."""

import dataclasses
import itertools
import random
import re

import pytest

from flowspec import feature
from flowspec.dsl import parse_dsl
from flowspec.emit import emit_feature
from flowspec.errors import FeatureSyntaxError, ModelSyntaxError, SourceSpan
from flowspec.feature import (
    ActionSeq,
    DocHints,
    FeatureDoc,
    Scenario,
    Step,
    Term,
    format_feature,
    parse_feature,
)
from flowspec.generator import random_model
from flowspec.model import is_ident

from conftest import DATA_DIR, FIXTURE_DSL, composed_models

SEQUENCE_TEXT = """\
GIVEN S1
WHEN ev1
THEN a1
"""

CHOICE_TEXT = """\
GIVEN S1 AND g1 AND NOT g2
WHEN ev1
THEN a1 AND a2

GIVEN S1 AND g2 AND NOT g1
WHEN ev1
THEN a1 AND a3

GIVEN S1 AND g1 AND g2
WHEN ev1
THEN a1 AND a2 AND a3
"""

SENTENCE_TEXT = """\
Scenario: server is available
  Given there is a resource at "http://localhost:8081/myresource"
  When I request this resource as raw
  Then the response code is 200
"""


def test_parse_single_scenario_terms():
    doc = parse_feature(SEQUENCE_TEXT)
    assert len(doc.scenarios) == 1
    s = doc.scenarios[0]
    assert s.given == (Term("S1"),)
    assert s.when == (Term("ev1"),)
    assert s.then == (ActionSeq(("a1",)),)


def test_parse_negated_guards():
    doc = parse_feature(CHOICE_TEXT)
    first = doc.scenarios[0]
    assert first.given == (Term("S1"), Term("g1"), Term("g2", True))


def test_scenarios_split_on_given_after_then():
    doc = parse_feature(CHOICE_TEXT)
    assert len(doc.scenarios) == 3
    assert [s.name for s in doc.scenarios] == [
        "scenario 1",
        "scenario 2",
        "scenario 3",
    ]


def test_syntax_errors_share_their_fields_but_not_their_handlers():
    span = SourceSpan("f.feature", 2, 3)
    for cls in (FeatureSyntaxError, ModelSyntaxError):
        exc = cls("MalformedClause", "no content", span)
        assert str(exc) == "MalformedClause at f.feature:2:3: no content"
        assert (exc.code, exc.span, exc.reason) == ("MalformedClause", span, "no content")
    assert not issubclass(FeatureSyntaxError, ModelSyntaxError)
    assert not issubclass(ModelSyntaxError, FeatureSyntaxError)


def test_empty_input_rejected():
    with pytest.raises(FeatureSyntaxError) as exc:
        parse_feature("")
    assert exc.value.code == "EmptyDocument"


def test_unknown_keyword_with_position():
    with pytest.raises(FeatureSyntaxError) as exc:
        parse_feature("GIVEN S1\nWHEN ev1\nTHEN a1\nWHATEVER x\n", "f.feature")
    assert exc.value.code == "UnknownKeyword"
    assert exc.value.span.line == 4


def test_clause_without_content_rejected():
    with pytest.raises(FeatureSyntaxError) as exc:
        parse_feature("GIVEN S1\nWHEN\nTHEN a1\n")
    assert exc.value.code == "MalformedClause"


def test_scenario_missing_clause_rejected():
    with pytest.raises(FeatureSyntaxError) as exc:
        parse_feature("Scenario: incomplete\nGIVEN S1\nTHEN a1\n")
    assert exc.value.code == "MalformedClause"
    assert "When" in exc.value.reason


def test_sentence_steps_parse_unstructured():
    doc = parse_feature(SENTENCE_TEXT)
    s = doc.scenarios[0]
    assert s.name == "server is available"
    assert not s.structured
    assert s.steps[0].text.startswith("there is a resource at")


def test_sequenced_then_items():
    doc = parse_feature("GIVEN S1 AND S2\nWHEN e1 AND e2 AND e3\nTHEN a1; a2; a3 AND S3\n")
    s = doc.scenarios[0]
    assert s.then == (ActionSeq(("a1", "a2", "a3")), ActionSeq(("S3",)))


def test_headers_and_hints_parsed():
    text = """\
# flowspec: mode=strict
# states: S1, S2
# guards: g1
Feature: demo
As a tester
I request things
To gain insight

Scenario: one
GIVEN S1
WHEN ev1
THEN a1
"""
    doc = parse_feature(text)
    assert doc.mode_hint == "strict"
    assert doc.hints.states == ("S1", "S2")
    assert doc.hints.guards == ("g1",)
    assert doc.title == "demo"
    assert doc.role == "tester"
    assert doc.feature == "things"
    assert doc.benefit == "insight"


def test_every_hint_key_is_written_and_read_back():
    hints = DocHints(("S1",), ("ev1",), ("g1", "g2"), ("a1",), "start", "stop")
    doc = FeatureDoc(
        title="demo",
        scenarios=(Scenario("one", (Step("Given", "S1"), Step("When", "ev1"), Step("Then", "a1"))),),
        hints=hints,
    )
    text = format_feature(doc)
    assert text.splitlines()[:6] == [
        "# states: S1",
        "# events: ev1",
        "# guards: g1, g2",
        "# actions: a1",
        "# initial: start",
        "# final: stop",
    ]
    assert parse_feature(text) == doc


def test_unknown_style_rejected():
    with pytest.raises(ValueError, match=r"^unknown style 'plain'$"):
        format_feature(FeatureDoc(title="demo"), "plain")


def test_name_hinted_in_two_roles_rejected_at_later_hint():
    text = "# states: S1, x\n# events: ev1\n# guards: g1, x\nGIVEN S1\nWHEN ev1\nTHEN a1\n"
    with pytest.raises(FeatureSyntaxError) as exc:
        parse_feature(text)
    assert exc.value.code == "MalformedClause"
    assert exc.value.span.line == 3
    assert "x hinted as both states and guards" in str(exc.value)


@pytest.mark.parametrize("first, second", list(itertools.combinations(("states", "events", "guards", "actions"), 2)))
def test_a_name_in_two_hinted_roles_is_rejected(first, second):
    # in a document at the later hint line, whichever comes first
    for one, other in ((first, second), (second, first)):
        with pytest.raises(FeatureSyntaxError) as exc:
            parse_feature(f"# {one}: x, y\n# {other}: z, x\nGIVEN S1\nWHEN ev1\nTHEN a1\n")
        assert (exc.value.code, exc.value.span.line) == ("MalformedClause", 2)
        assert exc.value.reason == f"x hinted as both {one} and {other}"
    # hints built in code are rejected, not resolved
    with pytest.raises(ValueError, match=f"^x hinted as both {first} and {second}$"):
        DocHints(**{first: ("x", "y"), second: ("z", "x")})


def test_case_insensitive_keywords():
    doc = parse_feature("given S1\nwhen ev1\nthen a1\n")
    assert doc.scenarios[0].steps[0].keyword == "Given"


def test_duplicate_scenario_names_rejected():
    text = "Scenario: x\nGIVEN S1\nWHEN e\nTHEN a\nScenario: x\nGIVEN S1\nWHEN e\nTHEN a\n"
    with pytest.raises(FeatureSyntaxError) as exc:
        parse_feature(text)
    assert exc.value.code == "MalformedClause"


# ---------------------------------------------------------------------------
# Adjunction: parse after format is the identity on parsed docs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("style", ["paper_upper", "gherkin"])
@pytest.mark.parametrize("text", [SEQUENCE_TEXT, CHOICE_TEXT, SENTENCE_TEXT])
def test_parse_format_adjunction_on_texts(text, style):
    doc = parse_feature(text)
    assert parse_feature(format_feature(doc, style)) == doc


@pytest.mark.parametrize("style", ["paper_upper", "gherkin"])
def test_parse_format_adjunction_on_emitted_docs(fixtures, generated_models, style):
    for model in [*fixtures.values(), *generated_models]:
        for mode in ("paper_exact", "strict"):
            doc = emit_feature(model, mode)
            assert parse_feature(format_feature(doc, style)) == doc


def test_format_parse_format_is_stable():
    doc = parse_feature(CHOICE_TEXT)
    once = format_feature(doc)
    twice = format_feature(parse_feature(once))
    assert once == twice


# ---------------------------------------------------------------------------
# Randomized adjunction property
# ---------------------------------------------------------------------------

from hypothesis import given as hyp_given
from hypothesis import strategies as st

_ident = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,5}", fullmatch=True)
_term = st.builds(lambda a, n: ("NOT " if n else "") + a, _ident, st.booleans())
_clause = st.lists(_term, min_size=1, max_size=3).map(" AND ".join)
_seq = st.lists(_ident, min_size=1, max_size=3).map("; ".join)
_then = st.lists(_seq, min_size=1, max_size=3).map(" AND ".join)


@hyp_given(st.lists(st.tuples(_clause, _clause, _then), min_size=1, max_size=4))
def test_random_documents_round_trip_through_text(rows):
    text = "\n\n".join(
        f"GIVEN {g}\nWHEN {w}\nTHEN {t}" for g, w, t in rows
    )
    doc = parse_feature(text)
    for style in ("paper_upper", "gherkin"):
        assert parse_feature(format_feature(doc, style)) == doc


# ---------------------------------------------------------------------------
# Differential test against the builder-based parser
# ---------------------------------------------------------------------------

_OLD_KEYWORDS = {"given": "Given", "when": "When", "then": "Then"}
_OLD_HINT_RE = re.compile(r"#\s*(states|events|guards|actions|initial|final)\s*:\s*(.*)")
_OLD_MODE_RE = re.compile(r"#\s*flowspec:\s*mode=([\w-]+)")


class _OldDocBuilder:
    """The parser state the single-loop parser replaced, kept as the
    reference."""

    def __init__(self, filename):
        self.filename = filename
        self.title = ""
        self.role = ""
        self.feature = ""
        self.benefit = ""
        self.mode_hint = None
        self.hint_fields = {}
        self.scenarios = []
        self.names = set()
        self.current_name = None
        self.current_steps = []
        self.current_span = None
        self.auto = 0
        self.saw_header = False

    def span(self, line, column=1):
        return SourceSpan(self.filename, line, column)

    def open_scenario(self, name, span):
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


def _old_parse_feature(text, filename="<string>"):
    b = _OldDocBuilder(filename)
    in_preamble = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if in_preamble:
                mode = _OLD_MODE_RE.match(line)
                if mode:
                    b.mode_hint = mode.group(1)
                    continue
                hint = _OLD_HINT_RE.match(line)
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
        keyword = _OLD_KEYWORDS.get(first.lower())
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


# lines a mutant may gain: every header, hint, mode and clause shape, near
# misses of each, and blank lines
_LINE_POOL = [
    "Feature: demo", "Feature:x", "Feature:", "As a tester", "As a", "As atester",
    "I request things", "I request", "To gain insight", "To gain",
    "# flowspec: mode=strict", "#flowspec:mode=paper-exact", "# states: S1, x",
    "# events: ev1, x", "#guards:g1", "# actions: a1, S1", "# initial: start",
    "# final:", "# not a hint",
    "Scenario: one", "Scenario: scenario 1", "Scenario:", "Scenario:two",
    "GIVEN S1", "Given S1 AND NOT g1", "gIvEn S2", "WHEN ev1", "when e",
    "THEN a1", "Then a1; a2 AND S2", "GIVEN", "WHEN   ", "THEN",
    "GIVEN\tS1", "stray words", "", "   ",
]


def _feature_corpus():
    texts = [path.read_text() for path in sorted(DATA_DIR.rglob("*.feature"))]
    texts += [SEQUENCE_TEXT, CHOICE_TEXT, SENTENCE_TEXT]
    models = [parse_dsl(text) for text in FIXTURE_DSL.values()]
    models += [random_model(seed) for seed in range(40)]
    for model in models:
        for mode, style in (("strict", "gherkin"), ("paper_exact", "paper_upper")):
            texts.append(format_feature(emit_feature(model, mode), style))
    rng = random.Random(5)
    mutants = []
    for text in texts:
        for _ in range(8):
            lines = text.split("\n")
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(lines))
                edit = rng.randrange(3)
                if edit == 0:
                    lines.insert(i, rng.choice(_LINE_POOL))
                elif edit == 1:
                    del lines[i]
                else:
                    lines.insert(i, lines[i])
                lines = lines or [""]
            mutants.append("\n".join(lines))
    mutants += ["\n".join(rng.choices(_LINE_POOL, k=rng.randint(0, 8))) for _ in range(200)]
    return texts + mutants


def _read(parse, text):
    try:
        return parse(text, "f.feature")
    except FeatureSyntaxError as exc:
        return exc.code, exc.reason, exc.span


def test_parser_matches_the_builder_parser():
    outcomes = []
    for text in _feature_corpus():
        old = _read(_old_parse_feature, text)
        assert _read(parse_feature, text) == old, repr(text[:80])
        outcomes.append(old[0] if isinstance(old, tuple) else "ok")
    assert {"ok", "EmptyDocument", "MalformedClause", "UnknownKeyword"} <= set(outcomes)


# ---------------------------------------------------------------------------
# Differential test against the per-keyword clause reading
# ---------------------------------------------------------------------------


def _old_structure_terms(text):
    terms = []
    for chunk in re.split(r"\s+AND\s+", text.strip()):
        negated = False
        if chunk.startswith("NOT "):
            negated = True
            chunk = chunk[4:].strip()
        if not is_ident(chunk):
            return None
        terms.append(Term(chunk, negated))
    return tuple(terms)


def _old_structure_then(text):
    items = []
    for chunk in re.split(r"\s+AND\s+", text.strip()):
        parts = [p for p in re.split(r"\s*;\s*", chunk.strip()) if p]
        if not parts or not all(is_ident(p) for p in parts):
            return None
        items.append(ActionSeq(tuple(parts)))
    return tuple(items)


def _old_clause(steps, keyword, structure):
    """The reference view: every `keyword` step structured on its own, one
    walk over the steps per keyword."""
    items = []
    for step in steps:
        if step.keyword == keyword:
            part = structure(step.text)
            if part is None:
                return None
            items.extend(part)
    return tuple(items) or None


def _old_views(steps):
    return (
        _old_clause(steps, "Given", _old_structure_terms),
        _old_clause(steps, "When", _old_structure_terms),
        _old_clause(steps, "Then", _old_structure_then),
    )


_ATOMS = ["S1", "g1", "ev_2", "a.b", "x.y.z"]
_NOISE = [
    "AND", " AND  AND ", " and ", "NOT", "NOT\t", " NOT ", "NOT  ", ";", ";;", " ;; ",
    " ", "\t", "\xa0", ".", '"', "é", "a-b", "S1.", ".a", "\n",
]


def _clause_text(rng, keyword):
    """Clause text that is well formed for `keyword` more often than not:
    sequences mostly in THEN, negations elsewhere, and noise spliced in
    one time in four."""
    then = keyword == "Then"
    terms = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < (0.5 if then else 0.05):
            term = rng.choice(["; ", ";", " ; ", "\t;"]).join(
                rng.choices(_ATOMS, k=rng.randint(1, 3))
            )
        else:
            negation = "" if then else rng.choice(["", "", "", "NOT ", "NOT \t"])
            term = negation + rng.choice(_ATOMS)
        terms.append(term)
    text = rng.choice([" AND ", " AND ", "\tAND\t", "\xa0AND  "]).join(terms)
    if rng.random() < 1 / 4:
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(_NOISE) + text[i:]
    return rng.choice(["", "", " ", "\t"]) + text + rng.choice(["", "", " ", "\xa0"])


def _assert_views_match_reference(scenario):
    want = _old_views(scenario.steps)
    got = (scenario.given, scenario.when, scenario.then)
    assert got == want, scenario.steps
    assert scenario.structured == (None not in want)
    return want


def test_one_pass_clause_reading_matches_per_keyword_reading():
    rng = random.Random(14)
    keywords = ["Given", "When", "Then"]
    prose = 'there is a resource at "http://localhost:8081/r"'
    views = scenarios = read_back = plain = 0
    for n in range(6000):
        # a step of each keyword, then up to three more of any
        picked = keywords + rng.choices(keywords, k=rng.randint(0, 3))
        rng.shuffle(picked)
        steps = [Step(keyword, _clause_text(rng, keyword)) for keyword in picked]
        if n % 10 == 0:  # one prose step among the others
            steps.insert(rng.randrange(len(steps) + 1), Step(rng.choice(keywords), prose))
        if n % 25 == 0:  # a step under no clause keyword is in no view
            steps.insert(rng.randrange(len(steps) + 1), Step("And", "S1"))
        scenario = Scenario(f"s{n}", tuple(steps))
        want = _assert_views_match_reference(scenario)
        views += sum(v is not None for v in want)
        scenarios += scenario.structured
        # the same steps as written to a file and read back
        try:
            doc = parse_feature(format_feature(FeatureDoc(scenarios=(scenario,))))
        except FeatureSyntaxError:
            continue
        for back in doc.scenarios:
            _assert_views_match_reference(back)
            read_back += 1
            plain += sum(bool(feature._PLAIN[s.keyword](s.text)) for s in back.steps)
    # both outcomes, and both ways of reading a clause, occur often enough
    # to be compared
    assert 3600 < views < 14400
    assert 600 < scenarios < 5400
    assert read_back > 1000
    assert plain > 1000


# Clauses the whole-clause pattern must leave to the general reading: a
# bare AND or NOT as a name, a negation, and blanks other than one space
# around AND.
CLAUSE_TRAPS = [
    "x; AND AND y",
    "AND",
    "NOT",
    "ANDy AND x",
    "a AND NOT b",
    "NOTx; AND AND NOT",
    "a; AND",
    "AND; a",
    "a AND AND.b",
    "a\tAND b",
    "a AND\tb",
    "a\xa0AND b",
    "a AND\xa0b",
    "a\xa0AND\xa0b; c",
    "a  AND b",
    "a;b AND c",
    "a ;b",
]


@pytest.mark.parametrize("text", CLAUSE_TRAPS)
@pytest.mark.parametrize("keyword", ["Given", "When", "Then"])
def test_clause_traps_read_as_the_per_keyword_reading(keyword, text):
    steps = {"Given": Step("Given", "S1"), "When": Step("When", "e1"), "Then": Step("Then", "a1")}
    steps[keyword] = Step(keyword, text)
    _assert_views_match_reference(Scenario("trap", tuple(steps.values())))
    # and after a trip through the text
    doc = parse_feature(format_feature(FeatureDoc(scenarios=(Scenario("trap", tuple(steps.values())),))))
    _assert_views_match_reference(doc.scenarios[0])


def _assert_typed_views_rebuild_plain_views(scenario):
    """``given``, ``when`` and ``then`` are the plain views rebuilt as typed
    values: an ``(atom, negated)`` pair per GIVEN and WHEN term, a tuple of
    names per THEN chunk, or None for both."""
    given, when, then = scenario.views
    for pairs, typed in ((given, scenario.given), (when, scenario.when)):
        if pairs is None:
            assert typed is None
            continue
        assert all(type(p) is tuple and type(p[0]) is str and type(p[1]) is bool for p in pairs)
        assert typed == tuple(Term(atom, negated) for atom, negated in pairs)
    if then is None:
        assert scenario.then is None
        return
    assert all(type(c) is tuple and c and all(type(a) is str for a in c) for c in then)
    assert scenario.then == tuple(ActionSeq(chunk) for chunk in then)


def _corpus_models():
    for name, text in FIXTURE_DSL.items():
        yield name, parse_dsl(text)
    yield from composed_models()


def test_typed_views_rebuild_the_plain_views():
    scenarios = 0
    for name, model in _corpus_models():
        for mode in ("strict", "paper_exact"):
            doc = emit_feature(model, mode)
            back = parse_feature(format_feature(doc))
            assert len(back.scenarios) == len(doc.scenarios), (name, mode)
            for scenario in (*doc.scenarios, *back.scenarios):
                _assert_typed_views_rebuild_plain_views(scenario)
                assert scenario.structured, (name, mode, scenario.name)
                scenarios += 1
    for text in CLAUSE_TRAPS:
        for keyword in ("Given", "When", "Then"):
            steps = {"Given": Step("Given", "S1"), "When": Step("When", "e1"), "Then": Step("Then", "a1")}
            steps[keyword] = Step(keyword, text)
            trap = Scenario("trap", tuple(steps.values()))
            back = parse_feature(format_feature(FeatureDoc(scenarios=(trap,)))).scenarios[0]
            for scenario in (trap, back):
                _assert_typed_views_rebuild_plain_views(scenario)
                scenarios += 1
    assert scenarios > 400


def test_replace_reads_the_new_steps():
    scenario = parse_feature(CHOICE_TEXT).scenarios[0]
    other = parse_feature(SEQUENCE_TEXT).scenarios[0]
    assert scenario.given  # the views are built before the copy
    copied = dataclasses.replace(scenario, steps=other.steps)
    assert copied.views == other.views
    assert copied == Scenario(scenario.name, other.steps)
    assert "views" not in repr(copied)
