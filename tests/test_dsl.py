"""DSL parser and serializer: grammar coverage and the round-trip law."""

import random
import re
import time

import pytest

from flowspec.dsl import _TOKEN_RE, _Parser, _shown, parse_dsl, parse_guard, serialize_dsl
from flowspec.errors import ModelSyntaxError, SemanticError, SourceSpan
from flowspec.generator import GeneratorLimits, random_model
from flowspec.model import ProcessModel, StateNode
from flowspec.xmlio import parse_xml

import dsl_reference
from conftest import FIXTURE_DSL, M1_DSL
from test_xmlio import BAD_CONDS


def test_m1_shape(m1):
    assert len(m1.states) == 2  # alpha is implicit; S1 and S2 declared
    assert m1.initial_name == "alpha"
    assert len(m1.transitions) == 2
    t2 = m1.transitions[1]
    assert t2.inputs[0].source == "S1"
    assert t2.inputs[0].event == "ev1"
    assert t2.inputs[0].actions == ("a1",)
    assert t2.outputs[0].target == "S2"


def test_duplicate_state_raises_semantic_error():
    text = M1_DSL.replace("state S2", "state S1")
    with pytest.raises(SemanticError) as exc:
        parse_dsl(text)
    assert any(d.code == "DuplicateStateName" for d in exc.value.diagnostics)


def test_empty_input_is_missing_header():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_dsl("")
    assert exc.value.code == "MissingProcessHeader"


# A join or split kind the grammar does not name, with the message it gets.
# "none" is the default kind, never written out.
BAD_KINDS = {
    "join none": "bad join kind 'none'",
    "join foo": "bad join kind 'foo'",
    "split foo": "bad split kind 'foo'",
}


def bad_kind_model(clause):
    return f'process "p" {{ state S1 state S2 trans t1 {{ from S1 on e1, S2 on e2 {clause} to S1 }} }}'


@pytest.mark.parametrize("clause", BAD_KINDS)
def test_bad_join_or_split_kind_is_unexpected_token(clause):
    with pytest.raises(ModelSyntaxError) as exc:
        parse_dsl(bad_kind_model(clause), "kinds.pml")
    assert exc.value.code == "UnexpectedToken"
    assert str(exc.value).endswith(BAD_KINDS[clause])
    # the span points at the kind word
    assert exc.value.span.column == bad_kind_model(clause).index(clause.split()[1]) + 1


def test_syntax_error_carries_position():
    text = 'process "x" {\n  state S1\n  junk\n}'
    with pytest.raises(ModelSyntaxError) as exc:
        parse_dsl(text, "input.pml")
    assert exc.value.span.file == "input.pml"
    assert exc.value.span.line == 3
    assert exc.value.span.column >= 3


def test_comments_are_ignored():
    text = M1_DSL.replace('state S1', 'state S1 # the first state')
    model = parse_dsl(text)
    assert [s.path for s in model.states] == ["S1", "S2"]


def test_round_trip_all_fixtures(fixtures):
    for name, model in fixtures.items():
        again = parse_dsl(serialize_dsl(model), f"{name}-again.pml")
        assert again == model, name


def test_serializer_is_deterministic(m9):
    assert serialize_dsl(m9) == serialize_dsl(m9)


def test_serialize_m9_nests_composite(m9):
    text = serialize_dsl(m9)
    assert "initial S6.1" in text
    assert "state S6 {" in text
    assert "state S6.1" in text


def test_states_only_model_serializes_without_trans():
    model = ProcessModel(title="only states", states=(StateNode("S1", "S1"),))
    text = serialize_dsl(model)
    assert "trans" not in text
    assert parse_dsl(text) == model


def test_do_list_comma_stops_at_state_names(m9):
    # "to S2 do a5, S3 do a6": a5 ends the first branch because S3 is a state
    t2 = m9.transitions[1]
    assert [b.target for b in t2.outputs] == ["S2", "S3"]
    assert t2.outputs[0].actions == ("a5",)
    assert t2.outputs[1].actions == ("a6",)


def test_multi_action_do_list():
    text = """\
process "p" {
  state S1
  state S2
  trans t1 { from alpha on go to S1 }
  trans t2 { from S1 on ev1 do b1, b2, b3 to S2 }
}
"""
    model = parse_dsl(text)
    assert model.transitions[1].inputs[0].actions == ("b1", "b2", "b3")


def test_dotted_state_outside_parent_rejected():
    text = 'process "p" { state S6.1 }'
    with pytest.raises(ModelSyntaxError) as exc:
        parse_dsl(text)
    assert exc.value.code == "BadNesting"


def test_dotted_state_with_wrong_prefix_rejected():
    text = 'process "p" { state S6 { initial S6.1 state S7.1 } }'
    with pytest.raises(ModelSyntaxError) as exc:
        parse_dsl(text)
    assert exc.value.code == "BadNesting"


def test_local_child_names_allowed():
    text = 'process "p" { state S6 { initial inner state inner } }'
    model = parse_dsl(text)
    assert model.states[0].initial_child == "S6.inner"
    assert model.states[0].children[0].path == "S6.inner"


def test_renamed_pseudostates_round_trip():
    text = """\
process "p" {
  initialname "start"
  finalname "stop"
  state S1
  trans t1 { from start on go to S1 }
  trans t2 { from S1 on done to stop }
}
"""
    model = parse_dsl(text)
    assert model.initial_name == "start"
    assert model.final_name == "stop"
    assert parse_dsl(serialize_dsl(model)) == model


HEADER_STRINGS = {"title": "a\nb", "role": "r\n", "feature": "\nf \\ \"q\"", "benefit": "x\n\ny"}


def test_header_strings_with_newlines_round_trip():
    text = (
        'process "a\\\nb" {\n  role "r\\\n"\n  feature "\\\nf \\\\ \\"q\\""\n'
        '  benefit "x\\\n\\\ny"\n  state S1\n}\n'
    )
    model = parse_dsl(text)
    assert {key: getattr(model, key) for key in HEADER_STRINGS} == HEADER_STRINGS
    assert serialize_dsl(model) == text
    assert parse_dsl(serialize_dsl(model)) == model

    xml = '<process title="a&#10;b" role="r&#10;" feature="&#10;f \\ &quot;q&quot;" benefit="x&#10;&#10;y">'
    from_xml = parse_xml(xml + '<state id="S1"/></process>')
    assert from_xml == model
    assert parse_dsl(serialize_dsl(from_xml)) == from_xml


def test_unterminated_block_reports_end():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_dsl('process "p" { state S1')
    assert exc.value.code in ("UnexpectedEnd", "UnexpectedToken")


def test_error_spans_point_into_offending_tokens():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_dsl('process "p" { state S6.2 }')
    assert exc.value.span.line == 1
    assert exc.value.span.column == 21  # at the dotted name itself

    with pytest.raises(ModelSyntaxError) as exc:
        parse_dsl('process "p" {\n  state S1\n  trans t1 { to S1 }\n}')
    assert exc.value.span.line == 3  # "to" where "from" is required

    with pytest.raises(ModelSyntaxError) as exc:
        parse_dsl('process "bad\n')
    assert exc.value.code == "BadString"

    # an escaped newline inside a string still counts as a line
    with pytest.raises(ModelSyntaxError) as exc:
        parse_dsl('process "a\\\nb" {\n  state S1\n  bogus\n}', "f.pml")
    assert str(exc.value.span) == "f.pml:4:3"


# -- differential test against the character-loop tokenizer ---------------


def _char_loop_tokens(text, filename):
    """The tokenizer the regex scanner replaced, kept as a reference:
    (kind, text, span) per token, eof last."""
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = SourceSpan(filename, line, col)
        if ch in "{},":
            toks.append(("punct", ch, span))
            i += 1
            col += 1
            continue
        if ch == '"':
            i += 1
            col += 1
            buf = []
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n:
                    buf.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                if text[i] == "\n":
                    raise ModelSyntaxError("BadString", "unterminated string", span)
                buf.append(text[i])
                i += 1
                col += 1
            if i >= n:
                raise ModelSyntaxError("BadString", "unterminated string", span)
            i += 1
            col += 1
            toks.append(("string", "".join(buf), span))
            continue
        if ch.isalnum() or ch in "_.":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            toks.append(("ident", text[i:j], span))
            col += j - i
            i = j
            continue
        raise ModelSyntaxError("UnexpectedToken", f"stray character {ch!r}", span)
    toks.append(("eof", "", SourceSpan(filename, line, col)))
    return toks


def _scanned(scan, text):
    try:
        return scan(text)
    except ModelSyntaxError as exc:
        return exc.code, exc.reason, exc.span


def _kind(tok):
    if tok == "":
        return "eof"
    if tok[0] == '"':
        return "string"
    return "punct" if tok in "{}," else "ident"


def _regex_tokens(text):
    """(kind, text, span) per token, eof last.  Every span comes from one
    pass of the token regex; `_Parser.span`, which rescans the text for each
    call, is checked against them at 64 tokens spread over the text and eof."""
    parser = _Parser(text, "f.pml")
    spans = [parser.span_of(match) for match, _ in zip(_TOKEN_RE.finditer(text), parser.toks)]
    count = len(parser.toks)
    for i in {*range(0, count, max(1, count // 64)), count - 1}:
        assert parser.span(i) == spans[i], (repr(text[:60]), i)
    return [(_kind(tok), _shown(tok), span) for tok, span in zip(parser.toks, spans)]


def _mutants(text, rng):
    """Damaged and re-spelled copies of one model text."""
    cut = lambda: rng.randrange(len(text) + 1)  # noqa: E731
    out = [text[: cut()] for _ in range(3)]  # truncated, often mid-string
    for ch in ["@", "-", ";", "(", "\x0b", "\u00a0", "\\", '"', "#"]:
        i = cut()
        out.append(text[:i] + ch + text[i:])  # stray character
    i = cut()
    out.append(text[:i] + '"ab' + text[i:])  # unterminated string
    out.append(text + '"ab\\')  # backslash at end of input
    out.append(text + "\\")
    out.append(text.replace("S1", "Ş1").replace("a1", "a١").replace("e1", "eⅫ"))
    out.append(text.replace("\n", "\r\n"))
    out.append(text.replace("  ", "\t"))
    out.append(text.rstrip("\n") + "\n# comment on the last line")
    out.append(text.rstrip("\n") + "  # comment after the block")
    out.append(text.replace('" {', '\\\n" {', 1))  # escaped newline in the title
    # a dotted name where a plain one is due, and pseudostate names that are
    # not plain tokens
    for pattern in [r"(on \w+)", r"(do \w+)", r"(if (?:not )?\w+)", r"(trans \w+)", r"(entry \w+)"]:
        out.append(re.sub(pattern, r"\1.x", text, count=1))
    for header in ['initialname "in.x"', 'finalname "f x"', 'initialname ""']:
        out.append(text.replace(" {\n", f" {{\n  {header}\n", 1))
    # characters `str.split` reads as blanks and the grammar does not
    for ch in ["\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028"]:
        i = cut()
        out.append(text[:i] + ch + text[i:])
    out.append(text.replace(" ", "\x0b", 1))
    # punctuation glued to the names around it: "S1{", "a1,a2", "}}"
    out.append(text.replace(" {", "{"))
    out.append(text.replace(", ", ","))
    out.append(re.sub(r"\s+}", "}", text))
    out.append(re.sub(r"\s+", "", text, count=40))
    # a "#" inside a string, and a '"' inside a comment
    out.append(text.replace('" {', ' # not a comment" {', 1))
    out.append(text.replace(" {\n", ' { # a "quoted" word\n', 1))
    out.append(text.replace(" {\n", ' { # an "unclosed quote\n', 1))
    # a string that ends the input, with no newline after it
    out.append(text.rstrip("\n") + ' "tail"')
    out.append(text.rstrip("\n").removesuffix("}") + 'role "last"')
    return out


def _bases():
    bases = list(FIXTURE_DSL.values())
    bases += [serialize_dsl(random_model(seed)) for seed in range(10)]
    bases += [serialize_dsl(random_model(seed, GeneratorLimits(162, 160))) for seed in range(2)]
    return bases


def _differential_inputs():
    rng = random.Random(7)
    bases = _bases()
    return bases + [mutant for base in bases for mutant in _mutants(base, rng)]


def test_regex_scanner_matches_the_character_loop():
    inputs = _differential_inputs()
    errors = escaped = 0
    for text in inputs:
        old = _scanned(lambda t: _char_loop_tokens(t, "f.pml"), text)
        new = _scanned(_regex_tokens, text)
        if "\\\n" in text:
            # the one intended change: the character loop did not count an
            # escaped newline inside a string, so later spans named the
            # wrong line; compare everything but the spans
            escaped += 1
            old = [tok[:2] for tok in old] if isinstance(old, list) else old[:2]
            new = [tok[:2] for tok in new] if isinstance(new, list) else new[:2]
        assert new == old, repr(text[:60])
        errors += not isinstance(new, list)
    # the mutants exercise both error paths, not only clean texts
    assert 0 < errors < len(inputs) and escaped


def test_ident_characters_match_str_isalnum():
    for c in map(chr, range(0x10000)):
        # a run of identifier characters is one token (and so is '""', an
        # empty string), and a lone character is stray where the character
        # loop says so
        assert (_TOKEN_RE.findall(c * 2)[0] == c * 2) == (c.isalnum() or c in '_."'), hex(ord(c))
        char_loop = _scanned(lambda t: _char_loop_tokens(t, "f.pml"), c)
        assert _scanned(_regex_tokens, c) == char_loop, hex(ord(c))


def _parse_outcome(text):
    try:
        return parse_dsl(text)
    except ModelSyntaxError as exc:
        return exc.code, exc.reason


def _scales_linearly(run, build, n=1_000_000):
    """``run(build(n))``, after asserting that it takes under 3 times as
    long as ``run(build(n // 2))``.  Each is the best of 3 timings, taken in
    turns in this one test, so the bound reads no machine speed: a linear
    scan about doubles, a quadratic one about quadruples."""
    texts = [build(n // 2), build(n)]
    best = [float("inf")] * 2
    for _ in range(3):
        for k, text in enumerate(texts):
            start = time.perf_counter()
            outcome = run(text)
            best[k] = min(best[k], time.perf_counter() - start)
    assert best[1] < 3 * best[0], (repr(texts[1][-20:]), best)
    return outcome


@pytest.mark.parametrize("base", [M1_DSL, M1_DSL.rstrip().removesuffix("}")], ids=["valid", "unclosed"])
def test_blank_runs_scan_in_linear_time(base):
    # one regex match takes all the blanks before a token, and it never
    # backtracks into them; each pad is about n characters long
    pads = [
        lambda n: base + " " * n,
        lambda n: base + "# c\n" * (n // 4),
        lambda n: base + "#" + "c" * n,
        lambda n: base + " \t# x\r\n" * (n // 8),
        lambda n: " " * n + base,
    ]
    expected = _parse_outcome(base)
    for pad in pads:
        assert _scales_linearly(_parse_outcome, pad) == expected, repr(pad(20)[-20:])
    # a token per character or two: the error is the one at the first
    for unit in [",", "{ "]:
        outcome = _scales_linearly(_parse_outcome, lambda n: base + unit * (n // len(unit)))
        assert outcome == _parse_outcome(base + (unit * 2)[:2]), repr(unit)


@pytest.mark.parametrize("tail", ["@", '"ab'], ids=["stray", "unterminated"])
def test_errors_after_long_runs_are_placed_in_linear_time(tail):
    # the span of a diagnostic comes from one more scan up to its token
    pads = [
        lambda n: M1_DSL + " " * n + tail,
        lambda n: M1_DSL + "# c\n" * (n // 4) + tail,
        lambda n: " " * n + M1_DSL + tail,
        lambda n: M1_DSL + "ab " * (n // 3) + tail,
    ]
    for pad in pads:
        outcome = _scales_linearly(lambda text: _parsed(_Parser, text), pad)
        assert outcome == _parsed(dsl_reference._Parser, pad(1_000_000)), repr(pad(20)[-20:])


# -- differential test against the depth-counting trans capture ------------


class _DepthCountingParser(_Parser):
    """The parser with a trans capture that walks each body token by token,
    counting brace depth."""

    def capture_trans(self):
        self.expect("trans")
        name = self.toks[self.pos]
        if name not in self.idents:
            self.fail_ident(self.pos, "transition id")
        self.pos += 1
        self.expect("{")
        start = self.pos
        depth = 1
        while depth:
            tok = self.toks[self.pos]
            if tok == "":
                self.fail("UnexpectedEnd", "unterminated trans block")
            self.pos += 1
            if tok == "{":
                depth += 1
            elif tok == "}":
                depth -= 1
        return name, start, self.pos - 1


def _parsed(parser_class, text):
    try:
        return parser_class(text, "f.pml").parse_model()
    except ModelSyntaxError as exc:
        return exc.code, exc.reason, exc.span
    except SemanticError as exc:
        return exc.diagnostics


def _brace_mutants(text, rng):
    """Copies with a brace or a brace pair inserted before a token, or one
    brace deleted."""
    # the offset of each token, eof included once (no base ends in a comment)
    toks = _Parser(text, "f.pml").toks
    offsets = [match.start(1) for match in _TOKEN_RE.finditer(text)][: len(toks)]
    braces = [i for i, ch in enumerate(text) if ch in "{}"]
    out = []
    for _ in range(8):
        i = rng.choice(offsets)
        out.append(text[:i] + rng.choice(["{ ", "} ", "{ } "]) + text[i:])
        i = rng.choice(braces)
        out.append(text[:i] + text[i + 1 :])
    i, j = sorted(rng.sample(braces, 2))
    out.append(text[:i] + text[i + 1 : j] + text[j + 1 :])  # a pair, often unmatched
    return out


def test_trans_capture_matches_the_depth_walk():
    rng = random.Random(3)
    inputs = _differential_inputs()
    inputs += [mutant for base in _bases() for mutant in _brace_mutants(base, rng)]
    outcomes = []
    for text in inputs:
        old = _parsed(_DepthCountingParser, text)
        assert _parsed(_Parser, text) == old, repr(text[:60])
        outcomes.append(old[:2] if isinstance(old, tuple) else type(old).__name__)
    assert "ProcessModel" in outcomes and "list" in outcomes  # valid and invalid models
    assert ("UnexpectedEnd", "unterminated trans block") in outcomes
    assert ("UnexpectedToken", "unexpected '{' in trans block") in outcomes


# -- differential test against the parser that read `_Tok` tokens ----------

GUARD_TEXTS = [
    *BAD_CONDS,
    "",
    "g1 and not g2",
    "not not g1",
    "g1 and g2 }",
    '"g1"',
    'g1 and "x',
    "g1 @",
    "g1.x and not é",
    "g1\n and\tg2",
]


def _guard(parse, text):
    try:
        return parse(text, "f.pml")
    except ModelSyntaxError as exc:
        return exc.code, exc.reason, exc.span


def test_string_tokens_match_the_tok_parser():
    rng = random.Random(3)
    inputs = _differential_inputs()
    inputs += [mutant for base in _bases() for mutant in _brace_mutants(base, rng)]
    outcomes = set()
    for text in inputs:
        old = _parsed(dsl_reference._Parser, text)
        assert _parsed(_Parser, text) == old, repr(text[:60])
        outcomes.add(old[0] if isinstance(old, tuple) else type(old).__name__)
        if isinstance(old, tuple):
            outcomes.add(old[1].partition(" '")[0])
        elif isinstance(old, list):
            outcomes.update(d.message.partition(" '")[0] for d in old if d.code == "BadIdent")
    for text in GUARD_TEXTS:
        assert _guard(parse_guard, text) == _guard(dsl_reference.parse_guard, text), repr(text)
    # valid and invalid models, and each error the scanner raises
    assert {"ProcessModel", "list", "BadString", "stray character", "unterminated trans block"} <= outcomes
    # each name rule of `validate`, on the names the parser has read as tokens
    assert {
        "bad event name",
        "bad action name",
        "bad guard atom name",
        "bad transition id",
        "bad initial pseudostate name",
        "bad final pseudostate name",
    } <= outcomes
