"""The DSL parser as it was before the grammar read plain token strings.

Each token is a `_Tok` with its kind and offset, the scanner computes every
token's offset up front, and the grammar reads tokens through `peek`, `at`
and `next`.  ``test_dsl.py`` compares today's parser against it: the same
model, the same diagnostics, or the same code, message and span.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from flowspec import model as m
from flowspec.errors import ModelSyntaxError, SemanticError, SourceSpan

_HEADER_KEYS = ("role", "feature", "benefit", "initialname", "finalname")

# One match per token: the blanks and comments before it, then one
# alternative per token kind, and the group that matched names the kind.  A
# string that does not close on its line, or at all, fails its alternative
# and falls through to `bad` at the opening quote.  The blank prefix never
# backtracks: after it, `bad` matches any character and `eof` the end of the
# text, so some alternative always matches where the greedy prefix stops, and
# a long run of blanks costs one pass.
_TOKEN_RE = re.compile(
    r"""(?:[ \t\r\n]+|\#[^\n]*)*
      (?: (?P<punct>[{},])
        | "(?P<string>(?:[^"\\\n]|\\[\s\S])*)"
        | (?P<ident>[\w.]+)
        | (?P<bad>[\s\S])
        | (?P<eof>\Z))""",
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\([\s\S])")


class _Tok(NamedTuple):
    kind: str  # "ident" | "string" | "punct" | "eof"
    text: str
    offset: int


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.closing: dict[int, int] = {}  # index of each matched "{" -> its "}"
        self.toks = self.scan()
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def scan(self) -> list[_Tok]:
        toks: list[_Tok] = []
        opens: list[int] = []
        text = self.text
        for match in _TOKEN_RE.finditer(text):
            kind = match.lastgroup
            word = match[kind]
            offset = match.start(kind)
            if kind == "string":
                offset -= 1  # at the opening quote
                if "\\" in word:
                    word = _ESCAPE_RE.sub(r"\1", word)
            elif kind == "eof":
                # end of input is placed at the start of a comment that runs
                # up to it: the first "#" on the last line of the blanks.
                # After blanks or a comment at the end, `finditer` would
                # also yield an empty match there, so stop here.
                comment = text.find("#", max(match.start(), text.rfind("\n", match.start()) + 1))
                toks.append(_Tok(kind, word, offset if comment < 0 else comment))
                break
            tok = _Tok(kind, word, offset)
            if kind == "bad":
                if word == '"':
                    self.fail("BadString", "unterminated string", tok)
                self.fail("UnexpectedToken", f"stray character {word!r}", tok)
            if kind == "punct":
                if word == "{":
                    opens.append(len(toks))
                elif word == "}" and opens:
                    self.closing[opens.pop()] = len(toks)
            toks.append(tok)
        return toks

    def span(self, tok: _Tok) -> SourceSpan:
        """1-based line and column of a token, counted in characters."""
        line = self.text.count("\n", 0, tok.offset) + 1
        return SourceSpan(self.filename, line, tok.offset - self.text.rfind("\n", 0, tok.offset))

    def peek(self, ahead: int = 0) -> _Tok:
        # `next` never steps past eof, and a look ahead follows a comma
        return self.toks[self.pos + ahead]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, code: str, message: str, tok: _Tok | None = None):
        raise ModelSyntaxError(code, message, self.span(tok or self.peek()))

    def expect(self, text: str) -> _Tok:
        tok = self.next()
        if tok.kind == "string" or tok.text != text:
            self.fail("UnexpectedToken", f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def expect_ident(self, what: str) -> _Tok:
        tok = self.next()
        if tok.kind != "ident":
            self.fail("UnexpectedToken", f"expected {what}, found {tok.text!r}", tok)
        if not m.is_ident(tok.text):
            self.fail("UnexpectedToken", f"malformed identifier {tok.text!r}", tok)
        return tok

    def expect_string(self, what: str) -> str:
        tok = self.next()
        if tok.kind != "string":
            self.fail("UnexpectedToken", f"expected {what} string, found {tok.text!r}", tok)
        return tok.text

    def at(self, text: str) -> bool:
        """True if the next token is the keyword or punctuation `text`."""
        tok = self.toks[self.pos]
        return tok.kind != "string" and tok.text == text

    def accept(self, text: str) -> bool:
        """Step over the next token if it is the keyword or punctuation
        `text`; the eof token never matches, so this stays on it."""
        if self.at(text):
            self.pos += 1
            return True
        return False

    # -- grammar -----------------------------------------------------------

    def parse_model(self) -> m.ProcessModel:
        if not self.accept("process"):
            self.fail("MissingProcessHeader", "input does not start with a process block")
        title = self.expect_string("title")
        self.expect("{")

        headers = {"role": "", "feature": "", "benefit": ""}
        initial_name = m.DEFAULT_INITIAL
        final_name = m.DEFAULT_FINAL
        while self.peek().kind == "ident" and self.peek().text in _HEADER_KEYS:
            key = self.next().text
            value = self.expect_string(key)
            if key == "initialname":
                initial_name = value
            elif key == "finalname":
                final_name = value
            else:
                headers[key] = value

        known = {initial_name, final_name}
        states: list[m.StateNode] = []
        trans_slices: list[tuple[_Tok, int, int]] = []
        while not self.at("}"):
            tok = self.peek()
            if tok.kind == "eof":
                self.fail("UnexpectedEnd", "unterminated process block", tok)
            if self.at("state"):
                states.append(self.parse_state(None, known))
            elif self.at("trans"):
                trans_slices.append(self.capture_trans())
            else:
                self.fail("UnexpectedToken", f"expected 'state' or 'trans', found {tok.text!r}", tok)
        self.expect("}")
        tail = self.peek()
        if tail.kind != "eof":
            self.fail("UnexpectedToken", f"trailing input {tail.text!r}", tail)

        model = m.ProcessModel(
            title=title,
            role=headers["role"],
            feature=headers["feature"],
            benefit=headers["benefit"],
            initial_name=initial_name,
            final_name=final_name,
            states=tuple(states),
            transitions=tuple(self.parse_trans(*piece, known) for piece in trans_slices),
        )
        report = m.validate(model)
        if report:
            raise SemanticError(report)
        return model

    def parse_state(self, parent: str | None, known: set[str]) -> m.StateNode:
        """Parse one state block; `parent` is the enclosing state's path and
        every path parsed is added to `known`."""
        self.expect("state")
        name_tok = self.expect_ident("state name")
        name = name_tok.text
        if "." in name:
            prefix, _, local = name.rpartition(".")
            if parent is None or prefix != parent:
                self.fail(
                    "BadNesting",
                    f"dotted state name {name!r} does not match the enclosing state",
                    name_tok,
                )
            name = local
        path = name if parent is None else f"{parent}.{name}"
        known.add(path)
        if not self.accept("{"):
            return m.StateNode(name=name, path=path)
        entry: list[str] = []
        exit_: list[str] = []
        initial: str | None = None
        children: list[m.StateNode] = []
        while not self.at("}"):
            tok = self.peek()
            if tok.kind == "eof":
                self.fail("UnexpectedEnd", f"unterminated state block {path!r}", tok)
            if self.accept("entry"):
                entry.extend(self.parse_identlist())
            elif self.accept("exit"):
                exit_.extend(self.parse_identlist())
            elif self.accept("initial"):
                child_tok = self.expect_ident("initial child")
                child = child_tok.text
                if "." not in child:
                    child = f"{path}.{child}"
                elif not child.startswith(path + "."):
                    self.fail(
                        "BadNesting",
                        f"initial child {child_tok.text!r} is outside {path!r}",
                        child_tok,
                    )
                if initial is not None:
                    self.fail("UnexpectedToken", "initial child declared twice", child_tok)
                initial = child
            elif self.at("state"):
                children.append(self.parse_state(path, known))
            else:
                self.fail("UnexpectedToken", f"unexpected {tok.text!r} in state block", tok)
        self.expect("}")
        return m.StateNode(
            name=name,
            path=path,
            entry_actions=tuple(entry),
            exit_actions=tuple(exit_),
            children=tuple(children),
            initial_child=initial,
        )

    def capture_trans(self) -> tuple[_Tok, int, int]:
        """Record the token range of a trans block for the second pass and
        step past its closing brace."""
        self.expect("trans")
        name_tok = self.expect_ident("transition id")
        self.expect("{")
        start = self.pos
        end = self.closing.get(start - 1)
        if end is None:
            self.fail("UnexpectedEnd", "unterminated trans block", self.toks[-1])
        self.pos = end + 1
        return name_tok, start, end

    def parse_trans(self, name_tok: _Tok, start: int, end: int, known: set[str]) -> m.TransitionDecl:
        """Parse the body captured by `capture_trans`, once every state is
        known; `end` is the index of its closing brace."""
        self.pos = start
        self.expect("from")
        inputs = [self.parse_inbr(known)]
        while self.accept(","):
            inputs.append(self.parse_inbr(known))
        join_kind = "none"
        if self.accept("join"):
            tok = self.expect_ident("join kind")
            if tok.text == "none" or tok.text not in m.JOIN_KINDS:
                self.fail("UnexpectedToken", f"bad join kind {tok.text!r}", tok)
            join_kind = tok.text
        split_kind = "none"
        if self.accept("split"):
            tok = self.expect_ident("split kind")
            if tok.text == "none" or tok.text not in m.SPLIT_KINDS:
                self.fail("UnexpectedToken", f"bad split kind {tok.text!r}", tok)
            split_kind = tok.text
        shared_event = None
        if self.accept("on"):
            shared_event = self.expect_ident("event").text
        shared_guard = None
        if self.accept("if"):
            shared_guard = self.parse_guard()
        shared_actions: tuple[str, ...] = ()
        if self.accept("do"):
            shared_actions = tuple(self.parse_identlist(stop_at=known))
        self.expect("to")
        outputs = [self.parse_outbr(known)]
        while self.accept(","):
            outputs.append(self.parse_outbr(known))
        if self.pos != end:
            self.fail("UnexpectedToken", f"unexpected {self.peek().text!r} in trans block")
        return m.TransitionDecl(
            id=name_tok.text,
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            join_kind=join_kind,
            split_kind=split_kind,
            shared_event=shared_event,
            shared_guard=shared_guard,
            shared_actions=shared_actions,
        )

    def parse_inbr(self, known: set[str]) -> m.InBranch:
        source = self.expect_ident("source state").text
        event = None
        if self.accept("on"):
            event = self.expect_ident("event").text
        actions: tuple[str, ...] = ()
        if self.accept("do"):
            actions = tuple(self.parse_identlist(stop_at=known))
        return m.InBranch(source=source, event=event, actions=actions)

    def parse_outbr(self, known: set[str]) -> m.OutBranch:
        target = self.expect_ident("target state").text
        guard = None
        if self.accept("if"):
            guard = self.parse_guard()
        actions: tuple[str, ...] = ()
        if self.accept("do"):
            actions = tuple(self.parse_identlist(stop_at=known))
        mandatory = self.accept("mandatory")
        return m.OutBranch(target=target, guard=guard, actions=actions, mandatory=mandatory)

    def parse_guard(self) -> m.GuardExpr:
        literals = [self.parse_literal()]
        while self.accept("and"):
            literals.append(self.parse_literal())
        return m.GuardExpr(tuple(literals))

    def parse_literal(self) -> tuple[str, bool]:
        negated = self.accept("not")
        atom = self.expect_ident("guard atom").text
        return atom, negated

    def parse_identlist(self, stop_at: set[str] | None = None) -> list[str]:
        items = [self.expect_ident("name").text]
        while self.at(",") and self.peek(1).kind == "ident":
            nxt = self.peek(1).text
            if stop_at is not None and nxt in stop_at:
                break  # comma starts the next branch
            self.next()
            items.append(self.expect_ident("name").text)
        return items


def parse_dsl(text: str, filename: str = "<string>") -> m.ProcessModel:
    """Parse model text; raises ModelSyntaxError or SemanticError."""
    return _Parser(text, filename).parse_model()


def parse_guard(text: str, filename: str = "<string>") -> m.GuardExpr:
    """Parse a whole text as one guard (``g1 and not g2``); raises
    ModelSyntaxError."""
    parser = _Parser(text, filename)
    guard = parser.parse_guard()
    tail = parser.peek()
    if tail.kind != "eof":
        parser.fail("UnexpectedToken", f"trailing input {tail.text!r}", tail)
    return guard
