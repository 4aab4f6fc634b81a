"""Textual model language: parser and canonical serializer.

Grammar (terminals quoted; IDENT is letters/digits/underscores with dots only
as hierarchy separators; STRING is double-quoted with backslash escapes):

    model     = "process" STRING "{" header* element* "}"
    header    = ("role"|"feature"|"benefit"|"initialname"|"finalname") STRING
    element   = state | trans
    state     = "state" IDENT [ "{" ("entry" identlist | "exit" identlist
                                     | "initial" IDENT | state)* "}" ]
    trans     = "trans" IDENT "{" "from" inbr ("," inbr)*
                ["join" ("and"|"xor"|"or"|"multi")] ["split" ("and"|"or")]
                ["on" IDENT] ["if" guard] ["do" identlist]
                "to" outbr ("," outbr)* "}"
    inbr      = IDENT ["on" IDENT] ["do" identlist]
    outbr     = IDENT ["if" guard] ["do" identlist] ["mandatory"]
    guard     = ["not"] IDENT ("and" ["not"] IDENT)*
    identlist = IDENT ("," IDENT)*

Comments run from ``#`` to end of line.  Inside a composite block a child may
be declared by its local segment or by its full dotted path; a dotted name
whose prefix does not match the enclosing state is rejected.  A comma inside
``do`` lists also separates branches; since action names and state names live
in disjoint namespaces, the parser ends an identlist as soon as the next
identifier is a declared state or pseudostate.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import model as m
from .errors import ModelSyntaxError, SemanticError, SourceSpan

_HEADER_KEYS = ("role", "feature", "benefit", "initialname", "finalname")


@dataclass(frozen=True)
class _Tok:
    kind: str  # "ident" | "string" | "punct" | "eof"
    text: str
    span: SourceSpan


def _tokenize(text: str, filename: str) -> list[_Tok]:
    toks: list[_Tok] = []
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
            toks.append(_Tok("punct", ch, span))
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
            toks.append(_Tok("string", "".join(buf), span))
            continue
        if ch.isalnum() or ch in "_.":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            word = text[i:j]
            col += j - i
            i = j
            toks.append(_Tok("ident", word, span))
            continue
        raise ModelSyntaxError("UnexpectedToken", f"stray character {ch!r}", span)
    toks.append(_Tok("eof", "", SourceSpan(filename, line, col)))
    return toks


@dataclass
class _StateDraft:
    name: str
    path: str
    span: SourceSpan
    entry: list[str]
    exit: list[str]
    initial: str | None
    children: list["_StateDraft"]


class _Parser:
    def __init__(self, text: str, filename: str):
        self.toks = _tokenize(text, filename)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, code: str, message: str, tok: _Tok | None = None):
        tok = tok or self.peek()
        raise ModelSyntaxError(code, message, tok.span)

    def expect_word(self, word: str) -> _Tok:
        tok = self.next()
        if tok.kind != "ident" or tok.text != word:
            self.fail("UnexpectedToken", f"expected {word!r}, found {tok.text!r}", tok)
        return tok

    def expect_punct(self, text: str) -> _Tok:
        tok = self.next()
        if tok.kind != "punct" or tok.text != text:
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

    def at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    # -- grammar -----------------------------------------------------------

    def parse_model(self) -> m.ProcessModel:
        first = self.peek()
        if first.kind == "eof" or not (first.kind == "ident" and first.text == "process"):
            self.fail("MissingProcessHeader", "input does not start with a process block", first)
        self.next()
        title = self.expect_string("title")
        self.expect_punct("{")

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

        state_drafts: list[_StateDraft] = []
        trans_slices: list[tuple[_Tok, int, int]] = []
        while not self.at_punct("}"):
            tok = self.peek()
            if tok.kind == "eof":
                self.fail("UnexpectedEnd", "unterminated process block", tok)
            if self.at_word("state"):
                state_drafts.append(self.parse_state(parent=None))
            elif self.at_word("trans"):
                trans_slices.append(self.capture_trans())
            else:
                self.fail("UnexpectedToken", f"expected 'state' or 'trans', found {tok.text!r}", tok)
        self.expect_punct("}")
        tail = self.peek()
        if tail.kind != "eof":
            self.fail("UnexpectedToken", f"trailing input {tail.text!r}", tail)

        states = tuple(self.build_state(d) for d in state_drafts)
        draft_model = m.ProcessModel(
            title=title,
            role=headers["role"],
            feature=headers["feature"],
            benefit=headers["benefit"],
            initial_name=initial_name,
            final_name=final_name,
            states=states,
        )
        known = m.state_paths(draft_model) | {initial_name, final_name}

        transitions = []
        for name_tok, start, end in trans_slices:
            transitions.append(self.parse_trans(name_tok, start, end, known))
        full = m.ProcessModel(
            title=title,
            role=headers["role"],
            feature=headers["feature"],
            benefit=headers["benefit"],
            initial_name=initial_name,
            final_name=final_name,
            states=states,
            transitions=tuple(transitions),
        )
        report = m.validate(full)
        if report:
            raise SemanticError(report)
        return full

    def parse_state(self, parent: _StateDraft | None) -> _StateDraft:
        self.expect_word("state")
        name_tok = self.expect_ident("state name")
        name = name_tok.text
        if "." in name:
            prefix, _, local = name.rpartition(".")
            if parent is None or prefix != parent.path:
                self.fail(
                    "BadNesting",
                    f"dotted state name {name!r} does not match the enclosing state",
                    name_tok,
                )
            name = local
        path = name if parent is None else f"{parent.path}.{name}"
        draft = _StateDraft(name, path, name_tok.span, [], [], None, [])
        if not self.at_punct("{"):
            return draft
        self.next()
        while not self.at_punct("}"):
            tok = self.peek()
            if tok.kind == "eof":
                self.fail("UnexpectedEnd", f"unterminated state block {path!r}", tok)
            if self.at_word("entry"):
                self.next()
                draft.entry.extend(self.parse_identlist())
            elif self.at_word("exit"):
                self.next()
                draft.exit.extend(self.parse_identlist())
            elif self.at_word("initial"):
                self.next()
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
                if draft.initial is not None:
                    self.fail("UnexpectedToken", "initial child declared twice", child_tok)
                draft.initial = child
            elif self.at_word("state"):
                draft.children.append(self.parse_state(parent=draft))
            else:
                self.fail("UnexpectedToken", f"unexpected {tok.text!r} in state block", tok)
        self.expect_punct("}")
        return draft

    def build_state(self, draft: _StateDraft) -> m.StateNode:
        return m.StateNode(
            name=draft.name,
            path=draft.path,
            entry_actions=tuple(draft.entry),
            exit_actions=tuple(draft.exit),
            children=tuple(self.build_state(c) for c in draft.children),
            initial_child=draft.initial,
        )

    def capture_trans(self) -> tuple[_Tok, int, int]:
        """Record the token range of a trans block for the second pass."""
        self.expect_word("trans")
        name_tok = self.expect_ident("transition id")
        self.expect_punct("{")
        start = self.pos
        depth = 1
        while depth:
            tok = self.next()
            if tok.kind == "eof":
                self.fail("UnexpectedEnd", "unterminated trans block", tok)
            if tok.kind == "punct" and tok.text == "{":
                depth += 1
            elif tok.kind == "punct" and tok.text == "}":
                depth -= 1
        return name_tok, start, self.pos - 1

    def parse_trans(self, name_tok: _Tok, start: int, end: int, known: set[str]) -> m.TransitionDecl:
        saved = self.pos
        self.pos = start
        self._trans_end = end
        try:
            self.expect_word("from")
            inputs = [self.parse_inbr(known)]
            while self.at_punct(",") and self.pos < end:
                self.next()
                inputs.append(self.parse_inbr(known))
            join_kind = "none"
            if self.at_word("join"):
                self.next()
                tok = self.expect_ident("join kind")
                if tok.text not in ("and", "xor", "or", "multi"):
                    self.fail("UnexpectedToken", f"bad join kind {tok.text!r}", tok)
                join_kind = tok.text
            split_kind = "none"
            if self.at_word("split"):
                self.next()
                tok = self.expect_ident("split kind")
                if tok.text not in ("and", "or"):
                    self.fail("UnexpectedToken", f"bad split kind {tok.text!r}", tok)
                split_kind = tok.text
            shared_event = None
            if self.at_word("on"):
                self.next()
                shared_event = self.expect_ident("event").text
            shared_guard = None
            if self.at_word("if"):
                self.next()
                shared_guard = self.parse_guard()
            shared_actions: tuple[str, ...] = ()
            if self.at_word("do"):
                self.next()
                shared_actions = tuple(self.parse_identlist(stop_at=known))
            self.expect_word("to")
            outputs = [self.parse_outbr(known)]
            while self.at_punct(",") and self.pos < end:
                self.next()
                outputs.append(self.parse_outbr(known))
            if self.pos != end:
                self.fail("UnexpectedToken", f"unexpected {self.peek().text!r} in trans block")
        finally:
            self.pos = saved
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
        if self.at_word("on"):
            self.next()
            event = self.expect_ident("event").text
        actions: tuple[str, ...] = ()
        if self.at_word("do"):
            self.next()
            actions = tuple(self.parse_identlist(stop_at=known))
        return m.InBranch(source=source, event=event, actions=actions)

    def parse_outbr(self, known: set[str]) -> m.OutBranch:
        target = self.expect_ident("target state").text
        guard = None
        if self.at_word("if"):
            self.next()
            guard = self.parse_guard()
        actions: tuple[str, ...] = ()
        if self.at_word("do"):
            self.next()
            actions = tuple(self.parse_identlist(stop_at=known))
        mandatory = False
        if self.at_word("mandatory"):
            self.next()
            mandatory = True
        return m.OutBranch(target=target, guard=guard, actions=actions, mandatory=mandatory)

    def parse_guard(self) -> m.GuardExpr:
        literals = [self.parse_literal()]
        while self.at_word("and"):
            self.next()
            literals.append(self.parse_literal())
        return m.GuardExpr(tuple(literals))

    def parse_literal(self) -> tuple[str, bool]:
        negated = False
        if self.at_word("not"):
            self.next()
            negated = True
        atom = self.expect_ident("guard atom").text
        return atom, negated

    def parse_identlist(self, stop_at: set[str] | None = None) -> list[str]:
        items = [self.expect_ident("name").text]
        while self.at_punct(",") and self.peek(1).kind == "ident":
            nxt = self.peek(1).text
            if stop_at is not None and nxt in stop_at:
                break  # comma starts the next branch
            self.next()
            items.append(self.expect_ident("name").text)
        return items


def parse_dsl(text: str, filename: str = "<string>") -> m.ProcessModel:
    """Parse model text; raises ModelSyntaxError or SemanticError."""
    return _Parser(text, filename).parse_model()


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------


def quote(text: str) -> str:
    """A double-quoted string with backslash escapes, as DSL and DOT read it."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _identlist(names) -> str:
    return ", ".join(names)


def _state_lines(node: m.StateNode, indent: str) -> list[str]:
    body: list[str] = []
    if node.entry_actions:
        body.append(f"{indent}  entry {_identlist(node.entry_actions)}")
    if node.exit_actions:
        body.append(f"{indent}  exit {_identlist(node.exit_actions)}")
    if node.initial_child:
        body.append(f"{indent}  initial {node.initial_child}")
    for child in node.children:
        body.extend(_state_lines(child, indent + "  "))
    if body:
        return [f"{indent}state {node.path} {{", *body, f"{indent}}}"]
    return [f"{indent}state {node.path}"]


def _inbr_text(branch: m.InBranch) -> str:
    parts = [branch.source]
    if branch.event:
        parts.append(f"on {branch.event}")
    if branch.actions:
        parts.append(f"do {_identlist(branch.actions)}")
    return " ".join(parts)


def _outbr_text(branch: m.OutBranch) -> str:
    parts = [branch.target]
    if branch.guard:
        parts.append(f"if {branch.guard.render()}")
    if branch.actions:
        parts.append(f"do {_identlist(branch.actions)}")
    if branch.mandatory:
        parts.append("mandatory")
    return " ".join(parts)


def serialize_dsl(model: m.ProcessModel) -> str:
    """Render a model back to canonical DSL text.

    Declaration order is preserved, so ``parse_dsl(serialize_dsl(m))``
    reproduces ``m`` exactly for a model read from DSL.  For a model built
    otherwise (``infer_model`` does this), shared actions of a single-input
    transition come back as that input branch's actions: the result is
    ``isomorphic`` to ``m`` but not equal.
    """
    lines = [f"process {quote(model.title)} {{"]
    for key, value in (
        ("role", model.role),
        ("feature", model.feature),
        ("benefit", model.benefit),
    ):
        if value:
            lines.append(f"  {key} {quote(value)}")
    if model.initial_name != m.DEFAULT_INITIAL:
        lines.append(f"  initialname {quote(model.initial_name)}")
    if model.final_name != m.DEFAULT_FINAL:
        lines.append(f"  finalname {quote(model.final_name)}")
    for node in model.states:
        lines.extend(_state_lines(node, "  "))
    for t in model.transitions:
        lines.append(f"  trans {t.id} {{")
        lines.append("    from " + ", ".join(_inbr_text(b) for b in t.inputs))
        if t.join_kind != "none":
            lines.append(f"    join {t.join_kind}")
        if t.split_kind != "none":
            lines.append(f"    split {t.split_kind}")
        if t.shared_event:
            lines.append(f"    on {t.shared_event}")
        if t.shared_guard:
            lines.append(f"    if {t.shared_guard.render()}")
        if t.shared_actions:
            lines.append(f"    do {_identlist(t.shared_actions)}")
        lines.append("    to " + ", ".join(_outbr_text(b) for b in t.outputs))
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
