"""Textual model language: parser and canonical serializer.

Grammar (terminals quoted; IDENT is ``str.isalnum`` characters plus ``_``,
with dots only as hierarchy separators, and a name that is not ASCII is
rejected as malformed; STRING is double-quoted with backslash escapes and
ends on its own line unless the newline is escaped):

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

Comments run from ``#`` to end of line.  The parser reads the tokens as
plain strings: a string token keeps its quotes, so it never equals a
keyword, and end of input is ``""``.  Each distinct token is tested as an
identifier once, so ``validate_parsed`` checks only that a name that must be
plain has no dot.  A diagnostic names its token by 1-based line and column,
counted in characters; only a diagnostic computes one, by scanning the text
again up to the failing token.  Inside a composite block a child may be
declared by its local segment or by its full dotted path; a dotted name
whose prefix does not match the enclosing state is rejected.  A comma inside
``do`` lists also separates branches; since action names and state names
live in disjoint namespaces, the parser ends an identlist as soon as the
next identifier is a declared state or pseudostate.
"""

from __future__ import annotations

import re
from itertools import compress, count, islice

from . import model as m
from .errors import ModelSyntaxError, SemanticError, SourceSpan

# in the order of the ProcessModel fields they set
_HEADER_KEYS = ("role", "feature", "benefit", "initialname", "finalname")

# One match per token: the blanks and comments before it, then the token as
# the one group.  A string that does not close on its line, or at all, fails
# its alternative and falls through to a lone '"'.  The blank prefix never
# backtracks: after it, `[\s\S]` matches any character and `\Z` the end of
# the text, so some alternative always matches where the greedy prefix
# stops, and a long run of blanks costs one pass.
_TOKEN_RE = re.compile(
    r"""(?:[ \t\r\n]+|\#[^\n]*)*
      ( [{},]
      | "(?:[^"\\\n]|\\[\s\S])*"
      | [\w.]+
      | [\s\S]
      | \Z)""",
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\([\s\S])")
_BRACES = frozenset("{}")


def _is_word(tok: str) -> bool:
    """True for an identifier or keyword token: not punctuation, a string
    or end of input."""
    return tok != "" and tok[0] not in '{},"'


def _shown(tok: str) -> str:
    """A token as a diagnostic names it: a string without its quotes and
    escapes."""
    if tok[:1] == '"':
        return _ESCAPE_RE.sub(r"\1", tok[1:-1])
    return tok


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.closing: dict[int, int] = {}  # index of each matched "{" -> its "}"
        self.toks, self.idents = self.scan()
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def scan(self) -> tuple[list[str], set[str]]:
        """The tokens, and the set of those that are identifiers."""
        toks = _TOKEN_RE.findall(self.text)
        if len(toks) > 1 and toks[-2] == "":
            # after blanks at the end, `findall` also matches "" at the very
            # end; the first "" is end of input
            toks.pop()
        # each distinct token is tested once; every token of two or more
        # characters is a string or a word
        distinct = set(toks)
        stray = [t for t in distinct if len(t) == 1 and not (t.isalnum() or t in "_.{},")]
        if stray:
            i = min(map(toks.index, stray))
            if toks[i] == '"':
                self.fail("BadString", "unterminated string", i)
            self.fail("UnexpectedToken", f"stray character {toks[i]!r}", i)
        opens: list[int] = []
        for i in compress(count(), map(_BRACES.__contains__, toks)):
            if toks[i] == "{":
                opens.append(i)
            elif opens:
                self.closing[opens.pop()] = i
        return toks, set(filter(m.IDENT_RE.match, distinct))

    def span(self, index: int) -> SourceSpan:
        """Where token `index` starts, from a second scan of the text up to
        it."""
        return self.span_of(next(islice(_TOKEN_RE.finditer(self.text), index, None)))

    def span_of(self, match: re.Match[str]) -> SourceSpan:
        """1-based line and column of the token of a `_TOKEN_RE` match,
        counted in characters."""
        text = self.text
        offset = match.start(1)
        if not match[1]:
            # end of input is placed at the start of a comment that runs up
            # to it: the first "#" on the last line of the blanks
            comment = text.find("#", max(match.start(), text.rfind("\n", match.start()) + 1))
            if comment >= 0:
                offset = comment
        line = text.count("\n", 0, offset) + 1
        return SourceSpan(self.filename, line, offset - text.rfind("\n", 0, offset))

    def fail(self, code: str, message: str, index: int | None = None):
        """Raise at token `index`, by default the next token."""
        raise ModelSyntaxError(code, message, self.span(self.pos if index is None else index))

    def expect(self, text: str) -> None:
        tok = self.toks[self.pos]
        if tok != text:
            self.fail("UnexpectedToken", f"expected {text!r}, found {_shown(tok)!r}")
        self.pos += 1

    def expect_ident(self, what: str) -> str:
        tok = self.toks[self.pos]
        if tok not in self.idents:
            if not _is_word(tok):
                self.fail("UnexpectedToken", f"expected {what}, found {_shown(tok)!r}")
            self.fail("UnexpectedToken", f"malformed identifier {tok!r}")
        self.pos += 1
        return tok

    def expect_string(self, what: str) -> str:
        tok = self.toks[self.pos]
        if tok[:1] != '"':
            self.fail("UnexpectedToken", f"expected {what} string, found {tok!r}")
        self.pos += 1
        return _shown(tok)

    def accept(self, text: str) -> bool:
        """Step over the next token if it is the keyword or punctuation
        `text`; end of input is never one, so this stays on it."""
        if self.toks[self.pos] == text:
            self.pos += 1
            return True
        return False

    # -- grammar -----------------------------------------------------------

    def parse_model(self) -> m.ProcessModel:
        toks = self.toks
        if not self.accept("process"):
            self.fail("MissingProcessHeader", "input does not start with a process block")
        title = self.expect_string("title")
        self.expect("{")

        headers = dict(zip(_HEADER_KEYS, ("", "", "", m.DEFAULT_INITIAL, m.DEFAULT_FINAL)))
        while (key := toks[self.pos]) in _HEADER_KEYS:
            self.pos += 1
            headers[key] = self.expect_string(key)

        known = {headers["initialname"], headers["finalname"]}
        states: list[m.StateNode] = []
        trans_slices: list[tuple[str, int, int]] = []
        while (tok := toks[self.pos]) != "}":
            if tok == "state":
                states.append(self.parse_state(None, known))
            elif tok == "trans":
                trans_slices.append(self.capture_trans())
            elif tok == "":
                self.fail("UnexpectedEnd", "unterminated process block")
            else:
                self.fail("UnexpectedToken", f"expected 'state' or 'trans', found {_shown(tok)!r}")
        self.pos += 1
        if toks[self.pos] != "":
            self.fail("UnexpectedToken", f"trailing input {_shown(toks[self.pos])!r}")

        model = m.ProcessModel(
            title,
            *headers.values(),
            states=tuple(states),
            transitions=tuple(self.parse_trans(*piece, known) for piece in trans_slices),
        )
        report = m.validate_parsed(model)
        if report:
            raise SemanticError(report)
        return model

    def parse_state(self, parent: str | None, known: set[str]) -> m.StateNode:
        """Parse the state block at the next token, a "state", and the blocks
        nested in it, with no stack frame per level; `parent` is the enclosing
        state's path and every path parsed is added to `known`."""
        toks = self.toks
        blocks: list[list] = []  # open: name, path, entry, exit, children, initial
        outer = parent
        while True:
            self.pos += 1  # the "state"
            name = self.expect_ident("state name")
            if "." in name:
                prefix, _, local = name.rpartition(".")
                if outer is None or prefix != outer:
                    self.fail(
                        "BadNesting",
                        f"dotted state name {name!r} does not match the enclosing state",
                        self.pos - 1,
                    )
                name = local
            path = name if outer is None else f"{outer}.{name}"
            known.add(path)
            if self.accept("{"):
                block = [name, path, [], [], [], None]
                blocks.append(block)
            else:
                node = m.StateNode(name=name, path=path)
                if not blocks:
                    return node
                block[4].append(node)
            # the rest of the innermost open block, up to its next child
            while (tok := toks[self.pos]) != "state":
                if tok == "}":
                    self.pos += 1
                    name, path, entry, exit_, children, initial = blocks.pop()
                    node = m.StateNode(name, path, tuple(entry), tuple(exit_), tuple(children), initial)
                    if not blocks:
                        return node
                    block = blocks[-1]
                    block[4].append(node)
                elif self.accept("entry"):
                    block[2].extend(self.parse_identlist())
                elif self.accept("exit"):
                    block[3].extend(self.parse_identlist())
                elif self.accept("initial"):
                    path = block[1]
                    child = self.expect_ident("initial child")
                    if "." not in child:
                        child = f"{path}.{child}"
                    elif not child.startswith(path + "."):
                        self.fail("BadNesting", f"initial child {child!r} is outside {path!r}", self.pos - 1)
                    if block[5] is not None:
                        self.fail("UnexpectedToken", "initial child declared twice", self.pos - 1)
                    block[5] = child
                elif tok == "":
                    self.fail("UnexpectedEnd", f"unterminated state block {block[1]!r}")
                else:
                    self.fail("UnexpectedToken", f"unexpected {_shown(tok)!r} in state block")
            outer = block[1]

    def capture_trans(self) -> tuple[str, int, int]:
        """Record the token range of a trans block for the second pass and
        step past its closing brace."""
        self.expect("trans")
        name = self.expect_ident("transition id")
        self.expect("{")
        start = self.pos
        end = self.closing.get(start - 1)
        if end is None:
            self.fail("UnexpectedEnd", "unterminated trans block", len(self.toks) - 1)
        self.pos = end + 1
        return name, start, end

    def parse_trans(self, name: str, start: int, end: int, known: set[str]) -> m.TransitionDecl:
        """Parse the body captured by `capture_trans`, once every state is
        known; `end` is the index of its closing brace."""
        self.pos = start
        self.expect("from")
        inputs = [self.parse_inbr(known)]
        while self.accept(","):
            inputs.append(self.parse_inbr(known))
        join_kind = "none"
        if self.accept("join"):
            join_kind = self.expect_ident("join kind")
            if join_kind == "none" or join_kind not in m.JOIN_KINDS:
                self.fail("UnexpectedToken", f"bad join kind {join_kind!r}", self.pos - 1)
        split_kind = "none"
        if self.accept("split"):
            split_kind = self.expect_ident("split kind")
            if split_kind == "none" or split_kind not in m.SPLIT_KINDS:
                self.fail("UnexpectedToken", f"bad split kind {split_kind!r}", self.pos - 1)
        shared_event = None
        if self.accept("on"):
            shared_event = self.expect_ident("event")
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
            self.fail("UnexpectedToken", f"unexpected {_shown(self.toks[self.pos])!r} in trans block")
        return m.TransitionDecl(
            name, tuple(inputs), tuple(outputs), join_kind, split_kind, shared_event, shared_guard, shared_actions
        )

    def parse_inbr(self, known: set[str]) -> m.InBranch:
        source = self.expect_ident("source state")
        event = None
        if self.accept("on"):
            event = self.expect_ident("event")
        actions: tuple[str, ...] = ()
        if self.accept("do"):
            actions = tuple(self.parse_identlist(stop_at=known))
        return m.InBranch(source=source, event=event, actions=actions)

    def parse_outbr(self, known: set[str]) -> m.OutBranch:
        target = self.expect_ident("target state")
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
        return self.expect_ident("guard atom"), negated

    def parse_identlist(self, stop_at: set[str] | None = None) -> list[str]:
        toks = self.toks
        items = [self.expect_ident("name")]
        while toks[self.pos] == "," and _is_word(nxt := toks[self.pos + 1]):
            if stop_at is not None and nxt in stop_at:
                break  # comma starts the next branch
            self.pos += 1
            items.append(self.expect_ident("name"))
        return items


def parse_dsl(text: str, filename: str = "<string>") -> m.ProcessModel:
    """Parse model text; raises ModelSyntaxError or SemanticError."""
    return _Parser(text, filename).parse_model()


def parse_guard(text: str, filename: str = "<string>") -> m.GuardExpr:
    """Parse a whole text as one guard (``g1 and not g2``); raises
    ModelSyntaxError."""
    parser = _Parser(text, filename)
    guard = parser.parse_guard()
    tail = parser.toks[parser.pos]
    if tail != "":
        parser.fail("UnexpectedToken", f"trailing input {_shown(tail)!r}")
    return guard


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------


def quote(text: str) -> str:
    """A double-quoted string with backslash escapes, as DSL and DOT read it;
    a newline is escaped too, so the string stays one token."""
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\\n")
    return f'"{escaped}"'


def _identlist(names) -> str:
    return ", ".join(names)


def _state_lines(nodes, indent: str) -> list[str]:
    """The blocks of `nodes` and the states nested in them, no frame a level."""
    lines: list[str] = []
    todo = [(indent, node) for node in reversed(nodes)]  # and (pad, None) to close
    while todo:
        pad, node = todo.pop()
        if node is None:
            lines.append(f"{pad}}}")
            continue
        body = []
        if node.entry_actions:
            body.append(f"{pad}  entry {_identlist(node.entry_actions)}")
        if node.exit_actions:
            body.append(f"{pad}  exit {_identlist(node.exit_actions)}")
        if node.initial_child:
            body.append(f"{pad}  initial {node.initial_child}")
        if body or node.children:
            lines += [f"{pad}state {node.path} {{", *body]
            todo.append((pad, None))
            todo += [(pad + "  ", child) for child in reversed(node.children)]
        else:
            lines.append(f"{pad}state {node.path}")
    return lines


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
    reproduces ``m`` exactly for a valid model read from DSL or inferred by
    ``infer_model``.  A model built by hand can differ: shared actions of a
    single-input transition with no ``join``, ``split``, ``on`` or ``if``
    line come back as that input branch's actions, ``isomorphic`` to ``m``
    but not equal.
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
    lines += _state_lines(model.states, "  ")
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
