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

Comments run from ``#`` to end of line.  Tokens come from ``str.split``:
``str.find`` locates each string and comment, and the code between them is
split on blanks once ``{``, ``}`` and ``,`` are spaced out.  ``str.split``
takes more characters for blanks than the four the grammar allows (space,
tab, CR, LF), but any character in code that is neither one of those nor
part of a token is an error, so one test of the code keeps them out.  The
parser reads the tokens as plain strings: a string token keeps its quotes,
so it never equals a keyword, and end of input is ``""``.  Each distinct
token is tested as an identifier once, and ``validate`` tests every name
that must be plain (no dot) in one match.  A diagnostic names its token by
1-based line and column, counted in characters; only a diagnostic computes
one, by running the token regex ``_TOKEN_RE`` over the text up to the
failing token, and only an input in error runs it.  Inside a composite block
a child may be declared by its local segment or by its full dotted path; a
dotted name whose prefix does not match the enclosing state is rejected.  A
comma inside ``do`` lists also separates branches; since action names and
state names live in disjoint namespaces, the parser ends an identlist as
soon as the next identifier is a declared state or pseudostate.
"""

from __future__ import annotations

import re
from itertools import islice

from . import model as m
from .errors import ModelSyntaxError, SemanticError, SourceSpan

# in the order of the ProcessModel fields they set
_HEADER_KEYS = ("role", "feature", "benefit", "initialname", "finalname")

# One match per token: the blanks and comments before it, then the token as
# the one group.  Only a diagnostic runs it, to find a stray character and to
# place the failing token.  A string that does not close on its line, or at
# all, fails its alternative and falls through to a lone '"'.  The blank
# prefix never backtracks: after it, `[\s\S]` matches any character and `\Z`
# the end of the text, so some alternative always matches where the greedy
# prefix stops, and a long run of blanks costs one pass.
_TOKEN_RE = re.compile(
    r"""(?:[ \t\r\n]+|\#[^\n]*)*
      ( [{},]
      | "(?:[^"\\\n]|\\[\s\S])*"
      | [\w.]+
      | [\s\S]
      | \Z)""",
    re.VERBOSE,
)
# A string or a comment, by the rules of `_TOKEN_RE`.
_STRING_OR_COMMENT_RE = re.compile(r'"(?:[^"\\\n]|\\[\s\S])*"|#[^\n]*')
# the ASCII characters code may hold: word characters, punctuation, blanks
_CODE_BYTES = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.{}, \t\r\n"
_ESCAPE_RE = re.compile(r"\\([\s\S])")
_NOT_WORDS = frozenset(("{", "}", ",", ""))


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


def _words(code: str) -> list[str]:
    """The tokens of code with no strings or comments in it."""
    return code.replace("{", " { ").replace("}", " } ").replace(",", " , ").split()


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.toks, self.idents = self.scan()
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def scan(self) -> tuple[list[str], set[str]]:
        """The tokens, and the set of those that are identifiers."""
        text = self.text
        toks: list[str] = []
        code: list[str] = []
        strings: set[str] = set()
        start = 0
        # `str.find` looks for the next string or comment, each at its
        # first '"' or "#"; a quote that opens no string is an error
        quote, mark = text.find('"'), text.find("#")
        while quote >= 0 or mark >= 0:
            at = quote if mark < 0 or 0 <= quote < mark else mark
            match = _STRING_OR_COMMENT_RE.match(text, at)
            if match is None:
                self.fail_stray()
            code.append(piece := text[start:at])
            toks += _words(piece)
            if at == quote:
                toks.append(tok := match[0])
                strings.add(tok)
            start = match.end()
            if 0 <= quote < start:
                quote = text.find('"', start)
            if 0 <= mark < start:
                mark = text.find("#", start)
        code.append(piece := text[start:])
        toks += _words(piece)
        toks.append("")
        # `str.split` takes more than the four DSL blanks for blanks, so the
        # code may hold only those blanks, punctuation and word characters:
        # once the ASCII ones are deleted, what is left must be alphanumeric.
        # Any other character is an error that `_TOKEN_RE` places.
        odd = "".join(code).encode("utf-8", "surrogatepass").translate(None, _CODE_BYTES)
        if odd and not odd.decode("utf-8", "surrogatepass").isalnum():
            self.fail_stray()
        # each distinct word is tested once; joined by dots, the words are
        # one identifier exactly when each of them is one
        words = set(toks).difference(_NOT_WORDS, strings)
        if not m.IDENT_RE.match(".".join(words)):
            words = set(filter(m.IDENT_RE.match, words))
        return toks, words

    def fail_stray(self):
        """Raise at the first character `_TOKEN_RE` reads as a token of its
        own that no token rule allows."""
        for i, tok in enumerate(_TOKEN_RE.findall(self.text)):
            if len(tok) == 1 and not (tok.isalnum() or tok in "_.{},"):
                if tok == '"':
                    self.fail("BadString", "unterminated string", i)
                self.fail("UnexpectedToken", f"stray character {tok!r}", i)

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

    def fail_ident(self, index: int, what: str):
        """Raise at token `index`, which is not an identifier."""
        tok = self.toks[index]
        if not _is_word(tok):
            self.fail("UnexpectedToken", f"expected {what}, found {_shown(tok)!r}", index)
        self.fail("UnexpectedToken", f"malformed identifier {tok!r}", index)

    def expect(self, text: str) -> None:
        tok = self.toks[self.pos]
        if tok != text:
            self.fail("UnexpectedToken", f"expected {text!r}, found {_shown(tok)!r}")
        self.pos += 1

    def expect_string(self, what: str) -> str:
        tok = self.toks[self.pos]
        if tok[:1] != '"':
            self.fail("UnexpectedToken", f"expected {what} string, found {tok!r}")
        self.pos += 1
        return _shown(tok)

    # -- grammar -----------------------------------------------------------
    #
    # Below `parse_model`, each reader keeps the token index in a local `pos`
    # and names the failing token's index to `fail`; those called with an
    # index return the index after what they read.

    def parse_model(self) -> m.ProcessModel:
        toks = self.toks
        if toks[0] != "process":
            self.fail("MissingProcessHeader", "input does not start with a process block", 0)
        self.pos = 1
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
                states += self.parse_states(known)
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
        report = m.validate(model)
        if report:
            raise SemanticError(report)
        return model

    def parse_states(self, known: set[str]) -> list[m.StateNode]:
        """Parse the run of top-level state blocks at the next token, a
        "state", and the blocks nested in them, with no stack frame per
        level; every path parsed is added to `known`."""
        toks, idents = self.toks, self.idents
        pos = self.pos
        top: list[m.StateNode] = []
        blocks: list[list] = []  # open: name, path, entry, exit, children, initial
        while toks[pos] == "state":
            name = toks[pos + 1]
            if name not in idents:
                self.fail_ident(pos + 1, "state name")
            pos += 2
            outer = blocks[-1][1] if blocks else None
            if "." in name:
                prefix, _, local = name.rpartition(".")
                if outer is None or prefix != outer:
                    message = f"dotted state name {name!r} does not match the enclosing state"
                    self.fail("BadNesting", message, pos - 1)
                name = local
            path = name if outer is None else f"{outer}.{name}"
            known.add(path)
            if toks[pos] == "{":
                pos += 1
                blocks.append([name, path, [], [], [], None])
            else:
                (blocks[-1][4] if blocks else top).append(m.StateNode(name, path))
            # the rest of the innermost open block, up to its next child
            while blocks and (tok := toks[pos]) != "state":
                pos += 1
                block = blocks[-1]
                if tok == "}":
                    blocks.pop()
                    name, path, entry, exit_, children, initial = block
                    node = m.StateNode(name, path, tuple(entry), tuple(exit_), tuple(children), initial)
                    (blocks[-1][4] if blocks else top).append(node)
                elif tok == "entry":
                    names, pos = self.identlist(pos)
                    block[2] += names
                elif tok == "exit":
                    names, pos = self.identlist(pos)
                    block[3] += names
                elif tok == "initial":
                    path = block[1]
                    child = toks[pos]
                    if child not in idents:
                        self.fail_ident(pos, "initial child")
                    if "." not in child:
                        child = f"{path}.{child}"
                    elif not child.startswith(path + "."):
                        self.fail("BadNesting", f"initial child {child!r} is outside {path!r}", pos)
                    if block[5] is not None:
                        self.fail("UnexpectedToken", "initial child declared twice", pos)
                    block[5] = child
                    pos += 1
                elif tok == "":
                    self.fail("UnexpectedEnd", f"unterminated state block {block[1]!r}", pos - 1)
                else:
                    self.fail("UnexpectedToken", f"unexpected {_shown(tok)!r} in state block", pos - 1)
        self.pos = pos
        return top

    def capture_trans(self) -> tuple[str, int, int]:
        """Record the token range of the trans block at the next token, a
        "trans", for the second pass and step past its closing brace."""
        toks = self.toks
        pos = self.pos
        name = toks[pos + 1]
        if name not in self.idents:
            self.fail_ident(pos + 1, "transition id")
        if toks[pos + 2] != "{":
            self.fail("UnexpectedToken", f"expected '{{', found {_shown(toks[pos + 2])!r}", pos + 2)
        start = end = pos + 3
        depth = 1  # a body in error may hold braces; count them to its match
        while depth:
            try:
                close = toks.index("}", end)
            except ValueError:
                self.fail("UnexpectedEnd", "unterminated trans block", len(toks) - 1)
            depth += toks[end:close].count("{") - 1
            end = close + 1
        self.pos = end
        return name, start, end - 1

    def parse_trans(self, name: str, start: int, end: int, known: set[str]) -> m.TransitionDecl:
        """Parse the body captured by `capture_trans`, once every state is
        known; `end` is the index of its closing brace."""
        toks, idents = self.toks, self.idents
        pos = start
        if toks[pos] != "from":
            self.fail("UnexpectedToken", f"expected 'from', found {_shown(toks[pos])!r}", pos)
        inputs = []
        while True:  # at "from" or ","
            source = toks[pos + 1]
            if source not in idents:
                self.fail_ident(pos + 1, "source state")
            pos += 2
            event = None
            if toks[pos] == "on":
                event = toks[pos + 1]
                if event not in idents:
                    self.fail_ident(pos + 1, "event")
                pos += 2
            actions = ()
            if toks[pos] == "do":
                actions, pos = self.identlist(pos + 1, known)
            inputs.append(m.InBranch(source, event, actions))
            if toks[pos] != ",":
                break
        join_kind = split_kind = "none"
        if toks[pos] == "join":
            join_kind, pos = self.parse_kind(pos, m.JOIN_KINDS)
        if toks[pos] == "split":
            split_kind, pos = self.parse_kind(pos, m.SPLIT_KINDS)
        shared_event = shared_guard = None
        if toks[pos] == "on":
            shared_event = toks[pos + 1]
            if shared_event not in idents:
                self.fail_ident(pos + 1, "event")
            pos += 2
        if toks[pos] == "if":
            shared_guard, pos = self.parse_guard(pos + 1)
        shared_actions = ()
        if toks[pos] == "do":
            shared_actions, pos = self.identlist(pos + 1, known)
        if toks[pos] != "to":
            self.fail("UnexpectedToken", f"expected 'to', found {_shown(toks[pos])!r}", pos)
        outputs = []
        while True:  # at "to" or ","
            target = toks[pos + 1]
            if target not in idents:
                self.fail_ident(pos + 1, "target state")
            pos += 2
            guard = None
            if toks[pos] == "if":
                guard, pos = self.parse_guard(pos + 1)
            actions = ()
            if toks[pos] == "do":
                actions, pos = self.identlist(pos + 1, known)
            mandatory = toks[pos] == "mandatory"
            pos += mandatory
            outputs.append(m.OutBranch(target, guard, actions, mandatory))
            if toks[pos] != ",":
                break
        if pos != end:
            self.fail("UnexpectedToken", f"unexpected {_shown(toks[pos])!r} in trans block", pos)
        return m.TransitionDecl(
            name, tuple(inputs), tuple(outputs), join_kind, split_kind,
            shared_event, shared_guard, shared_actions,
        )

    def parse_kind(self, pos: int, kinds: tuple[str, ...]) -> tuple[str, int]:
        """The join or split kind after the keyword at token `pos`, and the
        index after it; `kinds` are those the keyword allows."""
        kind = self.toks[pos + 1]
        if kind not in self.idents:
            self.fail_ident(pos + 1, f"{self.toks[pos]} kind")
        if kind == "none" or kind not in kinds:
            self.fail("UnexpectedToken", f"bad {self.toks[pos]} kind {kind!r}", pos + 1)
        return kind, pos + 2

    def parse_guard(self, pos: int) -> tuple[m.GuardExpr, int]:
        """The guard at token `pos`, and the index after it."""
        toks, idents = self.toks, self.idents
        literals = []
        while True:
            negated = toks[pos] == "not"
            atom = toks[pos + negated]
            if atom not in idents:
                self.fail_ident(pos + negated, "guard atom")
            literals.append((atom, negated))
            pos += negated + 1
            if toks[pos] != "and":
                return m.GuardExpr(tuple(literals)), pos
            pos += 1

    def identlist(self, pos: int, stop_at: set[str] | None = None) -> tuple[tuple[str, ...], int]:
        """The names of the identlist at token `pos`, and the index after it.
        With `stop_at`, a comma before one of its names ends the list, as it
        starts the next branch."""
        toks, idents = self.toks, self.idents
        items = []
        while True:
            if (tok := toks[pos]) not in idents:
                self.fail_ident(pos, "name")
            items.append(tok)
            if toks[pos + 1] != "," or not _is_word(nxt := toks[pos + 2]):
                return tuple(items), pos + 1
            if stop_at is not None and nxt in stop_at:
                return tuple(items), pos + 1  # the comma starts the next branch
            pos += 2


def parse_dsl(text: str, filename: str = "<string>") -> m.ProcessModel:
    """Parse model text; raises ModelSyntaxError or SemanticError."""
    return _Parser(text, filename).parse_model()


def parse_guard(text: str, filename: str = "<string>") -> m.GuardExpr:
    """Parse a whole text as one guard (``g1 and not g2``); raises
    ModelSyntaxError."""
    parser = _Parser(text, filename)
    guard, pos = parser.parse_guard(0)
    tail = parser.toks[pos]
    if tail != "":
        parser.fail("UnexpectedToken", f"trailing input {_shown(tail)!r}", pos)
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
