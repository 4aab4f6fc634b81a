"""XML model format, a small SCXML-inspired subset.

Layout (attributes in brackets are optional):

    <process title="..." [role=] [feature=] [benefit=]>
      <initial id="alpha"/>?          renames the initial pseudostate
      <final id="Beta"/>?             renames the final pseudostate
      <state id="S1">
        <onentry>a1 a2</onentry>?     space-separated action names
        <onexit>a3</onexit>?
        <initial id="S1.a"/>?         default child of a composite
        <state .../>*
      </state>*
      <trans id="t1" [join=] [split=] [event=] [cond=] [do=]>
        <in src="S1" [event=] [do=]/>+
        <out target="S2" [cond=] [do=] [mandatory="true"]/>+
      </trans>*
    </process>

``cond`` uses the guard syntax of the DSL (``g1 and not g2``), without
``#`` comments; ``do`` holds space-separated action names.  The element and attribute sets mirror the DSL
productions one to one, so both parsers yield structurally equal models.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from . import model as m
from .dsl import parse_guard
from .errors import ModelSyntaxError, SemanticError, XmlError


def _split_names(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(text.replace(",", " ").split())


def _cond(elem: ET.Element) -> m.GuardExpr | None:
    text = elem.get("cond")
    if not text:
        return None
    if "#" in text:
        # '#' starts a DSL comment, but an attribute has no comments
        raise XmlError(f"<{elem.tag}> cond {text!r}: '#' is not allowed in a guard")
    try:
        return parse_guard(text)
    except ModelSyntaxError as exc:
        raise XmlError(f"<{elem.tag}> cond {text!r}: {exc.reason}") from exc


def _require(elem: ET.Element, attr: str) -> str:
    value = elem.get(attr)
    if value is None:
        raise XmlError(f"<{elem.tag}> element is missing the {attr!r} attribute")
    return value


def _parse_state(elem: ET.Element, parent_path: str | None) -> m.StateNode:
    """The state `elem` and the states nested in it, no stack frame a level."""
    # the open states: name, path, entry, exit, children, initial, unread elements
    blocks: list[list] = []
    outer = parent_path
    while True:
        name = _require(elem, "id")
        if "." in name:
            prefix, _, local = name.rpartition(".")
            if outer is None or prefix != outer:
                raise XmlError(f"dotted state id {name!r} does not match its nesting")
            name = local
        path = name if outer is None else f"{outer}.{name}"
        blocks.append([name, path, [], [], [], None, iter(elem)])
        elem = None
        while elem is None:
            block = blocks[-1]
            for child in block[6]:
                if child.tag == "state":
                    elem = child
                    break
                if child.tag == "onentry":
                    block[2] += _split_names(child.text)
                elif child.tag == "onexit":
                    block[3] += _split_names(child.text)
                elif child.tag == "initial":
                    if block[5] is not None:
                        raise XmlError(f"initial child of {block[1]!r} declared twice")
                    target = _require(child, "id")
                    block[5] = target if "." in target else f"{block[1]}.{target}"
                else:
                    raise XmlError(f"unexpected <{child.tag}> inside <state>")
            else:
                name, path, entry, exit_, children, initial, _ = blocks.pop()
                node = m.StateNode(name, path, tuple(entry), tuple(exit_), tuple(children), initial)
                if not blocks:
                    return node
                blocks[-1][4].append(node)
        outer = block[1]


def _parse_trans(elem: ET.Element) -> m.TransitionDecl:
    tid = _require(elem, "id")
    inputs: list[m.InBranch] = []
    outputs: list[m.OutBranch] = []
    for child in elem:
        if child.tag == "in":
            inputs.append(
                m.InBranch(
                    source=_require(child, "src"),
                    event=child.get("event"),
                    actions=_split_names(child.get("do")),
                )
            )
        elif child.tag == "out":
            outputs.append(
                m.OutBranch(
                    target=_require(child, "target"),
                    guard=_cond(child),
                    actions=_split_names(child.get("do")),
                    mandatory=child.get("mandatory", "").lower() == "true",
                )
            )
        else:
            raise XmlError(f"unexpected <{child.tag}> inside <trans>")
    return m.TransitionDecl(
        id=tid,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        join_kind=elem.get("join", "none"),
        split_kind=elem.get("split", "none"),
        shared_event=elem.get("event"),
        shared_guard=_cond(elem),
        shared_actions=_split_names(elem.get("do")),
    )


def parse_xml(text: str) -> m.ProcessModel:
    """Parse the XML model format; raises XmlError or SemanticError."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlError(f"malformed XML: {exc}") from exc
    if root.tag != "process":
        raise XmlError(f"expected <process> root, found <{root.tag}>")
    initial_name = m.DEFAULT_INITIAL
    final_name = m.DEFAULT_FINAL
    states: list[m.StateNode] = []
    transitions: list[m.TransitionDecl] = []
    for child in root:
        if child.tag == "initial":
            initial_name = _require(child, "id")
        elif child.tag == "final":
            final_name = _require(child, "id")
        elif child.tag == "state":
            states.append(_parse_state(child, None))
        elif child.tag == "trans":
            transitions.append(_parse_trans(child))
        else:
            raise XmlError(f"unexpected <{child.tag}> inside <process>")
    model = m.ProcessModel(
        title=root.get("title", ""),
        role=root.get("role", ""),
        feature=root.get("feature", ""),
        benefit=root.get("benefit", ""),
        initial_name=initial_name,
        final_name=final_name,
        states=tuple(states),
        transitions=tuple(transitions),
    )
    report = m.validate(model)
    if report:
        raise SemanticError(report)
    return model
