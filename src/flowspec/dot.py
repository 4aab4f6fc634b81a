"""Graphviz rendering of process models.

One node per state and pseudostate; composite states become clusters that
also contain a node for the composite itself, so transitions targeting the
boundary stay ordinary node-to-node edges.  Each (input x output) pair of a
transition contributes one edge labeled ``event [guard] / actions``.
"""

from __future__ import annotations

from . import model as m
from .dsl import quote
from .model import ProcessModel, TransitionDecl


def _node_lines(node: m.StateNode, indent: str) -> list[str]:
    if not node.composite:
        return [f"{indent}{quote(node.path)} [shape=box];"]
    lines = [f"{indent}subgraph cluster_{node.path.replace('.', '_')} {{"]
    lines.append(f"{indent}  label={quote(node.name)};")
    lines.append(f"{indent}  {quote(node.path)} [shape=tab];")
    for child in node.children:
        lines.extend(_node_lines(child, indent + "  "))
    lines.append(f"{indent}}}")
    return lines


def _edge_label(t: TransitionDecl, inp: m.InBranch, out: m.OutBranch) -> str:
    events = [e for e in (inp.event, t.shared_event) if e]
    guards = []
    if t.shared_guard:
        guards.append(t.shared_guard.render())
    if out.guard:
        guards.append(out.guard.render())
    actions = list(inp.actions) + list(t.shared_actions) + list(out.actions)
    label = " ".join(events)
    if guards:
        label += (" " if label else "") + "[" + " and ".join(guards) + "]"
    if actions:
        label += (" " if label else "") + "/ " + ", ".join(actions)
    return label


def render_dot(model: ProcessModel) -> str:
    """Render a deterministic DOT digraph for a valid model."""
    lines = ["digraph process {", "  rankdir=LR;"]
    lines.append(f"  {quote(model.initial_name)} [shape=point];")
    if any(b.target == model.final_name for t in model.transitions for b in t.outputs):
        lines.append(f"  {quote(model.final_name)} [shape=doublecircle];")
    for node in model.states:
        lines.extend(_node_lines(node, "  "))
    for t in model.transitions:
        for inp in t.inputs:
            for out in t.outputs:
                label = _edge_label(t, inp, out)
                attr = f" [label={quote(label)}]" if label else ""
                lines.append(f"  {quote(inp.source)} -> {quote(out.target)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
