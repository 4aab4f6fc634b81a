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


def _node_lines(nodes, indent: str) -> list[str]:
    """The nodes and clusters of `nodes` and their states, no frame a level."""
    lines: list[str] = []
    todo = [(indent, node) for node in reversed(nodes)]  # and (pad, None) to close
    while todo:
        pad, node = todo.pop()
        if node is None:
            lines.append(f"{pad}}}")
        elif not node.composite:
            lines.append(f"{pad}{quote(node.path)} [shape=box];")
        else:
            lines.append(f"{pad}subgraph cluster_{node.path.replace('.', '_')} {{")
            lines.append(f"{pad}  label={quote(node.name)};")
            lines.append(f"{pad}  {quote(node.path)} [shape=tab];")
            todo.append((pad, None))
            todo += [(pad + "  ", child) for child in reversed(node.children)]
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
    lines += _node_lines(model.states, "  ")
    for t in model.transitions:
        for inp in t.inputs:
            for out in t.outputs:
                label = _edge_label(t, inp, out)
                attr = f" [label={quote(label)}]" if label else ""
                lines.append(f"  {quote(inp.source)} -> {quote(out.target)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
