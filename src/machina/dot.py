"""Graphviz DOT export for visual inspection of machine definitions."""

from __future__ import annotations

from .model import (
    TAG_END,
    State,
    StateMachine,
    initial_entry_path,
    start_state,
)


def _quote(text: str) -> str:
    """A DOT double-quoted string; newlines become DOT's ``\\n`` line break."""
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _leaf_anchor(sm: StateMachine, name: str) -> str:
    """A concrete node usable as an edge endpoint for ``name``.

    Composite states are rendered as clusters, which cannot anchor edges
    directly; their initial leaf stands in, with lhead/ltail pointing at
    the cluster.
    """
    return initial_entry_path(sm, name)[-1]


def _emit_state(sm: StateMachine, state: State, lines: list[str], indent: str) -> None:
    if state.is_composite:
        lines.append(f"{indent}subgraph cluster_{state.name} {{")
        lines.append(f"{indent}  label={_quote(state.name)};")
        if TAG_END in state.tags:
            lines.append(f"{indent}  peripheries=2;")
        for sub in state.substates:
            _emit_state(sm, sub, lines, indent + "  ")
        lines.append(f"{indent}}}")
    else:
        shape = "doublecircle" if TAG_END in state.tags else "ellipse"
        lines.append(f"{indent}{_quote(state.name)} [shape={shape}];")


def export_dot(sm: StateMachine) -> str:
    """Render a valid machine as a DOT digraph.

    Composite states become clusters, the start state is marked with a
    point node and end states are double-circled. Edge labels show
    ``event [guard]``.
    """
    lines = [f"digraph {_quote(sm.name)} {{", "  compound=true;", "  rankdir=LR;"]
    lines.append("  __start [shape=point];")
    for state in sm.states:
        _emit_state(sm, state, lines, "  ")

    start = start_state(sm)
    attrs = []
    if sm.state(start).is_composite:
        attrs.append(f"lhead=cluster_{start}")
    suffix = f" [{', '.join(attrs)}]" if attrs else ""
    lines.append(f"  __start -> {_quote(_leaf_anchor(sm, start))}{suffix};")

    for t in sm.transitions:
        label = t.event
        if t.guard:
            label += f" [{t.guard.describe()}]"
        attrs = [f"label={_quote(label)}"]
        if sm.state(t.source).is_composite:
            attrs.append(f"ltail=cluster_{t.source}")
        if sm.state(t.target).is_composite:
            attrs.append(f"lhead=cluster_{t.target}")
        lines.append(
            f"  {_quote(_leaf_anchor(sm, t.source))} -> "
            f"{_quote(_leaf_anchor(sm, t.target))} [{', '.join(attrs)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
