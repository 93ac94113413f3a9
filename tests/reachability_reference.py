"""The fixed-point reachability check that ``machina.model.validate_machine``
replaced with one work-list pass over the machine's index, kept as the
reference the new check must match on machines with unique state names.

It loops over every transition until nothing changes and, on each pass, walks
each source's subtree to see whether the transition applies. A repeated state
name resolves to its last definition for states and to its first for parents.
"""

from typing import Optional

from machina.model import (
    SEVERITY_WARNING,
    TAG_START,
    UNREACHABLE_STATE,
    StateMachine,
    Violation,
    _walk_with_parents,
)


def reference_reachability_warnings(sm: StateMachine) -> list[Violation]:
    top_starts = [s.name for s in sm.states if TAG_START in s.tags]
    if len(top_starts) != 1:
        return []
    by_name = {st.name: st for st, _ in _walk_with_parents(sm.states)}
    parents: dict[str, Optional[str]] = {}
    for st, parent in _walk_with_parents(sm.states):
        parents.setdefault(st.name, parent.name if parent else None)

    def expand(name: str, reached: set[str]) -> None:
        """Entering a state activates its ancestors and its initial chain."""
        stack = [name]
        while stack:
            n = stack.pop()
            if n in reached or n not in by_name:
                continue
            reached.add(n)
            p = parents.get(n)
            if p is not None:
                stack.append(p)
            st = by_name[n]
            if st.is_composite and st.initial in by_name:
                stack.append(st.initial)

    reached: set[str] = set()
    expand(top_starts[0], reached)
    changed = True
    while changed:
        changed = False
        for t in sm.transitions:
            if t.target in reached or t.target not in by_name:
                continue
            src = by_name.get(t.source)
            if src is None:
                continue
            # A transition applies while its source or any descendant is active.
            active = t.source in reached or any(
                d.name in reached for d, _ in _walk_with_parents(src.substates)
            )
            if active:
                expand(t.target, reached)
                changed = True

    return [
        Violation(
            UNREACHABLE_STATE,
            SEVERITY_WARNING,
            name,
            f"state {name!r} cannot be reached from the start state",
        )
        for name in sorted(by_name)
        if name not in reached
    ]
