"""The ``snapshot`` that ``machina.belief.snapshot`` replaced, kept verbatim
as the reference the slot-store copy must match: it builds the copy through
``Belief.__init__``."""

from machina.belief import Belief, copy_json


def reference_snapshot(belief: Belief) -> Belief:
    return Belief(
        list(belief.task_context),
        list(belief.trajectory),
        list(belief.execution_log),
        copy_json(belief.kv),
        belief.current_state,
        belief.inputs,
        belief._parsed,
    )
