"""The oracle script builders as they were before replies were written with
a prebuilt JSON writer and steps built with ``tuple_new``, kept as the
reference that ``machina.harness.ORACLE_SCRIPTS`` must match reply for
reply: the same texts, in the same order, with no ``match``."""

import json

from machina.harness import COUNTING, QUERYING, oracle_ids
from machina.providers import ScriptedProvider, ScriptStep


def _from_replies(replies):
    return ScriptedProvider([ScriptStep(reply=r) for r in replies])


def oracle_script_routing(item):
    steps = [item.qtype]
    if item.qtype == COUNTING:
        steps.append(json.dumps(oracle_ids(item.scene, item.spec)))
    else:
        steps.append(item.answer)
    return _from_replies(steps)


def _selection(event, **arguments):
    return json.dumps({"event": event, "arguments": arguments})


def oracle_script_react(item):
    replies = [_selection("filter", predicate=dict(item.spec.predicate))]
    if item.qtype == QUERYING:
        target = oracle_ids(item.scene, item.spec)[0]
        replies.append(_selection("query", object=target, attribute=item.spec.query_attribute))
    replies.append(_selection("finish", text=item.answer))
    return _from_replies(replies)


def oracle_script_planning(item):
    replies = [_selection("filter", predicate=dict(item.spec.predicate))]
    if item.qtype == COUNTING and item.spec.exclude_shape is None:
        replies.append(_selection("count"))
    elif item.qtype == QUERYING:
        target = oracle_ids(item.scene, item.spec)[0]
        replies.append(_selection("lookup", object=target, attribute=item.spec.query_attribute))
    else:
        replies.append(_selection("respond", text=item.answer))
    return _from_replies(replies)


ORACLE_SCRIPTS = {
    "routing": oracle_script_routing,
    "react": oracle_script_react,
    "planning": oracle_script_planning,
}
