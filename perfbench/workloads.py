"""Seeded inputs and per-item runners for the three benchmark workloads.

An item is one whole task: building the agent, every ``run(...)`` call until
the task ends, and scoring the result against an independent expectation.
The runners call machina through module attributes (``engine.run``,
``harness.make_qa_agent``) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from machina import engine, harness
from machina.actions import builtin_registry
from machina.belief import new_belief
from machina.providers import ScriptedProvider
from machina.scene import normalize_answer, scene_to_json_value

from latency import LatencyModel, LatencyProvider, chatty_replies

VARIANTS = ("routing", "react", "planning")
WORKFLOWS = ("class_name", "h3", "test_driven", "agent_coder")
END_LEAF = "Done"

QA_SCENES = 200  # three questions each: 600 distinct items per seed
RESUME_PER_WORKFLOW = 24  # 96 distinct items per seed
MIN_EVENTS, MAX_EVENTS = 10, 60
MAX_PAYLOAD_BYTES = 2048

ZERO_LATENCY = LatencyModel(a=0.0, b=0.0, c=0.0)


@dataclass(frozen=True)
class QaItem:
    index: int
    variant: str
    data: harness.DatasetItem
    replies: tuple[str, ...] = ()  # chatty provider script; empty for oracle-mix


@dataclass(frozen=True)
class ResumeItem:
    index: int
    workflow: str
    events: tuple[engine.EventInstance, ...]


@dataclass(frozen=True)
class Outcome:
    """What one item run produced. ``completed`` is false when the task
    raised or ended in a status other than ``completed``."""

    completed: bool
    correct: bool
    calls: int
    prompt_bytes: int
    reply_bytes: int
    detail: str = ""
    waited_s: float = 0.0  # simulated provider delay inside the item


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in README.md and BENCHMARK.json."""

    name: str
    clients: int
    warmup: int  # items run in each set-up round
    make_inputs: Callable[[int], list]
    # run_item(item, latency) runs one item. The timed phase passes
    # ``latency``; warm-up, audit and cross-check pass ZERO_LATENCY, which
    # changes timing only, never counts or replies.
    run_item: Callable[[object, LatencyModel], Outcome]
    latency: LatencyModel = ZERO_LATENCY
    eval_factory: Callable[[str, dict], Callable] | None = None


# ---------------------------------------------------------------------------
# Question answering (oracle-mix, sim-latency)


def _variant(index: int) -> str:
    # The generator cycles question types by index % 3; shifting the variant
    # by one per scene gives every variant every question type.
    return VARIANTS[(index + index // 3) % 3]


def qa_inputs(seed: int) -> list[QaItem]:
    dataset = harness.generate_mini_clevr(seed, QA_SCENES, 3)
    return [QaItem(d.index, _variant(d.index), d) for d in dataset.items]


def chatty_inputs(seed: int) -> list[QaItem]:
    rnd = random.Random(seed)
    items = []
    for item in qa_inputs(seed):
        oracle = harness.ORACLE_SCRIPTS[item.variant](item.data)
        replies = chatty_replies([s.reply for s in oracle.steps], rnd)
        items.append(QaItem(item.index, item.variant, item.data, tuple(replies)))
    return items


def _output_text(output) -> str:
    if output is None:
        return ""
    if isinstance(output, bool):
        return "yes" if output else "no"
    if isinstance(output, (str, int, float)):
        return str(output)
    return json.dumps(output, sort_keys=True)


def _score_qa(item: QaItem, result: engine.RunResult, waited_s: float = 0.0) -> Outcome:
    completed = result.status == engine.STATUS_COMPLETED
    got = normalize_answer(_output_text(result.output)) if completed else ""
    expected = normalize_answer(item.data.answer)
    return Outcome(
        completed=completed,
        correct=completed and got == expected,
        calls=result.stats.calls,
        prompt_bytes=result.stats.prompt_bytes,
        reply_bytes=result.stats.reply_bytes,
        detail="" if got == expected else f"{result.status}: got {got!r}, expected {expected!r}",
        waited_s=waited_s,
    )


def run_oracle_item(item: QaItem, latency: LatencyModel) -> Outcome:
    agent = harness.oracle_agent_factory(item.variant)(item.data)
    return _score_qa(item, engine.run(agent))


def chatty_provider(replies: Sequence[str], latency: LatencyModel) -> LatencyProvider:
    return LatencyProvider(ScriptedProvider.from_replies(replies), latency)


def run_chatty_item(item: QaItem, latency: LatencyModel) -> Outcome:
    provider = chatty_provider(item.replies, latency)
    agent = harness.make_qa_agent(item.variant, item.data.question, item.data.scene, provider)
    return _score_qa(item, engine.run(agent), provider.slept)


def oracle_eval_factory(variant: str, by_index: dict) -> Callable:
    return harness.oracle_agent_factory(variant)


def chatty_eval_factory(variant: str, by_index: dict) -> Callable:
    return harness.qa_agent_factory(
        variant, lambda d: chatty_provider(by_index[d.index].replies, ZERO_LATENCY)
    )


# ---------------------------------------------------------------------------
# External-event workflows (resume-loop)


def _class_name_events(n: int, rnd: random.Random) -> list[str]:
    # First pass (3 events) and accept (1); a revise_classes loop adds 4
    # events and a revise_patterns loop 3, so every n >= 10 is reachable.
    rest = n - 4
    fours = rnd.choice([a for a in range(rest // 4 + 1) if (rest - 4 * a) % 3 == 0])
    loops = [4] * fours + [3] * ((rest - 4 * fours) // 3)
    rnd.shuffle(loops)
    events = ["classes_ready", "patterns_ready", "feedback_ready"]
    for step in loops:
        if step == 4:
            events += ["revise_classes", "classes_ready", "patterns_ready", "feedback_ready"]
        else:
            events += ["revise_patterns", "patterns_ready", "feedback_ready"]
    return events + ["accept"]


def _h3_events(n: int, rnd: random.Random) -> list[str]:
    return ["e1"] * (n - 1) + [rnd.choice(("e2", "e3"))]


def _test_driven_events(n: int, rnd: random.Random) -> list[str]:
    retries = (n - 3) // 2
    return ["generate_tests", "generate_code"] + ["fail", "generate_code"] * retries + [
        rnd.choice(("pass", "budget"))
    ]


def _agent_coder_events(n: int, rnd: random.Random) -> list[str]:
    retries = (n - 3) // 3
    return ["generate_code", "generate_tests"] + [
        "fail",
        "generate_code",
        "generate_tests",
    ] * retries + [rnd.choice(("pass", "budget"))]


_EVENT_SCRIPTS = {
    "class_name": _class_name_events,
    "h3": _h3_events,
    "test_driven": _test_driven_events,
    "agent_coder": _agent_coder_events,
}

_WORDS = ("def", "return", "assert", "class", "value", "result", "items", "self", "case", "None")


def _payload(rnd: random.Random, pool: Sequence[str]) -> dict:
    """An event payload of 0 to about MAX_PAYLOAD_BYTES of JSON: code-like
    lines, which the belief keeps in the trajectory."""
    target = rnd.randint(0, MAX_PAYLOAD_BYTES)
    lines: list[str] = []
    size = 0
    while size < target:
        line = rnd.choice(pool)
        lines.append(line)
        size += len(line) + 4
    if not lines:
        return {}
    return {"author": rnd.choice(("model", "user", "ci")), "lines": lines}


def resume_inputs(seed: int) -> list[ResumeItem]:
    """Event sequences whose lengths are stratified over MIN..MAX_EVENTS per
    workflow, so every seed has the same spread of lengths; contents, order
    and payloads are random."""
    rnd = random.Random(seed)
    specs = []
    span = MAX_EVENTS - MIN_EVENTS
    for workflow in WORKFLOWS:
        for j in range(RESUME_PER_WORKFLOW):
            n = MIN_EVENTS + int(span * (j + rnd.random()) / RESUME_PER_WORKFLOW)
            specs.append((workflow, n))
    rnd.shuffle(specs)
    pool = [
        " ".join(rnd.choice(_WORDS) for _ in range(rnd.randint(2, 8))) for _ in range(256)
    ]
    items = []
    for index, (workflow, n) in enumerate(specs):
        names = _EVENT_SCRIPTS[workflow](n, rnd)
        events = tuple(engine.EventInstance(name, _payload(rnd, pool)) for name in names)
        items.append(ResumeItem(index, workflow, events))
    return items


def make_resume_agent(item: ResumeItem) -> engine.Agent:
    return engine.Agent(
        machine=harness.builtin_machine(item.workflow),
        belief=new_belief(),
        policy=(),
        registry=builtin_registry(),
        provider=ScriptedProvider.from_replies([]),
        limits=engine.RunLimits(max_transitions=len(item.events) + 5),
    )


def run_resume_item(item: ResumeItem, latency: LatencyModel) -> Outcome:
    agent = make_resume_agent(item)
    last = len(item.events) - 1
    problem = ""
    for k, event in enumerate(item.events):
        result = engine.run(agent, event)
        expected = engine.STATUS_COMPLETED if k == last else engine.STATUS_WAITING
        if result.status != expected:
            problem = f"event {k} ({event.name}) ended {result.status}: {result.reason}"
            break
    completed = result.status == engine.STATUS_COMPLETED and not problem
    steps = len(result.belief_snapshot.trajectory)
    leaf = result.belief_snapshot.current_state
    if completed and (leaf != END_LEAF or steps != len(item.events)):
        problem = f"ended at {leaf!r} after {steps} steps, expected {END_LEAF!r} after {len(item.events)}"
    return Outcome(
        completed=completed,
        correct=completed and not problem,
        calls=result.stats.calls,
        prompt_bytes=result.stats.prompt_bytes,
        reply_bytes=result.stats.reply_bytes,
        detail=problem,
    )


# ---------------------------------------------------------------------------
# Registry and input digest


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle-mix", 1, 30, qa_inputs, run_oracle_item, eval_factory=oracle_eval_factory),
        Workload(
            "sim-latency",
            2,
            10,
            chatty_inputs,
            run_chatty_item,
            latency=LatencyModel(),
            eval_factory=chatty_eval_factory,
        ),
        Workload("resume-loop", 1, 4, resume_inputs, run_resume_item),
    )
}


def _canonical(item) -> object:
    if isinstance(item, QaItem):
        return [
            item.index,
            item.variant,
            item.data.question,
            scene_to_json_value(item.data.scene),
            item.data.answer,
            list(item.replies),
        ]
    return [item.index, item.workflow, [[e.name, e.payload] for e in item.events]]


def inputs_digest(items: Sequence) -> str:
    """SHA-256 of the canonical JSON of every input, to show two runs used
    identical inputs."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(json.dumps(_canonical(item), sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()
