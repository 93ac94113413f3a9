"""Shared builders for the test suite."""

from __future__ import annotations

import json
import random
from importlib import resources
from pathlib import Path

from machina.actions import builtin_registry
from machina.belief import new_belief
from machina.engine import Agent, RunLimits
from machina.errors import MachinaError
from machina.harness import COUNTING, JUDGING, Dataset, QuestionSpec, builtin_machine
from machina.machine_io import parse_machine
from machina.model import StateMachine
from machina.providers import CallStats, ScriptedProvider
from machina.scene import (
    SceneGraph,
    count_objects,
    filter_objects,
    parse_scene,
    query_attribute,
    scene_to_json_value,
)


def machine_from(doc: dict) -> StateMachine:
    """Build a machine through the JSON parser, as production code would."""
    return parse_machine(json.dumps(doc))


def state(name: str, **extra) -> dict:
    return {"name": name, "description": "", **extra}


MINIMAL_DOC = {
    "name": "m",
    "states": [{"name": "a", "description": "", "tags": ["start", "end"]}],
    "transitions": [],
}


def budget_cycle_doc() -> dict:
    """Two states looping internally forever, plus an unreachable end."""
    return {
        "name": "cycle",
        "states": [
            state("A", tags=["start"]),
            state("B"),
            state("C", tags=["end"]),
        ],
        "transitions": [
            {"source": "A", "target": "B", "event": "go"},
            {"source": "B", "target": "A", "event": "back"},
        ],
    }


def linear_doc(n: int = 5) -> dict:
    """A straight chain of n states with one internal transition each."""
    states = [state(f"s{i}", tags=(["start"] if i == 1 else [])) for i in range(1, n + 1)]
    states[-1]["tags"] = ["end"]
    transitions = [
        {"source": f"s{i}", "target": f"s{i + 1}", "event": "next"} for i in range(1, n)
    ]
    return {"name": "linear", "states": states, "transitions": transitions}


class RecordingProvider:
    """Delegates to a scripted provider and keeps every request it sends."""

    def __init__(self, inner: ScriptedProvider):
        self.inner = inner
        self.requests = []

    @property
    def prompts(self) -> list[str]:
        return [request.prompt for request in self.requests]

    def complete(self, request):
        self.requests.append(request)
        return self.inner.complete(request)

    def snapshot_stats(self):
        return self.inner.snapshot_stats()


class _EqualToAll(type):
    """Defines ``__eq__`` and so sets ``__hash__`` to None: the classes it
    makes cannot be hashed, and compare equal to every type."""

    def __eq__(cls, other):
        return True


class Unhashable(metaclass=_EqualToAll):
    """A value whose type cannot be looked up in a set (``type(v) in s``
    raises ``TypeError``) and equals ``str``, ``bool`` and every other type."""


def h3_agent(limits: RunLimits | None = None) -> Agent:
    return Agent(
        machine=builtin_machine("h3"),
        belief=new_belief(),
        policy=(),
        registry=builtin_registry(),
        provider=ScriptedProvider.from_replies([]),
        limits=limits or RunLimits(),
    )


def agent_for(doc_or_machine, provider=None, policy=(), limits=None, belief=None) -> Agent:
    machine = (
        doc_or_machine
        if isinstance(doc_or_machine, StateMachine)
        else machine_from(doc_or_machine)
    )
    return Agent(
        machine=machine,
        belief=belief if belief is not None else new_belief(),
        policy=tuple(policy),
        registry=builtin_registry(),
        provider=provider or ScriptedProvider.from_replies([]),
        limits=limits or RunLimits(),
    )


def s1_scene() -> SceneGraph:
    return parse_scene(resources.files("machina").joinpath("scenes/s1.scene.json").read_bytes())


# ---------------------------------------------------------------------------
# QA fixtures: a second answer path and dataset files


def action_library_answer(scene: SceneGraph, spec: QuestionSpec) -> str:
    """Answer via the bundled deterministic actions (cross-check path)."""
    ids = filter_objects(scene, spec.predicate)
    if spec.exclude_shape is not None:
        excluded = set(filter_objects(scene, {"shape": spec.exclude_shape}))
        ids = [i for i in ids if i not in excluded]
    if spec.kind == COUNTING:
        return str(count_objects(ids))
    if spec.kind == JUDGING:
        return "yes" if count_objects(ids) else "no"
    if len(ids) != 1:
        raise MachinaError(f"querying predicate matched {len(ids)} objects")
    return query_attribute(scene, ids[0], spec.query_attribute or "")


def write_dataset(dataset: Dataset, out_dir: str | Path) -> Path:
    """Write ``dataset`` as the JSONL file plus scene files that
    ``read_dataset`` and ``machina bench --dataset`` read."""
    out = Path(out_dir)
    (out / "scenes").mkdir(parents=True, exist_ok=True)
    scene_files: dict[int, str] = {}
    lines = []
    for item in dataset.items:
        key = id(item.scene)
        if key not in scene_files:
            name = f"scenes/scene_{len(scene_files):04d}.json"
            (out / name).write_text(
                json.dumps(scene_to_json_value(item.scene), indent=2) + "\n",
                encoding="utf-8",
            )
            scene_files[key] = name
        lines.append(
            json.dumps(
                {
                    "question": item.question,
                    "scene_file": scene_files[key],
                    "answer": item.answer,
                    "type": item.qtype,
                },
                ensure_ascii=False,
            )
        )
    path = out / "dataset.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Random flat machines and the 20-line reference interpreter


def random_flat_machine_doc(rnd: random.Random, index: int) -> dict:
    n_states = rnd.randint(2, 6)
    names = [f"s{i}" for i in range(n_states)]
    ends = set(rnd.sample(names[1:], rnd.randint(1, n_states - 1)))
    states = []
    for i, name in enumerate(names):
        tags = []
        if i == 0:
            tags.append("start")
        if name in ends:
            tags.append("end")
        states.append({"name": name, "description": "", "tags": tags})
    sources = [n for n in names if n not in ends]
    events = [f"e{i}" for i in range(4)]
    transitions = [
        {
            "source": rnd.choice(sources),
            "target": rnd.choice(names),
            "event": rnd.choice(events),
            "trigger": "external",
        }
        for _ in range(rnd.randint(1, 10))
    ]
    return {"name": f"flat{index}", "states": states, "transitions": transitions}


def reference_trajectory(doc: dict, events: list[str]) -> list[tuple[str, str, str]]:
    """Independent interpreter for flat, guardless machines: first declared
    transition of the current state matching the event fires; anything else
    is dropped."""
    table: dict[str, list[tuple[str, str]]] = {}
    for t in doc["transitions"]:
        table.setdefault(t["source"], []).append((t["event"], t["target"]))
    current = next(s["name"] for s in doc["states"] if "start" in s.get("tags", []))
    out = []
    for ev in events:
        for event, target in table.get(current, []):
            if event == ev:
                out.append((current, ev, target))
                current = target
                break
    return out


class FixedReplyProvider:
    """A provider whose ``complete`` returns one fixed object, text or not."""

    def __init__(self, reply):
        self.reply = reply
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return self.reply

    def snapshot_stats(self):
        return CallStats(self.calls)
