"""Simulated model latency and model-like ("chatty") replies.

``LatencyProvider`` wraps any completion provider and, after each call,
sleeps ``a + b * prompt_bytes + c * reply_bytes`` seconds, a 1/100
time-scaled stand-in for a hosted model. Call and byte accounting is the
wrapped provider's own, so every attempt counts exactly as it does for
``ScriptedProvider``.

``chatty_replies`` turns the harness's oracle-faithful replies into replies a
real model might send: prose around the JSON the actions and the policy
extract, and, for a seeded share of policy decisions, one unusable reply
first, which costs the policy's correction retry.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Callable

from machina.providers import CallStats, CompletionProvider, CompletionRequest


@dataclass(frozen=True)
class LatencyModel:
    """Seconds per call: ``a + b * prompt_bytes + c * reply_bytes``."""

    a: float = 3e-3
    b: float = 0.12e-6
    c: float = 40e-6

    def delay(self, prompt_bytes: int, reply_bytes: int) -> float:
        return self.a + self.b * prompt_bytes + self.c * reply_bytes


def request_bytes(request: CompletionRequest) -> int:
    """Prompt bytes of a request, counted as ``ScriptedProvider`` counts them."""
    size = len(request.prompt.encode("utf-8"))
    if request.system:
        size += len(request.system.encode("utf-8"))
    return size


class LatencyProvider:
    """Delays every completed call of ``inner`` by the latency model."""

    def __init__(
        self,
        inner: CompletionProvider,
        model: LatencyModel = LatencyModel(),
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.inner = inner
        self.model = model
        self._sleep = sleep
        self.slept = 0.0  # total simulated delay, in seconds

    def complete(self, request: CompletionRequest) -> str:
        reply = self.inner.complete(request)
        delay = self.model.delay(request_bytes(request), len(reply.encode("utf-8")))
        self._sleep(delay)
        self.slept += delay
        return reply

    def snapshot_stats(self) -> CallStats:
        return self.inner.snapshot_stats()


# ---------------------------------------------------------------------------
# Chatty replies

RETRY_SHARE = 0.10

_POLICY_WRAPS = (
    "Looking at the available transitions, the next step is:\n```json\n{}\n```",
    "I will continue with {} since it moves the task forward.",
    "Next action: {}\nThis follows from the execution history so far.",
    "Sure. Here is my choice.\n\n{}\n",
)
_UNUSABLE_REPLIES = (
    "Let me think about which transition fits the question best before choosing.",
    'My choice is {"event": filter, "arguments": none}, as the scene needs narrowing.',
    "The answer should come from the scene graph; I need to look at it more closely.",
)
_ARRAY_WRAPS = (
    "The question refers to these objects:\n```json\n{}\n```",
    "Matching objects: {}",
    "After checking every object in the scene, the ids are {}.",
)
_CLASSIFY_WRAPS = (
    "This question is a {} question.",
    "Type: {}",
    "{}",
    "The question type is {}, judging by its wording.",
)


def chatty_replies(replies: list[str], rnd: random.Random) -> list[str]:
    """Model-like versions of oracle replies, in call order.

    Policy decisions (JSON objects) and object lists (JSON arrays) are wrapped
    in prose or a fenced block that the extractor still parses; a
    ``RETRY_SHARE`` of decisions is preceded by a reply holding no usable
    object. The routing classification reply gains prose around its label.
    Any other reply is an ``answerQuestion`` reply, which is normalized
    verbatim, so it is kept as it is.
    """
    out: list[str] = []
    for position, reply in enumerate(replies):
        try:
            decoded = json.loads(reply)
        except json.JSONDecodeError:
            decoded = None
        if isinstance(decoded, dict):
            if rnd.random() < RETRY_SHARE:
                out.append(rnd.choice(_UNUSABLE_REPLIES))
            out.append(rnd.choice(_POLICY_WRAPS).format(reply))
        elif isinstance(decoded, list):
            out.append(rnd.choice(_ARRAY_WRAPS).format(reply))
        elif position == 0 and reply in ("counting", "judging", "querying"):
            out.append(rnd.choice(_CLASSIFY_WRAPS).format(reply))
        else:
            out.append(reply)
    return out

