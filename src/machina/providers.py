"""Completion providers: a deterministic scripted backend for tests and an
OpenAI-compatible HTTP client for real runs, both with call accounting.

Every invocation of ``complete`` counts as exactly one call in the stats,
whatever its outcome; failed HTTP attempts are attempts the bill still
covers.
"""

from __future__ import annotations

import json
import os
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence

from .errors import MachinaError, check_keys, require_list, require_object, require_string
from .json_extract import JsonSyntaxError, read_json

API_KEY_ENV = "SHERPA_API_KEY"
TEMPERATURE = 0.01
MAX_REPLY_BYTES = 16384
RETRY_BACKOFF_SECONDS = (0.5, 2.0)


class ProviderError(MachinaError):
    """Base class for completion backend failures."""


class ScriptExhausted(ProviderError):
    def __init__(self):
        super().__init__("scripted provider has no replies left")


class ScriptMismatch(ProviderError):
    def __init__(self, expected: str):
        super().__init__(f"prompt does not contain expected substring {expected!r}")
        self.expected = expected


class HttpError(ProviderError):
    def __init__(self, status: int, body_excerpt: str):
        super().__init__(f"http status {status}: {body_excerpt}")
        self.status = status
        self.body_excerpt = body_excerpt


class Timeout(ProviderError):
    def __init__(self, detail: str = "request timed out"):
        super().__init__(detail)


@dataclass
class CompletionRequest:
    prompt: str
    system: str | None = None


@dataclass
class CallStats:
    calls: int = 0
    prompt_bytes: int = 0
    reply_bytes: int = 0

    def snapshot(self) -> "CallStats":
        return CallStats(self.calls, self.prompt_bytes, self.reply_bytes)


class CompletionProvider(Protocol):
    def complete(self, request: CompletionRequest) -> str: ...

    def snapshot_stats(self) -> CallStats: ...


def _prompt_bytes(request: CompletionRequest) -> int:
    """UTF-8 bytes a request sends: the prompt plus the system text, if any."""
    size = len(request.prompt.encode("utf-8"))
    if request.system:
        size += len(request.system.encode("utf-8"))
    return size


def _clip_reply(text: str) -> str:
    """The reply cut to its first ``MAX_REPLY_BYTES`` UTF-8 bytes, dropping a
    character the cut splits."""
    encoded = text.encode("utf-8")
    if len(encoded) <= MAX_REPLY_BYTES:
        return text
    return encoded[:MAX_REPLY_BYTES].decode("utf-8", errors="ignore")


@dataclass(frozen=True)
class ScriptStep:
    reply: str
    match: str | None = None


class ScriptedProvider:
    """Replays a fixed list of replies in order.

    A step that declares ``match`` requires the prompt to contain that
    substring, which pins down prompt plumbing in tests. Replay order
    matters, so one instance serves one agent at a time.
    """

    def __init__(self, steps: Sequence[ScriptStep]):
        self.steps = list(steps)
        self._cursor = 0
        self._stats = CallStats()

    @classmethod
    def from_replies(cls, replies: Sequence[str]) -> "ScriptedProvider":
        return cls([ScriptStep(reply=r) for r in replies])

    def complete(self, request: CompletionRequest) -> str:
        self._stats.calls += 1
        self._stats.prompt_bytes += _prompt_bytes(request)
        if self._cursor >= len(self.steps):
            raise ScriptExhausted()
        step = self.steps[self._cursor]
        self._cursor += 1
        if step.match is not None and step.match not in request.prompt:
            raise ScriptMismatch(step.match)
        reply = _clip_reply(step.reply)
        self._stats.reply_bytes += len(reply.encode("utf-8"))
        return reply

    def snapshot_stats(self) -> CallStats:
        return self._stats.snapshot()


def load_script(path: str | Path) -> ScriptedProvider:
    """Load a scripted provider from a JSON file:
    ``{"steps": [{"reply": str, "match": str?}, ...]}``."""
    doc = require_object(read_json(Path(path).read_bytes()), "")
    check_keys(doc, ("steps",), ("steps",), "")
    steps = []
    for i, raw in enumerate(require_list(doc["steps"], "/steps")):
        pointer = f"/steps/{i}"
        step = require_object(raw, pointer)
        check_keys(step, ("reply", "match"), ("reply",), pointer)
        match = require_string(step, "match", pointer) if step.get("match") is not None else None
        steps.append(ScriptStep(reply=require_string(step, "reply", pointer), match=match))
    return ScriptedProvider(steps)


class HttpProvider:
    """OpenAI-compatible ``POST {base_url}/chat/completions`` client on the
    standard library's ``urllib.request``.

    Authenticates with a bearer token from ``SHERPA_API_KEY`` unless an
    explicit key is given. Retries twice on 429 and 5xx responses with
    exponential backoff (0.5s then 2s); other 4xx responses fail
    immediately, and so does a 3xx, since no redirect is followed. Each
    HTTP attempt counts as one provider call. The reply body is decoded as
    strict UTF-8 JSON whatever its charset header; a timeout raises
    ``Timeout`` and any other transport failure ``HttpError(0, ...)``.
    Proxy settings are read from the environment when the provider is built.

    ``import machina`` does not load the HTTP stack (``urllib.request``,
    ``http.client``, ``ssl``, ``email``): building the first provider does,
    so a process that never makes a live call never loads it.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        import urllib.request  # with http.client, ssl and email: loaded by the first provider

        class NoRedirect(urllib.request.HTTPRedirectHandler):
            """Follows no redirect, so the bearer token goes to ``base_url``
            only; every 3xx reply fails as its own status."""

            def redirect_request(self, req, fp, code, msg, headers, newurl):
                return None

        if not base_url.startswith(("http://", "https://")):
            raise MachinaError(f"base_url must start with http:// or https://, got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        # A request line is ASCII: percent-encode the path's other characters
        # (existing escapes stay) and reject a host IDNA cannot encode.
        try:
            parts = urllib.parse.urlsplit(self.base_url)
            (parts.hostname or "").encode("idna")
        except ValueError as exc:
            raise MachinaError(f"invalid base_url {base_url!r}: {exc}") from None
        path = urllib.parse.quote(parts.path, safe="/%:@!$&'()*+,;=~")
        self._url = parts._replace(path=path).geturl() + "/chat/completions"
        self._opener = urllib.request.build_opener(NoRedirect)
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.timeout = timeout
        self._sleep = sleep
        self._stats = CallStats()

    def _messages(self, request: CompletionRequest) -> list[dict]:
        messages = []
        if request.system:
            messages.append({"role": "system", "content": request.system})
        messages.append({"role": "user", "content": request.prompt})
        return messages

    def _post(self, data: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """One attempt: the status and raw body of whatever response arrives."""
        import http.client
        import urllib.error
        import urllib.request

        try:
            try:
                response = self._opener.open(
                    urllib.request.Request(self._url, data=data, headers=headers, method="POST"),
                    timeout=self.timeout,
                )
            except urllib.error.HTTPError as exc:
                response = exc
            with response:
                return response.status, response.read()
        except TimeoutError:
            raise Timeout() from None
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, TimeoutError):
                raise Timeout() from None
            raise HttpError(0, str(exc)[:200]) from None
        except (OSError, http.client.HTTPException) as exc:
            raise HttpError(0, str(exc)[:200]) from None

    def complete(self, request: CompletionRequest) -> str:
        body = {
            "model": self.model,
            "messages": self._messages(request),
            "temperature": TEMPERATURE,
        }
        data = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        for backoff in (*RETRY_BACKOFF_SECONDS, None):
            self._stats.calls += 1
            self._stats.prompt_bytes += _prompt_bytes(request)
            status, raw = self._post(data, headers)
            if status == 200:
                break
            if backoff is None or not (status == 429 or status >= 500):
                raise HttpError(status, raw.decode("utf-8", errors="replace")[:200])
            self._sleep(backoff)

        try:
            content = read_json(raw)["choices"][0]["message"]["content"]
        except (JsonSyntaxError, LookupError, TypeError):
            raise HttpError(200, "malformed completion body") from None
        if not isinstance(content, str):
            raise HttpError(200, "completion content is not text")
        reply = _clip_reply(content)
        self._stats.reply_bytes += len(reply.encode("utf-8"))
        return reply

    def snapshot_stats(self) -> CallStats:
        return self._stats.snapshot()
