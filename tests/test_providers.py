import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from machina.errors import MachinaError, SchemaError, UnencodableText
from machina.providers import (
    _BODY_CAP_BYTES,
    _BODY_CHUNK_BYTES,
    CallStats,
    CompletionRequest,
    HttpError,
    HttpProvider,
    ReplyNotText,
    ScriptExhausted,
    ScriptMismatch,
    ScriptStep,
    ScriptedProvider,
    Timeout,
    load_script,
)


def req(prompt="hello", **kw):
    return CompletionRequest(prompt=prompt, **kw)


class TestRequest:
    def test_defaults(self):
        assert list(CompletionRequest._fields) == ["prompt", "system"]
        assert req().system is None


class TestScripted:
    def test_reply_and_count(self):
        p = ScriptedProvider.from_replies(["counting"])
        assert p.complete(req("anything")) == "counting"
        assert p.snapshot_stats().calls == 1

    def test_strict_match(self):
        p = ScriptedProvider([ScriptStep(reply="ok", match="classify")])
        with pytest.raises(ScriptMismatch):
            p.complete(req("a filter prompt"))
        assert p.snapshot_stats().calls == 1  # failed call still counted

    def test_exhausted_second_call(self):
        p = ScriptedProvider.from_replies(["once"])
        p.complete(req())
        with pytest.raises(ScriptExhausted):
            p.complete(req())
        assert p.snapshot_stats().calls == 2

    def test_deterministic_replay(self):
        steps = ["a", "b", "c"]
        first = ScriptedProvider.from_replies(steps)
        second = ScriptedProvider.from_replies(steps)
        prompts = ["p1", "p2", "p3"]
        assert [first.complete(req(p)) for p in prompts] == [
            second.complete(req(p)) for p in prompts
        ]

    def test_stats_monotone(self):
        p = ScriptedProvider.from_replies(["a", "b", "c"])
        seen = [p.snapshot_stats().calls]
        for _ in range(3):
            p.complete(req())
            seen.append(p.snapshot_stats().calls)
        assert seen == [0, 1, 2, 3]

    def test_snapshot_is_a_copy(self):
        p = ScriptedProvider.from_replies(["a"])
        before = p.snapshot_stats()
        p.complete(req())
        assert before.calls == 0

    def test_a_stats_copy_does_not_follow_later_counting(self):
        p = ScriptedProvider.from_replies(["ab", "cde"])
        p.complete(req("abcd"))
        before = p.snapshot_stats()
        p.complete(req("efg", system="s"))
        assert type(before) is CallStats and before is not p.snapshot_stats()
        assert before == CallStats(calls=1, prompt_bytes=4, reply_bytes=2)
        assert p.snapshot_stats() == CallStats(calls=2, prompt_bytes=8, reply_bytes=5)

    def test_reply_clipped_to_max_bytes(self):
        p = ScriptedProvider.from_replies(["x" * 20_000])
        assert p.complete(req()) == "x" * 16384
        assert p.snapshot_stats().reply_bytes == 16384

    def test_clip_drops_a_split_character(self):
        p = ScriptedProvider.from_replies(["x" * 16383 + "é"])
        assert p.complete(req()) == "x" * 16383
        assert p.snapshot_stats().reply_bytes == 16383

    @pytest.mark.parametrize("reply", [None, 7, b'{"event": "x"}', ["a"]])
    def test_a_reply_that_is_not_text_is_refused_when_given(self, reply):
        with pytest.raises(ReplyNotText, match=type(reply).__name__):
            ScriptedProvider.from_replies(["ok", reply])

    def test_steps_are_plain_script_steps(self):
        p = ScriptedProvider.from_replies(["a", "b"])
        assert p.steps == [ScriptStep("a"), ScriptStep("b")]
        assert all(type(step) is ScriptStep and step.match is None for step in p.steps)

    def test_prompt_and_reply_bytes(self):
        p = ScriptedProvider.from_replies(["ab"])
        p.complete(req("abcd", system="s"))
        stats = p.snapshot_stats()
        assert stats.prompt_bytes == 5
        assert stats.reply_bytes == 2


class TestScriptFile:
    def test_load(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(
            json.dumps({"steps": [{"reply": "hi", "match": "q"}]})
        )
        p = load_script(path)
        assert p.steps == [ScriptStep(reply="hi", match="q")]

    def test_strict_key_is_rejected(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"strict": True, "steps": [{"reply": "hi"}]}))
        with pytest.raises(SchemaError):
            load_script(path)

    @pytest.mark.parametrize(
        "doc",
        [
            {"steps": "nope"},
            {"steps": [{"match": "q"}]},
            {"steps": [], "extra": 1},
            {"steps": [{"reply": "x", "bogus": 1}]},
        ],
    )
    def test_bad_script(self, tmp_path, doc):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_script(path)


class _Handler(BaseHTTPRequestHandler):
    plan: list = []
    seen: list = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        _Handler.seen.append(
            {"path": self.path, "auth": self.headers.get("Authorization"), "body": body}
        )
        status, payload = _Handler.plan.pop(0)
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    _Handler.plan = []
    _Handler.seen = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join()
    server.server_close()


def ok_body(content="pong"):
    return {"choices": [{"message": {"content": content}}]}


class TestHttp:
    def test_success_roundtrip(self, stub_server):
        _Handler.plan = [(200, ok_body("the reply"))]
        provider = HttpProvider(stub_server, model="m1", api_key="secret")
        reply = provider.complete(req("ping", system="sys"))
        assert reply == "the reply"
        seen = _Handler.seen[0]
        assert seen["path"] == "/chat/completions"
        assert seen["auth"] == "Bearer secret"
        assert seen["body"]["model"] == "m1"
        assert seen["body"]["temperature"] == 0.01
        assert seen["body"]["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "ping"},
        ]
        assert provider.snapshot_stats().calls == 1

    def test_api_key_from_environment(self, stub_server, monkeypatch):
        monkeypatch.setenv("SHERPA_API_KEY", "from-env")
        _Handler.plan = [(200, ok_body())]
        HttpProvider(stub_server, model="m").complete(req())
        assert _Handler.seen[0]["auth"] == "Bearer from-env"

    def test_retry_on_429_then_success(self, stub_server):
        _Handler.plan = [(429, {}), (200, ok_body("after retry"))]
        sleeps = []
        provider = HttpProvider(stub_server, model="m", api_key="k", sleep=sleeps.append)
        assert provider.complete(req()) == "after retry"
        assert provider.snapshot_stats().calls == 2
        assert sleeps == [0.5]

    def test_5xx_exhausts_retries(self, stub_server):
        _Handler.plan = [(503, {}), (503, {}), (503, {})]
        sleeps = []
        provider = HttpProvider(stub_server, model="m", api_key="k", sleep=sleeps.append)
        with pytest.raises(HttpError) as err:
            provider.complete(req())
        assert err.value.status == 503
        assert provider.snapshot_stats().calls == 3
        assert sleeps == [0.5, 2.0]

    def test_4xx_fails_immediately(self, stub_server):
        _Handler.plan = [(404, {"error": "nope"})]
        provider = HttpProvider(stub_server, model="m", api_key="k", sleep=lambda s: None)
        with pytest.raises(HttpError) as err:
            provider.complete(req())
        assert err.value.status == 404
        assert provider.snapshot_stats().calls == 1

    def test_malformed_body(self, stub_server):
        _Handler.plan = [(200, {"nonsense": True})]
        provider = HttpProvider(stub_server, model="m", api_key="k")
        with pytest.raises(HttpError):
            provider.complete(req())
        assert provider.snapshot_stats().calls == 1

    def test_lone_surrogate_in_the_prompt_is_not_sent(self, stub_server):
        provider = HttpProvider(stub_server, model="m", api_key="k")
        with pytest.raises(UnencodableText):
            provider.complete(req("how many \ud800 objects?"))
        assert _Handler.seen == []
        assert provider.snapshot_stats().calls == 0

    def test_lone_surrogate_escape_in_the_reply_is_malformed(self, stub_server):
        _Handler.plan = [(200, ok_body("\ud800"))]  # sent as the JSON escape
        provider = HttpProvider(stub_server, model="m", api_key="k")
        with pytest.raises(HttpError, match="malformed completion body"):
            provider.complete(req())

    def test_clip_drops_a_split_character(self, stub_server):
        _Handler.plan = [(200, ok_body("x" * 16383 + "é"))]
        provider = HttpProvider(stub_server, model="m", api_key="k")
        assert provider.complete(req()) == "x" * 16383
        assert provider.snapshot_stats().reply_bytes == 16383


class TestRequestEdges:
    def test_strict_flag_must_be_boolean(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"steps": [], "strict": "yes"}))
        with pytest.raises(SchemaError):
            load_script(path)


class _ServedBodyHandler(BaseHTTPRequestHandler):
    """Answers every POST with status 200, ``body`` as is, and
    ``content_type`` (no header when it is None)."""

    body = b""
    content_type: str | None = None

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        if self.content_type is not None:
            self.send_header("Content-Type", self.content_type)
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *args):
        pass


class _RedirectHandler(BaseHTTPRequestHandler):
    """Answers every POST with status ``status`` and ``Location: location``."""

    status = 302
    location = ""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(self.status)
        self.send_header("Location", self.location)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


class _HangUpHandler(BaseHTTPRequestHandler):
    """Reads the whole request, then closes the connection unanswered."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.close_connection = True

    def log_message(self, *args):
        pass


def _serve(handler):
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    return server, thread


def _stop(server, thread):
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()


@pytest.fixture()
def served_body():
    server, thread = _serve(_ServedBodyHandler)
    yield f"http://127.0.0.1:{server.server_port}"
    _stop(server, thread)


def _raw_completion(content: bytes) -> bytes:
    return b'{"choices": [{"message": {"content": "' + content + b'"}}]}'


class TestHttpBodyDecoding:
    """The body is strict UTF-8 JSON whatever its charset header says."""

    @pytest.mark.parametrize("content_type", ["application/json", "text/plain", None])
    def test_utf8_reply_whatever_the_content_type(self, served_body, content_type):
        _ServedBodyHandler.body = _raw_completion("héllo".encode("utf-8"))
        _ServedBodyHandler.content_type = content_type
        provider = HttpProvider(served_body, model="m", api_key="k")
        assert provider.complete(req()) == "héllo"
        assert provider.snapshot_stats().reply_bytes == len("héllo".encode("utf-8"))

    @pytest.mark.parametrize("content_type", ["application/json", "text/plain", None])
    def test_invalid_utf8_in_content_raises(self, served_body, content_type):
        _ServedBodyHandler.body = _raw_completion(b"a\xffb")
        _ServedBodyHandler.content_type = content_type
        provider = HttpProvider(served_body, model="m", api_key="k", sleep=lambda s: None)
        with pytest.raises(HttpError) as err:
            provider.complete(req())
        assert err.value.status == 200
        assert provider.snapshot_stats().calls == 1


class TestHttpTransportFailures:
    def test_stalled_server_times_out(self):
        # The kernel completes the handshake on a listening socket; nothing
        # ever reads the request or answers it.
        with socket.create_server(("127.0.0.1", 0)) as listener:
            url = f"http://127.0.0.1:{listener.getsockname()[1]}"
            sleeps = []
            provider = HttpProvider(url, model="m", api_key="k", timeout=0.3, sleep=sleeps.append)
            started = time.monotonic()
            with pytest.raises(Timeout):
                provider.complete(req())
            assert time.monotonic() - started < 3.0
        assert provider.snapshot_stats().calls == 1
        assert sleeps == []

    def test_refused_port(self):
        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]
        sleeps = []
        provider = HttpProvider(f"http://127.0.0.1:{port}", model="m", api_key="k", sleep=sleeps.append)
        with pytest.raises(HttpError) as err:
            provider.complete(req())
        assert err.value.status == 0
        assert provider.snapshot_stats().calls == 1
        assert sleeps == []

    def test_connection_dropped_after_request(self):
        server, thread = _serve(_HangUpHandler)
        try:
            sleeps = []
            provider = HttpProvider(
                f"http://127.0.0.1:{server.server_port}", model="m", api_key="k", sleep=sleeps.append
            )
            with pytest.raises(HttpError) as err:
                provider.complete(req())
        finally:
            _stop(server, thread)
        assert err.value.status == 0
        assert provider.snapshot_stats().calls == 1
        assert sleeps == []

    @pytest.mark.parametrize("base_url", ["localhost:8000", "file:///tmp", "ftp://host", "http://[::1"])
    def test_base_url_must_be_http(self, base_url):
        with pytest.raises(MachinaError):
            HttpProvider(base_url, model="m")


class _RecordingHandler(BaseHTTPRequestHandler):
    """Records the server port, method, request target and Authorization
    header of every request and answers it with a completion, as a server or
    as a forward proxy."""

    seen: list = []

    def _answer(self):
        _RecordingHandler.seen.append(
            (self.server.server_port, self.command, self.path, self.headers.get("Authorization"))
        )
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        data = json.dumps(ok_body()).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST = _answer

    def log_message(self, *args):
        pass


class TestHttpRedirects:
    """No redirect is followed, so the bearer token reaches ``base_url`` only."""

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_fails_as_its_status_and_sends_no_key_elsewhere(self, status):
        target, target_thread = _serve(_RecordingHandler)
        redirector, redirector_thread = _serve(_RedirectHandler)
        try:
            _RecordingHandler.seen = []
            _RedirectHandler.status = status
            _RedirectHandler.location = f"http://127.0.0.1:{target.server_port}/chat/completions"
            sleeps = []
            provider = HttpProvider(
                f"http://127.0.0.1:{redirector.server_port}", model="m", api_key="secret", sleep=sleeps.append
            )
            with pytest.raises(HttpError) as err:
                provider.complete(req())
        finally:
            _stop(redirector, redirector_thread)
            _stop(target, target_thread)
        assert err.value.status == status
        assert _RecordingHandler.seen == []
        assert provider.snapshot_stats().calls == 1
        assert sleeps == []


class TestHttpBaseUrl:
    def test_non_ascii_path_is_percent_encoded(self, stub_server):
        _Handler.plan = [(200, ok_body())]
        provider = HttpProvider(f"{stub_server}/v\u00e9 x/%41", model="m", api_key="k")
        assert provider.complete(req()) == "pong"
        assert _Handler.seen[0]["path"] == "/v%C3%A9%20x/%41/chat/completions"

    @pytest.mark.parametrize(
        "suffix", ["/v1?api-version=2024-02-01", "/v1/?api-version=2024-02-01#f"]
    )
    def test_query_string_follows_the_joined_path(self, stub_server, suffix):
        _Handler.plan = [(200, ok_body())]
        provider = HttpProvider(stub_server + suffix, model="m", api_key="k")
        assert provider.complete(req()) == "pong"
        assert _Handler.seen[0]["path"] == "/v1/chat/completions?api-version=2024-02-01"

    def test_host_that_idna_cannot_encode_is_rejected(self):
        with pytest.raises(MachinaError):
            HttpProvider(f"http://{'a' * 70}.example", model="m")


class TestHttpProxy:
    def test_proxy_settings_are_read_when_the_provider_is_built(self, monkeypatch):
        with socket.create_server(("127.0.0.1", 0)) as probe:
            closed = f"http://127.0.0.1:{probe.getsockname()[1]}"
        first, first_thread = _serve(_RecordingHandler)
        second, second_thread = _serve(_RecordingHandler)
        try:
            _RecordingHandler.seen = []
            monkeypatch.delenv("no_proxy", raising=False)
            monkeypatch.delenv("NO_PROXY", raising=False)
            monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{first.server_port}")
            provider = HttpProvider(closed, model="m", api_key="k")
            monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{second.server_port}")
            assert provider.complete(req()) == "pong"
            assert HttpProvider(closed, model="m", api_key="k").complete(req()) == "pong"
        finally:
            _stop(first, first_thread)
            _stop(second, second_thread)
        target = f"{closed}/chat/completions"
        assert _RecordingHandler.seen == [
            (first.server_port, "POST", target, "Bearer k"),
            (second.server_port, "POST", target, "Bearer k"),
        ]


class _OversizedBodyHandler(BaseHTTPRequestHandler):
    """Answers every POST with status 200 and a body four times the cap,
    written 4 KiB at a time through a small send buffer, with or without a
    ``Content-Length``. ``sent`` is how much of the body the kernel took
    before the client hung up."""

    declare_length = False
    sent = 0

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        total = 4 * _BODY_CAP_BYTES
        self.send_response(200)
        if self.declare_length:
            self.send_header("Content-Length", str(total))
        self.end_headers()
        self.wfile.flush()
        piece = b" " * 4096
        sent = 0
        try:
            while sent < total:
                self.wfile.write(piece)
                sent += len(piece)
        except OSError:
            pass
        _OversizedBodyHandler.sent = sent
        self.close_connection = True

    def log_message(self, *args):
        pass


def _small_receive_buffer(
    address, timeout=socket._GLOBAL_DEFAULT_TIMEOUT, source_address=None, **kwargs
):
    """``socket.create_connection`` for IPv4 with a 4 KiB receive buffer, so
    what the server has sent is within a few KiB of what the client read."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    if timeout is not socket._GLOBAL_DEFAULT_TIMEOUT:
        sock.settimeout(timeout)
    sock.connect(address)
    return sock


class TestHttpBodyCap:
    """A body over the cap fails the attempt as one call, and the client
    reads at most one chunk past the cap (ROADMAP item 12(a))."""

    @pytest.fixture()
    def oversized(self, monkeypatch):
        monkeypatch.setattr(socket, "create_connection", _small_receive_buffer)
        _OversizedBodyHandler.sent = 0
        server, thread = _serve(_OversizedBodyHandler)
        yield server
        _stop(server, thread)

    @pytest.mark.parametrize("declare_length", [False, True], ids=["streamed", "content-length"])
    def test_body_over_the_cap_fails_after_at_most_one_chunk_more(self, oversized, declare_length):
        _OversizedBodyHandler.declare_length = declare_length
        sleeps = []
        provider = HttpProvider(
            f"http://127.0.0.1:{oversized.server_port}", model="m", api_key="k", sleep=sleeps.append
        )
        with pytest.raises(HttpError, match="cap") as err:
            provider.complete(req())
        assert err.value.status == 200
        assert provider.snapshot_stats().calls == 1
        assert sleeps == []
        oversized.shutdown()  # returns once the handler has recorded ``sent``
        assert _OversizedBodyHandler.sent <= _BODY_CAP_BYTES + _BODY_CHUNK_BYTES
        if declare_length:
            assert _OversizedBodyHandler.sent <= _BODY_CHUNK_BYTES

    def test_body_at_the_cap_is_read_in_full(self, served_body):
        envelope = _raw_completion(b"")
        _ServedBodyHandler.content_type = "application/json"
        padding = b" " * (_BODY_CAP_BYTES - len(envelope))
        _ServedBodyHandler.body = envelope[:-4] + padding + envelope[-4:]
        provider = HttpProvider(served_body, model="m", api_key="k")
        assert provider.complete(req()) == ""
        assert provider.snapshot_stats().calls == 1
