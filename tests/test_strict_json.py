"""Every JSON input goes through one strict reader. Bad UTF-8, bad syntax,
nesting too deep to decode, non-finite numbers, lone surrogates and wrong
field types end in a typed ``MachinaError`` at every entry point: ``error:``
and exit 1 from the CLI, a report and a new prompt from ``repl``, and never
a trace that a strict JSON reader rejects."""

import json
import os
import re
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from click.testing import CliRunner

import machina
from machina.actions import ArgumentTypeError, coerce_argument
from machina.cli import main
from machina.errors import SchemaError
from machina.harness import read_dataset
from machina.json_extract import JsonSyntaxError, first_json_array, first_json_object, read_json
from machina.machine_io import parse_machine
from machina.policy import load_rules
from machina.providers import CompletionRequest, HttpError, HttpProvider, load_script
from machina.scene import parse_scene

PACKAGE = Path(machina.__file__).parent
H3 = str(PACKAGE / "machines" / "h3.sm.json")
ROUTING = str(PACKAGE / "machines" / "routing.sm.json")
REACT = str(PACKAGE / "machines" / "react.sm.json")
S1 = str(PACKAGE / "scenes" / "s1.scene.json")

UNDECODABLE = {
    "bad-utf8": b'{"a": "\xff"}',
    "syntax": b'{"a": }',
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "nan": b'{"a": NaN}',
    "overflow": b'{"a": 1e999}',
    "lone-surrogate": b'{"a": "\\ud800"}',
}
CASES = [*UNDECODABLE, "wrong-types"]

# Per entry point, a document that decodes but has a field of the wrong type.
WRONG_TYPES = {
    "machine": b'{"name": 1, "states": [], "transitions": []}',
    "scene": b'{"objects": [{"id": 1, "color": "red", "material": "metal",'
    b' "shape": "cube", "size": "small"}]}',
    "rules": b'[{"emit_event": 1, "when_state": "A"}]',
    "script": b'{"steps": [{"reply": 1}]}',
    "dataset": b'{"question": 1, "scene_file": "s1.scene.json"}',
    "http": b'{"choices": [{"message": {"content": 1}}]}',
    "repl": b"[1]",
}


def document(entry: str, case: str) -> bytes:
    return WRONG_TYPES[entry] if case == "wrong-types" else UNDECODABLE[case]


def write(tmp_path: Path, data: bytes, name: str = "input.json") -> Path:
    path = tmp_path / name
    path.write_bytes(data)
    return path


LOADERS = {
    "machine": lambda tmp_path, data: parse_machine(data),
    "scene": lambda tmp_path, data: parse_scene(data),
    "rules": lambda tmp_path, data: load_rules(write(tmp_path, data)),
    "script": lambda tmp_path, data: load_script(write(tmp_path, data)),
    "dataset": lambda tmp_path, data: read_dataset(write(tmp_path, data, "dataset.jsonl")),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("entry", LOADERS)
def test_loader_raises_a_typed_error(tmp_path, entry, case):
    expected = SchemaError if case == "wrong-types" else JsonSyntaxError
    with pytest.raises(expected):
        LOADERS[entry](tmp_path, document(entry, case))


def cli_args(tmp_path: Path, entry: str, bad: Path) -> list[str]:
    if entry == "dataset":
        return ["bench", "--dataset", str(bad)]
    script = write(tmp_path, json.dumps({"steps": []}).encode(), "script.json")
    options = {"--machine": ROUTING, "--provider": f"scripted:{script}"}
    if entry == "script":
        options["--provider"] = f"scripted:{bad}"
    else:
        options[f"--{entry}"] = str(bad)
    return ["run", *(part for pair in options.items() for part in pair)]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("entry", LOADERS)
def test_cli_prints_error_and_exits_1(tmp_path, entry, case):
    bad = write(tmp_path, document(entry, case), "dataset.jsonl" if entry == "dataset" else "bad.json")
    result = CliRunner().invoke(main, cli_args(tmp_path, entry, bad))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")


def test_dataset_error_names_the_file_line(tmp_path):
    path = write(tmp_path, b'\n{"question": "How many red objects are there?",\n', "d.jsonl")
    with pytest.raises(JsonSyntaxError) as info:
        read_dataset(path)
    assert info.value.line == 2


@pytest.mark.parametrize(
    "line",
    [
        {"question": "How many red objects are there?", "scene_file": 7},
        {"question": "How many red objects are there?", "scene_file": "s.json", "extra": 1},
    ],
    ids=["numeric-scene-file", "unknown-key"],
)
def test_dataset_line_schema(tmp_path, line):
    with pytest.raises(SchemaError):
        read_dataset(write(tmp_path, json.dumps(line).encode(), "d.jsonl"))


class _RawHandler(BaseHTTPRequestHandler):
    body = b""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def raw_server():
    server = HTTPServer(("127.0.0.1", 0), _RawHandler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    assert not thread.is_alive()


@pytest.mark.parametrize("case", CASES)
def test_http_body_ends_in_http_error(raw_server, case):
    _RawHandler.body = document("http", case)
    provider = HttpProvider(raw_server, model="m", api_key="k", sleep=lambda s: None)
    with pytest.raises(HttpError) as info:
        provider.complete(CompletionRequest(prompt="ping"))
    assert info.value.status == 200
    assert provider.snapshot_stats().calls == 1


def repl(tmp_path: Path, stdin: bytes):
    script = write(tmp_path, json.dumps({"steps": []}).encode(), "script.json")
    trace = tmp_path / "trace.json"
    args = ["repl", "--machine", H3, "--provider", f"scripted:{script}", "--trace", str(trace)]
    return CliRunner().invoke(main, args, input=stdin), trace


@pytest.mark.parametrize("case", [case for case in CASES if case != "bad-utf8"])
def test_repl_reports_a_bad_payload_and_keeps_prompting(tmp_path, case):
    result, trace = repl(tmp_path, b"e1 " + document("repl", case) + b'\ne1 {"k": 1}\ne2\n')
    assert result.exit_code == 0
    assert "error: bad payload:" in result.stderr
    assert "status: completed" in result.stderr
    assert [step["event"] for step in read_json(trace.read_bytes())["trajectory"]] == ["e1", "e2"]


def test_repl_reports_input_that_is_not_utf8(tmp_path):
    # The test runner decodes stdin strictly and drops what follows the bad
    # byte, so the repl can only be shown to report it and prompt again.
    result, _ = repl(tmp_path, b"e1 " + UNDECODABLE["bad-utf8"] + b"\n")
    assert result.exit_code == 0
    assert "error: input is not valid UTF-8" in result.stderr
    assert result.stderr.rstrip().endswith("event>")


def test_repl_rejects_undecodable_bytes_read_as_surrogates(tmp_path):
    """Under a C locale Python reads stdin with ``surrogateescape``; the
    payload then holds lone surrogates, which no UTF-8 trace can hold."""
    script = write(tmp_path, json.dumps({"steps": []}).encode(), "script.json")
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONIOENCODING": "utf-8:surrogateescape"}
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "machina.cli", "repl", "--machine", H3,
         "--provider", f"scripted:{script}", "--trace", str(trace)],
        input=b"e1 " + UNDECODABLE["bad-utf8"] + b'\ne1 {"k": 1}\ne2\n',
        capture_output=True,
        env=env,
        timeout=60,
    )
    stderr = done.stderr.decode("utf-8", "replace")
    assert done.returncode == 0, stderr
    assert "error: bad payload:" in stderr
    assert read_json(trace.read_bytes())["trajectory"][0]["event_payload"] == {"k": 1}


@pytest.mark.parametrize(
    "command, machine, stdin", [("run", ROUTING, b""), ("repl", H3, b":quit\n")]
)
def test_a_question_that_is_not_utf8_ends_in_one_error_line(tmp_path, command, machine, stdin):
    """The command line decodes a byte that is not UTF-8 to a lone
    surrogate, which no prompt or UTF-8 trace can hold; the belief refuses
    it before the run starts."""
    script = write(tmp_path, json.dumps({"steps": []}).encode(), "script.json")
    trace = tmp_path / "trace.json"
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "machina.cli", command, "--machine", machine,
         "--provider", f"scripted:{script}", "--question", b"\xff", "--trace", str(trace)],
        input=stdin,
        capture_output=True,
        env=env,
        timeout=60,
    )
    stderr = done.stderr.decode("utf-8", "replace")
    assert done.returncode == 1, stderr
    assert re.match(
        r"error: text holds '\\udcff' at character 0, which UTF-8 cannot encode\n\Z", stderr
    )
    assert not trace.exists()


@pytest.mark.parametrize(
    "value", ["NaN", "Infinity", "-Infinity", "1e999", '"\\ud800"'], ids=lambda v: v.strip('"')
)
def test_first_json_object_skips_a_value_that_is_not_strict(value):
    assert first_json_object('{"event": %s} {"event": "go"}' % value) == {"event": "go"}
    assert first_json_array("[%s] [1.5]" % value) == [1.5]


def test_paired_surrogate_escapes_still_decode():
    assert read_json('{"a": "\\ud83d\\ude00", "b": "\\\\ud800"}') == {"a": "\U0001F600", "b": "\\ud800"}


def test_nan_reply_fails_the_run_and_the_trace_stays_strict(tmp_path):
    reply = '{"event": "filter", "arguments": {"predicate": {"color": NaN}}}'
    script = write(tmp_path, json.dumps({"steps": [{"reply": reply}] * 2}).encode(), "script.json")
    trace = tmp_path / "trace.json"
    args = [
        "run", "--machine", REACT, "--provider", f"scripted:{script}", "--scene", S1,
        "--question", "How many red objects are there?", "--trace", str(trace),
    ]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert "reply contains no usable JSON object" in result.stderr
    read_json(trace.read_bytes())


@pytest.mark.parametrize("text", ["NaN", "inf", "-Infinity", "1e999", "1" * 5000])
def test_number_argument_must_be_finite(text):
    with pytest.raises(ArgumentTypeError):
        coerce_argument(text, "number")


def test_json_is_decoded_in_one_place():
    """``json_extract`` owns decoding: no other ``json.load``/``loads`` or
    ``response.json()``, and a single decoder object."""
    calls = re.compile(r"\bjson\.loads?\(|\.json\(\)")
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if calls.search(line)
    ]
    assert offenders == []
    decoders = [
        path.name
        for path in PACKAGE.glob("*.py")
        for _ in re.finditer(r"JSONDecoder\b", path.read_text(encoding="utf-8"))
    ]
    assert decoders == ["json_extract.py"]
