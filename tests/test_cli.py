import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from click.testing import CliRunner

from machina.cli import main
from machina.harness import generate_mini_clevr
from machina.machine_io import serialize_machine
from helpers import MINIMAL_DOC, budget_cycle_doc, machine_from, write_dataset

S1_JSON = Path("src/machina/scenes/s1.scene.json")
ROUTING_JSON = Path("src/machina/machines/routing.sm.json")
H3_JSON = Path("src/machina/machines/h3.sm.json")
RULES_JSON = Path("src/machina/rules/routing.rules.json")


@pytest.fixture()
def runner():
    return CliRunner()


def write_machine(tmp_path, doc, name="machine.sm.json"):
    path = tmp_path / name
    path.write_text(serialize_machine(machine_from(doc)), encoding="utf-8")
    return path


def write_script(tmp_path, replies, name="script.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"steps": [{"reply": r} for r in replies]}))
    return path


class TestValidate:
    def test_routing_fixture_ok(self, runner):
        result = runner.invoke(main, ["validate", "--machine", str(ROUTING_JSON)])
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_multiple_start_fails(self, runner, tmp_path):
        doc = {
            "name": "m",
            "states": [
                {"name": "a", "description": "", "tags": ["start"]},
                {"name": "b", "description": "", "tags": ["start", "end"]},
            ],
            "transitions": [],
        }
        path = write_machine(tmp_path, doc)
        result = runner.invoke(main, ["validate", "--machine", str(path)])
        assert result.exit_code == 1
        assert "MultipleStart" in result.output

    def test_overlong_integer_guard_is_a_bad_guard(self, runner, tmp_path):
        doc = {
            "name": "m",
            "states": [
                {"name": "a", "description": "", "tags": ["start"]},
                {"name": "b", "description": "", "tags": ["end"]},
            ],
            "transitions": [
                {"source": "a", "target": "b", "event": "go", "guard": {"expr": "x == " + "9" * 5000}}
            ],
        }
        path = write_machine(tmp_path, doc)
        result = runner.invoke(main, ["validate", "--machine", str(path)])
        assert result.exit_code == 1
        assert "BadGuard" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["validate", "--machine", "nowhere.sm.json"])
        assert result.exit_code == 1
        assert "error" in result.stderr

    def test_warnings_do_not_fail(self, runner, tmp_path):
        path = write_machine(tmp_path, budget_cycle_doc())
        result = runner.invoke(main, ["validate", "--machine", str(path)])
        assert result.exit_code == 0
        assert "UnreachableState" in result.output


class TestDot:
    def test_dot_output(self, runner):
        result = runner.invoke(main, ["dot", "--machine", str(H3_JSON)])
        assert result.exit_code == 0
        assert result.output.startswith("digraph")
        assert "cluster_Top" in result.output


class TestRun:
    def test_routing_replay_prints_count(self, runner, tmp_path):
        script = write_script(tmp_path, ["counting", '["o1"]'])
        result = runner.invoke(
            main,
            [
                "run",
                "--machine", str(ROUTING_JSON),
                "--provider", f"scripted:{script}",
                "--rules", str(RULES_JSON),
                "--scene", str(S1_JSON),
                "--question",
                "How many metal objects would there be if you didn't include spheres?",
            ],
        )
        assert result.exit_code == 0, result.stderr
        assert result.stdout.strip() == "1"
        assert "status: completed" in result.stderr

    def test_failed_run_prints_no_answer(self, runner, tmp_path):
        # extractObjects fails on the unknown o4; "counting" is not the answer
        script = write_script(tmp_path, ["counting", '["o1", "o4"]'])
        result = runner.invoke(
            main,
            [
                "run",
                "--machine", str(ROUTING_JSON),
                "--provider", f"scripted:{script}",
                "--rules", str(RULES_JSON),
                "--scene", str(S1_JSON),
                "--question", "How many metal objects are there?",
            ],
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "status: failed" in result.stderr
        assert "reason: " in result.stderr and "o4" in result.stderr

    def test_cyclic_machine_budget_exit_code(self, runner, tmp_path):
        path = write_machine(tmp_path, budget_cycle_doc())
        script = write_script(tmp_path, [])
        result = runner.invoke(
            main, ["run", "--machine", str(path), "--provider", f"scripted:{script}"]
        )
        assert result.exit_code == 3
        assert "steps: 10" in result.stderr

    def test_bad_provider_spec(self, runner, tmp_path):
        path = write_machine(tmp_path, MINIMAL_DOC)
        result = runner.invoke(
            main, ["run", "--machine", str(path), "--provider", "carrier-pigeon"]
        )
        assert result.exit_code == 1
        assert "provider" in result.stderr

    def test_http_provider_needs_url_and_model(self, runner, tmp_path):
        path = write_machine(tmp_path, MINIMAL_DOC)
        result = runner.invoke(main, ["run", "--machine", str(path), "--provider", "http"])
        assert result.exit_code == 1

    def test_trace_matches_reported_steps(self, runner, tmp_path):
        script = write_script(tmp_path, ["counting", '["o1"]'])
        trace_path = tmp_path / "trace.json"
        result = runner.invoke(
            main,
            [
                "run",
                "--machine", str(ROUTING_JSON),
                "--provider", f"scripted:{script}",
                "--rules", str(RULES_JSON),
                "--scene", str(S1_JSON),
                "--question", "How many metal objects are there?",
                "--trace", str(trace_path),
            ],
        )
        assert result.exit_code == 0
        trace = json.loads(trace_path.read_text())
        assert set(trace) == {
            "task_context",
            "inputs",
            "trajectory",
            "execution_log",
            "kv",
            "current_state",
        }
        steps_line = next(l for l in result.stderr.splitlines() if l.startswith("steps:"))
        assert len(trace["trajectory"]) == int(steps_line.split(":")[1])

    def test_waiting_exit_code(self, runner, tmp_path):
        script = write_script(tmp_path, [])
        result = runner.invoke(
            main, ["run", "--machine", str(H3_JSON), "--provider", f"scripted:{script}"]
        )
        assert result.exit_code == 2


class TestRepl:
    def test_wait_event_complete(self, runner, tmp_path):
        script = write_script(tmp_path, [])
        result = runner.invoke(
            main,
            ["repl", "--machine", str(H3_JSON), "--provider", f"scripted:{script}"],
            input="e2\n",
        )
        assert result.exit_code == 0
        assert "status: waiting" in result.stderr
        assert "status: completed" in result.stderr

    def test_meta_commands_and_bad_payload(self, runner, tmp_path):
        script = write_script(tmp_path, [])
        result = runner.invoke(
            main,
            ["repl", "--machine", str(H3_JSON), "--provider", f"scripted:{script}"],
            input=":state\ne1 {not json}\ne1 {\"k\": 1}\n:quit\n",
        )
        assert result.exit_code == 0
        assert "Leaf" in result.output
        assert "bad payload" in result.stderr

    def test_quit_immediately(self, runner, tmp_path):
        script = write_script(tmp_path, [])
        result = runner.invoke(
            main,
            ["repl", "--machine", str(H3_JSON), "--provider", f"scripted:{script}"],
            input=":quit\n",
        )
        assert result.exit_code == 0


class _QaStubHandler(BaseHTTPRequestHandler):
    """Answers routing-machine prompts well enough to drive a live bench."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][-1]["content"]
        if "Decide which type" in prompt:
            if "How many" in prompt:
                reply = "counting"
            elif "Is there" in prompt:
                reply = "judging"
            else:
                reply = "querying"
        elif "List the ids" in prompt:
            reply = "[]"
        else:
            reply = "unsure"
        data = json.dumps({"choices": [{"message": {"content": reply}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def qa_stub_server():
    server = HTTPServer(("127.0.0.1", 0), _QaStubHandler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join()
    server.server_close()


class TestBench:
    def test_http_provider_wiring(self, runner, qa_stub_server, tmp_path):
        report_path = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["bench", "--seed", "5", "--scenes", "2", "--variant", "routing",
             "--provider", "http", "--base-url", qa_stub_server, "--model", "stub",
             "--report", str(report_path)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(report_path.read_text())
        assert report["n"] == 6
        # every item reached the stub at least once (classify, then one more)
        assert all(row["calls"] == 2 for row in report["per_item"])
        assert all(row["status"] == "completed" for row in report["per_item"])

    def test_generated_dataset_routing(self, runner, tmp_path):
        report_path = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["bench", "--seed", "3", "--scenes", "4", "--variant", "routing",
             "--report", str(report_path)],
        )
        assert result.exit_code == 0, result.output
        assert "exact match accuracy: 1.000" in result.output
        report = json.loads(report_path.read_text())
        assert report["n"] == 12
        assert report["exact_match_accuracy"] == 1.0

    def test_dataset_file(self, runner, tmp_path):
        dataset = generate_mini_clevr(3, 2, 3)
        path = write_dataset(dataset, tmp_path)
        result = runner.invoke(
            main, ["bench", "--dataset", str(path), "--variant", "planning"]
        )
        assert result.exit_code == 0, result.output
        assert "variant: planning" in result.output
