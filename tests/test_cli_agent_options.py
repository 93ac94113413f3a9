"""``run`` and ``repl`` build their agent from the same options through one
path; these cover that path from the ``repl`` side."""

import json
from pathlib import Path

from click.testing import CliRunner

from machina.cli import main

H3_JSON = Path("src/machina/machines/h3.sm.json")


def test_repl_bad_provider_spec_exits_1():
    result = CliRunner().invoke(
        main, ["repl", "--machine", str(H3_JSON), "--provider", "carrier-pigeon"]
    )
    assert result.exit_code == 1
    assert "error:" in result.stderr


def test_repl_trace_matches_reported_steps(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"steps": []}))
    trace_path = tmp_path / "trace.json"
    result = CliRunner().invoke(
        main,
        [
            "repl",
            "--machine", str(H3_JSON),
            "--provider", f"scripted:{script}",
            "--trace", str(trace_path),
        ],
        input='e1 {"k": 1}\ne2\n',
    )
    assert result.exit_code == 0
    trace = json.loads(trace_path.read_text())
    steps_line = next(l for l in result.stderr.splitlines() if l.startswith("steps:"))
    assert len(trace["trajectory"]) == int(steps_line.split(":")[1]) == 2
    assert trace["trajectory"][0]["event_payload"] == {"k": 1}
