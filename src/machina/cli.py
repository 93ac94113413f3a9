"""Operator command line: validate machines, render DOT, run agents
(single-shot or as an event REPL) and run benchmark evaluations.

Exit codes for ``run``: 0 completed, 2 waiting for input, 3 transition
budget exhausted, 1 failed (or configuration error). A failed run prints
nothing on stdout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .actions import builtin_registry
from .belief import belief_to_trace
from .dot import export_dot
from .engine import (
    DEFAULT_MAX_TRANSITIONS,
    Agent,
    EventInstance,
    RunLimits,
    RunResult,
    STATUS_BUDGET_EXHAUSTED,
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_WAITING,
    run,
)
from .errors import MachinaError, require_object
from .harness import (
    Dataset,
    generate_mini_clevr,
    oracle_agent_factory,
    qa_agent_factory,
    qa_belief,
    read_dataset,
    run_eval,
)
from .json_extract import read_json
from .machine_io import load_machine
from .model import validate_machine
from .policy import DEFAULT_HISTORY_BUDGET, LlmPolicy, PolicyStage, RulePolicy, load_rules
from .providers import HttpProvider, load_script
from .scene import parse_scene

EXIT_CODES = {
    STATUS_COMPLETED: 0,
    STATUS_WAITING: 2,
    STATUS_BUDGET_EXHAUSTED: 3,
    STATUS_FAILED: 1,
}


class _Main(click.Group):
    """The command group, and the one place where a command's failure to
    load, build or write something becomes ``error: <reason>`` and exit 1.
    A broken pipe stays Click's to handle."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise
        except (OSError, MachinaError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Main)
def main() -> None:
    """Run JSON-defined state machine agents."""


@main.command()
@click.option("--machine", "machine_path", required=True, type=click.Path())
def validate(machine_path: str) -> None:
    """Check a machine definition; exit 0 when no errors remain."""
    machine = load_machine(machine_path)
    report = validate_machine(machine, builtin_registry().names())
    for violation in report:
        click.echo(str(violation))
    if report.ok:
        click.echo(f"{machine.name}: ok ({len(report.warnings)} warnings)")
        sys.exit(0)
    sys.exit(1)


@main.command()
@click.option("--machine", "machine_path", required=True, type=click.Path())
def dot(machine_path: str) -> None:
    """Print the machine as a Graphviz digraph."""
    click.echo(export_dot(load_machine(machine_path)), nl=False)


def _build_provider(spec: str, base_url: str | None, model: str | None):
    if spec.startswith("scripted:"):
        return load_script(spec.split(":", 1)[1])
    if spec == "http":
        if not base_url or not model:
            raise MachinaError("http provider needs --base-url and --model")
        return HttpProvider(base_url=base_url, model=model)
    raise MachinaError(f"provider must be 'scripted:<file>' or 'http', got {spec!r}")


def _build_agent(
    machine_path: str,
    provider_spec: str,
    rules_path: str | None,
    base_url: str | None,
    model: str | None,
    max_transitions: int,
    history_budget: int,
    question: str | None,
    scene_path: str | None,
) -> Agent:
    machine = load_machine(machine_path)
    provider = _build_provider(provider_spec, base_url, model)
    stack: list[PolicyStage] = []
    if rules_path:
        stack.append(RulePolicy(load_rules(rules_path)))
    stack.append(
        LlmPolicy(
            task_description="Advance the task defined by the state machine.",
            history_token_budget=history_budget,
        )
    )
    scene = parse_scene(Path(scene_path).read_bytes()) if scene_path else None
    return Agent(
        machine=machine,
        belief=qa_belief(question, scene),
        policy=tuple(stack),
        registry=builtin_registry(),
        provider=provider,
        limits=RunLimits(max_transitions=max_transitions),
    )


def _write_trace(result: RunResult, trace_path: str | None) -> None:
    if trace_path:
        Path(trace_path).write_text(
            json.dumps(belief_to_trace(result.belief_snapshot), indent=2, ensure_ascii=False)
            + "\n",
            encoding="utf-8",
        )


def _emit_result(result: RunResult, trace_path: str | None) -> int:
    _write_trace(result, trace_path)
    click.echo(f"status: {result.status}", err=True)
    click.echo(f"steps: {len(result.belief_snapshot.trajectory)}", err=True)
    click.echo(f"provider calls: {result.stats.calls}", err=True)
    if result.reason:
        click.echo(f"reason: {result.reason}", err=True)
    # a failed run's output is its last action's, not an answer
    if result.status != STATUS_FAILED:
        output = result.output
        click.echo(output if isinstance(output, str) else json.dumps(output))
    return EXIT_CODES[result.status]


_run_options = [
    click.option("--machine", "machine_path", required=True, type=click.Path()),
    click.option("--provider", "provider_spec", required=True),
    click.option("--rules", "rules_path", type=click.Path(), default=None),
    click.option("--base-url", default=None),
    click.option("--model", default=None),
    click.option("--max-transitions", default=DEFAULT_MAX_TRANSITIONS, show_default=True),
    click.option("--history-budget", default=DEFAULT_HISTORY_BUDGET, show_default=True),
    click.option("--trace", "trace_path", type=click.Path(), default=None),
    click.option("--scene", "scene_path", type=click.Path(), default=None),
    click.option("--question", default=None),
]


def _with_run_options(command):
    for option in reversed(_run_options):
        command = option(command)
    return command


@main.command(name="run")
@_with_run_options
def run_command(trace_path: str | None, **options) -> None:
    """Run an agent once and print the final output."""
    sys.exit(_emit_result(run(_build_agent(**options)), trace_path))


@main.command()
@_with_run_options
def repl(trace_path: str | None, **options) -> None:
    """Run an agent, then feed it events interactively while it waits.

    Input lines are ``<event name> [json payload]``; meta commands are
    ``:state``, ``:belief`` and ``:quit``. Ending the session while the
    agent waits (``:quit``, end of input or Ctrl-C) exits 0 and still writes
    ``--trace`` from the last result.
    """
    agent = _build_agent(**options)
    result = run(agent)
    click.echo(f"status: {result.status}", err=True)
    while result.status == STATUS_WAITING:
        click.echo("event> ", nl=False, err=True)
        # Lines are read raw and decoded one at a time, so an undecodable
        # line costs only itself, not the lines buffered after it.
        try:
            raw = sys.stdin.buffer.readline()
        except KeyboardInterrupt:
            break
        if not raw:
            break
        try:
            line = raw.decode(sys.stdin.encoding, sys.stdin.errors).strip()
        except UnicodeDecodeError as exc:
            click.echo(f"error: input is not valid UTF-8: {exc.reason}", err=True)
            continue
        if not line:
            continue
        if line == ":quit":
            break
        if line == ":state":
            click.echo(str(agent.belief.current_state))
            continue
        if line == ":belief":
            click.echo(json.dumps(belief_to_trace(agent.belief), indent=2))
            continue
        parts = line.split(None, 1)
        payload: dict = {}
        if len(parts) == 2:
            try:
                payload = require_object(read_json(parts[1]), "")
            except MachinaError as exc:
                click.echo(f"error: bad payload: {exc}", err=True)
                continue
        result = run(agent, EventInstance(parts[0], payload))
        click.echo(f"status: {result.status}", err=True)
        if result.status == STATUS_FAILED and result.reason:
            click.echo(f"reason: {result.reason}", err=True)
    if result.status == STATUS_WAITING:  # the session ended while the agent waits
        _write_trace(result, trace_path)
        sys.exit(0)
    sys.exit(_emit_result(result, trace_path))


@main.command()
@click.option("--dataset", "dataset_path", type=click.Path(), default=None)
@click.option("--seed", default=7, show_default=True)
@click.option("--scenes", "n_scenes", default=50, show_default=True)
@click.option("--questions-per-scene", default=3, show_default=True)
@click.option(
    "--variant",
    type=click.Choice(["routing", "react", "planning"]),
    default="routing",
    show_default=True,
)
@click.option("--provider", "provider_spec", default="oracle", show_default=True)
@click.option("--base-url", default=None)
@click.option("--model", default=None)
@click.option("--max-transitions", default=DEFAULT_MAX_TRANSITIONS, show_default=True)
@click.option("--report", "report_path", type=click.Path(), default=None)
def bench(
    dataset_path: str | None,
    seed: int,
    n_scenes: int,
    questions_per_scene: int,
    variant: str,
    provider_spec: str,
    base_url: str | None,
    model: str | None,
    max_transitions: int,
    report_path: str | None,
) -> None:
    """Evaluate a machine variant over a question dataset.

    Uses the given JSONL dataset when provided, otherwise generates a
    seeded synthetic one. The default ``oracle`` provider replays the
    replies a perfect model would give; ``scripted:<file>`` reloads the
    script per item; ``http`` benchmarks a live model (one provider per
    item, so call counts stay per-item).
    """
    dataset: Dataset = (
        read_dataset(dataset_path)
        if dataset_path
        else generate_mini_clevr(seed, n_scenes, questions_per_scene)
    )
    if provider_spec == "oracle":
        factory = oracle_agent_factory(variant)
    else:
        factory = qa_agent_factory(
            variant, lambda item: _build_provider(provider_spec, base_url, model)
        )
    report = run_eval(factory, dataset, limits=RunLimits(max_transitions=max_transitions))
    click.echo(f"variant: {variant}")
    click.echo(report.summary())
    if report_path:
        Path(report_path).write_text(
            json.dumps(report.to_json_value(), indent=2) + "\n", encoding="utf-8"
        )
    sys.exit(0)


if __name__ == "__main__":
    main()
