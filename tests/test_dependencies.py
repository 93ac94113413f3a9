"""machina runs on the standard library alone; its CLI adds click. Importing
it leaves the HTTP stack and ``statistics`` unloaded until an
``HttpProvider`` is built, and never loads ``dataclasses`` or ``inspect``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import machina

# Compared against the modules the interpreter itself loaded at start-up, so
# that packages preloaded by site hooks do not count.
PROBE = """
import json, sys
before = set(sys.modules)
import {modules}
added = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(json.dumps(sorted(added - set(sys.stdlib_module_names))))
"""


def run_probe(code: str):
    """The JSON a fresh interpreter prints after running ``code``, with
    ``src`` ahead of this interpreter's own import path."""
    src = str(Path(machina.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, *sys.path])},
        text=True,
    ).stdout
    return json.loads(out)


def third_party_modules_added_by(modules: str) -> set[str]:
    return set(run_probe(PROBE.format(modules=modules)))


@pytest.mark.parametrize(
    "modules, expected",
    [
        ("machina, machina.harness, machina.engine", {"machina"}),
        ("machina.cli", {"machina", "click"}),
    ],
)
def test_imports_pull_in_no_other_package(modules, expected):
    assert third_party_modules_added_by(modules) == expected


# Modules the import of machina must leave to the first HttpProvider (the HTTP
# stack) or not load at all: statistics, which pulls in fractions and decimal,
# and dataclasses, which pulls in inspect, ast, dis and tokenize.
DEFERRED = (
    "http.client",
    "urllib.request",
    "ssl",
    "email",
    "statistics",
    "dataclasses",
    "inspect",
)

LOAD_PROBE = """
import json, sys
before = set(sys.modules)
import machina, machina.harness, machina.engine
imported = set(sys.modules) - before
from machina.providers import HttpProvider
HttpProvider("http://127.0.0.1:9", model="m")
built = set(sys.modules) - before
print(json.dumps({"imported": sorted(imported), "built": sorted(built)}))
"""


def test_http_stack_loads_with_the_first_provider():
    loaded = run_probe(LOAD_PROBE)
    assert [name for name in DEFERRED if name in loaded["imported"]] == []
    assert "urllib.request" in loaded["built"]
