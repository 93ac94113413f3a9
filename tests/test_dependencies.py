"""machina runs on the standard library alone; its CLI adds click."""

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


def third_party_modules_added_by(modules: str) -> set[str]:
    src = str(Path(machina.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(modules=modules)],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        text=True,
    ).stdout
    return set(json.loads(out))


@pytest.mark.parametrize(
    "modules, expected",
    [
        ("machina, machina.harness, machina.engine", {"machina"}),
        ("machina.cli", {"machina", "click"}),
    ],
)
def test_imports_pull_in_no_other_package(modules, expected):
    assert third_party_modules_added_by(modules) == expected
