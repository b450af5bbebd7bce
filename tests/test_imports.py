"""numpy loads only where the oracle needs it, and scipy never does;
only the CLI touches the garbage collector.

Each case runs in a fresh interpreter, since this process has long
since imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("numpy", "scipy", "scipy.sparse")

WITNESS_L1 = (
    '{"p1":{"home":"F1","shared":"F2","x":0.5,"y":0.2},'
    '"p2":{"home":"F2","shared":"F1","x":0.5,"y":0.2}}'
)


def state_after(code, report, stdin=""):
    """Run `code` in a fresh interpreter; return the JSON value of the expression `report` after it."""
    probe = f"{code}\nimport gc, json, sys\nprint(json.dumps({report}))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        input=stdin, capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code, stdin=""):
    """Which of HEAVY `code` left loaded."""
    return set(state_after(code, f"[m for m in {HEAVY!r} if m in sys.modules]", stdin))


def collector_after(code):
    """Whether the collector is enabled after `code`, and how many objects it froze."""
    return tuple(state_after(code, "[gc.isenabled(), gc.get_freeze_count()]"))


def run_main(argv):
    return f"from octadist import cli\ncli.main({argv!r})"


@pytest.mark.parametrize("module", ["octadist", "octadist.cli"])
def test_import_loads_neither(module):
    assert loaded_after(f"import {module}") == set()


@pytest.mark.parametrize("command", ["distance", "path"])
def test_stream_loads_neither(command):
    assert loaded_after(run_main([command]), WITNESS_L1 + "\n") == set()


def test_render_loads_neither(tmp_path):
    argv = ["render", "--out", str(tmp_path / "q.svg"), "--query", WITNESS_L1]
    assert loaded_after(run_main(argv)) == set()
    assert (tmp_path / "q.svg").exists()


def test_validate_loads_numpy_but_not_the_mesh_graph():
    assert loaded_after(run_main(["validate", "--count", "1"])) == {"numpy"}


def test_validate_with_mesh_loads_numpy_only():
    argv = ["validate", "--count", "1", "--subdivisions", "4"]
    assert loaded_after(run_main(argv)) == {"numpy"}


def test_importing_the_oracle_builds_no_chain():
    code = "from octadist import oracle\nassert oracle._unfoldings.cache_info().currsize == 0"
    assert loaded_after(code) == {"numpy"}


@pytest.mark.parametrize("module", ["octadist", "octadist.oracle"])
def test_import_leaves_the_collector_alone(module):
    assert collector_after(f"import {module}") == (True, 0)


@pytest.mark.parametrize("enabled", [True, False])
def test_validate_freezes_and_keeps_the_collector_state(enabled):
    start = "import gc\n" + ("" if enabled else "gc.disable()\n")
    code = start + run_main(["validate", "--count", "1", "--subdivisions", "4"])
    is_enabled, frozen = collector_after(code)
    assert is_enabled is enabled
    assert frozen > 0
