"""numpy loads only where the oracle needs it, and scipy never does.

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


def loaded_after(code, stdin=""):
    """Run `code` in a fresh interpreter; return which of HEAVY it left loaded."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        input=stdin, capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


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
