"""A local run does not import the distributed stack or the process pool.

Every ``repro`` process pays for the modules it imports before its
first shard.  asyncio, the coordinator and its wire protocol serve
``repro coordinate`` and ``repro work`` only, and the process-pool
machinery serves runs with more than one worker only, so each entry
point below must leave them unloaded.  Likewise a Monte-Carlo run
needs neither the closed-form Markov solver nor the
engine-versus-reference harness.  Each probe runs in a fresh
interpreter, because this test process has long since imported them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules that only a distributed run or a pool run needs.
UNUSED = (
    "asyncio",
    "multiprocessing",
    "concurrent.futures.process",
    "repro.runtime.distributed",
    "repro.runtime.protocol",
)

#: Modules only the analytical backend and the differential harness need.
ANALYTICAL = ("repro.faultsim.markov", "repro.faultsim.differential")


def _loaded_after(code: str, modules: tuple = UNUSED) -> list:
    """The ``modules`` a fresh interpreter holds after ``code``."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        f"print('loaded:', json.dumps([m for m in {modules!r}"
        " if m in sys.modules]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1]
    assert last.startswith("loaded: "), done.stdout
    return json.loads(last[len("loaded: "):])


@pytest.mark.parametrize("code", [
    pytest.param("import repro.faultsim", id="faultsim"),
    pytest.param("import repro.perfsim.runner", id="perfsim-runner"),
    pytest.param("import repro.service", id="service"),
    pytest.param("import repro.cli\nrepro.cli.main(['list'])", id="cli-list"),
])
def test_entry_point_leaves_the_distributed_stack_unloaded(code):
    assert _loaded_after(code) == []


def test_the_probe_sees_a_loaded_module():
    assert _loaded_after("import repro.runtime.distributed") == [
        "asyncio", "repro.runtime.distributed", "repro.runtime.protocol",
    ]


def test_faultsim_leaves_the_markov_solver_and_the_harness_unloaded():
    assert _loaded_after("import repro.faultsim", ANALYTICAL) == []


def test_the_harness_loads_the_markov_solver_only_to_cross_validate():
    assert _loaded_after(
        "import repro.faultsim.differential", ANALYTICAL
    ) == ["repro.faultsim.differential"]
