"""A local run does not import the distributed stack or the process pool.

Every ``repro`` process pays for the modules it imports before its
first shard.  asyncio, the coordinator and its wire protocol serve
``repro coordinate`` and ``repro work`` only, and the process-pool
machinery serves runs with more than one worker only, so each entry
point below must leave them unloaded.  Likewise a Monte-Carlo run
needs neither the closed-form Markov solver nor the
engine-versus-reference harness, nor the behavioural chips and DIMMs
and their codes; ``repro all`` needs the Markov solver only to export;
and a perf grid never needs ``numpy.random``.  Each probe runs in a
fresh interpreter, because this test process has long since imported
them.
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

#: The behavioural chips and DIMMs, and the codes a Monte-Carlo run
#: never decodes with.
CHIPS_AND_CODES = (
    "repro.dram.chip",
    "repro.dram.dimm",
    "repro.ecc.gf",
    "repro.ecc.reed_solomon",
    "repro.ecc.crc8",
    "repro.ecc.detection",
    "repro.ecc.differential",
)

#: ``repro all`` without ``--out``, with the experiments stubbed out.
ALL_WITHOUT_OUT = (
    "import repro.analysis\n"
    "repro.analysis.reproduce_all = lambda **kwargs: {}\n"
    "import repro.cli\n"
    "repro.cli.main(['all'])"
)

#: One cell of a perf grid, trace generation included.
ONE_GRID_CELL = (
    "from repro.perfsim.runner import run_suite\n"
    "from repro.perfsim.workloads import WORKLOADS\n"
    "run_suite(('ecc_dimm',), WORKLOADS[:1], instructions_per_core=1000)"
)


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


@pytest.mark.parametrize("code, modules", [
    pytest.param("import repro.faultsim", CHIPS_AND_CODES,
                 id="faultsim-chips-and-codes"),
    pytest.param(ALL_WITHOUT_OUT, ("repro.faultsim.markov",),
                 id="all-without-out"),
    pytest.param(ONE_GRID_CELL, ("numpy.random",), id="perf-grid-cell"),
])
def test_entry_point_leaves_what_it_never_uses_unloaded(code, modules):
    assert _loaded_after(code, modules) == []
