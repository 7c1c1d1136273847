"""Each shard is checkpointed exactly once, however the run gets there.

:meth:`~repro.runtime.CheckpointStore.add` appends every record it is
given: the run's :class:`~repro.runtime.LeaseBook`, seeded with every
resumed record, accepts each shard's completion once.  These tests
hold the file to that.  A local run stopped by a signal and then
resumed extends the interrupted file byte for byte, and a coordinated
run whose ``repro work`` process sends every result frame twice
still writes each index once.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faultsim.differential import assert_identical
from repro.faultsim.simulator import simulate
from repro.obs import TelemetryScope
from repro.runtime import (
    RunFingerprint,
    RunInterrupted,
    RuntimePolicy,
    config_digest,
    run_resilient,
)
from repro.runtime.distributed import Coordinator
from repro.runtime.spec import ExperimentSpec

SRC = Path(__file__).resolve().parents[2] / "src"
TOTAL, SIZE = 60, 10


def _sum_shard(start, count):
    """Trivial deterministic shard: sums its global index range."""
    return {"start": start, "sum": sum(range(start, start + count))}


def _run(policy, **kwargs):
    return run_resilient(
        _sum_shard,
        [(start, SIZE) for start in range(0, TOTAL, SIZE)],
        workers=1,
        fingerprint=RunFingerprint(
            kind="test.once", seed=1, total=TOTAL, shard_size=SIZE,
            config_hash=config_digest({"once": 1}), code_version="1.0.0",
        ),
        policy=policy,
        encode=lambda r: r,
        decode=lambda p: p,
        **kwargs,
    )


def _indices(path):
    """The shard index of every record line of a checkpoint file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line)["index"] for line in lines[1:]]


class TestCheckpointedOnce:
    def test_signalled_run_resumes_without_repeating_a_shard(
        self, tmp_path
    ):
        reference, _ = _run(RuntimePolicy())
        done = []

        def interrupt_after_two(index):
            done.append(index)
            if len(done) == 2:
                os.kill(os.getpid(), signal.SIGINT)

        policy = RuntimePolicy(checkpoint_dir=str(tmp_path))
        with pytest.raises(RunInterrupted) as excinfo:
            _run(policy, on_shard_done=interrupt_after_two)
        path = excinfo.value.checkpoint_path
        interrupted = Path(path).read_bytes()
        assert sorted(_indices(path)) == sorted(done)

        results, outcome = _run(RuntimePolicy(resume_dir=str(tmp_path)))
        assert results == reference
        assert outcome.resumed_shards == len(done)
        assert Path(path).read_bytes().startswith(interrupted)
        assert sorted(_indices(path)) == list(range(TOTAL // SIZE))

    @pytest.mark.timeout(300)
    def test_duplicated_result_frames_are_checkpointed_once(self, tmp_path):
        spec = ExperimentSpec(
            schemes=("xed",), systems=20_000, shard_size=5_000, seed=7
        )
        total = spec.num_shards()
        ((scheme, config),) = spec.build_runs()
        reference = simulate(scheme, config, shard_size=spec.shard_size)
        coordinator = Coordinator(
            spec, port=0, lease_shards=1,
            policy=RuntimePolicy(checkpoint_dir=str(tmp_path)),
        )
        host, port = coordinator.address
        everything = ",".join(str(i) for i in range(total))
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "work",
             "--coordinator", f"{host}:{port}",
             "--chaos", f"duplicate={everything}"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            with TelemetryScope() as scope:
                result = coordinator.run()
            _, err = worker.communicate(timeout=60.0)
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.communicate()
        assert worker.returncode == 0, err
        assert_identical(result, reference, "run with duplicated frames")
        counters = scope.snapshot()["counters"]
        assert counters["runtime.duplicate_results"] == total
        (path,) = tmp_path.glob("*.ckpt")
        assert sorted(_indices(path)) == list(range(total))
