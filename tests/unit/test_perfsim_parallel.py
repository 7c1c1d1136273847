"""Deterministic ordering of the perfsim grid across worker counts.

The load-bearing property: a (workload x scheme) grid yields
*byte-identical* merged results and the *same* observability trace
tree whether its cells run in-process (workers=1) or on a spawn pool
(workers=4), and whether the cells execute on the scalar or pipeline
engine.  Also covers the fault-tolerant path: a grid checkpointed via
a RuntimePolicy resumes to the identical payload.
"""

import json

from repro.obs import OBS, span_records
from repro.perfsim.runner import run_suite
from repro.perfsim.workloads import workload_by_name

SCHEMES = ["ecc_dimm", "xed"]
WORKLOAD_NAMES = ["mcf", "libquantum"]
INSTRUCTIONS = 3000


def _grid_payload(grid):
    """Canonical JSON of every cell, in deterministic (cell) order."""
    doc = {
        workload: {key: run.to_payload() for key, run in sorted(row.items())}
        for workload, row in sorted(grid.items())
    }
    return json.dumps(doc, sort_keys=True)


def _run_grid(workers, backend="pipeline", trace=False):
    OBS.reset()
    if trace:
        OBS.enable()
    workloads = [workload_by_name(n) for n in WORKLOAD_NAMES]
    grid = run_suite(
        SCHEMES, workloads, instructions_per_core=INSTRUCTIONS,
        backend=backend, workers=workers,
    )
    records = OBS.trace.to_records() if trace else None
    return grid, records


def _normalise(records):
    """Strip timing/process fields so trees compare structurally."""
    tree = []
    for s in span_records(records):
        attrs = dict(s.get("attrs") or {})
        attrs.pop("workers", None)  # legitimate config difference
        tree.append(
            {
                "name": s["name"],
                "span_id": s["span_id"],
                "parent_id": s["parent_id"],
                "attrs": attrs,
            }
        )
    tree.sort(key=lambda s: s["span_id"])
    return tree


class TestWorkerCountInvariance:
    def test_merged_grid_byte_identical_one_vs_four_workers(self):
        grid_1, _ = _run_grid(workers=1)
        grid_4, _ = _run_grid(workers=4)
        assert _grid_payload(grid_1) == _grid_payload(grid_4)

    def test_trace_tree_identical_one_vs_four_workers(self):
        grid_1, records_1 = _run_grid(workers=1, trace=True)
        grid_4, records_4 = _run_grid(workers=4, trace=True)
        assert _grid_payload(grid_1) == _grid_payload(grid_4)
        assert _normalise(records_1) == _normalise(records_4)
        # One shard per simulation, in plan order under the suite root:
        # ecc_dimm and xed share a traffic key, so each workload's two
        # cells come from one shard.
        shard_ids = [
            s["span_id"] for s in _normalise(records_1)
            if s["name"] == "shard_s"
        ]
        assert shard_ids == ["0.s0", "0.s1"]
        roots = [
            s for s in span_records(records_4) if s["parent_id"] is None
        ]
        assert len(roots) == 1
        assert roots[0]["name"] == "perfsim.suite"

    def test_backends_merge_to_identical_grids(self):
        scalar, _ = _run_grid(workers=1, backend="scalar")
        pipeline, _ = _run_grid(workers=4, backend="pipeline")
        assert _grid_payload(scalar) == _grid_payload(pipeline)


class TestResilientGrid:
    def test_checkpointed_grid_resumes_to_identical_payload(self, tmp_path):
        from repro.runtime import RuntimePolicy

        store = str(tmp_path / "ckpt")
        baseline, _ = _run_grid(workers=1)
        fresh, _ = _run_grid_with_policy(
            RuntimePolicy(checkpoint_dir=store), workers=2
        )
        assert _grid_payload(fresh) == _grid_payload(baseline)
        # Second run resumes from the checkpoints (decode path) and must
        # reproduce the identical grid.
        resumed, _ = _run_grid_with_policy(
            RuntimePolicy(resume_dir=store), workers=2
        )
        assert _grid_payload(resumed) == _grid_payload(baseline)


def _run_grid_with_policy(policy, workers):
    OBS.reset()
    workloads = [workload_by_name(n) for n in WORKLOAD_NAMES]
    grid = run_suite(
        SCHEMES, workloads, instructions_per_core=INSTRUCTIONS,
        backend="pipeline", workers=workers, runtime=policy,
    )
    return grid, None
