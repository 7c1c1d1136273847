"""Schemes that move data identically share one simulation.

``SchemeConfig.traffic_key`` leaves out the six fields neither perfsim
engine reads, and ``run_suite`` simulates each (workload, traffic key)
once, relabelling the result for every scheme of the group.  The first
half of this module tests that assumption on both engines; the second
half tests the plan built on it: how many simulations a grid runs, the
order of its rows, the cells it returns and the checkpoints it opens.
"""

import dataclasses
from dataclasses import dataclass, fields

import pytest

import repro.analysis.experiments as experiments
import repro.perfsim.runner as runner
from repro.perfsim.configs import ECC_DIMM, SCHEME_CONFIGS, SchemeConfig
from repro.perfsim.engine import simulate_system
from repro.perfsim.runner import run_benchmark, run_suite, suite_fingerprint
from repro.perfsim.timing import SystemTiming
from repro.perfsim.workloads import workload_by_name

WORKLOADS = [workload_by_name(n) for n in ("mcf", "libquantum")]
INSTRUCTIONS = 2_000
BACKENDS = ("scalar", "pipeline")

#: The fields neither engine reads, spelled out here rather than
#: imported, so a change to the key's definition has to change this too.
EXCLUDED = (
    "key",
    "name",
    "chips_per_access",
    "dynamic_energy_scale",
    "on_die_ecc",
    "correction_core_cycles",
)

#: Another value for each excluded field.
OTHER_VALUES = {
    "key": "ecc_dimm_relabelled",
    "name": "Some other name",
    "chips_per_access": 36,
    "dynamic_energy_scale": 2.5,
    "on_die_ecc": False,
    "correction_core_cycles": 600,
}

FIG11 = ("ecc_dimm", "xed", "chipkill", "xed_chipkill", "double_chipkill")


def _shared_groups():
    groups = {}
    for key, cfg in SCHEME_CONFIGS.items():
        groups.setdefault(cfg.traffic_key, []).append(key)
    return [tuple(keys) for keys in groups.values() if len(keys) > 1]


def _observables(result):
    """Everything a simulation produced except its scheme label."""
    payload = result.to_payload()
    payload.pop("scheme_key")
    logs = [log.commands for log in result.command_logs]
    return payload, logs


def _simulate(workload, config, backend):
    return simulate_system(
        workload, config, SystemTiming(), INSTRUCTIONS, 2016,
        backend=backend, log_commands=True,
    )


@pytest.fixture()
def engine_calls(monkeypatch):
    """Count calls of the engine the grid runner uses."""
    calls = []
    real = runner.simulate_system

    def counted(*args, **kwargs):
        calls.append(args[1].key)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "simulate_system", counted)
    return calls


class TestTrafficKey:
    def test_key_is_every_field_but_the_excluded_six(self):
        kept = [f.name for f in fields(SchemeConfig) if f.name not in EXCLUDED]
        assert set(EXCLUDED) <= {f.name for f in fields(SchemeConfig)}
        for cfg in SCHEME_CONFIGS.values():
            assert cfg.traffic_key == tuple(getattr(cfg, n) for n in kept)

    def test_a_field_added_later_joins_the_key(self):
        @dataclass(frozen=True)
        class Wider(SchemeConfig):
            new_knob: int = 0

        assert (Wider("a", "A").traffic_key
                != Wider("a", "A", new_knob=1).traffic_key)

    def test_the_paper_pairs_share_a_key(self):
        groups = _shared_groups()
        assert ("ecc_dimm", "xed") in groups
        assert ("chipkill", "xed_chipkill") in groups


class TestSharedKeyMeansSameSimulation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_registered_configs_sharing_a_key_simulate_identically(
        self, backend
    ):
        for group in _shared_groups():
            for workload in WORKLOADS:
                results = [
                    _simulate(workload, SCHEME_CONFIGS[key], backend)
                    for key in group
                ]
                assert [r.scheme_key for r in results] == list(group)
                first = _observables(results[0])
                for result in results[1:]:
                    assert _observables(result) == first, (
                        f"{workload.name}: {group} differ on {backend}"
                    )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("field_name", EXCLUDED)
    def test_excluded_field_leaves_the_result_unchanged(
        self, backend, field_name
    ):
        changed = dataclasses.replace(
            ECC_DIMM, **{field_name: OTHER_VALUES[field_name]}
        )
        assert changed.traffic_key == ECC_DIMM.traffic_key
        workload = WORKLOADS[0]
        base = _simulate(workload, ECC_DIMM, backend)
        other = _simulate(workload, changed, backend)
        assert other.scheme_key == changed.key
        assert _observables(other) == _observables(base)


class TestGridPlan:
    def test_fig11_grid_runs_one_simulation_per_machine(self, engine_calls):
        grid = run_suite(FIG11, WORKLOADS, instructions_per_core=INSTRUCTIONS)
        assert engine_calls == ["ecc_dimm", "chipkill", "double_chipkill"] * 2
        assert all(list(row) == list(FIG11) for row in grid.values())

    def test_distinct_machines_keep_one_shard_per_cell(self, engine_calls):
        keys = ("ecc_dimm", "chipkill", "double_chipkill", "lotecc")
        grid = run_suite(keys, WORKLOADS, instructions_per_core=INSTRUCTIONS)
        assert engine_calls == list(keys) * 2
        fingerprint = suite_fingerprint(
            keys, WORKLOADS, INSTRUCTIONS, 2016, SystemTiming()
        )
        assert fingerprint.total == len(keys) * len(WORKLOADS)
        assert sum(len(row) for row in grid.values()) == fingerprint.total

    def test_rows_keep_the_requested_order_and_cells_match(
        self, engine_calls
    ):
        keys = ("ecc_dimm", "chipkill", "xed")
        grid = run_suite(keys, WORKLOADS, instructions_per_core=INSTRUCTIONS)
        assert engine_calls == ["ecc_dimm", "chipkill"] * 2
        assert list(grid) == [w.name for w in WORKLOADS]
        for workload in WORKLOADS:
            row = grid[workload.name]
            assert list(row) == list(keys)
            for key, run in row.items():
                alone = run_benchmark(
                    workload, key, instructions_per_core=INSTRUCTIONS
                )
                assert run.to_payload() == alone.to_payload()

    def test_relabelled_cells_share_no_mutable_state(self):
        grid = run_suite(("ecc_dimm", "xed"), WORKLOADS[:1],
                         instructions_per_core=INSTRUCTIONS)
        row = grid[WORKLOADS[0].name]
        base, xed = row["ecc_dimm"].result, row["xed"].result
        assert xed.scheme_key == "xed" and base.scheme_key == "ecc_dimm"
        assert xed.channel_stats is not base.channel_stats
        assert xed.core_finish_times is not base.core_finish_times

    def test_a_second_run_simulates_again(self, engine_calls):
        for _ in range(2):
            run_suite(("ecc_dimm", "xed"), WORKLOADS[:1],
                      instructions_per_core=INSTRUCTIONS)
        assert engine_calls == ["ecc_dimm", "ecc_dimm"]

    def test_fig11_to_fig14_share_cells_across_figures(
        self, engine_calls, monkeypatch
    ):
        monkeypatch.setattr(experiments, "_GRID_CELLS", {})
        for exp_id in ("fig11", "fig12", "fig13", "fig14"):
            experiments.run_experiment(exp_id, scale="quick")
        # 3 machines for Fig 11, 4 more for Fig 13, 1 for Fig 14.
        assert len(engine_calls) == 8 * len(experiments.QUICK_WORKLOADS) == 48

    def test_perf_grid_returns_only_the_requested_keys(self, monkeypatch):
        monkeypatch.setattr(experiments, "_GRID_CELLS", {})
        monkeypatch.setattr(experiments, "QUICK_WORKLOADS", WORKLOADS)
        monkeypatch.setattr(experiments, "QUICK_INSTRUCTIONS", INSTRUCTIONS)
        experiments._perf_grid("quick", 2016, FIG11)
        grid = experiments._perf_grid("quick", 2016, ("lotecc", "xed"))
        assert all(list(row) == ["lotecc", "xed"] for row in grid.values())


class TestGridCheckpoints:
    def test_a_one_cell_per_record_checkpoint_is_never_opened(self, tmp_path):
        from repro.runtime import RuntimePolicy
        from repro.runtime.checkpoint import (
            CheckpointStore, RunFingerprint, config_digest,
        )
        from repro.version import __version__

        keys = ("ecc_dimm", "xed")
        system = SystemTiming()
        fresh = run_suite(keys, WORKLOADS, instructions_per_core=INSTRUCTIONS)
        # The fingerprint of a plan with one cell per shard, which
        # hashed no scheme groups.
        former = RunFingerprint(
            kind="perfsim.grid",
            seed=2016,
            total=len(keys) * len(WORKLOADS),
            shard_size=1,
            config_hash=config_digest({
                "schemes": list(keys),
                "workloads": [
                    [w.name, w.mpki, w.row_buffer_hit_rate, w.write_fraction,
                     w.bank_locality, w.footprint_lines]
                    for w in WORKLOADS
                ],
                "instructions_per_core": INSTRUCTIONS,
                "system": dataclasses.asdict(system),
            }),
            code_version=__version__,
        )
        current = suite_fingerprint(keys, WORKLOADS, INSTRUCTIONS, 2016,
                                    system)
        assert current.slug() != former.slug()
        policy = RuntimePolicy(resume_dir=str(tmp_path))
        store = CheckpointStore.create(
            policy.checkpoint_path_for(former), former
        )
        cells = [(w.name, k) for w in WORKLOADS for k in keys]
        for index, (name, key) in enumerate(cells):
            store.add(index, fresh[name][key].to_payload())

        resumed = run_suite(keys, WORKLOADS,
                            instructions_per_core=INSTRUCTIONS,
                            runtime=policy)
        (outcome,) = policy.outcomes
        assert outcome.resumed_shards == 0
        assert outcome.checkpoint_path == str(
            policy.checkpoint_path_for(current)
        )
        assert {w: {k: r.to_payload() for k, r in row.items()}
                for w, row in resumed.items()} == {
            w: {k: r.to_payload() for k, r in row.items()}
            for w, row in fresh.items()}

    def test_a_checkpoint_of_the_former_trace_layout_is_refused(
        self, tmp_path
    ):
        """Cells drawn under the former trace layout never mix in.

        Before the 13-word layout, ``suite_fingerprint`` hashed the same
        description without its ``trace`` tag.  Under its own name such
        a checkpoint is never opened (the hash is in the file name); at
        the name this run resumes from, it is refused.
        """
        from repro.perfsim.trace import TRACE_LAYOUT
        from repro.runtime import RuntimePolicy
        from repro.runtime.checkpoint import (
            CheckpointMismatch, CheckpointStore, config_digest,
            load_checkpoint,
        )

        keys = ("ecc_dimm", "xed")
        system = SystemTiming()
        run_suite(keys, WORKLOADS, instructions_per_core=INSTRUCTIONS,
                  runtime=RuntimePolicy(checkpoint_dir=str(tmp_path)))
        current = suite_fingerprint(keys, WORKLOADS, INSTRUCTIONS, 2016,
                                    system)
        path = RuntimePolicy(resume_dir=str(tmp_path)).checkpoint_path_for(
            current)
        written = load_checkpoint(path)
        assert len(written.records) == len(WORKLOADS)

        description = {
            "trace": TRACE_LAYOUT,
            "schemes": list(keys),
            "groups": [list(keys)],
            "workloads": [
                [w.name, w.mpki, w.row_buffer_hit_rate, w.write_fraction,
                 w.bank_locality, w.footprint_lines]
                for w in WORKLOADS
            ],
            "instructions_per_core": INSTRUCTIONS,
            "system": dataclasses.asdict(system),
        }
        assert config_digest(description) == current.config_hash
        del description["trace"]
        former = dataclasses.replace(
            current, config_hash=config_digest(description)
        )
        assert former.slug() != current.slug()

        # Under its own name: never opened.
        policy = RuntimePolicy(resume_dir=str(tmp_path))
        path.rename(policy.checkpoint_path_for(former))
        run_suite(keys, WORKLOADS, instructions_per_core=INSTRUCTIONS,
                  runtime=policy)
        (outcome,) = policy.outcomes
        assert outcome.resumed_shards == 0

        # At the name this run resumes from: refused.
        store = CheckpointStore.create(path, former)
        for index, record in sorted(written.records.items()):
            store.add(index, record.payload)
        with pytest.raises(CheckpointMismatch, match="config_hash"):
            run_suite(keys, WORKLOADS, instructions_per_core=INSTRUCTIONS,
                      runtime=RuntimePolicy(resume_dir=str(tmp_path)))
