"""Unit tests for the command-line interface."""

import dataclasses
import json

import pytest

from repro.cli import (
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_SHARD_FAILURE,
    EXIT_USAGE,
    build_parser,
    main,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_scheme_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reliability", "--schemes", "magic"])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment", "fig7"])
        assert args.scale == "quick" and args.seed == 2016


class TestCommands:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("fig1", "fig7", "fig11", "table2", "table4"):
            assert exp_id in out

    def test_experiment_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        out = capsys.readouterr().out
        assert "catch-words" in out.lower()

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_collision_x4(self, capsys):
        assert main(["collision", "--bits", "32"]) == 0
        out = capsys.readouterr().out
        assert "32 bits" in out
        hours = float(out.split("(")[1].split(" hours")[0])
        assert hours == pytest.approx(6.6, rel=0.05)  # the paper's figure

    def test_reliability_small_run(self, capsys):
        code = main([
            "reliability", "--schemes", "ecc_dimm", "xed",
            "--systems", "20000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "XED (9 chips)" in out and "P(fail" in out

    def test_perf_small_run(self, capsys):
        code = main([
            "perf", "--workloads", "gcc", "--schemes", "xed",
            "--instructions", "5000", "--metric", "time",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Normalized Execution Time" in out and "gcc" in out

    def test_campaign_clean_exit(self, capsys):
        code = main(["campaign", "--kind", "xed", "--trials", "3"])
        assert code == 0
        assert "scenarios" in capsys.readouterr().out

    def test_scheme_registry_matches_faultsim(self):
        import repro.faultsim as fs
        from repro.runtime.spec import SCHEMES

        for class_name in SCHEMES.values():
            assert hasattr(fs, class_name)


class TestParallelFlags:
    def test_workers_zero_rejected_with_clean_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["reliability", "--schemes", "xed", "--workers", "0"]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "must be >= 1" in err
        assert "Traceback" not in err

    def test_workers_negative_rejected(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["campaign", "--kind", "xed", "--workers", "-3"]
            )
        assert exc.value.code == 2

    def test_workers_non_numeric_rejected(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["reliability", "--schemes", "xed", "--workers", "lots"]
            )
        assert exc.value.code == 2

    def test_shard_size_zero_rejected(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["reliability", "--schemes", "xed", "--shard-size", "0"]
            )
        assert exc.value.code == 2

    def test_workers_default_is_sequential(self):
        args = build_parser().parse_args(["reliability", "--schemes", "xed"])
        assert args.workers == 1 and args.shard_size is None

    def test_reliability_with_workers_smoke(self, capsys):
        code = main([
            "reliability", "--schemes", "xed",
            "--systems", "20000", "--workers", "2", "--shard-size", "10000",
        ])
        assert code == 0
        assert "XED (9 chips)" in capsys.readouterr().out

    def test_campaign_with_workers_smoke(self, capsys):
        code = main([
            "campaign", "--kind", "xed", "--trials", "4",
            "--workers", "2", "--shard-size", "2",
        ])
        assert code == 0
        assert "scenarios" in capsys.readouterr().out


class TestFlagErrors:
    """Each numeric flag names itself; a command rejects flags it ignores."""

    @pytest.mark.parametrize("argv, message", [
        pytest.param(
            ["coordinate", "--lease-shards", "0"],
            "argument --lease-shards: lease shards must be >= 1",
            id="lease-shards",
        ),
        pytest.param(
            ["coordinate", "--lease-timeout", "0"],
            "argument --lease-timeout: lease timeout must be > 0 seconds",
            id="lease-timeout",
        ),
        pytest.param(
            ["work", "--coordinator", "127.0.0.1:1", "--connect-timeout", "0"],
            "argument --connect-timeout: connect timeout must be > 0 seconds",
            id="connect-timeout",
        ),
        pytest.param(
            ["reliability", "--workers", "0"],
            "argument --workers: workers must be >= 1",
            id="workers",
        ),
        pytest.param(
            ["reliability", "--shard-size", "0"],
            "argument --shard-size: shard size must be >= 1",
            id="shard-size",
        ),
        pytest.param(
            ["reliability", "--shard-timeout", "0"],
            "argument --shard-timeout: shard timeout must be > 0 seconds",
            id="shard-timeout",
        ),
        pytest.param(
            ["reliability", "--max-retries", "-1"],
            "argument --max-retries: max retries must be >= 0",
            id="max-retries",
        ),
        pytest.param(
            ["reliability", "--workers", "lots"],
            "argument --workers: invalid int value: 'lots'",
            id="workers-not-a-number",
        ),
        pytest.param(
            ["coordinate", "--chaos", "crash=1"],
            "unrecognized arguments: --chaos crash=1",
            id="coordinate-chaos",
        ),
        pytest.param(
            ["coordinate", "--shard-timeout", "5"],
            "unrecognized arguments: --shard-timeout 5",
            id="coordinate-shard-timeout",
        ),
        pytest.param(
            ["experiment", "fig7", "--shard-timeout", "0.001"],
            "unrecognized arguments: --shard-timeout 0.001",
            id="experiment-shard-timeout",
        ),
        pytest.param(
            ["export", "fig7", "--shard-timeout", "0.001"],
            "unrecognized arguments: --shard-timeout 0.001",
            id="export-shard-timeout",
        ),
        pytest.param(
            ["all", "--shard-timeout", "0.001"],
            "unrecognized arguments: --shard-timeout 0.001",
            id="all-shard-timeout",
        ),
        pytest.param(
            ["work", "--coordinator", "127.0.0.1:1", "--workers", "2"],
            "unrecognized arguments: --workers 2",
            id="work-workers",
        ),
        pytest.param(
            ["work", "--coordinator", "127.0.0.1:1", "--shard-timeout", "5"],
            "unrecognized arguments: --shard-timeout 5",
            id="work-shard-timeout",
        ),
    ])
    def test_usage_error_names_the_flag(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: {message}"
        )


#: One small reliability run, reused by the exit-code tests below.
RELIABILITY_ARGS = [
    "reliability", "--schemes", "xed",
    "--systems", "20000", "--shard-size", "5000",
]


class TestExitCodes:
    """The documented exit-code contract (docs/robustness.md)."""

    def test_exit_code_values_are_the_documented_contract(self):
        assert (EXIT_OK, EXIT_USAGE, EXIT_PARTIAL, EXIT_SHARD_FAILURE,
                EXIT_INTERRUPTED) == (0, 2, 3, 4, 130)

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["reliability", "--shard-timeout", "-1"])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_experiment_is_2(self):
        assert main(["experiment", "fig99"]) == EXIT_USAGE

    def test_bad_chaos_spec_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(RELIABILITY_ARGS + ["--chaos", "explode=everything"])
        assert exc.value.code == EXIT_USAGE
        assert "chaos" in capsys.readouterr().err

    def test_fingerprint_mismatch_is_2(self, tmp_path, capsys):
        assert main(
            RELIABILITY_ARGS + ["--checkpoint", str(tmp_path)]
        ) == EXIT_OK
        capsys.readouterr()
        code = main([
            "reliability", "--schemes", "xed",
            "--systems", "25000", "--shard-size", "5000",
            "--resume", str(tmp_path),
        ])
        assert code == EXIT_USAGE
        assert "different run" in capsys.readouterr().err

    def test_checkpoint_of_the_former_stream_is_refused(
        self, tmp_path, capsys
    ):
        """Shards drawn by a former stream or sampler never mix in.

        Before the Philox stream, ``reliability_fingerprint`` hashed the
        same description without its ``stream`` tag; before the split
        sampler, without its ``sampler`` tag.  Under its own name such
        a checkpoint is never opened (the hash is in the file name); at
        the name this run resumes from, it is refused.
        """
        from repro.faultsim import MonteCarloConfig, XedScheme
        from repro.faultsim.injector import SHARD_SAMPLER
        from repro.faultsim.simulator import reliability_fingerprint
        from repro.faultsim.vectorized import SYSTEM_STREAM
        from repro.runtime.checkpoint import (
            CheckpointStore, config_digest, load_checkpoint,
        )

        assert main(
            RELIABILITY_ARGS + ["--checkpoint", str(tmp_path)]
        ) == EXIT_OK
        capsys.readouterr()
        config = MonteCarloConfig(num_systems=20_000, years=7.0, seed=2016)
        current = reliability_fingerprint(XedScheme(), config, 5_000)
        path = tmp_path / f"{current.slug()}.ckpt"
        written = load_checkpoint(path)
        assert written.fingerprint == current.to_dict()

        former_stream = {
            "scheme": "XED (9 chips)",
            "years": config.years,
            "scaling_rate": config.scaling_rate,
            "scrub_hours": config.scrub_hours,
            "device_width": config.device_width,
            "fit": [
                [mode.value, rate.transient, rate.permanent]
                for mode, rate in sorted(
                    config.fit.rates.items(), key=lambda kv: kv[0].value
                )
            ],
        }
        per_row_sampler = {**former_stream, "stream": SYSTEM_STREAM}
        assert config_digest(
            {**per_row_sampler, "sampler": SHARD_SAMPLER}
        ) == current.config_hash
        for former_description in (former_stream, per_row_sampler):
            former = dataclasses.replace(
                current, config_hash=config_digest(former_description)
            )
            assert former.slug() != current.slug()
            store = CheckpointStore.create(path, former)
            for index, record in sorted(written.records.items()):
                store.add(index, record.payload)

            code = main(RELIABILITY_ARGS + ["--resume", str(tmp_path)])
            assert code == EXIT_USAGE
            err = capsys.readouterr().err
            assert "different run" in err and "config_hash" in err

    def test_checkpoint_of_the_former_default_shard_size(
        self, tmp_path, capsys
    ):
        """A checkpoint planned at the former 25,000-system default.

        The shard size is not in the config hash, so the file keeps its
        name: a resume at the default finds it and refuses it, naming
        ``shard_size``; naming the former size resumes it.
        """
        from repro.runtime.checkpoint import (
            CheckpointStore, RunFingerprint, load_checkpoint,
        )
        from repro.runtime.spec import DEFAULT_SHARD_SIZE

        default_plan = [
            "reliability", "--schemes", "xed", "--systems", "100000",
        ]
        former_plan = default_plan + ["--shard-size", "25000"]
        assert main(former_plan) == EXIT_OK
        uninterrupted = capsys.readouterr().out
        assert main(former_plan + ["--checkpoint", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        (path,) = tmp_path.glob("*.ckpt")
        written = load_checkpoint(path)
        assert sorted(written.records) == [0, 1, 2, 3]
        # Keep the first two shards, as a run interrupted there would.
        store = CheckpointStore.create(
            path, RunFingerprint(**written.fingerprint)
        )
        for index in (0, 1):
            store.add(index, written.records[index].payload)

        code = main(default_plan + ["--resume", str(tmp_path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "different run" in err
        assert f"shard_size: run={DEFAULT_SHARD_SIZE} checkpoint=25000" in err

        metrics = tmp_path / "metrics.json"
        assert main([
            "--metrics-out", str(metrics),
            *former_plan, "--resume", str(tmp_path),
        ]) == EXIT_OK
        assert capsys.readouterr().out == uninterrupted
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["runtime.shards_resumed"] == 2

    def test_shard_failure_is_4_and_prints_resume_command(
        self, tmp_path, capsys
    ):
        code = main(RELIABILITY_ARGS + [
            "--checkpoint", str(tmp_path),
            "--chaos", "fault=1;attempts=99", "--max-retries", "1",
        ])
        assert code == EXIT_SHARD_FAILURE
        err = capsys.readouterr().err
        assert "--resume" in err and str(tmp_path) in err
        assert "--keep-going" in err

    def test_shard_failure_prints_its_cause(self, capsys):
        code = main([
            "reliability", "--schemes", "xed", "--systems", "50000",
            "--shard-size", "12500", "--chaos", "fault=1;attempts=9",
            "--max-retries", "1",
        ])
        assert code == EXIT_SHARD_FAILURE
        assert "repro: cause: ChaosFault: " in capsys.readouterr().err

    def test_keep_going_partial_is_3_with_completeness(self, capsys):
        code = main(RELIABILITY_ARGS + [
            "--chaos", "fault=1;attempts=99", "--max-retries", "1",
            "--keep-going",
        ])
        assert code == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "quarantined" in err and "completeness" in err

    def test_recovered_run_exits_0(self, capsys):
        code = main(RELIABILITY_ARGS + ["--chaos", "fault=1"])
        assert code == EXIT_OK


class TestPartialGrids:
    """A grid hole left by --keep-going prints n/a instead of crashing."""

    CHAOS = ["--keep-going", "--chaos", "fault=1;attempts=9",
             "--max-retries", "0"]

    def test_perf_hole_prints_na_and_exits_partial(self, capsys):
        # Shard 0 is mcf's ECC-DIMM/XED simulation, shard 1 its Chipkill.
        code = main([
            "perf", "--workloads", "mcf", "gcc", "--schemes", "xed",
            "chipkill", "--instructions", "3000",
        ] + self.CHAOS)
        assert code == EXIT_PARTIAL
        captured = capsys.readouterr()
        mcf_rows = [line.split() for line in captured.out.splitlines()
                    if line.split()[:1] == ["mcf"]]
        assert mcf_rows == [["mcf", "|", "1.000", "|", "n/a"]] * 2
        assert "completeness" in captured.err

    def test_experiment_hole_prints_na_and_exits_partial(
        self, capsys, monkeypatch
    ):
        import repro.analysis.experiments as experiments

        monkeypatch.setattr(experiments, "_GRID_CELLS", {})
        # Shard 1 is libquantum's Chipkill/XED+Chipkill simulation.
        code = main(["experiment", "fig11", "--scale", "quick"] + self.CHAOS)
        assert code == EXIT_PARTIAL
        captured = capsys.readouterr()
        (row,) = [line for line in captured.out.splitlines()
                  if line.strip().startswith("libquantum")]
        assert row.split().count("n/a") == 2
        assert "Gmean slowdowns" in captured.out
        assert "completeness" in captured.err

    @pytest.mark.parametrize("command", [["experiment"], ["export", "--out",
                                                          "unused"]])
    def test_key_error_inside_a_run_propagates(self, monkeypatch, command):
        import repro.analysis

        def broken(*args, **kwargs):
            raise KeyError("xed")

        monkeypatch.setattr(repro.analysis, "run_experiment", broken)
        argv = [command[0], "table3", *command[1:]]
        with pytest.raises(KeyError):
            main(argv)


class TestRuntimeFlags:
    def test_runtime_flags_on_long_running_commands(self):
        for argv in (
            ["experiment", "fig7", "--checkpoint", "ck"],
            ["reliability", "--checkpoint", "ck"],
            ["all", "--checkpoint", "ck"],
            ["campaign", "--checkpoint", "ck"],
        ):
            assert build_parser().parse_args(argv).checkpoint == "ck"

    def test_runtime_flags_default_to_no_policy(self):
        from repro.cli import _build_runtime_policy

        args = build_parser().parse_args(["reliability"])
        assert _build_runtime_policy(args) is None

    def test_checkpoint_resume_output_identical(self, tmp_path, capsys):
        assert main(RELIABILITY_ARGS) == EXIT_OK
        plain_out = capsys.readouterr().out
        assert main(
            RELIABILITY_ARGS + ["--checkpoint", str(tmp_path)]
        ) == EXIT_OK
        checkpointed_out = capsys.readouterr().out
        assert main(
            RELIABILITY_ARGS + ["--resume", str(tmp_path)]
        ) == EXIT_OK
        resumed_out = capsys.readouterr().out
        assert plain_out == checkpointed_out == resumed_out

    def test_export_writes_provenance(self, tmp_path, capsys):
        code = main([
            "export", "table3", "--out", str(tmp_path / "results"),
        ])
        assert code == EXIT_OK
        prov_path = tmp_path / "results" / "table3_provenance.json"
        assert prov_path.exists()
        prov = json.loads(prov_path.read_text())
        assert prov["complete"] is True and prov["runs"] == []

    def test_export_provenance_records_partial_runs(self, tmp_path, capsys):
        code = main([
            "export", "fig7", "--out", str(tmp_path / "results"),
            "--chaos", "fault=0;attempts=99", "--max-retries", "0",
            "--keep-going",
        ])
        assert code == EXIT_PARTIAL
        prov = json.loads(
            (tmp_path / "results" / "fig7_provenance.json").read_text()
        )
        assert prov["complete"] is False
        assert any(run["quarantined_shards"] for run in prov["runs"])


class TestEccBackendFlag:
    """Table II and the ECC-DIMM split always use the batched kernels."""

    def test_choices_validated(self):
        """No value of the removed ``--ecc-backend`` flag parses."""
        for value in ("scalar", "batched", "simd"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["experiment", "table2", "--ecc-backend", value]
                )

    def test_flag_absent_on_every_subcommand(self):
        removed = [
            ["reliability", "--ecc-backend", "batched"],
            ["all", "--ecc-backend", "batched"],
            ["export", "table2", "--ecc-backend", "batched"],
            ["sweep", "--ecc-backend", "batched"],
            ["coordinate", "--ecc-backend", "batched"],
            ["coordinate", "--faultsim-backend", "vectorized"],
            ["reliability", "--faultsim-backend", "scalar"],
        ]
        for command in ("experiment table2", "perf", "all", "export fig11"):
            removed.append(command.split() + ["--perfsim-backend", "pipeline"])
        for argv in removed:
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
        for backend in ("vectorized", "analytical"):
            args = build_parser().parse_args(
                ["reliability", "--faultsim-backend", backend]
            )
            assert args.faultsim_backend == backend

    def test_experiment_table2_batched_runs(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Detection-rate" in out

    def test_reliability_batched_matches_scalar(
        self, capsys, monkeypatch, scalar_lane_profile
    ):
        """The ECC-DIMM split from the scalar decoder gives the same run."""
        from repro.ecc import HammingSECDED, miscorrection

        argv = ["reliability", "--schemes", "ecc_dimm", "--systems", "20000"]
        assert main(argv) == 0
        batched_out = capsys.readouterr().out
        scalar_fraction = scalar_lane_profile(HammingSECDED()).sdc_fraction
        monkeypatch.setattr(
            miscorrection, "hamming_chip_error_sdc_fraction",
            lambda: scalar_fraction,
        )
        assert main(argv) == 0
        assert capsys.readouterr().out == batched_out
