"""One reliability-run spec behind every front end.

``repro reliability``, ``repro coordinate`` and the service's
``POST /v1/jobs`` describe a run with one
:class:`~repro.runtime.spec.ExperimentSpec`.  One table of invalid run
values goes through all three and is refused the same way: exit 2 with
the reason on stderr and no traceback, before any shard runs or any
socket binds, and HTTP 400.  The fingerprints the service caches under
and the coordinator's run fingerprint are pinned to the values they
had before the front ends shared the spec, and the CLI's parser reads
the scheme registry without importing the engine.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro.faultsim.simulator as simulator
import repro.runtime.spec as spec_module
from repro.cli import _run_spec, build_parser, main
from repro.runtime import RuntimePolicy, load_checkpoint
from repro.runtime.distributed import Coordinator
from repro.runtime.spec import ExperimentSpec, build_scheme
from repro.service import CampaignService, create_server

SRC = Path(__file__).resolve().parents[2] / "src"

#: Run values no front end accepts, as spec keys.
INVALID_RUNS = [
    pytest.param({"systems": 0}, id="systems-0"),
    pytest.param({"systems": -5}, id="systems-minus-5"),
    pytest.param({"years": 0}, id="years-0"),
    pytest.param({"years": -1}, id="years-minus-1"),
    pytest.param({"scrub_hours": 0}, id="scrub-hours-0"),
    pytest.param({"scaling_rate": -1}, id="scaling-rate-minus-1"),
]


def _flags(values):
    """CLI flags for a small valid xed run overridden by ``values``."""
    merged = {"systems": 2_000, **values}
    flags = ["--schemes", "xed"]
    for key, value in merged.items():
        flags += [f"--{key.replace('_', '-')}", str(value)]
    return flags


@pytest.fixture
def nothing_runs(monkeypatch):
    """Fail the test if a shard plan starts or a socket binds."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a rejected run reached the engine or a socket")

    monkeypatch.setattr(simulator, "run_resilient", forbidden)
    monkeypatch.setattr(socket, "create_server", forbidden)


@pytest.fixture(scope="module")
def post_job(tmp_path_factory):
    """``POST /v1/jobs`` against a real service on an ephemeral port."""
    service = CampaignService(tmp_path_factory.mktemp("service"))
    server = create_server("127.0.0.1", 0, service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    url = f"http://127.0.0.1:{server.server_address[1]}/v1/jobs"

    def post(body):
        request = urllib.request.Request(
            url, data=json.dumps(body).encode("utf-8"), method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=10.0) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    yield post
    server.shutdown()
    server.server_close()
    service.shutdown(timeout=5.0)


@pytest.mark.timeout(60)
@pytest.mark.parametrize("values", INVALID_RUNS)
class TestInvalidRunValues:
    def _assert_refused(self, argv, values, capsys):
        started = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - started < 30.0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("repro: ") and err.count("\n") == 1, err
        assert next(iter(values)).split("_")[0] in err

    def test_reliability_exits_2(self, values, nothing_runs, capsys):
        self._assert_refused(["reliability", *_flags(values)], values, capsys)

    def test_coordinate_exits_2(self, values, nothing_runs, capsys):
        argv = ["coordinate", "--bind", "127.0.0.1:0", *_flags(values)]
        self._assert_refused(argv, values, capsys)

    def test_service_answers_400(self, values, post_job):
        status, body = post_job({"schemes": ["xed"], **values})
        assert status == 400
        assert next(iter(values)).split("_")[0] in body["error"]


class TestPinnedIdentities:
    """Cache keys and run identities measured before the spec was shared."""

    SMALL = {
        "schemes": ["xed"], "systems": 50_000,
        "shard_size": 12_500, "seed": 2016,
    }

    def test_service_fingerprints(self):
        assert ExperimentSpec.from_dict(self.SMALL).fingerprint() == (
            "27bc9f1dc7526d22d0998e12fa9f18445cb82de726b543b255d7460d3fc68f4c"
        )
        # The shard size is hashed resolved: the former 25,000 default
        # keeps its key when spelled out, and the default has its own.
        fig7 = {"schemes": ["ecc_dimm", "xed", "chipkill"], "systems": 200_000}
        assert ExperimentSpec.from_dict(
            {**fig7, "shard_size": 25_000}
        ).fingerprint() == (
            "05ecfda59445eca121a8fa432015b41abaeb8e1fc599797c942764287a16c90c"
        )
        assert ExperimentSpec.from_dict(fig7).fingerprint() == (
            "edce6c30c86fdaa36015c30a81caeb3e58f2292d6c4af08e7661fbf35c9e050c"
        )

    def test_default_shard_size_has_one_owner(self):
        built = ExperimentSpec(schemes=("xed",))
        parsed = ExperimentSpec.from_dict({"schemes": ["xed"]})
        assert built.shard_size == parsed.shard_size == (
            simulator.DEFAULT_SHARD_SIZE
        )
        assert built.fingerprint() == parsed.fingerprint()
        config = simulator.MonteCarloConfig(num_systems=built.systems)
        shard_size, _ = simulator._shard_plan(build_scheme("xed"), config)
        assert shard_size == built.shard_size

    def test_default_population_and_seed_have_one_owner(self):
        built = ExperimentSpec(schemes=("xed",))
        parsed = ExperimentSpec.from_dict({"schemes": ["xed"]})
        config = simulator.MonteCarloConfig()
        assert built.systems == parsed.systems == config.num_systems == (
            spec_module.DEFAULT_SYSTEMS
        )
        assert built.seed == parsed.seed == config.seed == (
            spec_module.DEFAULT_SEED
        )
        (fingerprint,) = parsed.run_fingerprints()
        assert (fingerprint.total, fingerprint.seed) == (
            config.num_systems, config.seed,
        )

    def test_default_simulate_and_spec_share_one_fingerprint(self, tmp_path):
        """A bare ``simulate()`` runs the spec's default experiment.

        ``MonteCarloConfig`` defaults the lifetime to the integer 7 and
        the spec to 7.0; the fingerprint hashes it as a float, so both
        name one run and can resume each other's checkpoints."""
        policy = RuntimePolicy(checkpoint_dir=str(tmp_path))
        simulator.simulate(build_scheme("xed"), runtime=policy)
        written = load_checkpoint(policy.outcomes[0].checkpoint_path)
        (expected,) = ExperimentSpec.from_dict(
            {"schemes": ["xed"]}
        ).run_fingerprints()
        assert written.fingerprint == expected.to_dict()

    @pytest.mark.parametrize("knob, value", [
        pytest.param("scrub_hours", 24, id="scrub-hours-24"),
        pytest.param("scaling_rate", 0, id="scaling-rate-0"),
    ])
    def test_integer_knob_shares_the_float_fingerprint(self, knob, value):
        """An API caller's integer scrub interval or scaling rate names
        the run the float of ``--scrub-hours 24``, a service job or a
        coordinator names."""
        scheme = build_scheme("xed")
        as_int, as_float = (
            simulator.reliability_fingerprint(
                scheme, simulator.MonteCarloConfig(**{knob: v}), 50_000
            )
            for v in (value, float(value))
        )
        assert as_int.config_hash == as_float.config_hash

    def test_coordinator_run_fingerprint(self):
        coordinator = Coordinator(ExperimentSpec.from_dict(self.SMALL))
        coordinator._sock.close()
        assert coordinator.fingerprint.to_dict() == {
            "kind": "reliability.XED (9 chips)",
            "seed": 2016,
            "total": 50_000,
            "shard_size": 12_500,
            "config_hash": (
                "a1eb930a4e1a4dd7381931055e3a9c96"
                "019aa7eb9a671e95b7cab6f52e8e5a70"
            ),
            "code_version": "1.0.0",
        }

    def test_command_lines_build_the_service_spec(self):
        for command in ("reliability", "coordinate"):
            args = build_parser().parse_args([
                command, "--schemes", "xed", "--systems", "50000",
                "--shard-size", "12500",
            ])
            spec = _run_spec(args)
            assert spec.fingerprint() == (
                ExperimentSpec.from_dict(self.SMALL).fingerprint()
            )


def test_build_parser_imports_no_engine():
    code = (
        "import sys\n"
        "from repro.cli import build_parser\n"
        "build_parser()\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "'repro.faultsim')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
