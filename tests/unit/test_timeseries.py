"""TelemetrySampler under a fake clock: rates, quantiles, exports.

All time sources are injected, so every assertion here is exact --
no sleeps, no tolerance bands.  The sampler's contract: counter rates
are deltas over elapsed fake-time, quantiles come from the live timer
histograms, rate-limiting declines cheaply, and the JSONL export
round-trips through :func:`read_timeseries`.
"""

import json

import pytest

from repro.obs import OBS, TelemetrySampler, peak_rss_kb, read_timeseries
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import MAX_SAMPLES


class FakeClock:
    """A monotonic clock advanced explicitly by the test."""

    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _sampler(registry, clock, **kwargs):
    kwargs.setdefault("interval_s", 2.0)
    kwargs.setdefault("wall", lambda: 1_000_000.0)
    kwargs.setdefault("rss_fn", lambda: 4096)
    return TelemetrySampler(
        registry=registry, clock=clock, **kwargs
    )


class TestRates:
    def test_first_sample_measures_from_construction(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        sampler = _sampler(reg, clock)
        reg.counter("trials").inc(500)
        clock.advance(10.0)
        record = sampler.sample()
        assert record["counters"]["trials"] == 500
        assert record["rates"]["trials"] == pytest.approx(50.0)

    def test_rate_is_delta_since_previous_sample(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        sampler = _sampler(reg, clock)
        reg.counter("trials").inc(100)
        clock.advance(10.0)
        sampler.sample()
        reg.counter("trials").inc(40)
        clock.advance(4.0)
        record = sampler.sample()
        assert record["rates"]["trials"] == pytest.approx(10.0)

    def test_stalled_counter_shows_exact_zero(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        sampler = _sampler(reg, clock)
        reg.counter("trials").inc(7)
        clock.advance(1.0)
        sampler.sample()
        clock.advance(5.0)
        record = sampler.sample()
        assert record["rates"]["trials"] == 0.0

    def test_zero_elapsed_omits_rates(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        sampler = _sampler(reg, clock)
        reg.counter("trials").inc(3)
        record = sampler.sample()  # no fake time has passed at all
        assert record["rates"] == {}


class TestRateLimiting:
    def test_maybe_sample_declines_within_interval(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        sampler = _sampler(reg, clock, interval_s=2.0)
        clock.advance(0.1)
        assert sampler.maybe_sample() is not None
        clock.advance(1.9)
        assert sampler.maybe_sample() is None
        clock.advance(0.2)
        assert sampler.maybe_sample() is not None
        assert len(sampler.samples) == 2

    def test_force_overrides_the_interval(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        sampler = _sampler(reg, clock, interval_s=60.0)
        assert sampler.maybe_sample() is not None
        assert sampler.maybe_sample() is None
        assert sampler.maybe_sample(force=True) is not None

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            TelemetrySampler(interval_s=-1.0)


class TestQuantilesAndGauges:
    def test_timer_quantiles_appear_per_sample(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        sampler = _sampler(reg, clock)
        for v in (0.010, 0.020, 0.030, 0.040):
            reg.timer("shard_s").observe(v)
        clock.advance(1.0)
        record = sampler.sample()
        qs = record["quantiles"]["shard_s"]
        assert set(qs) == {"p50", "p95", "p99"}
        assert 0.0 < qs["p50"] <= qs["p95"] <= qs["p99"]

    def test_gauges_and_rss_exported(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        sampler = _sampler(reg, clock)
        reg.gauge("workers").set(4)
        clock.advance(1.0)
        record = sampler.sample()
        assert record["gauges"]["workers"] == 4
        assert record["rss_kb"] == 4096
        assert record["kind"] == "sample"
        assert record["uptime_s"] == pytest.approx(1.0)


class TestDeterminism:
    def test_identical_driving_yields_identical_jsonl(self):
        def run():
            reg = MetricsRegistry()
            clock = FakeClock()
            sampler = _sampler(reg, clock)
            for step in range(3):
                reg.counter("trials").inc(10 * (step + 1))
                reg.timer("shard_s").observe(0.005 * (step + 1))
                clock.advance(3.0)
                sampler.maybe_sample()
            return sampler.to_jsonl()

        assert run() == run()


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        clock = FakeClock()
        sampler = _sampler(reg, clock)
        reg.counter("trials").inc(5)
        clock.advance(1.0)
        sampler.sample()
        out = tmp_path / "ts.jsonl"
        sampler.write_jsonl(str(out))
        lines = out.read_text().strip().split("\n")
        meta = json.loads(lines[0])
        assert meta["kind"] == "timeseries_meta"
        assert meta["samples"] == 1
        samples = read_timeseries(str(out))
        assert len(samples) == 1
        assert samples[0]["counters"]["trials"] == 5

    def test_write_is_atomic_no_partial_file_on_success(self, tmp_path):
        reg = MetricsRegistry()
        clock = FakeClock()
        sampler = _sampler(reg, clock)
        clock.advance(1.0)
        sampler.sample()
        out = tmp_path / "sub" / "ts.jsonl"
        out.parent.mkdir()
        sampler.write_jsonl(str(out))
        # atomic_write_text leaves no temp droppings next to the target
        assert [p.name for p in out.parent.iterdir()] == ["ts.jsonl"]

    def test_memory_bound_drops_oldest(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        sampler = _sampler(reg, clock, interval_s=0.0)
        for _ in range(MAX_SAMPLES + 5):
            clock.advance(1.0)
            sampler.sample()
        assert len(sampler.samples) == MAX_SAMPLES
        assert sampler.dropped == 5


class TestGlobalWiring:
    def test_default_registry_is_the_switchboard(self):
        clock = FakeClock()
        sampler = TelemetrySampler(
            clock=clock, wall=lambda: 0.0, rss_fn=lambda: None
        )
        OBS.enable()
        OBS.registry.counter("wired").inc(3)
        clock.advance(1.0)
        record = sampler.sample()
        assert record["counters"]["wired"] == 3
        assert record["rss_kb"] is None

    def test_peak_rss_positive_on_posix(self):
        rss = peak_rss_kb()
        assert rss is None or rss > 0


class TestEngineWiring:
    """Every sharded run drives an installed sampler to completion."""

    def test_simulate_feeds_installed_sampler(self):
        from repro.faultsim import MonteCarloConfig, XedScheme, simulate

        OBS.reset()
        OBS.enable()
        OBS.sampler = TelemetrySampler(
            interval_s=0.0, wall=lambda: 0.0, rss_fn=lambda: 1
        )
        config = MonteCarloConfig(
            num_systems=1000, years=2.0, seed=7, scaling_rate=2.0,
            faultsim_backend="vectorized",
        )
        simulate(XedScheme(), config, workers=1, shard_size=250)
        samples = OBS.sampler.samples
        # one per shard-completion callback plus the forced final one
        assert len(samples) >= 5
        assert samples[-1]["counters"]["faultsim.systems_done"] == 1000

    def test_campaign_feeds_installed_sampler(self):
        from repro.faultsim.campaign import run_xed_campaign

        OBS.reset()
        OBS.enable()
        OBS.sampler = TelemetrySampler(
            interval_s=0.0, wall=lambda: 0.0, rss_fn=lambda: 1
        )
        run_xed_campaign(trials=8, seed=7, shard_size=4)
        samples = OBS.sampler.samples
        assert samples
        assert samples[-1]["counters"]["campaign.trials_done"] == 8

    def test_perf_grid_samples_once_per_shard(self):
        from repro.perfsim.runner import run_suite
        from repro.perfsim.workloads import WORKLOADS

        OBS.reset()
        OBS.enable()
        OBS.sampler = TelemetrySampler(
            interval_s=0.0, wall=lambda: 0.0, rss_fn=lambda: 1
        )
        workloads = [w for w in WORKLOADS if w.name in ("mcf", "lbm")]
        run_suite(
            ("ecc_dimm", "chipkill"), workloads=workloads,
            instructions_per_core=2000,
        )
        # Two workloads x two machines: the executor ticks once per
        # completed shard, and run_suite forces no final sample.
        assert len(OBS.sampler.samples) == 4
