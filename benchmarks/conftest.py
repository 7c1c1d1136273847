"""Shared plumbing for the benchmark harness.

Every table and figure of the paper has one ``bench_*`` module here.
Each benchmark runs the registered experiment once (the experiments are
long-running simulations, so pedantic single-round timing), prints the
regenerated rows/series next to the paper's claim, and asserts the
reproduction bands.

Scale control: set ``REPRO_BENCH_SCALE=quick`` for a fast smoke pass;
the default ``full`` scale uses the populations documented in
DESIGN.md/EXPERIMENTS.md.
"""

import os

import pytest

from repro.analysis import run_experiment

SCALE = os.environ.get("REPRO_BENCH_SCALE", "full")


@pytest.fixture(scope="session")
def bench_scale() -> str:
    return SCALE


def run_and_print(benchmark, experiment_id: str, scale: str = None):
    """Run one registered experiment under pytest-benchmark and print it."""
    scale = scale or SCALE
    report = benchmark.pedantic(
        run_experiment,
        args=(experiment_id,),
        kwargs={"scale": scale},
        rounds=1,
        iterations=1,
    )
    print()
    print(report.text)
    return report
