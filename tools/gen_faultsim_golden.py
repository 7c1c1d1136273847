"""Regenerate the fault-simulation golden corpus.

Runs the ``scheme.evaluate`` reference
(:func:`repro.faultsim.differential.reference_simulate`, the golden
model) over a fixed set of (scheme, seed, config) tuples and records a
SHA-256 digest of each canonical ``ReliabilityResult.to_payload()``
JSON, plus headline counts for human eyes.  The tier-1 test
``tests/unit/test_faultsim_golden.py`` replays every entry through
both the reference and ``simulate()`` and requires the digests to
match, pinning the simulator's exact output across refactors of
either path.

Usage::

    PYTHONPATH=src python tools/gen_faultsim_golden.py

Rewrites ``tests/data/faultsim_golden.json`` in place.  Only run it
when an *intentional* behaviour change invalidates the corpus, and
say so in the commit message.
"""

import hashlib
import json
import pathlib
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.faultsim import FitTable, MonteCarloConfig  # noqa: E402
from repro.faultsim import (  # noqa: E402
    ChipkillScheme,
    DoubleChipkillScheme,
    EccDimmScheme,
    NonEccScheme,
    XedChipkillScheme,
    XedScheme,
)
from repro.faultsim.differential import reference_simulate  # noqa: E402

OUTPUT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "tests"
    / "data"
    / "faultsim_golden.json"
)

#: Scheme key -> constructor.  ECC-DIMM pins its DUE/SDC split so the
#: corpus does not depend on the measured decoder profile.
SCHEMES = {
    "non_ecc": lambda: NonEccScheme(),
    "ecc_dimm": lambda: EccDimmScheme(sdc_fraction=0.44),
    "xed": lambda: XedScheme(),
    "xed_misdiag": lambda: XedScheme(misdiagnosis_sdc_probability=5e-3),
    "chipkill": lambda: ChipkillScheme(),
    "double_chipkill": lambda: DoubleChipkillScheme(),
    "xed_chipkill": lambda: XedChipkillScheme(),
}

#: The corpus plan: every scheme at the baseline config, plus scaling
#: and scrubbing variants for the schemes whose kernels treat
#: promotion/deactivation specially.
CASES = [
    {"scheme": "non_ecc", "seed": 2016},
    {"scheme": "ecc_dimm", "seed": 2016},
    {"scheme": "xed", "seed": 2016},
    {"scheme": "xed_misdiag", "seed": 11},
    {"scheme": "chipkill", "seed": 2016},
    {"scheme": "double_chipkill", "seed": 2016},
    {"scheme": "xed_chipkill", "seed": 2016},
    {"scheme": "xed", "seed": 7, "scaling_rate": 1e-2,
     "scrub_hours": 168.0},
    {"scheme": "chipkill", "seed": 7, "scaling_rate": 1e-3,
     "scrub_hours": 24.0},
    {"scheme": "xed_chipkill", "seed": 13, "scrub_hours": 168.0},
]

BASE = {
    "num_systems": 2_500,
    "fit_scale": 30.0,
    "shard_size": 1_000,
    "scaling_rate": 0.0,
    "scrub_hours": None,
}


def config_for(case):
    """Build the MonteCarloConfig described by a corpus entry."""
    merged = {**BASE, **case}
    return merged, MonteCarloConfig(
        num_systems=merged["num_systems"],
        seed=merged["seed"],
        fit=FitTable().scaled(merged["fit_scale"]),
        scaling_rate=merged["scaling_rate"],
        scrub_hours=merged["scrub_hours"],
    )


def digest_of(result):
    """SHA-256 of the canonical checkpoint payload JSON."""
    canonical = json.dumps(result.to_payload(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def main():
    """Run every corpus case through the reference and write the file."""
    entries = []
    for case in CASES:
        merged, config = config_for(case)
        result = reference_simulate(
            SCHEMES[case["scheme"]](),
            config,
            shard_size=merged["shard_size"],
        )
        entries.append(
            {
                **merged,
                "digest": digest_of(result),
                "failures": result.failures,
                "due": result.due_count,
                "sdc": result.sdc_count,
            }
        )
        print(
            f"{case['scheme']:>16} seed={merged['seed']:<6} "
            f"failures={result.failures:<5} digest={entries[-1]['digest'][:12]}"
        )
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(
        json.dumps(
            {
                "comment": (
                    "Golden digests of scalar-backend simulate() payloads; "
                    "regenerate with tools/gen_faultsim_golden.py"
                ),
                "entries": entries,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {len(entries)} entries to {OUTPUT}")


if __name__ == "__main__":
    main()
