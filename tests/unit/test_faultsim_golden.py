"""Golden-corpus regression test for the Monte-Carlo simulator.

``tests/data/faultsim_golden.json`` records SHA-256 digests of the
``scheme.evaluate`` reference's exact payloads for a fixed set of
(scheme, seed, config) tuples.  This test replays every entry through
**both** the reference and ``simulate()`` and requires each to
reproduce the recorded digest, pinning simulator output across
refactors of either path.  Regenerate intentionally with
``tools/gen_faultsim_golden.py``.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
CORPUS_PATH = REPO_ROOT / "tests" / "data" / "faultsim_golden.json"

_spec = importlib.util.spec_from_file_location(
    "gen_faultsim_golden", REPO_ROOT / "tools" / "gen_faultsim_golden.py"
)
gen_faultsim_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_faultsim_golden)

from repro.faultsim import simulate  # noqa: E402
from repro.faultsim.differential import reference_simulate  # noqa: E402

CORPUS = json.loads(CORPUS_PATH.read_text())["entries"]
CASE_IDS = [
    f"{e['scheme']}-seed{e['seed']}"
    + ("-scaled" if e["scaling_rate"] else "")
    + ("-scrub" if e["scrub_hours"] else "")
    for e in CORPUS
]


#: The two adjudication paths every corpus entry must reproduce.
RUNNERS = {"reference": reference_simulate, "simulate": simulate}


def run_entry(entry, backend):
    """Run one corpus entry through the named path."""
    _, config = gen_faultsim_golden.config_for(entry)
    scheme = gen_faultsim_golden.SCHEMES[entry["scheme"]]()
    return RUNNERS[backend](scheme, config, shard_size=entry["shard_size"])


class TestGoldenCorpus:
    def test_corpus_covers_all_six_schemes(self):
        assert {e["scheme"] for e in CORPUS} >= {
            "non_ecc", "ecc_dimm", "xed", "chipkill",
            "double_chipkill", "xed_chipkill",
        }

    @pytest.mark.parametrize("backend", sorted(RUNNERS))
    @pytest.mark.parametrize("entry", CORPUS, ids=CASE_IDS)
    def test_backend_reproduces_recorded_digest(self, entry, backend):
        result = run_entry(entry, backend)
        assert result.failures == entry["failures"]
        assert result.due_count == entry["due"]
        assert result.sdc_count == entry["sdc"]
        assert gen_faultsim_golden.digest_of(result) == entry["digest"], (
            f"{backend} diverged from the recorded golden digest "
            f"for {entry['scheme']} (seed {entry['seed']}); if the change "
            "is intentional, regenerate with tools/gen_faultsim_golden.py"
        )

    def test_digest_is_canonical_sha256(self):
        result = run_entry(CORPUS[0], "reference")
        canonical = json.dumps(result.to_payload(), sort_keys=True)
        assert (
            gen_faultsim_golden.digest_of(result)
            == hashlib.sha256(canonical.encode()).hexdigest()
        )
