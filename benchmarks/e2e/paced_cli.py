"""Run the ``repro`` CLI with each experiment timed between probes.

Usage::

    PYTHONPATH=src python benchmarks/e2e/paced_cli.py PACING.json <repro args...>

This is how an untraced ``cli_all_quick`` run starts ``repro all`` and
``repro list``.  The first probe of :mod:`hostspeed` runs before
``repro`` is imported; ``repro.analysis.experiments.run_experiment``
is replaced by a wrapper that times each call as one chunk of a
:class:`hostspeed.Pacer`.  ``PACING.json`` receives the probes and the
chunks when the command returns; the parent scales the invocation with
:func:`scaled_invocation`.
"""

import json
import sys
from typing import Tuple

from hostspeed import Pacer, scale


def scaled_invocation(wall_s: float, pacing: dict) -> Tuple[float, float]:
    """Raw and reference seconds of an invocation, less its probes.

    Each experiment is scaled by its own two probes; the rest of the
    wall time (interpreter start, imports, printing) by the first.
    """
    probes, chunks = pacing["probes"], pacing["chunks"]
    raw = wall_s - sum(probes)
    rest = raw - sum(c[0] for c in chunks)
    return raw, sum(c[1] for c in chunks) + scale(rest, probes[0])


def main(argv):
    """Run ``repro`` with ``argv[1:]``; write the pacing to ``argv[0]``."""
    path, repro_args = argv[0], argv[1:]
    pacer = Pacer()
    import repro.analysis.experiments as experiments
    from repro.cli import main as repro_main

    original = experiments.run_experiment
    experiments.run_experiment = (
        lambda *args, **kwargs: pacer.time(original, *args, **kwargs))
    try:
        return repro_main(repro_args)
    finally:
        experiments.run_experiment = original
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"probes": pacer.probes, "chunks": pacer.chunks}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
