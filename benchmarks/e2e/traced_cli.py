"""Run the ``repro`` CLI with the layer wrappers installed.

Usage::

    PYTHONPATH=src python benchmarks/e2e/traced_cli.py SPANS.jsonl <repro args...>

This is how a traced run starts ``repro all`` and ``repro serve``: the
wrappers of :mod:`spans` go in before ``repro.cli.main`` runs, and the
spans are written to ``SPANS.jsonl`` after it returns (for ``serve``,
after the SIGTERM drain).  The root span ``cli.main`` covers importing
and wrapping the layers plus the command itself.  When the
``BENCH_TRACE_PARENT`` environment variable names a span of the parent
process (``<trace_id>/<span_id>``), the root joins that trace.
"""

import contextlib
import os
import sys

from spans import (
    TRACE_ENV, Recorder, layer_wrappers, parse_parent, write_spans,
)


def main(argv):
    """Run ``repro`` with ``argv[1:]``; write spans to ``argv[0]``."""
    path, repro_args = argv[0], argv[1:]
    recorder = Recorder()
    parent = parse_parent(os.environ.get(TRACE_ENV))
    try:
        with recorder.span("cli.main", parent=parent), \
                contextlib.ExitStack() as wrapped:
            with recorder.span("cli.import"):
                from repro.cli import main as repro_main

                wrapped.enter_context(layer_wrappers(recorder))
            return repro_main(repro_args)
    finally:
        write_spans(path, recorder.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
