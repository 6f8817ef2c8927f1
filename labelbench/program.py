"""Entry point the benchmark runs *as* the program, in its own process.

``python labelbench/program.py serve [--trace DIR] [serve options]``
    ``repro-label serve`` with its defaults; with ``--trace`` the layer
    wrappers of :mod:`tracer` are installed first, and the spans are
    written to DIR when the server exits.
``python labelbench/program.py batch IN OUT [--workers N] [--trace DIR]``
    The ``repro-label batch`` path in process: ``LabelingService
    .submit_many`` over the batches in the JSON file IN, one batch per
    line of stdin ``go``; timings, reports and answers go to OUT.

Both print ``ready`` on stdout once set-up is done.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _take_trace(argv: list[str]):
    """Strip ``--trace DIR`` from argv; install the wrappers when given."""
    if "--trace" not in argv:
        return None
    i = argv.index("--trace")
    directory = argv[i + 1]
    del argv[i:i + 2]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer

    return tracer.install(directory)


def serve(argv: list[str]) -> int:
    recorder = _take_trace(argv)
    from repro.cli import main

    try:
        return main(["serve", *argv])
    finally:
        if recorder is not None:
            recorder.dump()


def batch(argv: list[str]) -> int:
    recorder = _take_trace(argv)
    src, out = argv[0], argv[1]
    workers = int(argv[argv.index("--workers") + 1]) if "--workers" in argv else None
    from repro.graphs.graph import Graph
    from repro.labeling.spec import LpSpec
    from repro.service.api import LabelingService
    from repro.service.protocol import SolveRequest

    with open(src, encoding="utf-8") as fh:
        batches = json.load(fh)
    service = LabelingService(workers=workers)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    records = []
    for items in batches:
        requests = [
            SolveRequest(
                Graph(it["n"], [tuple(e) for e in it["edges"]]),
                LpSpec(tuple(it["p"])),
                tier="exact",
                tag=it["tag"],
            )
            for it in items
        ]
        t0 = time.perf_counter()
        results, report = service.submit_many(requests)
        t1 = time.perf_counter()
        records.append(
            {
                "start": t0,
                "end": t1,
                "report": report.to_json(),
                "answers": [
                    {
                        "tag": r.tag,
                        "labels": list(r.labeling.labels),
                        "span": r.span,
                        "exact": r.exact,
                        "engine": r.engine,
                        "tier": r.tier,
                    }
                    for r in results
                ],
            }
        )
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    if recorder is not None:
        recorder.dump()
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    command, rest = sys.argv[1], sys.argv[2:]
    sys.exit({"serve": serve, "batch": batch}[command](rest))
