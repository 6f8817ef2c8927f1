"""E11 — extension: batch service throughput under duplicate-request streams.

Benchmarks ``LabelingService.submit_many`` batches on streams with
0% / 50% / 90% duplicate graphs (duplicates arrive relabeled, so only the
canonical form can recognise them).  ``test_experiment_passes`` re-runs the
claim checks, including the hard acceptance bound: the 90%-dup stream must
finish in at most 25% of the no-cache wall time.
"""

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.operations import relabel
from repro.harness.experiments import e11_service_cache
from repro.labeling.spec import L21
from repro.service.api import LabelingService
from repro.service.protocol import SolveRequest

N = 24
TOTAL = 12
ENGINE = "lk"


def make_stream(dup_rate: float) -> list[SolveRequest]:
    unique = max(1, round(TOTAL * (1.0 - dup_rate)))
    bases = [
        gen.random_graph_with_diameter_at_most(N, 2, seed=23 * s)
        for s in range(unique)
    ]
    stream = []
    for i in range(TOTAL):
        g = bases[i % unique]
        perm = np.random.default_rng(500 + i).permutation(g.n).tolist()
        stream.append(SolveRequest(relabel(g, perm), L21, engine=ENGINE))
    return stream


def test_experiment_passes():
    result = e11_service_cache()
    assert result.passed, result.render()


@pytest.mark.parametrize("dup_rate", [0.0, 0.5, 0.9])
def test_bench_batch_stream(benchmark, dup_rate):
    stream = make_stream(dup_rate)

    def run():
        return LabelingService(workers=1).submit_many(stream)

    results, report = benchmark(run)
    assert len(results) == len(stream)
    assert report.hit_rate == pytest.approx(dup_rate, abs=0.05)


def test_bench_warm_cache_stream(benchmark):
    # steady-state serving: every request answered from the warm cache
    stream = make_stream(0.0)
    svc = LabelingService(workers=1)
    svc.submit_many(stream)

    results, report = benchmark(lambda: svc.submit_many(stream))
    assert report.hit_rate == 1.0
    assert all(r.cached for r in results)
