"""E12 — extension: vectorized APSP + the shared GraphAnalysis oracle.

Two claims, both asserted (so ``make bench`` is also a correctness gate):

1. the vectorized multi-source APSP beats the per-source BFS reference on
   the E-suite graph sizes and on a random tree and a long cycle past
   ``MATMUL_ROWS_LIMIT``, with **bit-identical** distance matrices;
2. a solve through :class:`~repro.service.api.LabelingService` (canonical
   key + cache-miss solve + verify) runs the APSP kernel **exactly once**,
   and a warm isomorphic resubmit adds exactly one more (its own key).

Run quickly (no timed benchmark rounds) with ``make bench-quick``.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.operations import relabel
from repro.graphs.traversal import (
    all_pairs_distances,
    all_pairs_distances_reference,
    apsp_run_count,
)
from repro.labeling.spec import L21
from repro.service.api import LabelingService
from repro.service.protocol import SolveRequest

#: E-suite scaling sizes (E3 sweeps diameter-2 graphs in this range).
SIZES = (40, 70, 100)

#: Graphs the APSP race runs on: the E-suite diameter-2 sizes, plus a random
#: tree and a long cycle — large diameters on which a dense matmul kernel
#: (``k * n^2`` work per BFS level) loses to the per-source reference.
APSP_CASES = [
    pytest.param(
        functools.partial(gen.random_graph_with_diameter_at_most, n, 2, seed=0),
        id=str(n),
    )
    for n in SIZES
] + [
    pytest.param(functools.partial(gen.random_tree, 256, seed=0), id="tree256"),
    pytest.param(functools.partial(gen.cycle_graph, 250), id="cycle250"),
]


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.parametrize("make", APSP_CASES)
def test_vectorized_apsp_equal_and_faster(make):
    g = make()
    vec = all_pairs_distances(g)
    ref = all_pairs_distances_reference(g)
    assert vec.dtype == ref.dtype
    assert np.array_equal(vec, ref), "vectorized APSP must be bit-identical"

    t_vec = _best_of(lambda: all_pairs_distances(g))
    t_ref = _best_of(lambda: all_pairs_distances_reference(g))
    # the win is a large constant factor; 2x is a deliberately loose floor
    assert t_vec * 2 < t_ref, (
        f"vectorized APSP not faster at n={g.n}: {t_vec:.6f}s vs {t_ref:.6f}s"
    )


def test_service_solve_single_apsp():
    g = gen.random_graph_with_diameter_at_most(60, 2, seed=1).copy()  # cold oracle
    svc = LabelingService()
    before = apsp_run_count()
    first = svc.submit(SolveRequest(g, L21, engine="lk"))
    assert apsp_run_count() == before + 1, "miss solve must reuse the key's APSP"
    assert not first.cached

    h = relabel(g, list(reversed(range(g.n))))
    before = apsp_run_count()
    again = svc.submit(SolveRequest(h, L21, engine="lk"))
    assert again.cached and again.span == first.span
    assert apsp_run_count() == before + 1, "warm hit pays only its own key APSP"


def test_bench_apsp_vectorized(benchmark, diam2_n100):
    dist = benchmark(lambda: all_pairs_distances(diam2_n100))
    assert int(dist.max()) <= 2


def test_bench_apsp_reference(benchmark, diam2_n100):
    dist = benchmark(lambda: all_pairs_distances_reference(diam2_n100))
    assert int(dist.max()) <= 2


def test_bench_service_warm_oracle(benchmark, diam2_n100):
    """Steady-state submit where graph analysis + result cache are warm."""
    svc = LabelingService()
    svc.submit(SolveRequest(diam2_n100, L21, engine="lk"))
    result = benchmark(lambda: svc.submit(SolveRequest(diam2_n100, L21, engine="lk")))
    assert result.cached
