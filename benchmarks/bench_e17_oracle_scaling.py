"""E17 — extension: the memory-bounded lazy distance oracle at scale.

The scaling claims behind the ``oracle_scaling`` perf legs, asserted so
``make bench`` is also a correctness gate:

1. on the ``sparse`` scaling family (n = 512 here; n = 2048 rides the
   nightly ``make bench``, deselected from ``bench-quick``) and the
   ``dense`` diameter-2 family (n = 320, where the row kernel takes its
   adjacency-bitset step), the blocked oracle's assembled matrix is
   **bit-identical** to the per-source BFS reference, and a greedy
   labeling computed through row blocks equals the one computed from the
   reference matrix;
2. the oracle's resident row blocks stay within **25% of the dense int64
   footprint** (``n^2 * 8``) — the acceptance bound; full ``int16``
   residency sits exactly at it, an LRU budget strictly below.  The
   adjacency bitset (``n * ceil(n/64) * 8`` bytes) is built only where the
   bit step runs — never on the sparse family — and counts on top;
3. end-to-end labeling at these sizes never materializes a dense matrix
   and never runs the dense APSP kernel (``apsp_run_count`` unchanged).

Run quickly (no timed benchmark rounds) with ``make bench-quick``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.graphs.analysis as analysis_mod
from repro.graphs.analysis import attach_distances, get_analysis
from repro.graphs.traversal import all_pairs_distances_reference, apsp_run_count
from repro.harness.workloads import make_workload
from repro.labeling.greedy import greedy_labeling
from repro.labeling.spec import L21

#: The acceptance bound: oracle peak bytes vs the dense int64 footprint.
DENSE_FRACTION_MAX = 0.25


def _sparse_graph(n: int):
    return make_workload("sparse", n, 0).graph


@pytest.mark.parametrize(
    "family,n",
    [
        ("sparse", 512),
        pytest.param("sparse", 2048, id="large2048"),
        ("dense", 320),
    ],
)
def test_labeling_bit_identical_and_memory_bounded(family, n):
    g = make_workload(family, n, 0).graph

    blocked = g.copy()
    before = apsp_run_count()
    analysis = get_analysis(blocked)
    analysis.eccentricities  # streamed block sweep
    lab_blocked = greedy_labeling(blocked, L21)
    assert apsp_run_count() == before, "large-n path must never run dense APSP"
    assert analysis._distances is None, "no dense matrix may materialize"

    stats = analysis.oracle_stats()
    bits = analysis._oracle._bits
    if family == "sparse":
        assert bits is None, "the sparse family never takes the bit step"
    else:
        assert bits is not None and bits.nbytes == n * -(-n // 64) * 8
    bits_bytes = 0 if bits is None else bits.nbytes
    assert stats["peak_bytes"] - bits_bytes <= DENSE_FRACTION_MAX * n * n * 8, stats
    assert stats["peak_bytes"] > 0

    # reference side: the same labeling from a per-source-BFS matrix
    ref = all_pairs_distances_reference(g)
    reference = g.copy()
    attach_distances(reference, ref)
    lab_ref = greedy_labeling(reference, L21)
    assert lab_blocked.labels == lab_ref.labels

    # and the assembled blocked matrix itself is bit-identical
    assert np.array_equal(np.asarray(analysis.rows(0, n)), ref)


def test_budgeted_oracle_stays_under_budget_with_identical_rows():
    n = 512
    g = _sparse_graph(n)
    analysis = get_analysis(g)
    budget = 3 * 64 * n * 2  # three int16 blocks of the default 64 rows
    oracle = analysis.configure_oracle(budget_bytes=budget)
    ref = all_pairs_distances_reference(g)
    for v in range(0, n, 7):
        assert np.array_equal(np.asarray(analysis.row(v)), ref[v])
        assert oracle.resident_bytes <= budget
    assert oracle.stats()["evictions"] > 0
    assert oracle.stats()["peak_bytes"] <= budget


def test_dense_regime_unchanged_below_limit():
    g = make_workload("diam2", 48, 0).graph
    assert g.n <= analysis_mod.DENSE_MATERIALIZE_LIMIT
    dist = get_analysis(g).distances
    assert dist.dtype == np.int64
    assert np.array_equal(dist, all_pairs_distances_reference(g))


def test_bench_oracle_row_sweep(benchmark):
    """Timed: one full cold row-block sweep (eccentricities) at n = 512."""
    base = _sparse_graph(512)

    def sweep():
        g = base.copy()
        return get_analysis(g).eccentricities

    ecc = benchmark(sweep)
    assert int(ecc.max()) > 2  # far beyond the Theorem-2 regime


def test_bench_oracle_greedy_labeling(benchmark):
    """Timed: greedy labeling via per-vertex requirement rows at n = 512."""
    base = _sparse_graph(512)

    def label():
        return greedy_labeling(base.copy(), L21)

    lab = benchmark(label)
    assert len(lab.labels) == 512
