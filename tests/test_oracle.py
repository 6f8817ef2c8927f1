"""Blocked lazy distance oracle: bit-identity, LRU residency, promotion.

The oracle's contract — row blocks materialized on demand over the CSR
adjacency, bit-identical to the per-source BFS reference, held under a byte
budget, ``int16`` until a level overflows — is exercised here with
hypothesis over random/disconnected/mutated graphs plus deterministic LRU
and dtype-boundary cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graphs.analysis as analysis_mod
import repro.graphs.traversal as traversal
from repro.graphs import generators as gen
from repro.graphs.analysis import GraphAnalysis, LazyDistanceOracle, get_analysis
from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    UNREACHABLE,
    adjacency_bitset,
    all_pairs_distances_reference,
    apsp_run_count,
    bfs_distances,
    distance_rows_csr,
)
from repro.obs import REGISTRY

SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, min_n=1, max_n=20):
    """Random graphs, connectedness NOT enforced (the oracle must not care)."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, (p for p, keep in zip(pairs, mask) if keep))


def blocked_analysis(g: Graph, mp, **knobs) -> GraphAnalysis:
    """A fresh analysis forced onto the blocked path (dense limit -> 0)."""
    mp.setattr(analysis_mod, "DENSE_MATERIALIZE_LIMIT", 0)
    a = GraphAnalysis(g)
    if knobs:
        a.configure_oracle(**knobs)
    return a


# ---------------------------------------------------------------------------
# bit-identity properties
# ---------------------------------------------------------------------------
@settings(**SETTINGS)
@given(graphs())
def test_blocked_assembly_matches_reference(g):
    with pytest.MonkeyPatch.context() as mp:
        a = blocked_analysis(g, mp, block_rows=3)
        ref = all_pairs_distances_reference(g)
        assert np.array_equal(np.asarray(a.distances), ref)


@settings(**SETTINGS)
@given(graphs(min_n=2))
def test_blocked_rows_match_reference_rowwise(g):
    with pytest.MonkeyPatch.context() as mp:
        a = blocked_analysis(g, mp, block_rows=4, budget_bytes=8 * g.n)
        ref = all_pairs_distances_reference(g)
        for v in range(g.n):
            assert np.array_equal(np.asarray(a.row(v)), ref[v]), v
        # arbitrary multi-block slices agree too
        assert np.array_equal(np.asarray(a.rows(1, g.n)), ref[1:])


@settings(**SETTINGS)
@given(graphs(min_n=2), st.data())
def test_blocked_matches_reference_after_mutation(g, data):
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis_mod, "DENSE_MATERIALIZE_LIMIT", 0)
        get_analysis(g).distances  # warm the pre-mutation snapshot
        if u != v:
            if g.has_edge(u, v):
                g.remove_edge(u, v)
            else:
                g.add_edge(u, v)
        fresh = get_analysis(g)
        fresh.configure_oracle(block_rows=3)
        assert np.array_equal(
            np.asarray(fresh.distances), all_pairs_distances_reference(g)
        )


def test_blocked_assembly_runs_no_dense_kernel():
    g = gen.path_graph(40)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis_mod, "DENSE_MATERIALIZE_LIMIT", 0)
        before = apsp_run_count()
        get_analysis(g).distances
        assert apsp_run_count() == before


# ---------------------------------------------------------------------------
# LRU residency: budget, eviction, re-materialization
# ---------------------------------------------------------------------------
def test_lru_eviction_and_rematerialization():
    g = gen.path_graph(32)
    ref = all_pairs_distances_reference(g)
    with pytest.MonkeyPatch.context() as mp:
        a = blocked_analysis(g, mp)
        block_bytes = 4 * 32 * 2  # 4 rows x n of int16
        oracle = a.configure_oracle(block_rows=4, budget_bytes=2 * block_bytes)
        for v in range(g.n):  # full sweep: 8 blocks through a 2-block budget
            assert np.array_equal(np.asarray(a.row(v)), ref[v])
            assert oracle.resident_bytes <= oracle.budget_bytes
        stats = oracle.stats()
        assert stats["evictions"] >= 6
        assert stats["resident_blocks"] == 2
        assert stats["peak_bytes"] == 2 * block_bytes
        # the evicted first block re-materializes bit-identically (a miss)
        misses = oracle.misses
        assert np.array_equal(np.asarray(a.row(0)), ref[0])
        assert oracle.misses == misses + 1


def test_single_block_larger_than_budget_is_still_served():
    g = gen.path_graph(16)
    with pytest.MonkeyPatch.context() as mp:
        a = blocked_analysis(g, mp)
        oracle = a.configure_oracle(block_rows=8, budget_bytes=1)
        row = a.row(3)
        assert int(row[0]) == 3
        assert oracle.resident_bytes == 8 * 16 * 2  # the one oversized block
        assert not row.flags.writeable


def test_lru_keeps_recently_used_block():
    g = gen.path_graph(16)
    with pytest.MonkeyPatch.context() as mp:
        a = blocked_analysis(g, mp)
        block_bytes = 4 * 16 * 2
        oracle = a.configure_oracle(block_rows=4, budget_bytes=2 * block_bytes)
        a.row(0)  # block 0
        a.row(4)  # block 1
        a.row(0)  # touch block 0: block 1 is now least recent
        a.row(8)  # block 2 evicts block 1, not block 0
        hits = oracle.hits
        a.row(1)
        assert oracle.hits == hits + 1  # block 0 still resident


def test_peak_bytes_is_a_high_water_mark():
    g = gen.path_graph(24)
    with pytest.MonkeyPatch.context() as mp:
        a = blocked_analysis(g, mp)
        oracle = a.configure_oracle(block_rows=4, budget_bytes=10**9)
        for v in range(g.n):
            a.row(v)
        assert oracle.peak_bytes == oracle.resident_bytes == 6 * 4 * 24 * 2
        assert float(REGISTRY.value("repro_oracle_peak_bytes")) >= oracle.peak_bytes


# ---------------------------------------------------------------------------
# dtype promotion on level overflow
# ---------------------------------------------------------------------------
def test_int8_block_promotes_and_matches_reference():
    g = gen.path_graph(200)  # diameter 199 > int8 max
    indptr, indices = g.csr_arrays()
    before = REGISTRY.value("repro_oracle_promotions_total")
    rows = distance_rows_csr(
        indptr, indices, np.array([0]), g.n, dtype=np.int8
    )
    assert rows.dtype == np.int16
    assert REGISTRY.value("repro_oracle_promotions_total") == before + 1
    assert rows[0].tolist() == list(range(200))


def test_int16_boundary_promotes_to_int32():
    n = 32771  # path diameter 32770 crosses the int16 max of 32767
    g = gen.path_graph(n)
    indptr, indices = g.csr_arrays()
    rows = distance_rows_csr(indptr, indices, np.array([0]), n)
    assert rows.dtype == np.int32
    assert int(rows[0, -1]) == n - 1
    assert int(rows[0, 32767]) == 32767


def test_unreachable_pairs_hold_sentinel():
    g = Graph(6, [(0, 1), (2, 3)])  # three components, one isolated pair
    with pytest.MonkeyPatch.context() as mp:
        a = blocked_analysis(g, mp, block_rows=2)
        assert int(a.row(0)[5]) == UNREACHABLE
        assert int(a.row(4)[4]) == 0


# ---------------------------------------------------------------------------
# consumer equivalence: blocked vs dense give identical labelings
# ---------------------------------------------------------------------------
def test_greedy_labeling_identical_blocked_vs_dense():
    from repro.labeling.greedy import greedy_labeling
    from repro.labeling.spec import L21

    g = gen.random_graph_with_diameter_at_most(40, 2, seed=3)
    dense = greedy_labeling(g.copy(), L21)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis_mod, "DENSE_MATERIALIZE_LIMIT", 0)
        h = g.copy()
        blocked = greedy_labeling(h, L21)
        assert get_analysis(h)._distances is None  # never went dense
    assert blocked.labels == dense.labels


def test_oracle_stats_shape_without_any_access():
    a = get_analysis(gen.path_graph(5))
    stats = a.oracle_stats()
    assert stats["hits"] == stats["misses"] == stats["evictions"] == 0
    assert stats["hit_rate"] == 0.0


# ---------------------------------------------------------------------------
# the two BFS steps: CSR gather vs adjacency-bitset OR
# ---------------------------------------------------------------------------
def _lollipop(clique: int, tail: int) -> Graph:
    """A clique with a path hanging off it: dense levels, then a long tail."""
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    edges += [(v - 1, v) for v in range(clique, clique + tail)]
    return Graph(clique + tail, edges)


def _disconnected_dense(n: int, seed: int) -> Graph:
    """Two dense random pieces plus a few isolated vertices."""
    a = n // 2
    edges = [tuple(map(int, e)) for e in gen.random_gnp(a, 0.4, seed).edges()]
    b = n - a - 3
    edges += [(a + u, a + v) for u, v in gen.random_gnp(b, 0.4, seed + 1).edges()]
    return Graph(n, edges)


STEP_KINDS = ("gnp", "split", "path", "cycle", "disconnected", "lollipop")


@st.composite
def step_graphs(draw, kind):
    """Graphs whose BFS levels reach the bit step, the CSR step, or both."""
    seed = draw(st.integers(0, 2**16))
    if kind == "gnp":  # dense: diameter 2 with overwhelming probability
        n = draw(st.integers(257, 400))
        return gen.random_gnp(n, draw(st.sampled_from([0.2, 0.3, 0.5])), seed)
    if kind == "split":
        n = draw(st.integers(257, 400))
        return gen.random_split_graph(n // 2, n - n // 2, p=0.4, seed=seed)
    if kind == "path":
        return gen.path_graph(draw(st.integers(65, 700)))
    if kind == "cycle":
        return gen.cycle_graph(draw(st.integers(65, 700)))
    if kind == "disconnected":
        return _disconnected_dense(draw(st.integers(100, 300)), seed)
    return _lollipop(draw(st.integers(40, 120)), draw(st.integers(1, 200)))


def reference_rows(g: Graph, sources: np.ndarray) -> np.ndarray:
    """The rows of :func:`all_pairs_distances_reference` for ``sources``.

    The same per-source BFS, run only for the requested rows: the full
    reference matrix costs seconds at n = 400.
    """
    return np.stack([bfs_distances(g, int(s)) for s in sources])


@pytest.mark.parametrize("kind", STEP_KINDS)
@settings(**{**SETTINGS, "max_examples": 5})
@given(data=st.data())
def test_kernel_rows_match_reference_over_both_steps(kind, data):
    g = data.draw(step_graphs(kind))
    n = g.n
    b = data.draw(st.integers(1, 24))
    sources = np.asarray(
        data.draw(st.lists(st.integers(0, n - 1), min_size=b, max_size=b))
    )
    indptr, indices = g.csr_arrays()
    steps = {"bit": 0, "csr": 0}
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in (("bit", traversal._bit_level), ("csr", traversal._csr_level)):
            def spy(*args, _name=name, _fn=fn):
                steps[_name] += 1
                return _fn(*args)
            mp.setattr(traversal, f"_{name}_level", spy)
        rows = distance_rows_csr(indptr, indices, sources, n)
    assert rows.dtype == np.int16
    assert np.array_equal(rows, reference_rows(g, sources))
    if kind in ("gnp", "split"):
        assert steps["bit"] > 0
    if kind in ("path", "cycle"):
        assert steps["bit"] == 0


def test_bit_step_with_int8_promotion_matches_reference():
    # clique sources take the bit step at level 2, the tail overflows int8
    g = _lollipop(100, 180)
    indptr, indices = g.csr_arrays()
    sources = np.arange(0, 64)
    rows = distance_rows_csr(indptr, indices, sources, g.n, dtype=np.int8)
    assert rows.dtype == np.int16
    assert np.array_equal(rows, all_pairs_distances_reference(g)[sources])


def test_dense_graph_builds_bitset_once_and_counts_it(monkeypatch):
    g = gen.random_gnp(320, 0.3, seed=5)  # n % 64 == 0, above the dense limit
    built = []
    monkeypatch.setattr(
        traversal,
        "adjacency_bitset",
        lambda *a: built.append(1) or adjacency_bitset(*a),
    )
    monkeypatch.setattr(analysis_mod, "adjacency_bitset", traversal.adjacency_bitset)
    a = get_analysis(g)
    assert np.array_equal(a.rows(0, g.n), all_pairs_distances_reference(g))
    assert built == [1]  # once per snapshot, shared by every block
    oracle = a._oracle
    bits_bytes = g.n * 5 * 8
    assert oracle.resident_bytes == 5 * 64 * g.n * 2 + bits_bytes
    assert oracle.peak_bytes == oracle.resident_bytes


def test_sparse_graph_never_builds_bitset(monkeypatch):
    def boom(*a):
        raise AssertionError("bitset built for a sparse graph")

    monkeypatch.setattr(traversal, "adjacency_bitset", boom)
    monkeypatch.setattr(analysis_mod, "adjacency_bitset", boom)
    g = gen.path_graph(700)
    a = get_analysis(g)
    assert int(a.eccentricities.max()) == 699
    assert a.oracle_stats()["peak_bytes"] == 700 * 700 * 2  # blocks only


def test_bitset_over_budget_falls_back_to_csr_step(monkeypatch):
    monkeypatch.setattr(analysis_mod, "adjacency_bitset", None)  # must not be called
    g = gen.random_gnp(300, 0.3, seed=2)
    a = get_analysis(g)
    oracle = a.configure_oracle(budget_bytes=300 * 5 * 8 - 1)
    assert np.array_equal(a.rows(0, 64), all_pairs_distances_reference(g)[:64])
    assert oracle._bits is None


def test_adjacency_bitset_round_trips_non_multiple_of_64():
    g = gen.random_gnp(131, 0.2, seed=9)
    bits = adjacency_bitset(*g.csr_arrays(), g.n)
    assert bits.shape == (131, 3) and bits.dtype == np.uint64
    unpacked = np.unpackbits(bits.view(np.uint8), axis=1, count=131, bitorder="little")
    assert np.array_equal(unpacked.astype(bool), g.adjacency_matrix(dtype=np.bool_))
