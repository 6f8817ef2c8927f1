"""Traversal tests, cross-checked against networkx as an independent oracle."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DisconnectedGraphError
from repro.graphs import generators as gen
from repro.graphs import traversal
from repro.graphs.graph import Graph
from repro.graphs.operations import disjoint_union
from repro.graphs.traversal import (
    UNREACHABLE,
    all_pairs_distances,
    all_pairs_distances_reference,
    bfs_distances,
    connected_components,
    diameter,
    distance_rows,
    eccentricity,
    is_connected,
    radius,
)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestBfs:
    def test_path_distances(self):
        d = bfs_distances(gen.path_graph(5), 0)
        assert d.tolist() == [0, 1, 2, 3, 4]

    def test_unreachable_marked(self):
        g = Graph(3, [(0, 1)])
        d = bfs_distances(g, 0)
        assert d[2] == UNREACHABLE

    def test_matches_networkx(self, random_connected_graphs):
        for g in random_connected_graphs:
            lengths = nx.single_source_shortest_path_length(to_nx(g), 0)
            mine = bfs_distances(g, 0)
            for v in range(g.n):
                assert mine[v] == lengths[v]


class TestApsp:
    def test_symmetric_zero_diagonal(self, small_graph_zoo):
        for g in small_graph_zoo:
            d = all_pairs_distances(g)
            assert np.array_equal(d, d.T)
            assert np.all(np.diagonal(d) == 0)

    def test_matches_networkx(self, random_connected_graphs):
        for g in random_connected_graphs:
            oracle = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
            mine = all_pairs_distances(g)
            for u in range(g.n):
                for v in range(g.n):
                    assert mine[u, v] == oracle[u][v]


def _boundary_graph(family: str, n: int, seed: int) -> Graph:
    """One graph of ``family`` on exactly ``n`` vertices."""
    if family == "path":
        return gen.path_graph(n)
    if family == "cycle":
        return gen.cycle_graph(n)
    if family == "tree":
        return gen.random_tree(n, seed=seed)
    if family == "dense_gnp":
        return gen.random_gnp(n, 0.6, seed=seed)
    if family == "split":
        return gen.random_split_graph(n // 3, n - n // 3, 0.4, seed=seed)
    half = n // 2  # disconnected: a tree beside a sparse G(n, p)
    return disjoint_union(
        gen.random_tree(half, seed=seed), gen.random_gnp(n - half, 0.05, seed)
    )


class TestDistanceRowsKernelBoundary:
    """``distance_rows`` on both sides of ``MATMUL_ROWS_LIMIT``."""

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(
            ["path", "cycle", "tree", "dense_gnp", "split", "disconnected"]
        ),
        n=st.integers(62, 130),
        seed=st.integers(0, 2**16),
        dtype=st.sampled_from([np.int16, np.int64]),
        data=st.data(),
    )
    def test_rows_match_reference(self, family, n, seed, dtype, data):
        g = _boundary_graph(family, n, seed)
        sources = np.array(
            data.draw(
                st.lists(st.integers(0, n - 1), min_size=0, max_size=n)
            ),
            dtype=np.int64,
        )
        rows = distance_rows(g.adjacency_matrix(dtype=np.bool_), sources, dtype)
        assert rows.dtype == dtype and rows.shape == (len(sources), n)
        ref = all_pairs_distances_reference(g)[sources].astype(dtype)
        assert np.array_equal(rows, ref)

    def test_large_path_apsp_never_takes_the_matmul_step(self, monkeypatch):
        g = gen.path_graph(200)
        csr_calls = []
        real_csr = traversal.distance_rows_csr

        def no_matmul(*args, **kwargs):
            raise AssertionError("matmul step taken at n = 200")

        def spy_csr(*args, **kwargs):
            csr_calls.append(args[2].size)
            return real_csr(*args, **kwargs)

        monkeypatch.setattr(traversal, "_matmul_rows", no_matmul)
        monkeypatch.setattr(traversal, "distance_rows_csr", spy_csr)
        dist = all_pairs_distances(g)
        assert csr_calls == [200]
        assert dist.dtype == np.int64
        assert np.array_equal(dist, all_pairs_distances_reference(g))


class TestComponents:
    def test_single_component(self):
        assert connected_components(gen.cycle_graph(4)) == [[0, 1, 2, 3]]

    def test_multiple_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = connected_components(g)
        assert comps == [[0, 1], [2, 3], [4]]

    def test_is_connected(self):
        assert is_connected(gen.path_graph(4))
        assert not is_connected(Graph(2))
        assert is_connected(Graph(0))
        assert is_connected(Graph(1))


class TestDiameterRadius:
    @pytest.mark.parametrize(
        "make,expected",
        [
            (lambda: gen.path_graph(5), 4),
            (lambda: gen.cycle_graph(6), 3),
            (lambda: gen.complete_graph(5), 1),
            (lambda: gen.petersen_graph(), 2),
            (lambda: gen.star_graph(4), 2),
            (lambda: gen.hypercube_graph(3), 3),
        ],
    )
    def test_known_diameters(self, make, expected):
        assert diameter(make()) == expected

    def test_trivial_sizes(self):
        assert diameter(Graph(0)) == 0
        assert diameter(Graph(1)) == 0

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            diameter(Graph(3, [(0, 1)]))
        with pytest.raises(DisconnectedGraphError):
            radius(Graph(2))
        with pytest.raises(DisconnectedGraphError):
            eccentricity(Graph(2), 0)

    def test_matches_networkx(self, random_connected_graphs):
        for g in random_connected_graphs:
            assert diameter(g) == nx.diameter(to_nx(g))
            assert radius(g) == nx.radius(to_nx(g))

    def test_eccentricity_path(self):
        g = gen.path_graph(5)
        assert eccentricity(g, 0) == 4
        assert eccentricity(g, 2) == 2
