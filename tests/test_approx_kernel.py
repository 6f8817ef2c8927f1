"""The array-based approx passes against the scalar heap and jump loops.

``_simplify`` picks each elimination by one ``argmin`` over a packed
``degree * n + tiebreak`` key, and ``_select`` finds each label by one
sort-and-sweep over the forbidden windows.  Both replace per-element loops
whose outputs are part of the approx tier's contract: the elimination
stack fixes the select order, and the labels are what the cache stores and
the wire returns.  So both passes are checked stack-for-stack and
label-for-label against the scalar loops below, on the dense requirement
matrix path and on the blocked per-row path.
"""

from __future__ import annotations

import functools
import heapq

import numpy as np
import pytest

import repro.graphs.analysis as analysis_mod
from repro.approx import approx_labeling
from repro.approx.solver import _select, _simplify
from repro.graphs import generators as gen
from repro.graphs.analysis import get_analysis
from repro.graphs.cotree import random_connected_cograph
from repro.graphs.graph import Graph
from repro.labeling.labeling import requirement_matrix
from repro.labeling.spec import LpSpec


def scalar_simplify(n, degrees, row_of, tiebreak) -> list[int]:
    """Reference: the lazy ``(degree, tiebreak, vertex)`` heap."""
    deg = degrees.copy()
    remaining = np.ones(n, dtype=bool)
    heap = [(int(deg[v]), int(tiebreak[v]), v) for v in range(n)]
    heapq.heapify(heap)
    stack: list[int] = []
    while heap:
        d, _t, v = heapq.heappop(heap)
        if not remaining[v] or d != deg[v]:
            continue
        remaining[v] = False
        stack.append(v)
        rv = row_of(v)
        nbrs = np.nonzero((rv > 0) & remaining)[0]
        if nbrs.size:
            deg[nbrs] -= 1
            for u in nbrs:
                heapq.heappush(heap, (int(deg[u]), int(tiebreak[u]), int(u)))
    return stack


def scalar_select(n, stack, row_of) -> np.ndarray:
    """Reference: first fit that jumps past the first blocking window."""
    labels = np.full(n, -1, dtype=np.int64)
    for v in reversed(stack):
        rv = row_of(v)
        constraining = np.nonzero((rv > 0) & (labels >= 0))[0]
        x = 0
        while True:
            gaps = np.abs(labels[constraining] - x)
            bad = gaps < rv[constraining]
            if not bad.any():
                break
            u = constraining[bad][0]
            x = int(labels[u] + rv[u])
        labels[v] = x
    return labels


SPECS = [(1,), (3,), (1, 1), (2, 1), (5, 1), (1, 2), (2, 2, 1), (3, 2, 1), (4, 1, 1)]


def _disconnected(n: int, rng) -> Graph:
    """Two random pieces plus isolated vertices."""
    a = max(1, n // 2)
    b = max(0, n - a - 2)
    edges = [tuple(map(int, e)) for e in gen.random_gnp(a, 0.4, rng).edges()]
    edges += [(a + u, a + v) for u, v in gen.random_gnp(b, 0.4, rng).edges()]
    return Graph(n, edges)


def _graph(kind: int, n: int, rng) -> Graph:
    if kind == 0:
        return gen.random_gnp(n, float(rng.uniform(0.05, 0.9)), rng)
    if kind == 1:
        return gen.random_graph_with_diameter_at_most(n, 2, seed=rng)
    if kind == 2:
        c = max(1, n // 2)
        return gen.random_split_graph(c, n - c, p=0.6, seed=rng)
    if kind == 3:
        return random_connected_cograph(n, seed=int(rng.integers(1 << 30)))
    if kind == 4:
        return gen.path_graph(n) if rng.random() < 0.5 else gen.cycle_graph(max(n, 3))
    return _disconnected(n, rng)


@functools.cache
def corpus(count: int = 540) -> tuple:
    """Seeded ``(graph, spec, seed)`` cases over six graph kinds.

    Consumers only read the graphs (solves run on copies), so the corpus
    is built once per test run.
    """
    rng = np.random.default_rng(14)
    cases = []
    for i in range(count):
        n = int(rng.integers(1, 48))
        g = _graph(i % 6, n, rng)
        cases.append((g, LpSpec(SPECS[i % len(SPECS)]), int(rng.integers(1000))))
    return tuple(cases)


def reference_labels(g: Graph, spec: LpSpec, seed: int):
    """``(stack, labels)`` of the scalar passes over the dense matrix."""
    n = g.n
    req = requirement_matrix(spec, get_analysis(g).distances)
    degrees = (req > 0).sum(axis=1).astype(np.int64)
    tiebreak = np.random.default_rng(seed).permutation(n)
    stack = scalar_simplify(n, degrees, req.__getitem__, tiebreak)
    return stack, scalar_select(n, stack, req.__getitem__)


def test_passes_match_scalar_reference_on_seeded_corpus():
    checked = ties = 0
    for g, spec, seed in corpus():
        n = g.n
        req = requirement_matrix(spec, get_analysis(g).distances)
        degrees = (req > 0).sum(axis=1).astype(np.int64)
        tiebreak = np.random.default_rng(seed).permutation(n)
        want_stack = scalar_simplify(n, degrees, req.__getitem__, tiebreak)
        got_stack = _simplify(n, degrees, req.__getitem__, tiebreak)
        assert got_stack.tolist() == want_stack, (n, spec.p, seed)
        want = scalar_select(n, want_stack, req.__getitem__)
        got = _select(n, got_stack, req.__getitem__)
        assert got.tolist() == want.tolist(), (n, spec.p, seed)
        checked += 1
        ties += len(set(degrees.tolist())) < n
    assert checked >= 500
    assert ties > checked // 2  # the tiebreak decides most eliminations


def test_select_matches_jump_loop_on_random_windows():
    # arbitrary requirement rows and stacks, not only distance-derived ones:
    # wide windows overlapping 0, nested and disjoint windows, large gaps
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        req = rng.integers(0, 9, size=(n, n)) * (rng.random((n, n)) < 0.5)
        req = np.triu(req, 1)
        req = req + req.T
        stack = rng.permutation(n)
        want = scalar_select(n, stack.tolist(), req.__getitem__)
        assert _select(n, stack, req.__getitem__).tolist() == want.tolist()


def test_approx_labeling_equals_reference_on_dense_path():
    for k, (g, spec, seed) in enumerate(corpus()):
        if k % 3:
            continue
        _, want = reference_labels(g, spec, seed)
        assert approx_labeling(g.copy(), spec, seed=seed).labeling.labels == tuple(
            want.tolist()
        )


def test_approx_labeling_equals_reference_on_blocked_path(monkeypatch):
    cases = [c for k, c in enumerate(corpus()) if k % 4 == 0]
    wants = [tuple(reference_labels(g, spec, seed)[1].tolist()) for g, spec, seed in cases]
    monkeypatch.setattr(analysis_mod, "DENSE_MATERIALIZE_LIMIT", 0)
    for (g, spec, seed), want in zip(cases, wants):
        h = g.copy()
        got = approx_labeling(h, spec, seed=seed).labeling.labels
        if h.n:
            assert get_analysis(h)._distances is None  # rows came from blocks
        assert got == want


@pytest.mark.parametrize("n", [300, 320])
def test_large_blocked_instance_matches_reference(n):
    g = gen.random_split_graph(n // 2, n - n // 2, p=0.3, seed=n)
    spec = LpSpec((2, 1))
    _, want = reference_labels(g.copy(), spec, 0)
    h = g.copy()
    assert n > analysis_mod.DENSE_MATERIALIZE_LIMIT
    assert approx_labeling(h, spec).labeling.labels == tuple(want.tolist())
    assert get_analysis(h)._distances is None
