"""Breadth-first traversal, distances, connectivity, diameter.

The all-pairs routine is the substrate for the Theorem-2 reduction.  One
entry point computes distance rows from a dense boolean adjacency,
:func:`distance_rows`, and it runs one of two kernels.  Up to
:data:`MATMUL_ROWS_LIMIT` vertices, all BFS trees advance one level per
iteration through a boolean frontier-matrix x adjacency-matrix product;
each level costs ``k * n^2``, which only pays while ``n`` is small.  Above
it, rows come from :func:`distance_rows_csr`, whose levels cost the edges
the frontier actually touches (or the frontier's packed adjacency bitsets),
so long paths and trees never pay ``diam * k * n^2``.
:func:`all_pairs_distances` is the counted all-sources call of that entry
point.  The per-source Python BFS is kept as
:func:`all_pairs_distances_reference`, the correctness oracle for the
property tests and the benchmark baseline.

Whole-graph queries (``diameter``/``radius``/``eccentricities``) route
through the memoized :mod:`repro.graphs.analysis` oracle so the distance
matrix is computed at most once per graph version.
"""

from __future__ import annotations

import functools
from collections import deque

import numpy as np

from repro.graphs.graph import Graph
from repro.obs.metrics import REGISTRY

#: Sentinel distance for unreachable vertex pairs.
UNREACHABLE: int = -1

#: Registry counter of full APSP kernel runs in this process.  The analysis
#: oracle's contract — "at most one APSP per graph version" — is asserted in
#: tests by snapshotting this counter around end-to-end solves; the perf
#: baseline gates it per scenario.
_APSP_RUNS = REGISTRY.counter("repro_apsp_runs_total")
_APSP_RUNS.labels()  # materialize: the exposition shows 0, not nothing


def apsp_run_count() -> int:
    """How many times the APSP kernel has run in this process.

    Delegates to the ``repro_apsp_runs_total`` registry counter — the
    legacy call sites and the metrics exposition can never disagree.
    """
    return int(_APSP_RUNS.value)


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Distances from ``source`` to every vertex (``UNREACHABLE`` if none).

    Runs in ``O(n + m)`` time.

    >>> from repro.graphs.generators import path_graph
    >>> bfs_distances(path_graph(4), 0).tolist()
    [0, 1, 2, 3]
    """
    graph._check_vertex(source)
    dist = np.full(graph.n, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    queue: deque[int] = deque([source])
    adj = graph._adj  # intentional: hot loop, avoid frozenset copies
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                queue.append(v)
    return dist


#: Largest vertex count for which :func:`distance_rows` runs the dense
#: boolean-matmul expansion; larger graphs go to :func:`distance_rows_csr`.
#: A matmul level costs ``k * n^2`` whatever the frontier holds, so the
#: dense step only wins on small graphs; measured on 2 vCPUs, the CSR/bit
#: kernel won every full-APSP case above 64 vertices (diameter-2, random
#: tree, path; see docs/scaling.md).
MATMUL_ROWS_LIMIT = 64


def distance_rows(
    adj: np.ndarray, sources: np.ndarray, dtype=np.int64
) -> np.ndarray:
    """Exact BFS distance rows for ``sources`` over boolean adjacency ``adj``.

    Up to :data:`MATMUL_ROWS_LIMIT` vertices, level ``d+1`` of every BFS
    tree is one boolean matmul: rows of ``frontier`` are the per-source
    level-``d`` sets, so ``frontier @ adj`` marks every vertex adjacent to
    the current frontier, and masking out already-reached vertices leaves
    exactly level ``d+1``.  Larger graphs go to :func:`distance_rows_csr`
    after one ``np.nonzero`` pass over ``adj``, where the frontier work is
    proportional to the edges actually traversed.  Rows come back in
    ``dtype``; on the CSR path a level that would overflow it promotes to
    the next wider integer type.  Unreachable pairs hold ``UNREACHABLE``.
    Does not count toward :func:`apsp_run_count`.
    """
    n = adj.shape[0]
    sources = np.asarray(sources, dtype=np.int64)
    if n > MATMUL_ROWS_LIMIT:
        # np.nonzero walks row-major, so tails arrive grouped by head —
        # already a valid CSR indices array under the bincount indptr
        heads, tails = np.nonzero(adj)
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(heads, minlength=n)))
        ).astype(np.int64)
        return distance_rows_csr(
            indptr, tails.astype(np.int64), sources, n, dtype=dtype
        )
    return _matmul_rows(adj, sources, dtype)


def _matmul_rows(adj: np.ndarray, sources: np.ndarray, dtype) -> np.ndarray:
    """The dense step of :func:`distance_rows`: one boolean matmul per level."""
    n = adj.shape[0]
    k = sources.shape[0]
    dist = np.full((k, n), UNREACHABLE, dtype=dtype)
    if k == 0 or n == 0:
        return dist
    dist[np.arange(k), sources] = 0
    reached = np.zeros((k, n), dtype=bool)
    reached[np.arange(k), sources] = True
    frontier = reached.copy()
    level = 0
    while True:
        frontier = (frontier @ adj) & ~reached
        if not frontier.any():
            break
        level += 1
        dist[frontier] = level
        reached |= frontier
    return dist


def all_pairs_distances(graph: Graph) -> np.ndarray:
    """The full ``n x n`` ``int64`` distance matrix (one counted kernel run).

    :func:`distance_rows` over every source.  Prefer
    :func:`repro.graphs.analysis.get_analysis` over calling this directly —
    the oracle memoizes the result per graph version.
    """
    _APSP_RUNS.inc()
    return distance_rows(
        graph.adjacency_matrix(dtype=np.bool_), np.arange(graph.n)
    )


#: Promotion chain for the blocked kernel's level counter: when a BFS level
#: would overflow the block dtype, the block widens one step and continues.
_WIDER = {
    np.dtype(np.int8): np.int16,
    np.dtype(np.int16): np.int32,
    np.dtype(np.int32): np.int64,
}

_ORACLE_PROMOTIONS = REGISTRY.counter("repro_oracle_promotions_total")
_ORACLE_PROMOTIONS.labels()  # materialize: the exposition shows 0, not nothing


def adjacency_bitset(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """The adjacency as packed ``uint64`` bitsets, one row of words per vertex.

    Row ``v`` holds ``ceil(n / 64)`` words; bit ``w`` of the row (in the
    little-endian bit order :func:`numpy.packbits` and
    :func:`numpy.unpackbits` share) is set iff ``w`` is a neighbour of
    ``v``.  Costs ``n * ceil(n / 64) * 8`` bytes and ``O(n + m)`` time.
    """
    words = -(-n // 64)
    bits = np.zeros((n, words), dtype=np.uint64)
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    np.bitwise_or.at(
        bits,
        (owner, indices >> 6),
        np.left_shift(np.uint64(1), (indices & 63).astype(np.uint64)),
    )
    return bits


def _csr_level(indptr, indices, dist, rows, cols, counts, n):
    """Next BFS level by gathering every frontier vertex's CSR slice.

    Costs ``O(sum(deg(frontier)))``: the gather, a filter against ``dist``
    and one sort that dedupes vertices reached from several frontier
    vertices of the same row.
    """
    # multi-range gather: one cumsum builds the concatenation of every
    # frontier vertex's CSR slice without a python loop
    starts = indptr[cols]
    cum = np.cumsum(counts)
    deltas = np.ones(cum[-1], dtype=np.int64)
    deltas[cum[:-1]] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    deltas[0] = starts[0]
    nbr = indices[np.cumsum(deltas)]
    nbr_rows = np.repeat(rows, counts)
    # drop already-visited candidates first (the bulk of the gather
    # once the BFS waves collide), then dedupe the survivors (several
    # frontier vertices can share a neighbour) with one sort — far
    # cheaper than hashing the full gather via np.unique
    fresh = dist[nbr_rows, nbr] == UNREACHABLE
    flat = nbr_rows[fresh] * n + nbr[fresh]
    if flat.size:
        flat.sort()
        keep = np.empty(flat.size, dtype=bool)
        keep[0] = True
        np.not_equal(flat[1:], flat[:-1], out=keep[1:])
        flat = flat[keep]
    return flat // n, flat % n


def _bit_level(bits, dist, rows, cols, n):
    """Next BFS level as the OR of the frontier's adjacency bitsets.

    ``rows`` must be sorted.  Each source row's frontier words are OR-ed
    in one ``reduceat``, masked by the row's unreached bits, and unpacked
    back to ``(row, vertex)`` pairs — ``O(|frontier| * ceil(n/64))`` word
    operations plus two ``O(rows * n)`` pack/unpack passes, independent of
    the frontier's degrees.
    """
    heads = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    live_rows = rows[heads]
    nxt = np.bitwise_or.reduceat(bits[cols], heads, axis=0)
    words = bits.shape[1]
    unreached = np.zeros((live_rows.size, words * 64), dtype=bool)
    unreached[:, :n] = dist[live_rows] == UNREACHABLE
    nxt &= np.packbits(unreached, axis=1, bitorder="little").view(np.uint64)
    fresh = np.unpackbits(
        nxt.view(np.uint8), axis=1, count=n, bitorder="little"
    )
    r, c = np.nonzero(fresh)
    return live_rows[r], c


def distance_rows_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    n: int,
    dtype=np.int16,
    bitset=None,
) -> np.ndarray:
    """BFS distance rows for ``sources`` over a CSR adjacency.

    The row-block substrate of the lazy distance oracle: all ``len(sources)``
    BFS trees advance one level per iteration, with the frontier kept as a
    sparse ``(row, vertex)`` pair list instead of the dense boolean matrix
    of the matmul step — memory is ``O(block_rows * n)``, not
    ``O(n^2)``.  Rows come back in ``dtype`` (default ``int16``); if a level
    would overflow it, the block promotes to the next wider integer type and
    ``repro_oracle_promotions_total`` is incremented.  Unreachable pairs
    hold :data:`UNREACHABLE`.  Does not count toward
    :func:`apsp_run_count` — the gate for *full* materializations.

    Each level advances by one of two steps, picked from counts the loop
    already holds (the top-down/bottom-up switch of direction-optimizing
    BFS, Beamer et al., SC 2012): the CSR gather costs ``sum(deg(frontier))``
    element operations, the bit step ``|frontier| * ceil(n/64) + 2 * b * n``
    (:func:`_bit_level`).  The bit step needs the packed adjacency of
    :func:`adjacency_bitset`; ``bitset`` is a zero-argument callable that
    returns it, or ``None`` when it may not be built, in which case the
    CSR step runs.  By default the bitset is built on the first level that
    picks the bit step.  Both steps produce the same rows.
    """
    sources = np.asarray(sources, dtype=np.int64)
    b = sources.shape[0]
    dist = np.full((b, n), UNREACHABLE, dtype=np.dtype(dtype))
    if b == 0 or n == 0:
        return dist
    if bitset is None:
        bitset = functools.cache(lambda: adjacency_bitset(indptr, indices, n))
    dist[np.arange(b), sources] = 0
    rows = np.arange(b, dtype=np.int64)
    cols = sources.copy()
    bit_fixed_cost = 2 * b * n
    words = -(-n // 64)
    level = 0
    while rows.size:
        level += 1
        if level > np.iinfo(dist.dtype).max:
            dist = dist.astype(_WIDER[dist.dtype])
            _ORACLE_PROMOTIONS.inc()
        counts = indptr[cols + 1] - indptr[cols]
        live = counts > 0
        rows, cols, counts = rows[live], cols[live], counts[live]
        if rows.size == 0:
            break
        bit_cheaper = int(counts.sum()) > rows.size * words + bit_fixed_cost
        bits = bitset() if bit_cheaper else None
        if bits is None:
            rows, cols = _csr_level(indptr, indices, dist, rows, cols, counts, n)
        else:
            rows, cols = _bit_level(bits, dist, rows, cols, n)
        dist[rows, cols] = level
    return dist


def all_pairs_distances_reference(graph: Graph) -> np.ndarray:
    """One Python BFS per source (``O(nm)``) — the pre-vectorization kernel.

    Kept as the independent correctness oracle for the vectorized routine
    (property tests assert bit-identical matrices) and as the benchmark
    baseline.  Does not count toward :func:`apsp_run_count`.
    """
    n = graph.n
    dist = np.empty((n, n), dtype=np.int64)
    for s in range(n):
        dist[s] = bfs_distances(graph, s)
    return dist


def connected_components(graph: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, in id order."""
    seen = np.zeros(graph.n, dtype=bool)
    components: list[list[int]] = []
    for s in range(graph.n):
        if seen[s]:
            continue
        dist = bfs_distances(graph, s)
        members = np.nonzero(dist != UNREACHABLE)[0]
        seen[members] = True
        components.append(members.tolist())
    return components


def is_connected(graph: Graph) -> bool:
    """True iff the graph has one component (empty graph counts as connected)."""
    if graph.n == 0:
        return True
    return bool(np.all(bfs_distances(graph, 0) != UNREACHABLE))


def eccentricity(graph: Graph, v: int) -> int:
    """Largest distance from ``v``; raises on disconnected graphs."""
    graph._check_vertex(v)
    from repro.graphs.analysis import get_analysis

    return int(get_analysis(graph).eccentricities[v])


def eccentricities(graph: Graph) -> np.ndarray:
    """Eccentricity of every vertex as one vector (oracle-backed).

    Raises :class:`DisconnectedGraphError` on disconnected input — detected
    by a single-BFS pre-check, before any APSP is spent.
    """
    from repro.graphs.analysis import get_analysis

    return get_analysis(graph).eccentricities


def diameter(graph: Graph) -> int:
    """``max_{u,v} dist(u, v)``; 0 for graphs with at most one vertex.

    Raises :class:`DisconnectedGraphError` on disconnected input, matching
    the paper's standing assumption that ``G`` is connected.  Served from
    the per-graph analysis oracle, so repeated structural queries on the
    same graph version share one distance matrix.
    """
    from repro.graphs.analysis import get_analysis

    return get_analysis(graph).diameter


def radius(graph: Graph) -> int:
    """``min_v ecc(v)``; 0 for graphs with at most one vertex."""
    from repro.graphs.analysis import get_analysis

    return get_analysis(graph).radius
