"""Delta-aware APSP repair: the kernels and the stateful engine.

Correctness rests on two classical facts about unweighted shortest paths:

1. *Insertion* of edge ``{u, v}`` can only shorten distances, and any
   strictly shorter path must cross the new edge, so
   ``d'(i, j) = min(d(i, j), d(i, u) + 1 + d(v, j), d(i, v) + 1 + d(u, j))``
   — one vectorized ``O(n^2)`` relaxation repairs the whole matrix.
2. *Deletion* of edge ``{u, v}`` can only lengthen distances, and a row
   ``i`` can change only if some shortest path from ``i`` used the edge,
   which forces ``|d(i, u) - d(i, v)| == 1`` (take ``j = v`` resp. ``u``
   in ``d(i, j) = d(i, u) + 1 + d(v, j)`` and apply the triangle
   inequality).  Rows outside that superset keep their old values; rows
   inside it are recomputed exactly by
   :func:`repro.graphs.traversal.distance_rows` on the mutated adjacency.

Both kernels are assert-equal to
:func:`repro.graphs.traversal.all_pairs_distances_reference` after every
delta in the property tests and ``benchmarks/bench_e13_dynamic_updates.py``.

The deletion repair degenerates when most rows are touched (small-diameter
graphs make ``|d(i,u) - d(i,v)| == 1`` common), so above
:data:`DELETE_FALLBACK_FRACTION` the engine abandons the repair and runs a
full APSP.  Every such abandonment — threshold, trimmed mutation window,
or replay desync — increments the process-wide counter behind
:func:`full_apsp_refresh_count`, the metric the perf baseline gates.

:class:`DeltaEngine` is the one repair path: the stateless
:func:`refresh_analysis` builds a throwaway engine over the prior matrix
and the graph's adjacency rewound to the prior's version, and lets it
refresh.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.analysis import (
    GraphAnalysis,
    attach_distances,
    ensure_current,
    get_analysis,
)
from repro.graphs.graph import Graph, Mutation
from repro.graphs.traversal import UNREACHABLE, distance_rows
from repro.obs.metrics import REGISTRY

#: Fraction of rows above which an edge-delete repair falls back to a full
#: APSP.  Touched rows cost one multi-source BFS level-sweep each, so a
#: repair touching nearly every row does the work of a full recompute plus
#: bookkeeping; below the threshold the partial sweep (which also skips
#: the adjacency-matrix rebuild the full kernel pays) wins.  Read at call
#: time, so tests can monkeypatch it.
DELETE_FALLBACK_FRACTION = 0.75

#: Registry counter of incremental repairs abandoned for a full APSP.
_FULL_REFRESHES = REGISTRY.counter("repro_full_apsp_refresh_total")
_FULL_REFRESHES.labels()  # materialize: the exposition shows 0, not nothing


def full_apsp_refresh_count() -> int:
    """How many times delta repair fell back to a full APSP in this process.

    The ``DYNAMIC`` perf leg records this per churn stream and the
    committed baseline gates it: the count may never rise.  Delegates to
    the ``repro_full_apsp_refresh_total`` registry counter, so the legacy
    call sites and the metrics exposition share one value.
    """
    return int(_FULL_REFRESHES.value)


def _count_full_refresh() -> None:
    """Bump the process-wide abandoned-repair counter."""
    _FULL_REFRESHES.inc()


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------
def relax_insert(dist: np.ndarray, u: int, v: int) -> None:
    """Repair ``dist`` in place for the insertion of edge ``{u, v}``.

    Vectorized affected-pairs relaxation: with ``W`` the matrix under a
    finite infinity, the candidate through the new edge is
    ``W[:, u, None] + 1 + W[None, v, :]`` and its transpose covers the
    opposite orientation.  Exact for unweighted graphs, including inserts
    that merge two components.  Works in the matrix's own dtype (the
    blocked oracle hands out ``int16``), widening only the scratch array
    when ``2n + 1`` — the largest candidate sum — would overflow it.
    """
    n = dist.shape[0]
    inf = n  # any finite distance is <= n - 1
    work = dist.dtype
    if np.iinfo(work).max < 2 * n + 1:
        work = np.int32 if 2 * n + 1 <= np.iinfo(np.int32).max else np.int64
    w = dist.astype(work, copy=True)
    w[dist == UNREACHABLE] = inf
    du = w[:, u]
    dv = w[:, v]
    cand = du[:, None] + (dv[None, :] + 1)
    np.minimum(cand, cand.T, out=cand)  # d(i,v) + 1 + d(u,j) == cand.T[i,j]
    np.minimum(w, cand, out=w)
    # repaired values only shrink, so they fit back into the original dtype
    dist[...] = np.where(w >= inf, UNREACHABLE, w)


def affected_sources(dist: np.ndarray, u: int, v: int) -> np.ndarray:
    """Rows whose distances may change when edge ``{u, v}`` is deleted.

    Evaluated on the **pre-delete** matrix.  A shortest path from ``i``
    can use the edge only if ``|d(i, u) - d(i, v)| == 1`` (both finite);
    every other row is provably unchanged.
    """
    du = dist[:, u]
    dv = dist[:, v]
    reach = (du != UNREACHABLE) & (dv != UNREACHABLE)
    return np.nonzero(reach & (np.abs(du - dv) == 1))[0]


def _pad_vertex(dist: np.ndarray) -> np.ndarray:
    """Grow the matrix for one appended isolated vertex (dtype preserved)."""
    n = dist.shape[0]
    out = np.full((n + 1, n + 1), UNREACHABLE, dtype=dist.dtype)
    out[:n, :n] = dist
    out[n, n] = 0
    return out


# ---------------------------------------------------------------------------
# the stateful engine
# ---------------------------------------------------------------------------
class DeltaEngine:
    """Maintains ``(distances, adjacency)`` across a mutation stream.

    Built from a graph whose oracle is (or becomes) warm, then advanced by
    :meth:`refresh` to any same-lineage graph — the same instance mutated
    in place, or a ``copy()``-descendant whose version continuity the
    copied mutation log witnesses.  Keeping the boolean adjacency inside
    the engine makes edge updates ``O(1)`` and spares delete repairs the
    per-call adjacency rebuild that dominates the full kernel at small
    ``n``.

    >>> from repro.graphs.generators import cycle_graph
    >>> g = cycle_graph(5)
    >>> engine = DeltaEngine(g)
    >>> g.add_edge(0, 2)
    >>> int(engine.refresh(g)[0, 2])
    1
    """

    def __init__(
        self, graph: Graph, analysis: GraphAnalysis | None = None
    ) -> None:
        """Seed the engine from ``graph``'s (or the given) current analysis."""
        a = ensure_current(graph, analysis)
        self.dist = np.array(a.distances, copy=True)
        self.adj = graph.adjacency_matrix(dtype=np.bool_)
        self.m = graph.m
        self.version = graph.version
        self._lineage_mark = _record_suffix_at(graph, graph.version)

    @classmethod
    def _from_state(
        cls, dist: np.ndarray, adj: np.ndarray, version: int,
        lineage_mark: tuple[Mutation, ...],
    ) -> "DeltaEngine":
        """Internal: an engine over explicit state (stateless refresh path)."""
        engine = cls.__new__(cls)
        engine.dist = dist
        engine.adj = adj
        engine.m = int(adj.sum()) // 2
        engine.version = version
        engine._lineage_mark = lineage_mark
        return engine

    @property
    def n(self) -> int:
        """Vertex count of the maintained distance matrix."""
        return self.dist.shape[0]

    # ------------------------------------------------------------------
    def refresh(self, graph: Graph) -> np.ndarray:
        """Advance to ``graph``'s current version; return the live matrix.

        Replays ``graph.mutations_since(self.version)`` through the delta
        kernels; any gap the log no longer covers, replay inconsistency,
        or over-threshold delete resyncs from a full APSP (counted by
        :func:`full_apsp_refresh_count`).  The returned array is **engine
        owned** and mutated by later refreshes — use :meth:`attach` (which
        copies) to install it as a graph's memoized oracle.
        """
        lineage_ok = (
            graph.n >= self.n and self._lineage_witnessed(graph)
        )
        if graph.version == self.version and graph.n == self.n and lineage_ok:
            return self.dist
        muts = graph.mutations_since(self.version)
        if muts is None or not lineage_ok or not self._replay(graph, muts):
            self._full_resync(graph)
        return self.dist

    def _lineage_witnessed(self, graph: Graph) -> bool:
        """Does ``graph``'s log agree with the engine's lineage mark?

        Version equality alone cannot distinguish two *divergent sibling
        copies* (the same ancestor mutated two different ways reaches the
        same version, ``n`` and ``m``), but their logs differ at the
        engine's version: a genuine descendant carries the exact records
        the engine last saw.  Comparing the newest
        :data:`_LINEAGE_SUFFIX` records at/below the engine's version is a
        **best-effort witness**, not proof — the refresh contract still
        requires same-lineage graphs; an unrelated graph whose retained
        log coincides on that whole suffix is not detected.
        """
        return _marks_agree(
            _record_suffix_at(graph, self.version), self._lineage_mark
        )

    def attach(self, graph: Graph) -> GraphAnalysis:
        """Install a copy of the maintained matrix as ``graph``'s oracle."""
        if graph.version != self.version or graph.n != self.n:
            raise ValueError(
                "DeltaEngine is not synced to this graph; call refresh first"
            )
        return attach_distances(graph, np.array(self.dist, copy=True))

    # ------------------------------------------------------------------
    def _replay(self, graph: Graph, muts: tuple[Mutation, ...]) -> bool:
        """Apply the mutation run; False means "resync from scratch".

        Per-op consistency against the engine's own adjacency (inserting
        an edge it already has, removing one it lacks, a non-appending
        vertex add) plus the final ``n``/``m`` cross-check catch most
        desyncs; the caller's :meth:`_lineage_witnessed` check covers the
        divergent-sibling case these cannot see.  None of this *proves*
        lineage — see the witness docstring.
        """
        for m in muts:
            if m.op == "add_edge":
                if not self._valid_pair(m.u, m.v) or self.adj[m.u, m.v]:
                    return False
                self.adj[m.u, m.v] = self.adj[m.v, m.u] = True
                self.m += 1
                relax_insert(self.dist, m.u, m.v)
            elif m.op == "remove_edge":
                if not self._valid_pair(m.u, m.v) or not self.adj[m.u, m.v]:
                    return False
                touched = affected_sources(self.dist, m.u, m.v)
                self.adj[m.u, m.v] = self.adj[m.v, m.u] = False
                self.m -= 1
                if len(touched) > DELETE_FALLBACK_FRACTION * self.n:
                    return False  # repair would cost ~a full APSP anyway
                rows = distance_rows(self.adj, touched, dtype=self.dist.dtype)
                if rows.dtype != self.dist.dtype:
                    self.dist = self.dist.astype(rows.dtype)
                self.dist[touched, :] = rows
                self.dist[:, touched] = rows.T
            elif m.op == "add_vertex":
                if m.u != self.n:
                    return False
                self.dist = _pad_vertex(self.dist)
                self.adj = np.pad(self.adj, ((0, 1), (0, 1)))
            else:
                return False
            self.version = m.version
            self._lineage_mark = (*self._lineage_mark[1 - _LINEAGE_SUFFIX:], m)
        return (
            self.version == graph.version
            and self.n == graph.n
            and self.m == graph.m
        )

    def _valid_pair(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` is a distinct in-range vertex pair."""
        return 0 <= u < self.n and 0 <= v < self.n and u != v

    def _full_resync(self, graph: Graph) -> None:
        """Abandon incremental repair: rebuild state from the graph (counted)."""
        _count_full_refresh()
        self.dist = np.array(get_analysis(graph).distances, copy=True)
        self.adj = graph.adjacency_matrix(dtype=np.bool_)
        self.m = graph.m
        self.version = graph.version
        self._lineage_mark = _record_suffix_at(graph, graph.version)


#: How many trailing mutation records the lineage witness compares.  One
#: record already separates divergent sibling copies (their last mutations
#: differ by construction); a longer suffix makes a *coincidental* match
#: with an unrelated graph's log practically impossible while staying O(1)
#: per refresh.
_LINEAGE_SUFFIX = 4


def _record_suffix_at(graph: Graph, version: int) -> tuple[Mutation, ...]:
    """The newest (up to ``_LINEAGE_SUFFIX``) records with version <= ``version``.

    Empty when no such record is retained — either the graph was never
    mutated (version 0) or the window has been trimmed past ``version``.
    """
    out: list[Mutation] = []
    for m in reversed(graph._mutation_log):
        if m.version <= version:
            out.append(m)
            if len(out) == _LINEAGE_SUFFIX:
                break
    return tuple(reversed(out))


def _marks_agree(a: tuple[Mutation, ...], b: tuple[Mutation, ...]) -> bool:
    """Do two lineage marks agree on their overlapping suffix?

    The sides may retain different depths (a capped log trims oldest
    records first), so only the common tail is compared.  One empty side
    against a non-empty one cannot witness anything and is rejected; both
    empty (never-mutated graphs, necessarily edgeless) is accepted.
    """
    if not a or not b:
        return a == b
    k = min(len(a), len(b))
    return a[-k:] == b[-k:]


# ---------------------------------------------------------------------------
# stateless entry points (behind GraphAnalysis.refresh / .apply_delta)
# ---------------------------------------------------------------------------
def refresh_analysis(
    graph: Graph, prior: GraphAnalysis | None = None
) -> GraphAnalysis:
    """A current, distance-warm oracle for ``graph`` by delta repair.

    ``prior`` is the analysis to repair from (default: the graph's own
    memoized one).  A prior without a computed matrix is a cold start —
    there is nothing to repair, so the ordinary oracle is returned and
    **not** counted as a fallback.  Otherwise a throwaway
    :class:`DeltaEngine` over the prior's matrix, ``graph``'s adjacency
    rewound to the prior's version and the prior graph's lineage mark
    refreshes to ``graph``: a prior bound to a different instance is
    accepted when the lineage witness holds (the session's
    copy-then-mutate trials), and a gap the log no longer covers, a failed
    witness or a replay inconsistency resyncs through a counted full
    recompute.

    The repaired matrix is installed as ``graph``'s memoized oracle, so
    every downstream layer (applicability, reduction, canonical keys,
    verification) reuses it for free.
    """
    if prior is None:
        prior = graph._analysis
    if prior is not None and prior.graph is graph and prior.is_current():
        return prior
    if prior is None or prior._distances is None:
        return get_analysis(graph)
    engine = DeltaEngine._from_state(
        np.array(prior._distances, copy=True),
        _rewind_adjacency(graph, graph.mutations_since(prior.version) or ()),
        prior.version,
        _record_suffix_at(prior.graph, prior.version),
    )
    return attach_distances(graph, engine.refresh(graph))


def apply_delta(prior: GraphAnalysis, mutation: Mutation) -> GraphAnalysis:
    """Advance ``prior`` by exactly one mutation of its own graph.

    The single-step flavour of :func:`refresh_analysis`: ``mutation`` must
    be the one change separating ``prior`` from its graph's current
    version (the record ``graph.add_edge``/... just appended to the
    mutation log).
    """
    graph = prior.graph
    muts = graph.mutations_since(prior.version)
    if muts != (mutation,):
        raise ValueError(
            "apply_delta: mutation is not the single change separating this "
            "analysis from its graph's current version"
        )
    return refresh_analysis(graph, prior)


def _rewind_adjacency(
    graph: Graph, muts: tuple[Mutation, ...]
) -> np.ndarray:
    """Adjacency as of the version *before* ``muts``, by reverse-applying.

    ``muts`` is a run of ``graph``'s own log, which every mutator appends
    in step with the change it makes (and ``copy()`` carries along with
    the adjacency), so undoing it record by record cannot contradict the
    graph; the engine's forward replay re-checks every record anyway.
    """
    adj = graph.adjacency_matrix(dtype=np.bool_)
    for m in reversed(muts):
        if m.op == "add_vertex":
            adj = adj[:-1, :-1]
        else:
            adj[m.u, m.v] = adj[m.v, m.u] = m.op == "remove_edge"
    return np.ascontiguousarray(adj)
