"""Incremental dynamic-graph engine: delta-aware distance-matrix repair.

Mutate-and-resolve workloads (the paper's living radio networks) used to
pay a **full APSP per mutation**: every edge flip bumps ``Graph.version``
and cold-starts the :class:`~repro.graphs.analysis.GraphAnalysis` oracle.
This package repairs the memoized distance matrix in place instead, keyed
to the per-mutation :attr:`repro.graphs.graph.Graph.mutation_log`:

- **edge insert** — vectorized affected-pairs relaxation (one ``O(n^2)``
  NumPy pass; distances only decrease, and any new shortest path crosses
  the new edge);
- **edge delete** — recompute only the rows whose shortest paths could
  have used the removed edge (``|d(i,u) - d(i,v)| == 1``) with
  :func:`repro.graphs.traversal.distance_rows`, the same kernel entry
  point the full APSP uses; falls back to a full APSP when the touched
  fraction exceeds :data:`DELETE_FALLBACK_FRACTION`;
- **vertex add** — pad the matrix with an unreachable row/column.

Every fallback to a full recompute is counted by
:func:`full_apsp_refresh_count`, which the perf baseline gates (the
``DYNAMIC`` workload leg's ``full_apsp_refresh_count`` may never rise).
There is one repair path, the stateful :class:`DeltaEngine` (sessions,
churn loops); the stateless :func:`refresh_analysis` / :func:`apply_delta`
behind ``GraphAnalysis.refresh()`` / ``GraphAnalysis.apply_delta()`` run a
throwaway engine seeded from the prior analysis.
"""

from repro.dynamic.engine import (
    DELETE_FALLBACK_FRACTION,
    DeltaEngine,
    affected_sources,
    apply_delta,
    full_apsp_refresh_count,
    refresh_analysis,
    relax_insert,
)

__all__ = [
    "DELETE_FALLBACK_FRACTION",
    "DeltaEngine",
    "affected_sources",
    "apply_delta",
    "full_apsp_refresh_count",
    "refresh_analysis",
    "relax_insert",
]
