"""Stack-based simplify/select approximate labeling with a certified gap.

The degraded-mode tier of the serving stack: when the QoS router decides a
request cannot afford an exact (or heuristic-pipeline) solve, this module
answers in one pass — no branch-and-bound, no engine ladder — and certifies
how far the answer can be from optimal.

The algorithm is the register-allocation classic adapted to distance
constraints:

1. **Simplify** — repeatedly remove the vertex with the fewest remaining
   *requirement neighbours* (vertices within the spec's distance horizon,
   i.e. a positive entry in its requirement row from the lazy distance
   oracle) and push it on a stack.  Degrees update as vertices leave, so
   the stack bottom holds the loosely-constrained periphery and the top
   the tightly-constrained core.  Each step is one ``argmin`` over a
   packed ``degree * n + tiebreak`` key.
2. **Select** — pop the stack (most-constrained vertices first) and give
   each vertex the smallest label compatible with the already-labeled
   ones — the label :func:`repro.labeling.greedy.greedy_labeling`'s
   jump-past-the-blocking-window first fit finds, here by one
   sort-and-sweep over the forbidden windows.

Feasibility is by construction: select never places a label inside a
forbidden window.  The **certified gap** comes from the existing
:func:`repro.labeling.bounds.lower_bound` machinery: ``lower_bound <=
optimum <= span``, so ``gap = span - lower_bound`` bounds the true
optimality loss and ``ratio = span / lower_bound`` is a per-instance
approximation certificate — no exact solve needed to trust it.

Large graphs never materialize an O(n^2) requirement matrix: both passes
fetch one requirement row per vertex through the graph's blocked oracle
(:meth:`~repro.graphs.analysis.GraphAnalysis.row`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graphs.analysis import GraphAnalysis, get_analysis
from repro.graphs.graph import Graph
from repro.labeling.bounds import lower_bound
from repro.labeling.labeling import Labeling, requirement_matrix
from repro.labeling.spec import LpSpec
from repro.obs.metrics import REGISTRY

#: The engine name the approx tier reports in responses and cache entries.
APPROX_ENGINE = "approx"

_M_SOLVES = REGISTRY.counter("repro_approx_solves_total")
_M_SOLVES.labels()  # materialize: the exposition shows 0, not nothing
_M_GAP = REGISTRY.gauge("repro_approx_gap")
_M_GAP.labels()
_M_RATIO = REGISTRY.gauge("repro_approx_ratio")
_M_RATIO.labels()


@dataclass(frozen=True)
class ApproxResult:
    """One approximate solve plus its optimality certificate.

    ``lower_bound <= optimum <= span`` always holds, so ``gap`` and
    ``ratio`` are sound without ever running an exact engine.
    """

    labeling: Labeling
    span: int
    lower_bound: int
    #: ``span - lower_bound`` — certified upper bound on the loss.
    gap: int
    #: ``span / max(lower_bound, 1)`` (1.0 for unconstrained instances).
    ratio: float
    #: Solve wall time, for the serving layer's accounting.
    seconds: float


def approx_labeling(
    graph: Graph,
    spec: LpSpec,
    analysis: GraphAnalysis | None = None,
    seed: int = 0,
) -> ApproxResult:
    """Simplify/select labeling with a certified optimality gap.

    Deterministic for a fixed ``seed``: elimination ties are broken by a
    seeded permutation, everything else is order-stable, so two calls with
    the same arguments return bit-identical labelings.

    >>> from repro.graphs.generators import cycle_graph
    >>> from repro.labeling.spec import L21
    >>> r = approx_labeling(cycle_graph(6), L21)
    >>> r.labeling.is_feasible(cycle_graph(6), L21)
    True
    >>> r.gap == r.span - r.lower_bound
    True
    """
    t0 = time.perf_counter()
    n = graph.n
    if n == 0:
        return _record(Labeling(()), 0, time.perf_counter() - t0)
    analysis = analysis if analysis is not None else get_analysis(graph)
    # Small graphs gather the requirement matrix once; large ones fetch one
    # requirement row per vertex per pass through the blocked oracle, so the
    # approx tier inherits the oracle's memory bound.
    req = (
        requirement_matrix(spec, analysis.distances)
        if analysis.dense_preferred
        else None
    )

    def row_of(v: int) -> np.ndarray:
        return (
            req[v]
            if req is not None
            else requirement_matrix(spec, analysis.row(v))
        )

    if req is not None:
        degrees = (req > 0).sum(axis=1).astype(np.int64)
    else:
        degrees = np.zeros(n, dtype=np.int64)
        for lo, hi, blk in analysis.iter_row_blocks():
            degrees[lo:hi] = (requirement_matrix(spec, blk) > 0).sum(axis=1)

    tiebreak = np.random.default_rng(seed).permutation(n)
    stack = _simplify(n, degrees, row_of, tiebreak)
    labels = _select(n, stack, row_of)

    lb = lower_bound(
        graph, spec, dist=analysis.distances if req is not None else None
    )
    labeling = Labeling(tuple(int(x) for x in labels))
    return _record(labeling, lb, time.perf_counter() - t0)


def _simplify(n, degrees, row_of, tiebreak) -> np.ndarray:
    """Chaitin-style elimination: min remaining requirement-degree first.

    Every remaining vertex carries the packed key ``degree * n +
    tiebreak``; since ``tiebreak`` is a permutation of ``range(n)`` the
    keys are distinct and order exactly like ``(degree, tiebreak)`` pairs,
    so one ``argmin`` per step picks the vertex a ``(degree, tiebreak)``
    heap would pop.  Removing a vertex lowers each remaining requirement
    neighbour's key by ``n`` (one degree).
    """
    key = degrees * n + tiebreak
    gone = np.iinfo(np.int64).max
    stack = np.empty(n, dtype=np.int64)
    for i in range(n):
        v = int(key.argmin())
        stack[i] = v
        key[v] = gone
        nbrs = row_of(v) > 0
        nbrs &= key != gone
        key[nbrs] -= n
    return stack


def _select(n, stack, row_of) -> np.ndarray:
    """Pop the stack and give each vertex its smallest free label.

    Every labeled requirement neighbour ``u`` forbids the window
    ``(labels[u] - req, labels[u] + req)``; the smallest non-negative
    label outside all windows is found by one sort of the windows by
    start and a sweep of their running end: the first window starting
    past the running end leaves that end free.
    """
    labels = np.full(n, -1, dtype=np.int64)
    for v in stack[::-1]:
        rv = row_of(v)
        constraining = (rv > 0) & (labels >= 0)
        req = rv[constraining]
        if req.size == 0:
            labels[v] = 0
            continue
        centre = labels[constraining]
        lo = centre - req + 1
        order = np.argsort(lo)
        reach = np.maximum.accumulate(np.maximum(centre + req, 0)[order])
        before = np.concatenate(([0], reach[:-1]))
        gap = np.flatnonzero(lo[order] > before)
        labels[v] = before[gap[0]] if gap.size else reach[-1]
    return labels


def _record(labeling: Labeling, lb: int, seconds: float) -> ApproxResult:
    """Assemble the result and mirror the certificate into the registry."""
    span = labeling.span
    gap = span - lb
    ratio = (span / lb) if lb > 0 else 1.0
    _M_SOLVES.inc()
    _M_GAP.set(gap)
    _M_RATIO.set(round(ratio, 4))
    return ApproxResult(
        labeling=labeling,
        span=span,
        lower_bound=lb,
        gap=gap,
        ratio=ratio,
        seconds=seconds,
    )
