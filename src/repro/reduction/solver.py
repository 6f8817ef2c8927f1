"""End-to-end L(p)-labeling solver: reduce, run a TSP engine, reconstruct.

This is the library's front door.  It packages the paper's framework exactly:

1. validate Theorem 2's preconditions,
2. reduce to Metric Path TSP (:mod:`repro.reduction.to_tsp`),
3. solve with a selectable engine (:mod:`repro.tsp.portfolio` — exact
   Held–Karp, guaranteed 1.5-approx Hoogeveen, LK-style heuristic, ...),
   or, for ``engine="auto"``, with the certify-first ladder below,
4. reconstruct the labeling by prefix sums (Claim 1) and **re-verify it**
   against the original graph, so an engine bug can never escape as a
   silently-infeasible labeling.

The ``auto`` ladder stops at the first answer it can prove optimal.  The
certificate is Theorem 2's all-pairs bound (and the star and edge bounds,
:func:`repro.labeling.bounds.lower_bound`): a span equal to the bound is
optimal, whichever engine produced it.

1. A 2-dimensional spec on a diameter-<=2 graph (Corollary 2's setting)
   first gets the seeded greedy path partition of
   :func:`repro.partition.diameter2.solve_lpq_diameter2`.
2. Otherwise — or when that misses the bound — the LK-style engine runs
   with the bound as its target: construction and one descent, then
   (beyond 15 vertices) double-bridge kicks until a path reaches it.
3. Otherwise the usual engine finishes the job: Held–Karp up to 15
   vertices (the LK path is discarded), and beyond that the LK path of
   step 2, which then ran all 20 kicks exactly as ``engine="lk"`` does.
   The shorter of that path and the step-1 path is returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.graphs.analysis import GraphAnalysis
from repro.graphs.graph import Graph
from repro.labeling.bounds import lower_bound
from repro.labeling.labeling import Labeling
from repro.labeling.spec import LpSpec
from repro.partition.diameter2 import solve_lpq_diameter2
from repro.reduction.from_tour import labeling_from_order
from repro.reduction.to_tsp import ReducedInstance, reduce_to_path_tsp
from repro.tsp.portfolio import EXACT_ENGINES, HELD_KARP_MAX_N, solve_path
from repro.tsp.tour import HamPath


@dataclass(frozen=True)
class SolveResult:
    """Everything a caller may want from one solve.

    ``engine`` names the engine that produced the returned path: the
    requested one, or for ``auto`` the ladder rung that answered
    (``corollary2``, ``lk`` or ``held_karp``).  ``exact`` is true iff that
    engine guarantees optimality or the span equals the lower bound of
    :func:`repro.labeling.bounds.lower_bound` — either way a certificate.
    """

    labeling: Labeling
    span: int
    engine: str
    exact: bool              # optimality is certified (engine or bound)
    path: HamPath            # the Hamiltonian path realizing the span
    reduced: ReducedInstance
    reduce_seconds: float
    solve_seconds: float

    @property
    def order(self) -> tuple[int, ...]:
        """The solved Hamiltonian path's vertex order."""
        return self.path.order


def solve_labeling(
    graph: Graph,
    spec: LpSpec,
    engine: str = "auto",
    verify: bool = True,
    analysis: GraphAnalysis | None = None,
) -> SolveResult:
    """Solve L(p)-labeling via the TSP framework.

    Parameters
    ----------
    engine:
        An engine name from :data:`repro.tsp.portfolio.ENGINES`, or ``auto``
        (the certify-first ladder of the module docstring: Corollary 2 and
        LK stopped at the lower bound, then exact for small ``n`` and
        LK-style beyond).
    verify:
        Re-check the reconstructed labeling against the original graph.
        Reuses the reduction's distance matrix + ``O(k n^2)``; on by default.
    analysis:
        Forward an existing :class:`GraphAnalysis` so validation, the
        reduction and verification all share one distance matrix.  The
        default pulls the graph's memoized oracle, which gives the same
        guarantee within a process.

    Raises
    ------
    ReductionNotApplicableError
        If the graph/spec violate Theorem 2's preconditions.

    >>> from repro.graphs.generators import cycle_graph
    >>> from repro.labeling.spec import L21
    >>> solve_labeling(cycle_graph(5), L21, engine="held_karp").span
    4
    """
    t0 = time.perf_counter()
    red = reduce_to_path_tsp(graph, spec, analysis=analysis)
    bound = lower_bound(graph, spec, dist=red.distances)
    t1 = time.perf_counter()
    if engine == "auto":
        resolved, path = _certify_first(graph, spec, red, bound)
    else:
        resolved, path = engine, solve_path(red.instance, engine)
    t2 = time.perf_counter()

    labeling = labeling_from_order(red, path.order)
    if verify:
        labeling.require_feasible(graph, spec, dist=red.distances)
        # Claim 1 consistency: span must equal the path weight
        assert labeling.span == int(round(path.length)), (
            f"span {labeling.span} != path weight {path.length}"
        )
    return SolveResult(
        labeling=labeling,
        span=labeling.span,
        engine=resolved,
        exact=resolved in EXACT_ENGINES or labeling.span == bound,
        path=path,
        reduced=red,
        reduce_seconds=t1 - t0,
        solve_seconds=t2 - t1,
    )


def _certify_first(
    graph: Graph, spec: LpSpec, red: ReducedInstance, bound: int
) -> tuple[str, HamPath]:
    """The ``auto`` ladder: ``(engine, path)``, stopping at ``bound``.

    Deterministic (fixed seeds throughout), so the service may cache its
    answer under the ``auto`` key.  ``reduce_to_path_tsp`` already proved
    the graph connected with diameter <= ``spec.k`` and the weights within
    Theorem 2's condition, so ``spec.k == 2`` is exactly Corollary 2's
    setting.
    """
    inst = red.instance
    partition_path = None
    if spec.k == 2:
        res = solve_lpq_diameter2(graph, spec, method="greedy", seed=0, reduced=red)
        order = [v for path in res.partition for v in path]
        partition_path = HamPath.from_order(inst, order)
        if res.span <= bound:
            return "corollary2", partition_path
    # Held–Karp's range gets LK's first descent only: there the kicks
    # rarely reach a bound the descent missed, and cost more than the
    # Held–Karp runs they save
    small = inst.n <= HELD_KARP_MAX_N
    kicks = 0 if small else None
    resolved, path = "lk", solve_path(inst, "lk", target=bound, kicks=kicks)
    if path.length > bound and small:
        resolved, path = "held_karp", solve_path(inst, "held_karp")
    if partition_path is not None and partition_path.length < path.length:
        return "corollary2", partition_path
    return resolved, path


class LpTspSolver:
    """Reusable facade bound to one spec (convenient for sweeps).

    >>> from repro.labeling.spec import L21
    >>> from repro.graphs.generators import complete_graph
    >>> LpTspSolver(L21).solve(complete_graph(4)).span
    6
    """

    def __init__(self, spec: LpSpec, engine: str = "auto", verify: bool = True):
        """Bind a spec, engine choice and verification policy."""
        self.spec = spec
        self.engine = engine
        self.verify = verify

    def solve(self, graph: Graph) -> SolveResult:
        """Solve the bound spec on ``graph`` (see :func:`solve_labeling`)."""
        return solve_labeling(graph, self.spec, engine=self.engine, verify=self.verify)

    def span(self, graph: Graph) -> int:
        """The solved span only (convenience for sweeps)."""
        return self.solve(graph).span
