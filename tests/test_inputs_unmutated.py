"""The read paths never mutate the graph they are handed.

The approx tier, canonicalization, the distance oracle and every TSP
engine all read a request's :class:`~repro.graphs.graph.Graph` — on the
wire the same object also feeds the cache key and the answer check.  Each
must leave it equal to a ``copy()`` taken beforehand with an unchanged
``version``, on the dense path (small ``n``) and on the blocked oracle path
(large ``n``, where the kernel's bit step and its adjacency bitset come
into play).  The ``auto`` ladder also reuses one reduction across its
rungs, so no rung may write to the reduction's distance or weight matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.approx import approx_labeling
from repro.graphs import generators as gen
from repro.graphs.analysis import get_analysis
from repro.graphs.cotree import random_connected_cograph
from repro.graphs.graph import Graph
from repro.labeling.spec import L21, LpSpec
from repro.partition.diameter2 import solve_lpq_diameter2
from repro.reduction import solver
from repro.reduction.solver import solve_labeling
from repro.service.canonical import canonical_form, canonical_instance
from repro.tsp.portfolio import ENGINES

GRAPHS = {
    "diam2-24": lambda: gen.random_graph_with_diameter_at_most(24, 2, seed=1),
    "split-300": lambda: gen.random_split_graph(150, 150, p=0.4, seed=2),
    "gnp-320": lambda: gen.random_gnp(320, 0.3, seed=3),
    "path-300": lambda: gen.path_graph(300),
}


def _unchanged(run, g: Graph) -> None:
    before = g.copy()
    version = g.version
    indptr, indices = (a.copy() for a in g.csr_arrays())
    run(g)
    assert g == before
    assert g.version == version
    assert np.array_equal(g.csr_arrays()[0], indptr)
    assert np.array_equal(g.csr_arrays()[1], indices)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_approx_labeling_leaves_input_unchanged(name):
    _unchanged(lambda g: approx_labeling(g, LpSpec((3, 2, 1))), GRAPHS[name]())


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_canonical_form_and_instance_leave_input_unchanged(name):
    def run(g):
        form = canonical_form(g, L21)
        canonical_instance(form, g)

    _unchanged(run, GRAPHS[name]())


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_oracle_reads_leave_input_unchanged(name):
    def run(g):
        a = get_analysis(g)
        a.row(g.n - 1)
        a.rows(0, g.n)
        for _lo, _hi, _blk in a.iter_row_blocks():
            pass

    _unchanged(run, GRAPHS[name]())


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_every_engine_leaves_input_unchanged(engine):
    # n = 10 keeps the exact engines (Held-Karp, branch and bound) quick
    g = gen.random_graph_with_diameter_at_most(10, 2, seed=4)
    _unchanged(lambda g: solve_labeling(g, L21, engine=engine), g)


@pytest.mark.parametrize(
    "graph, rungs",
    [
        # diameter 2 under L(2,1): Corollary 2's partition answers
        (gen.random_graph_with_diameter_at_most(14, 2, seed=0),
         ["corollary2"]),
        # this cograph misses the bound on Corollary 2 and LK descent
        (random_connected_cograph(12, seed=0),
         ["corollary2", "lk", "held_karp"]),
    ],
    ids=["diam2-14", "cograph-12"],
)
def test_auto_ladder_leaves_input_and_reduction_unchanged(
    graph, rungs, monkeypatch
):
    reached: list[str] = []
    solve_path = solver.solve_path
    partition = solver.solve_lpq_diameter2
    certify_first = solver._certify_first

    def spy_path(inst, engine, **kw):
        reached.append(engine)
        return solve_path(inst, engine, **kw)

    def spy_partition(*args, **kw):
        reached.append("corollary2")
        return partition(*args, **kw)

    def checked(graph, spec, red, bound):
        distances = red.distances.copy()
        weights = red.instance.weights.copy()
        out = certify_first(graph, spec, red, bound)
        assert np.array_equal(red.distances, distances)
        assert np.array_equal(red.instance.weights, weights)
        return out

    monkeypatch.setattr(solver, "solve_path", spy_path)
    monkeypatch.setattr(solver, "solve_lpq_diameter2", spy_partition)
    monkeypatch.setattr(solver, "_certify_first", checked)
    _unchanged(lambda g: solve_labeling(g, L21, engine="auto"), graph)
    assert reached == rungs


@pytest.mark.parametrize("method", ["exact", "greedy"])
def test_solve_lpq_diameter2_leaves_input_unchanged(method):
    g = gen.random_graph_with_diameter_at_most(12, 2, seed=5)
    _unchanged(lambda g: solve_lpq_diameter2(g, L21, method=method, seed=0), g)
