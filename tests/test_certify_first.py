"""The certify-first ``auto`` ladder of :func:`repro.reduction.solver.solve_labeling`.

Rung 1 is Corollary 2's greedy path partition (diameter <= 2, two-entry
spec), rung 2 is LK stopped at the lower bound, rung 3 the usual engine
(Held–Karp up to 15 vertices, LK beyond).  These tests pin the contract:
every ``exact`` claim is a real certificate, the ladder never answers worse
than the engine it replaces, its answers are deterministic (the service
caches them under the ``auto`` key), and explicit engines are untouched.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.graphs.cotree import random_connected_cograph
from repro.graphs.graph import Graph
from repro.graphs.traversal import diameter, is_connected
from repro.harness.workloads import make_workload
from repro.labeling.bounds import lower_bound
from repro.labeling.exact import exact_span
from repro.labeling.spec import L21, LpSpec
from repro.partition.diameter2 import solve_lpq_diameter2
from repro.reduction import solver as solver_mod
from repro.reduction.solver import solve_labeling
from repro.reduction.to_tsp import reduce_to_path_tsp
from repro.reduction.validation import is_applicable
from repro.tsp.instance import TSPInstance
from repro.tsp.lin_kernighan import lk_style_path
from repro.tsp.portfolio import solve_path

SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (family, spec) pairs the ladder sees in serving: Corollary 2's setting
#: under several weightings (p < q puts the partition on G itself, p > q on
#: the complement), plus diameter-3 graphs that skip rung 1
CASES = (
    ("diam2", (2, 1)),
    ("diam2", (1, 2)),
    ("diam2", (3, 2)),
    ("split", (2, 1)),
    ("cograph", (2, 1)),
    ("cograph", (1, 1)),
    ("diam3", (2, 1, 1)),
    ("diam3", (2, 2, 1)),
)


@st.composite
def workloads(draw, min_n: int, max_n: int):
    """A served-style instance: family graph plus an applicable spec."""
    family, p = draw(st.sampled_from(CASES))
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 10_000))
    g, spec = make_workload(family, n, seed).graph, LpSpec(p)
    assume(is_applicable(g, spec))  # some split graphs have diameter 3
    return g, spec


@st.composite
def small_instances(draw, max_n: int = 10):
    """Any connected graph on <= ``max_n`` vertices with diameter <= 2.

    Specs have at most two entries and ``p_min <= 2``: the independent
    oracle (:func:`exact_span`) deepens from the lower bound one span at a
    time, which takes minutes once the optimum sits far above it.
    """
    n = draw(st.integers(2, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, (pr for pr, keep in zip(pairs, mask) if keep))
    if not is_connected(g) or diameter(g) > 2:
        for v in range(1, n):  # a universal vertex: diameter <= 2
            if not g.has_edge(0, v):
                g.add_edge(0, v)
    k = draw(st.integers(max(1, diameter(g)), 2))
    pmin = draw(st.integers(1, 2))
    p = [draw(st.integers(pmin, 2 * pmin)) for _ in range(k)]
    p[draw(st.integers(0, k - 1))] = pmin
    return g, LpSpec(tuple(p))


# ---------------------------------------------------------------------------
# the rungs and what they report
# ---------------------------------------------------------------------------
class TestRungs:
    def test_diameter2_certified_by_corollary2(self):
        g = gen.random_graph_with_diameter_at_most(30, 2, seed=4)
        r = solve_labeling(g, L21)
        assert r.engine == "corollary2" and r.exact
        assert r.span == lower_bound(g, L21) == 29
        assert r.path.length == r.span  # Claim 1: the path realizes the span

    def test_diameter3_certified_by_lk_descent(self):
        g = make_workload("diam3", 32, 0).graph
        spec = LpSpec((2, 1, 1))
        r = solve_labeling(g, spec)
        assert r.engine == "lk" and r.exact
        assert r.span == lower_bound(g, spec)

    @pytest.mark.parametrize("seed", range(4))
    def test_diameter3_certificates_match_the_oracle(self, seed):
        g = make_workload("diam3", 10, seed).graph
        spec = LpSpec((2, 1, 1))
        r = solve_labeling(g, spec)
        assert r.exact and r.span == exact_span(g, spec)

    def test_small_uncertified_instance_falls_to_held_karp(self):
        g = random_connected_cograph(12, seed=0)
        r = solve_labeling(g, L21)
        assert r.engine == "held_karp" and r.exact
        assert r.span > lower_bound(g, L21)
        assert r.span == solve_labeling(g, L21, engine="held_karp").span

    def test_large_uncertified_instance_is_plain_lk(self):
        g = random_connected_cograph(20, seed=1)
        r = solve_labeling(g, L21)
        lk = solve_labeling(g, L21, engine="lk")
        assert r.engine == "lk" and not r.exact
        assert r.order == lk.order

    def test_rungs_go_through_the_public_entry_points(self, monkeypatch):
        # the tracer counts partition.diameter2 and tsp.solve_path calls by
        # wrapping these two functions; the ladder must not bypass them
        calls = []
        real_d2, real_path = solver_mod.solve_lpq_diameter2, solver_mod.solve_path
        monkeypatch.setattr(
            solver_mod, "solve_lpq_diameter2",
            lambda *a, **kw: calls.append("diameter2") or real_d2(*a, **kw),
        )
        monkeypatch.setattr(
            solver_mod, "solve_path",
            lambda inst, engine, **kw: calls.append(engine) or real_path(inst, engine, **kw),
        )
        solve_labeling(random_connected_cograph(12, seed=0), L21)
        assert calls == ["diameter2", "lk", "held_karp"]
        calls.clear()
        solve_labeling(make_workload("diam3", 20, 0).graph, LpSpec((2, 1, 1)))
        assert calls == ["lk"]

    def test_explicit_engines_report_certificates_too(self):
        d2 = gen.random_graph_with_diameter_at_most(20, 2, seed=3)
        # a heuristic that lands on the bound is certified...
        lk = solve_labeling(d2, L21, engine="lk")
        assert lk.span == lower_bound(d2, L21) and lk.exact
        # ...one that misses it is not...
        nn = solve_labeling(d2, L21, engine="nearest_neighbor")
        assert nn.span > lower_bound(d2, L21) and not nn.exact
        # ...and an exact engine is, whatever the bound says
        cg = random_connected_cograph(10, seed=1)
        hk = solve_labeling(cg, L21, engine="held_karp")
        assert hk.span > lower_bound(cg, L21) and hk.exact


# ---------------------------------------------------------------------------
# determinism and purity
# ---------------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("family,p", CASES)
    def test_two_solves_return_identical_labels(self, family, p):
        g = make_workload(family, 24, 5).graph
        a = solve_labeling(g.copy(), LpSpec(p))
        b = solve_labeling(g.copy(), LpSpec(p))
        assert a.labeling.labels == b.labeling.labels
        assert (a.engine, a.exact) == (b.engine, b.exact)

    def test_seeded_corollary2_is_repeatable(self):
        g = gen.random_graph_with_diameter_at_most(40, 2, seed=9)
        runs = [solve_lpq_diameter2(g, L21, method="greedy", seed=0) for _ in range(3)]
        assert len({r.labeling.labels for r in runs}) == 1
        assert len({tuple(map(tuple, r.partition)) for r in runs}) == 1

    def test_corollary2_reuses_the_callers_reduction(self):
        g = gen.random_graph_with_diameter_at_most(25, 2, seed=2)
        red = reduce_to_path_tsp(g, L21)
        shared = solve_lpq_diameter2(g, L21, method="greedy", seed=0, reduced=red)
        fresh = solve_lpq_diameter2(g, L21, method="greedy", seed=0)
        assert shared.labeling.labels == fresh.labeling.labels
        assert shared.labeling.is_feasible(g, L21)

    @pytest.mark.parametrize("family,p", CASES)
    def test_ladder_never_mutates_its_input(self, family, p):
        g = make_workload(family, 20, 1).graph
        org_g = g.copy()
        solve_labeling(g, LpSpec(p))
        assert g == org_g


# ---------------------------------------------------------------------------
# properties against the engines it replaces and the exact oracle
# ---------------------------------------------------------------------------
@settings(**SETTINGS)
@given(workloads(min_n=4, max_n=11))
def test_ladder_no_worse_than_held_karp_when_small(case):
    g, spec = case
    ladder = solve_labeling(g, spec)
    assert ladder.exact
    assert ladder.span <= solve_labeling(g, spec, engine="held_karp").span


@settings(**SETTINGS)
@given(workloads(min_n=16, max_n=28))
def test_ladder_no_worse_than_lk_when_large(case):
    g, spec = case
    ladder = solve_labeling(g, spec)
    assert ladder.labeling.is_feasible(g, spec)
    assert ladder.span <= solve_labeling(g, spec, engine="lk").span


@settings(**SETTINGS)
@given(small_instances(max_n=10))
def test_every_exact_answer_is_optimal(case):
    g, spec = case
    r = solve_labeling(g, spec)
    assert r.exact  # n <= 15: a bound certificate or Held-Karp, always
    assert r.span == exact_span(g, spec)


@settings(**SETTINGS)
@given(st.integers(4, 30), st.integers(0, 2**31 - 1))
def test_lk_target_only_cuts_the_search_short(n, seed):
    inst = TSPInstance.random_metric(n, seed=seed)
    full = lk_style_path(inst, kicks=8, seed=0)
    # an unreachable target changes nothing
    assert lk_style_path(inst, kicks=8, seed=0, target=-1.0).order == full.order
    # a met target stops at the first path that reaches it
    first = lk_style_path(inst, kicks=0, seed=0)
    stopped = lk_style_path(inst, kicks=8, seed=0, target=first.length)
    assert stopped.order == first.order


def test_lk_tuning_is_refused_for_other_engines():
    small, large = TSPInstance.random_metric(8, seed=0), TSPInstance.random_metric(20, seed=0)
    for engine, inst in (("held_karp", small), ("two_opt", large), ("auto", small)):
        with pytest.raises(ValueError, match="only tune the lk engine"):
            solve_path(inst, engine, kicks=0)
        with pytest.raises(ValueError, match="only tune the lk engine"):
            solve_path(inst, engine, target=1.0)
    # auto beyond Held-Karp's range is lk, so it accepts them
    assert solve_path(large, "auto", kicks=0).order == lk_style_path(large, kicks=0, seed=0).order
