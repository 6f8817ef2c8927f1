"""LabelingService batches: dedup, correctness, pooled parity, sessions."""

import os
import signal

import numpy as np
import pytest

from repro.errors import WorkerCrashedError
from repro.graphs import generators as gen
from repro.graphs.operations import relabel
from repro.labeling.spec import L11, L21
from repro.parallel.shm_pool import live_segment_names
from repro.reduction.solver import solve_labeling
from repro.service.api import LabelingService, solve_record
from repro.service.protocol import SolveRequest
from repro.session import LabelingSession, _diff_labels


def random_relabel(graph, seed):
    perm = np.random.default_rng(seed).permutation(graph.n).tolist()
    return relabel(graph, perm)


def duplicate_stream(uniques, copies, engine="held_karp"):
    """Each unique graph plus ``copies`` relabeled twins, interleaved."""
    reqs = []
    for i, g in enumerate(uniques):
        reqs.append(SolveRequest(g, L21, engine=engine, tag=f"u{i}"))
        for c in range(copies):
            reqs.append(
                SolveRequest(
                    random_relabel(g, 31 * i + c), L21, engine=engine,
                    tag=f"u{i}c{c}",
                )
            )
    return reqs


def serial_batch(reqs):
    """One batch through a fresh one-worker (inline) service."""
    return LabelingService(workers=1).submit_many(reqs)


class TestSubmitMany:
    def test_results_in_request_order_and_feasible(self):
        uniques = [
            gen.random_graph_with_diameter_at_most(10, 2, seed=s)
            for s in range(3)
        ]
        reqs = duplicate_stream(uniques, copies=2)
        results, report = serial_batch(reqs)
        assert [r.tag for r in results] == [r.tag for r in reqs]
        for req, res in zip(reqs, results):
            assert res.labeling.require_feasible(req.graph, req.spec)

    def test_duplicates_share_span_with_direct_solve(self):
        g = gen.random_graph_with_diameter_at_most(11, 2, seed=4)
        direct = solve_labeling(g, L21, engine="held_karp").span
        reqs = duplicate_stream([g], copies=4)
        results, _ = serial_batch(reqs)
        assert all(r.span == direct for r in results)
        assert sum(not r.cached for r in results) == 1

    def test_report_accounting(self):
        uniques = [
            gen.random_graph_with_diameter_at_most(9, 2, seed=s)
            for s in range(2)
        ]
        reqs = duplicate_stream(uniques, copies=3)   # 2 unique, 8 total
        results, report = serial_batch(reqs)
        assert report.total == 8
        assert report.unique == 2
        assert report.solved == 2
        assert report.deduped == 6
        assert report.cache_hits == 0
        assert report.hit_rate == pytest.approx(0.75)
        assert report.throughput > 0
        assert "held_karp" in report.engine_seconds
        # in-batch duplicates report no solve of their own
        twins = [r for r in results if "c" in r.tag]
        assert all(r.cached and r.seconds == 0.0 for r in twins)

    def test_second_batch_hits_warm_cache(self):
        svc = LabelingService(workers=1)
        g = gen.random_graph_with_diameter_at_most(10, 2, seed=1)
        svc.submit_many([SolveRequest(g, L21, engine="held_karp")])
        results, report = svc.submit_many(
            [SolveRequest(random_relabel(g, 9), L21, engine="held_karp")]
        )
        assert results[0].cached
        assert report.cache_hits == 1 and report.solved == 0

    def test_engine_is_part_of_the_key(self):
        svc = LabelingService(workers=1)
        g = gen.random_graph_with_diameter_at_most(10, 2, seed=2)
        svc.submit_many([SolveRequest(g, L21, engine="held_karp")])
        results, report = svc.submit_many(
            [SolveRequest(g, L21, engine="two_opt")]
        )
        assert not results[0].cached          # different engine, fresh solve
        assert results[0].engine == "two_opt"

    def test_spec_is_part_of_the_key(self):
        svc = LabelingService(workers=1)
        g = gen.cycle_graph(5)
        _, first = svc.submit_many([SolveRequest(g, L21)])
        _, second = svc.submit_many([SolveRequest(g, L11)])
        assert first.solved == 1 and second.solved == 1

    def test_empty_batch(self):
        results, report = LabelingService().submit_many([])
        assert results == [] and report.total == 0
        assert report.hit_rate == 0.0


def mixed_batch():
    """Distinct exact misses, relabeled in-batch twins, one approx request."""
    uniques = [
        gen.random_graph_with_diameter_at_most(n, 2, seed=s)
        for s, n in ((1, 9), (2, 10), (3, 11))
    ]
    reqs = [
        SolveRequest(g, L21, engine="held_karp", tag=f"u{i}")
        for i, g in enumerate(uniques)
    ]
    reqs += [
        SolveRequest(random_relabel(uniques[i], 40 + i), L21,
                     engine="held_karp", tag=f"d{i}")
        for i in (0, 2)
    ]
    reqs.append(
        SolveRequest(random_relabel(uniques[1], 7), L21, tier="approx",
                     tag="approx")
    )
    return reqs


def _own_segments():
    return {
        s for s in live_segment_names()
        if s.startswith(f"repro_shm_{os.getpid()}_")
    }


class TestPooledSubmitMany:
    """``workers > 1``: a batch's exact misses run on the persistent pool."""

    def test_parity_with_one_worker(self):
        reqs = mixed_batch()
        runs = {}
        for workers in (1, 2):
            with LabelingService(workers=workers) as svc:
                runs[workers] = [svc.submit_many(reqs) for _ in range(2)]
                if workers == 2:
                    # the three distinct exact misses crossed to the pool
                    assert sum(svc.executor.pool.dispatch_counts()) == 3
        for (serial, s_rep), (pooled, p_rep) in zip(runs[1], runs[2]):
            for req, a, b in zip(reqs, serial, pooled):
                assert a.labeling.labels == b.labeling.labels
                b.labeling.require_feasible(req.graph, req.spec)
                assert (a.span, a.cached, a.tier, a.engine, a.tag) == (
                    b.span, b.cached, b.tier, b.engine, b.tag
                )
            for name in ("total", "unique", "cache_hits", "deduped",
                         "solved", "hit_rate"):
                assert getattr(s_rep, name) == getattr(p_rep, name), name
            assert set(s_rep.engine_seconds) == set(p_rep.engine_seconds)
        first, repeat = runs[2][0][1], runs[2][1][1]
        assert (first.solved, first.deduped, first.cache_hits) == (4, 2, 0)
        assert (repeat.solved, repeat.cache_hits) == (0, 6)

    def test_close_leaves_no_segments(self):
        before = _own_segments()
        svc = LabelingService(workers=2)
        svc.submit_many(mixed_batch())
        published = _own_segments() - before
        assert published and svc.executor.pool is not None
        svc.close()
        assert svc.executor.pool is None
        assert not published & set(live_segment_names())
        svc.close()  # idempotent

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="POSIX signals")
    def test_killed_worker_fails_the_batch(self, monkeypatch):
        with LabelingService(workers=2) as svc:
            svc.executor.start()
            pool = svc.executor.pool
            pool.wait_ready()
            pids = pool.worker_pids()
            for pid in pids:  # stopped workers cannot answer before the kill
                os.kill(pid, signal.SIGSTOP)
            submit, sent = pool.submit, []

            def submit_then_kill(*args):
                future = submit(*args)
                sent.append(future)
                if len(sent) == 2:
                    for pid in pids:
                        os.kill(pid, signal.SIGKILL)
                return future

            monkeypatch.setattr(pool, "submit", submit_then_kill)
            reqs = [
                SolveRequest(
                    gen.random_graph_with_diameter_at_most(10, 2, seed=s),
                    L21, engine="held_karp",
                )
                for s in (5, 6)
            ]
            with pytest.raises(WorkerCrashedError):
                svc.submit_many(reqs)
            assert len(sent) == 2


class TestLabelingService:
    def test_submit_and_stats(self):
        svc = LabelingService(workers=1)
        g = gen.random_graph_with_diameter_at_most(10, 2, seed=6)
        first = svc.submit(SolveRequest(g, L21, engine="held_karp"))
        second = svc.submit(
            SolveRequest(random_relabel(g, 1), L21, engine="held_karp")
        )
        assert not first.cached and second.cached
        assert first.span == second.span
        stats = svc.stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_cache_persistence_across_services(self, tmp_path):
        path = tmp_path / "service-cache.json"
        g = gen.random_graph_with_diameter_at_most(10, 2, seed=8)
        warm = LabelingService(cache_path=path, workers=1)
        warm.submit(SolveRequest(g, L21, engine="held_karp"))
        warm.save_cache()
        cold = LabelingService(cache_path=path, workers=1)
        assert cold.submit(
            SolveRequest(random_relabel(g, 2), L21, engine="held_karp")
        ).cached

    def test_solve_record_shapes_match(self):
        g = gen.cycle_graph(5)
        direct = solve_labeling(g, L21, engine="held_karp")
        service = LabelingService(workers=1).submit(
            SolveRequest(g, L21, engine="held_karp")
        )
        a = solve_record(direct, graph=g, spec=L21, include_labels=True)
        b = solve_record(service, graph=g, spec=L21, include_labels=True)
        assert set(a) == set(b)
        assert a["span"] == b["span"] == 4
        assert a["cached"] is False
        assert sorted(a["labels"]) == sorted(b["labels"])


class TestSessionServiceIntegration:
    def test_session_routes_through_shared_service(self):
        svc = LabelingService(workers=1)
        g = gen.cycle_graph(5)
        s = LabelingSession(g, L21, engine="held_karp", service=svc)
        assert s.span == 4
        assert svc.stats().misses == 1
        # a second session on an isomorphic graph is a pure cache hit
        s2 = LabelingSession(
            random_relabel(g, 5), L21, engine="held_karp", service=svc
        )
        assert s2.span == 4
        assert svc.stats().hits == 1
        assert s2.current.cached

    def test_mutate_and_revert_gets_warm_hit(self):
        svc = LabelingService(workers=1)
        s = LabelingSession(gen.cycle_graph(5), L21, engine="held_karp",
                            service=svc)
        s.add_edge(0, 2)
        delta = s.remove_edge(0, 2)      # back to C5: warm hit
        assert s.current.cached
        assert delta.span_after == 4
        assert s.labeling.is_feasible(s.graph, L21)

    def test_session_history_spans_consistent(self):
        svc = LabelingService(workers=1)
        s = LabelingSession(gen.complete_graph(3), L21, engine="held_karp",
                            service=svc)
        v = s.add_vertex(connect_to=[0, 1, 2])
        assert v == 3
        assert s.span_trajectory() == [4, 6]


class TestDiffLabels:
    def test_pure_relabeling(self):
        assert _diff_labels((0, 2, 4), (0, 3, 4)) == ((1,), ())

    def test_added_vertices_not_reported_as_relabeled(self):
        relabeled, added = _diff_labels((0, 2, 4), (0, 2, 4, 6, 8))
        assert relabeled == ()
        assert added == (3, 4)

    def test_mixed_change_and_growth(self):
        relabeled, added = _diff_labels((0, 2, 4), (1, 2, 4, 6))
        assert relabeled == (0,)
        assert added == (3,)

    def test_empty_histories(self):
        assert _diff_labels((), ()) == ((), ())
        assert _diff_labels((), (0, 1)) == ((), (0, 1))

    def test_session_delta_reports_added_separately(self):
        s = LabelingSession(gen.complete_graph(3), L21, engine="held_karp")
        trial = s.graph
        trial.add_vertex()
        for u in (0, 1, 2):
            trial.add_edge(u, 3)
        delta = s._commit(trial)
        assert delta.added == (3,)
        assert 3 not in delta.relabeled
