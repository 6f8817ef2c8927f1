"""Tests of the benchmark's own parts: checker, tail rule, generator.

Run from the repository root with ``python3 -m pytest labelbench/tests -q``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def _checked(inst: dict, labels: list[int]) -> None:
    dist = check.distances(inst["n"], inst["edges"])
    lb = check.lower_bound(inst["n"], inst["edges"], inst["p"], dist)
    check.check_answer(inst, {"labels": labels, "span": max(labels)}, dist, lb)


def _first_fit(inst: dict) -> list[int]:
    """A feasible labeling built without the program (greedy first fit)."""
    dist = check.distances(inst["n"], inst["edges"])
    labels: list[int] = []
    for v in range(inst["n"]):
        x = 0
        while any(
            0 < dist[v, u] <= len(inst["p"])
            and abs(x - labels[u]) < inst["p"][dist[v, u] - 1]
            for u in range(v)
        ):
            x += 1
        labels.append(x)
    return labels


PATH3 = {"n": 3, "edges": [[0, 1], [1, 2]], "p": [2, 1], "family": "path"}


def test_checker_accepts_an_optimal_labeling():
    _checked(PATH3, [2, 0, 3])


def test_checker_rejects_a_corrupted_labeling():
    inst = gen.instance("diam2", 16, random.Random(3))
    labels = _first_fit(inst)
    _checked(inst, labels)
    u, v = inst["edges"][0]
    bad = list(labels)
    bad[v] = bad[u]
    with pytest.raises(check.CheckError):
        _checked(inst, bad)


def test_checker_rejects_span_that_is_not_the_max_label():
    dist = check.distances(3, PATH3["edges"])
    with pytest.raises(check.CheckError, match="max label"):
        check.check_answer(PATH3, {"labels": [2, 0, 3], "span": 4}, dist, 3)


def test_checker_rejects_span_below_the_lower_bound():
    # K3 under L(2,1): the star argument gives (2 - 1) * 1 + 2 = 3
    inst = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "p": [2, 1]}
    dist = check.distances(3, inst["edges"])
    assert check.lower_bound(3, inst["edges"], inst["p"], dist) == 3
    with pytest.raises(check.CheckError, match="lower bound"):
        check.check_answer(inst, {"labels": [0, 1, 2], "span": 2}, dist, 3)


def test_checker_rejects_an_untranslated_relabeled_answer():
    # swapping vertices 0 and 1 moves the centre of the path; the labels of
    # the original order, sent back unchanged, are then infeasible
    relabeled = {"n": 3, "edges": [[1, 0], [0, 2]], "p": [2, 1]}
    _checked(relabeled, [0, 2, 3])
    with pytest.raises(check.CheckError):
        _checked(relabeled, [2, 0, 3])


def test_checker_rejects_mistranslation_on_a_generated_relabeling():
    rng = random.Random(5)
    inst = gen.instance("split", 24, rng)
    labels = _first_fit(inst)
    copy = gen.relabeled(inst, rng)
    with pytest.raises(check.CheckError):
        _checked(copy, labels)


def test_distances_match_breadth_first_search():
    inst = gen.instance("diam3", 24, random.Random(2))
    dist = check.distances(inst["n"], inst["edges"])
    adj = gen._adjacency(inst["n"], inst["edges"])
    for s in range(inst["n"]):
        assert dist[s].tolist() == gen._bfs(adj, s)


@pytest.mark.parametrize("count", list(range(11, 400)) + [1000, 1200, 4321])
def test_tail_percentile_leaves_exactly_ten_samples_beyond(count):
    values = list(range(count))
    value = check.tail(values)
    assert sum(1 for x in values if x > value) == check.TAIL_BEYOND
    # the next higher percentile would leave fewer than ten
    assert sorted(values)[check.tail_rank(count) + 1] > value


@pytest.mark.parametrize("count", [0, 1, 10])
def test_tail_percentile_needs_more_than_ten_samples(count):
    with pytest.raises(ValueError):
        check.tail_rank(count)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_generator_is_reproducible_for_a_fixed_seed(name):
    wl = run.WORKLOADS[name]
    first = gen.digest(wl.flat(wl.inputs(7, 2)))
    assert first == gen.digest(wl.flat(wl.inputs(7, 2)))
    assert first != gen.digest(wl.flat(wl.inputs(8, 2)))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_pinned_digests_match_the_manifest(name):
    import json

    pinned = json.loads(run.MANIFEST.read_text())[name]["reference_digest"]
    assert run.reference_digest(run.WORKLOADS[name]) == pinned


@pytest.mark.parametrize("family,limit", [
    ("diam2", 2), ("split", 2), ("cograph", 2), ("diam3", 3),
])
def test_families_meet_their_diameter(family, limit):
    rng = random.Random(11)
    for n in (12, 16, 24, 32, 48):
        inst = gen.instance(family, n, rng)
        d = gen.diameter(gen._adjacency(n, inst["edges"]))
        assert 1 <= d <= limit
        if family == "diam3":
            assert d == 3


def test_relabeled_copy_is_isomorphic_and_not_identical():
    rng = random.Random(1)
    inst = gen.instance("diam2", 32, rng)
    copy = gen.relabeled(inst, rng)
    assert copy["edges"] != inst["edges"]

    def degrees(edges):
        adj = gen._adjacency(32, edges)
        return sorted(len(a) for a in adj)

    assert degrees(copy["edges"]) == degrees(inst["edges"])
    assert len(copy["edges"]) == len(inst["edges"])


def test_batches_are_half_relabelings_of_earlier_requests():
    batches = run.WORKLOADS["batch_dedup"].inputs(3, 4)["batches"]
    seen = set()
    for items in batches:
        assert len(items) == run.BatchDedup.batch
        fresh = 0
        for inst in items:
            key = _fingerprint(inst)
            fresh += key not in seen
            seen.add(key)
        assert fresh == run.BatchDedup.batch // 2


def _fingerprint(inst: dict) -> tuple:
    """An isomorphism-invariant fingerprint (distance-row multisets)."""
    dist = check.distances(inst["n"], inst["edges"])
    return (inst["n"], tuple(sorted(tuple(sorted(row)) for row in dist.tolist())))


def test_window_rates():
    # windows of 2 answers finishing at 1, 2 | 4, 5 | 6, 7 from start 0
    done = [1.0, 2.0, 4.0, 5.0, 6.0, 7.0]
    assert check.window_rates(done, 0.0, 2) == pytest.approx([1.0, 2 / 3, 1.0])
    assert check.window_rates(done, 0.0, 6) == pytest.approx([6 / 7])
    assert check.window_rates(done[:3], 0.0, 6) == pytest.approx([3 / 4])


def test_benchmark_json_matches_the_code():
    import json

    import layers

    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: wl.why for name, wl in run.WORKLOADS.items() if name not in run.UNLISTED}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.PER_LAYER
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
