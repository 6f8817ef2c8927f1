"""The vectorized Or-opt kernel against a per-candidate reference loop.

``_first_or_opt_move`` scores every (segment, gap, orientation) candidate
of a block of segment starts in one NumPy expression and returns the first
improving one in scan order.  First improvement makes the *choice* of move
— not just its gain — part of the contract: one different move and every
later tour diverges.  So the kernel is checked move-for-move against the
scalar loop below, and whole engine runs against tour digests recorded
from the scalar kernel.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.harness.workloads import make_workload
from repro.labeling.spec import LpSpec
from repro.reduction.to_tsp import reduce_to_path_tsp
from repro.tsp import local_search
from repro.tsp.instance import TSPInstance
from repro.tsp.local_search import _first_or_opt_move, or_opt_path
from repro.tsp.portfolio import solve_path
from repro.tsp.tour import HamPath

_EPS = 1e-10


def scalar_first_or_opt_move(w: np.ndarray, order: list[int], L: int) -> list[int] | None:
    """Reference: the per-candidate loop the vectorized kernel replaced."""
    n = len(order)

    def edge(u: int, v: int) -> float:
        return float(w[order[u], order[v]])

    for i in range(n - L + 1):
        j = i + L - 1  # segment is order[i..j]
        left, right = i - 1, j + 1
        removed = 0.0
        if left >= 0:
            removed += edge(left, i)
        if right <= n - 1:
            removed += edge(j, right)
        bridge = edge(left, right) if (left >= 0 and right <= n - 1) else 0.0
        gain_remove = removed - bridge
        if gain_remove <= _EPS:
            continue
        rest = order[:i] + order[j + 1 :]
        seg = order[i : j + 1]
        for pos in range(len(rest) + 1):
            if pos == i:  # same place, same orientation = identity
                candidates = (seg[::-1],) if L > 1 else ()
            else:
                candidates = (seg, seg[::-1]) if L > 1 else (seg,)
            for s in candidates:
                add = 0.0
                if pos > 0:
                    add += float(w[rest[pos - 1], s[0]])
                if pos < len(rest):
                    add += float(w[s[-1], rest[pos]])
                bridge_removed = (
                    float(w[rest[pos - 1], rest[pos]])
                    if 0 < pos < len(rest)
                    else 0.0
                )
                delta = add - bridge_removed - gain_remove
                if delta < -_EPS:
                    return rest[:pos] + s + rest[pos:]
    return None


def _reduction_instance(family: str, n: int, seed: int, spec=(2, 1)) -> TSPInstance:
    return reduce_to_path_tsp(make_workload(family, n, seed).graph, LpSpec(spec)).instance


def move_corpus():
    """Seeded (weights, order) pairs: random metrics and 2/3-valued reductions.

    The reduction instances matter most: their weights take two or three
    values, so many candidates tie and only the scan order picks the move.
    """
    rng = np.random.default_rng(2024)
    instances = [TSPInstance.random_metric(int(n), seed=int(s))
                 for n, s in zip(rng.integers(4, 40, size=12), range(12))]
    instances += [_reduction_instance(f, n, s) for f in ("diam2", "cograph")
                  for n, s in ((9, 0), (17, 1), (33, 2))]
    instances += [_reduction_instance("diam3", n, s, (2, 1, 1)) for n, s in ((12, 0), (30, 1))]
    for inst in instances:
        for _ in range(25):
            yield inst.weights, rng.permutation(inst.n).tolist()


class TestMoveEquivalence:
    def test_same_move_as_scalar_on_seeded_corpus(self):
        checked = moved = 0
        for w, order in move_corpus():
            for L in (1, 2, 3):
                if L >= len(order):
                    continue
                want = scalar_first_or_opt_move(w, order, L)
                got = _first_or_opt_move(w, order, L)
                assert got == want, (len(order), L)
                checked += 1
                moved += want is not None
        assert checked > 1000 and moved > checked // 2  # both outcomes covered

    def test_no_move_at_a_local_optimum(self):
        inst = _reduction_instance("diam2", 24, 3)
        opt = or_opt_path(inst, HamPath.from_order(inst, list(range(24))))
        for L in (1, 2, 3):
            assert _first_or_opt_move(inst.weights, list(opt.order), L) is None
            assert scalar_first_or_opt_move(inst.weights, list(opt.order), L) is None

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_size_never_changes_the_move(self, monkeypatch, block):
        # small blocks split the segment starts across kernel calls; the
        # first improving move must not depend on where the cuts fall
        monkeypatch.setattr(local_search, "_OR_OPT_BLOCK", block)
        for k, (w, order) in enumerate(move_corpus()):
            if k % 7:
                continue
            for L in (1, 2, 3):
                if L < len(order):
                    assert _first_or_opt_move(w, order, L) == scalar_first_or_opt_move(w, order, L)


def engine_corpus():
    """Fixed instances for the whole-engine digests below."""
    out = [(f"random_metric-{n}", TSPInstance.random_metric(n, seed=s))
           for n, s in ((9, 0), (14, 1), (23, 2), (31, 3), (40, 4))]
    for fam, n, spec in (("diam2", 20, (2, 1)), ("cograph", 24, (2, 1)),
                         ("cograph", 40, (2, 1)), ("split", 18, (2, 1)),
                         ("diam3", 22, (2, 1, 1)), ("geometric", 30, (2, 2, 1))):
        out.append((f"{fam}-{n}", _reduction_instance(fam, n, 0, spec)))
    return out


#: sha256 prefixes of the engines' tours over :func:`engine_corpus`, as
#: produced by the per-candidate Or-opt loop
ENGINE_DIGESTS = {
    "lk": "d48f4b730be8fad3",
    "or_opt": "b8eaedb3646e9a53",
    "three_opt": "f185b0edf14a209c",
}


@pytest.mark.parametrize("engine", sorted(ENGINE_DIGESTS))
def test_engine_tours_unchanged(engine):
    h = hashlib.sha256()
    for name, inst in engine_corpus():
        h.update(repr((name, solve_path(inst, engine).order)).encode())
    assert h.hexdigest()[:16] == ENGINE_DIGESTS[engine]
