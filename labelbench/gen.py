"""Seeded instance generator of the benchmark (independent of the program).

Every instance is a plain dict ``{"n", "edges", "p", "family"}`` with
``edges`` a list of ``[u, v]`` pairs.  Only :mod:`random` and this file
decide what the program receives, so a change to the program's own
generators can never change the benchmark's inputs.  :func:`digest` hashes
an instance list; ``manifest.json`` pins the digest of every workload's
inputs at :data:`REFERENCE_SEED`, and ``run.py`` refuses to run when the
generator no longer reproduces it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import deque

#: Seed whose inputs are pinned in ``manifest.json``.
REFERENCE_SEED = 0

L21 = [2, 1]
L211 = [2, 1, 1]


# ---------------------------------------------------------------------------
# graph helpers
# ---------------------------------------------------------------------------
def _adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _edge_list(adj: list[set[int]]) -> list[list[int]]:
    return [[u, v] for u in range(len(adj)) for v in sorted(adj[u]) if u < v]


def _bfs(adj: list[set[int]], src: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def diameter(adj: list[set[int]]) -> int:
    """Diameter of a graph given as adjacency sets; -1 when disconnected."""
    best = 0
    for s in range(len(adj)):
        row = _bfs(adj, s)
        if min(row) < 0:
            return -1
        best = max(best, max(row))
    return best


def _repair_diameter2(adj: list[set[int]]) -> None:
    """Join every non-adjacent pair without a common neighbour."""
    n = len(adj)
    bits = [sum(1 << w for w in adj[u]) for u in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if not (bits[u] >> v) & 1 and not bits[u] & bits[v]:
                adj[u].add(v)
                adj[v].add(u)
                bits[u] |= 1 << v
                bits[v] |= 1 << u


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------
def diam2_random(n: int, rng: random.Random, density: float = 0.5) -> list[set[int]]:
    """G(n, density), then every far pair joined: diameter exactly <= 2."""
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                adj[u].add(v)
                adj[v].add(u)
    _repair_diameter2(adj)
    return adj


def split_d2(n: int, rng: random.Random) -> list[set[int]]:
    """Clique plus independent set; every independent pair shares a clique vertex."""
    k = max(2, n // 3 + rng.randrange(max(1, n // 6)))
    clique, indep = list(range(k)), list(range(k, n))
    adj = [set() for _ in range(n)]
    for i, u in enumerate(clique):
        for v in clique[i + 1:]:
            adj[u].add(v)
            adj[v].add(u)
    for v in indep:
        picks = [c for c in clique if rng.random() < 0.5] or [rng.choice(clique)]
        for c in picks:
            adj[v].add(c)
            adj[c].add(v)
    for i, a in enumerate(indep):
        for b in indep[i + 1:]:
            if not (adj[a] & adj[b]):
                c = rng.choice(sorted(adj[b]))
                adj[a].add(c)
                adj[c].add(a)
    return adj


def cograph(n: int, rng: random.Random) -> list[set[int]]:
    """Random cotree with a join at the root: connected, diameter <= 2."""
    adj = [set() for _ in range(n)]

    def build(vertices: list[int], join: bool) -> None:
        if len(vertices) == 1:
            return
        parts = 2 if len(vertices) < 6 else rng.choice((2, 2, 3))
        cuts = sorted(rng.sample(range(1, len(vertices)), parts - 1))
        groups = [vertices[a:b] for a, b in zip([0, *cuts], [*cuts, len(vertices)])]
        if join:
            for i, ga in enumerate(groups):
                for gb in groups[i + 1:]:
                    for u in ga:
                        for v in gb:
                            adj[u].add(v)
                            adj[v].add(u)
        for g in groups:
            build(g, not join)

    order = list(range(n))
    rng.shuffle(order)
    build(order, True)
    return adj


def diam3_random(n: int, rng: random.Random) -> list[set[int]]:
    """Connected random graph of diameter exactly 3 (rejection over draws)."""
    density = 2.0 * math.log(n) / n
    while True:
        adj = [set() for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    adj[u].add(v)
                    adj[v].add(u)
        # connect components along a random order
        seen = _bfs(adj, 0)
        for v in range(n):
            if seen[v] < 0:
                u = rng.choice([w for w in range(n) if seen[w] >= 0])
                adj[u].add(v)
                adj[v].add(u)
                seen = _bfs(adj, 0)
        # shorten every pair farther than 3 apart
        for s in range(n):
            row = _bfs(adj, s)
            for t in range(n):
                if row[t] > 3:
                    adj[s].add(t)
                    adj[t].add(s)
                    row = _bfs(adj, s)
        if diameter(adj) == 3:
            return adj


FAMILIES = {
    "diam2": lambda n, rng: diam2_random(n, rng),
    "diam2_sparse": lambda n, rng: diam2_random(n, rng, density=0.3),
    "split": split_d2,
    "cograph": cograph,
    "diam3": diam3_random,
}


def instance(family: str, n: int, rng: random.Random) -> dict:
    """One instance of ``family`` on ``n`` vertices under its spec."""
    adj = FAMILIES[family](n, rng)
    return {
        "n": n,
        "edges": _edge_list(adj),
        "p": L211 if family == "diam3" else L21,
        "family": family,
    }


def relabeled(inst: dict, rng: random.Random) -> dict:
    """A random isomorphic copy: vertices permuted, edges reoriented and shuffled."""
    n = inst["n"]
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        if perm != list(range(n)):
            break
    edges = [[perm[u], perm[v]] for u, v in inst["edges"]]
    for e in edges:
        if rng.random() < 0.5:
            e.reverse()
    rng.shuffle(edges)
    return {**inst, "edges": edges}


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------
def stratified(rng: random.Random, strata: list[tuple[str, int]], count: int) -> list[dict]:
    """``count`` distinct instances in laps over ``strata``.

    Each full lap holds every stratum once, in a seeded order; a last
    partial lap takes the first strata of the list.  The composition is
    therefore the same for every seed, and any lap-long stretch of the
    list is a balanced mix.
    """
    plan = []
    while len(plan) < count:
        lap = list(strata[:count - len(plan)])
        rng.shuffle(lap)
        plan += lap
    return [instance(family, n, rng) for family, n in plan]


def digest(instances: list[dict]) -> str:
    """Stable hash of an instance list (graph, spec and family only)."""
    h = hashlib.sha256()
    for inst in instances:
        key = [inst["n"], inst["p"], inst["family"], inst["edges"]]
        h.update(json.dumps(key, separators=(",", ":")).encode())
    return h.hexdigest()[:16]
