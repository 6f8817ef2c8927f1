"""Independent answer checker and the benchmark's statistics.

Nothing here imports the program: distances come from this file's own
breadth-first search (boolean matrix powers), and the lower bound is this
file's own argument, so a bug in the program's oracle, canonical
translation or bound cannot hide behind the same bug in the checker.
"""

from __future__ import annotations

import numpy as np


class CheckError(Exception):
    """An answer the checker rejects (the message says why)."""


def distances(n: int, edges) -> np.ndarray:
    """All-pairs hop distances (-1 = unreachable), by boolean matrix powers."""
    adj = np.zeros((n, n), dtype=np.float32)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    dist = np.full((n, n), -1, dtype=np.int32)
    reach = np.eye(n, dtype=bool)
    dist[reach] = 0
    d = 0
    while True:
        d += 1
        grown = reach | ((reach.astype(np.float32) @ adj) > 0)
        fresh = grown & ~reach
        if not fresh.any():
            return dist
        dist[fresh] = d
        reach = grown


def lower_bound(n: int, edges, p, dist: np.ndarray) -> int:
    """A valid lower bound on the optimum span of L(p) on the graph.

    All-pairs: when every pair is within distance ``len(p)`` all labels
    differ pairwise by at least ``min(p)``, so the span is at least
    ``(n - 1) * min(p)``.  Star: a vertex of degree D and its neighbours
    need D + 1 labels, neighbours ``min(p1, p2)`` apart and the centre
    ``p1`` from each.  Edge: any edge forces ``p1``.
    """
    if n <= 1:
        return 0
    best = p[0] if edges else 0
    if (dist >= 0).all() and int(dist.max()) <= len(p):
        best = max(best, (n - 1) * min(p))
    degree = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    delta = int(degree.max())
    if delta >= 1 and len(p) >= 2:
        best = max(best, (delta - 1) * min(p[0], p[1]) + p[0])
    return best


def check_answer(inst: dict, answer: dict, dist: np.ndarray, lb: int) -> None:
    """Raise :class:`CheckError` unless ``answer`` is a feasible labeling.

    ``inst`` is the request exactly as sent (its own vertex order), so a
    labeling translated back through the wrong permutation fails here.
    """
    n, p = inst["n"], inst["p"]
    labels = answer.get("labels")
    if not isinstance(labels, list) or len(labels) != n:
        raise CheckError(f"expected {n} labels, got {labels!r:.80}")
    if not all(isinstance(x, int) and x >= 0 for x in labels):
        raise CheckError("labels must be non-negative ints")
    span = answer.get("span")
    if n and span != max(labels):
        raise CheckError(f"span {span} != max label {max(labels)}")
    if span < lb:
        raise CheckError(f"span {span} below the lower bound {lb}")
    lab = np.asarray(labels, dtype=np.int64)
    gaps = np.abs(lab[:, None] - lab[None, :])
    need = np.zeros_like(dist)
    for d, pd in enumerate(p, start=1):
        need[dist == d] = pd
    bad = np.argwhere(gaps < need)
    if bad.size:
        u, v = bad[0]
        raise CheckError(
            f"vertices {u},{v} at distance {dist[u, v]} have labels "
            f"{labels[u]},{labels[v]} (need gap {need[u, v]})"
        )


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
TAIL_BEYOND = 10


def tail_rank(count: int) -> int:
    """0-based index into sorted samples of the tail percentile.

    The tail percentile is the highest one with at least
    :data:`TAIL_BEYOND` samples beyond it: the value at this index has
    exactly ``TAIL_BEYOND`` larger-ranked samples after it.
    """
    if count <= TAIL_BEYOND:
        raise ValueError(
            f"{count} samples leave no percentile with {TAIL_BEYOND} beyond it"
        )
    return count - TAIL_BEYOND - 1


def tail_percentile(count: int) -> float:
    """The percentile :func:`tail_rank` reads, in percent (nearest rank)."""
    return 100.0 * (tail_rank(count) + 1) / count


def tail(values) -> float:
    """The tail-percentile value of ``values``."""
    ordered = sorted(values)
    return ordered[tail_rank(len(ordered))]


def window_rates(done_times, start: float, window: int) -> list[float]:
    """Completion rates over consecutive windows of ``window`` answers.

    A trailing partial window is dropped; a phase shorter than one
    window gives one rate over all of it.
    """
    ordered = sorted(done_times)
    if len(ordered) < window:
        return [len(ordered) / (ordered[-1] - start)]
    rates, prev = [], start
    for i in range(window - 1, len(ordered), window):
        rates.append(window / (ordered[i] - prev))
        prev = ordered[i]
    return rates


def median(values) -> float:
    """Plain median (mean of the middle pair for even counts)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
