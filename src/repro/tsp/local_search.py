"""Local search for Hamiltonian paths: 2-opt, Or-opt, and a 3-opt-lite.

All moves are specialized to the *path* objective (no wrap-around edge), with
the segment-touches-endpoint cases handled separately — a subtle point that
cycle-oriented implementations get wrong.  The 2-opt and Or-opt inner
loops are vectorized (one NumPy kernel per improvement step, Or-opt's in
bounded blocks of segment starts), per the hpc-parallel guides.
"""

from __future__ import annotations

import numpy as np

from repro.tsp.instance import TSPInstance
from repro.tsp.tour import HamPath

_EPS = 1e-10


def two_opt_path(
    instance: TSPInstance, start: HamPath, max_rounds: int = 10_000
) -> HamPath:
    """Best-improvement 2-opt on a Hamiltonian path.

    Repeatedly applies the single best segment reversal until no reversal
    improves the length.  Each round is one vectorized delta evaluation.
    """
    n = instance.n
    if n <= 2:
        return start
    w = instance.weights
    o = np.asarray(start.order, dtype=np.intp)

    for _ in range(max_rounds):
        best_delta, move = _best_two_opt_move(w, o)
        if best_delta >= -_EPS:
            break
        i, j = move
        o[i : j + 1] = o[i : j + 1][::-1]
    return HamPath.from_order(instance, o.tolist())


def _best_two_opt_move(w: np.ndarray, o: np.ndarray) -> tuple[float, tuple[int, int]]:
    """The most improving reversal ``o[i..j] -> reversed`` and its delta."""
    n = len(o)
    best_delta = 0.0
    best_move = (0, 0)

    # --- internal reversals: 1 <= i <= j <= n-2 ------------------------
    if n >= 4:
        idx = np.arange(1, n - 1)
        # gain matrices indexed by (i, j) over idx x idx
        m_new = w[o[idx - 1][:, None], o[idx][None, :]] + w[o[idx][:, None], o[idx + 1][None, :]]
        m_old = w[o[idx - 1], o[idx]][:, None] + w[o[idx], o[idx + 1]][None, :]
        delta = m_new - m_old
        # only j > i is a real move (j == i is identity)
        delta[np.tril_indices(len(idx), k=0)] = np.inf
        flat = int(np.argmin(delta))
        di, dj = divmod(flat, len(idx))
        if delta[di, dj] < best_delta - _EPS:
            best_delta = float(delta[di, dj])
            best_move = (int(idx[di]), int(idx[dj]))

    # --- prefix reversals: reverse o[0..j], j <= n-2 --------------------
    j = np.arange(0, n - 1)
    delta_pre = w[o[0], o[j + 1]] - w[o[j], o[j + 1]]
    jp = int(np.argmin(delta_pre))
    if delta_pre[jp] < best_delta - _EPS:
        best_delta = float(delta_pre[jp])
        best_move = (0, int(j[jp]))

    # --- suffix reversals: reverse o[i..n-1], i >= 1 ---------------------
    i = np.arange(1, n)
    delta_suf = w[o[i - 1], o[n - 1]] - w[o[i - 1], o[i]]
    ip = int(np.argmin(delta_suf))
    if delta_suf[ip] < best_delta - _EPS:
        best_delta = float(delta_suf[ip])
        best_move = (int(i[ip]), n - 1)

    return best_delta, best_move


def or_opt_path(
    instance: TSPInstance,
    start: HamPath,
    segment_lengths: tuple[int, ...] = (1, 2, 3),
    max_rounds: int = 10_000,
) -> HamPath:
    """Or-opt: relocate short segments (optionally reversed) along the path.

    First-improvement sweeps over segment lengths 1..3; loops until a full
    sweep finds nothing.
    """
    n = instance.n
    if n <= 2:
        return start
    w = instance.weights
    order = list(start.order)

    for _ in range(max_rounds):
        improved = False
        for seg_len in segment_lengths:
            if seg_len >= n:
                continue
            move = _first_or_opt_move(w, order, seg_len)
            if move is not None:
                order = move
                improved = True
                break
        if not improved:
            break
    return HamPath.from_order(instance, order)


#: Candidate moves scored per Or-opt kernel call: segment starts are taken
#: in blocks of ``_OR_OPT_BLOCK // (n - L + 1)`` so memory stays bounded at
#: large ``n`` and an early improving segment ends the scan early.
_OR_OPT_BLOCK = 1 << 14


def _first_or_opt_move(w: np.ndarray, order: list[int], L: int) -> list[int] | None:
    """First improving relocation of a length-``L`` segment, or ``None``.

    Scan order (and so the move returned) is segment start ``i`` ascending,
    then insertion gap ``pos`` of the remaining path ascending, then the
    forward before the reversed orientation.  Every candidate of a block of
    segment starts is scored in one NumPy expression; the deltas are
    summed in the same order as a per-candidate loop would, so the first
    improving candidate — and hence every tour — is bit-identical to it.
    """
    o = np.asarray(order, dtype=np.intp)
    n = len(o)
    m = n - L  # length of the path with the segment excised
    pos = np.arange(m + 1)  # insertion gaps of the excised path
    has_prev, has_next = pos > 0, pos < m
    inner = has_prev & has_next
    rows = max(1, _OR_OPT_BLOCK // (m + 1))
    for lo in range(0, m + 1, rows):
        i = np.arange(lo, min(lo + rows, m + 1))  # segment is o[i..j]
        j = i + L - 1
        left, right = i > 0, j < n - 1
        s0, s1 = o[i], o[j]
        before, after = o[i - 1], o[np.minimum(j + 1, n - 1)]
        # cost removed when the segment is excised, net of the new bridge
        removed = np.where(left, w[before, s0], 0.0) + np.where(right, w[s1, after], 0.0)
        gain_remove = removed - np.where(left & right, w[before, after], 0.0)
        live = gain_remove > _EPS
        if not live.any():
            continue
        # rest[k] = o[k] before the segment, o[k + L] after it
        k = np.arange(m)
        rest = o[k[None, :] + L * (k[None, :] >= i[:, None])]
        prev = rest[:, np.maximum(pos - 1, 0)]
        nxt = rest[:, np.minimum(pos, m - 1)]
        bridge = np.where(inner, w[prev, nxt], 0.0)
        col0, col1 = s0[:, None], s1[:, None]
        add_fwd = np.where(has_prev, w[prev, col0], 0.0) + np.where(has_next, w[col1, nxt], 0.0)
        add_rev = np.where(has_prev, w[prev, col1], 0.0) + np.where(has_next, w[col0, nxt], 0.0)
        delta = np.stack(
            (add_fwd - bridge - gain_remove[:, None], add_rev - bridge - gain_remove[:, None]),
            axis=-1,
        )
        ok = (delta < -_EPS) & live[:, None, None]
        # forward at gap `pos == i` is the identity; a reversed single
        # vertex is the forward move again
        ok[:, :, 0] &= pos[None, :] != i[:, None]
        if L == 1:
            ok[:, :, 1] = False
        hits = np.flatnonzero(ok)
        if hits.size:
            r, p, rev = (int(x) for x in np.unravel_index(int(hits[0]), ok.shape))
            a = int(i[r])
            seg = order[a : a + L]
            kept = order[:a] + order[a + L :]
            return kept[:p] + (seg[::-1] if rev else seg) + kept[p:]
    return None


def three_opt_path(
    instance: TSPInstance, start: HamPath, max_rounds: int = 10_000
) -> HamPath:
    """3-opt-lite: alternate best-improvement 2-opt and Or-opt to a joint optimum.

    Segment relocation (Or-opt) plus segment reversal (2-opt) covers the
    practically important subset of 3-opt reconnections; the full 7-case
    3-opt brings little extra at reduction-instance scale.  Kept under the
    classic name so engine tables read naturally.
    """
    cur = start
    for _ in range(max_rounds):
        improved = two_opt_path(instance, cur)
        improved = or_opt_path(instance, improved)
        if improved.length >= cur.length - _EPS:
            return improved
        cur = improved
    return cur
