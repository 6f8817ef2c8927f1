"""Per-layer numbers from a traced run: spans plus ``/metrics`` deltas.

Every metric in :data:`PER_LAYER` is either measured or reported as
:data:`MISSING` (-1; every measured value is non-negative): a layer whose
wrapper could not be installed, or that recorded no samples in the timed
window, is missing, never zero.  Counts of an installed layer that really
did nothing (``tsp.lk_calls`` on warm traffic) are measured zeros.
"""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict

from tracer import ENVELOPES, LAYERS

MISSING = -1.0

#: name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "net.overhead_ms_mean": "ms",
    "net.http_ms_mean": "ms",
    "protocol.decode_ms_mean": "ms",
    "protocol.encode_ms_mean": "ms",
    "canonical.ms_mean": "ms",
    "canonical.instance_ms_mean": "ms",
    "analysis.apsp_per_request": "count",
    "analysis.block_hit_rate": "ratio",
    "cache.hit_rate": "ratio",
    "cache.get_us_mean": "us",
    "server.submit_ms_mean": "ms",
    "server.queue_wait_ms_mean": "ms",
    "server.worker_util": "ratio",
    "server.approx_share": "ratio",
    "shm_pool.hop_ms_mean": "ms",
    "shm_pool.publish_share": "ratio",
    "reduction.reduce_ms_mean": "ms",
    "reduction.reconstruct_ms_mean": "ms",
    "tsp.held_karp_ms_mean": "ms",
    "tsp.lk_ms_mean": "ms",
    "tsp.held_karp_calls": "count",
    "tsp.lk_calls": "count",
    "labeling.verify_ms_mean": "ms",
    "partition.diameter2_calls": "count",
    "approx.ms_mean": "ms",
    "approx.gap_mean": "count",
    "batch.dedup_share": "ratio",
    "batch.pool_ms_mean": "ms",
    "answers.certified_share": "ratio",
    "loadgen.lag_ms_max": "ms",
    "trace.unaccounted_share": "ratio",
    "trace.overhead": "ratio",
}


def load_spans(directory: str) -> tuple[list[tuple], dict]:
    """Every span row written under ``directory`` and the install report."""
    rows = []
    for path in glob.glob(os.path.join(directory, "spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            rows.extend(tuple(json.loads(line)) for line in fh if line.strip())
    try:
        with open(os.path.join(directory, "install.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    except FileNotFoundError:
        report = {"installed": [], "missing": list(LAYERS)}
    return rows, report


def _mean(values, scale: float = 1.0) -> float:
    values = list(values)
    return scale * sum(values) / len(values) if values else MISSING


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else MISSING


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def span_metrics(rows, installed, requests, window) -> dict[str, float]:
    """Layer means, counts and the per-request reconciliation.

    ``requests`` maps tag -> (sent, done) client timestamps; ``window`` is
    the timed interval, which drops set-up spans (warm-up lap, probe).
    """
    lo, hi = window
    rows = [r for r in rows if lo <= r[1] <= hi]
    by_layer = defaultdict(list)
    for r in rows:
        by_layer[r[0]].append(r)

    def dur(layer, scale=1e3):
        if layer not in installed:
            return MISSING
        return _mean((r[2] - r[1] for r in by_layer[layer]), scale)

    def count(layer, pred=lambda r: True):
        if layer not in installed:
            return MISSING
        return float(sum(1 for r in by_layer[layer] if pred(r)))

    tsp = by_layer["tsp.solve_path"]
    out = {
        "protocol.decode_ms_mean": dur("protocol.decode"),
        "protocol.encode_ms_mean": dur("protocol.encode"),
        "canonical.ms_mean": dur("canonical.form"),
        "canonical.instance_ms_mean": dur("canonical.instance"),
        "cache.get_us_mean": dur("cache.get", 1e6),
        "server.submit_ms_mean": dur("server.submit"),
        "reduction.reduce_ms_mean": dur("reduction.reduce"),
        "reduction.reconstruct_ms_mean": dur("reduction.reconstruct"),
        "labeling.verify_ms_mean": dur("labeling.verify"),
        "approx.ms_mean": dur("approx"),
        "batch.pool_ms_mean": dur("parallel.map"),
        "tsp.held_karp_calls": count("tsp.solve_path", lambda r: r[7] == "held_karp"),
        "tsp.lk_calls": count("tsp.solve_path", lambda r: r[7] == "lk"),
        "partition.diameter2_calls": count("partition.diameter2"),
    }
    if "tsp.solve_path" in installed:
        out["tsp.held_karp_ms_mean"] = _mean(
            (r[2] - r[1] for r in tsp if r[7] == "held_karp"), 1e3)
        out["tsp.lk_ms_mean"] = _mean((r[2] - r[1] for r in tsp if r[7] == "lk"), 1e3)
    else:
        out["tsp.held_karp_ms_mean"] = out["tsp.lk_ms_mean"] = MISSING
    gaps = [r[7] for r in by_layer["approx"] if r[7] is not None]
    out["approx.gap_mean"] = _mean(gaps) if "approx" in installed else MISSING
    trips = [r for r in by_layer["shm_pool.roundtrip"] if r[7] is not None]
    out["shm_pool.hop_ms_mean"] = (
        _mean(((r[2] - r[1]) - r[7] for r in trips), 1e3)
        if "shm_pool.roundtrip" in installed else MISSING
    )
    out["shm_pool.publish_share"] = (
        _ratio(len(by_layer["shm_pool.publish"]), len(by_layer["shm_pool.roundtrip"]))
        if {"shm_pool.publish", "shm_pool.roundtrip"} <= set(installed) else MISSING
    )

    # per-request reconciliation: spans by tag, pool-worker spans by key
    key_tag = {r[6]: r[5] for r in by_layer["shm_pool.roundtrip"] if r[5]}
    per_tag = defaultdict(list)
    for r in rows:
        tag = r[5] if r[5] is not None else key_tag.get(r[6])
        if tag is not None:
            per_tag[tag].append(r)
    envelope, uncovered, latency = [], 0.0, 0.0
    for tag, (sent, done) in requests.items():
        spans = per_tag.get(tag, [])
        covered = _union(
            (max(sent, r[1]), min(done, r[2]))
            for r in spans
            if r[0] not in ENVELOPES and r[2] > sent and r[1] < done
        )
        uncovered += (done - sent) - covered
        latency += done - sent
        served = [r[2] - r[1] for r in spans if r[0] == "net.serve"]
        if served:
            envelope.append((done - sent) - served[0])
    out["net.overhead_ms_mean"] = (
        _mean(envelope, 1e3) if "net.serve" in installed else MISSING
    )
    out["trace.unaccounted_share"] = _ratio(uncovered, latency) if requests else MISSING
    return out


def window_metrics(before: dict, after: dict) -> dict[str, float]:
    """Layer numbers from two ``/metrics`` scrapes around the timed window."""

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    hits, misses = delta("repro_cache_hits_total"), delta("repro_cache_misses_total")
    bhits = delta("repro_oracle_block_hits_total")
    bmiss = delta("repro_oracle_block_misses_total")
    busy = delta("repro_worker_busy_seconds")
    idle = delta("repro_worker_idle_seconds")
    return {
        "net.http_ms_mean": _ratio(
            1e3 * delta("repro_http_request_seconds_sum"),
            delta("repro_http_request_seconds_count")),
        "analysis.apsp_per_request": _ratio(
            delta("repro_apsp_runs_total"), delta("repro_server_submitted_total")),
        "analysis.block_hit_rate": _ratio(bhits, bhits + bmiss),
        "cache.hit_rate": _ratio(hits, hits + misses),
        "server.queue_wait_ms_mean": _ratio(
            1e3 * delta("repro_request_queue_seconds_sum"),
            delta("repro_request_queue_seconds_count")),
        "server.worker_util": _ratio(busy, busy + idle),
        "server.approx_share": _ratio(
            delta('repro_router_requests_total{tier="approx"}'),
            delta("repro_router_requests_total")),
    }
