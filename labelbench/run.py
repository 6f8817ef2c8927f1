#!/usr/bin/env python3
"""Benchmark of the L(p)-labeling server, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 labelbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program runs in its own processes (``python -m repro serve`` with its
defaults for the wire workloads, the in-process batch path for
``batch_dedup``); this process only generates the seeded inputs, drives
them, checks every answer with :mod:`check`, and prints the metrics.  The
last line of stdout is one JSON object: with ``--trace 0`` the end-to-end
metrics of an untraced run, with ``--trace 1`` the per-layer metrics of a
traced run (plus an untraced pass of the same traffic for
``trace.overhead``).  Exit status is 0 only when every answer passed the
checker; a checker violation prints the result with ``"correct": false``
and exits 1.

``--write-manifest`` recomputes the pinned input digests in
``manifest.json`` (run it only when the inputs are meant to change).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402

MANIFEST = HERE / "manifest.json"
#: Server (or batch program) launches per run; set-up time is their median.
SETUPS = 3


def connections() -> int:
    """Client connections (and batch pool width): nproc, at most 2."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(2, cpus))


END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "span_ratio": "ratio",
    "peak_rss_mb": "MiB",
}


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------
class Workload:
    """Seeded inputs of one workload; ``why`` is its line in BENCHMARK.json.

    ``rate_window`` answers make one throughput window (``None``: one per
    closed-loop segment); throughput is the median over a run's windows.
    """

    name = ""
    why = ""
    tier = "exact"
    rate_window: int | None = None
    #: timed traffic is cut in this many alternating open/closed segments
    segments = 1

    def inputs(self, seed: int, seconds: int) -> dict:
        raise NotImplementedError

    def flat(self, inputs: dict) -> list[dict]:
        """Every generated instance, in generation order (for the digest)."""
        out = []
        for value in inputs.values():
            for item in value:
                out.extend(item if isinstance(item, list) else [item])
        return out


class WarmRepeat(Workload):
    name = "warm_repeat"
    why = ("isomorphic relabelings of 16 pre-solved n=32..64 instances: every "
           "request is a cache hit, so decode, HTTP, canonicalization and the "
           "cache probe do all the work and the engine never runs")
    strata = [(f, n) for f in ("diam2", "split", "cograph") for n in (32, 48, 64)]
    #: open-loop rate, well below the ~165/s closed-loop capacity: at 80/s
    #: the tail already moved by +-20% between repetitions
    open_rate = 40.0
    #: open- and closed-loop requests per second of --seconds
    open_per_second = 25
    closed_per_second = 75
    segments = 5

    def inputs(self, seed, seconds):
        rng = random.Random(seed)
        pool = gen.stratified(rng, self.strata, 16)
        n_open = max(20 * self.segments, round(self.open_per_second * seconds))
        n_closed = max(20 * self.segments, round(self.closed_per_second * seconds))
        stream = []
        while len(stream) < n_open + n_closed:
            order = list(range(len(pool)))
            rng.shuffle(order)
            stream += [gen.relabeled(pool[i], rng) for i in order]
        return {
            "warm": pool,
            "open": stream[:n_open],
            "closed": stream[n_open:n_open + n_closed],
        }


class ColdExact(Workload):
    name = "cold_exact"
    why = ("distinct never-seen instances, tier=exact: diameter-2 random, split "
           "and cograph under L(2,1) plus diameter-3 under L(2,1,1), n=12..48; "
           "the TSP engine and the shm pool dominate, the cache never hits")
    strata = [(f, n) for f in ("diam2", "split", "cograph", "diam3")
              for n in (12, 16, 24, 32, 48)]
    rate = 12.0
    rate_window = len(strata)

    def inputs(self, seed, seconds):
        rng = random.Random(seed)
        laps = max(2, round(self.rate * seconds / len(self.strata)))
        return {"warm": [], "closed": gen.stratified(rng, self.strata, laps * len(self.strata))}


class LargeAuto(Workload):
    name = "large_auto"
    why = ("distinct n=260..320 diameter-2 and split instances, tier=auto: the "
           "router sends all to the approx tier by size; lazy-oracle "
           "canonicalization, 100-300 KB JSON bodies and approx dominate")
    strata = [(f, n) for f in ("diam2_sparse", "split") for n in (260, 288, 320)]
    tier = "auto"
    rate = 3.0
    rate_window = len(strata)

    def inputs(self, seed, seconds):
        rng = random.Random(seed)
        laps = max(2, round(self.rate * seconds / len(self.strata)))
        return {"warm": [], "closed": gen.stratified(rng, self.strata, laps * len(self.strata))}


class BatchDedup(Workload):
    name = "batch_dedup"
    why = ("in-process LabelingService.submit_many batches of 6: three distinct "
           "cold instances (n=16, 24, 32) and three relabelings of earlier ones, "
           "so BatchSolver dedup and the parallel_map pool path do the work")
    families = ("diam2", "split", "cograph")
    sizes = (16, 24, 32)
    rate = 4.0  # batches budgeted per second of --seconds
    batch = 2 * len(sizes)
    rate_window = 5  # batches

    def inputs(self, seed, seconds):
        rng = random.Random(seed)
        count = max(2 * self.rate_window, round(self.rate * seconds))
        seen, batches = [], []
        for b in range(count):
            colds = [gen.instance(self.families[(b + j) % 3], n, rng)
                     for j, n in enumerate(self.sizes)]
            slots = ["dup"] * len(colds) + colds
            head = [] if b else [slots.pop()]  # the very first request is cold
            rng.shuffle(slots)
            items = []
            for slot in head + slots:
                if slot == "dup":
                    items.append(gen.relabeled(rng.choice(seen), rng))
                else:
                    seen.append(slot)
                    items.append(slot)
            batches.append(items)
        return {"batches": batches}


WORKLOADS = {w.name: w for w in (WarmRepeat(), ColdExact(), LargeAuto(), BatchDedup())}
#: Runnable with ``--workload`` but not listed in BENCHMARK.json: on the
#: 2-vCPU host the benchmark was defined on, the host's CPU steal moved its
#: latency tail by more over ten seeds (quartile spread 0.26) than the
#: largest bound a listed metric may have (0.25).
UNLISTED = ("warm_repeat",)


def reference_digest(workload: Workload) -> str:
    """Digest of the workload's inputs at the pinned seed and one second."""
    return gen.digest(workload.flat(workload.inputs(gen.REFERENCE_SEED, 1)))


# ---------------------------------------------------------------------------
# checking answers
# ---------------------------------------------------------------------------
class Answers:
    """Checks answers against their requests and tallies quality."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.ratios: list[float] = []
        self.certified = self.cached = self.approx = self.corollary2 = 0
        self.errors: list[str] = []

    def add(self, inst: dict, tag: str, answer: dict | None, error: str = "") -> None:
        self.attempted += 1
        try:
            if error:
                raise check.CheckError(error)
            if not isinstance(answer, dict):
                raise check.CheckError("answer is not a JSON object")
            if answer.get("tag") != tag:
                raise check.CheckError(f"answer tag {answer.get('tag')!r} != {tag!r}")
            dist = check.distances(inst["n"], inst["edges"])
            lb = check.lower_bound(inst["n"], inst["edges"], inst["p"], dist)
            check.check_answer(inst, answer, dist, lb)
        except check.CheckError as exc:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{tag}: {exc}")
            return
        span, p = answer["span"], inst["p"]
        self.ratios.append(span / lb if lb else 1.0)
        # Corollary 2 (partition into paths) covers L(p,q), p <= 2q, diameter <= 2
        self.corollary2 += len(p) == 2 and max(p) <= 2 * min(p) and int(dist.max()) <= 2
        self.certified += bool(answer.get("exact")) or span == lb
        self.cached += bool(answer.get("cached"))
        self.approx += answer.get("tier") == "approx"

    def add_wire(self, insts, phase) -> None:
        for inst, s in zip(insts, phase.samples):
            if s.error or s.status != 200:
                self.add(inst, s.tag, None, s.error or f"HTTP {s.status}: {s.body[:120]!r}")
                continue
            try:
                answer = json.loads(s.body)
            except ValueError:
                self.add(inst, s.tag, None, "response is not JSON")
                continue
            self.add(inst, s.tag, answer)

    def merge(self, other: "Answers") -> None:
        """Count ``other``'s checks (not its quality tallies) in this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors

    def share(self, count: int) -> float:
        """``count`` over the answers tallied here (merged ones excluded)."""
        return count / len(self.ratios) if self.ratios else 0.0

    @property
    def span_ratio(self) -> float:
        return sum(self.ratios) / len(self.ratios) if self.ratios else 0.0


# ---------------------------------------------------------------------------
# wire workloads
# ---------------------------------------------------------------------------
def _drive(server, kind: str, insts, tier: str, seed: int):
    import client

    tags = [f"{kind}{seed}-{i}" for i in range(len(insts))]
    bodies = [client.body(t, inst, tier) for t, inst in zip(tags, insts)]
    if kind == "open":
        return server.client.open_loop(
            tags, bodies, connections(), WarmRepeat.open_rate, seed)
    return server.client.closed_loop(tags, bodies, connections())


def _segments(wl, inputs, kinds):
    """``(kind, instances)`` in run order: each kind cut in ``wl.segments``
    pieces, alternated, so every phase samples the whole run's host state."""
    out = []
    for i in range(wl.segments):
        for kind in kinds:
            if kind in inputs:
                items = inputs[kind]
                lo, hi = len(items) * i // wl.segments, len(items) * (i + 1) // wl.segments
                out.append((kind, items[lo:hi]))
    return out


def _serve(wl, inputs, seed, answers, trace_dir=None, kinds=("open", "closed")):
    """One server's life: warm lap, timed segments, scrapes; returns facts."""
    from harness import RssWatch, Server

    with Server(trace_dir) as srv:
        rss = RssWatch(srv.proc.pid)
        t0 = time.perf_counter()
        if inputs["warm"]:
            warm = _drive(srv, "warm", inputs["warm"], wl.tier, seed)
            answers.add_wire(inputs["warm"], warm)
        warm_s = time.perf_counter() - t0
        before = srv.metrics()
        phases = [
            (kind, insts, _drive(srv, kind, insts, wl.tier, seed * 100 + i))
            for i, (kind, insts) in enumerate(_segments(wl, inputs, kinds))
        ]
        after = srv.metrics()
        peak = rss.stop()
        return {"srv_setup": srv.setup_s, "warm_s": warm_s, "phases": phases,
                "before": before, "after": after, "peak_mb": peak}


def _rate(wl, phases) -> float:
    """Median closed-loop throughput over windows of ``wl.rate_window`` answers."""
    rates = []
    for kind, _, phase in phases:
        if kind == "closed":
            rates += check.window_rates([s.done for s in phase.samples], phase.start,
                                        wl.rate_window or len(phase.samples))
    return check.median(rates)


def _latency(segments) -> dict:
    """p50 over all samples; tail = median over segments of each one's tail."""
    pooled = [x for seg in segments for x in seg]
    return {
        "latency_p50_ms": 1e3 * check.median(pooled),
        "latency_tail_ms": 1e3 * check.median([check.tail(seg) for seg in segments]),
    }


def run_wire(wl, seed, seconds, trace, tmp):
    from client import open_loop_valid
    from harness import Server

    inputs = wl.inputs(seed, seconds)
    if trace:  # an untraced and a traced pass each send half the timed traffic
        inputs = {k: v if k == "warm" else v[:len(v) // 2] for k, v in inputs.items()}
    answers = Answers()   # every answer, set-up and timed
    timed = Answers()     # answers of the timed phases only
    notes = []
    if not trace:
        setups = []
        for _ in range(SETUPS - 1):
            with Server() as srv:
                setups.append(srv.setup_s)
        facts = _serve(wl, inputs, seed, answers)
        setups.append(facts["srv_setup"])
        phases = facts["phases"]
        invalid = []
        for kind, insts, phase in phases:
            timed.add_wire(insts, phase)
            why = open_loop_valid(phase) if kind == "open" else ""
            if why:
                invalid.append(why)
        latency = {kind: [[s.latency for s in phase.samples]
                          for k, _, phase in phases if k == kind]
                   for kind in ("open", "closed")}
        metrics = {
            "setup_s": check.median(setups) + facts["warm_s"],
            "throughput_rps": _rate(wl, phases),
            **_latency(latency["closed"]),
            "span_ratio": timed.span_ratio,
            "peak_rss_mb": facts["peak_mb"],
        }
        segments = latency["closed"]
        notes.append(f"closed-loop latency samples {sum(map(len, segments))}; tail = median "
                     f"over {len(segments)} segments of p{check.tail_percentile(len(segments[0])):.2f}")
        if invalid:  # the generator fell behind: its latencies mean nothing
            notes.append(f"open loop invalid in {len(invalid)} segment(s): {invalid[0]}")
        elif latency["open"]:
            opened = _latency(latency["open"])
            notes.append(f"open loop at {WarmRepeat.open_rate:.0f}/s, timed from due: "
                         f"p50 {opened['latency_p50_ms']:.2f} ms, "
                         f"tail {opened['latency_tail_ms']:.2f} ms")
    else:
        import layers

        untraced = _serve(wl, inputs, seed, answers)
        for _, insts, phase in untraced["phases"]:
            answers.add_wire(insts, phase)
        trace_dir = str(tmp / "trace")
        facts = _serve(wl, inputs, seed, answers, trace_dir, kinds=("closed",))
        requests = {}
        for _, insts, phase in facts["phases"]:
            timed.add_wire(insts, phase)
            requests.update({s.tag: (s.sent, s.done) for s in phase.samples})
        window = (facts["phases"][0][2].start, facts["phases"][-1][2].end)
        rows, report = layers.load_spans(trace_dir)
        metrics = {name: layers.MISSING for name in layers.PER_LAYER}
        metrics.update(layers.span_metrics(rows, report["installed"], requests, window))
        metrics.update(layers.window_metrics(facts["before"], facts["after"]))
        metrics["answers.certified_share"] = timed.share(timed.certified)
        lags = [lag for kind, _, phase in untraced["phases"] if kind == "open"
                for lag in phase.lags]
        if lags:
            metrics["loadgen.lag_ms_max"] = 1e3 * max(lags)
        metrics["trace.overhead"] = _rate(wl, facts["phases"]) / _rate(wl, untraced["phases"])
        if report["missing"]:
            notes.append(f"layers not installed: {', '.join(report['missing'])}")
    answers.merge(timed)
    notes.append(
        f"timed answers {timed.attempted}: cache hits {timed.share(timed.cached):.3f}, "
        f"approx {timed.share(timed.approx):.3f}, "
        f"corollary-2 {timed.share(timed.corollary2):.3f}, "
        f"certified {timed.share(timed.certified):.3f}, span/lb {timed.span_ratio:.4f}")
    return answers, metrics, notes


# ---------------------------------------------------------------------------
# batch workload
# ---------------------------------------------------------------------------
def _batch_life(inputs_path, out_path, answers, by_tag, trace_dir=None):
    from harness import BatchProgram, RssWatch

    with BatchProgram(str(inputs_path), str(out_path), connections(), trace_dir) as prog:
        rss = RssWatch(prog.proc.pid)
        records = prog.run()
        peak = rss.stop()
        setup = prog.setup_s
    for rec in records:
        for ans in rec["answers"]:
            answers.add(by_tag[ans["tag"]], ans["tag"], ans)
    return setup, records, peak


def run_batch(wl, seed, seconds, trace, tmp):
    from harness import BatchProgram

    batches = wl.inputs(seed, seconds)["batches"]
    if trace:  # an untraced and a traced pass each run half the batches
        batches = batches[:len(batches) // 2]
    by_tag, payload = {}, []
    for b, items in enumerate(batches):
        rows = []
        for i, inst in enumerate(items):
            tag = f"b{b}-{i}"
            by_tag[tag] = inst
            rows.append({"tag": tag, "n": inst["n"], "edges": inst["edges"], "p": inst["p"]})
        payload.append(rows)
    inputs_path, out_path = tmp / "batches.json", tmp / "answers.json"
    inputs_path.write_text(json.dumps(payload))
    answers, notes = Answers(), []

    def rate(records):
        """Median requests per second over windows of ``wl.rate_window`` batches."""
        ends = [r["end"] for r in records]
        return wl.batch * check.median(
            check.window_rates(ends, records[0]["start"], wl.rate_window))

    if not trace:
        setups = []
        for _ in range(SETUPS - 1):
            with BatchProgram(str(inputs_path), str(out_path), connections()) as prog:
                setups.append(prog.setup_s)
        setup, records, peak = _batch_life(inputs_path, out_path, answers, by_tag)
        setups.append(setup)
        lat = [r["end"] - r["start"] for r in records]
        metrics = {
            "setup_s": check.median(setups),
            "throughput_rps": rate(records),
            "latency_p50_ms": 1e3 * check.median(lat),
            "latency_tail_ms": 1e3 * check.tail(lat),
            "span_ratio": answers.span_ratio,
            "peak_rss_mb": peak,
        }
        notes.append(f"batch latency samples {len(lat)}, "
                     f"tail = p{check.tail_percentile(len(lat)):.2f}")
    else:
        import layers

        plain_answers = Answers()
        _, plain, _ = _batch_life(inputs_path, out_path, plain_answers, by_tag)
        trace_dir = str(tmp / "trace")
        _, records, _ = _batch_life(inputs_path, out_path, answers, by_tag, trace_dir)
        rows, report = layers.load_spans(trace_dir)
        windows = [(r["start"], r["end"]) for r in records]
        tagged = []
        for r in rows:  # batches run one at a time: a span belongs to its window
            tag = next((f"batch{i}" for i, (a, b) in enumerate(windows) if a <= r[1] <= b), None)
            tagged.append((*r[:5], tag, None, r[7]))
        metrics = {name: layers.MISSING for name in layers.PER_LAYER}
        metrics.update(layers.span_metrics(
            tagged, report["installed"],
            {f"batch{i}": w for i, w in enumerate(windows)},
            (windows[0][0], windows[-1][1])))
        reports = [r["report"] for r in records]
        total = sum(r["total"] for r in reports)
        metrics["batch.dedup_share"] = sum(
            r["cache_hits"] + r["deduped"] for r in reports) / total
        metrics["cache.hit_rate"] = sum(r["cache_hits"] for r in reports) / total
        metrics["answers.certified_share"] = answers.share(answers.certified)
        metrics["trace.overhead"] = rate(records) / rate(plain)
        if report["missing"]:
            notes.append(f"layers not installed: {', '.join(report['missing'])}")
        answers.merge(plain_answers)
    notes.append(f"answers {answers.attempted}: certified "
                 f"{answers.share(answers.certified):.3f}, span/lb {answers.span_ratio:.4f}")
    return answers, metrics, notes


# ---------------------------------------------------------------------------
def write_manifest() -> None:
    """Re-pin digests, request counts and tail percentiles.

    Counts and percentiles are those of an untraced run at the
    ``run_seconds`` of ``BENCHMARK.json``; other keys (the measured
    shares) are kept as they are.
    """
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    data = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    for name, wl in WORKLOADS.items():
        entry = data.setdefault(name, {})
        entry.pop("why", None)  # BENCHMARK.json holds it
        entry["reference_digest"] = reference_digest(wl)
        inputs = wl.inputs(0, seconds)
        if "batches" in inputs:
            samples = len(inputs["batches"])
            entry["requests"] = {"batches": samples, "per_batch": wl.batch}
        else:
            entry["requests"] = {k: len(v) for k, v in inputs.items()}
            samples = len(inputs["closed"]) // wl.segments
        entry["tail_percentile"] = round(check.tail_percentile(samples), 2)
    MANIFEST.write_text(json.dumps(data, indent=2) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.write_manifest:
        write_manifest()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    # a terminated run still stops the program processes it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    wl = WORKLOADS[args.workload]
    pinned = json.loads(MANIFEST.read_text())[wl.name]["reference_digest"]
    if reference_digest(wl) != pinned:
        print(f"error: {wl.name} inputs changed: digest {reference_digest(wl)} "
              f"!= pinned {pinned} in {MANIFEST.name}", file=sys.stderr)
        return 2
    tmp = ROOT / ".labelbench" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_batch if isinstance(wl, BatchDedup) else run_wire
        answers, metrics, notes = runner(wl, args.seed, args.seconds, args.trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    import layers

    units = layers.PER_LAYER if args.trace else END_TO_END
    for line in notes:
        print(f"# {line}")
    fail_rate = answers.failed / max(1, answers.attempted)
    print(f"# fail_rate {fail_rate:.4f} ({answers.failed}/{answers.attempted})")
    for err in answers.errors:
        print(f"# checker: {err}")
    missing = [k for k, v in metrics.items() if v == layers.MISSING]
    if args.trace and missing:
        print(f"# missing (-1): {', '.join(missing)}")
    for name, unit in units.items():
        print(f"# {name:32s} {metrics[name]:12.4f} {unit}")
    correct = answers.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": answers.attempted,
        "failed": answers.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
