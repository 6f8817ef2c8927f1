"""The benchmark's HTTP client: open-loop and closed-loop load.

Both loops use at most ``connections`` keep-alive connections, one
thread each.  Request bodies are serialized before timing starts and
responses are parsed after it ends, so the client's own JSON work stays
out of the measured path.

Open loop: a seeded Poisson schedule of due times; a connection takes
the next due request, waits until it is due, and sends it.  Latency is
timed from the due time, so a stall delays every later request's clock,
and ``lag`` records how late each send ran.  Closed loop: each connection
sends its next request as soon as the previous answer arrives; latency is
timed from the send.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Sample:
    """One request's fate on the wire (perf_counter timestamps)."""

    tag: str
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        """Seconds from due (open loop) or send (closed loop) to answer."""
        return self.done - (self.due or self.sent)


@dataclass
class Phase:
    """Outcome of one open- or closed-loop run."""

    samples: list[Sample]
    start: float
    end: float
    offered_rps: float = 0.0
    lags: list[float] = field(default_factory=list)


def body(tag: str, inst: dict, tier: str) -> bytes:
    """Wire body; ``tag`` first so the tracer can read it without decoding."""
    return json.dumps(
        {
            "tag": tag,
            "n": inst["n"],
            "edges": inst["edges"],
            "p": inst["p"],
            "engine": "auto",
            "tier": tier,
        }
    ).encode()


class Client:
    """Keep-alive connections to one server."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def get(self, path: str) -> bytes:
        conn = self.connect()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            data = resp.read()
            if resp.status != 200:
                raise RuntimeError(f"GET {path}: HTTP {resp.status}")
            return data
        finally:
            conn.close()

    @staticmethod
    def _send(conn, payload: bytes, sample: Sample) -> http.client.HTTPConnection:
        """POST one body; returns the connection to use next."""
        try:
            conn.request(
                "POST", "/solve", payload, {"Content-Type": "application/json"}
            )
            resp = conn.getresponse()
            sample.body = resp.read()
            sample.status = resp.status
        except (OSError, http.client.HTTPException) as exc:
            sample.error = f"{type(exc).__name__}: {exc}"
            conn.close()
            conn = http.client.HTTPConnection(conn.host, conn.port, timeout=conn.timeout)
        sample.done = time.perf_counter()
        return conn

    def _run(self, payloads, samples, connections, due=None) -> None:
        lock = threading.Lock()
        cursor = iter(range(len(payloads)))

        def loop() -> None:
            conn = self.connect()
            try:
                while True:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        return
                    if due is not None:
                        wait = due[i] - time.perf_counter()
                        if wait > 0:
                            time.sleep(wait)
                        samples[i].due = due[i]
                    samples[i].sent = time.perf_counter()
                    conn = self._send(conn, payloads[i], samples[i])
            finally:
                conn.close()

        threads = [threading.Thread(target=loop) for _ in range(connections)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def closed_loop(self, tags, payloads, connections: int) -> Phase:
        samples = [Sample(tag) for tag in tags]
        start = time.perf_counter()
        self._run(payloads, samples, connections)
        return Phase(samples, start, time.perf_counter())

    def open_loop(self, tags, payloads, connections: int, rate: float, seed: int) -> Phase:
        """Send ``payloads`` on a seeded Poisson schedule at ``rate`` per second."""
        rng = random.Random(seed)
        gaps = [rng.expovariate(rate) for _ in payloads]
        start = time.perf_counter() + 0.05
        due, t = [], start
        for g in gaps:
            t += g
            due.append(t)
        samples = [Sample(tag) for tag in tags]
        self._run(payloads, samples, connections, due=due)
        phase = Phase(samples, start, time.perf_counter())
        phase.offered_rps = len(due) / (due[-1] - start)
        phase.lags = [s.sent - s.due for s in samples]
        return phase


def open_loop_valid(phase: Phase) -> str:
    """Empty when the generator kept up; else why the run is invalid.

    Invalid when the achieved send rate falls below 95 % of the offered
    rate, or when the backlog grows: the mean send lag of the last quarter
    of the schedule exceeds that of the first quarter by more than 20 ms.
    """
    achieved = len(phase.samples) / (
        max(s.sent for s in phase.samples) - phase.start
    )
    if achieved < 0.95 * phase.offered_rps:
        return f"achieved {achieved:.1f}/s < 95% of offered {phase.offered_rps:.1f}/s"
    q = max(1, len(phase.lags) // 4)
    first = sum(phase.lags[:q]) / q
    last = sum(phase.lags[-q:]) / q
    if last > first + 0.020:
        return f"backlog grew: mean lag {first * 1e3:.1f} ms -> {last * 1e3:.1f} ms"
    return ""
