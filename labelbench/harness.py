"""Starting, watching and stopping the program's processes.

:class:`Server` runs ``python -m repro serve`` (the ``repro-label serve``
defaults, ephemeral port), or :mod:`program` with tracing, and reports
how long it took until a probe solve answered.  :class:`BatchProgram`
runs the in-process batch path through :mod:`program`.  :class:`RssWatch`
samples the high-water resident memory of a process and all its
descendants.  Every process started here is stopped and waited for.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from client import Client

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE = json.dumps(
    {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]], "p": [2, 1], "tier": "exact"}
).encode()


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


class _Lines:
    """Drains a pipe on a thread; lines are read from a queue."""

    def __init__(self, pipe) -> None:
        self.queue: queue.Queue = queue.Queue()
        self.tail: list[str] = []
        self.thread = threading.Thread(target=self._pump, args=(pipe,), daemon=True)
        self.thread.start()

    def _pump(self, pipe) -> None:
        for line in pipe:
            self.queue.put(line)
            self.tail = (self.tail + [line])[-40:]
        self.queue.put(None)

    def wait_for(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.queue.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"program did not print {prefix!r} in {timeout}s")
            if line is None:
                raise RuntimeError(
                    f"program exited before {prefix!r}:\n" + "".join(self.tail)
                )
            if line.startswith(prefix):
                return line


class _Process:
    """A program process that is always stopped and reaped."""

    proc: subprocess.Popen

    def stop(self, timeout: float = 60.0) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()
        return self.proc.returncode

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class Server(_Process):
    """One server process; ``setup_s`` is launch-to-first-answer time."""

    def __init__(self, trace_dir: str | None = None) -> None:
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            cmd = [sys.executable, str(HERE / "program.py"), "serve",
                   "--port", "0", "--trace", trace_dir]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            self.lines = _Lines(self.proc.stderr)
            url = self.lines.wait_for("serving on", 120).split()[-1]
            host, port = url.split("//", 1)[1].rsplit(":", 1)
            self.client = Client(host, int(port))
            conn = self.client.connect()
            try:
                conn.request("POST", "/solve", PROBE)
                resp = conn.getresponse()
                resp.read()
                if resp.status != 200:
                    raise RuntimeError(f"probe solve answered HTTP {resp.status}")
            finally:
                conn.close()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def metrics(self) -> dict[str, float]:
        """``/metrics`` samples by full name, plus each name summed over labels."""
        totals: dict[str, float] = {}
        for line in self.client.get("/metrics").decode().splitlines():
            if not line or line.startswith("#"):
                continue
            sample, _, value = line.rpartition(" ")
            name = sample.split("{", 1)[0]
            totals[name] = totals.get(name, 0.0) + float(value)
            if sample != name:
                totals[sample] = float(value)
        return totals


class BatchProgram(_Process):
    """The batch path in its own process; ``setup_s`` is launch-to-ready."""

    def __init__(self, inputs: str, outputs: str, workers: int,
                 trace_dir: str | None = None) -> None:
        cmd = [sys.executable, str(HERE / "program.py"), "batch", inputs, outputs,
               "--workers", str(workers)]
        if trace_dir is not None:
            cmd += ["--trace", trace_dir]
        self.outputs = outputs
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            self.lines = _Lines(self.proc.stdout)
            self.errors = _Lines(self.proc.stderr)
            self.lines.wait_for("ready", 120)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def run(self, timeout: float = 170.0) -> list[dict]:
        """Start the batches; returns the program's per-batch records."""
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        try:
            self.lines.wait_for("done", timeout)
        except RuntimeError as exc:
            raise RuntimeError(f"{exc}\n{''.join(self.errors.tail)}") from None
        with open(self.outputs, encoding="utf-8") as fh:
            return json.load(fh)


class RssWatch:
    """Peak resident memory of a process tree, sampled on a thread.

    Each sample sums ``VmHWM`` (every process's own high-water mark so
    far) over the processes alive at that moment; the result is the
    largest such sum, so short-lived pool workers count while they live
    and are not added up across their successive generations.
    """

    def __init__(self, pid: int, interval: float = 0.05) -> None:
        self.pid, self.interval = pid, interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _tree(self) -> list[int]:
        pids, todo = [], [self.pid]
        while todo:
            pid = todo.pop()
            pids.append(pid)
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children") as fh:
                        todo.extend(int(c) for c in fh.read().split())
            except OSError:
                continue
        return pids

    def sample(self) -> None:
        total = 0
        for pid in self._tree():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
                            break
            except OSError:
                continue
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def stop(self) -> float:
        """Stop sampling; returns the peak in MiB."""
        self.sample()
        self._stop.set()
        self._thread.join()
        return self.peak_kb / 1024.0
