"""Drive the program the way users run it: a ``repro.service.serve``
subprocess over keep-alive HTTP, and plan-CLI subprocesses.

Load is a closed loop: each client sends its next request only when the
previous reply has arrived, over one persistent ``http.client``
connection, as a session-reusing client does.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from workloads import Op, cli_argv

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLK_TCK = os.sysconf("SC_CLK_TCK")
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
RSS_AFTER_OPS = 100


def child_env() -> Dict[str, str]:
    """The environment of every program process: this checkout's
    ``src`` on ``PYTHONPATH`` and no inherited store or run-store
    location, so nothing is read or written outside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@dataclass
class Result:
    """One completed op as the client saw it."""

    index: int  # dispatch order
    op: Op
    seconds: float
    status: int  # 0: transport error
    body: bytes = b""


@dataclass
class Run:
    results: List[Result] = field(default_factory=list)
    seconds: float = 0.0  # timed wall clock
    cpu_seconds: float = 0.0  # program user+sys over the timed window
    peak_rss_mb: float = 0.0


class Server:
    """A ``python -m repro.service.serve --port 0`` child. ``start()``
    returns once ``/healthz`` answers; use the started server as a
    context manager so the child is always terminated."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> "Server":
        log = open(self.workdir / "server.log", "ab")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service.serve", "--port", "0"],
                stdout=subprocess.PIPE, stderr=log, env=child_env(),
                cwd=self.workdir,
            )
        finally:
            log.close()
        try:
            line = self.proc.stdout.readline().decode()
            # "serving plans on http://127.0.0.1:PORT (...)"
            self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        return self

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server did not become ready")
            time.sleep(0.01)

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> Dict[str, object]:
        return json.loads(self.get("/stats")[1])

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK  # utime + stime

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class _Dispatcher:
    """Hands out the shared op sequence in order, to any client, and
    reads the server's peak RSS once ``RSS_AFTER_OPS`` ops completed."""

    def __init__(self, ops: Iterator[Op], server: Optional[Server] = None) -> None:
        self._ops = ops
        self._server = server
        self._lock = threading.Lock()
        self._next = 0
        self._done = 0
        self.peak_rss_mb: Optional[float] = None

    def completed(self) -> None:
        with self._lock:
            self._done += 1
            if self._done == RSS_AFTER_OPS and self._server is not None:
                self.peak_rss_mb = self._server.peak_rss_mb()

    def take(self):
        """``(index, op)``, or ``None`` once the sequence has ended."""
        with self._lock:
            op = next(self._ops, None)
            if op is None:
                return None
            self._next += 1
            return self._next - 1, op


def _client(port: int, dispatcher: _Dispatcher, deadline: float, out: List[Result]) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        while time.perf_counter() < deadline:
            taken = dispatcher.take()
            if taken is None:
                break
            index, op = taken
            data = json.dumps(op.body).encode()
            started = time.perf_counter()
            try:
                conn.request("POST", op.path, body=data,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                body = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                conn.close()  # reconnects on the next request
                body, status = b"", 0
            out.append(Result(index, op, time.perf_counter() - started, status, body))
            dispatcher.completed()
    finally:
        conn.close()


def send_each(server: Server, ops: List[Op]) -> List[Result]:
    """Send ``ops`` one after another on one connection (set-up)."""
    out: List[Result] = []
    _client(server.port, _Dispatcher(iter(ops)), float("inf"), out)
    return out


def closed_loop(server: Server, ops: Iterator[Op], seconds: float, clients: int) -> Run:
    """``clients`` keep-alive clients in a closed loop for ``seconds``.
    Peak RSS is read after a fixed number of ops, so a program that gets
    through more of ``cold-sweep``'s growing working set in the same
    time does not read as using more memory."""
    dispatcher = _Dispatcher(ops, server)
    outs: List[List[Result]] = [[] for _ in range(clients)]
    cpu_before = server.cpu_seconds()
    started = time.perf_counter()
    threads = [
        threading.Thread(target=_client, args=(server.port, dispatcher, started + seconds, out))
        for out in outs
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    cpu = server.cpu_seconds() - cpu_before
    results = sorted((r for out in outs for r in out), key=lambda r: r.index)
    peak = dispatcher.peak_rss_mb
    return Run(results, elapsed, cpu, server.peak_rss_mb() if peak is None else peak)


def run_cli(op: Op, cache_dir: Optional[str], workdir: Path):
    """One CLI process: (result, user+sys CPU seconds, max RSS in MB)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable] + cli_argv(op, cache_dir),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(),
        cwd=workdir,
    )
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - started
    ok = 200 if proc.returncode == 0 else 0
    return (
        Result(0, op, seconds, ok, out),
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
    )


def cli_loop(ops: Iterator[Op], seconds: float, cache_dir: str, workdir: Path) -> Run:
    """CLI invocations one at a time for ``seconds``."""
    run = Run()
    started = time.perf_counter()
    index = 0
    while time.perf_counter() < started + seconds:
        result, cpu, rss = run_cli(next(ops), cache_dir, workdir)
        result.index = index
        index += 1
        run.results.append(result)
        run.cpu_seconds += cpu
        run.peak_rss_mb = max(run.peak_rss_mb, rss)
    run.seconds = time.perf_counter() - started
    return run
