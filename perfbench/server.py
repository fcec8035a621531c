"""Process and wire helpers: start/stop a server, talk HTTP, read /proc.

Everything here runs in the load-generator process.  The server is a
child process started from the checkout's sources (``PYTHONPATH=src``);
it receives only the generated edge list and HTTP requests.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
HERE = Path(__file__).resolve().parent

#: Engine shape every workload serves: DW over the array backend.  All
#: serving knobs (fsync, coalescing window, checkpoint interval, kernel,
#: trace sampling) stay at the shipped defaults.
ENGINE_CONFIG = {"semantics": "DW", "backend": "array"}

BOOT_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 30.0

#: Servers started and not yet stopped, so an aborted run can reap them.
_live: List["Server"] = []


def child_env() -> Dict[str, str]:
    """Environment for every child: checkout sources, checkout-local caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    env.pop("REPRO_BACKEND", None)
    env.pop("REPRO_KERNEL", None)
    return env


class Server:
    """One running ``repro.serve`` child with its own WAL directory."""

    def __init__(
        self,
        workdir: Path,
        edgelist: Path,
        launcher_args: Optional[List[str]] = None,
    ) -> None:
        self.wal_dir = workdir / "wal"
        if self.wal_dir.exists():
            shutil.rmtree(self.wal_dir)
        config = workdir / "engine.json"
        config.write_text(json.dumps(ENGINE_CONFIG), encoding="utf-8")
        serve_args = [
            "--config", str(config),
            "--load", str(edgelist),
            "--wal-dir", str(self.wal_dir),
            "--port", "0",
        ]
        if launcher_args is None:
            cmd = [sys.executable, "-m", "repro.serve", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "launcher.py"), *launcher_args, "--", *serve_args]
        self._log = (workdir / "server.log").open("ab")
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=str(ROOT),
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        _live.append(self)
        self.port = self._await_listening()

    def _await_listening(self) -> int:
        deadline = self.spawned_at + BOOT_TIMEOUT_S
        assert self.proc.stdout is not None
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("server did not start; see server.log")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if not ready:
                continue
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_seconds(self) -> float:
        """CPU time of all server threads so far, at nanosecond resolution.

        ``/proc/<pid>/task/*/schedstat`` counts on-CPU time per thread
        (user + system); the tick-based ``/proc/<pid>/stat`` fields would
        quantize a 10 s window to 1 %.
        """
        total = 0
        for task in Path(f"/proc/{self.pid}/task").iterdir():
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except (FileNotFoundError, ProcessLookupError):  # thread exited mid-walk
                continue
        return total / 1e9

    def peak_rss_mb(self) -> float:
        """Peak resident set size (VmHWM) in MiB."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def disk_bytes(self) -> int:
        """Bytes of every file in the WAL directory (log + checkpoints)."""
        total = 0
        for path in self.wal_dir.rglob("*"):
            try:
                if path.is_file():
                    total += path.stat().st_size
            except FileNotFoundError:  # a checkpoint pruned mid-walk
                continue
        return total

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait, and reap; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        if self in _live:
            _live.remove(self)
        return self.proc.returncode


def stop_all() -> None:
    """Stop every server this process started and has not stopped yet."""
    for server in list(_live):
        server.stop()


class Client:
    """A keep-alive HTTP connection that never raises on HTTP errors."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)

    def request(self, method: str, path: str, body: Optional[object] = None) -> Tuple[int, object]:
        """Send one request; ``(status, parsed body)`` or ``(0, error)``."""
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload is not None else {}
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
            return 0, f"{type(exc).__name__}: {exc}"
        if response.getheader("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(raw)
        return response.status, raw.decode("utf-8", "replace")

    def close(self) -> None:
        self._conn.close()


def parse_prometheus(text: str) -> Dict[str, float]:
    """``{'name{labels}': value}`` for every sample line of a scrape."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples
