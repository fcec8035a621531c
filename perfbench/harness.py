"""Shared pieces of a benchmark run: one server lifetime, its metrics, its oracle.

:class:`Run` owns one server from spawn to stop: the set-up probe (first
acknowledged write and first answered detect), the workload's traffic,
the post-traffic read probes and the final detect.  :func:`replay_matches`
is the correctness oracle; :func:`emit` prints a result.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from server import ENGINE_CONFIG, ROOT, SRC, Client, Server, child_env, parse_prometheus
from workloads import N_INITIAL, PROBE_ROUNDS, EdgeStream, Traffic, Workload, drive, edge_body, probe_reads


class Phases:
    """Wall time per phase of a run, printed to size ``run_seconds``."""

    def __init__(self) -> None:
        self._last = time.perf_counter()
        self._spent: List[Tuple[str, float]] = []

    def mark(self, name: str) -> None:
        now = time.perf_counter()
        self._spent.append((name, now - self._last))
        self._last = now

    def __str__(self) -> str:
        return "phases " + " ".join(f"{name}={spent:.1f}s" for name, spent in self._spent)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# ---------------------------------------------------------------------- #
# Build + environment
# ---------------------------------------------------------------------- #
def build_native() -> Dict[str, object]:
    """Compile (or reuse) the native kernels in the checkout's cache."""
    code = (
        "import json, numpy, repro.native as n; "
        "print(json.dumps({'native': n.status(), 'numpy': numpy.__version__}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=str(ROOT),
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _cc_version() -> str:
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        return "none"
    out = subprocess.run([cc, "--version"], capture_output=True, text=True, timeout=30)
    return out.stdout.splitlines()[0] if out.stdout else cc


def _source_id() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def fingerprint(build: Dict[str, object], active_kernel: str) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": build["numpy"],
        "cc": _cc_version(),
        "source": _source_id(),
        "fsync": True,
        "kernel_active": active_kernel,
        "native_available": bool(build["native"].get("available")),
    }


# ---------------------------------------------------------------------- #
# One server lifetime
# ---------------------------------------------------------------------- #
class Run:
    """Setup probe + traffic + read probes + final detect on one server."""

    def __init__(self, workload: Workload, stream: EdgeStream, workdir: Path, seed: int) -> None:
        self.workload = workload
        self.stream = stream
        self.workdir = workdir
        self.seed = seed
        self.traffic = Traffic(stream, first_increment=1)
        self.server: Optional[Server] = None
        self.kernel = "unknown"
        self.window: Tuple[float, float] = (0.0, 0.0)
        self.cpu: Dict[str, float] = {}
        self.extra_requests = 0
        self.extra_failures: List[str] = []

    def boot(self, launcher_args: Optional[List[str]] = None) -> float:
        """Start a server; seconds from spawn to first ack + first detect."""
        self.server = Server(self.workdir, self.workdir / "graph.txt", launcher_args)
        client = Client(self.server.port)
        try:
            status, reply = client.request("POST", "/v1/edges", edge_body(self.stream.increment(0)))
            self._expect(status, reply, "setup write")
            status, reply = client.request("GET", "/v1/detect")
            self._expect(status, reply, "setup detect")
            ready = time.perf_counter()
            status, health = client.request("GET", "/healthz")
            self._expect(status, health, "healthz")
            if isinstance(health, dict):
                self.kernel = str(health["kernel"]["active"])
        finally:
            client.close()
        return ready - self.server.spawned_at

    def _expect(self, status: int, reply: object, what: str) -> None:
        self.extra_requests += 1
        if status != 200:
            self.extra_failures.append(f"{what} -> {status}: {str(reply)[:200]}")

    def traffic_phase(self, seconds: float) -> None:
        assert self.server is not None
        server = self.server

        def on_window(edge: str) -> None:
            self.cpu[edge] = server.cpu_seconds()

        self.window = drive(self.workload, server.port, self.traffic, self.seed, seconds, on_window)
        probe_reads(server.port, self.traffic, PROBE_ROUNDS)
        self.reads_end = time.perf_counter()
        client = Client(server.port)
        try:
            self.traffic.detect(client, time.perf_counter())
        finally:
            client.close()
        self.rss_mb = server.peak_rss_mb()
        self.disk_end = server.disk_bytes()

    def scrape(self) -> Tuple[Dict[str, float], Dict[str, object]]:
        """``/metrics`` samples and the ``/debug/profile`` document."""
        assert self.server is not None
        client = Client(self.server.port)
        try:
            status, text = client.request("GET", "/metrics")
            self._expect(status, "", "metrics")
            status, profile = client.request("GET", "/debug/profile")
            self._expect(status, profile, "profile")
        finally:
            client.close()
        return parse_prometheus(str(text)), profile if isinstance(profile, dict) else {}

    def stop(self) -> None:
        if self.server is not None:
            code = self.server.stop()
            if code != 0:
                self.extra_failures.append(f"server exited with {code}")

    # -- results ------------------------------------------------------- #
    def generator(self) -> Dict[str, Tuple[float, str, int]]:
        """How closely the load generator kept to its schedule (run validity)."""
        t0, t1 = self.window
        due = [s for s in self.traffic.samples if t0 <= s.due < t1]
        late = [s.late_ms for s in due]
        answered = [s for s in self.traffic.samples if s.status == 200 and t0 <= s.done < t1]
        return {
            "gen.late_ms.p99": (percentile(late, 99), "ms", len(late)),
            "gen.offered_rate": (len(due) / (t1 - t0), "1/s", len(due)),
            "gen.achieved_rate": (len(answered) / (t1 - t0), "1/s", len(answered)),
        }

    @property
    def attempted(self) -> int:
        return len(self.traffic.samples) + self.extra_requests

    @property
    def failures(self) -> List[str]:
        return self.traffic.failures + self.extra_failures

    def in_window(self, kind: str) -> List:
        t0, t1 = self.window
        return [s for s in self.traffic.samples if s.kind == kind and t0 <= s.due < t1]

    def ryw_violations(self) -> List[str]:
        return [
            f"detect at version {s.version} after an ack at {s.floor}"
            for s in self.traffic.samples
            if s.kind == "detect" and s.status == 200 and s.version < s.floor
        ]

    def end_to_end(self) -> Dict[str, Tuple[float, str, int]]:
        """``{name: (value, unit, samples)}`` for the timed metrics.

        Ack latencies count writes due inside the window, open-loop ones
        from when they were due; detect latencies come from the
        write-then-detect probes after the traffic.  Disk is the WAL
        directory (log + checkpoints) per edge of the history it covers;
        CPU is the server's over the window per edge acked in it.
        """
        t0, t1 = self.window
        acks = [s for s in self.in_window("write") + self.in_window("delete") if s.status == 200]
        ack_ms = [s.latency_ms for s in acks]
        reads = [s for s in self.traffic.samples if s.kind == "detect"][:-1]
        read_ms = [s.latency_ms for s in reads if s.status == 200]
        window_acks = [
            s for s in self.traffic.samples if s.kind == "write" and s.status == 200 and t0 <= s.done < t1
        ]
        acked_in_window = sum(s.edges for s in window_acks)
        last_ack = max((s.done for s in window_acks), default=t1)
        acked_total = sum(s.edges for s in self.traffic.samples if s.kind == "write" and s.status == 200)
        cpu = self.cpu["end"] - self.cpu["start"]
        return {
            "ack_p50_ms": (percentile(ack_ms, 50), "ms", len(ack_ms)),
            "ack_p95_ms": (percentile(ack_ms, 95), "ms", len(ack_ms)),
            "ingest_eps": (acked_in_window / (last_ack - t0), "1/s", acked_in_window),
            "detect_p50_ms": (percentile(read_ms, 50), "ms", len(read_ms)),
            "detect_p90_ms": (percentile(read_ms, 90), "ms", len(read_ms)),
            "rss_mb": (self.rss_mb, "MiB", 1),
            "disk_bytes_per_edge": (
                self.disk_end / (N_INITIAL + 1 + acked_total),
                "bytes",
                acked_total,
            ),
            "cpu_us_per_edge": (cpu * 1e6 / max(1, acked_in_window), "us", acked_in_window),
        }


# ---------------------------------------------------------------------- #
# Correctness oracle
# ---------------------------------------------------------------------- #
def replay_matches(run: Run) -> List[str]:
    """Offline WAL replay through ``SpadeClient`` vs the final served detect."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.api import EngineConfig, SpadeClient
    from repro.serve.wal import WriteAheadLog, read_ops

    served = run.traffic.last_response
    if served is None:
        return ["no final detect response"]
    assert run.server is not None
    ops, _ = read_ops(WriteAheadLog.path_in(run.server.wal_dir))
    client = SpadeClient(EngineConfig(**ENGINE_CONFIG))
    client.load(run.stream.initial)
    for _seq, op in ops:
        client.apply([op])
    report = client.detect()
    problems = []
    last_seq = ops[-1][0] if ops else 0
    if served["version"] != last_seq:
        problems.append(f"final detect at version {served['version']}, WAL ends at {last_seq}")
    if served["community"] != sorted(map(str, report.vertices)):
        problems.append("final community differs from the offline replay")
    if served["density"] != report.density:
        problems.append(f"final density {served['density']!r} != replay {report.density!r}")
    return problems


def emit(correct: bool, counts: Tuple[int, int], metrics: Dict[str, Tuple[float, str, int]],
         env: Dict[str, object], workload: Workload, notes: List[str]) -> None:
    """Print the fingerprint, each metric with its sample count, then the result line."""
    attempted, failed = counts
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name}: {workload.why}")
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:<34} {value:>14.4f} {unit:<6} n={count}")
    print(f"  {'error_rate':<34} {failed / max(1, attempted):>14.4f} ratio  n={attempted}")
    for note in notes:
        print(f"  ! {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()},
    }))


def kernel_problems(env: Dict[str, object]) -> List[str]:
    """A silent ``auto`` -> python fallback would read as a 5x regression."""
    if env["native_available"] and env["kernel_active"] != "native":
        return [f"native kernels build here but the server runs {env['kernel_active']!r}"]
    return []
