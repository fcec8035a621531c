"""Seeded inputs and the traffic mixes the benchmark drives.

The graph is fig10 scale: 20k vertices, 120k initial edges with dyadic
weights (multiples of 1/64, so DW sums are exact in binary floating point
and the offline replay must match the server bit for bit), half of the
endpoints drawn from a dense core of 500 vertices.  Increments continue
the same distinct-edge stream, so no insert ever repeats an edge and no
delete ever names a missing one.

Open-loop writes arrive on a seeded Poisson clock with a fixed count
(independent transactions) and are timed from when they were due, so a
stall is charged to every request queued behind it.  The closed
loop (a producer that waits for acks) sends the next request when the
previous one is answered and is timed from the send; its expiry deletes
the oldest edges first (the initial ones, durable since checkpoint zero,
then acknowledged inserts in ack order), so |E| stays near 120k.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from server import Client

N_VERTICES = 20000
N_INITIAL = 120000
#: Seconds of traffic before the measured window opens.
WARMUP_S = 2.0
#: Closed-loop write-then-detect rounds after the traffic stops; the
#: workloads' traffic never reads, so these give the detect latencies.
PROBE_ROUNDS = 20

Edge = Tuple[str, str, float]


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str  # how writes are sent: "open" | "closed"
    why: str
    write_rate: float = 0.0  # open loop: single-edge POSTs per second
    write_conns: int = 0
    bulk_size: int = 0  # closed loop: edges per POST
    delete_every: int = 0  # closed loop: one delete after this many POSTs
    delete_size: int = 0  # edges per delete (the oldest acknowledged)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ingest-single",
            "open",
            "open loop, Poisson 30 single-edge POST/s over 2 conns; on: coalescing wait, "
            "per-op fsync, single-edge insert; bypassed: reads, deletes",
            write_rate=30.0,
            write_conns=2,
        ),
        Workload(
            "bulk-retention",
            "closed",
            "closed loop, 1 conn, 100-edge POSTs + delete of the 1000 oldest every 10; on: batch "
            "insert, delete re-peel, checkpoints, JSON decode; bypassed: per-edge fsync, reads",
            bulk_size=100,
            delete_every=10,
            delete_size=1000,
        ),
    )
}

#: Workloads the issue named that the benchmark does not run, with why.
DROPPED: Dict[str, str] = {
    "detect-under-ingest": (
        "single-edge writes with GET /v1/detect polled alongside; its ack latencies "
        "(writes queued behind snapshot freezes) spread 0.24-0.41 IQR/median over ten runs "
        "in every rate tried, beyond the 0.25 maximum bound; the freeze and read peel stay "
        "measured by the read probes after each kept workload's traffic"
    ),
}


class EdgeStream:
    """The seeded distinct-edge stream: initial edges, then increments."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._core = N_VERTICES // 40
        self._seen: set = set()
        self._lock = threading.Lock()
        self.initial = self._draw(N_INITIAL)
        self._increments: List[Edge] = []

    def _endpoint(self) -> int:
        if self._rng.random() < 0.5:
            return self._rng.randrange(self._core)
        return self._rng.randrange(N_VERTICES)

    def _draw(self, count: int) -> List[Edge]:
        edges: List[Edge] = []
        while len(edges) < count:
            src, dst = self._endpoint(), self._endpoint()
            if src == dst or (src, dst) in self._seen:
                continue
            self._seen.add((src, dst))
            edges.append((str(src), str(dst), self._rng.randint(1, 320) / 64.0))
        return edges

    def increment(self, index: int) -> Edge:
        """The ``index``-th increment (drawn on demand, same for a seed)."""
        with self._lock:
            if index >= len(self._increments):
                self._increments.extend(self._draw(index + 1 - len(self._increments) + 256))
            return self._increments[index]

    def write_edgelist(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            handle.writelines(f"{s} {d} {w!r}\n" for s, d, w in self.initial)


def edge_body(edge: Edge) -> Dict[str, object]:
    return {"src": edge[0], "dst": edge[1], "weight": edge[2]}


@dataclass
class Sample:
    kind: str  # "write" | "delete" | "detect"
    due: float  # when it was scheduled (open) or sent (closed), perf_counter
    sent: float
    done: float
    status: int
    edges: int = 0
    version: int = -1
    floor: int = -1  # detect: highest acked version seen before sending

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


class Traffic:
    """Shared state of one run's load: samples, ack versions, edge cursor."""

    def __init__(self, stream: EdgeStream, first_increment: int) -> None:
        self.stream = stream
        self.samples: List[Sample] = []
        self.failures: List[str] = []
        self.last_response: Optional[Dict[str, object]] = None
        self._next = first_increment
        self._acked_version = 0
        self._lock = threading.Lock()

    def take(self, count: int) -> List[Edge]:
        with self._lock:
            start = self._next
            self._next += count
        return [self.stream.increment(i) for i in range(start, start + count)]

    @property
    def acked_version(self) -> int:
        return self._acked_version

    def record(self, sample: Sample, body: object) -> None:
        if sample.status == 200 and isinstance(body, dict):
            sample.version = int(body.get("version", -1))
            if sample.kind != "detect":
                with self._lock:
                    self._acked_version = max(self._acked_version, sample.version)
            else:
                self.last_response = body
        else:
            self.failures.append(f"{sample.kind} -> {sample.status}: {str(body)[:200]}")
        self.samples.append(sample)

    def write(self, client: Client, edges: List[Edge], due: float) -> bool:
        sent = time.perf_counter()
        if len(edges) == 1:
            body = edge_body(edges[0])
        else:
            body = {"edges": [list(e) for e in edges]}
        status, reply = client.request("POST", "/v1/edges", body)
        self.record(Sample("write", due, sent, time.perf_counter(), status, len(edges)), reply)
        return status == 200

    def delete(self, client: Client, pairs: List[Tuple[str, str]]) -> bool:
        sent = time.perf_counter()
        body = {"op": "delete", "edges": [list(p) for p in pairs]}
        status, reply = client.request("POST", "/v1/edges", body)
        self.record(Sample("delete", sent, sent, time.perf_counter(), status), reply)
        return status == 200

    def detect(self, client: Client, due: float) -> Optional[Dict[str, object]]:
        floor = self.acked_version
        sent = time.perf_counter()
        status, reply = client.request("GET", "/v1/detect")
        sample = Sample("detect", due, sent, time.perf_counter(), status, floor=floor)
        self.record(sample, reply)
        return reply if status == 200 else None


def poisson_schedule(rng: random.Random, rate: float, start: float, end: float) -> List[float]:
    """Arrival times of a Poisson process on ``[start, end)`` given its mean count.

    Drawing exactly ``rate * (end - start)`` uniform times and sorting them
    is a Poisson process conditioned on its count: arrivals stay bursty,
    but every seed offers the same load, so the offered rate is not a
    source of run-to-run spread.
    """
    count = int(round(rate * (end - start)))
    return sorted(rng.uniform(start, end) for _ in range(count))


def _sleep_until(moment: float) -> None:
    delay = moment - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _open_writer(traffic: Traffic, port: int, slots: List[float], cursor: List[int], lock: threading.Lock) -> None:
    client = Client(port)
    try:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
                edges = traffic.take(1)
            if index >= len(slots):
                return
            _sleep_until(slots[index])
            traffic.write(client, edges, slots[index])
    finally:
        client.close()


def _closed_bulk(traffic: Traffic, port: int, workload: Workload, end: float, oldest: deque) -> None:
    client = Client(port)
    posts = 0
    try:
        while time.perf_counter() < end:
            edges = traffic.take(workload.bulk_size)
            if not traffic.write(client, edges, time.perf_counter()):
                return
            oldest.extend((s, d) for s, d, _ in edges)
            posts += 1
            if posts % workload.delete_every == 0:
                doomed = [oldest.popleft() for _ in range(workload.delete_size)]
                if not traffic.delete(client, doomed):
                    return
    finally:
        client.close()


def drive(
    workload: Workload,
    port: int,
    traffic: Traffic,
    seed: int,
    seconds: float,
    on_window: Callable[[str], None],
) -> Tuple[float, float]:
    """Run the workload's traffic; return the measured window ``(t0, t1)``.

    ``on_window("start")`` / ``on_window("end")`` are called from this
    thread when the window opens and closes (the caller samples server
    CPU there); traffic keeps running until the window closes.
    """
    rng = random.Random(seed * 1_000_003 + 17)
    start = time.perf_counter() + 0.05
    t0 = start + WARMUP_S
    t1 = t0 + seconds
    threads: List[threading.Thread] = []
    if workload.loop == "open":
        slots = poisson_schedule(rng, workload.write_rate, start, t0)
        slots += poisson_schedule(rng, workload.write_rate, t0, t1)
        cursor, lock = [0], threading.Lock()
        for _ in range(workload.write_conns):
            threads.append(threading.Thread(target=_open_writer, args=(traffic, port, slots, cursor, lock)))
    else:
        oldest = deque((s, d) for s, d, _ in traffic.stream.initial)
        threads.append(threading.Thread(target=_closed_bulk, args=(traffic, port, workload, t1, oldest)))
    for thread in threads:
        thread.start()
    _sleep_until(t0)
    on_window("start")
    _sleep_until(t1)
    on_window("end")
    for thread in threads:
        thread.join()
    return t0, t1


def probe_reads(port: int, traffic: Traffic, rounds: int) -> None:
    """Write one edge, then detect, ``rounds`` times (closed loop, 1 conn).

    Each detect reflects a fresh commit, so every probe pays the snapshot
    freeze and the peel — the read a dashboard makes after new traffic.
    """
    client = Client(port)
    try:
        for _ in range(rounds):
            if not traffic.write(client, traffic.take(1), time.perf_counter()):
                return
            traffic.detect(client, time.perf_counter())
    finally:
        client.close()
