"""Per-layer metrics from a traced run, and which end-to-end metric each moves.

A ``--trace 1`` run drives the workload twice with the same seed: once
against a plain server (the untraced leg) and once against a server
started through ``launcher.py``, whose spans give each layer's count,
busy time and wait.  Layer metrics cover the measured window (spans that
start inside it); the read-path layers also cover the read probes that
follow the window.  The freeze a checkpoint starts with is part of the
checkpoint's span, not a read-path freeze.  The cross-check against the server's own counters covers the whole server
lifetime and must match exactly.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional, Tuple

from harness import Run, emit, fingerprint, kernel_problems, percentile, replay_matches

#: layer -> (its metrics, the end-to-end metrics they should move,
#: workloads that exercise it / workloads that bypass it).
LAYERS: Dict[str, Tuple[List[str], List[str], str, str]] = {
    "serve.http": (
        ["serve.http.requests", "serve.http.self_ms.p50"],
        ["ack_p50_ms", "ingest_eps"],
        "ingest-single, bulk-retention", "-",
    ),
    "serve.ingest": (
        ["serve.ingest.queue_wait_ms.p50", "serve.ingest.queue_wait_ms.p99", "serve.ingest.commits",
         "serve.ingest.edges_per_commit", "serve.ingest.rejected"],
        ["ack_p50_ms"],
        "ingest-single, bulk-retention (each post waits one window)", "-",
    ),
    "serve.wal": (
        ["serve.wal.appends", "serve.wal.append_ms.p50", "serve.wal.append_ms.p99", "serve.wal.busy_s",
         "serve.wal.bytes"],
        ["ack_p50_ms", "ack_p95_ms", "disk_bytes_per_edge"],
        "ingest-single (one fsync per 1-2 edges)", "bulk-retention (one fsync per 100 edges)",
    ),
    "core.insert": (
        ["core.insert.calls", "core.insert.apply_ms.p50", "core.insert.apply_ms.p99", "core.insert.busy_s",
         "core.reorder.affected_per_edge"],
        ["ack_p50_ms", "ingest_eps"],
        "ingest-single, bulk-retention", "detect reads",
    ),
    "core.delete": (
        ["core.delete.calls", "core.delete.apply_ms.p50", "core.delete.apply_ms.p99", "core.delete.busy_s"],
        ["ingest_eps"],
        "bulk-retention", "ingest-single",
    ),
    "graph": (
        ["graph.freeze.calls", "graph.freeze_ms.p50", "graph.freeze_ms.p99", "graph.freeze.busy_s"],
        ["detect_p50_ms", "ack_p95_ms"],
        "read probes of both workloads; bulk-retention checkpoints (counted in "
        "serve.recovery.checkpoint_ms, not here)", "the other write traffic",
    ),
    "peeling": (
        ["peeling.peel.calls", "peeling.peel_ms.p50", "peeling.peel_ms.p99"],
        ["detect_p50_ms", "detect_p90_ms"],
        "read probes of both workloads", "the write traffic",
    ),
    "serve.snapshots": (
        ["serve.snapshots.reads", "serve.snapshots.freezes_per_read", "serve.snapshots.lock_wait_ms.p50",
         "serve.snapshots.lock_wait_ms.p99"],
        ["detect_p90_ms", "ack_p95_ms"],
        "read probes of both workloads", "the write traffic",
    ),
    "serve.recovery": (
        ["serve.recovery.checkpoints", "serve.recovery.checkpoint_ms.max", "serve.recovery.checkpoint_bytes"],
        ["ack_p95_ms", "disk_bytes_per_edge"],
        "bulk-retention", "ingest-single (at most one per run)",
    ),
    "native": (
        ["native.reorder.calls", "native.reorder.busy_s", "native.peel.calls", "native.peel.busy_s",
         "peeling.csr_init.busy_s"],
        ["ack_p50_ms", "ingest_eps", "detect_p50_ms"],
        "all", "-",
    ),
    "gen": (
        ["gen.late_ms.p99", "gen.offered_rate", "gen.achieved_rate"],
        ["validity of each run"],
        "all", "-",
    ),
    "trace": (
        ["trace.overhead_pct", "trace.unattributed_ms"],
        ["validity of the attribution"],
        "all", "-",
    ),
}

PER_LAYER = [name for metrics, _moves, _on, _off in LAYERS.values() for name in metrics]

#: The end-to-end metric the tracing overhead is judged on, per workload,
#: and whether higher is better for it.
PRIMARY = {
    "ingest-single": ("ack_p50_ms", False),
    "bulk-retention": ("ingest_eps", True),
}

UNITS = {
    "requests": "count", "commits": "count", "rejected": "count", "appends": "count", "calls": "count",
    "reads": "count", "checkpoints": "count", "edges_per_commit": "edges", "bytes": "bytes",
    "checkpoint_bytes": "bytes", "busy_s": "s", "affected_per_edge": "count/edge",
    "freezes_per_read": "ratio", "offered_rate": "1/s", "achieved_rate": "1/s", "overhead_pct": "%",
}


def unit_of(name: str) -> str:
    if "_ms" in name:
        return "ms"
    return UNITS[name.rsplit(".", 1)[1]]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    sid: int
    parent: Optional[int]
    attrs: Optional[dict]

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def covered(lo: float, hi: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_ms(span: Span, children: Dict[int, List[Span]], lo: float, hi: float) -> float:
    """Milliseconds of ``span`` inside ``[lo, hi]`` that none of its children cover."""
    lo, hi = max(lo, span.start), min(hi, span.end)
    if hi <= lo:
        return 0.0
    return 1000.0 * ((hi - lo) - covered(lo, hi, [(c.start, c.end) for c in children.get(span.sid, [])]))


def request_self_ms(request: Span, children: Dict[int, List[Span]]) -> float:
    """Self times of every span under one request, summed over the request's lifetime."""
    total, todo = 0.0, [request]
    while todo:
        span = todo.pop()
        total += self_ms(span, children, request.start, request.end)
        todo.extend(children.get(span.sid, []))
    return total


READ_PATH = ("graph.freeze", "peeling.peel", "serve.snapshots.read")


def layer_metrics(spans: List[Span], profile: List[list], window: Tuple[float, float],
                  reads_end: float, ack_p50_ms: float) -> Dict[str, float]:
    """Every per-layer metric but the generator's, ``serve.ingest.rejected`` and the overhead.

    ``trace.unattributed_ms`` is how far the median of the per-request
    sums of span self times (POSTs in the window) falls short of the
    traced run's own ``ack_p50_ms``: time the layers' spans do not see.
    """
    t0, t1 = window
    cuts = {s.sid for s in spans if s.name == "serve.recovery.checkpoint"}
    inside = [
        s for s in spans
        if t0 <= s.start < (reads_end if s.name in READ_PATH else t1)
        and not (s.name == "graph.freeze" and s.parent in cuts)  # a checkpoint's freeze
    ]
    by_name: Dict[str, List[Span]] = {}
    for span in inside:
        by_name.setdefault(span.name, []).append(span)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
        if span.name == "serve.ingest.commit":
            for link in span.attrs["links"]:
                if link is not None:
                    children.setdefault(link, []).append(span)

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    def ms(name: str) -> List[float]:
        return [s.ms for s in named(name)]

    def busy(name: str) -> float:
        return sum(s.end - s.start for s in named(name))

    out: Dict[str, float] = {}
    http = named("serve.http")
    out["serve.http.requests"] = len(http)
    out["serve.http.self_ms.p50"] = percentile([self_ms(s, children, s.start, s.end) for s in http], 50)
    posts = [request_self_ms(s, children) for s in http if s.attrs["method"] == "POST"]
    out["trace.unattributed_ms"] = ack_p50_ms - percentile(posts, 50)
    out["serve.ingest.queue_wait_ms.p50"] = percentile(ms("serve.ingest.queue_wait"), 50)
    out["serve.ingest.queue_wait_ms.p99"] = percentile(ms("serve.ingest.queue_wait"), 99)
    ops = [s.attrs for s in named("serve.ingest.ops") if s.attrs]
    commits = sum(a["ops"] for a in ops)
    out["serve.ingest.commits"] = commits
    out["serve.ingest.edges_per_commit"] = sum(a["edges"] for a in ops) / max(1, commits)
    wal = "serve.wal.append"
    out["serve.wal.appends"] = len(named(wal))
    out["serve.wal.append_ms.p50"] = percentile(ms(wal), 50)
    out["serve.wal.append_ms.p99"] = percentile(ms(wal), 99)
    out["serve.wal.busy_s"] = busy(wal)
    out["serve.wal.bytes"] = sum(s.attrs["bytes"] for s in named(wal) if s.attrs)
    for kind in ("insert", "delete"):
        name = f"core.{kind}"
        out[f"{name}.calls"] = len(named(name))
        out[f"{name}.apply_ms.p50"] = percentile(ms(name), 50)
        out[f"{name}.apply_ms.p99"] = percentile(ms(name), 99)
        out[f"{name}.busy_s"] = busy(name)
    inserts = [s.attrs for s in named("core.insert") if s.attrs]
    out["core.reorder.affected_per_edge"] = sum(a["affected"] for a in inserts) / max(
        1, sum(a["edges"] for a in inserts)
    )
    out["graph.freeze.calls"] = len(named("graph.freeze"))
    out["graph.freeze_ms.p50"] = percentile(ms("graph.freeze"), 50)
    out["graph.freeze_ms.p99"] = percentile(ms("graph.freeze"), 99)
    out["graph.freeze.busy_s"] = busy("graph.freeze")
    out["peeling.peel.calls"] = len(named("peeling.peel"))
    out["peeling.peel_ms.p50"] = percentile(ms("peeling.peel"), 50)
    out["peeling.peel_ms.p99"] = percentile(ms("peeling.peel"), 99)
    reads = named("serve.snapshots.read")
    froze = [[c for c in children.get(r.sid, []) if c.name == "graph.freeze"] for r in reads]
    lock_wait = [r.ms - sum(c.ms for c in f) for r, f in zip(reads, froze)]
    out["serve.snapshots.reads"] = len(reads)
    out["serve.snapshots.freezes_per_read"] = sum(map(len, froze)) / max(1, len(reads))
    out["serve.snapshots.lock_wait_ms.p50"] = percentile(lock_wait, 50)
    out["serve.snapshots.lock_wait_ms.p99"] = percentile(lock_wait, 99)
    checkpoints = named("serve.recovery.checkpoint")
    out["serve.recovery.checkpoints"] = len(checkpoints)
    out["serve.recovery.checkpoint_ms.max"] = max((s.ms for s in checkpoints), default=0.0)
    out["serve.recovery.checkpoint_bytes"] = sum(s.attrs["bytes"] for s in checkpoints if s.attrs)
    phases: Dict[str, List[float]] = {}
    for key, ended, seconds in profile:
        if t0 <= ended - seconds < (reads_end if key.startswith("peel") else t1):
            phases.setdefault(key, []).append(seconds)
    out["native.reorder.calls"] = len(phases.get("reorder[native]", []))
    out["native.reorder.busy_s"] = sum(phases.get("reorder[native]", []))
    out["native.peel.calls"] = len(phases.get("peel_greedy[native]", []))
    out["native.peel.busy_s"] = sum(phases.get("peel_greedy[native]", []))
    out["peeling.csr_init.busy_s"] = sum(
        sum(values) for key, values in phases.items() if key.startswith("peel_csr_init[")
    )
    return out


def cross_check(spans: List[Span], profile: List[list], prom: Dict[str, float],
                served_profile: Dict[str, object]) -> List[str]:
    """Wrapper counts over the server lifetime vs the server's own counters."""
    counts = {
        "WAL appends": (
            sum(s.name == "serve.wal.append" for s in spans),
            prom.get('repro_stage_seconds_count{stage="wal_append"}', 0),
        ),
        "engine applies": (
            sum(s.name.startswith("core.") for s in spans),
            prom.get('repro_stage_seconds_count{stage="engine_apply"}', 0),
        ),
        "commits": (
            sum(s.attrs["ops"] for s in spans if s.name == "serve.ingest.ops" and s.attrs),
            prom.get("repro_ingest_batches_total", 0),
        ),
    }
    merged = served_profile.get("merged", {})
    keys = {row[0] for row in profile} | set(merged)
    for key in sorted(keys):
        counts[f"profile {key} calls"] = (
            sum(row[0] == key for row in profile),
            merged.get(key, {}).get("calls", 0),
        )
    return [
        f"{what}: launcher counted {ours}, the server reports {int(theirs)}"
        for what, (ours, theirs) in counts.items()
        if ours != theirs
    ]


def traced(workload, stream, workdir, args, build) -> int:
    """The ``--trace 1`` mode: untraced leg, traced leg, attribution."""
    plain = Run(workload, stream, workdir, args.seed)
    plain.boot()
    plain.traffic_phase(args.seconds)
    plain.stop()
    plain_e2e = plain.end_to_end()

    spans_path = workdir / "spans.json"
    run = Run(workload, stream, workdir, args.seed)
    run.boot(["--spans", str(spans_path)])
    run.traffic_phase(args.seconds)
    prom, served_profile = run.scrape()
    run.stop()
    traced_e2e = run.end_to_end()

    doc = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = [Span(*row) for row in doc["spans"]]
    metrics = layer_metrics(spans, doc["profile"], run.window, run.reads_end, traced_e2e["ack_p50_ms"][0])
    metrics["serve.ingest.rejected"] = prom.get("repro_ingest_events_rejected_total", 0.0)
    for name, (value, _unit, _n) in plain.generator().items():
        metrics[name] = value
    primary, higher_is_better = PRIMARY[workload.name]
    before, after = plain_e2e[primary][0], traced_e2e[primary][0]
    ratio = before / after if higher_is_better else after / before
    metrics["trace.overhead_pct"] = (ratio - 1.0) * 100.0

    problems = plain.ryw_violations() + run.ryw_violations() + replay_matches(run)
    problems += cross_check(spans, doc["profile"], prom, served_profile)
    env = fingerprint(build, run.kernel)
    problems += kernel_problems(env)
    failures = plain.failures + run.failures
    attempted = plain.attempted + run.attempted
    print(f"untraced {primary} {before:.4f}, traced {after:.4f}")
    print("layer table (layer: metrics -> moves | on / bypassed)")
    for layer, (names, moves, on, off) in LAYERS.items():
        print(f"  {layer}: {', '.join(names)} -> {', '.join(moves)} | {on} / {off}")
    rows = {name: (float(metrics[name]), unit_of(name), 1) for name in PER_LAYER}
    emit(not problems, (attempted, len(failures)), rows, env, workload, failures[:5] + problems)
    return 0 if not problems and not failures else 1
