"""Start ``repro.serve`` with spans around the calls into each layer.

Usage::

    python3 perfbench/launcher.py [--spans OUT.json] [--delay LAYER=MS ...] -- <repro.serve args>

Only the benchmark's traced runs and its sensitivity self-test start the
server this way; timed runs start ``python -m repro.serve`` directly.
Each wrapped call records one span ``(name, start, end, id, parent,
attrs)`` in memory; the spans are written to ``--spans`` when the server
exits.  A span's parent is the span that was open around the call: on
the event loop through a context variable, and across
``run_in_executor`` by handing the caller's open span to the worker
thread.  One HTTP request is the root ``serve.http`` span; the
coalesced commit that carries several requests is parented to the
first and lists the others in ``attrs["links"]``.

``--delay LAYER=MS`` sleeps before one call, for the self-test that
checks the benchmark notices a slower layer: ``peel`` is the read-path
``peel_csr`` and ``wal`` is ``WriteAheadLog.append_op``.  The self-test
gives no ``--spans``, so nothing else is wrapped.
"""

from __future__ import annotations

import argparse
import asyncio
import contextvars
import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

_ids = itertools.count(1)
_spans: List[list] = []
_profile: List[list] = []
_parent_var: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_parent", default=None
)
_tls = threading.local()
#: Write futures of ``IngestGateway.submit`` -> the request span that made them.
_owners: Dict[object, Optional[int]] = {}


def _parent() -> Optional[int]:
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else _parent_var.get()


def _record(name: str, began: float, ended: float, sid: int, parent: Optional[int],
            attrs: Optional[dict] = None) -> None:
    _spans.append([name, began, ended, sid, parent, attrs])


def sync_span(name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
    """Wrap a blocking call; nested wrapped calls on this thread become children.

    ``attrs(args, result)`` is evaluated only when the call returns.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent = next(_ids), _parent()
        stack = _tls.__dict__.setdefault("stack", [])
        stack.append(sid)
        began = time.perf_counter()
        returned, result = False, None
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            stack.pop()
            ended = time.perf_counter()
            _record(name, began, ended, sid, parent, attrs(args, result) if attrs and returned else None)

    return wrapper


def async_span(name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
    """Wrap a coroutine function; calls it makes inherit this span as parent."""

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        sid, parent = next(_ids), _parent_var.get()
        token = _parent_var.set(sid)
        began = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            _parent_var.reset(token)
            _record(name, began, time.perf_counter(), sid, parent, attrs(args) if attrs else None)

    return wrapper


def delayed(fn: Callable, delay: float) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        time.sleep(delay)
        return fn(*args, **kwargs)

    return wrapper


def _propagate_into_executor() -> None:
    """Hand the caller's open span to the thread that runs the call."""
    original = asyncio.base_events.BaseEventLoop.run_in_executor

    def run_in_executor(self, executor, func, *args):
        parent = _parent()
        if parent is None:
            return original(self, executor, func, *args)

        def call():
            _tls.stack = [parent]
            try:
                return func(*args)
            finally:
                _tls.stack = []

        return original(self, executor, call)

    asyncio.base_events.BaseEventLoop.run_in_executor = run_in_executor


def install() -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    from repro.api.client import SpadeClient
    from repro.obs import profile
    from repro.serve import snapshots
    from repro.serve.app import ServeApp
    from repro.serve.ingest import IngestGateway
    from repro.serve.snapshots import SnapshotService
    from repro.serve.wal import WriteAheadLog

    _propagate_into_executor()

    ServeApp._handle = async_span(
        "serve.http", ServeApp._handle, lambda a: {"method": a[1].method, "path": a[1].path}
    )

    submit = IngestGateway.submit

    @functools.wraps(submit)
    def submit_wrapper(self, *args, **kwargs):
        future = submit(self, *args, **kwargs)
        if future is not None:
            _owners[future] = _parent_var.get()
        return future

    IngestGateway.submit = submit_wrapper

    commit_window = IngestGateway._commit_window

    @functools.wraps(commit_window)
    async def commit_window_wrapper(self, window):
        pickup = time.perf_counter()
        owners = [_owners.pop(s.future, None) for s in window]
        for submission, owner in zip(window, owners):
            _record("serve.ingest.queue_wait", submission.enqueued_at, pickup, next(_ids), owner)
        sid = next(_ids)
        token = _parent_var.set(sid)
        try:
            return await commit_window(self, window)
        finally:
            _parent_var.reset(token)
            attrs = {"links": owners[1:], "edges": sum(s.edges for s in window)}
            _record("serve.ingest.commit", pickup, time.perf_counter(), sid, owners[0], attrs)

    IngestGateway._commit_window = commit_window_wrapper

    def commit_attrs(args, results):
        ok = [r for r in results if "error" not in r]
        return {"ops": len(ok), "edges": sum(int(r.get("edges", 0)) for r in ok)}

    IngestGateway._commit_sync = sync_span("serve.ingest.ops", IngestGateway._commit_sync, commit_attrs)

    timed_append = sync_span(
        "serve.wal.append",
        WriteAheadLog.append_op,
        lambda a, result: {"bytes": result[1] - _tls.wal_before},
    )

    def append_wrapper(self, op):
        _tls.wal_before = self.offset
        return timed_append(self, op)

    WriteAheadLog.append_op = functools.wraps(WriteAheadLog.append_op)(append_wrapper)

    def apply_attrs(args, report):
        return {"edges": report.edges_applied, "affected": report.stats.affected_area}

    applies = {
        name: sync_span(name, SpadeClient.apply, apply_attrs)
        for name in ("core.insert", "core.delete", "core.other")
    }

    def apply_wrapper(self, updates):
        kinds = {type(op).__name__ for op in updates} if isinstance(updates, list) else set()
        if kinds == {"Delete"}:
            return applies["core.delete"](self, updates)
        if kinds and kinds <= {"Insert", "InsertBatch"}:
            return applies["core.insert"](self, updates)
        return applies["core.other"](self, updates)

    SpadeClient.apply = functools.wraps(SpadeClient.apply)(apply_wrapper)
    SpadeClient.snapshot = sync_span("graph.freeze", SpadeClient.snapshot)

    def checkpoint_attrs(args, _result):
        app, wal_seq = args[0], args[1]
        store = app._checkpoints
        files = (store._payload_path(wal_seq), store._meta_path(wal_seq))
        return {"bytes": sum(path.stat().st_size for path in files if path.exists())}

    # The whole cut, so the freeze it starts with is a child of the
    # checkpoint span and not counted as a read-path freeze.
    ServeApp._cut_checkpoint = sync_span("serve.recovery.checkpoint", ServeApp._cut_checkpoint, checkpoint_attrs)
    SnapshotService.current = async_span("serve.snapshots.read", SnapshotService.current)
    snapshots.peel_csr = sync_span("peeling.peel", snapshots.peel_csr)

    record = profile.record

    @functools.wraps(record)
    def record_wrapper(phase, kernel, seconds):
        _profile.append([f"{phase}[{kernel}]", time.perf_counter(), seconds])
        return record(phase, kernel, seconds)

    profile.record = record_wrapper


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description="repro.serve with layer spans")
    parser.add_argument("--spans", type=Path, help="record spans and write them here at exit")
    parser.add_argument("--delay", action="append", default=[], metavar="LAYER=MS")
    opts = parser.parse_args(argv[:split])
    if opts.spans is not None:
        install()
    from repro.serve import snapshots
    from repro.serve.wal import WriteAheadLog

    targets = {"peel": (snapshots, "peel_csr"), "wal": (WriteAheadLog, "append_op")}
    for spec in opts.delay:
        layer, _, ms = spec.partition("=")
        if layer not in targets:
            parser.error(f"unknown delay layer {layer!r} (peel or wal)")
        owner, attr = targets[layer]
        setattr(owner, attr, delayed(getattr(owner, attr), float(ms) / 1000.0))
    from repro.serve.cli import main as serve_main

    try:
        return serve_main(argv[split + 1:])
    finally:
        if opts.spans is not None:
            opts.spans.write_text(json.dumps({"spans": _spans, "profile": _profile}), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
