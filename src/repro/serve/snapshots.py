"""Versioned reads: ``detect`` from the maintained order, the rest from snapshots.

The serving layer runs a strict single-writer / many-readers discipline
on one asyncio loop:

* **One writer.**  Only the ingest gateway's commit path mutates the
  engine, always while holding the shared :class:`asyncio.Lock`.
* **Versioned state.**  Every committed operation advances a version
  counter (the WAL sequence).

``GET /v1/detect`` — the maintained read path
--------------------------------------------
The engine maintains the peeling order incrementally (paper §4,
Algorithms 1–2), and every ``SpadeClient.apply`` already reads the
community off it.  After each successfully applied operation the writer
hands that community to :meth:`SnapshotService.publish`, which stores it
with the graph's vertex and edge counts — under the lock, no extra
compute.  Boot and recovery publish ``client.detect()`` once, so
the first read is served the same way.  A detect read whose published
version is at least the engine version answers from it: no lock, no
freeze, no peel.  The response (sorted label list included) is built
once per version.

The contract: the community, the peel index and the counts equal those
of a fresh :func:`~repro.peeling.static.peel_csr` over a snapshot of the
same version.  The density is bitwise equal for DG, and for DW whenever
the edge weights are dyadic (every float sum exact).  With other DW
weights the maintained density (telescoped from incrementally updated
peeling weights) and the fresh peel's (re-derived weights, summed in
another order) can differ in the last bits: a few ulps, at most 13 in
600 checks on small mixed insert/delete streams.

**Fallback.**  Everything else freezes and peels, exactly as before:
FD semantics (kept on the snapshot peel until an exactness audit pins
or bounds the drift of its maintained density), sharded
and worker engines (their per-commit community is a shard-local lower
bound, ``report.exact`` is false), and versions with nothing published
(an engine-rejected operation, a window that failed mid-way).  The peel
response is memoized on the :class:`SnapshotView`, so the fallback
peels once per version however many readers ask.

Snapshot reads
--------------
The first snapshot read after a commit freezes the engine's graph into
an immutable :class:`~repro.graph.csr.CsrSnapshot` (a version-guarded
cache on the array backend, so it is cheap when nothing changed) —
taken under the writer lock, so it can never observe a half-applied
batch.  The query work — the fallback peel, the report-remove-repeel
enumeration for ``GET /v1/communities`` — runs in a worker thread over
the frozen snapshot, holding no lock at all.  The writer keeps
committing while a reader peels; every response carries the version its
state was taken at, which is the isolation contract the property tests
verify: a response at version ``v`` equals a fresh offline engine
replayed through exactly the first ``v`` operations.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

from repro.api.client import SpadeClient
from repro.core.enumeration import CommunityInstance, enumerate_csr
from repro.core.state import Community
from repro.graph.csr import CsrSnapshot
from repro.peeling.static import peel_csr

__all__ = ["Detection", "SnapshotView", "SnapshotService"]


class SnapshotView:
    """A ``(version, snapshot)`` pair published to readers.

    ``detection`` memoizes the fallback detect response for this version
    (a future, so concurrent readers share one peel).
    """

    __slots__ = ("version", "snapshot", "detection")

    def __init__(self, version: int, snapshot: CsrSnapshot) -> None:
        self.version = version
        self.snapshot = snapshot
        self.detection: Optional["asyncio.Future[Dict[str, object]]"] = None


class Detection:
    """One version's exact detection: the writer's published one, or a peel's.

    ``response`` is its detect response, built once by the first reader.
    """

    __slots__ = ("version", "community", "num_vertices", "num_edges", "response")

    def __init__(
        self, version: int, community: Community, num_vertices: int, num_edges: int
    ) -> None:
        self.version = version
        self.community = community
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.response: Optional[Dict[str, object]] = None


class SnapshotService:
    """Versioned publication + the query surface built on it."""

    def __init__(self, client: SpadeClient, lock: asyncio.Lock) -> None:
        self._client = client
        self._lock = lock
        self._engine_version = 0
        self._view: Optional[SnapshotView] = None
        self._published: Optional[Detection] = None
        #: Whether the engine's per-commit community may answer detect:
        #: a single engine (exact per commit) on any semantics but FD.
        self.maintained = client.shards == 1 and client.semantics.name != "FD"

    # ------------------------------------------------------------------ #
    # Writer side
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Version of the latest committed engine state."""
        return self._engine_version

    def advance(self, version: int) -> None:
        """Record that the engine now reflects WAL sequence ``version``.

        Called by the writer after each commit (while it still holds the
        lock); the cached view is left in place so readers that can
        tolerate the previous version keep using it until a fresh one is
        demanded.
        """
        self._engine_version = version

    def publish(self, version: int, community: Community) -> None:
        """Publish the engine's exact ``community`` at ``version``.

        Called by the writer while it holds the lock, right after the
        operation ``version`` was applied (and once at boot), so the
        graph's vertex and edge counts read here belong to that version.
        Only meaningful when :attr:`maintained` is true.
        """
        graph = self._client.graph
        self._published = Detection(
            version, community, graph.num_vertices(), graph.num_edges()
        )

    # ------------------------------------------------------------------ #
    # Snapshot publication
    # ------------------------------------------------------------------ #
    async def current(self) -> SnapshotView:
        """Return a view of the latest committed state (freeze if stale)."""
        view = self._view
        if view is not None and view.version == self._engine_version:
            return view
        async with self._lock:
            # Re-check under the lock: a concurrent reader may have
            # refreshed while this one awaited the writer.
            view = self._view
            if view is not None and view.version == self._engine_version:
                return view
            # Freeze off the event loop (the engine is stable while the
            # lock is held): an O(|V|+|E|) freeze on the loop thread
            # would stall every connection, acks included.
            snapshot = await asyncio.get_running_loop().run_in_executor(
                None, self._client.snapshot
            )
            view = SnapshotView(self._engine_version, snapshot)
            self._view = view
            return view

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _response(self, detection: Detection) -> Dict[str, object]:
        """The detect response of ``detection`` (built on first use)."""
        if detection.response is None:
            community = detection.community
            detection.response = {
                "version": detection.version,
                "community": sorted(map(str, community.vertices)),
                "density": community.density,
                "peel_index": community.peel_index,
                "vertices": detection.num_vertices,
                "edges": detection.num_edges,
                "semantics": self._client.semantics.name,
                "backend": self._client.backend,
                "shards": self._client.shards,
                "exact": True,
            }
        return detection.response

    def _peel_response(self, view: SnapshotView) -> Dict[str, object]:
        """Fresh peel of ``view`` as a detect response (worker thread)."""
        snapshot = view.snapshot
        result = peel_csr(snapshot, self._client.semantics.name)
        community = Community(result.community, result.best_density, result.best_index)
        return self._response(
            Detection(view.version, community, snapshot.num_vertices, snapshot.num_edges)
        )

    async def detect_with_path(self) -> Tuple[str, Dict[str, object]]:
        """Exact detection plus the path that answered it.

        The path is ``"maintained"`` (the published detection, no lock,
        no freeze, no peel) or ``"snapshot"`` (freeze if stale, then one
        memoized peel per version, off the event loop).
        """
        published = self._published
        if published is not None and published.version >= self._engine_version:
            return "maintained", dict(self._response(published))
        view = await self.current()
        pending = view.detection
        if pending is None:
            pending = asyncio.get_running_loop().run_in_executor(
                None, self._peel_response, view
            )
            view.detection = pending
        try:
            # Shielded: one reader's cancellation must not cancel the
            # peel the other readers of this version are waiting on.
            response = await asyncio.shield(pending)
        except Exception:
            if view.detection is pending:
                view.detection = None  # let the next reader retry
            raise
        return "snapshot", dict(response)

    async def detect(self) -> Dict[str, object]:
        """Exact detection at the latest committed version."""
        return (await self.detect_with_path())[1]

    async def communities(
        self,
        offset: int = 0,
        limit: int = 10,
        min_density: float = 0.0,
        min_size: int = 2,
        after_rank: Optional[int] = None,
    ) -> Dict[str, object]:
        """Paginated dense-instance enumeration over the current snapshot.

        Two pagination modes share one shape: classic ``offset`` (kept
        for existing clients) and keyset (``after_rank`` — the rank of
        the last instance the client saw, from a cursor token the HTTP
        layer decodes).  One extra instance is enumerated beyond the page
        so ``has_more`` is exact; ``next_rank`` is the keyset position a
        follow-up cursor resumes after (the HTTP layer encodes it).
        """
        view = await self.current()
        semantics = self._client.semantics.name
        loop = asyncio.get_running_loop()
        start = offset if after_rank is None else after_rank + 1

        def _enumerate() -> List[CommunityInstance]:
            return enumerate_csr(
                view.snapshot,
                max_instances=start + limit + 1,
                min_density=min_density,
                min_size=min_size,
                semantics_name=semantics,
            )

        instances = await loop.run_in_executor(None, _enumerate)
        page = instances[start : start + limit]
        has_more = len(instances) > start + limit
        report: Dict[str, object] = {
            "version": view.version,
            "limit": limit,
            "count": len(page),
            "communities": [
                {
                    "rank": instance.rank,
                    "density": instance.density,
                    "size": len(instance.vertices),
                    "vertices": sorted(map(str, instance.vertices)),
                }
                for instance in page
            ],
            "has_more": has_more,
            "next_rank": page[-1].rank if page else None,
        }
        if after_rank is None:
            report["offset"] = offset
        return report

    async def vertex(self, label: object) -> Optional[Dict[str, object]]:
        """Per-vertex view (prior, degrees, incident weight) or ``None``."""
        view = await self.current()
        snapshot = view.snapshot
        vid = snapshot.id_of(label)
        if vid < 0 or not bool(snapshot.member[vid]):
            return None
        out_lo, out_hi = int(snapshot.out_offsets[vid]), int(snapshot.out_offsets[vid + 1])
        in_lo, in_hi = int(snapshot.in_offsets[vid]), int(snapshot.in_offsets[vid + 1])
        incident = float(snapshot.out_weights[out_lo:out_hi].sum()) + float(
            snapshot.in_weights[in_lo:in_hi].sum()
        )
        return {
            "version": view.version,
            "label": str(label),
            "prior": float(snapshot.vertex_weights[vid]),
            "out_degree": out_hi - out_lo,
            "in_degree": in_hi - in_lo,
            "incident_weight": incident,
        }
