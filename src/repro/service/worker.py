"""Worker side of the distributed fabric: ``serve --join``.

An :class:`EngineWorker` is a process that contributes its CPU to a
coordinator (an :class:`~repro.service.server.ExplorationService`)
instead of serving clients itself: it connects, authenticates like any
client, registers a :class:`~repro.service.engine.RemoteEngine` with
``join``, then loops ``lease`` -> evaluate -> ``delta`` until the
coordinator goes away.

The worker owns a full :class:`~repro.engine.session.Session` of its
own — same pipeline, same caches — so a leased point evaluates exactly
as it would on the coordinator's local engine (the bit-identical
fabric invariant).  What the worker does *not* own is the persistent
store's disk: it never flushes.  New cache entries (compiled programs
included) are exported with
:meth:`~repro.engine.store.CacheStore.export_delta` and shipped home
inside ``delta`` frames, where the coordinator — the store's single
writer — absorbs them before recording the frame's results.  A worker
started with its own ``--cache-dir`` additionally hydrates from it, so
a pre-warmed worker contributes warm caches from its first lease.

Liveness: every request touches the engine on the coordinator, and a
long evaluation would otherwise look like death, so a daemon thread
heartbeats at the interval the ``join`` response prescribes.  The one
socket is shared; a lock around each request/response pair keeps the
conversations from interleaving.

Failure is symmetric and safe by construction: if the worker dies the
coordinator re-queues its leased units elsewhere; if the coordinator
dies (or shuts down) the worker's requests fail and :meth:`run`
returns.  Results the coordinator already recorded are kept; results
in a frame that never arrived are recomputed — either way the job's
outcome is identical.
"""

import socket
import tempfile
import threading
import time

from repro.engine.cache import CacheStats
from repro.engine.session import Session
from repro.errors import ReproError
from repro.io.serialize import (
    design_point_from_dict,
    point_result_to_dict,
)
from repro.service import protocol


class WorkerError(ReproError):
    """The coordinator conversation failed or rejected a request."""


class _Channel:
    """One shared request/response socket, interleave-safe.

    Both the lease loop and the heartbeat thread talk through here;
    the lock spans each request *and* its response line, so replies
    can never cross threads.
    """

    def __init__(self, host, port, timeout):
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._stream = self._sock.makefile("rwb")
        self._lock = threading.Lock()

    def request(self, message):
        with self._lock:
            try:
                self._stream.write(protocol.encode(message))
                self._stream.flush()
                line = self._stream.readline(
                    protocol.MAX_LINE_BYTES + 1)
            except (OSError, ValueError) as exc:
                raise WorkerError("coordinator connection lost (%s: %s)"
                                  % (type(exc).__name__, exc)) from exc
        if not line:
            raise WorkerError("coordinator closed the connection")
        import json

        try:
            response = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise WorkerError("unreadable coordinator response: %r"
                              % line[:80]) from None
        if not isinstance(response, dict) or not response.get("ok"):
            raise WorkerError(
                (response or {}).get("error", "request rejected")
                if isinstance(response, dict) else "request rejected")
        return response

    def close(self):
        try:
            self._stream.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


class EngineWorker:
    """One worker process: a remote engine attached to a coordinator.

    Attributes:
        host / port: The coordinator's address.
        token: Shared auth token (required when the coordinator has
            one — the join handshake is behind the same auth as every
            other op).
        label: Suggested engine name; the coordinator uniquifies it.
        slots: Units leased (and laned) at once — the worker's
            advertised capacity.  Evaluation itself is serial within
            the worker; extra slots buy pipelining (the next points
            are already placed while these evaluate), not parallelism.
        cache_dir: Optional worker-local store to hydrate warm caches
            from.  The worker never writes it — deltas go to the
            coordinator; a throwaway store is used when omitted, so
            export bookkeeping always works.  :meth:`run` removes that
            throwaway directory when it returns (a worker that never
            runs removes it when collected); a given ``cache_dir`` is
            never removed.
    """

    def __init__(self, host, port, token=None, label="", slots=1,
                 library=None, cache_dir=None, timeout=120.0,
                 announce=print):
        self.host = host
        self.port = int(port)
        self.token = token
        self.label = label or ""
        self.slots = max(1, int(slots))
        self.timeout = float(timeout)
        self.announce = announce
        self._scratch = None
        if cache_dir is None:
            # export_delta lives on the store; a worker without a warm
            # local store still needs one for delta bookkeeping.  It is
            # never flushed, so the directory stays empty.
            self._scratch = tempfile.TemporaryDirectory(
                prefix="lycos-worker-")
            cache_dir = self._scratch.name
        self.session = Session(library=library, cache_dir=cache_dir)
        self.engine_id = None
        self.points_evaluated = 0
        self.frames_sent = 0
        self.entries_dropped = 0
        self._channel = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self):
        """Join, then lease/evaluate/deliver until the coordinator goes
        away (clean shutdown or crash) or :meth:`stop` is called.
        Returns the number of points evaluated."""
        self._channel = _Channel(self.host, self.port, self.timeout)
        heartbeat_thread = None
        try:
            if self.token is not None:
                self._channel.request({"op": "auth",
                                       "token": self.token})
            joined = self._channel.request({
                "op": "join", "engine": self.label,
                "slots": self.slots})
            self.engine_id = joined["engine"]
            interval = float(joined.get("heartbeat", 5.0))
            if self.announce is not None:
                self.announce(
                    "joined %s:%d as engine %s (slots=%d)"
                    % (self.host, self.port, self.engine_id,
                       self.slots))
            heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop, args=(interval,),
                name="lycos-worker-heartbeat", daemon=True)
            heartbeat_thread.start()
            self._lease_loop(interval)
        except WorkerError as exc:
            if self.announce is not None:
                self.announce("coordinator gone: %s" % exc)
        finally:
            self._stop.set()
            if heartbeat_thread is not None:
                heartbeat_thread.join(timeout=2.0)
            self._channel.close()
            if self._scratch is not None:
                self._scratch.cleanup()
        return self.points_evaluated

    def stop(self):
        """Ask :meth:`run` to wind down after the current lease."""
        self._stop.set()

    # ------------------------------------------------------------------
    # The lease loop
    # ------------------------------------------------------------------
    def _lease_loop(self, interval):
        # The long-poll budget doubles as the idle heartbeat: a lease
        # touches the engine, so an idle worker parked in lease() never
        # goes stale no matter what the heartbeat thread is doing.
        wait = max(0.0, min(interval, protocol.MAX_LEASE_WAIT))
        while not self._stop.is_set():
            response = self._channel.request({
                "op": "lease", "engine": self.engine_id,
                "max": self.slots, "wait": wait})
            leased = response.get("points", [])
            if not leased:
                continue
            self._evaluate_and_deliver(leased)

    def _evaluate_and_deliver(self, leased):
        """Evaluate one lease and ship results + store deltas home."""
        entries = []
        for item in leased:
            # Leased items carry the submission's objective; the
            # per-point pipeline computes every metric regardless
            # (speed-up, area, energy all ride the PointResult), so
            # the worker's evaluation is objective-independent and the
            # field is pass-through context only.
            point = design_point_from_dict(item["point"])
            before = self.session.stats.snapshot()
            result = self.session.evaluate_point_safe(point)
            delta = CacheStats.delta(before,
                                     self.session.stats.snapshot())
            self.points_evaluated += 1
            entries.append({
                "job": item["job"],
                "index": item["index"],
                "result": point_result_to_dict(result),
                "stats": {stage: [hits, misses] for stage,
                          (hits, misses) in delta.items()
                          if hits or misses},
            })
        store_delta = self.session.store.export_delta(
            self.session.cache)
        frames, dropped = protocol.store_delta_frames(store_delta)
        self.entries_dropped += dropped
        # Store frames first, results last: the frames ride the same
        # ordered connection, so every cache entry these results
        # produced is absorbed by the coordinator's single writer
        # before the results themselves are recorded — the worker's
        # half of the per-job durability barrier.  The final frame
        # carries the last blob *with* the results to save a round
        # trip.
        tail = frames.pop() if frames else None
        for blob in frames:
            self._channel.request({"op": "delta",
                                   "engine": self.engine_id,
                                   "results": [], "store": blob})
            self.frames_sent += 1
        self._channel.request({"op": "delta",
                               "engine": self.engine_id,
                               "results": entries, "store": tail})
        self.frames_sent += 1

    def _heartbeat_loop(self, interval):
        """Liveness during long evaluations; errors are left to the
        lease loop to discover (its next request fails the same way)."""
        while not self._stop.wait(max(0.05, interval)):
            try:
                self._channel.request({"op": "engine-heartbeat",
                                       "engine": self.engine_id})
            except WorkerError:
                return


def join_coordinator(host, port, token=None, label="", slots=1,
                     library=None, cache_dir=None, announce=print):
    """Blocking entry point of ``serve --join``: run one worker.

    Returns the number of points the worker evaluated.  A
    ``KeyboardInterrupt`` detaches cleanly — the coordinator re-queues
    anything this engine still held.
    """
    worker = EngineWorker(host, port, token=token, label=label,
                          slots=slots, library=library,
                          cache_dir=cache_dir, announce=announce)
    try:
        return worker.run()
    except KeyboardInterrupt:
        worker.stop()
        if announce is not None:
            announce("interrupted; detached from coordinator")
        return worker.points_evaluated
