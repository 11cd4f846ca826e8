"""The asyncio exploration service: one warm store, many engines.

The server wraps a single long-lived
:class:`~repro.engine.session.Session` (usually opened with a
``cache_dir``) behind the line-JSON protocol of
:mod:`~repro.service.protocol`: clients submit batches of design
points, the scheduler policy orders them, and the
:class:`~repro.service.engine.EngineRoster` places each unit on one of
the service's engines — so every client shares one warm cache instead
of each paying a cold sweep.

One job API, two framings: :meth:`ExplorationService.answer` returns
the document of a ``ping``, ``submit``, ``status``, ``cancel`` or
``jobs`` request, and :meth:`ExplorationService.results_page` a job's
results past a position.  The TCP frontend here writes each document
as one line and streams ``results`` as a loop over pages; the gateway
of :mod:`~repro.service.http` frames the same documents as HTTP.

Engine-count agnosticism (the ISSUE 7 refactor): evaluation happens
behind the :class:`~repro.service.engine.Engine` interface.  A default
service is one :class:`~repro.service.engine.LocalEngine`; passing
``local_engines=0`` makes a pure coordinator that only schedules and
absorbs (remote engines must join for work to progress), and any
worker process can add a :class:`~repro.service.engine.RemoteEngine`
at runtime with ``serve --join`` (the ``join``/``lease``/``delta``/
``engine-heartbeat`` ops).  Placement is ``program_fingerprint``
affinity — equal programs route to the engine that already compiled
and cached them — with aged-work stealing when an engine idles.

Concurrency model (the single-writer rule, unchanged in spirit):

* The parent session, its cache and its store are only ever touched
  from one dedicated engine thread, so the plain-dict engine needs no
  locks.  Local in-process evaluation and remote-delta absorption both
  funnel through it.
* A service evaluates in one of two places: in process, on its local
  engines (which all share that one thread), or on joined engines.
  Joined workers never write the store — their content-keyed deltas
  travel back and are absorbed on the engine thread, which remains
  the store's only writer.  More local parallelism is a ``serve
  --join`` worker away; the service keeps no process pool of its own.

Durability: the engine thread rate-limits flushes through
:meth:`~repro.engine.store.CacheStore.maybe_flush` after every point
and forces a flush whenever a job drains, so a crash loses at most
``flush_interval`` seconds of cache growth and a done results page
(TCP's ``done`` line, HTTP's ``"done": true``) implies the job's
entries — including every absorbed remote delta — are on disk.
That ordering (absorb before record, flush before "done") is the
per-job durability barrier of the fabric.  A flush is
one sqlite transaction that inserts only the entries added since the
previous one, so the barrier costs the job's new work, not the size
of the store.

Failure containment: every point is evaluated through
``Session.evaluate_point_safe`` — an unknown app or infeasible point
yields a ``PointResult`` with ``error`` set for *that point only*.  A
remote engine that dies mid-lease (connection drop or heartbeat
timeout) has its in-flight and laned units re-queued onto the
surviving engines, so job results stay bit-identical to a serial run;
a malformed ``delta`` frame is rejected whole before any of it touches
job state.

Operability (the ISSUE 4 hardening, unchanged):

* ``token`` arms the shared-token handshake — required before ``join``
  like before any other op, so only authenticated workers can attach
  engines or deliver deltas.
* ``queue_cap`` bounds the admitted-but-unfinished point count.
* ``scheduler`` picks the queue policy (``fifo``/``sjf``/``fair``).
* ``job_ttl``/``max_jobs`` garbage-collect finished jobs.
"""

import asyncio
import concurrent.futures
import hmac

from repro.engine.cache import CacheStats
from repro.engine.session import Session
from repro.io.serialize import point_result_to_dict
from repro.service import protocol
from repro.service.engine import (
    EngineRoster,
    LocalEngine,
    RemoteEngine,
)
from repro.service.queue import (
    PENDING,
    JobQueue,
    QueueFullError,
    scheduler_class,
)
from repro.errors import ReproError

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7421

#: Hosts a token-less server may bind (the mutually-trusting-local
#: contract); anything else requires ``token``.
LOOPBACK_HOSTS = ("127.0.0.1", "::1", "localhost")

#: Seconds of engine silence before the reaper declares it dead.
DEFAULT_ENGINE_TIMEOUT = 60.0

#: Seconds a placed unit must wait before an idle engine may steal it.
DEFAULT_STEAL_DELAY = 0.25

#: The ops :meth:`ExplorationService.answer` answers with one document.
JOB_OPS = ("ping", "submit", "status", "cancel", "jobs")


class _Connection:
    """Per-connection protocol state: auth plus the joined engine."""

    __slots__ = ("authenticated", "engine")

    def __init__(self, authenticated):
        self.authenticated = authenticated
        self.engine = None


class ExplorationService:
    """One service instance: session + queue + engine roster + protocol."""

    def __init__(self, session, flush_interval=2.0,
                 token=None, scheduler="fifo", queue_cap=None,
                 retry_after=0.25, job_ttl=None, max_jobs=None,
                 local_engines=1, steal_delay=DEFAULT_STEAL_DELAY,
                 engine_timeout=DEFAULT_ENGINE_TIMEOUT):
        scheduler_class(scheduler)  # fail at construction, not start()
        if local_engines < 0:
            raise ReproError("local_engines must be >= 0, got %r"
                             % (local_engines,))
        self.session = session
        self.flush_interval = float(flush_interval)
        self.token = token
        self.scheduler = scheduler
        self.queue_cap = queue_cap
        self.retry_after = float(retry_after)
        self.job_ttl = job_ttl
        self.max_jobs = max_jobs
        self.local_engines = int(local_engines)
        self.steal_delay = float(steal_delay)
        self.engine_timeout = float(engine_timeout)
        self.queue = None        # created in start() (needs the loop)
        self.roster = None
        self.address = None
        # The serving loop, set by start(); the HTTP gateway's handler
        # threads marshal every queue access through it.
        self.loop = None
        self._server = None
        self._stopping = None
        self._tasks = []
        self._connections = set()
        self._engine = None      # the single session/store thread
        self._remote_counter = 0
        self._affinity_keys = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host=DEFAULT_HOST, port=0):
        """Bind, spin up the roster and scheduler, return self."""
        self.queue = JobQueue(scheduler=self.scheduler,
                              max_pending=self.queue_cap,
                              retry_after=self.retry_after,
                              job_ttl=self.job_ttl,
                              max_finished=self.max_jobs)
        self.roster = EngineRoster(steal_delay=self.steal_delay)
        self.loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._engine = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="lycos-engine")
        self._tasks = [asyncio.ensure_future(self._dispatch_loop()),
                       asyncio.ensure_future(self._reap_loop())]
        for number in range(self.local_engines):
            engine = LocalEngine("local-%d" % (number + 1))
            await self.roster.add(engine)
            self._tasks.append(
                asyncio.ensure_future(self._local_pump(engine)))
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=protocol.MAX_LINE_BYTES)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self

    async def run_until_shutdown(self):
        """Serve until a shutdown request (or cancellation) arrives."""
        await self._stopping.wait()
        await self.stop()

    async def stop(self):
        """Tear the service down; the store gets one final flush.

        The engine thread shuts down even when that flush fails; the
        failure still reaches the caller.
        """
        if self._server is not None:
            self._server.close()
            # Cancel the live connection handlers before waiting: an
            # idle client parked in readline() would otherwise hold
            # wait_closed() open forever on Python >= 3.12, where it
            # waits for every handler, not just the listening socket.
            for connection in list(self._connections):
                connection.cancel()
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
            await self._server.wait_closed()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self._engine is not None:
            try:
                await self._on_engine(self.session.save_store)
            finally:
                self._engine.shutdown(wait=True)
                self._engine = None

    def _on_engine(self, callable_, *args):
        """Run session/store work on the single engine thread."""
        return asyncio.get_running_loop().run_in_executor(
            self._engine, callable_, *args)

    # ------------------------------------------------------------------
    # Scheduling: policy -> placement -> engines
    # ------------------------------------------------------------------
    def _affinity_key(self, point):
        """The placement key of one point: its program fingerprint.

        Falls back to the bare app name when the fingerprint cannot be
        computed (an unknown app, say — it will fail per-point anyway,
        and the failure may as well be affine too).  Memoised per app:
        the fingerprint covers source + profiling inputs + library,
        none of which change within one service life.
        """
        key = self._affinity_keys.get(point.app)
        if key is None:
            try:
                key = self.session.program_affinity_key(point.app)
            except Exception:
                key = "app:%s" % point.app
            self._affinity_keys[point.app] = key
        return key

    async def _dispatch_loop(self):
        """Pull units from the queue policy and place them on engines.

        The policy decides *what* runs next; the roster decides
        *where*.  Placement blocks while the affine engine's lane is
        full, which keeps policy decisions late — at most ``slots``
        units are committed to an engine ahead of its evaluation.
        """
        while True:
            job, index = await self.queue.next_unit()
            if job.states[index] != PENDING:
                continue  # cancelled while queued
            key = self._affinity_key(job.points[index])
            await self.roster.place(job, index, key)

    async def _reap_loop(self):
        """Fail remote engines that went silent past the timeout."""
        interval = max(0.05, self.engine_timeout / 4.0)
        while True:
            await asyncio.sleep(interval)
            for engine in self.roster.reap_stale(self.engine_timeout):
                await self.roster.fail(engine)

    async def _local_pump(self, engine):
        """One evaluation slot of a local engine."""
        while True:
            units = await self.roster.take(engine, max_units=1)
            for unit in units:
                try:
                    await self._run_unit(engine, unit.job, unit.index)
                except asyncio.CancelledError:
                    raise
                except Exception:
                    # A unit must never kill its engine slot; the point
                    # is recorded as failed and the pump keeps going.
                    pass

    async def _run_unit(self, engine, job, index):
        point = job.points[index]
        try:
            result, stats_delta = await self._on_engine(
                self._evaluate_local, point)
        except Exception as exc:
            from repro.engine.design_point import failed_point_result

            result, stats_delta = failed_point_result(point, exc), {}
        await self._record(engine, job, index, result, stats_delta)

    async def _record(self, engine, job, index, result, stats_delta):
        """Terminal bookkeeping one completed unit shares across
        engine kinds: job record, engine accounting, roster release,
        and the job-completion durability flush."""
        engine.record_stats(stats_delta)
        await job.record(index, result, stats_delta)
        await self.roster.complete(engine, job.id, index)
        if job.finished:
            self.queue.collect_garbage()
            # A streamed "done" implies durability: force the flush the
            # per-point path only performs on its time budget.  Its
            # failure is bookkeeping, like the per-point flush's: the
            # stream-end flush reports it to the clients.
            try:
                await self._on_engine(self.session.save_store)
            except Exception:
                pass

    def _evaluate_local(self, point):
        """One in-process evaluation, then the rate-limited flush;
        runs on the engine thread."""
        stats = self.session.stats
        before = stats.snapshot()
        result = self.session.evaluate_point_safe(point)
        stats_delta = CacheStats.delta(before, stats.snapshot())
        self._maybe_flush()
        return result, stats_delta

    def _maybe_flush(self):
        """Flush on the time budget; runs on the engine thread.

        A failure (a full disk, say) is bookkeeping: it must not
        discard a result that was already computed — the per-point
        error field reports *design-point* failures — and the store
        retries unchanged entries on its next flush anyway.
        """
        if self.session.store is None:
            return
        try:
            self.session.store.maybe_flush(self.session.cache,
                                           self.flush_interval)
        except Exception:
            pass

    def _absorb_remote(self, stats_deltas, store_delta):
        """Absorb one remote delta frame; runs on the engine thread.

        Returns the number of store entries absorbed.  Runs *before*
        the frame's results are recorded, so a job can only finish
        once every delta that travelled with its results has reached
        the store — the other half of the durability barrier.
        """
        for stats_delta in stats_deltas:
            self.session.stats.merge(stats_delta)
        absorbed = 0
        if self.session.store is not None and store_delta:
            absorbed = self.session.store.absorb_delta(store_delta)
        self._maybe_flush()
        return absorbed

    # ------------------------------------------------------------------
    # Protocol handling
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer):
        task = asyncio.current_task()
        self._connections.add(task)
        conn = _Connection(authenticated=self.token is None)
        try:
            while not self._stopping.is_set():
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over-long line: framing is gone, drop the link.
                    writer.write(protocol.encode(protocol.error(
                        "request line exceeds %d bytes"
                        % protocol.MAX_LINE_BYTES)))
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    request = protocol.decode_request(line)
                    if request["op"] == "auth":
                        granted = self._check_token(request)
                        writer.write(protocol.encode(
                            protocol.ok(authenticated=True) if granted
                            else protocol.error("invalid token")))
                        await writer.drain()
                        if not granted:
                            break  # no guessing on one connection
                        conn.authenticated = True
                        continue
                    if not conn.authenticated:
                        # Rejected (and the link dropped) before any
                        # job state exists — the auth contract.
                        writer.write(protocol.encode(protocol.error(
                            "authentication required: send "
                            "{\"op\": \"auth\", \"token\": ...} first",
                            auth_required=True)))
                        await writer.drain()
                        break
                    await self._dispatch_request(request, writer, conn)
                except (protocol.ProtocolError, ReproError) as exc:
                    writer.write(protocol.encode(protocol.error(exc)))
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-reply; nothing to clean up
        except asyncio.CancelledError:
            # Service shutdown cancels connection handlers, possibly
            # mid-request (a worker parked in a lease long-poll).  The
            # connection is closing either way; ending the task
            # normally keeps the cancellation out of the event loop's
            # exception log.
            pass
        finally:
            self._connections.discard(task)
            if conn.engine is not None:
                # The engine's lifetime is its connection's: a worker
                # that vanishes (cleanly or not) has its units
                # re-queued onto the surviving engines.
                try:
                    await asyncio.shield(self.roster.fail(conn.engine))
                except Exception:
                    pass
            writer.close()

    def info(self):
        """The service fields every ping and the dashboard report.

        ``program_compiles`` vs ``program_store_hits`` is the program
        store's economy: compiles the engine (or its joined workers —
        their deltas merge into the session stats) actually paid vs
        compiles the persistent store absorbed.  A long-lived warm
        service shows hits climbing while compiles stay flat across
        jobs and restarts.  Call it on the service loop.
        """
        stats = self.session.stats
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "jobs": len(self.queue.jobs),
            "scheduler": self.queue.scheduler.name,
            "depth": self.queue.depth,
            "queue_cap": self.queue.max_pending,
            "program_compiles": stats.miss_count("compile"),
            "program_store_hits": stats.hit_count("compile"),
            "local_engines": self.local_engines,
            "engines": self.roster.status(),
        }

    def _check_token(self, request):
        """Constant-time shared-token check of one auth request."""
        supplied = protocol.auth_token(request)
        if self.token is None:
            return True  # open server: the handshake is a no-op
        return hmac.compare_digest(supplied.encode("utf-8"),
                                   self.token.encode("utf-8"))

    def _connection_engine(self, request, conn):
        """The engine bound to this connection, checked against the
        request — lease/delta/heartbeat only speak for the engine that
        joined on the *same* connection, so no worker can touch
        another engine's units."""
        engine = conn.engine
        if engine is None:
            raise ReproError("no engine joined on this connection "
                             "(send {\"op\": \"join\", ...} first)")
        named = protocol.engine_name(request)
        if named != engine.id:
            raise ReproError(
                "engine %r is not joined on this connection (this "
                "connection's engine is %r)" % (named, engine.id))
        return engine

    async def _dispatch_request(self, request, writer, conn):
        op = request["op"]
        if op in JOB_OPS:
            try:
                response = await self.answer(request)
            except QueueFullError as exc:
                response = protocol.error(exc, retry_after=exc.retry_after)
            writer.write(protocol.encode(response))
            await writer.drain()
            return
        # answer() trims retention for the job ops; the others do here.
        self.queue.collect_garbage()
        if op == "results":
            job = self.queue.get(protocol.job_name(request))
            await self._stream_results(job, writer)
            return
        elif op == "join":
            await self._handle_join(request, writer, conn)
        elif op == "lease":
            await self._handle_lease(request, writer, conn)
        elif op == "delta":
            await self._handle_delta(request, writer, conn)
        elif op == "engine-heartbeat":
            engine = self._connection_engine(request, conn)
            engine.touch()
            writer.write(protocol.encode(protocol.ok(
                engine=engine.id, queued=len(engine.lane),
                in_flight=len(engine.inflight))))
        elif op == "shutdown":
            writer.write(protocol.encode(protocol.ok(stopping=True)))
            await writer.drain()
            self._stopping.set()
            return
        await writer.drain()

    # ------------------------------------------------------------------
    # Fabric ops
    # ------------------------------------------------------------------
    async def _handle_join(self, request, writer, conn):
        if conn.engine is not None:
            raise ReproError("this connection already joined engine %r"
                             % conn.engine.id)
        label, slots = protocol.join_fields(request)
        self._remote_counter += 1
        base = label or ("remote-%d" % self._remote_counter)
        engine = RemoteEngine(self.roster.unique_id(base),
                              slots=slots, label=label)
        await self.roster.add(engine)
        conn.engine = engine
        writer.write(protocol.encode(protocol.ok(
            engine=engine.id, slots=engine.slots,
            timeout=self.engine_timeout,
            heartbeat=max(0.05, self.engine_timeout / 3.0))))

    async def _handle_lease(self, request, writer, conn):
        engine = self._connection_engine(request, conn)
        max_units, wait = protocol.lease_fields(request)
        engine.touch()
        units = await self.roster.take(engine, max_units=max_units,
                                       timeout=wait)
        from repro.io.serialize import design_point_to_dict

        writer.write(protocol.encode(protocol.ok(
            engine=engine.id,
            points=[{"job": unit.job.id, "index": unit.index,
                     "point": design_point_to_dict(
                         unit.job.points[unit.index])}
                    for unit in units])))

    async def _handle_delta(self, request, writer, conn):
        """Absorb one worker delta frame: store first, results second.

        The whole frame is validated and decoded *before* anything is
        applied — a malformed result document or store blob rejects
        the frame with no coordinator state touched (the fuzz-tier
        contract).  Results are only accepted for units this engine
        holds a lease on; anything else (a re-send after a reconnect,
        a confused worker) is counted and ignored — the re-queue path
        already covers those points.
        """
        engine = self._connection_engine(request, conn)
        entries, blob = protocol.delta_fields(request)
        store_delta = None
        delta_raw = delta_compressed = 0
        if blob is not None:
            store_delta, delta_raw, delta_compressed = \
                protocol.decode_store_delta_sized(blob)
        from repro.io.serialize import point_result_from_dict

        decoded = []
        for job_id, index, document, stats_delta in entries:
            result = point_result_from_dict(
                document, library=self.session.library)
            decoded.append((job_id, index, result, stats_delta))
        engine.touch()
        absorbed = 0
        stats_deltas = [stats for _, _, _, stats in decoded if stats]
        if store_delta is not None or stats_deltas:
            try:
                absorbed = await self._on_engine(
                    self._absorb_remote, stats_deltas, store_delta)
            except Exception:
                absorbed = 0  # bookkeeping must not discard results
        engine.deltas_absorbed += 1
        engine.delta_entries += absorbed
        if blob is not None:
            # Compression accounting: what crossed the wire vs the
            # pickled payload it stood for, per engine — surfaced by
            # ``ping``/``status`` rosters and ``cache info``, and
            # persisted in the store's own ``deltas`` table.
            engine.delta_raw_bytes += delta_raw
            engine.delta_compressed_bytes += delta_compressed
            if self.session.store is not None:
                try:
                    await self._on_engine(
                        self.session.store.record_delta_stats,
                        engine.id, delta_raw, delta_compressed)
                except Exception:
                    pass  # accounting must not discard results
        recorded = 0
        stale = 0
        for job_id, index, result, stats_delta in decoded:
            unit = engine.inflight.get((job_id, index))
            if unit is None:
                stale += 1
                continue
            await self._record(engine, unit.job, index, result,
                               stats_delta)
            recorded += 1
        writer.write(protocol.encode(protocol.ok(
            engine=engine.id, recorded=recorded, stale=stale,
            store_entries=absorbed)))

    async def _stream_results(self, job, writer):
        """Replay finished points, then follow live until terminal.

        One line per entry of the job's results pages, completion
        -ordered; a final ``done`` line carries the job's closing
        status.  When the closing store flush fails, an error line
        naming the failure takes the ``done`` line's place.
        """
        writer.write(protocol.encode(protocol.ok(
            job=job.id, total=len(job.points), streaming=True)))
        await writer.drain()
        sent = 0
        done = False
        while not done:
            entries, done, failure = await self.results_page(job, sent)
            for entry in entries:
                writer.write(protocol.encode(protocol.ok(**entry)))
            sent += len(entries)
            await writer.drain()
        writer.write(protocol.encode(
            protocol.error(failure) if failure is not None
            else protocol.ok(done=True, status=self.queue.status(job))))
        await writer.drain()

    # ------------------------------------------------------------------
    # Job operations: the one job API both frontends frame
    # ------------------------------------------------------------------
    async def answer(self, request, quota=None):
        """The response document of a ``ping``, ``submit``, ``status``,
        ``cancel`` or ``jobs`` request; call it on the service loop.

        Rejections raise: :class:`~repro.service.protocol.ProtocolError`
        for a malformed field; the queue's
        :class:`~repro.service.queue.QueueFullError` (with its
        ``retry_after``) for backpressure, its ``UnknownJobError`` and
        ``JobExpiredError`` for a job it does not hold, and a plain
        :class:`~repro.errors.ReproError` for a batch that can never be
        admitted.  ``quota`` caps the submitting client's
        in-flight points (the HTTP gateway's API keys carry one).
        """
        op = request["op"]
        # Retention is enforced at every touch point, so an idle-then
        # -polled service trims itself before answering.
        self.queue.collect_garbage()
        if op == "ping":
            return protocol.ok(**self.info())
        if op == "submit":
            points = protocol.submission_points(request)
            client, weight = protocol.submission_meta(request)
            objective = protocol.submission_objective(request)
            job = self.queue.submit(points, client=client, weight=weight,
                                    objective=objective, quota=quota)
            return protocol.ok(job=job.id, total=len(job.points),
                               objective=job.objective)
        if op == "jobs":
            return protocol.ok(jobs=[self.queue.status(self.queue.jobs[name])
                                     for name in sorted(self.queue.jobs)])
        job = self.queue.get(protocol.job_name(request))
        if op == "cancel":
            cancelled = await self.queue.cancel(job.id)
            return protocol.ok(cancelled=cancelled,
                               status=self.queue.status(job))
        return protocol.ok(status=self.queue.status(job))

    async def results_page(self, job, after, wait=None):
        """``(entries, done, failure)``: the job's completions past
        position ``after``, each ``{"index", "result"}`` or ``{"index",
        "cancelled": True}``, in completion order.

        Waits on the job's condition until one lands, the job turns
        terminal, or ``wait`` seconds pass (``None``: no limit).  A
        ``done`` page reaches the job's end and is the durability
        barrier: the job's store entries are flushed before it returns
        (cheap once the scheduler's completion flush got there), and
        ``failure`` names a failed flush, else ``None``.
        """
        async with job.condition:
            try:
                await asyncio.wait_for(job.condition.wait_for(
                    lambda: len(job.order) > after or job.finished), wait)
            except asyncio.TimeoutError:
                pass  # the page holds what landed in time
            # Read under the condition while ``done`` is sampled, so a
            # done page always covers the tail.
            order = job.order[after:]
            done = job.finished
        entries = []
        for index in order:
            result = job.results.get(index)
            if result is None:
                entries.append({"index": index, "cancelled": True})
            else:
                entries.append({"index": index,
                                "result": point_result_to_dict(result)})
        failure = None
        if done:
            try:
                await self._on_engine(self.session.save_store)
            except Exception as exc:
                failure = ("job %s finished but its store flush failed: %s"
                           % (job.id, exc))
        return entries, done, failure


def serve(cache_dir=None, host=DEFAULT_HOST,
          port=DEFAULT_PORT, library=None, flush_interval=2.0,
          announce=print, token=None, scheduler="fifo", queue_cap=None,
          job_ttl=None, max_jobs=None, local_engines=1,
          steal_delay=DEFAULT_STEAL_DELAY,
          engine_timeout=DEFAULT_ENGINE_TIMEOUT,
          http_port=None, api_keys=None):
    """Blocking entry point: build the session, serve until shutdown.

    Runs until a ``shutdown`` request or ``KeyboardInterrupt``; either
    way the store gets a final flush, so everything the service
    computed stays warm for the next one.  Binding a non-loopback
    ``host`` requires ``token`` — an open service beyond localhost
    would hand the store (and the engine) to the whole network.
    ``local_engines=0`` starts a pure coordinator: nothing evaluates
    until worker processes join (``serve --join``).

    ``http_port`` additionally mounts the REST gateway of
    :mod:`~repro.service.http` over the same queue, on the same host;
    ``api_keys`` (``{key: ApiKey}``, see
    :func:`~repro.service.http.load_api_keys`) arms its per-key auth,
    scheduler identity and in-flight quotas — required beyond
    loopback, like the TCP token.
    """
    if token is None and host not in LOOPBACK_HOSTS:
        raise ReproError(
            "refusing to bind %s without a token: pass token= "
            "(--token/--token-file) to serve beyond loopback" % host)
    session = Session(library=library, cache_dir=cache_dir)

    async def _main():
        service = ExplorationService(session,
                                     flush_interval=flush_interval,
                                     token=token, scheduler=scheduler,
                                     queue_cap=queue_cap,
                                     job_ttl=job_ttl, max_jobs=max_jobs,
                                     local_engines=local_engines,
                                     steal_delay=steal_delay,
                                     engine_timeout=engine_timeout)
        await service.start(host=host, port=port)
        gateway = None
        if http_port is not None:
            from repro.service.http import HttpGateway

            gateway = HttpGateway(service, api_keys=api_keys)
            gateway.start(host=host, port=http_port)
        if announce is not None:
            announce("serving on %s:%d (local engines=%d, "
                     "scheduler=%s, cache_dir=%s, auth=%s)"
                     % (service.address[0], service.address[1],
                        local_engines, scheduler,
                        cache_dir or "none",
                        "token" if token else "none"))
            if gateway is not None:
                announce("http gateway on %s:%d (auth=%s)"
                         % (gateway.address[0], gateway.address[1],
                            "%d api key(s)" % len(api_keys)
                            if api_keys else "none"))
        try:
            await service.run_until_shutdown()
        except asyncio.CancelledError:
            await service.stop()
            raise
        finally:
            if gateway is not None:
                gateway.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        session.save_store()
        if announce is not None:
            announce("interrupted; store flushed")
    return session
