"""One blocking client for the exploration service, over two framings.

:class:`JobClient` is the client side of the job API, written once:
``submit``, ``status``, ``cancel``, ``jobs``, ``ping``, ``results``
and ``collect``.  ``submit`` accepts
:class:`~repro.engine.design_point.DesignPoint` instances (or app-name
strings, or already-serialised dicts) and retries backpressure
rejections (the server's structured ``retry_after``) with capped
exponential backoff inside a ``retry_budget``; ``results`` yields
``(index, PointResult)`` pairs — a failed point comes back with
``result.error`` set, never as an exception.  A framing supplies only
a request→document call and a results-page iterator:
:class:`ServiceClient` frames the line-JSON TCP protocol, and
:class:`~repro.service.http_client.HttpServiceClient` the REST gateway.

Over TCP every request opens its own connection (the server keeps no
session state, which is what makes many concurrent clients trivial),
and ``results`` keeps its connection open while the server streams.
That conversation is :class:`LineChannel`, which the joined worker
(:class:`~repro.service.worker.EngineWorker`) holds open for its
join/lease/delta/heartbeat traffic too: a ``token`` is presented in an
auth handshake; a rejection raises :class:`ServiceError` carrying the
server's document; and a connection the *server* drops mid-request —
an unauthenticated link, an oversized line — surfaces as a
:class:`ServiceError` carrying the server's last error line instead of
an opaque ``ConnectionResetError``.
"""

import contextlib
import itertools
import json
import os
import random
import socket
import threading
import time

from repro.engine.design_point import DesignPoint
from repro.errors import ReproError
from repro.io.serialize import (
    design_point_to_dict,
    point_result_from_dict,
)
from repro.service import protocol
from repro.service.server import DEFAULT_HOST, DEFAULT_PORT

_CLIENT_IDS = itertools.count(1)


class ServiceError(ReproError):
    """The server rejected a request or the conversation broke down.

    ``response`` holds the server's structured error document when one
    was read; :attr:`retry_after` is the backpressure hint (seconds)
    of a queue-full rejection, ``None`` for every other failure.
    """

    def __init__(self, message, response=None):
        super().__init__(message)
        self.response = response if isinstance(response, dict) else None

    @property
    def retry_after(self):
        if self.response is None:
            return None
        value = self.response.get("retry_after")
        if isinstance(value, bool) or \
                not isinstance(value, (int, float)):
            return None
        return float(value)


def backoff_wait(hint, attempt, cap, jitter, rng):
    """One backoff sleep: capped exponential, then jittered.

    ``wait = min(cap, max(0.01, hint) * 2 ** attempt)`` is the capped
    exponential step; jitter only ever *shortens* it, so ``cap`` and
    any deadline math keep their meaning.  Exact envelope: the sleep is
    ``wait * (1 - jitter * rng.random())`` with ``rng.random()``
    uniform on ``[0, 1)``, so the sleep is uniform on
    ``((1 - jitter) * wait, wait]`` — the *top* endpoint is attainable
    (a draw of exactly 0.0 sleeps the full ``wait``), the bottom
    endpoint ``(1 - jitter) * wait`` never is in real arithmetic
    (float rounding at the maximal draw can touch it, nothing can
    cross it).  ``jitter <= 0`` returns ``wait`` exactly (the old
    deterministic schedule).

    This is the one backoff helper of both framings; fix it here, not
    in a copy.
    """
    wait = min(cap, max(0.01, hint) * (2 ** attempt))
    if jitter <= 0.0:
        return wait
    return wait * (1.0 - jitter * rng.random())


def decode_entry(entry, library=None):
    """``(index, PointResult | None)`` of one results entry.

    The service sends ``{"index", "result"}`` for a finished point and
    ``{"index", "cancelled": true}`` for one cancelled before it ran.
    """
    if entry.get("cancelled"):
        return entry["index"], None
    return entry["index"], point_result_from_dict(entry["result"],
                                                  library=library)


def _point_document(point):
    """The wire document of one point ``submit`` was handed."""
    if isinstance(point, DesignPoint):
        return design_point_to_dict(point)
    if isinstance(point, str):
        return design_point_to_dict(DesignPoint(app=point))
    if isinstance(point, dict):
        return point
    raise ServiceError("submit() expects DesignPoint instances, "
                       "app names or design-point dicts, got %r"
                       % (point,))


class JobClient:
    """The job operations of both framings, written once.

    A framing implements two methods.  ``_call(request)`` returns the
    response document of one ``{"op": ...}`` request in the line
    protocol's shape, raising :class:`ServiceError` (with the server's
    document) on a rejection.  ``_pages(job_id)`` iterates over the
    job's results pages: documents holding a ``results`` list of
    entries and, on the last, ``done: true`` with the closing
    ``status``.

    Attributes:
        timeout: Per-socket-operation timeout in seconds.
        client_id: The scheduling identity submissions carry (the
            ``fair`` scheduler round-robins between these); ``None``
            or empty sends none.
        retry_budget: Total seconds :meth:`submit` may spend retrying
            backpressure rejections before giving up (0 disables).
        retry_cap: Upper bound on one backoff sleep.
        retry_jitter: Fraction of each backoff sleep randomised away,
            in [0, 1].  Clients rejected by the same queue-full event
            share the same hint and the same attempt count — without
            jitter they all sleep the *same* capped-exponential wait
            and stampede the server in lockstep, forever.  Each sleep
            is drawn uniformly from ``((1 - jitter) * wait, wait]``
            (top endpoint attainable, bottom excluded — see
            :func:`backoff_wait` for the exact envelope), so the cap
            still bounds it and jitter 0 restores the exact old
            schedule.
        retry_seed: Seed of the jitter's private ``random.Random`` —
            deterministic backoff schedules for tests; ``None`` (the
            default) seeds from the OS like any other Random.
        last_submit_rejections: Backpressure rejections the last
            :meth:`submit` absorbed, the final unretried one included.
        last_status: The closing status document of the last
            :meth:`results` stream that reached its end.
    """

    def __init__(self, timeout=120.0, client_id=None, retry_budget=60.0,
                 retry_cap=2.0, retry_jitter=0.5, retry_seed=None):
        if not 0.0 <= float(retry_jitter) <= 1.0:
            raise ReproError("retry_jitter must be in [0, 1], got %r"
                             % (retry_jitter,))
        self.timeout = timeout
        self.client_id = client_id
        self.retry_budget = float(retry_budget)
        self.retry_cap = float(retry_cap)
        self.retry_jitter = float(retry_jitter)
        self._retry_rng = random.Random(retry_seed)
        self.last_submit_rejections = 0
        self.last_status = None

    # ------------------------------------------------------------------
    # Retry/backoff
    # ------------------------------------------------------------------
    def _backoff_wait(self, hint, attempt):
        """This client's :func:`backoff_wait` (see its envelope)."""
        return backoff_wait(hint, attempt, self.retry_cap,
                            self.retry_jitter, self._retry_rng)

    def _submit_with_retries(self, send):
        """Run ``send()`` until it is admitted or the budget runs out.

        Backpressure rejections (``retry_after`` set) are retried with
        capped exponential jittered backoff until the budget deadline;
        any other :class:`ServiceError` is raised at once.
        :attr:`last_submit_rejections` counts every backpressure
        rejection this submit absorbed — the retried ones *and* the
        final one re-raised when the next wait would overrun the
        budget deadline, so the counter never under-reports the
        server's pushback.
        """
        self.last_submit_rejections = 0
        deadline = time.monotonic() + max(0.0, self.retry_budget)
        attempt = 0
        while True:
            try:
                return send()
            except ServiceError as exc:
                hint = exc.retry_after
                if hint is None:
                    raise  # not a backpressure rejection
                self.last_submit_rejections += 1
                wait = self._backoff_wait(hint, attempt)
                if time.monotonic() + wait > deadline:
                    raise
                attempt += 1
                time.sleep(wait)


    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def ping(self):
        """Server liveness + protocol/engine-roster/queue info."""
        return self._call({"op": "ping"})

    def submit(self, points, weight=None, objective=None):
        """Submit a batch; returns the job id.

        ``weight`` is the fair-scheduler share of the job's lane, sent
        only when given: the server's default is 1, and over a keyed
        gateway the API key's weight is both the default and the
        ceiling.  ``objective`` names the optimisation objective the
        job's results are ranked by on the client side; it travels
        with the job (visible in ``status``) but leaves per-point
        evaluation untouched.

        A backpressure rejection (a full queue, or an API key's quota
        over HTTP) is retried under :meth:`_submit_with_retries`.
        """
        request = {"op": "submit",
                   "points": [_point_document(point) for point in points]}
        if self.client_id:
            request["client"] = self.client_id
        if weight is not None:
            request["weight"] = weight
        if objective is not None:
            request["objective"] = objective
        return self._submit_with_retries(
            lambda: self._call(request)["job"])

    def status(self, job_id):
        """The job's status document."""
        return self._call({"op": "status", "job": job_id})["status"]

    def cancel(self, job_id):
        """Cancel the job's pending points; returns the final status.

        A job that already finished is left as it is: the answer
        cancels 0 points and its state stays ``done``.
        """
        return self._call({"op": "cancel", "job": job_id})["status"]

    def jobs(self):
        """Status documents of every job the server knows."""
        return self._call({"op": "jobs"})["jobs"]

    def results(self, job_id, library=None):
        """Yield ``(index, PointResult)`` as points complete.

        Completion-ordered, not submission-ordered; a cancelled point
        yields ``(index, None)``.  The generator ends when the job
        reaches a terminal state and its store entries are on disk (a
        failed closing flush raises :class:`ServiceError`); the closing
        status document is available afterwards as
        :attr:`last_status`.

        A caller that abandons the stream mid-job (a ``break`` after
        the first result, an explicit ``close()`` on the generator)
        closes the framing's page iterator *eagerly*, as the ``with``
        below exits — over TCP that tears the stream's connection down
        at once instead of whenever the garbage collector finalises
        the generator.  The server treats the early disconnect as the
        client going away, never as an error.
        """
        self.last_status = None
        with contextlib.closing(self._pages(job_id)) as pages:
            for page in pages:
                for entry in page.get("results", ()):
                    yield decode_entry(entry, library)
                if page.get("done"):
                    self.last_status = page.get("status")
                    return

    def collect(self, job_id, library=None):
        """Block until terminal; results in submission order.

        Returns a list with one slot per submitted point:
        :class:`PointResult` (``error`` possibly set) or ``None`` for a
        cancelled point.
        """
        slots = [None] * self.status(job_id)["total"]
        for index, result in self.results(job_id, library=library):
            slots[index] = result
        return slots


def _lost(exc):
    return ServiceError("connection lost (%s: %s)"
                        % (type(exc).__name__, exc))


class LineChannel:
    """One line-JSON connection to the service.

    ``sock`` is a connected socket the channel owns from here on;
    ``token``, when given, is presented in the auth handshake before
    the constructor returns (a rejection closes the channel and raises
    :class:`ServiceError`).  :meth:`request` holds one lock across a
    request line *and* its reply, so threads sharing a channel (the
    worker's lease loop and its heartbeat) never read each other's
    replies.
    """

    def __init__(self, sock, token=None):
        self._sock = sock
        self._stream = sock.makefile("rwb")
        self._lock = threading.Lock()
        if token is not None:
            try:
                self.request({"op": "auth", "token": token})
            except ServiceError:
                self.close()
                raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def request(self, message):
        """Send one request line; returns its reply document."""
        with self._lock:
            try:
                self._stream.write(protocol.encode(message))
                self._stream.flush()
            except ConnectionError as exc:
                raise self._dropped(exc) from exc
            except (OSError, ValueError) as exc:
                raise _lost(exc) from exc
            return self.read()

    def read(self):
        """The next reply line, as a document.

        :meth:`request` reads its reply here; a streamed reply (the
        ``results`` op) is read on with further calls by the one
        thread that sent it.  An ``ok: false`` line raises
        :class:`ServiceError` carrying the document.
        """
        try:
            line = self._stream.readline(protocol.MAX_LINE_BYTES + 1)
        except (OSError, ValueError) as exc:
            raise _lost(exc) from exc
        if not line:
            raise ServiceError("connection closed by the server")
        if len(line) > protocol.MAX_LINE_BYTES:
            raise ServiceError("response line exceeds %d bytes"
                               % protocol.MAX_LINE_BYTES)
        try:
            message = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ServiceError("unreadable response: %r"
                               % line[:80]) from None
        if not isinstance(message, dict):
            raise ServiceError("response must be a JSON object")
        if not message.get("ok", False):
            raise ServiceError(message.get("error", "request rejected"),
                               response=message)
        return message

    def _dropped(self, exc):
        """A typed error for a link the server tore down mid-request.
        The server usually managed to send one structured error line
        (authentication required, oversized line) before closing;
        surface that message when it can still be read."""
        try:
            response = json.loads(self._stream.readline(
                protocol.MAX_LINE_BYTES + 1).decode("utf-8"))
        except (OSError, ValueError):
            response = None  # the teardown outran the error line
        if isinstance(response, dict) and response.get("error"):
            return ServiceError("server dropped the connection: %s"
                                % response["error"], response=response)
        return ServiceError("server dropped the connection (%s: %s)"
                            % (type(exc).__name__, exc))

    def close(self):
        # The stream first: the socket's descriptor stays open while
        # its makefile stream does.
        for closable in (self._stream, self._sock):
            try:
                closable.close()
            except OSError:
                pass  # flushing a dead link


class ServiceClient(JobClient):
    """The line-JSON TCP framing of the job API.

    Attributes:
        host / port: The service address.
        timeout: Per-socket-operation timeout in seconds.  ``results``
            streams block up to this long *between lines*, so pick it
            larger than the slowest single point you expect.
        token: Shared auth token; presented in a handshake on every
            connection (a token against an open server is harmless).
        client_id: Defaults to a per-instance label, so two clients in
            one process are two scheduler lanes.

    The retry attributes are :class:`JobClient`'s.
    """

    def __init__(self, host=DEFAULT_HOST, port=DEFAULT_PORT,
                 timeout=120.0, token=None, client_id=None,
                 retry_budget=60.0, retry_cap=2.0, retry_jitter=0.5,
                 retry_seed=None):
        if client_id is None:
            client_id = "client-%d-%d" % (os.getpid(), next(_CLIENT_IDS))
        super().__init__(timeout, client_id, retry_budget, retry_cap,
                         retry_jitter, retry_seed)
        self.host = host
        self.port = port
        self.token = token

    # Own attributes, not inherited ones: perfbench traces each
    # framing's submit and collect as a layer of its own.
    submit = JobClient.submit
    collect = JobClient.collect

    def shutdown(self):
        """Ask the server to stop (it flushes its store first)."""
        return self._call({"op": "shutdown"})

    def _connect(self):
        return socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)

    def _call(self, request):
        with LineChannel(self._connect(), self.token) as channel:
            return channel.request(request)

    def _pages(self, job_id):
        """The ``results`` stream: each entry line is a page of one."""
        with LineChannel(self._connect(), self.token) as channel:
            header = channel.request({"op": "results", "job": job_id})
            if not header.get("streaming"):
                raise ServiceError("expected a results stream, got %r"
                                   % (header,))
            while True:
                line = channel.read()
                yield line if line.get("done") else {"results": [line]}
