"""Client-layer contract regressions (ISSUE 9's bugfix sweep).

Three fixed bugs, each pinned here so it cannot quietly return:

1. ``ServiceClient.results()`` used to hold its socket open until the
   garbage collector finalised an abandoned generator; it now tears
   the connection down *eagerly* (``GeneratorExit`` lands in the
   ``finally``) and the server tolerates the early disconnect.
2. ``submit()`` under-reported ``last_submit_rejections`` by exactly
   one when the *final* rejection overran the retry budget — the
   give-up rejection went uncounted.
3. The backoff jitter envelope was documented one way and implemented
   another; the reconciled contract is pinned at its exact endpoints:
   a sleep is uniform on ``((1 - jitter) * wait, wait]`` — top
   attainable, bottom excluded.  Both clients must share that helper
   (:func:`repro.service.client.backoff_wait`), not copy it.

Both framings run the one set of job operations of
:class:`~repro.service.client.JobClient`, so they must also answer with
the same documents (:class:`TestFramingParity`).
"""

import time

import pytest

from repro.engine import DesignPoint
from repro.errors import ReproError
from repro.service.client import (
    JobClient,
    ServiceClient,
    ServiceError,
    backoff_wait,
)
from repro.service.http_client import HttpServiceClient
from repro.service.server import ExplorationService

from tests.service.test_service import (
    assert_matches_serial,
    transport_client,
)

GRID = (DesignPoint(app="straight", area=3000.0, quanta=80),
        DesignPoint(app="straight", area=5000.0, quanta=80),
        DesignPoint(app="straight", area=7500.0, quanta=80),
        DesignPoint(app="straight", area=15000.0, quanta=80))


class SlowService(ExplorationService):
    point_delay = 0.1

    def _evaluate_local(self, point):
        time.sleep(self.point_delay)
        return super()._evaluate_local(point)


def spying_client(harness, **kwargs):
    """A harness client whose created sockets are recorded.

    ``_connect`` is the TCP framing's connection seam: every
    :class:`~repro.service.client.LineChannel` it opens, the results
    stream's included, runs over a socket made there.
    """
    client = harness.client(**kwargs)
    sockets = []
    inner = client._connect

    def connect():
        sock = inner()
        sockets.append(sock)
        return sock

    client._connect = connect
    return client, sockets


class TestEagerStreamTeardown:
    def test_closing_an_abandoned_stream_closes_the_socket(
            self, make_harness):
        harness = make_harness(service_class=SlowService)
        client, sockets = spying_client(harness)
        job = client.submit(GRID)
        stream = client.results(job)
        index, result = next(stream)
        assert result is not None
        assert len(sockets) == 2  # submit's + the stream's
        assert sockets[-1].fileno() != -1  # live mid-stream
        stream.close()  # GeneratorExit → finally → socket closed NOW
        assert sockets[-1].fileno() == -1

    def test_break_out_of_the_loop_closes_the_socket(
            self, make_harness):
        harness = make_harness(service_class=SlowService)
        client, sockets = spying_client(harness)
        job = client.submit(GRID)

        def first_result():
            for index, result in client.results(job):
                return index, result

        first_result()
        # CPython refcounting finalises the abandoned generator as
        # ``first_result`` returns, which must run the finally.
        assert sockets[-1].fileno() == -1

    def test_server_survives_the_early_disconnect(self, make_harness):
        harness = make_harness(service_class=SlowService)
        client = harness.client()
        job = client.submit(GRID)
        stream = client.results(job)
        next(stream)
        stream.close()
        # The service must treat the dropped stream as a client going
        # away, not an error: it still evaluates and serves everyone.
        results = client.collect(job)
        assert len(results) == len(GRID)
        assert all(result.error is None for result in results)

    def test_exhausted_stream_also_closes_its_socket(self, harness):
        client, sockets = spying_client(harness)
        job = client.submit(GRID[:2])
        list(client.results(job))
        assert sockets[-1].fileno() == -1
        assert client.last_status["state"] == "done"


class _Rejector:
    """A ``send`` that rejects ``failures`` times, then succeeds."""

    def __init__(self, failures, retry_after=0.01):
        self.failures = failures
        self.retry_after = retry_after
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise ServiceError("queue full",
                               response={"ok": False,
                                         "error": "queue full",
                                         "retry_after":
                                         self.retry_after})
        return "job-1"


def job_client(budget, jitter=0.0, cap=2.0, seed=1):
    return JobClient(retry_budget=budget, retry_cap=cap,
                     retry_jitter=jitter, retry_seed=seed)


class TestRejectionAccounting:
    def test_final_overbudget_rejection_is_counted(self):
        client = job_client(budget=0.0)
        send = _Rejector(failures=99)
        with pytest.raises(ServiceError):
            client._submit_with_retries(send)
        # The regression: this used to read 0 — the submit absorbed
        # one real rejection and reported none.
        assert client.last_submit_rejections == 1
        assert send.calls == 1

    def test_absorbed_and_final_rejections_all_count(self):
        client = job_client(budget=0.2)
        send = _Rejector(failures=99, retry_after=0.05)
        with pytest.raises(ServiceError):
            client._submit_with_retries(send)
        assert client.last_submit_rejections == send.calls

    def test_retried_to_success_counts_only_absorbed(self):
        client = job_client(budget=10.0)
        send = _Rejector(failures=2)
        assert client._submit_with_retries(send) == "job-1"
        assert client.last_submit_rejections == 2
        assert send.calls == 3

    def test_counter_resets_between_submits(self):
        client = job_client(budget=10.0)
        assert client._submit_with_retries(
            _Rejector(failures=1)) == "job-1"
        assert client.last_submit_rejections == 1
        assert client._submit_with_retries(
            _Rejector(failures=0)) == "job-1"
        assert client.last_submit_rejections == 0

    def test_non_backpressure_rejection_is_not_retried(self):
        client = job_client(budget=10.0)
        calls = []

        def send():
            calls.append(None)
            raise ServiceError("malformed request")  # no retry_after

        with pytest.raises(ServiceError, match="malformed"):
            client._submit_with_retries(send)
        assert len(calls) == 1
        assert client.last_submit_rejections == 0

    def test_live_zero_budget_submit_reports_its_rejection(
            self, make_harness):
        harness = make_harness(service_class=SlowService, queue_cap=4)
        client = harness.client(retry_budget=0.0)
        client.submit(GRID)  # fills the cap
        with pytest.raises(ServiceError, match="queue full"):
            client.submit(GRID[:1])
        assert client.last_submit_rejections == 1


class _FixedRng:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestJitterEnvelope:
    def test_top_endpoint_is_attainable(self):
        # A draw of exactly 0.0 sleeps the full wait — the documented
        # envelope is ((1 - j) * wait, wait], closed at the top.
        assert backoff_wait(0.5, 0, 2.0, 0.5, _FixedRng(0.0)) == 0.5

    def test_bottom_endpoint_is_excluded(self):
        # random() < 1.0 always, so in real arithmetic the sleep
        # strictly exceeds (1 - jitter) * wait.  At the very largest
        # draw float rounding can collapse the hair's-width gap onto
        # the boundary itself, which is why the documented contract
        # only promises the closed bound there.
        largest = 1.0 - 2 ** -53  # max value random() can return
        wait = backoff_wait(0.5, 0, 2.0, 0.5, _FixedRng(largest))
        assert (1.0 - 0.5) * 0.5 <= wait <= 0.5
        # One ulp below the extreme the strict bound holds outright.
        wait = backoff_wait(0.5, 0, 2.0, 0.5, _FixedRng(1.0 - 2e-16))
        assert (1.0 - 0.5) * 0.5 < wait <= 0.5

    @pytest.mark.parametrize("draw", [0.0, 0.25, 0.5, 0.999999])
    @pytest.mark.parametrize("jitter", [0.1, 0.5, 1.0])
    def test_envelope_holds_across_the_range(self, draw, jitter):
        wait = 2.0  # hint 0.5, attempt 2, capped at 2.0
        value = backoff_wait(0.5, 2, 2.0, jitter, _FixedRng(draw))
        assert (1.0 - jitter) * wait < value <= wait

    def test_zero_jitter_restores_the_exact_schedule(self):
        class Exploder:
            def random(self):
                raise AssertionError("jitter 0 must not draw")

        schedule = [backoff_wait(0.25, attempt, 2.0, 0.0, Exploder())
                    for attempt in range(5)]
        assert schedule == [0.25, 0.5, 1.0, 2.0, 2.0]

    def test_jitter_out_of_range_is_rejected(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(ReproError, match="retry_jitter"):
                job_client(budget=1.0, jitter=bad)


class TestSharedHelper:
    def test_both_clients_inherit_the_one_contract(self):
        assert issubclass(ServiceClient, JobClient)
        assert issubclass(HttpServiceClient, JobClient)
        for name in ("_backoff_wait", "_submit_with_retries", "ping",
                     "status", "cancel", "jobs", "results"):
            # Neither framing may shadow a shared operation with a
            # private copy — a fix must live in exactly one place.
            assert name not in vars(ServiceClient)
            assert name not in vars(HttpServiceClient)
            assert name in vars(JobClient)
        for name in ("submit", "collect"):
            # Each framing names these in its own body (perfbench
            # traces them per framing), as the base's own functions.
            assert vars(ServiceClient)[name] is vars(JobClient)[name]
            assert vars(HttpServiceClient)[name] is vars(JobClient)[name]

    def test_backoff_method_delegates_to_the_module_helper(self):
        client = job_client(budget=1.0, jitter=0.0)
        assert client._backoff_wait(0.25, 3) == backoff_wait(
            0.25, 3, 2.0, 0.0, _FixedRng(0.0))


#: The keys of a job's status document, the GC countdown included.
STATUS_KEYS = {"job", "state", "total", "done", "errors", "cancelled",
               "pending", "running", "hits", "misses", "hit_rate",
               "objective", "expires_in"}


class TestFramingParity:
    @pytest.mark.parametrize("transport", ["tcp", "http"])
    def test_job_documents_match_across_framings(self, make_harness,
                                                 transport):
        harness = make_harness(job_ttl=3600)
        client = transport_client(harness, transport)
        job = client.submit(GRID[:2])
        assert_matches_serial(client.collect(job), GRID[:2])
        closing = client.last_status
        status = client.status(job)
        hits = getattr(client, "conditional_hits", None)
        cancelled = client.cancel(job)
        for document in (closing, status, cancelled):
            assert set(document) == STATUS_KEYS
            assert document["expires_in"] is not None
        # Cancelling a finished job changes nothing.
        assert (cancelled["state"], cancelled["cancelled"]) == ("done", 0)
        assert client.status(job)["state"] == "done"
        if transport == "http":
            # ...so the status the gateway served as immutable still
            # revalidates: the re-fetch is a 304 under the same ETag.
            assert client.conditional_hits == hits + 1
