"""End-to-end tests for the exploration service.

Each harness runs a real :class:`ExplorationService` (real sockets on
an ephemeral loopback port, real session, tmp-path store) on a
background thread, driven by real :class:`ServiceClient` instances —
the same path the CLI takes.  The acceptance bar (ISSUE 3): concurrent
clients sharing one store get results bit-identical to a serial
``Session.explore``, and a poisoned batch fails per-point, never
per-job.
"""

import asyncio
import errno
import json
import os
import socket
import threading
from unittest import mock

import pytest

from repro.engine import DesignPoint, Session
from repro.engine.store import CacheStore
from repro.io.serialize import design_point_to_dict
from repro.service import protocol
from repro.service.client import ServiceError
from repro.service.server import ExplorationService

#: Small, fast grids (straight is the cheapest benchmark; quanta kept
#: low).  GRID_A and GRID_B overlap on two points — the sharing the
#: service exists to exploit.
GRID_A = (DesignPoint(app="straight", area=3000.0, quanta=80),
          DesignPoint(app="straight", area=5000.0, quanta=80),
          DesignPoint(app="straight", area=7500.0, quanta=80))
GRID_B = (DesignPoint(app="straight", area=5000.0, quanta=80),
          DesignPoint(app="straight", area=7500.0, quanta=80),
          DesignPoint(app="straight", area=15000.0, quanta=80))
POISON = DesignPoint(app="nope", quanta=80)


def failing_flush():
    """Patch every store flush to fail the way a full disk does."""
    return mock.patch.object(
        CacheStore, "flush",
        side_effect=OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))


def serial_results(points):
    """The ground truth: a fresh serial session over the same points."""
    return Session().explore(list(points), on_error="capture")


def assert_matches_serial(results, points):
    truth = serial_results(points)
    for result, expected in zip(results, truth):
        assert result.point == expected.point
        assert result.speedup == expected.speedup
        assert result.datapath_area == expected.datapath_area
        assert result.hw_names == tuple(expected.hw_names)
        assert result.allocation == expected.allocation


class TestSubmitStreamStatus:
    def test_end_to_end(self, harness):
        client = harness.client()
        job = client.submit(GRID_A)
        results = client.collect(job)
        assert all(result.ok for result in results)
        assert_matches_serial(results, GRID_A)
        status = client.status(job)
        assert status["state"] == "done"
        assert status["done"] == len(GRID_A)
        assert status["errors"] == 0

    def test_second_submission_is_warm(self, harness):
        client = harness.client()
        first = client.collect(client.submit(GRID_A))
        warm_job = client.submit(GRID_A)
        second = client.collect(warm_job)
        assert [r.speedup for r in second] == \
            [r.speedup for r in first]
        status = client.status(warm_job)
        assert status["hit_rate"] > 0.9

    def test_results_stream_replays_after_completion(self, harness):
        client = harness.client()
        job = client.submit(GRID_A[:1])
        client.collect(job)           # drain once
        replay = client.collect(job)  # stream again, job already done
        assert replay[0].speedup == \
            serial_results(GRID_A[:1])[0].speedup

    def test_status_of_unknown_job_rejected(self, harness):
        with pytest.raises(ServiceError, match="unknown job"):
            harness.client().status("job-999")

    def test_warm_restart_from_the_store(self, tmp_path, make_harness):
        shared = str(tmp_path / "shared-store")
        first = make_harness(cache_dir=shared)
        results = first.client().collect(
            first.client().submit(GRID_A))
        first.stop()
        second = make_harness(cache_dir=shared)  # fresh process state
        client = second.client()
        job = client.submit(GRID_A)
        again = client.collect(job)
        assert [r.speedup for r in again] == \
            [r.speedup for r in results]
        # Evaluations replay from the hydrated store (program compile
        # is the one cold stage, as documented in the ROADMAP).
        assert client.status(job)["hit_rate"] > 0.5


class TestConcurrentClients:
    def test_two_clients_share_one_store(self, harness):
        outcomes = {}

        def run(name, grid):
            client = harness.client()
            outcomes[name] = client.collect(client.submit(grid))

        threads = [threading.Thread(target=run, args=("a", GRID_A)),
                   threading.Thread(target=run, args=("b", GRID_B))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert set(outcomes) == {"a", "b"}
        assert_matches_serial(outcomes["a"], GRID_A)
        assert_matches_serial(outcomes["b"], GRID_B)

    def test_shutdown_with_idle_connection(self, make_harness):
        """Regression: an idle client parked in readline() must not
        hold the server teardown open (Python 3.12's wait_closed()
        waits for every connection handler)."""
        harness = make_harness()
        idler = socket.create_connection(("127.0.0.1", harness.port),
                                         timeout=30)
        try:
            harness.stop()
            assert not harness._thread.is_alive()
        finally:
            idler.close()


class TestFailureContainment:
    def test_poisoned_batch_fails_per_point(self, harness):
        points = (GRID_A[0], POISON, GRID_A[1])
        client = harness.client()
        results = client.collect(client.submit(points))
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].error.kind == "ReproError"
        assert "nope" in results[1].error.message
        assert_matches_serial([results[0], results[2]],
                              (points[0], points[2]))
        status = client.status(client.submit(GRID_A[:1]))
        assert status["state"] in ("queued", "running", "done")

    def test_poisoned_batch_persists_the_good_points(self, harness):
        client = harness.client()
        client.collect(client.submit((GRID_A[0], POISON, GRID_A[1])))
        warm = Session(cache_dir=harness.session.store.root)
        for point in (GRID_A[0], GRID_A[1]):
            warm.evaluate_point(point)
        assert warm.stats.hit_count("eval") == 2


class TestFlushFailure:
    """A failing store flush is bookkeeping: it never costs a computed
    result, a connection or the service, but a stream whose entries did
    not reach the disk must not end with ``done``."""

    def test_stream_ends_with_an_error_naming_the_flush(self, harness):
        client = harness.client()
        with failing_flush():
            for grid in (GRID_A, GRID_B):
                job = client.submit(grid)
                with pytest.raises(ServiceError,
                                   match="store flush failed.*No space"):
                    client.collect(job)
                status = client.status(job)
                assert status["state"] == "done"
                assert status["done"] == len(grid)

    def test_stop_shuts_the_engine_thread_down(self, tmp_path):
        before = set(threading.enumerate())

        async def start_and_stop():
            service = ExplorationService(
                Session(cache_dir=str(tmp_path / "store")))
            await service.start(port=0)
            with pytest.raises(OSError):
                await service.stop()

        with failing_flush():
            asyncio.run(start_and_stop())
        assert not [thread for thread in threading.enumerate()
                    if thread not in before
                    and thread.name.startswith("lycos-engine")]


class TestCancel:
    def test_cancel_queued_job(self, harness):
        client = harness.client()
        # Keep the single worker busy with a first job, so the second
        # is still entirely pending when the cancel lands.
        busy = client.submit(GRID_A)
        doomed = client.submit(GRID_B)
        status = client.cancel(doomed)
        assert status["state"] == "cancelled"
        assert status["cancelled"] + status["done"] + \
            status["running"] == len(GRID_B)
        assert status["cancelled"] >= 1
        # The cancelled job's stream still terminates cleanly...
        slots = client.collect(doomed)
        assert any(result is None for result in slots)
        # ... and the busy job is untouched.
        assert all(result.ok for result in client.collect(busy))

    def test_cancel_unknown_job_rejected(self, harness):
        with pytest.raises(ServiceError, match="unknown job"):
            harness.client().cancel("job-404")


class TestMalformedRequests:
    def raw_lines(self, harness, payloads):
        """Send raw lines on one connection; one reply line each."""
        with socket.create_connection(("127.0.0.1", harness.port),
                                      timeout=30) as sock:
            with sock.makefile("rwb") as stream:
                replies = []
                for payload in payloads:
                    stream.write(payload)
                    stream.flush()
                    replies.append(json.loads(stream.readline()))
                return replies

    def test_rejections_do_not_kill_the_connection(self, harness):
        replies = self.raw_lines(harness, [
            b"this is not json\n",
            b'{"op": "launch-missiles"}\n',
            b'{"op": "submit", "points": "everything"}\n',
            b'{"op": "submit", "points": [{"kind": "design-point", '
            b'"version": 1, "app": "hal", "policy": "greedy"}]}\n',
            b'{"op": "status", "job": 42}\n',
            b'{"op": "ping"}\n',
        ])
        assert [reply["ok"] for reply in replies] == \
            [False, False, False, False, False, True]
        assert "JSON" in replies[0]["error"]
        assert "unknown op" in replies[1]["error"]
        assert "points" in replies[2]["error"]
        assert "greedy" in replies[3]["error"]

    def test_out_of_range_points_are_refused_before_any_job_state(
            self, harness):
        point = b'{"kind": "design-point", "version": 1, "app": "hal", '
        replies = self.raw_lines(harness, [
            b'{"op": "submit", "points": [' + point
            + b'"quanta": 100000000}]}\n',
            b'{"op": "submit", "points": [' + point + b'"area": NaN}]}\n',
            b'{"op": "submit", "points": [' + point
            + b'"comm_cycles_per_word": Infinity}]}\n',
        ])
        assert [reply["ok"] for reply in replies] == [False] * 3
        assert "quanta" in replies[0]["error"]
        assert "area" in replies[1]["error"]
        assert "comm_cycles_per_word" in replies[2]["error"]
        client = harness.client()
        assert client.ping()["jobs"] == 0
        assert client.jobs() == []

    def test_rejected_submission_queues_nothing(self, harness):
        client = harness.client()
        before = client.ping()["jobs"]
        with pytest.raises(ServiceError):
            client.submit([{"kind": "design-point", "version": 1,
                            "app": "hal", "quanta": 0}])
        assert client.ping()["jobs"] == before

    def test_oversized_line_drops_the_connection(self, harness):
        with socket.create_connection(("127.0.0.1", harness.port),
                                      timeout=30) as sock:
            with sock.makefile("rwb") as stream:
                stream.write(b'{"op": "ping", "pad": "'
                             + b"x" * protocol.MAX_LINE_BYTES
                             + b'"}\n')
                stream.flush()
                reply = json.loads(stream.readline())
                assert reply["ok"] is False
                assert stream.readline() == b""  # server closed it


class TestAuth:
    """The shared-token handshake (ISSUE 4)."""

    TOKEN = "correct-horse-battery"

    def test_tokenless_client_is_rejected_before_any_job_state(
            self, make_harness):
        harness = make_harness(token=self.TOKEN)
        intruder = harness.client(token=None)
        with pytest.raises(ServiceError, match="authentication"):
            intruder.submit(GRID_A)
        with pytest.raises(ServiceError, match="authentication"):
            intruder.ping()
        # Nothing was queued by the rejected submission.
        authed = harness.client()
        assert authed.ping()["jobs"] == 0
        assert authed.jobs() == []

    def test_wrong_token_is_rejected(self, make_harness):
        harness = make_harness(token=self.TOKEN)
        wrong = harness.client(token="open-sesame")
        with pytest.raises(ServiceError, match="invalid token"):
            wrong.ping()

    def test_authenticated_client_round_trips(self, make_harness):
        harness = make_harness(token=self.TOKEN)
        client = harness.client()
        results = client.collect(client.submit(GRID_A[:1]))
        assert_matches_serial(results, GRID_A[:1])

    def test_token_against_open_server_is_harmless(self, harness):
        client = harness.client(token="anything-goes")
        assert client.ping()["ok"]

    def test_malformed_auth_keeps_the_connection(self, make_harness):
        """A structurally bad auth line is a rejection, not a crash;
        the connection stays open but unauthenticated."""
        harness = make_harness(token=self.TOKEN)
        with socket.create_connection(("127.0.0.1", harness.port),
                                      timeout=30) as sock:
            with sock.makefile("rwb") as stream:
                stream.write(b'{"op": "auth", "token": 42}\n')
                stream.flush()
                reply = json.loads(stream.readline())
                assert reply["ok"] is False
                stream.write(protocol.encode(
                    {"op": "auth", "token": self.TOKEN}))
                stream.flush()
                reply = json.loads(stream.readline())
                assert reply["ok"] is True


class TestTypedConnectionErrors:
    """Regression (ISSUE 4): a dropped connection surfaces as
    :class:`ServiceError`, never an opaque ``ConnectionResetError``."""

    def test_oversized_submit_surfaces_service_error(self, harness):
        point = design_point_to_dict(DesignPoint(app="straight"))
        point["pad"] = "x" * (2 * protocol.MAX_LINE_BYTES)
        client = harness.client()
        with pytest.raises(ServiceError):
            client.submit([point])

    def test_unauthenticated_drop_carries_the_server_message(
            self, make_harness):
        harness = make_harness(token="hunter2")
        client = harness.client(token=None)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(GRID_A[:1])
        assert "auth" in str(excinfo.value)
