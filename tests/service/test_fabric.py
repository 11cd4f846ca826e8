"""Distributed-fabric tier: N-engine parity under fault injection.

The acceptance bar (ISSUE 7): a coordinator with N joined engines
returns job results bit-identical to the single-engine service — same
allocations, same speed-ups, same completion accounting — no matter
how the roster splits the points, and no matter which engines die
mid-lease or which delta frames the wire eats.  Every test drives real
sockets: real :class:`~repro.service.worker.EngineWorker` instances
(on threads — the worker is synchronous by design) joined to a real
coordinator harness, plus hand-rolled protocol conversations where a
fault must be injected deterministically.
"""

import gc
import json
import socket
import tempfile
import threading
import time

import pytest

from repro.engine import DesignPoint
from repro.service import protocol
from repro.service.client import LineChannel, ServiceError
from repro.service.server import ExplorationService
from repro.service.worker import EngineWorker

from tests.service.test_service import (
    GRID_A,
    POISON,
    assert_matches_serial,
    failing_flush,
    serial_results,
)

#: Two apps -> two affinity keys, so a two-engine roster genuinely
#: splits the work instead of routing everything to one engine.
FABRIC_GRID = (DesignPoint(app="straight", area=3000.0, quanta=80),
               DesignPoint(app="hal", area=20000.0, quanta=80),
               DesignPoint(app="straight", area=5000.0, quanta=80),
               DesignPoint(app="hal", area=30000.0, quanta=80),
               DesignPoint(app="straight", area=7500.0, quanta=80))


class WorkerThread:
    """One EngineWorker on a daemon thread, joined to a harness."""

    def __init__(self, harness, label, slots=1, cache_dir=None):
        self.worker = EngineWorker("127.0.0.1", harness.port,
                                   token=harness.token, label=label,
                                   slots=slots, cache_dir=cache_dir,
                                   announce=None)
        self.thread = threading.Thread(target=self.worker.run,
                                       daemon=True)
        self.thread.start()

    def join(self, timeout=30):
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "worker never wound down"


def wait_for_engines(client, count, kind=None, timeout=10.0):
    """Poll ping until ``count`` live engines (of ``kind``) exist."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        engines = [engine for engine in client.ping()["engines"]
                   if engine["alive"]
                   and (kind is None or engine["kind"] == kind)]
        if len(engines) >= count:
            return engines
        time.sleep(0.05)
    raise AssertionError("engines never joined")


class RawWorker:
    """A hand-driven protocol conversation for fault injection."""

    def __init__(self, harness, label, slots=2):
        self.sock = socket.create_connection(
            ("127.0.0.1", harness.port), timeout=30)
        self.stream = self.sock.makefile("rwb")
        if harness.token is not None:
            assert self.request({"op": "auth",
                                 "token": harness.token})["ok"]
        joined = self.request({"op": "join", "engine": label,
                               "slots": slots})
        assert joined["ok"]
        self.engine = joined["engine"]

    def request(self, message):
        self.stream.write(protocol.encode(message))
        self.stream.flush()
        return json.loads(
            self.stream.readline(protocol.MAX_LINE_BYTES + 1))

    def lease(self, max_units=2, wait=5.0):
        return self.request({"op": "lease", "engine": self.engine,
                             "max": max_units, "wait": wait})

    def vanish(self):
        """Die without a word — the mid-lease crash.

        The ``makefile`` stream holds its own reference to the socket,
        so it must close too before the kernel sends the FIN.
        """
        self.stream.close()
        self.sock.close()


def wait_for_requeue(client, engine, timeout):
    """Poll ping until ``engine`` is dead with nothing in flight (its
    units re-queued); returns the seconds that took."""
    started = time.monotonic()
    while time.monotonic() - started < timeout:
        roster = {entry["engine"]: entry
                  for entry in client.ping()["engines"]}
        if not roster[engine]["alive"] and \
                roster[engine]["in_flight"] == 0:
            return time.monotonic() - started
        time.sleep(0.02)
    raise AssertionError("%s's units were not re-queued within %.1fs"
                         % (engine, timeout))


class TestRemoteParity:
    def test_pure_coordinator_with_two_workers(self, make_harness):
        harness = make_harness(local_engines=0)
        workers = [WorkerThread(harness, "wa"),
                   WorkerThread(harness, "wb")]
        client = harness.client()
        engines = wait_for_engines(client, 2, kind="remote")
        assert {engine["engine"] for engine in engines} == \
            {"wa", "wb"}
        results = client.collect(client.submit(FABRIC_GRID))
        assert all(result.ok for result in results)
        assert_matches_serial(results, FABRIC_GRID)
        # The points really ran remotely: a pure coordinator has no
        # local engine, and the workers' counters account for all of
        # them.
        engines = client.ping()["engines"]
        assert all(engine["kind"] == "remote" for engine in engines)
        assert sum(engine["done"] for engine in engines) == \
            len(FABRIC_GRID)
        assert sum(engine["deltas_absorbed"]
                   for engine in engines) >= 1
        harness.stop()
        for worker in workers:
            worker.join()

    def test_mixed_local_and_remote_engines(self, make_harness):
        harness = make_harness(local_engines=1)
        worker = WorkerThread(harness, "helper")
        client = harness.client()
        wait_for_engines(client, 1, kind="remote")
        results = client.collect(client.submit(FABRIC_GRID))
        assert_matches_serial(results, FABRIC_GRID)
        kinds = {engine["kind"]
                 for engine in client.ping()["engines"]}
        assert kinds == {"local", "remote"}
        harness.stop()
        worker.join()

    def test_multiple_local_engines(self, make_harness):
        harness = make_harness(local_engines=3)
        client = harness.client()
        engines = client.ping()["engines"]
        assert [engine["engine"] for engine in engines] == \
            ["local-1", "local-2", "local-3"]
        results = client.collect(client.submit(FABRIC_GRID))
        assert_matches_serial(results, FABRIC_GRID)
        assert sum(engine["done"] for engine
                   in client.ping()["engines"]) == len(FABRIC_GRID)

    def test_remote_poison_point_fails_per_point(self, make_harness):
        harness = make_harness(local_engines=0)
        worker = WorkerThread(harness, "w")
        client = harness.client()
        wait_for_engines(client, 1, kind="remote")
        grid = (GRID_A[0], POISON, GRID_A[1])
        results = client.collect(client.submit(grid))
        assert results[1].error is not None
        assert results[0].ok and results[2].ok
        assert_matches_serial(results, grid)
        harness.stop()
        worker.join()


class TestAffinity:
    def test_second_submission_is_affinity_warm(self, make_harness):
        # A long steal delay makes placement purely affine, so the
        # engine split is deterministic: every point of one program
        # lands on the engine that compiled it, and the second
        # submission replays from that engine's warm cache.
        harness = make_harness(local_engines=0, steal_delay=30.0)
        workers = [WorkerThread(harness, "wa"),
                   WorkerThread(harness, "wb")]
        client = harness.client()
        wait_for_engines(client, 2, kind="remote")
        client.collect(client.submit(FABRIC_GRID))
        first = {engine["engine"]: engine["done"]
                 for engine in client.ping()["engines"]}
        warm_job = client.submit(FABRIC_GRID)
        client.collect(warm_job)
        second = {engine["engine"]: engine["done"]
                  for engine in client.ping()["engines"]}
        # Affinity: each engine's share of the rerun equals its share
        # of the first run — points re-route to the engine that
        # already holds their program.
        assert {name: count * 2 for name, count in first.items()} == \
            second
        # And that placement is what makes the rerun warm remotely.
        assert client.status(warm_job)["hit_rate"] > 0.8
        harness.stop()
        for worker in workers:
            worker.join()


class TestFaultInjection:
    def test_worker_death_mid_lease_requeues(self, make_harness):
        harness = make_harness(local_engines=0, engine_timeout=30.0)
        client = harness.client()
        job = client.submit(FABRIC_GRID)  # queued; no engines yet
        doomed = RawWorker(harness, "doomed", slots=2)
        leased = doomed.lease(max_units=2, wait=10.0)["points"]
        assert len(leased) == 2  # really held mid-lease
        doomed.vanish()
        # The dropped connection alone fails the engine — long before
        # the 30 s reaper could.
        wait_for_requeue(client, "doomed", timeout=1.0)
        # The survivor joins after the crash and must still see every
        # point — the dead engine's leases and lane re-queue onto it.
        survivor = WorkerThread(harness, "survivor")
        results = client.collect(job)
        assert all(result.ok for result in results)
        assert_matches_serial(results, FABRIC_GRID)
        roster = {engine["engine"]: engine
                  for engine in client.ping()["engines"]}
        assert roster["doomed"]["alive"] is False
        assert roster["doomed"]["in_flight"] == 0
        assert roster["survivor"]["done"] == len(FABRIC_GRID)
        harness.stop()
        survivor.join()

    def test_shutdown_with_leased_work_in_flight(self, make_harness):
        """Stopping a coordinator waits neither for a joined engine's
        leases nor for the engine timeout."""
        harness = make_harness(local_engines=0, engine_timeout=30.0)
        client = harness.client()
        client.submit(FABRIC_GRID)
        worker = WorkerThread(harness, "w", slots=2)
        deadline = time.monotonic() + 10.0
        while not any(engine["in_flight"]
                      for engine in client.ping()["engines"]):
            assert time.monotonic() < deadline, "nothing was leased"
            time.sleep(0.01)
        started = time.monotonic()
        harness.stop()
        assert not harness._thread.is_alive()
        assert time.monotonic() - started < 5.0
        worker.join()

    def test_failing_flush_keeps_the_worker(self, make_harness):
        harness = make_harness(local_engines=0)
        worker = WorkerThread(harness, "w")
        client = harness.client()
        wait_for_engines(client, 1, kind="remote")
        with failing_flush():
            for finished in (1, 2):
                with pytest.raises(ServiceError, match="No space"):
                    client.collect(client.submit(FABRIC_GRID))
                (engine,) = client.ping()["engines"]
                assert engine["alive"] is True
                assert engine["done"] == finished * len(FABRIC_GRID)
        harness.stop()
        worker.join()

    def test_silent_worker_is_reaped(self, make_harness):
        # A hung worker keeps its socket open and sends nothing: only
        # the heartbeat reaper can notice, after engine_timeout.
        harness = make_harness(local_engines=0, engine_timeout=0.5)
        client = harness.client()
        job = client.submit(FABRIC_GRID)
        silent = RawWorker(harness, "silent", slots=2)
        leased = silent.lease(max_units=2, wait=10.0)["points"]
        assert len(leased) == 2
        waited = wait_for_requeue(client, "silent", timeout=5.0)
        assert waited >= 0.3  # the reaper, not a disconnect
        survivor = WorkerThread(harness, "survivor")
        results = client.collect(job)
        assert_matches_serial(results, FABRIC_GRID)
        silent.vanish()
        harness.stop()
        survivor.join()

    def test_delta_frame_drop_recovers(self, make_harness):
        # The wire eating a delta frame and the connection dying are
        # the same event (frames ride one ordered TCP stream), so the
        # injection point is the coordinator's delta handler: the
        # first frame "never arrives" and the link breaks, exactly as
        # a mid-send worker crash looks from the coordinator.
        class DropFirstDelta(ExplorationService):
            dropped = 0

            async def _handle_delta(self, request, writer, conn):
                if not type(self).dropped:
                    type(self).dropped += 1
                    raise ConnectionResetError("injected frame drop")
                await super()._handle_delta(request, writer, conn)

        # steal_delay=0 guarantees the casualty gets a unit no matter
        # where rendezvous hashing lands the two programs: the local
        # pump holds one point in flight while another waits on its
        # lane, and an instantly-ripe lane unit is stolen by the idle
        # worker on its first lease.  (Affinity alone is hash luck —
        # any library change reshuffles the program fingerprints.)
        DropFirstDelta.dropped = 0
        harness = make_harness(service_class=DropFirstDelta,
                               local_engines=1, steal_delay=0.0)
        client = harness.client()
        job = client.submit(FABRIC_GRID)
        casualty = WorkerThread(harness, "casualty")
        results = client.collect(job)
        assert DropFirstDelta.dropped == 1  # the injection fired
        assert all(result.ok for result in results)
        assert_matches_serial(results, FABRIC_GRID)
        casualty.join()
        harness.stop()

    def test_coordinator_restart_with_warm_store(self, tmp_path,
                                                 make_harness):
        # Remote deltas must actually reach the coordinator's disk:
        # run everything on remote engines, restart the coordinator on
        # the same store with no remote help, and the rerun replays
        # warm — compiled programs included.
        shared = str(tmp_path / "fabric-store")
        first = make_harness(cache_dir=shared, local_engines=0)
        worker = WorkerThread(first, "w")
        client = first.client()
        wait_for_engines(client, 1, kind="remote")
        cold = client.collect(client.submit(FABRIC_GRID))
        first.stop()
        worker.join()
        second = make_harness(cache_dir=shared, local_engines=1)
        client = second.client()
        warm_job = client.submit(FABRIC_GRID)
        warm = client.collect(warm_job)
        assert [r.speedup for r in warm] == \
            [r.speedup for r in cold]
        assert client.status(warm_job)["hit_rate"] > 0.8
        # The frontend compiles happened on the worker and travelled
        # home as program-store entries; the restarted coordinator
        # re-compiles nothing.
        assert client.ping()["program_compiles"] == 0

    def test_malformed_delta_cannot_corrupt_job_state(self,
                                                      make_harness):
        harness = make_harness(local_engines=0)
        client = harness.client()
        job = client.submit(GRID_A)
        rogue = RawWorker(harness, "rogue", slots=1)
        leased = rogue.lease(max_units=1, wait=10.0)["points"]
        assert leased
        unit = leased[0]
        # A result for a unit nobody leased to this engine: counted
        # as stale, never recorded.
        from repro.io.serialize import FORMAT_VERSION

        fake = {"kind": "point-result", "version": FORMAT_VERSION,
                "point": unit["point"], "allocation": None,
                "speedup": 9999.0, "datapath_area": 1.0,
                "hw_bsbs": [], "error": None}
        response = rogue.request({
            "op": "delta", "engine": rogue.engine,
            "results": [{"job": unit["job"], "index": 999,
                         "result": fake, "stats": {}}]})
        assert response["ok"]
        assert response["recorded"] == 0 and response["stale"] == 1
        # An undecodable store blob rejects the whole frame — the
        # leased unit's (valid) result inside it is NOT recorded.
        response = rogue.request({
            "op": "delta", "engine": rogue.engine,
            "results": [{"job": unit["job"],
                         "index": unit["index"],
                         "result": fake, "stats": {}}],
            "store": "!!not-base64!!"})
        assert not response["ok"]
        assert client.status(job)["done"] == 0
        # The rogue disconnects; its lease re-queues and an honest
        # worker completes the job bit-identical to serial.
        rogue.vanish()
        wait_for_requeue(client, "rogue", timeout=1.0)
        honest = WorkerThread(harness, "honest")
        results = client.collect(job)
        assert_matches_serial(results, GRID_A)
        harness.stop()
        honest.join()


class TestRosterObservability:
    def test_single_engine_ping_is_backward_compatible(self, harness):
        info = harness.client().ping()
        # The service-level fields keep their meaning...
        for field in ("protocol", "jobs", "scheduler", "depth",
                      "queue_cap", "program_compiles",
                      "program_store_hits"):
            assert field in info
        # ...and the roster rides alongside: one default local engine.
        assert info["local_engines"] == 1
        (engine,) = info["engines"]
        assert engine["engine"] == "local-1"
        assert engine["kind"] == "local"
        assert engine["alive"] is True
        for field in ("slots", "queued", "in_flight", "done",
                      "stolen", "hits", "misses", "hit_rate",
                      "deltas_absorbed", "delta_entries"):
            assert field in engine

    def test_roster_accounts_per_engine_hit_rates(self, harness):
        client = harness.client()
        client.collect(client.submit(GRID_A))
        (cold,) = client.ping()["engines"]
        client.collect(client.submit(GRID_A))
        (warm,) = client.ping()["engines"]
        assert warm["done"] == 2 * len(GRID_A)
        # The counters are cumulative, so the warm rerun (nearly all
        # hits) pulls the engine's lifetime rate up over the cold run.
        assert warm["hits"] > cold["hits"]
        assert warm["hit_rate"] > cold["hit_rate"]

    def test_heartbeat_requires_a_joined_engine(self, harness):
        raw = RawWorker.__new__(RawWorker)
        raw.sock = socket.create_connection(
            ("127.0.0.1", harness.port), timeout=10)
        raw.stream = raw.sock.makefile("rwb")
        response = raw.request({"op": "engine-heartbeat",
                                "engine": "nobody"})
        assert not response["ok"]
        assert "join" in response["error"]
        raw.vanish()


class TestWorkerConnectionErrors:
    def test_wrong_token_reaches_run_as_the_servers_error(
            self, make_harness, monkeypatch):
        harness = make_harness(token="right", local_engines=0)
        raised = []
        request = LineChannel.request

        def spy(channel, message):
            try:
                return request(channel, message)
            except ServiceError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(LineChannel, "request", spy)
        said = []
        worker = EngineWorker("127.0.0.1", harness.port, token="wrong",
                              announce=said.append)
        assert worker.run() == 0
        # The worker's handshake is the TCP client's: the rejection is
        # a ServiceError carrying the server's document, and run()
        # reports the server's own message.
        (error,) = raised
        assert error.response == {"ok": False, "error": "invalid token"}
        assert said == ["coordinator gone: invalid token"]


class TestWorkerStoreDirectory:
    """A worker given no ``cache_dir`` makes a throwaway store directory
    and removes it; a caller's ``cache_dir`` is never removed."""

    def test_joined_worker_removes_only_its_own(self, make_harness,
                                                tmp_path, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        given = tmp_path / "given"
        given.mkdir()
        harness = make_harness(local_engines=0)
        own = WorkerThread(harness, "own")
        theirs = WorkerThread(harness, "theirs", cache_dir=str(given))
        wait_for_engines(harness.client(), 2, kind="remote")
        assert len(list(scratch.glob("lycos-worker-*"))) == 1
        harness.stop()
        own.join()
        theirs.join()
        assert list(scratch.glob("lycos-worker-*")) == []
        assert given.is_dir()

    def test_worker_never_run_leaves_none(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        worker = EngineWorker("127.0.0.1", 1, announce=None)
        assert len(list(tmp_path.glob("lycos-worker-*"))) == 1
        with pytest.warns(ResourceWarning):
            del worker
            gc.collect()
        assert list(tmp_path.glob("lycos-worker-*")) == []


class TestClientJitter:
    def test_fixed_seed_is_deterministic(self):
        from repro.service.client import ServiceClient

        one = ServiceClient(retry_seed=7)
        two = ServiceClient(retry_seed=7)
        waits = [one._backoff_wait(0.1, attempt)
                 for attempt in range(8)]
        assert waits == [two._backoff_wait(0.1, attempt)
                         for attempt in range(8)]
        # Jitter only shortens: each wait stays within the capped
        # exponential envelope that bounds the retry-budget math.
        for attempt, wait in enumerate(waits):
            ceiling = min(2.0, 0.1 * (2 ** attempt))
            assert 0.5 * ceiling < wait <= ceiling
        # And it actually spreads: not every draw is the ceiling.
        assert any(wait < min(2.0, 0.1 * (2 ** attempt))
                   for attempt, wait in enumerate(waits))

    def test_zero_jitter_restores_the_exact_old_schedule(self):
        from repro.service.client import ServiceClient

        client = ServiceClient(retry_jitter=0.0)
        assert [client._backoff_wait(0.25, attempt)
                for attempt in range(5)] == \
            [0.25, 0.5, 1.0, 2.0, 2.0]

    def test_jitter_out_of_range_rejected(self):
        from repro.errors import ReproError
        from repro.service.client import ServiceClient

        with pytest.raises(ReproError, match="retry_jitter"):
            ServiceClient(retry_jitter=1.5)
