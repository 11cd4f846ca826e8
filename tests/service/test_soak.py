"""Deterministic soak of the hardened service (ISSUE 4 acceptance).

The scenario the hardening exists for: one bulk client saturates a
cap-bounded queue with a large batch while interactive clients submit
one-point jobs.  With ``scheduler="fair"`` and a queue cap, the suite
pins, in one run: no starvation (every tiny job finishes before the
saturating batch), retry-after rejections retried to success, results
bit-identical to a serial :meth:`Session.explore`, and — separately —
the GC retention bounds (TTL + max retained jobs).

Determinism: evaluations are real (the parity assertion needs them),
but :class:`SlowService` adds a fixed artificial latency per point so
scheduling order is observable on any machine — completion stamps are
read server-side (``Job.finished_at``), not from wall-clock races.
"""

import threading
import time

import pytest

from repro.engine import DesignPoint, Session
from repro.service.client import ServiceError
from repro.service.server import ExplorationService

#: The saturating batch and the interactive probes; all real,
#: all cheap (straight is the smallest benchmark).
LARGE = tuple(DesignPoint(app="straight", area=2000.0 + 1000.0 * step,
                          quanta=80) for step in range(12))
TINY = tuple(DesignPoint(app="straight", area=2500.0 + 500.0 * step,
                         quanta=90) for step in range(4))


class SlowService(ExplorationService):
    """Real evaluations plus a fixed per-point latency.

    The delay makes one point a visible scheduling quantum; results
    stay bit-identical because the evaluation itself is untouched.
    """

    point_delay = 0.08

    def _evaluate_local(self, point):
        time.sleep(self.point_delay)
        return super()._evaluate_local(point)


class VerySlowService(SlowService):
    point_delay = 0.4


def assert_results_match_serial(results, points, truth_by_point):
    for result, point in zip(results, points):
        expected = truth_by_point[point]
        assert result.error is None
        assert result.point == expected.point
        assert result.speedup == expected.speedup
        assert result.datapath_area == expected.datapath_area
        assert result.hw_names == tuple(expected.hw_names)
        assert result.allocation == expected.allocation


class TestFairSoak:
    def test_fairness_backpressure_and_bit_identical_results(
            self, make_harness):
        harness = make_harness(service_class=SlowService,
                               scheduler="fair",
                               queue_cap=len(LARGE) + 2)
        bulk = harness.client(client_id="bulk", timeout=120.0)
        gate = threading.Event()
        outcomes = {}
        rejections = {}

        def interactive(slot):
            client = harness.client(client_id="tiny-%d" % slot,
                                    retry_budget=60.0, timeout=120.0)
            assert gate.wait(30)
            job = client.submit([TINY[slot]])
            outcomes[slot] = (job, client.collect(job))
            rejections[slot] = client.last_submit_rejections

        threads = [threading.Thread(target=interactive, args=(slot,))
                   for slot in range(len(TINY))]
        for thread in threads:
            thread.start()
        # Admit the saturating batch first, then release the probes:
        # 12 of 14 slots are taken the moment the tiny clients submit.
        job_large = bulk.submit(LARGE)
        gate.set()
        large_results = bulk.collect(job_large)
        for thread in threads:
            thread.join(120)
        assert set(outcomes) == set(range(len(TINY)))

        # 1. Backpressure: over-cap submissions were rejected with a
        #    retry-after the client honoured through to admission.
        assert sum(rejections.values()) >= 1

        # 2. Fairness: every interactive job finished before the
        #    saturating batch (server-side completion stamps).
        queue = harness.service.queue
        large_finished = queue.jobs[job_large].finished_at
        assert large_finished is not None
        for slot, (job_id, _) in outcomes.items():
            tiny_finished = queue.jobs[job_id].finished_at
            assert tiny_finished < large_finished, \
                "tiny job %d starved behind the large batch" % slot

        # 3. Exactness: everything the soak computed is bit-identical
        #    to a fresh serial session over the same points.
        truth = Session().explore(list(LARGE) + list(TINY),
                                  on_error="capture")
        truth_by_point = {result.point: result for result in truth}
        assert_results_match_serial(large_results, LARGE,
                                    truth_by_point)
        for slot, (_, results) in outcomes.items():
            assert_results_match_serial(results, [TINY[slot]],
                                        truth_by_point)


class TestSmallestJobFirst:
    def test_late_small_job_overtakes_the_batch(self, make_harness):
        harness = make_harness(service_class=SlowService,
                               scheduler="sjf")
        client = harness.client(timeout=120.0)
        big = client.submit(LARGE[:8])
        small = client.submit(TINY[:2])
        client.collect(big)
        client.collect(small)
        queue = harness.service.queue
        assert queue.jobs[small].finished_at \
            < queue.jobs[big].finished_at


class TestRetryBudget:
    def test_no_budget_surfaces_the_structured_rejection(
            self, make_harness):
        harness = make_harness(service_class=VerySlowService,
                               queue_cap=1)
        blocker = harness.client(timeout=120.0)
        occupied = blocker.submit([LARGE[0]])
        impatient = harness.client(retry_budget=0.0)
        with pytest.raises(ServiceError) as excinfo:
            impatient.submit([TINY[0]])
        assert excinfo.value.retry_after is not None
        assert "cap" in str(excinfo.value)
        # The same submission with a budget waits its turn and lands.
        patient = harness.client(retry_budget=60.0, timeout=120.0)
        job = patient.submit([TINY[0]])
        results = patient.collect(job)
        assert results[0].error is None
        blocker.collect(occupied)


class TestRetention:
    def test_gc_bounds_retained_jobs(self, make_harness):
        harness = make_harness(job_ttl=30.0, max_jobs=2)
        client = harness.client()
        # One job at a time: a job still to be collected after two
        # later ones finish would already be evicted.
        finished = []
        for point in TINY:
            finished.append(client.submit([point]))
            client.collect(finished[-1])
        # The retention bound holds the moment jobs complete...
        assert len(client.jobs()) <= 2
        # ...the evicted ones answer "expired", not "unknown"...
        with pytest.raises(ServiceError, match="expired"):
            client.status(finished[0])
        # ...and the survivors forecast their expiry.
        survivor = client.status(finished[-1])
        assert survivor["expires_in"] is not None
        assert 0.0 <= survivor["expires_in"] <= 30.0

    def test_ttl_empties_an_idle_service(self, make_harness):
        harness = make_harness(job_ttl=0.3)
        client = harness.client()
        job = client.submit([TINY[0]])
        client.collect(job)
        assert len(client.jobs()) == 1
        time.sleep(0.5)
        # Any request dispatch runs the GC; the finished job is gone.
        assert client.jobs() == []
        with pytest.raises(ServiceError, match="expired"):
            client.status(job)
