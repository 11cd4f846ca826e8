"""Regression tests for the failure paths of ``Session.explore`` (serial
and on ``Session.fan_out``'s pool) and of the exhaustive search.

The bugs these pin down: a bad point used to abort the whole batch —
the serial path skipped the trailing ``save_store()`` on exception and
the pool path aborted ``pool.map``, dropping every finished chunk's
results *and* its store deltas — an interrupt mid-sweep left the pool
to die noisily without a final flush, and an interrupted exhaustive
search flushed nothing it had computed.
"""

import pytest

from repro.apps.registry import load_application
from repro.core.exhaustive import exhaustive_best_allocation
from repro.engine import DesignPoint, PointError, Session
from repro.engine import session as session_module
from repro.engine.design_point import failed_point_result
from repro.engine.store import CacheStore
from repro.errors import ReproError
from repro.hwlib.library import default_library
from repro.partition.evaluate import EvaluationScan
from repro.partition.model import TargetArchitecture

#: A grid with one poisoned point among valid ones; 'nope' is not a
#: registered application, so only evaluation (not submission or
#: construction) can reject it.
GOOD = [DesignPoint(app="straight", quanta=80),
        DesignPoint(app="straight", area=3000.0, quanta=80)]
BAD = DesignPoint(app="nope", quanta=80)


class TestPointError:
    def test_from_exception(self):
        error = PointError.from_exception(ValueError("boom"))
        assert error.kind == "ValueError"
        assert error.message == "boom"
        assert str(error) == "ValueError: boom"

    def test_failed_point_result(self):
        result = failed_point_result(BAD, ReproError("unknown app"))
        assert not result.ok
        assert result.allocation is None
        assert result.error.kind == "ReproError"

    def test_ok_property(self):
        session = Session()
        assert session.evaluate_point_safe(GOOD[0]).ok


class TestSerialFailurePaths:
    def test_capture_contains_the_bad_point(self):
        session = Session()
        results = session.explore([GOOD[0], BAD, GOOD[1]],
                                  on_error="capture")
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].error.kind == "ReproError"
        assert "nope" in results[1].error.message
        # The siblings are untouched by the failure.
        fresh = Session().explore(GOOD)
        assert results[0].speedup == fresh[0].speedup
        assert results[2].speedup == fresh[1].speedup

    def test_raise_still_raises_the_original_exception(self):
        with pytest.raises(ReproError, match="nope"):
            Session().explore([GOOD[0], BAD], on_error="raise")

    def test_raise_flushes_completed_work_first(self, tmp_path):
        cache_dir = str(tmp_path / "store")
        session = Session(cache_dir=cache_dir)
        with pytest.raises(ReproError):
            session.explore([GOOD[0], BAD])
        # A fresh session replays the completed point from disk.
        warm = Session(cache_dir=cache_dir)
        warm.evaluate_point(GOOD[0])
        assert warm.stats.hit_count("eval") == 1

    def test_capture_flushes_everything(self, tmp_path):
        cache_dir = str(tmp_path / "store")
        Session(cache_dir=cache_dir).explore([GOOD[0], BAD, GOOD[1]],
                                             on_error="capture")
        warm = Session(cache_dir=cache_dir)
        for point in GOOD:
            warm.evaluate_point(point)
        assert warm.stats.hit_count("eval") == 2

    def test_on_result_sees_failures_in_order(self):
        seen = []
        Session().explore([GOOD[0], BAD], on_error="capture",
                          on_result=lambda r: seen.append(r.ok))
        assert seen == [True, False]

    def test_rejects_unknown_on_error(self):
        with pytest.raises(ReproError):
            Session().explore(GOOD, on_error="explode")


class TestParallelFailurePaths:
    def test_poisoned_chunk_spares_the_rest(self):
        # One bad point among four, two workers: the bad chunk's
        # sibling and the other chunk both complete.
        session = Session()
        points = [GOOD[0], BAD, GOOD[1],
                  DesignPoint(app="straight", area=5000.0, quanta=80)]
        results = session.explore(points, workers=2,
                                  on_error="capture")
        assert [r.ok for r in results] == [True, False, True, True]
        assert "nope" in results[1].error.message
        serial = Session().explore([p for p in points if p != BAD])
        assert [r.speedup for r in results if r.ok] == \
            [r.speedup for r in serial]

    def test_poisoned_chunk_persists_completed_deltas(self, tmp_path):
        cache_dir = str(tmp_path / "store")
        session = Session(cache_dir=cache_dir)
        with pytest.raises(ReproError, match="nope"):
            session.explore([GOOD[0], BAD, GOOD[1]], workers=2)
        warm = Session(cache_dir=cache_dir)
        for point in GOOD:
            warm.evaluate_point(point)
        assert warm.stats.hit_count("eval") == 2

    def test_parallel_capture_matches_serial_contract(self):
        points = [GOOD[0], BAD, GOOD[1]]
        serial = Session().explore(points, on_error="capture")
        parallel = Session().explore(points, workers=2,
                                     on_error="capture")
        assert [r.point for r in parallel] == [r.point for r in serial]
        assert [r.ok for r in parallel] == [r.ok for r in serial]
        assert [r.speedup for r in parallel] == \
            [r.speedup for r in serial]


class _InterruptingPool:
    """A Pool stand-in: first chunk arrives, then the user hits ^C."""

    instances = []

    def __init__(self, processes=None, initializer=None, initargs=()):
        initializer(*initargs)
        self.terminated = False
        self.joined = False
        _InterruptingPool.instances.append(self)

    def imap_unordered(self, func, tasks):
        yield func(tasks[0])
        raise KeyboardInterrupt

    def terminate(self):
        self.terminated = True

    def join(self):
        self.joined = True

    def close(self):  # pragma: no cover - not reached on interrupt
        pass


class TestKeyboardInterrupt:
    def test_interrupt_terminates_pool_and_flushes(self, tmp_path,
                                                   monkeypatch):
        cache_dir = str(tmp_path / "store")
        monkeypatch.setattr(session_module.multiprocessing, "Pool",
                            _InterruptingPool)
        # The stub runs chunks in-process via the real worker plumbing,
        # so the parent-global worker state must be restored.
        monkeypatch.setattr(session_module, "_WORKER", None)
        _InterruptingPool.instances = []
        session = Session(cache_dir=cache_dir)
        with pytest.raises(KeyboardInterrupt):
            session.explore(GOOD, workers=2)
        pool = _InterruptingPool.instances[0]
        assert pool.terminated and pool.joined
        # The chunk absorbed before the interrupt reached the disk.
        warm = Session(cache_dir=cache_dir)
        warm.evaluate_point(GOOD[0])
        assert warm.stats.hit_count("eval") == 1
        # ... and its accounting reached the parent session.
        assert session.stats.miss_count("eval") >= 1

    def test_interrupted_scan_keeps_its_partitions(self, tmp_path,
                                                   monkeypatch):
        cache_dir = str(tmp_path / "store")
        settle = EvaluationScan.settle
        calls = []

        # The scan partitions its candidates through settle(), best
        # bound first; hal's scan settles 72 of them.
        def interrupting(scan, allocation, pending):
            calls.append(allocation)
            if len(calls) == 20:  # the user hits ^C mid-search
                raise KeyboardInterrupt
            return settle(scan, allocation, pending)

        monkeypatch.setattr(EvaluationScan, "settle", interrupting)
        library = default_library()
        bsbs = load_application("hal").bsbs
        architecture = TargetArchitecture(library=library,
                                          total_area=20000.0)
        with pytest.raises(KeyboardInterrupt):
            exhaustive_best_allocation(
                bsbs, architecture,
                session=Session(library=library, cache_dir=cache_dir))
        assert len(calls) == 20
        # The PACE results of the candidates before it reached the disk.
        entries, _ = CacheStore(cache_dir).info().get("partitions", (0, 0))
        assert entries > 0
