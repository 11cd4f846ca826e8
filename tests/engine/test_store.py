"""Tests for the content-addressed persistent engine store.

The store's contract is exactness: a warm session hydrated from disk
must produce results bit-identical to a cold computation, across
process boundaries (simulated here by rebuilding applications with
fresh uids), through parallel workers, and in the face of a corrupted
or truncated store file.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.apps.registry import application_spec
from repro.core.exhaustive import exhaustive_best_allocation
from repro.engine import CacheStore, DesignPoint, EvalCache, Session
from repro.engine.store import (
    PERSISTED_STAGES,
    STORE_VERSION,
    bsb_fingerprint,
    library_fingerprint,
    technology_fingerprint,
)
from repro.hwlib.library import ResourceLibrary, default_library
from repro.ir.ops import OpType
from repro.partition.model import TargetArchitecture

from tests.conftest import make_leaf, make_parallel_dfg
from tests.engine.test_compact import (
    connect,
    read_rows,
    store_path,
    stored_keys,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def make_small_app():
    """Two BSBs built fresh on every call — distinct uids, one content."""
    muls = make_leaf(make_parallel_dfg(OpType.MUL, 2, "muls"),
                     profile=50, name="muls", reads={"a"}, writes={"b"})
    adds = make_leaf(make_parallel_dfg(OpType.ADD, 3, "adds"),
                     profile=20, name="adds", reads={"b"}, writes={"c"})
    return [muls, adds]


def assert_same_result(one, other):
    assert one.best_allocation == other.best_allocation
    assert one.evaluations == other.evaluations
    assert one.space == other.space
    assert one.sampled == other.sampled
    assert one.skipped_infeasible == other.skipped_infeasible
    first, second = one.best_evaluation, other.best_evaluation
    assert first.allocation == second.allocation
    assert first.datapath_area == second.datapath_area
    assert (first.available_controller_area
            == second.available_controller_area)
    assert first.partition.speedup == second.partition.speedup
    assert first.partition.hybrid_time == second.partition.hybrid_time
    assert first.partition.sw_time_all == second.partition.sw_time_all
    assert first.partition.hw_sequences == second.partition.hw_sequences
    assert first.partition.hw_names == second.partition.hw_names


class TestFingerprints:
    def test_bsb_fingerprint_is_content_based(self):
        first, second = make_small_app(), make_small_app()
        assert first[0].uid != second[0].uid
        assert bsb_fingerprint(first[0]) == bsb_fingerprint(second[0])
        assert bsb_fingerprint(first[0]) != bsb_fingerprint(first[1])

    def test_bsb_name_is_part_of_the_fingerprint(self):
        plain = make_leaf(make_parallel_dfg(OpType.ADD, 2, "twin"),
                          profile=5, name="left")
        renamed = make_leaf(make_parallel_dfg(OpType.ADD, 2, "twin"),
                            profile=5, name="right")
        assert bsb_fingerprint(plain) != bsb_fingerprint(renamed)

    def test_profile_count_changes_the_fingerprint(self):
        one = make_leaf(make_parallel_dfg(OpType.ADD, 2, "p"), profile=5,
                        name="p")
        other = make_leaf(make_parallel_dfg(OpType.ADD, 2, "p"), profile=6,
                          name="p")
        assert bsb_fingerprint(one) != bsb_fingerprint(other)

    def test_library_fingerprint_by_value(self):
        assert (library_fingerprint(default_library())
                == library_fingerprint(default_library()))
        slow = ResourceLibrary(name="lycos-default")
        slow.add_single("adder", OpType.ADD, area=120.0, latency=3)
        assert (library_fingerprint(slow)
                != library_fingerprint(default_library()))

    def test_technology_fingerprint(self):
        library = default_library()
        assert (technology_fingerprint(library.technology)
                == technology_fingerprint(library.technology))


class TestColdWarmParity:
    def test_warm_exhaustive_bit_identical_across_uids(self, tmp_path):
        """A second 'process' (fresh uids) replays the stored stages."""
        library = default_library()
        architecture = TargetArchitecture(library=library,
                                          total_area=6000.0)
        cold_session = Session(library=library,
                               cache_dir=str(tmp_path / "store"))
        cold = exhaustive_best_allocation(make_small_app(), architecture,
                                          area_quanta=100,
                                          session=cold_session)
        # Fresh session + fresh BSB objects: only content hashes match.
        warm_session = Session(library=default_library(),
                               cache_dir=str(tmp_path / "store"))
        warm_arch = TargetArchitecture(library=warm_session.library,
                                       total_area=6000.0)
        warm = exhaustive_best_allocation(make_small_app(), warm_arch,
                                          area_quanta=100,
                                          session=warm_session)
        assert_same_result(cold, warm)
        # Everything expensive must be replayed from disk.
        assert warm_session.stats.miss_count("cost") == 0
        assert warm_session.stats.miss_count("partition") == 0
        assert warm_session.stats.hit_count("partition") > 0

    def test_warm_matches_storeless_serial(self, tmp_path):
        library = default_library()
        architecture = TargetArchitecture(library=library,
                                          total_area=6000.0)
        plain = exhaustive_best_allocation(make_small_app(), architecture)
        for _ in range(2):  # cold then warm
            session = Session(library=default_library(),
                              cache_dir=str(tmp_path / "store"))
            arch = TargetArchitecture(library=session.library,
                                      total_area=6000.0)
            stored = exhaustive_best_allocation(make_small_app(), arch,
                                                session=session)
            assert_same_result(plain, stored)

    def test_warm_point_result_bit_identical(self, tmp_path):
        point = DesignPoint(app="hal")
        cold_session = Session(cache_dir=str(tmp_path / "store"))
        cold = cold_session.evaluate_point(point)
        cold_session.save_store()
        warm_session = Session(cache_dir=str(tmp_path / "store"))
        warm = warm_session.evaluate_point(point)
        assert warm.allocation == cold.allocation
        assert warm.speedup == cold.speedup
        assert warm.datapath_area == cold.datapath_area
        assert warm.hw_names == cold.hw_names
        assert warm_session.stats.hit_count("alloc") == 1
        assert warm_session.stats.hit_count("eval") == 1
        assert warm_session.stats.miss_count("alloc") == 0
        assert warm_session.stats.miss_count("eval") == 0

    def test_explicit_restrictions_still_use_the_store(self, tmp_path):
        """Regression: passing restrictions= skipped session
        .restrictions(), which was the only place the BSBs got
        registered — the store then silently persisted nothing."""
        from repro.core.restrictions import asap_restrictions

        store_dir = str(tmp_path / "store")
        for attempt in range(2):
            library = default_library()
            app = make_small_app()
            session = Session(library=library, cache_dir=store_dir)
            architecture = TargetArchitecture(library=library,
                                              total_area=6000.0)
            result = exhaustive_best_allocation(
                app, architecture,
                restrictions=asap_restrictions(app, library),
                session=session)
            if attempt == 0:
                cold = result
        assert_same_result(cold, result)
        assert session.stats.miss_count("cost") == 0
        assert session.stats.miss_count("partition") == 0

    def test_sampled_search_warm_parity(self, tmp_path):
        spec = application_spec("man")
        for attempt in range(2):
            session = Session(cache_dir=str(tmp_path / "store"))
            program = session.program("man")
            architecture = TargetArchitecture(
                library=session.library, total_area=spec.total_area)
            result = session.exhaustive(program.bsbs, architecture,
                                        max_evaluations=60,
                                        area_quanta=100)
            if attempt == 0:
                cold = result
        assert_same_result(cold, result)


class TestStoreRobustness:
    def small_search(self, store_dir):
        session = Session(cache_dir=store_dir)
        architecture = TargetArchitecture(library=session.library,
                                          total_area=6000.0)
        result = exhaustive_best_allocation(make_small_app(), architecture,
                                            session=session)
        return session, result

    def plain_search(self):
        architecture = TargetArchitecture(library=default_library(),
                                          total_area=6000.0)
        return exhaustive_best_allocation(make_small_app(), architecture)

    def test_corrupt_shards_are_ignored_and_repaired(self, tmp_path):
        # A store file that is not a database at all fails the
        # quick_check: it moves aside and the session starts cold.
        store_dir = str(tmp_path / "store")
        os.makedirs(store_dir)
        with open(store_path(store_dir), "wb") as handle:
            handle.write(b"not a database at all" * 64)
        _, result = self.small_search(store_dir)
        assert_same_result(self.plain_search(), result)
        # The flush at the end of the search wrote a fresh file.
        assert os.path.exists(store_path(store_dir) + ".damaged")
        assert CacheStore(store_dir).info()["costs"][0] > 0

    def test_truncated_shard_recovers(self, tmp_path):
        store_dir = str(tmp_path / "store")
        # First write a real store...
        self.small_search(store_dir)
        # ...then simulate a partial write by truncating every file.
        for name in os.listdir(store_dir):
            path = os.path.join(store_dir, name)
            size = os.path.getsize(path)
            with open(path, "rb+") as handle:
                handle.truncate(max(1, size // 2))
        _, result = self.small_search(store_dir)
        assert_same_result(self.plain_search(), result)

    def test_non_dict_payload_reads_as_a_miss(self, tmp_path):
        store_dir = str(tmp_path / "store")
        self.small_search(store_dir)
        with connect(store_dir) as db:
            db.execute("UPDATE spills SET payload = ?",
                       (pickle.dumps([1, 2, 3]),))
        warm, result = self.small_search(store_dir)
        assert_same_result(self.plain_search(), result)
        assert warm.stats.miss_count("cost") > 0
        assert warm.stats.miss_count("partition") > 0

    def test_interleaved_flushers_merge_instead_of_clobbering(
            self, tmp_path):
        """Two stores over one directory: both writers' entries last."""
        store_dir = str(tmp_path / "store")
        first = Session(library=default_library(), cache_dir=store_dir)
        architecture = TargetArchitecture(library=first.library,
                                          total_area=6000.0)
        exhaustive_best_allocation(make_small_app(), architecture,
                                   session=first)
        second = Session(library=default_library(), cache_dir=store_dir)
        other_app = [make_leaf(make_parallel_dfg(OpType.ADD, 2, "solo"),
                               profile=9, name="solo")]
        arch2 = TargetArchitecture(library=second.library,
                                   total_area=6000.0)
        exhaustive_best_allocation(other_app, arch2, session=second)
        fingerprints = {key[0] for key in stored_keys(store_dir)["costs"]}
        assert bsb_fingerprint(other_app[0]) in fingerprints
        assert bsb_fingerprint(make_small_app()[0]) in fingerprints

    def test_killed_writer_does_not_block_the_next_flush(self, tmp_path):
        """A writer killed mid-transaction leaves a hot journal and
        half-written pages behind.  The next connection rolls them
        back; the killed process's lock died with it, so the next
        flush goes through at once and the killed rows never land."""
        store_dir = str(tmp_path / "store")
        self.small_search(store_dir)
        ghost = textwrap.dedent("""
            import os, signal, sqlite3, sys
            db = sqlite3.connect(sys.argv[1], isolation_level=None)
            db.execute("PRAGMA journal_mode = TRUNCATE")
            db.execute("PRAGMA cache_size = 1")
            db.execute("BEGIN IMMEDIATE")
            for index in range(200):
                db.execute("INSERT INTO spills VALUES "
                           "('costs', 'ghost', 1, ?, 0)", (b"x" * 4000,))
            os.kill(os.getpid(), signal.SIGKILL)
        """)
        killed = subprocess.run([sys.executable, "-c", ghost,
                                 store_path(store_dir)])
        assert killed.returncode == -signal.SIGKILL
        assert os.path.getsize(store_path(store_dir) + "-journal") > 0
        started = time.monotonic()
        session = Session(cache_dir=store_dir)
        other_app = [make_leaf(make_parallel_dfg(OpType.ADD, 2, "solo"),
                               profile=9, name="solo")]
        exhaustive_best_allocation(
            other_app, TargetArchitecture(library=session.library,
                                          total_area=6000.0),
            session=session)
        assert time.monotonic() - started < 30.0
        owners = {row[2] for row in read_rows(store_dir)}
        assert "ghost" not in owners
        assert bsb_fingerprint(other_app[0]) in owners

    def test_read_only_store_never_creates_the_directory(self, tmp_path):
        store_dir = str(tmp_path / "typo-store")
        store = CacheStore(store_dir)
        assert store.info() == {}
        assert store.hydrate(EvalCache()) == 0
        assert store.load_program("fingerprint") is None
        assert store.delta_stats() == {}
        assert store.compaction_history() == []
        repr(store)
        assert not os.path.exists(store_dir)

    def test_info_and_clear(self, tmp_path):
        store_dir = str(tmp_path / "store")
        session = Session(cache_dir=store_dir)
        architecture = TargetArchitecture(library=session.library,
                                          total_area=6000.0)
        exhaustive_best_allocation(make_small_app(), architecture,
                                   session=session)
        store = CacheStore(store_dir)
        report = store.info()
        assert report, "expected stored entries"
        for entries, size in report.values():
            assert entries > 0
            assert size > 0
        assert store.clear() == sum(entries for entries, _
                                    in report.values())
        assert store.info() == {}
        assert os.listdir(store_dir) == []


class TestParallelEquivalence:
    def test_explore_parallel_merges_worker_stats(self):
        session = Session()
        spec = application_spec("hal")
        points = [DesignPoint(app="hal", area=f * spec.total_area)
                  for f in (0.5, 0.75, 1.0)]
        session.explore(points, workers=2)
        assert session.stats.miss_count("alloc") == len(points)
        assert session.stats.miss_count("eval") == len(points)


class TestSessionStoreLifecycle:
    def test_save_store_is_noop_without_cache_dir(self):
        assert Session().save_store() == 0

    def test_store_isolated_by_version(self, tmp_path):
        store_dir = str(tmp_path / "store")
        session = Session(cache_dir=store_dir)
        architecture = TargetArchitecture(library=session.library,
                                          total_area=6000.0)
        exhaustive_best_allocation(make_small_app(), architecture,
                                   session=session)
        for name in os.listdir(store_dir):
            assert ".v%d." % STORE_VERSION in name


class TestFlushWrites:
    """flush() inserts only what is new, and says how much."""

    def test_flush_returns_the_entries_added_since_the_last_flush(
            self, tmp_path):
        store_dir = str(tmp_path / "store")
        for app in ("hal", "straight"):
            for fraction in (0.5, 1.0):
                cold = Session(cache_dir=store_dir)
                area = fraction * application_spec(app).total_area
                cold.evaluate_point(DesignPoint(app=app, area=area))
                cold.save_store()
        warm = Session(cache_dir=store_dir)
        warm.evaluate_point(DesignPoint(
            app="hal", area=0.5 * application_spec("hal").total_area))
        assert warm.save_store() == 0, "a replay adds nothing"

        def held(session):
            return sum(len(getattr(session.cache, stage))
                       for stage in PERSISTED_STAGES)

        before, rows = held(warm), len(read_rows(store_dir))
        stored = sum(entries for entries, _
                     in CacheStore(store_dir).info().values())
        warm.evaluate_point(DesignPoint(
            app="hal", area=0.75 * application_spec("hal").total_area))
        added = held(warm) - before
        assert 0 < added
        assert warm.save_store() == added
        assert sum(entries for entries, _ in CacheStore(
            store_dir).info().values()) == stored + added
        assert len(read_rows(store_dir)) > rows
        # Nothing new: nothing inserted, no row added.
        rows = len(read_rows(store_dir))
        assert warm.save_store() == 0
        assert len(read_rows(store_dir)) == rows

    def test_entries_hydrated_between_flushes_are_not_written_back(
            self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = Session(cache_dir=store_dir)
        cold.evaluate_point(DesignPoint(app="hal"))
        cold.save_store()

        def held(session):
            return sum(len(getattr(session.cache, stage))
                       for stage in PERSISTED_STAGES)

        session = Session(cache_dir=store_dir)
        session.evaluate_point(DesignPoint(app="straight", area=4000.0))
        computed = held(session)
        # Adopting hal now installs its stored entries behind the
        # unflushed straight ones; more hal work follows them.
        session.evaluate_point(DesignPoint(app="hal"))
        hydrated = held(session) - computed
        assert hydrated > 0
        session.evaluate_point(DesignPoint(app="hal", area=5000.0))
        computed = held(session) - hydrated
        # The flush writes the computed entries plus straight's program.
        assert session.save_store() == computed + 1


class _Marker:
    """Unpickling this creates the marker file: proof of a load."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestInspectionNeverUnpickles:
    """info(), compact(), the statistics and ``cache info`` read plain
    columns only — a store's payloads are never executed to inspect
    it."""

    def planted(self, tmp_path):
        store_dir = str(tmp_path / "store")
        marker = str(tmp_path / "unpickled")
        store = CacheStore(store_dir)
        store.absorb_delta({"evals": {("planted",): _Marker(marker)}})
        store.record_delta_stats("engine-1", 100, 40)
        assert store.flush(EvalCache()) == 1
        CacheStore(store_dir).compact(max_age_seconds=3600.0)
        assert not os.path.exists(marker)
        return store_dir, marker

    @pytest.mark.parametrize("inspect", [
        lambda root: CacheStore(root).info(),
        lambda root: CacheStore(root).compact(max_age_seconds=0.0),
        lambda root: CacheStore(root).compact(max_bytes=0),
        lambda root: CacheStore(root).delta_stats(),
        lambda root: CacheStore(root).compaction_history(),
        lambda root: repr(CacheStore(root)),
    ], ids=["info", "compact-age", "compact-bytes", "delta_stats",
            "compaction_history", "repr"])
    def test_inspection_leaves_no_marker(self, tmp_path, inspect):
        store_dir, marker = self.planted(tmp_path)
        inspect(store_dir)
        assert not os.path.exists(marker)

    def test_cache_info_leaves_no_marker(self, tmp_path, capsys):
        from repro.cli import main

        store_dir, marker = self.planted(tmp_path)
        assert main(["cache", "info", "--cache-dir", store_dir]) == 0
        assert "evals" in capsys.readouterr().out
        assert not os.path.exists(marker)

    def test_the_payload_read_does_unpickle(self, tmp_path):
        # The positive control: hydrating the planted owner is a load.
        store_dir, marker = self.planted(tmp_path)
        store = CacheStore(store_dir)
        store._owned.add("planted")
        store.hydrate(EvalCache())
        assert os.path.exists(marker)


_DAMAGE_SCRIPT = """
import os, sys

from repro.core.exhaustive import exhaustive_best_allocation
from repro.engine import Session
from repro.hwlib.library import default_library
from repro.ir.ops import OpType
from repro.partition.model import TargetArchitecture
from tests.conftest import make_leaf, make_parallel_dfg
from tests.engine.test_store import assert_same_result, make_small_app

store_dir, mode = sys.argv[1:]


def search(session, app):
    architecture = TargetArchitecture(library=session.library,
                                      total_area=6000.0)
    return exhaustive_best_allocation(app, architecture, session=session)


live = Session(cache_dir=store_dir)
search(live, make_small_app())  # flushes; the connection stays open
for name in os.listdir(store_dir):
    path = os.path.join(store_dir, name)
    size = os.path.getsize(path)
    if mode == "truncate":
        with open(path, "rb+") as handle:
            handle.truncate(size // 2)
    else:
        with open(path, "wb") as handle:
            handle.write(b"damaged!" * max(8, size // 8))
plain = exhaustive_best_allocation(
    make_small_app(), TargetArchitecture(library=default_library(),
                                         total_area=6000.0))
assert_same_result(plain, search(Session(cache_dir=store_dir),
                                 make_small_app()))
solo = [make_leaf(make_parallel_dfg(OpType.ADD, 2, "solo"), profile=9,
                  name="solo")]
search(live, solo)  # the live session's next flush
assert live.save_store() == 0
fresh = Session(cache_dir=store_dir)
assert_same_result(plain, search(fresh, make_small_app()))
assert fresh.stats.miss_count("cost") == 0, "fresh session is cold"
assert fresh.stats.miss_count("partition") == 0
print("survived")
"""


class TestDamageUnderALiveSession:
    """Damage to a store a live session holds open degrades to cold.

    Runs in a subprocess, so a crash (a SIGBUS from a memory-mapped
    index, say) reads as a failure instead of a dead test run.
    """

    @pytest.mark.parametrize("mode", ["truncate", "overwrite"])
    def test_damage_never_kills_the_process(self, tmp_path, mode):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
            + [env["PYTHONPATH"]] * bool(env.get("PYTHONPATH")))
        done = subprocess.run(
            [sys.executable, "-c", _DAMAGE_SCRIPT,
             str(tmp_path / "store"), mode],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "survived"
