"""Tests for store LRU stamping and compaction (ISSUE 4).

The contract: every stored row carries a last-used stamp (set when a
flush inserts it and refreshed when a hydrate replays its owner — so a
warm run that computes nothing still protects its entries), and
:meth:`CacheStore.compact` evicts by age and/or down to a byte budget,
oldest first.  Compaction must leave survivors fully warm (>90% hit
rate), must never corrupt the store — even racing a concurrent flush
on sqlite's locks — and evicted entries simply recompute cold.
"""

import contextlib
import os
import pickle
import sqlite3
import threading
import time

import pytest

from repro.engine import CacheStore, DesignPoint, EvalCache, Session
from repro.engine.store import STORE_VERSION
from repro.errors import ReproError

STRAIGHT = DesignPoint(app="straight", area=4000.0, quanta=100)
HAL = DesignPoint(app="hal", area=5000.0, quanta=100)


def store_path(root):
    return os.path.join(root, "store.v%d.sqlite" % STORE_VERSION)


@contextlib.contextmanager
def connect(root):
    """A plain sqlite connection to the store file (tests read the
    layout directly, behind the store's back)."""
    db = sqlite3.connect(store_path(root), isolation_level=None)
    try:
        yield db
    finally:
        db.close()


def read_rows(root):
    """[(rowid, stage, owner, keys, last_used)] of every stored row."""
    if not os.path.exists(store_path(root)):
        return []
    with connect(root) as db:
        return [(rowid, stage, owner, set(pickle.loads(payload)), stamp)
                for rowid, stage, owner, payload, stamp in db.execute(
                    "SELECT rowid, stage, owner, payload, last_used "
                    "FROM spills ORDER BY rowid")]


def read_stamps(root):
    """{rowid: last_used} of every stored row."""
    return {row[0]: row[4] for row in read_rows(root)}


def stored_keys(root):
    """{stage: set of keys} of every stored row (the compiled-program
    rows included — they are stamped and compacted like any stage
    entry)."""
    keys = {}
    for _, stage, _, row_keys, _ in read_rows(root):
        keys.setdefault(stage, set()).update(row_keys)
    return keys


def run_point(root, point):
    session = Session(cache_dir=root)
    result = session.evaluate_point(point)
    session.save_store()
    return result


class TestLruStamps:
    def test_flush_stamps_every_written_entry(self, tmp_path):
        root = str(tmp_path / "store")
        before = time.time()
        run_point(root, STRAIGHT)
        rows = read_rows(root)
        assert rows
        for _, stage, _, _, stamp in rows:
            assert before <= stamp <= time.time(), \
                "stage %s has a row stamped outside its flush" % stage

    def test_warm_replay_refreshes_stamps(self, tmp_path):
        """A warm run computes nothing new, yet its hydrated entries
        must be re-stamped — otherwise routinely-used entries would
        look stale to the LRU and be compacted away."""
        root = str(tmp_path / "store")
        run_point(root, STRAIGHT)
        before = read_stamps(root)
        time.sleep(0.05)
        run_point(root, STRAIGHT)  # pure replay
        after = read_stamps(root)
        assert set(after) == set(before), "a replay inserts no rows"
        refreshed = sum(1 for rowid, stamp in after.items()
                        if stamp > before[rowid])
        assert refreshed > 0

    def test_clear_removes_the_stamp_file(self, tmp_path):
        # The stamps are columns of the store file: clear() deletes the
        # file and its journal, so no stamp outlives its entry.
        root = str(tmp_path / "store")
        run_point(root, STRAIGHT)
        assert read_stamps(root)
        CacheStore(root).clear()
        assert not os.path.exists(store_path(root))
        assert not os.path.exists(store_path(root) + "-journal")
        assert read_stamps(root) == {}


class TestCompactByAge:
    def stamp_by_app(self, root, fresh_keys, now):
        """Restamp every row: rows holding only ``fresh_keys`` now,
        every other row a thousand seconds stale."""
        with connect(root) as db:
            for rowid, stage, _, keys, _ in read_rows(root):
                fresh = keys <= fresh_keys.get(stage, set())
                db.execute("UPDATE spills SET last_used = ? "
                           "WHERE rowid = ?",
                           (now if fresh else now - 1000.0, rowid))

    def test_evicts_stale_keeps_fresh_and_survivors_stay_warm(
            self, tmp_path):
        # A reference store holding only HAL names the fresh key set
        # (the pipeline is deterministic, so stable keys match).
        reference = str(tmp_path / "reference")
        run_point(reference, HAL)
        hal_keys = stored_keys(reference)

        root = str(tmp_path / "store")
        run_point(root, STRAIGHT)
        run_point(root, HAL)
        self.stamp_by_app(root, hal_keys, time.time())

        report = CacheStore(root).compact(max_age_seconds=500.0)
        assert report["dropped"] > 0
        assert report["bytes_after"] < report["bytes_before"]
        # Exactly the stale (straight) entries went; hal survived.
        assert stored_keys(root) == hal_keys

        # Survivors are fully warm: the hal rerun replays everything
        # the store covers — since PR 5 that includes the compiled
        # program, so the only miss left is the in-process program
        # memo's first lookup (which the program store then serves).
        warm = Session(cache_dir=root)
        warm.evaluate_point(HAL)
        stats = warm.stats
        covered = stats.hit_count() + stats.miss_count() \
            - stats.miss_count("program")
        assert stats.hit_count() / covered > 0.9
        assert stats.miss_count() == stats.miss_count("program")
        assert stats.miss_count("compile") == 0, \
            "compacting kept hal fresh, so its program must survive"
        assert stats.miss_count("alloc") == 0
        assert stats.miss_count("eval") == 0

        # The evicted app recomputes cold — and correctly.
        cold = Session(cache_dir=root)
        result = cold.evaluate_point(STRAIGHT)
        assert cold.stats.miss_count("eval") >= 1
        assert result.speedup == \
            Session().evaluate_point(STRAIGHT).speedup

    def test_zero_age_empties_the_store(self, tmp_path):
        root = str(tmp_path / "store")
        run_point(root, STRAIGHT)
        report = CacheStore(root).compact(max_age_seconds=0.0)
        assert report["kept"] == 0
        assert CacheStore(root).info() == {}
        # A later session simply starts cold and repopulates.
        run_point(root, STRAIGHT)
        assert CacheStore(root).info()


class TestCompactByBytes:
    def synthetic_store(self, tmp_path, entries=40, payload=4000):
        """40 one-entry 'evals' rows of opaque entries with ascending
        stamps — entry i is strictly more recently used than entry
        i-1.  The payloads dwarf the empty schema's few pages, so half
        the file is a budget the survivors can meet."""
        root = str(tmp_path / "store")
        store = CacheStore(root)
        data = {("key-%03d" % index,): "x" * payload
                for index in range(entries)}
        store.absorb_delta({"evals": data})
        assert store.flush(EvalCache()) == entries
        with connect(root) as db:
            for index in range(entries):
                db.execute("UPDATE spills SET last_used = ? "
                           "WHERE owner = ?",
                           (1000.0 + index, "key-%03d" % index))
        return root, data

    def test_evicts_oldest_first_down_to_the_budget(self, tmp_path):
        root, data = self.synthetic_store(tmp_path)
        size = os.path.getsize(store_path(root))
        report = CacheStore(root).compact(max_bytes=size // 2)
        assert 0 < report["kept"] < len(data)
        assert report["bytes_after"] <= size // 2
        assert os.path.getsize(store_path(root)) == report["bytes_after"]
        survivors = stored_keys(root)["evals"]
        # LRU: the survivors are exactly the most recent suffix.
        expected = {("key-%03d" % index,)
                    for index in range(len(data) - len(survivors),
                                       len(data))}
        assert survivors == expected
        # Stamps of the victims are pruned with them: one row, one
        # stamp, per survivor.
        assert len(read_stamps(root)) == len(expected)

    def test_generous_budget_drops_nothing(self, tmp_path):
        root, data = self.synthetic_store(tmp_path)
        report = CacheStore(root).compact(max_bytes=1 << 30)
        assert report["dropped"] == 0
        assert set(stored_keys(root)["evals"]) == set(data)


class TestCompactEdges:
    def test_requires_a_budget(self, tmp_path):
        with pytest.raises(ReproError, match="max_bytes"):
            CacheStore(str(tmp_path / "store")).compact()

    def test_missing_store_is_a_noop_and_stays_missing(self, tmp_path):
        root = str(tmp_path / "typo-store")
        report = CacheStore(root).compact(max_bytes=10)
        assert report == {"kept": 0, "dropped": 0, "bytes_before": 0,
                          "bytes_after": 0, "stages": {}}
        assert not os.path.exists(root)

    def test_compact_racing_a_flush_never_corrupts(self, tmp_path):
        """Compaction and flushes serialise on sqlite's locks: hammer
        both sides concurrently from two connections.  Whatever
        interleaving wins, the file must pass an integrity check, every
        row must unpickle to a dict, and a fresh warm session must
        still match a storeless run bit-for-bit."""
        root = str(tmp_path / "store")
        run_point(root, STRAIGHT)
        failures = []

        def flusher():
            try:
                for step in range(6):
                    session = Session(cache_dir=root)
                    session.evaluate_point(DesignPoint(
                        app="straight", area=3000.0 + 500.0 * step,
                        quanta=100))
                    session.save_store()
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        thread = threading.Thread(target=flusher)
        thread.start()
        store = CacheStore(root)
        for _ in range(8):
            store.compact(max_bytes=1 << 30, max_age_seconds=3600.0)
        thread.join(60)
        assert not thread.is_alive()
        assert not failures, failures
        # The file is healthy and every row reads as a dict...
        with connect(root) as db:
            assert db.execute("PRAGMA integrity_check").fetchone() \
                == ("ok",)
        assert read_rows(root)
        # ...and the store still serves bit-identical results.
        warm = Session(cache_dir=root)
        plain = Session()
        warm_result = warm.evaluate_point(STRAIGHT)
        plain_result = plain.evaluate_point(STRAIGHT)
        assert warm_result.speedup == plain_result.speedup
        assert warm_result.allocation == plain_result.allocation


class TestCompactLiveSession:
    """Compaction of a store some live session still holds entries from.

    A flush inserts only the entries new since the session's last
    flush, so a live session never writes a compacted row back — no
    matter which store object ran the compaction.
    """

    def assert_not_resurrected(self, root, victims):
        after = stored_keys(root)
        assert after, "the new work itself must still persist"
        for stage, keys in victims.items():
            resurrected = keys & after.get(stage, set())
            assert not resurrected, \
                "stage %s resurrected %d evicted entries" \
                % (stage, len(resurrected))

    def test_live_session_flush_does_not_resurrect_victims(self,
                                                           tmp_path):
        root = str(tmp_path / "store")
        session = Session(cache_dir=root)
        session.evaluate_point(STRAIGHT)
        session.save_store()
        victims = stored_keys(root)
        assert victims

        report = session.store.compact(max_age_seconds=0.0)
        assert report["dropped"] > 0
        assert not stored_keys(root)

        # New work grows the stages; the flush must leave the victims
        # out even though the session's cache still holds them.
        session.evaluate_point(HAL)
        session.save_store()
        self.assert_not_resurrected(root, victims)

    def test_compaction_by_another_store_sticks(self, tmp_path):
        """The ``cache compact`` case: a second store object (another
        process, in real use) compacts while the session is live."""
        root = str(tmp_path / "store")
        session = Session(cache_dir=root)
        session.evaluate_point(STRAIGHT)
        session.save_store()
        victims = stored_keys(root)
        report = CacheStore(root).compact(max_age_seconds=0.0)
        assert report["dropped"] == sum(len(keys)
                                        for keys in victims.values())
        assert not stored_keys(root)

        session.evaluate_point(HAL)
        assert session.save_store() > 0
        self.assert_not_resurrected(root, victims)

    def test_cold_recompute_re_persists_evicted_entries(self, tmp_path):
        # Eviction is per live store object, not a permanent ban: a
        # fresh process that recomputes the work persists it again.
        root = str(tmp_path / "store")
        run_point(root, STRAIGHT)
        CacheStore(root).compact(max_age_seconds=0.0)
        assert not stored_keys(root)
        run_point(root, STRAIGHT)
        assert stored_keys(root)

    def test_absorbed_worker_delta_unevicts(self, tmp_path):
        # A worker delta carrying an evicted key is *new computed work*
        # arriving, not a resurrection — it must persist.
        root = str(tmp_path / "store")
        parent = Session(cache_dir=root)
        parent.evaluate_point(STRAIGHT)
        parent.save_store()
        parent.store.compact(max_age_seconds=0.0)
        assert not stored_keys(root)

        worker = Session(cache_dir=root)  # hydrates nothing: disk empty
        worker.evaluate_point(STRAIGHT)
        delta = worker.store.export_delta(worker.cache)
        assert delta

        parent.store.absorb_delta(delta)
        parent.save_store()
        after = stored_keys(root)
        assert any(after.get(stage) for stage in delta), \
            "absorbed recomputation must reach the disk again"


class TestCompactionHistory:
    """compact() passes leave a bounded audit trail (ISSUE 10)."""

    def test_compact_records_one_event(self, tmp_path):
        root = str(tmp_path / "store")
        run_point(root, STRAIGHT)
        store = CacheStore(root)
        report = store.compact(max_age_seconds=0.0)
        history = store.compaction_history()
        assert len(history) == 1
        event = history[0]
        assert event["kept"] == report["kept"]
        assert event["dropped"] == report["dropped"]
        assert event["bytes_before"] == report["bytes_before"]
        assert event["bytes_after"] == report["bytes_after"]
        assert event["stages"] == report["stages"]
        assert event["time"] > 0

    def test_history_appends_oldest_first_and_is_bounded(
            self, tmp_path):
        from repro.engine.store import COMPACTION_HISTORY_LIMIT

        root = str(tmp_path / "store")
        run_point(root, STRAIGHT)
        store = CacheStore(root)
        for _ in range(COMPACTION_HISTORY_LIMIT + 3):
            store.compact(max_age_seconds=0.0)
        history = store.compaction_history()
        assert len(history) == COMPACTION_HISTORY_LIMIT
        times = [event["time"] for event in history]
        assert times == sorted(times)

    def test_fresh_store_and_damage_read_as_empty(self, tmp_path):
        root = str(tmp_path / "store")
        store = CacheStore(root)
        assert store.compaction_history() == []
        run_point(root, STRAIGHT)
        store.compact(max_age_seconds=0.0)
        assert store.compaction_history()
        with open(store_path(root), "wb") as handle:
            handle.write(b"not a database")
        assert CacheStore(root).compaction_history() == []

    def test_clear_removes_the_history(self, tmp_path):
        root = str(tmp_path / "store")
        run_point(root, STRAIGHT)
        store = CacheStore(root)
        store.compact(max_age_seconds=0.0)
        assert store.compaction_history()
        store.clear()
        assert store.compaction_history() == []
        assert not os.path.exists(store_path(root))
