"""Content-addressed persistent spill store for :class:`EvalCache`.

The :class:`~repro.engine.cache.EvalCache` keys its persisted stage
dicts by *content fingerprints*, so its keys mean the same thing in
every process.  A :class:`CacheStore` spills those entries, as they
are, into one stdlib ``sqlite3`` file under a ``--cache-dir``
(``store.v6.sqlite``), and a fresh session merges them back — so
sweeps survive restarts and a store can be shared across machines.

Every persisted key starts with its *owner*: one BSB fingerprint, or
the fingerprint tuple of a BSB array (stored once, in ``owners``).  The
``spills`` table holds one row per (stage, owner) per flush: the
pickled dict of the entries that flush added for that owner, their
count and a ``last_used`` stamp.  A flush is one transaction that
inserts only the entries added since the last one: O(new), not
O(store).  :meth:`CacheStore.hydrate` installs an owner's rows once
every BSB it names is registered, so a session loads only the programs
it adopted.  Compiled programs persist too (the ``programs`` stage),
so a warm session skips the frontend compile.  Fingerprints are
re-verified at flush time: a registered library or BSB mutated since
raises :class:`~repro.errors.StoreIntegrityError`.

Damage degrades to a cold session, never to an error: each new
connection runs ``PRAGMA quick_check``, and a failed check — or a
corrupt page met later — moves the file aside (``.damaged``).  A
payload that does not unpickle to a dict reads as a miss.  Writers
sharing a directory are serialised by sqlite's locks.

**Trust boundary**: payloads are Python pickles, and unpickling
executes code the pickle names.  Only open a ``cache_dir`` you (and
everyone able to write to it) trust, exactly like a shared build
cache.  Inspection (:meth:`~CacheStore.info`, :meth:`~CacheStore.compact`,
the delta statistics and the compaction history) never unpickles.
"""

import contextlib
import itertools
import json
import os
import pickle
import sqlite3
import time

from repro.engine.cache import (  # noqa: F401  (re-exported)
    bsb_fingerprint,
    content_fingerprint,
    digest,
    fingerprint,
    library_fingerprint,
    technology_fingerprint,
)
from repro.errors import ReproError, StoreIntegrityError

#: Bumped whenever fingerprinting or the store layout changes shape;
#: files of other versions are ignored.  v2: energy fields; v3: the
#: cache's own content keys; v4: one sqlite file replaces the pickle
#: shards and their LRU, delta and compaction sidecars; v5: partition
#: keys name the cost array's content, not its allocation signatures;
#: v6: program documents keep one tree (the CDFG, DFGs on its leaves).
STORE_VERSION = 6

#: The EvalCache stages the store persists.
PERSISTED_STAGES = ("ops", "capable", "sched", "sw_times", "furo", "eca",
                    "restrictions", "cost_plans", "costs", "allocs",
                    "evals", "partitions")

#: The compiled-program stage: fingerprint -> neutral program document
#: (:func:`repro.io.serialize.program_to_dict`).  Programs hydrate into
#: the Session's program memo, not the cache, but their rows share the
#: stamps, compaction and damage story of the stage rows.
PROGRAMS_STAGE = "programs"

#: Most recent compact() events the history table retains.
COMPACTION_HISTORY_LIMIT = 32

#: How long a writer waits for another connection's lock.
BUSY_TIMEOUT_SECONDS = 60.0

#: Rollback journal, not WAL: a damaged WAL ``-shm`` index kills the
#: process with SIGBUS instead of going cold.  No fsync, like the
#: unsynced write-and-rename files this store replaced: a killed
#: process keeps every committed flush (the journal undoes a partial
#: one), and a file an OS crash tears fails the next quick_check.
JOURNAL_MODE = "TRUNCATE"
SYNCHRONOUS = "OFF"

_SCHEMA = """BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS owners (name TEXT PRIMARY KEY, parts TEXT)
    WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS spills (stage TEXT, owner TEXT, entries INTEGER,
    payload BLOB, last_used REAL);
CREATE INDEX IF NOT EXISTS spills_owner ON spills (owner);
CREATE TABLE IF NOT EXISTS deltas (engine TEXT PRIMARY KEY,
    raw_bytes INTEGER, compressed_bytes INTEGER, frames INTEGER);
CREATE TABLE IF NOT EXISTS compactions (time REAL, kept INTEGER,
    dropped INTEGER, bytes_before INTEGER, bytes_after INTEGER, stages TEXT);
PRAGMA user_version = %d;
COMMIT;""" % STORE_VERSION


def program_fingerprint(name, source, inputs, library):
    """Content hash of a compiled program's identity: the application
    name, source text and profiling inputs the frontend consumes, plus
    the library fingerprint of the session that will use it."""
    return digest(("program", name, source,
                    tuple(sorted((inputs or {}).items())),
                    library_fingerprint(library)))


def _owner(key):
    """The owner a persisted key names: its first element (a program
    key is its own owner)."""
    return key[0] if isinstance(key, tuple) and key else key


def _load(payload):
    """One row's entry dict; None when it does not unpickle to one."""
    try:
        entries = pickle.loads(payload)
    except Exception:
        return None
    return entries if isinstance(entries, dict) else None


def _damaged(exc):
    """True for sqlite's corrupt-page and not-a-database errors (its
    lock, I/O and constraint errors subclass DatabaseError too)."""
    return type(exc) is sqlite3.DatabaseError


def _identity(path):
    try:
        info = os.stat(path)
    except OSError:
        return None
    return info.st_dev, info.st_ino


class _Suffixes:
    """The entries of add-only dicts one consumer has not yet seen: the
    suffix past its count (the dicts keep insertion order), minus the
    spans hydrate installed from disk since."""

    def __init__(self):
        self.counts = {}
        self.spans = {}

    def peek(self, name, source):
        start = self.counts.get(name, 0)
        if len(source) <= start:
            return {}
        # Reverse iteration reaches the suffix without walking the
        # prefix: O(new), however large the dict has grown.
        items = list(itertools.islice(reversed(source.items()),
                                      len(source) - start))
        items.reverse()
        fresh = {}
        position = start
        for low, high in self.spans.get(name, ()):
            fresh.update(items[position - start:low - start])
            position = high
        fresh.update(items[position - start:])
        return fresh

    def advance(self, name, length):
        self.counts[name] = length
        self.spans.pop(name, None)

    def installed(self, name, start, stop):
        if self.counts.get(name, 0) == start:
            self.counts[name] = stop
        else:
            self.spans.setdefault(name, []).append((start, stop))


class CacheStore:
    """A content-addressed on-disk mirror of an :class:`EvalCache`.

    Usage (what :class:`~repro.engine.session.Session` does)::

        store = CacheStore(cache_dir)
        store.register(library=library)
        store.register(bsbs=program.bsbs)
        store.hydrate(cache)       # after each registration
        ...                        # run the pipeline
        store.flush(cache)         # spill new entries to disk
    """

    def __init__(self, root):
        # The directory and the file are created on first write: a
        # read-only inspection of a mistyped path creates nothing.
        self.root = os.fspath(root)
        self.path = os.path.join(self.root,
                                 "store.v%d.sqlite" % STORE_VERSION)
        # One lazy connection and the (pid, file identity) it was
        # opened under: a forked child or a replaced file reopens.
        self._conn = self._opened = None
        # id -> (object, fingerprint at registration), for flush() to
        # re-verify; the strong reference keeps the id from recycling.
        self._registered = {}
        # Fingerprints of the registered BSBs, and owner name -> parts
        # still to install (listed from disk on first hydrate).
        self._owned = set()
        self._owners = None
        # Owners hydrated (or programs loaded) since the last flush,
        # whose rows that flush restamps: the LRU side of compaction.
        self._touched = set()
        # What the flush and export_delta have not seen yet.
        self._unflushed = _Suffixes()
        self._unexported = _Suffixes()
        # Worker-delta entries (stage -> {key: value}) and remote delta
        # stats (engine -> [raw, compressed, frames]) the next flush
        # writes; programs put or absorbed this process, add-only.
        self._absorbed = {}
        self._delta_stats_pending = {}
        self._programs_new = {}
        self._last_flush = None  # monotonic, for maybe_flush()

    def register(self, bsbs=None, library=None):
        """Register live objects; returns True when a BSB was new (and
        so further stored rows may install: hydrate after a True)."""
        if library is not None:
            self._remember(library)
            self._remember(library.technology)
        changed = False
        for bsb in (bsbs if bsbs is not None else ()):
            if self._remember(bsb):
                self._owned.add(fingerprint(bsb))
                changed = True
        return changed

    def _remember(self, obj):
        if id(obj) in self._registered:
            return False
        self._registered[id(obj)] = (obj, fingerprint(obj))
        return True

    def verify_registered(self):
        """Recompute every registered fingerprint; loud on drift.

        Registered libraries, technologies and BSBs are immutable by
        contract: the store keys carry their registration-time hashes.
        A flush calls this first and raises :class:`StoreIntegrityError`,
        refusing to write, when a fingerprint no longer matches.
        """
        for obj, expected in self._registered.values():
            actual = content_fingerprint(obj)
            if actual != expected:
                raise StoreIntegrityError(
                    "%s %r was mutated after being registered with the "
                    "persistent store (fingerprint %s -> %s); "
                    "registered objects are immutable-by-contract — "
                    "rebuild a fresh copy instead of mutating in place"
                    % (type(obj).__name__,
                       getattr(obj, "name", obj), expected, actual))

    # ------------------------------------------------------------------
    # The connection and its damage story
    # ------------------------------------------------------------------
    def _db(self, create=False):
        """This process's connection; without ``create``, None when
        there is no file."""
        if self._conn is not None:
            identity = _identity(self.path)
            if self._opened == (os.getpid(), identity):
                return self._conn
            if self._opened[1] != identity:
                self._owners = None  # a replaced file: list it afresh
            self._drop()
        if not create and not os.path.exists(self.path):
            return None
        os.makedirs(self.root, exist_ok=True)
        try:
            self._conn = self._connect()
        except sqlite3.DatabaseError as exc:
            if not _damaged(exc):
                raise
            self._set_aside(_identity(self.path))
            if not create:
                return None
            self._conn = self._connect()
        self._opened = (os.getpid(), _identity(self.path))
        return self._conn

    def _connect(self):
        conn = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_SECONDS,
                               isolation_level=None,
                               check_same_thread=False)
        try:
            verdict = conn.execute("PRAGMA quick_check").fetchone()[0]
            if verdict != "ok":
                raise sqlite3.DatabaseError("quick_check: %s" % verdict)
            conn.execute("PRAGMA journal_mode = %s" % JOURNAL_MODE)
            conn.execute("PRAGMA synchronous = %s" % SYNCHRONOUS)
            if conn.execute("PRAGMA user_version").fetchone()[0] \
                    != STORE_VERSION:
                conn.executescript(_SCHEMA)
        except BaseException:
            conn.close()
            raise
        return conn

    def _drop(self):
        if self._conn is not None:
            if self._opened[0] == os.getpid():
                self._conn.close()
            else:
                # Never close a connection a fork inherited: that could
                # roll back a transaction the parent has open.
                self._inherited = self._conn
        self._conn = self._opened = None

    def _set_aside(self, identity):
        """Move a damaged file out of the way; the session goes cold.

        Only the file found damaged moves, never a replacement another
        session already made; its journal is deleted, since replayed
        into a fresh file it would corrupt that.
        """
        if identity is not None and identity == _identity(self.path):
            with contextlib.suppress(OSError):
                os.replace(self.path, self.path + ".damaged")
            with contextlib.suppress(OSError):
                os.unlink(self.path + "-journal")
        self._forget_disk()

    def _forget_disk(self):
        """The file is gone: the next flush re-persists everything."""
        self._drop()
        self._owners = {}
        self._unflushed = _Suffixes()

    def _read(self, work, default):
        """``work(db)``; ``default`` with no file or a damaged one."""
        db = self._db()
        if db is None:
            return default
        try:
            return work(db)
        except sqlite3.DatabaseError as exc:
            if not _damaged(exc):
                raise
            self._set_aside(self._opened[1])
            return default

    def _write(self, work):
        """``work(db)`` in one ``BEGIN IMMEDIATE`` transaction."""
        db = self._db(create=True)
        with db:  # COMMIT, or ROLLBACK on an exception
            db.execute("BEGIN IMMEDIATE")
            return work(db)

    def _size(self):
        with contextlib.suppress(OSError):
            return os.path.getsize(self.path)
        return 0

    # ------------------------------------------------------------------
    # Hydrate: disk -> live cache
    # ------------------------------------------------------------------
    def hydrate(self, cache):
        """Merge the stored entries of every registered program into
        ``cache``; returns the number of entries installed.

        Rows whose owner is not yet fully registered stay pending; a
        live value always wins over a stored one.
        """
        if self._owners is None:
            self._owners = self._read(lambda db: {
                name: parts.split() for name, parts
                in db.execute("SELECT name, parts FROM owners")}, {})
        ready = [name for name, parts in self._owners.items()
                 if all(part in self._owned for part in parts)]
        if not ready:
            return 0
        for name in ready:
            del self._owners[name]
        self._touched.update(ready)
        starts = {stage: len(getattr(cache, stage))
                  for stage in PERSISTED_STAGES}

        def install(db):
            for low in range(0, len(ready), 500):
                chunk = ready[low:low + 500]
                for stage, payload in db.execute(
                        "SELECT stage, payload FROM spills WHERE owner "
                        "IN (%s) ORDER BY rowid"
                        % ",".join("?" * len(chunk)), chunk):
                    entries = _load(payload)
                    if entries is None or stage not in starts:
                        continue
                    target = getattr(cache, stage)
                    if entries.keys().isdisjoint(target.keys()):
                        target.update(entries)
                        continue
                    for key, value in entries.items():
                        if key not in target:
                            target[key] = value

        unflushed = self._unflushed
        self._read(install, None)
        installed = 0
        for stage, start in starts.items():
            stop = len(getattr(cache, stage))
            if stop > start:
                installed += stop - start
                self._unexported.installed(stage, start, stop)
                # Unless the file was set aside meanwhile: then these
                # entries are on disk no longer.
                if self._unflushed is unflushed:
                    unflushed.installed(stage, start, stop)
        return installed

    # ------------------------------------------------------------------
    # Compiled programs: disk <-> session program memo
    # ------------------------------------------------------------------
    def load_program(self, fingerprint):
        """The stored program document under ``fingerprint``, or None.

        Entries put (or absorbed) this process are preferred over the
        disk; a hit restamps the program's rows at the next flush, so
        warm sessions keep their programs alive through compaction.
        Rows are read newest first, and a flush replaces a program's
        older rows: when a session rejects a stored document and
        compiles cold, the copy it flushes is the one the next session
        finds.
        """
        def lookup(db):
            for (payload,) in db.execute(
                    "SELECT payload FROM spills WHERE owner = ? AND "
                    "stage = ? ORDER BY rowid DESC",
                    (fingerprint, PROGRAMS_STAGE)).fetchall():
                entries = _load(payload)
                if entries and fingerprint in entries:
                    return entries[fingerprint]
            return None

        payload = self._programs_new.get(fingerprint)
        if payload is None:
            payload = self._read(lookup, None)
        if payload is not None:
            self._touched.add(fingerprint)
        return payload

    def put_program(self, fingerprint, payload):
        """Queue one compiled-program document for the next flush."""
        if fingerprint not in self._programs_new:
            self._programs_new[fingerprint] = payload

    # ------------------------------------------------------------------
    # Worker deltas (live cache -> parent) and the flush (-> disk)
    # ------------------------------------------------------------------
    def _sources(self, cache):
        sources = {stage: getattr(cache, stage)
                   for stage in PERSISTED_STAGES}
        sources[PROGRAMS_STAGE] = self._programs_new
        return sources

    def export_delta(self, cache):
        """The cache entries (and programs) computed since the last
        export, minus what hydrate installed.

        Pool workers ship these back with their results and the parent
        merges them via :meth:`absorb_delta` — one writer, nothing lost.
        """
        delta = {}
        for stage, source in self._sources(cache).items():
            fresh = self._unexported.peek(stage, source)
            self._unexported.advance(stage, len(source))
            if fresh:
                delta[stage] = fresh
        return delta

    def absorb_delta(self, delta):
        """Queue a worker's exported entries for the next flush."""
        absorbed = 0
        for stage, entries in delta.items():
            if stage == PROGRAMS_STAGE:
                for fingerprint_key, payload in entries.items():
                    if fingerprint_key not in self._programs_new:
                        self._programs_new[fingerprint_key] = payload
                        absorbed += 1
            elif stage in PERSISTED_STAGES and entries:
                self._absorbed.setdefault(stage, {}).update(entries)
                absorbed += len(entries)
        return absorbed

    def flush(self, cache):
        """Insert the entries added since the last flush; returns how
        many it inserted.

        One transaction adds a row per (stage, owner) of the new
        entries (absorbed worker entries and programs included),
        restamps the owners hydrated since and adds the pending delta
        stats; nothing on disk is read or rewritten.  A damaged file is
        set aside and the whole live cache re-persisted.
        """
        self._last_flush = time.monotonic()
        try:
            return self._flush_once(cache)
        except sqlite3.DatabaseError as exc:
            if not _damaged(exc):
                raise
            self._set_aside(self._opened and self._opened[1])
            return self._flush_once(cache)

    def maybe_flush(self, cache, min_interval_seconds=5.0):
        """Flush unless one already ran in the last interval.

        The exploration service calls this after every point (one
        transaction per interval at most) and forces a plain
        :meth:`flush` when a job drains.  Returns the entries inserted
        (0 when rate-limited or clean).
        """
        if self._last_flush is not None and \
                time.monotonic() - self._last_flush < min_interval_seconds:
            return 0
        return self.flush(cache)

    def _flush_once(self, cache):
        sources = self._sources(cache)
        batch = {}
        for stage, source in sources.items():
            fresh = self._unflushed.peek(stage, source)
            if stage in self._absorbed:
                fresh = {**self._absorbed[stage], **fresh}
            if fresh:
                batch[stage] = fresh
        if not (batch or self._delta_stats_pending or self._touched):
            return 0
        if batch or self._delta_stats_pending:
            # A stamp-only flush touches rows a verified flush wrote.
            self.verify_registered()
        now = time.time()
        rows = []
        owners = set()
        for stage, entries in batch.items():
            groups = {}
            for key, value in entries.items():
                groups.setdefault(_owner(key), {})[key] = value
            for owner, group in groups.items():
                name = owner if isinstance(owner, str) else digest(owner)
                if stage != PROGRAMS_STAGE:
                    owners.add((name, " ".join(owner)
                                if isinstance(owner, tuple) else name))
                rows.append((stage, name, len(group),
                             pickle.dumps(group, pickle.HIGHEST_PROTOCOL),
                             now))

        def work(db):
            db.executemany("INSERT OR IGNORE INTO owners VALUES (?, ?)",
                           sorted(owners))
            # A program's new document replaces its older rows (one
            # the session rejected, or the same program absorbed again
            # from a worker): loads restamp every row of an owner, so a
            # dead copy would never age out.
            db.executemany("DELETE FROM spills WHERE stage = ? AND "
                           "owner = ?",
                           [(stage, name) for stage, name, *_ in rows
                            if stage == PROGRAMS_STAGE])
            db.executemany("INSERT INTO spills VALUES (?, ?, ?, ?, ?)",
                           rows)
            db.executemany("UPDATE spills SET last_used = ? "
                           "WHERE owner = ?",
                           [(now, name) for name in self._touched])
            db.executemany(
                "INSERT INTO deltas VALUES (?, ?, ?, ?) ON CONFLICT (engine) "
                "DO UPDATE SET raw_bytes = raw_bytes + excluded.raw_bytes, "
                "compressed_bytes = compressed_bytes + "
                "excluded.compressed_bytes, frames = frames + excluded.frames",
                [(engine, *entry) for engine, entry
                 in self._delta_stats_pending.items()])

        self._write(work)
        for stage, source in sources.items():
            self._unflushed.advance(stage, len(source))
        self._absorbed = {}
        self._delta_stats_pending = {}
        self._touched = set()
        return sum(row[2] for row in rows)

    # ------------------------------------------------------------------
    # Inspection / maintenance (the CLI's ``cache`` subcommand)
    # ------------------------------------------------------------------
    def record_delta_stats(self, engine, raw_bytes, compressed_bytes,
                           frames=1):
        """Account one absorbed store-delta frame against ``engine``:
        its decompressed pickle size and what actually travelled."""
        pending = self._delta_stats_pending
        pending[str(engine)] = [
            total + int(add) for total, add in zip(
                pending.get(str(engine), (0, 0, 0)),
                (raw_bytes, compressed_bytes, frames))]

    def delta_stats(self):
        """Per-engine store-delta compression stats, disk plus pending:
        ``{engine: {"raw_bytes", "compressed_bytes", "frames"}}``."""
        merged = {engine: entry for engine, *entry in self._read(
            lambda db: db.execute(
                "SELECT engine, raw_bytes, compressed_bytes, frames "
                "FROM deltas").fetchall(), [])}
        for engine, pending in self._delta_stats_pending.items():
            merged[engine] = [total + add for total, add in zip(
                merged.get(engine, (0, 0, 0)), pending)]
        fields = ("raw_bytes", "compressed_bytes", "frames")
        return {engine: dict(zip(fields, entry))
                for engine, entry in sorted(merged.items())}

    def compaction_history(self):
        """Recent compact() events, oldest first; [] on damage/absence:
        each one's report plus ``time``, its unix stamp."""
        rows = self._read(lambda db: db.execute(
            "SELECT time, kept, dropped, bytes_before, bytes_after, "
            "stages FROM compactions ORDER BY rowid").fetchall(), [])
        return [{"time": stamp, "kept": kept, "dropped": dropped,
                 "bytes_before": before, "bytes_after": after,
                 "stages": {stage: tuple(counts) for stage, counts
                            in json.loads(stages).items()}}
                for stamp, kept, dropped, before, after, stages in rows]

    def compact(self, max_bytes=None, max_age_seconds=None):
        """Drop expired / least-recently-used rows from the store.

        ``max_age_seconds`` deletes every row whose ``last_used`` stamp
        (set on insert, refreshed when a session hydrates its owner) is
        that old or older; ``max_bytes`` then deletes the oldest rows
        until the vacuumed file fits.  A live session never writes a
        dropped row back: it only inserts entries new since its last
        flush.  Returns ``kept``/``dropped`` entry counts,
        ``bytes_before``/``bytes_after`` (file sizes) and ``stages:
        {stage: (kept, dropped)}``.
        """
        if max_bytes is None and max_age_seconds is None:
            raise ReproError("compact() needs max_bytes and/or "
                             "max_age_seconds")
        if not os.path.isdir(self.root):
            # Never conjure a store out of a typo'd path.
            return {"kept": 0, "dropped": 0, "bytes_before": 0,
                    "bytes_after": 0, "stages": {}}
        bytes_before = self._size()
        dropped = {}

        def delete(where, args):
            def work(db):
                for stage, entries in db.execute(
                        "SELECT stage, SUM(entries) FROM spills WHERE %s "
                        "GROUP BY stage" % where, args).fetchall():
                    dropped[stage] = dropped.get(stage, 0) + entries
                db.execute("DELETE FROM spills WHERE %s" % where, args)
                db.execute("DELETE FROM owners WHERE name NOT IN "
                           "(SELECT owner FROM spills)")

            self._write(work)
            self._db(create=True).execute("VACUUM")

        if max_age_seconds is not None:
            delete("last_used <= ?", (time.time() - max_age_seconds,))
        while max_bytes is not None and self._size() > max_bytes:
            # Payload bytes stand in for the pages a row frees; the
            # loop re-measures after each VACUUM until the file fits.
            excess, oldest = self._size() - max_bytes, None
            for stamp, rowid, length in self._db(create=True).execute(
                    "SELECT last_used, rowid, LENGTH(payload) FROM spills "
                    "ORDER BY last_used, rowid").fetchall():
                oldest, excess = (stamp, rowid), excess - length
                if excess <= 0:
                    break
            if oldest is None:
                break
            delete("(last_used, rowid) <= (?, ?)", oldest)
        kept = dict(self.info())
        report = {"kept": sum(entries for entries, _ in kept.values()),
                  "dropped": sum(dropped.values()),
                  "bytes_before": bytes_before, "bytes_after": self._size(),
                  "stages": {stage: (kept.get(stage, (0,))[0],
                                     dropped.get(stage, 0))
                             for stage in sorted(set(kept) | set(dropped))}}

        def record(db):
            db.execute("INSERT INTO compactions VALUES (?, ?, ?, ?, ?, ?)",
                       (time.time(), report["kept"], report["dropped"],
                        bytes_before, report["bytes_after"],
                        json.dumps(report["stages"], sort_keys=True)))
            db.execute("DELETE FROM compactions WHERE rowid NOT IN "
                       "(SELECT rowid FROM compactions ORDER BY rowid "
                       "DESC LIMIT %d)" % COMPACTION_HISTORY_LIMIT)

        self._write(record)
        return report

    def info(self):
        """Per-stage (entries, payload bytes) of the on-disk store."""
        return {stage: (entries, size) for stage, entries, size
                in self._read(lambda db: db.execute(
                    "SELECT stage, SUM(entries), SUM(LENGTH(payload)) "
                    "FROM spills GROUP BY stage ORDER BY stage")
                    .fetchall(), [])}

    def clear(self):
        """Delete the store file and its journal; returns the number of
        entries the store held.  A live session re-persists its cache
        on its next flush."""
        removed = sum(entries for entries, _ in self.info().values())
        self._forget_disk()
        for suffix in ("", "-journal"):
            with contextlib.suppress(OSError):
                os.unlink(self.path + suffix)
        return removed

    def __repr__(self):
        return "CacheStore(root=%r, bytes=%d)" % (self.root, self._size())
