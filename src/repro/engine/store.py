"""Content-addressed persistent spill store for :class:`EvalCache`.

The in-memory :class:`~repro.engine.cache.EvalCache` keys its persisted
stage dicts by *content fingerprints* (the library's signature, the
BSB's structural DFG hash, the allocation counts, the architecture
knobs), so its keys mean the same thing in every process.  A
:class:`CacheStore` gives those entries a durable second life: the
stage dicts are spilled as they are to pickle shards under a
``--cache-dir``, and a fresh session merges them back into its own
dicts — so sweeps survive restarts and a store directory can be shared
across machines.  Nothing is translated in either direction.

Every persisted key starts with its *owner*: one BSB fingerprint, or
the fingerprint tuple of a BSB array.  :meth:`CacheStore.hydrate`
installs an entry once every BSB its owner names is registered (via
:meth:`CacheStore.register`), so a session loads only the entries of
the programs it adopted, incrementally as applications are loaded.
The process-local stages (``intervals``, ``sched_inputs``,
``urgency``, ``tables``, plus the cheap ``bounds`` and ``energies``)
are never persisted.  Unreadable or truncated shards — a crashed
writer, a corrupted disk — are treated as empty and rewritten on the
next flush, never raised to the caller.

Beyond the stage memos, the store also persists **compiled programs**
(the ``programs`` shard): neutral, uid-free documents of a frontend
compile keyed by :func:`program_fingerprint` (source identity +
library/technology fingerprints).  A warm session hydrates the program
itself — uids re-assigned on load, fingerprints preserved — so the one
stage the cost shards cannot cover, the frontend compile, goes warm
too.  Fingerprints are *re-verified at flush time*: a registered
library or BSB mutated after registration raises
:class:`~repro.errors.StoreIntegrityError` instead of silently
persisting entries under its stale hash.

**Trust boundary**: shards are Python pickles, and unpickling executes
code the pickle names.  Only open a ``cache_dir`` you (and everyone
able to write to it) trust — sharing a store across machines means
sharing it across *mutually trusting* machines, exactly like sharing a
build cache.  Never point a session at a store directory of unknown
provenance.
"""

import contextlib
import itertools
import os
import pickle
import tempfile
import time

from repro.engine.cache import (  # noqa: F401  (re-exported)
    bsb_fingerprint,
    content_fingerprint,
    digest,
    fingerprint,
    library_fingerprint,
    technology_fingerprint,
)
from repro.errors import StoreIntegrityError

#: Bumped whenever fingerprinting or shard layout changes shape; shards
#: written by other versions are ignored (and replaced on flush).
#: v2: evaluations grew an ``energy`` field and the fingerprints cover
#: the energy-model knobs (per-resource energy, per-gate-cycle and
#: per-processor-cycle energies).
#: v3: shards hold the cache's own content keys: owner first, processor
#: fingerprints, overhead models by value, partitions keyed by the BSB
#: array plus a digest of its cost content.
STORE_VERSION = 3

#: The EvalCache stages persisted to shards.
PERSISTED_STAGES = ("ops", "capable", "sched", "sw_times", "furo", "eca",
                    "restrictions", "cost_plans", "costs", "allocs",
                    "evals", "partitions")

#: The compiled-program shard: fingerprint -> neutral program document
#: (see :func:`repro.io.serialize.program_to_dict`).  Not an EvalCache
#: stage — programs hydrate into the Session's program memo, not the
#: cache — but it shares the shard machinery, versioning, LRU stamps
#: and corruption story of the stage shards.
PROGRAMS_STAGE = "programs"

#: Every shard kind this store version owns (inspection/compaction
#: walk these).
ALL_SHARD_KINDS = PERSISTED_STAGES + (PROGRAMS_STAGE,)

#: Most recent compact() events the history meta file retains.
COMPACTION_HISTORY_LIMIT = 32


def program_fingerprint(name, source, inputs, library):
    """Content hash of a compiled program's identity.

    Covers everything the frontend compile consumes — the application
    name, the source text and the profiling inputs — plus the
    library/technology fingerprint of the session that will use the
    program, so a hydrated program is only ever paired with the stage
    entries of the library generation it was compiled alongside.
    """
    return digest(("program", name, source,
                    tuple(sorted((inputs or {}).items())),
                    library_fingerprint(library)))


class CacheStore:
    """A content-addressed on-disk mirror of an :class:`EvalCache`.

    Usage (what :class:`~repro.engine.session.Session` does)::

        store = CacheStore(cache_dir)
        store.register(library=library)
        store.register(bsbs=program.bsbs)
        store.hydrate(cache)       # after each registration
        ...                        # run the pipeline
        store.flush(cache)         # spill new entries to disk

    The store never *computes* anything: it merges the live cache's
    stage dicts with the shards, in both directions.
    """

    def __init__(self, root):
        # The directory is created lazily on first write: a read-only
        # inspection of a mistyped path must not conjure an empty store
        # into existence (it would mask the typo for later runs too).
        self.root = os.fspath(root)
        # id -> (object, fingerprint at registration).  The strong
        # reference keeps the id from being recycled and lets flush()
        # re-verify each fingerprint — mutation after registration
        # fails loudly (StoreIntegrityError) instead of persisting
        # entries under a hash that no longer describes the object.
        self._registered = {}
        # Fingerprints of the registered BSBs: the owners whose shard
        # entries hydrate() may install.
        self._owned = set()
        # Stage -> {owner: {key: value}}, loaded from disk on first
        # use; an owner's entries leave as they hydrate, so each
        # installs exactly once and no second copy stays resident.
        self._pending = {}
        # Stage -> cache entry count known to be disk-backed already.
        # Cache stage dicts are add-only memos, so an unchanged length
        # since the last sync means there is nothing new to spill and
        # the (comparatively expensive) shard rewrite can be skipped.
        self._clean_counts = {}
        # Stage -> number of cache items export_delta already examined
        # (add-only dicts keep insertion order, so the unexamined
        # entries are a suffix), and stage -> the (start, stop) index
        # spans hydrate installed since: disk-born, never shipped back.
        self._export_counts = {}
        self._hydrated_spans = {}
        # Stage -> {key: value} absorbed from worker deltas; written
        # out (then dropped) by the next flush.
        self._absorbed = {}
        # Engine label -> [raw bytes, compressed bytes, frames] of
        # store deltas absorbed from remote engines since the last
        # flush; merged into a persisted meta file (the LRU-stamp
        # pattern) so ``cache info`` can report compression stats for
        # a store no service is currently holding open.
        self._delta_stats_pending = {}
        # Compiled programs: fingerprint -> neutral document.  New
        # (this-process) entries accumulate in _programs_new — add-only,
        # so clean/export counts work the same suffix trick the stage
        # dicts use; the disk view loads lazily and is dropped whenever
        # a flush changes it.
        self._programs_new = {}
        self._programs_disk = None
        self._programs_clean_count = 0
        self._programs_export_count = 0
        # Stage -> keys *used* (hydrated into a live cache) since the
        # last stamp write; the LRU side of compaction.  A warm run
        # that computes nothing still refreshes these, so
        # recently-replayed entries survive a compact.
        self._touched = {}
        # Stage -> keys a compact() evicted while they were (possibly)
        # still held by a live session cache.  flush() writes the
        # *whole* cache per dirty stage, so without this set a
        # non-quiescent session would simply write every victim
        # straight back.  Evicted keys are skipped at flush time; a
        # worker delta that recomputes one un-evicts it (that is new
        # work arriving, not a resurrection).
        self._evicted = {}
        # Monotonic timestamp of the last flush() attempt, for the
        # rate-limited maybe_flush() the exploration service uses.
        self._last_flush = None

    # ------------------------------------------------------------------
    # Registration: teach the store which objects are in play
    # ------------------------------------------------------------------
    def register(self, bsbs=None, library=None):
        """Register live objects; returns True when a BSB was new.

        A new BSB is what can make further shard entries installable,
        so callers hydrate after a True return.
        """
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

        Libraries, technologies and BSBs are immutable-by-contract once
        registered: the cache keys (and so the store) carry their
        registration-time hashes, so an object mutated afterwards would
        ship data keyed by content it no longer has.  Every flush calls
        this first and raises :class:`StoreIntegrityError` — refusing
        to write — when any fingerprint no longer matches.
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
    # Shard I/O
    # ------------------------------------------------------------------
    def _shard_path(self, stage):
        return os.path.join(self.root,
                            "%s.v%d.pkl" % (stage, STORE_VERSION))

    def _load_shard(self, stage):
        """The on-disk entry dict of one stage; {} on any damage.

        Partial writes never happen through :meth:`_write_shard` (it
        replaces atomically), but a crashed writer using another tool,
        a truncated copy or plain disk corruption must not poison the
        session — a shard that fails to unpickle is simply empty.
        """
        try:
            with open(self._shard_path(stage), "rb") as handle:
                data = pickle.load(handle)
        except FileNotFoundError:
            return {}
        except Exception:
            return {}
        return data if isinstance(data, dict) else {}

    def _write_shard(self, stage, entries):
        """Atomically replace one stage shard (write-temp + rename)."""
        directory = self.root
        os.makedirs(directory, exist_ok=True)
        descriptor, temp_path = tempfile.mkstemp(
            prefix=".%s." % stage, suffix=".tmp", dir=directory)
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(entries, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, self._shard_path(stage))
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    #: Fallback scheme only: how old an ``O_EXCL`` lock file must be
    #: before it counts as the debris of a crashed writer.  Generous on
    #: purpose — breaking a *live* writer's lock would cause the very
    #: lost-update the lock exists to prevent.
    _LOCK_TIMEOUT_SECONDS = 60.0

    @contextlib.contextmanager
    def _flush_lock(self):
        """Serialise flushers sharing one store directory.

        The flush is a read-merge-replace; without mutual exclusion two
        racing processes would each merge only their own entries into
        the same base and the second rename would drop the first
        writer's additions.  Where the platform has ``fcntl`` (every
        POSIX target) an advisory ``flock`` on a lock file is used: the
        kernel releases it when the holder dies, so there is no
        staleness to misjudge and a slow flush can never be evicted
        mid-write.  Elsewhere, an ``O_EXCL`` lock file with an
        mtime-age staleness break (stolen via an atomic rename, so at
        most one waiter ever breaks a given lock) stands in.
        """
        os.makedirs(self.root, exist_ok=True)
        path = os.path.join(self.root, ".flush.lock")
        try:
            import fcntl
        except ImportError:
            fcntl = None
        if fcntl is not None:
            descriptor = os.open(path, os.O_CREAT | os.O_WRONLY)
            try:
                fcntl.flock(descriptor, fcntl.LOCK_EX)
                yield
            finally:
                fcntl.flock(descriptor, fcntl.LOCK_UN)
                os.close(descriptor)
            return
        token = ("%d.%d" % (os.getpid(), time.monotonic_ns())).encode()
        while True:
            try:
                descriptor = os.open(path,
                                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(descriptor, token)
                os.close(descriptor)
                break
            except FileExistsError:
                try:
                    age = time.time() - os.path.getmtime(path)
                except OSError:
                    continue  # holder just released it; retry at once
                if age > self._LOCK_TIMEOUT_SECONDS:
                    stolen = path + ".stale"
                    try:  # atomic steal: only one breaker can win this
                        os.replace(path, stolen)
                        os.unlink(stolen)
                    except OSError:
                        pass
                    continue
                time.sleep(0.02)
        try:
            yield
        finally:
            # Unlink only a lock this process still owns: if a waiter
            # judged us stale and stole the lock, the file now belongs
            # to a successor and deleting it would admit a third
            # flusher alongside them.
            try:
                with open(path, "rb") as handle:
                    owned = handle.read() == token
            except OSError:
                owned = False
            if owned:
                try:
                    os.unlink(path)
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # Hydrate: disk -> live cache
    # ------------------------------------------------------------------
    def _pending_entries(self, stage):
        """The not-yet-installed shard entries of one stage, by owner."""
        groups = self._pending.get(stage)
        if groups is None:
            groups = self._pending[stage] = {}
            for key, value in self._load_shard(stage).items():
                owner = key[0] if isinstance(key, tuple) and key else None
                groups.setdefault(owner, {})[key] = value
        return groups

    def _owns(self, owner):
        """True when every BSB a key owner names is registered."""
        if isinstance(owner, str):
            return owner in self._owned
        return isinstance(owner, tuple) and all(
            part in self._owned for part in owner)

    def hydrate(self, cache):
        """Merge the shard entries of every registered program into
        ``cache``; returns the number of entries installed.

        Entries whose owner is not (yet) registered stay pending for a
        later call; entries the cache already holds are left alone — a
        live value always wins over a loaded one, so object identities
        established this run stay stable.
        """
        installed = 0
        for stage in PERSISTED_STAGES:
            pending = self._pending_entries(stage)
            ready = [owner for owner in pending if self._owns(owner)]
            if not ready:
                continue
            target = getattr(cache, stage)
            start = len(target)
            touched = self._touched.setdefault(stage, set())
            for owner in ready:
                for key, value in pending.pop(owner).items():
                    if key not in target:
                        target[key] = value
                        touched.add(key)
            grown = len(target) - start
            if grown:
                installed += grown
                self._clean_counts[stage] = \
                    self._clean_counts.get(stage, 0) + grown
                self._hydrated_spans.setdefault(stage, []).append(
                    (start, len(target)))
        return installed

    # ------------------------------------------------------------------
    # Compiled programs: disk <-> session program memo
    # ------------------------------------------------------------------
    def _programs_on_disk(self):
        if self._programs_disk is None:
            self._programs_disk = self._load_shard(PROGRAMS_STAGE)
        return self._programs_disk

    def load_program(self, fingerprint):
        """The stored program document under ``fingerprint``, or None.

        Entries put (or absorbed) this process are preferred over the
        disk view; a hit refreshes the entry's LRU stamp at the next
        flush, so warm sessions keep their programs alive through
        compaction exactly like replayed stage entries.
        """
        payload = self._programs_new.get(fingerprint)
        if payload is None:
            payload = self._programs_on_disk().get(fingerprint)
        if payload is not None:
            self._touched.setdefault(PROGRAMS_STAGE, set()).add(
                fingerprint)
        return payload

    def put_program(self, fingerprint, payload):
        """Queue one compiled-program document for the next flush."""
        if fingerprint not in self._programs_new:
            self._programs_new[fingerprint] = payload

    # ------------------------------------------------------------------
    # Worker deltas: live cache -> parent process
    # ------------------------------------------------------------------
    def export_delta(self, cache):
        """The cache entries computed since the last export.

        Pool workers cannot be relied on to write the store themselves
        (their last flush would race the pool teardown, and per-chunk
        shard rewrites are quadratic), so instead each worker ships its
        *new* entries back with its results and the parent merges them
        via :meth:`absorb_delta` — one writer, one final flush, nothing
        lost.  Cache keys are content keys, so the entries travel as
        they are.  Stage dicts are add-only and keep insertion order:
        the new entries are the suffix past the last export, minus the
        spans hydrate installed from disk.
        """
        delta = {}
        for stage in PERSISTED_STAGES:
            source = getattr(cache, stage)
            start = self._export_counts.get(stage, 0)
            self._export_counts[stage] = len(source)
            fresh = {}
            for low, high in self._hydrated_spans.pop(stage, []) + \
                    [(len(source), None)]:
                fresh.update(itertools.islice(source.items(), start, low))
                start = high
            if fresh:
                delta[stage] = fresh
        # Programs a worker compiled travel back too; the suffix
        # pointer is all the bookkeeping the export needs.
        if len(self._programs_new) > self._programs_export_count:
            fresh = dict(itertools.islice(
                iter(self._programs_new.items()),
                self._programs_export_count, None))
            self._programs_export_count = len(self._programs_new)
            if fresh:
                delta[PROGRAMS_STAGE] = fresh
        return delta

    def absorb_delta(self, delta):
        """Queue a worker's exported entries for the next flush."""
        absorbed = 0
        for stage, entries in delta.items():
            if not entries:
                continue
            if stage == PROGRAMS_STAGE:
                for fingerprint_key, payload in entries.items():
                    if fingerprint_key not in self._programs_new:
                        self._programs_new[fingerprint_key] = payload
                        absorbed += 1
                continue
            if stage not in PERSISTED_STAGES:
                continue
            self._absorbed.setdefault(stage, {}).update(entries)
            absorbed += len(entries)
        return absorbed

    # ------------------------------------------------------------------
    # Flush: live cache -> disk
    # ------------------------------------------------------------------
    def flush(self, cache):
        """Spill the cache's stage dicts, merging with the disk.

        Flushers sharing one ``--cache-dir`` (the parent plus the pool
        workers of a sweep or exhaustive search) are serialised by
        :meth:`_flush_lock`; each one re-reads a shard, merges its own
        new entries and atomically replaces the file, so no writer's
        additions are ever lost.  Returns the number of entries
        written overall.
        """
        self._last_flush = time.monotonic()
        if not self._needs_flush(cache):
            # Nothing to spill, but a warm run still refreshed entry
            # stamps — persist them or the LRU would see replayed
            # entries as stale and compact them away.  (No fingerprint
            # re-verification here: stamps reference keys an earlier,
            # verified flush already wrote.)
            if self._touched:
                with self._flush_lock():
                    self._stamp_entries({})
            return 0
        # Fingerprints are only trustworthy if the fingerprinted
        # objects still have their registration-time content.  Verify
        # before writing entries — a mutated library/BSB must fail
        # loudly here, not persist entries under a hash that no longer
        # describes them.  Gated behind _needs_flush so the service's
        # rate-limited no-op flushes skip the recomputation.
        self.verify_registered()
        with self._flush_lock():
            return self._flush_locked(cache)

    def maybe_flush(self, cache, min_interval_seconds=5.0):
        """Flush unless one already ran in the last interval.

        The exploration service's single-writer loop calls this after
        every completed point: durability work happens on a time
        budget (one shard rewrite per interval at most) instead of
        once per point, while an idle service still ends up flushed —
        the loop forces a plain :meth:`flush` when a job drains.
        Returns the entries written (0 when rate-limited or clean).
        """
        if self._last_flush is not None and \
                time.monotonic() - self._last_flush < min_interval_seconds:
            return 0
        return self.flush(cache)

    def _needs_flush(self, cache):
        """True when a stage grew or a worker delta awaits writing."""
        if self._delta_stats_pending or self._absorbed:
            return True
        if len(self._programs_new) != self._programs_clean_count:
            return True
        return any(
            len(getattr(cache, stage)) != self._clean_counts.get(stage, 0)
            for stage in PERSISTED_STAGES)

    def _flush_locked(self, cache):
        written = 0
        fresh = {}  # stage -> keys this flush (re)wrote
        for stage in PERSISTED_STAGES:
            source = getattr(cache, stage)
            absorbed = self._absorbed.pop(stage, {})
            if not absorbed and \
                    len(source) == self._clean_counts.get(stage, 0):
                continue  # add-only memo, unchanged since last sync
            self._clean_counts[stage] = len(source)
            evicted = self._evicted.get(stage)
            if evicted:
                evicted.difference_update(absorbed)
                source = {key: value for key, value in source.items()
                          if key not in evicted}
            merged = self._load_shard(stage)
            merged.update(absorbed)
            merged.update(source)
            if merged:
                self._write_shard(stage, merged)
                written += len(merged)
            fresh[stage] = itertools.chain(absorbed, source)
        if len(self._programs_new) != self._programs_clean_count:
            merged = self._load_shard(PROGRAMS_STAGE)
            evicted = self._evicted.get(PROGRAMS_STAGE)
            if evicted:
                # Filter without mutating _programs_new: its suffix
                # counters depend on the dict's length and order.
                alive = {key: value for key, value
                         in self._programs_new.items()
                         if key not in evicted}
            else:
                alive = self._programs_new
            merged.update(alive)
            self._write_shard(PROGRAMS_STAGE, merged)
            written += len(merged)
            fresh[PROGRAMS_STAGE] = set(alive)
            self._programs_clean_count = len(self._programs_new)
            self._programs_disk = None  # merged view changed on disk
        if self._delta_stats_pending:
            self._write_delta_stats_locked()
        self._stamp_entries(fresh)
        return written

    # ------------------------------------------------------------------
    # Store-delta compression stats (the fabric's absorb accounting)
    # ------------------------------------------------------------------
    def _delta_stats_path(self):
        return os.path.join(self.root, "deltas.v%d.meta" % STORE_VERSION)

    def record_delta_stats(self, engine, raw_bytes, compressed_bytes,
                           frames=1):
        """Account one absorbed store-delta frame against ``engine``.

        ``raw_bytes`` is the decompressed pickle payload, the bytes the
        coordinator would have received without wire compression;
        ``compressed_bytes`` is what actually travelled.  Buffered in
        memory and merged into the on-disk meta file at the next flush.
        """
        entry = self._delta_stats_pending.setdefault(
            str(engine), [0, 0, 0])
        entry[0] += int(raw_bytes)
        entry[1] += int(compressed_bytes)
        entry[2] += int(frames)

    def _load_delta_stats(self):
        """{engine: [raw, compressed, frames]} from disk; {} on damage."""
        try:
            with open(self._delta_stats_path(), "rb") as handle:
                data = pickle.load(handle)
        except Exception:
            return {}
        return data if isinstance(data, dict) else {}

    def _write_delta_stats_locked(self):
        """Merge pending stats into the meta file; caller holds the
        flush lock (read-merge-replace, like the LRU stamps)."""
        merged = self._load_delta_stats()
        for engine, (raw, compressed, frames) in \
                self._delta_stats_pending.items():
            entry = merged.setdefault(engine, [0, 0, 0])
            entry[0] += raw
            entry[1] += compressed
            entry[2] += frames
        self._delta_stats_pending = {}
        os.makedirs(self.root, exist_ok=True)
        descriptor, temp_path = tempfile.mkstemp(
            prefix=".deltas.", suffix=".tmp", dir=self.root)
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(merged, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, self._delta_stats_path())
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def delta_stats(self):
        """Per-engine store-delta compression stats, disk plus pending.

        Returns ``{engine: {"raw_bytes", "compressed_bytes",
        "frames"}}`` — empty for a store no fabric coordinator ever
        absorbed remote deltas into.
        """
        merged = {engine: list(entry) for engine, entry
                  in self._load_delta_stats().items()}
        for engine, (raw, compressed, frames) in \
                self._delta_stats_pending.items():
            entry = merged.setdefault(engine, [0, 0, 0])
            entry[0] += raw
            entry[1] += compressed
            entry[2] += frames
        return {engine: {"raw_bytes": entry[0],
                         "compressed_bytes": entry[1],
                         "frames": entry[2]}
                for engine, entry in sorted(merged.items())}

    # ------------------------------------------------------------------
    # Compaction history: what each compact() pass kept and dropped
    # ------------------------------------------------------------------
    def _compactions_path(self):
        return os.path.join(self.root,
                            "compactions.v%d.meta" % STORE_VERSION)

    def _record_compaction_locked(self, report):
        """Append one compact() report to the bounded history file.

        The caller holds the flush lock.  Events carry the compact
        report plus a wall-clock stamp; the file keeps the most recent
        :data:`COMPACTION_HISTORY_LIMIT` events (oldest dropped), so
        the history can never outgrow the store it describes.
        """
        history = self.compaction_history()
        event = dict(report)
        event["time"] = time.time()
        history.append(event)
        history = history[-COMPACTION_HISTORY_LIMIT:]
        os.makedirs(self.root, exist_ok=True)
        descriptor, temp_path = tempfile.mkstemp(
            prefix=".compactions.", suffix=".tmp", dir=self.root)
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(history, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, self._compactions_path())
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def compaction_history(self):
        """Recent compact() events, oldest first; [] on damage/absence.

        Each event is the compact report (``kept``/``dropped``/
        ``bytes_before``/``bytes_after``/``stages``) plus ``time``, the
        unix stamp of the pass — the raw material of ``cache info`` and
        the HTML report's store-analytics section.
        """
        try:
            with open(self._compactions_path(), "rb") as handle:
                data = pickle.load(handle)
        except Exception:
            return []
        return list(data) if isinstance(data, list) else []

    # ------------------------------------------------------------------
    # LRU stamps: when was each shard entry last written or replayed
    # ------------------------------------------------------------------
    def _lru_path(self):
        return os.path.join(self.root, "lru.v%d.meta" % STORE_VERSION)

    def _load_lru(self):
        """{stage: {key: last-used unix time}}; {} on damage."""
        try:
            with open(self._lru_path(), "rb") as handle:
                data = pickle.load(handle)
        except Exception:
            return {}
        return data if isinstance(data, dict) else {}

    def _write_lru(self, stamps):
        """Atomically replace the stamp file (write-temp + rename)."""
        os.makedirs(self.root, exist_ok=True)
        descriptor, temp_path = tempfile.mkstemp(
            prefix=".lru.", suffix=".tmp", dir=self.root)
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(stamps, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, self._lru_path())
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def _stamp_entries(self, fresh_by_stage):
        """Refresh last-used stamps; the caller holds the flush lock.

        ``fresh_by_stage`` holds the keys a flush just wrote
        (live cache entries *are* in use); the buffered ``_touched``
        keys — entries a hydrate replayed into a cache — join them.
        Untouched disk entries keep their old stamps, which is what
        makes :meth:`compact` an LRU.
        """
        now = time.time()
        stamps = None
        for source in (self._touched, fresh_by_stage):
            for stage, keys in source.items():
                if not keys:
                    continue
                if stamps is None:
                    stamps = self._load_lru()
                bucket = stamps.setdefault(stage, {})
                for key in keys:
                    bucket[key] = now
        self._touched = {}
        if stamps is not None:
            self._write_lru(stamps)

    # ------------------------------------------------------------------
    # Inspection / maintenance (the CLI's ``cache`` subcommand)
    # ------------------------------------------------------------------
    def compact(self, max_bytes=None, max_age_seconds=None):
        """Drop expired / least-recently-used entries from the shards.

        ``max_age_seconds`` evicts every entry whose last-used stamp is
        older than that; ``max_bytes`` then evicts oldest-first until
        the store's estimated payload fits the budget (per-entry
        pickled sizes — the shard files land at or slightly under the
        estimate, since pickling a whole dict shares structure).
        Entries with no stamp (stores written before LRU stamping)
        count as oldest, so they are the first victims.

        Serialised against concurrent flushers by the same lock the
        flush path takes, so compaction racing a flush resolves to one
        of the two orders — never a corrupt shard.  Intended for
        quiescent stores (the CLI's ``cache compact``): a *live*
        session still holding dropped entries in memory will write
        them back on its next flush.

        Returns a report dict: ``kept``/``dropped`` entry counts,
        ``bytes_before``/``bytes_after`` (actual shard file sizes) and
        per-stage ``stages: {stage: (kept, dropped)}``.
        """
        if max_bytes is None and max_age_seconds is None:
            from repro.errors import ReproError

            raise ReproError("compact() needs max_bytes and/or "
                             "max_age_seconds")
        empty = {"kept": 0, "dropped": 0, "bytes_before": 0,
                 "bytes_after": 0, "stages": {}}
        if not os.path.isdir(self.root):
            return empty  # never conjure a store out of a typo'd path
        with self._flush_lock():
            return self._compact_locked(max_bytes, max_age_seconds)

    def _compact_locked(self, max_bytes, max_age_seconds):
        now = time.time()
        stamps = self._load_lru()
        shards = {}
        bytes_before = 0
        for stage in ALL_SHARD_KINDS:
            try:
                bytes_before += os.path.getsize(self._shard_path(stage))
            except OSError:
                continue
            shards[stage] = self._load_shard(stage)
        # One flat (stamp, size, stage, key) list, oldest first.
        entries = []
        for stage, data in shards.items():
            bucket = stamps.get(stage, {})
            for key, value in data.items():
                size = (len(pickle.dumps(key,
                                         pickle.HIGHEST_PROTOCOL))
                        + len(pickle.dumps(value,
                                           pickle.HIGHEST_PROTOCOL)))
                entries.append((bucket.get(key, 0.0), size,
                                stage, key))
        victims = set()
        if max_age_seconds is not None:
            horizon = now - max_age_seconds
            victims.update((stage, key)
                           for stamp, _, stage, key in entries
                           if stamp <= horizon)
        if max_bytes is not None:
            entries.sort(key=lambda entry: (entry[0], entry[1]))
            total = sum(size for _, size, stage, key in entries
                        if (stage, key) not in victims)
            for stamp, size, stage, key in entries:
                if total <= max_bytes:
                    break
                if (stage, key) in victims:
                    continue
                victims.add((stage, key))
                total -= size
        stages_report = {}
        for stage, data in shards.items():
            doomed = [key for key in data if (stage, key) in victims]
            stages_report[stage] = (len(data) - len(doomed),
                                    len(doomed))
            if not doomed:
                continue
            # Remember the victims: a live session may still hold their
            # values and would otherwise re-persist them wholesale on
            # its next flush, silently undoing the compact.
            self._evicted.setdefault(stage, set()).update(doomed)
            for key in doomed:
                del data[key]
            if data:
                self._write_shard(stage, data)
            else:
                try:
                    os.unlink(self._shard_path(stage))
                except OSError:
                    pass
            # Pre-compact in-memory copies must not resurrect victims.
            self._pending.pop(stage, None)
            if stage == PROGRAMS_STAGE:
                self._programs_disk = None
        pruned = {}
        for stage, data in shards.items():
            bucket = stamps.get(stage, {})
            kept = {key: bucket[key] for key in data if key in bucket}
            if kept:
                pruned[stage] = kept
        if victims or pruned != stamps:
            self._write_lru(pruned)
        bytes_after = 0
        for stage in shards:
            try:
                bytes_after += os.path.getsize(self._shard_path(stage))
            except OSError:
                pass
        report = {
            "kept": sum(kept for kept, _ in stages_report.values()),
            "dropped": len(victims),
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
            "stages": stages_report,
        }
        self._record_compaction_locked(report)
        return report

    def info(self):
        """Per-stage (entries, bytes) of the on-disk store."""
        report = {}
        for stage in ALL_SHARD_KINDS:
            path = self._shard_path(stage)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            report[stage] = (len(self._load_shard(stage)), size)
        return report

    def clear(self):
        """Delete every shard of this store version; returns count."""
        removed = 0
        for stage in ALL_SHARD_KINDS:
            try:
                os.unlink(self._shard_path(stage))
                removed += 1
            except OSError:
                pass
        try:
            os.unlink(self._lru_path())  # stamps of nothing
        except OSError:
            pass
        try:
            os.unlink(self._delta_stats_path())  # stats of nothing
        except OSError:
            pass
        try:
            os.unlink(self._compactions_path())  # history of nothing
        except OSError:
            pass
        self._delta_stats_pending = {}
        self._pending.clear()
        self._clean_counts.clear()
        self._absorbed.clear()
        self._touched.clear()
        self._evicted.clear()  # a cleared store has nothing to protect
        self._programs_disk = None
        self._programs_clean_count = 0  # next flush re-persists them
        return removed

    def __repr__(self):
        # Counts shard *files* only — info() unpickles every shard,
        # which is far too much work (and pickle execution) for a repr.
        suffix = ".v%d.pkl" % STORE_VERSION
        try:
            shards = sum(1 for name in os.listdir(self.root)
                         if name.endswith(suffix))
        except OSError:
            shards = 0
        return "CacheStore(root=%r, shards=%d)" % (self.root, shards)
