"""Engines and their roster: where the coordinator's points run.

The exploration service used to *be* its engine — one thread, one
session, one process.  This module splits that identity: an
:class:`Engine` is anything that can evaluate leased design points and
ship the results (plus cache-store deltas) back to the coordinator,
and the :class:`EngineRoster` is the placement layer deciding which
engine each scheduled unit lands on.

Two engine kinds exist:

* :class:`LocalEngine` — points evaluate in the coordinator process,
  one at a time, on its single engine thread.  A default service is
  exactly one local engine — "engine count 1" is a configuration, not
  an architecture.
* :class:`RemoteEngine` — the coordinator-side proxy of a worker
  process that joined over the wire (``serve --join``).  Its lifetime
  is its connection's lifetime: the worker leases units, evaluates
  them in its own process, and sends ``delta`` frames home; when the
  connection drops (or heartbeats stop), the engine dies and every
  unit it held is re-queued.

Placement: each unit carries an *affinity key* (the point's
``program_fingerprint``, falling back to the app name), and the roster
routes equal keys to the same live engine via rendezvous hashing — so
an engine keeps seeing the programs it has already compiled and
cached, which is what makes a second submission's remote hit rate
high.  Work stealing keeps affinity from becoming imbalance: an engine
with an empty lane may take another engine's unit once that unit has
waited :attr:`EngineRoster.steal_delay` seconds — long enough that the
fast path (the affine engine was about to get to it) wins when points
are warm, short enough that a genuinely idle engine picks up a cold
backlog.

Determinism: placement and stealing only decide *where* a point runs.
Every engine evaluates through the same pipeline, so job results stay
bit-identical to a serial evaluation no matter how the roster splits
them — the invariant every scheduler change in this repo is pinned to.

All roster state lives on the coordinator's event loop; the only
synchronisation primitive is one :class:`asyncio.Condition` shared by
placement (waiting for lane room), takes (waiting for work) and
failure handling (re-queuing a dead engine's units).
"""

import asyncio
import collections
import hashlib
import time

from repro.service.queue import PENDING, RUNNING

#: Dead engines retained in the roster for observability; beyond this
#: the oldest are forgotten, so a churny (or adversarial) stream of
#: join-and-vanish workers cannot grow the roster without bound.
DEAD_ENGINE_MEMORY = 32


def affinity_score(key, engine_id):
    """Deterministic rendezvous weight of ``key`` on ``engine_id``.

    Highest score wins.  ``hashlib`` (not ``hash()``) so placement is
    stable across processes and interpreter runs — a restarted
    coordinator routes the same programs to the same worker labels.
    """
    digest = hashlib.blake2b(
        ("%s|%s" % (key, engine_id)).encode("utf-8"),
        digest_size=8).digest()
    return int.from_bytes(digest, "big")


class _Unit:
    """One scheduled ``(job, index)`` with its placement metadata."""

    __slots__ = ("job", "index", "key", "placed_at")

    def __init__(self, job, index, key):
        self.job = job
        self.index = index
        self.key = key
        self.placed_at = time.monotonic()


class Engine:
    """Base engine: identity, capacity, lane, lease and accounting.

    Attributes:
        id: Roster-unique engine name (``local-1``, ``remote-2``...).
        slots: How many units the engine evaluates concurrently; also
            the bound on its pre-placed lane, so scheduling decisions
            stay late (at most ``slots`` units are committed to an
            engine beyond the ones it is running).
        alive: False once the engine failed/left; dead engines stay in
            the roster for observability but never receive placements.
        lane: Placed-but-not-leased units (deque of :class:`_Unit`).
        inflight: ``(job id, index) -> _Unit`` of leased units — the
            set re-queued if the engine dies, and the only units whose
            results a ``delta`` frame may deliver.
    """

    kind = "engine"

    def __init__(self, engine_id, slots=1):
        self.id = engine_id
        self.slots = max(1, int(slots))
        self.alive = True
        self.lane = collections.deque()
        self.inflight = {}
        self.points_done = 0
        self.points_stolen = 0
        self.hits = 0
        self.misses = 0
        self.deltas_absorbed = 0
        self.delta_entries = 0
        self.delta_raw_bytes = 0
        self.delta_compressed_bytes = 0
        self.last_seen = time.monotonic()

    def touch(self):
        """Refresh the liveness stamp (any activity from the engine)."""
        self.last_seen = time.monotonic()

    def hit_rate(self):
        lookups = self.hits + self.misses
        return (self.hits / lookups) if lookups else 0.0

    def record_stats(self, stats_delta):
        """Fold one unit's per-stage (hits, misses) delta in."""
        for hits, misses in (stats_delta or {}).values():
            self.hits += hits
            self.misses += misses

    def status(self):
        """The JSON-able roster document of this engine."""
        return {
            "engine": self.id,
            "kind": self.kind,
            "alive": self.alive,
            "slots": self.slots,
            "queued": len(self.lane),
            "in_flight": len(self.inflight),
            "done": self.points_done,
            "stolen": self.points_stolen,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
            "deltas_absorbed": self.deltas_absorbed,
            "delta_entries": self.delta_entries,
            "delta_raw_bytes": self.delta_raw_bytes,
            "delta_compressed_bytes": self.delta_compressed_bytes,
        }

    def __repr__(self):
        return "%s(%r, slots=%d, queued=%d, in_flight=%d)" % (
            type(self).__name__, self.id, self.slots, len(self.lane),
            len(self.inflight))


class LocalEngine(Engine):
    """An engine evaluating in the coordinator process itself."""

    kind = "local"


class RemoteEngine(Engine):
    """The coordinator-side proxy of one joined worker connection."""

    kind = "remote"

    def __init__(self, engine_id, slots=1, label=""):
        super().__init__(engine_id, slots=slots)
        self.label = label


class EngineRoster:
    """Placement and work-stealing across every engine of a service.

    The roster never evaluates anything: it moves units between the
    scheduler (the :class:`~repro.service.queue.JobQueue` policy, via
    the coordinator's dispatch loop), per-engine lanes, and per-engine
    in-flight sets — and moves them *back* when an engine dies.
    """

    def __init__(self, steal_delay=0.25):
        self.steal_delay = max(0.0, float(steal_delay))
        self.engines = {}
        self._orphans = collections.deque()  # units with no live engine
        self._condition = None               # created lazily (needs loop)

    @property
    def condition(self):
        if self._condition is None:
            self._condition = asyncio.Condition()
        return self._condition

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def live_engines(self):
        return [engine for engine in self.engines.values()
                if engine.alive]

    def unique_id(self, base):
        """A roster-unique engine id derived from ``base``."""
        if base not in self.engines:
            return base
        for suffix in range(2, len(self.engines) + 3):
            candidate = "%s-%d" % (base, suffix)
            if candidate not in self.engines:
                return candidate
        raise AssertionError("unreachable: roster ids exhausted")

    async def add(self, engine):
        """Register an engine and hand it any orphaned units."""
        async with self.condition:
            self.engines[engine.id] = engine
            while self._orphans:
                self._place_now(self._orphans.popleft())
            self.condition.notify_all()

    def choose(self, key):
        """The live engine rendezvous hashing assigns ``key`` to."""
        live = self.live_engines()
        if not live:
            return None
        return max(live,
                   key=lambda engine: affinity_score(key, engine.id))

    def _place_now(self, unit):
        """Lane the unit on its affine engine, room or not.

        The bounded-lane contract is enforced by :meth:`place` (the
        dispatch path); re-queues from a failed engine must never
        block, so they overfill — stealing drains any resulting
        imbalance.
        """
        engine = self.choose(unit.key)
        if engine is None:
            self._orphans.append(unit)
            return
        unit.placed_at = time.monotonic()
        engine.lane.append(unit)

    async def place(self, job, index, key):
        """Place one scheduled unit; blocks while the target is full.

        The affine engine is re-chosen on every wake-up, so a join, a
        death or a steal while the dispatcher waits re-routes the unit
        instead of deadlocking on a gone (or hopelessly backed-up)
        engine.
        """
        unit = _Unit(job, index, key)
        async with self.condition:
            while True:
                engine = self.choose(key)
                if engine is None:
                    self._orphans.append(unit)
                    return
                if len(engine.lane) < engine.slots:
                    unit.placed_at = time.monotonic()
                    engine.lane.append(unit)
                    self.condition.notify_all()
                    return
                await self.condition.wait()

    # ------------------------------------------------------------------
    # Taking work (local pumps and remote leases share this path)
    # ------------------------------------------------------------------
    def _pop_own(self, engine):
        while engine.lane:
            unit = engine.lane.popleft()
            if unit.job.states[unit.index] == PENDING:
                return unit
        return None

    def _pop_stolen(self, thief, now):
        """The oldest steal-eligible unit on any other live lane."""
        victim_unit = None
        victim = None
        for engine in self.engines.values():
            if engine is thief:
                continue
            # Dead engines' lanes are emptied by fail(); anything still
            # here belongs to a live engine that has not got to it yet.
            for unit in engine.lane:
                if unit.job.states[unit.index] != PENDING:
                    continue
                if engine.alive and \
                        now - unit.placed_at < self.steal_delay:
                    continue
                if victim_unit is None or \
                        unit.placed_at < victim_unit.placed_at:
                    victim_unit, victim = unit, engine
        if victim_unit is not None:
            victim.lane.remove(victim_unit)
            thief.points_stolen += 1
        return victim_unit

    def _next_steal_eligible(self, thief, now):
        """Seconds until some other lane's unit becomes stealable."""
        soonest = None
        for engine in self.engines.values():
            if engine is thief:
                continue
            for unit in engine.lane:
                if unit.job.states[unit.index] != PENDING:
                    continue
                ripe_in = self.steal_delay - (now - unit.placed_at)
                if soonest is None or ripe_in < soonest:
                    soonest = ripe_in
        return soonest

    async def take(self, engine, max_units=1, timeout=None):
        """Up to ``max_units`` units for ``engine``; may steal.

        Blocks until at least one unit is available (own lane first,
        then aged units from other lanes) or ``timeout`` elapses —
        ``None`` waits forever (the local pumps), a finite timeout is
        the long-poll budget of a remote ``lease``.  Taken units are
        marked RUNNING and tracked in ``engine.inflight``; cancelled
        units encountered along the way are silently dropped.  Returns
        a (possibly empty) list of units.
        """
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        async with self.condition:
            while True:
                if not engine.alive:
                    return []
                taken = []
                while len(taken) < max_units:
                    unit = self._pop_own(engine)
                    if unit is None:
                        unit = self._pop_stolen(engine,
                                                time.monotonic())
                    if unit is None:
                        break
                    unit.job.states[unit.index] = RUNNING
                    engine.inflight[(unit.job.id, unit.index)] = unit
                    taken.append(unit)
                if taken:
                    engine.touch()
                    # Lanes may have freed room for a blocked place().
                    self.condition.notify_all()
                    return taken
                now = time.monotonic()
                wait = None if deadline is None else deadline - now
                if wait is not None and wait <= 0:
                    return []
                ripe_in = self._next_steal_eligible(engine, now)
                if ripe_in is not None:
                    wait = ripe_in if wait is None \
                        else min(wait, ripe_in)
                if wait is not None and wait <= 0:
                    continue
                try:
                    await asyncio.wait_for(self.condition.wait(),
                                           wait)
                except asyncio.TimeoutError:
                    pass

    async def complete(self, engine, job_id, index):
        """A leased unit reached a terminal state on its engine."""
        async with self.condition:
            if engine.inflight.pop((job_id, index), None) is not None:
                engine.points_done += 1
            engine.touch()
            self.condition.notify_all()

    # ------------------------------------------------------------------
    # Failure: re-queue everything a dead engine held
    # ------------------------------------------------------------------
    async def fail(self, engine):
        """Mark the engine dead and re-queue its lane and leases.

        Laned units are still PENDING — they simply move to another
        live engine.  In-flight (leased) units are RUNNING; they are
        reset to PENDING and re-placed, except on a job that was
        cancelled meanwhile — ``cancel`` skips RUNNING points on the
        assumption they will finish, which a dead engine's never will,
        so those are marked CANCELLED here.  Returns the number of
        units re-queued.
        """
        if not engine.alive:
            return 0
        requeued = 0
        async with self.condition:
            engine.alive = False
            stranded = list(engine.lane)
            engine.lane.clear()
            leases = list(engine.inflight.values())
            engine.inflight.clear()
            self.condition.notify_all()
        for unit in stranded:
            if unit.job.states[unit.index] != PENDING:
                continue
            async with self.condition:
                self._place_now(unit)
                self.condition.notify_all()
            requeued += 1
        for unit in leases:
            if unit.job.states[unit.index] != RUNNING:
                continue  # its result arrived before the failure
            if not await unit.job.reset_to_pending(unit.index):
                continue
            if unit.job.cancelled:
                await unit.job.mark_cancelled([unit.index])
                continue
            async with self.condition:
                self._place_now(unit)
                self.condition.notify_all()
            requeued += 1
        self._forget_dead()
        return requeued

    def _forget_dead(self):
        """Bound the dead-engine memory (oldest forgotten first)."""
        dead = [engine for engine in self.engines.values()
                if not engine.alive]
        dead.sort(key=lambda engine: engine.last_seen)
        for engine in dead[:max(0, len(dead) - DEAD_ENGINE_MEMORY)]:
            del self.engines[engine.id]

    def reap_stale(self, timeout, now=None):
        """Remote engines whose last activity is older than ``timeout``.

        Returns the stale engines — the caller (the coordinator's
        reaper task) fails them and closes their connections; the
        roster itself has no connection handles.
        """
        now = time.monotonic() if now is None else now
        return [engine for engine in self.engines.values()
                if engine.alive and engine.kind == "remote"
                and now - engine.last_seen > timeout]

    def status(self):
        """Roster documents, stable order (locals first, then id)."""
        return [engine.status() for engine in
                sorted(self.engines.values(),
                       key=lambda e: (e.kind != "local", e.id))]

    def __repr__(self):
        return "EngineRoster(%d engines, %d live)" % (
            len(self.engines), len(self.live_engines()))
