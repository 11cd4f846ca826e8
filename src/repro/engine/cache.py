"""Session-scoped memo store for the allocate -> PACE -> evaluate pipeline.

Every experiment driver used to re-run the full compile -> schedule ->
allocate -> partition -> evaluate chain per candidate, recomputing
schedules, software times, ECA estimates, BSB cost arrays and PACE
sequence tables that depend only on a small signature of their inputs.
:class:`EvalCache` is the one store those stages share: each stage keeps
its own dict keyed by the stage's *true* inputs (the BSB, the
allocation counts the BSB can actually use, the architecture knobs the
quantity depends on), so a hit is guaranteed to return a value
bit-identical to recomputation.

Keys name their objects by **content fingerprint** (:func:`fingerprint`):
a short digest of everything the pipeline reads from a BSB, library,
technology or processor, computed once per object and memoised on it.
A key therefore means the same thing in every process, which is what
lets :class:`~repro.engine.store.CacheStore` persist the stage dicts
as they are, and structurally identical objects share entries.  Every
persisted key starts with its *owner*: one BSB fingerprint, or the
fingerprint tuple of a BSB array (:meth:`EvalCache.array_key`).

Four stages hold values that embed operation uids, BSB uids or live
objects — ``intervals``, ``sched_inputs``, ``urgency`` and ``tables``.
They stay keyed by BSB uid (or cost-object identity) and process-local:
a content key would hand one DFG's uid maps to a structurally equal
twin with different uids.  ``interned`` is process-local too: it only
gives equal cost objects one identity.

The store is deliberately dumb — plain dicts plus hit/miss accounting.
The stage logic that decides what the true inputs are lives next to
each stage (``partition/model.py``, ``partition/evaluate.py``,
``core/allocator.py`` ...), which keeps the dependency arrow pointing
from the pipeline stages to this leaf module and avoids import cycles
with :mod:`repro.engine.session` sitting on top of everything.
"""

import hashlib
import marshal

from repro.bsb.bsb import LeafBSB
from repro.hwlib.library import ResourceLibrary
from repro.hwlib.technology import Technology
from repro.swmodel.processor import Processor


# ----------------------------------------------------------------------
# Content fingerprints
# ----------------------------------------------------------------------
def digest(payload):
    """Short stable hex digest of a canonical-repr'able structure."""
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:20]


def data_digest(payload):
    """:func:`digest` of plain data (nested tuples of str, int, float
    and None), for keys built on the hot path.

    Marshal format 0 writes no object-identity references, so its bytes
    are a pure function of such a value, and it is several times
    cheaper than a repr.  A key part built from a digest hashes in
    constant time: Python caches a string's hash, never a tuple's.
    """
    return hashlib.sha256(marshal.dumps(payload, 0)).hexdigest()[:20]


def technology_fingerprint(technology):
    """Content hash of a :class:`~repro.hwlib.technology.Technology`."""
    return digest(("technology", technology.name,
                    technology.register_area, technology.and_gate_area,
                    technology.or_gate_area, technology.inverter_area,
                    technology.energy_per_gate_cycle))


def library_fingerprint(library):
    """Content hash of a resource library: every signal the pipeline
    reads from it (resources, designated units, technology)."""
    resources = tuple(
        (resource.name, tuple(sorted(op.value for op in resource.optypes)),
         resource.area, resource.latency, resource.energy)
        for resource in library.resources())
    defaults = tuple(sorted(
        (optype.value, library.resource_for(optype).name)
        for optype in library.optypes_covered()))
    return digest(("library", library.name, resources, defaults,
                    technology_fingerprint(library.technology)))


def processor_fingerprint(processor):
    """Content hash of a :class:`~repro.swmodel.processor.Processor`.

    Architectures built independently carry *equal but distinct*
    default processors (the dataclass default_factory); hashing by
    value lets evaluations under equal processors share entries.
    """
    return digest(("processor", processor.name,
                    processor.sequential_overhead,
                    processor.energy_per_cycle,
                    tuple(sorted((optype.value, cycles) for optype, cycles
                                 in processor.cycle_table.items()))))


def bsb_fingerprint(bsb):
    """Structural content hash of one leaf BSB.

    Includes the BSB name — it flows into
    :attr:`~repro.partition.model.BSBCost.name` and from there into
    reported partitions — so two structurally identical BSBs with
    different names never alias one cache entry.
    """
    return digest(("bsb", bsb.name, bsb.profile_count,
                    tuple(sorted(bsb.reads)), tuple(sorted(bsb.writes)),
                    bsb.dfg.structural_signature()))


def content_fingerprint(obj):
    """Recompute the fingerprint of a BSB, library, technology or
    processor from its current content (never memoised)."""
    if isinstance(obj, LeafBSB):
        return bsb_fingerprint(obj)
    if isinstance(obj, ResourceLibrary):
        return library_fingerprint(obj)
    if isinstance(obj, Technology):
        return technology_fingerprint(obj)
    if isinstance(obj, Processor):
        return processor_fingerprint(obj)
    raise TypeError("no content fingerprint for %r" % (obj,))


def fingerprint(obj):
    """The cache-key fingerprint of ``obj``, computed once per object.

    Memoised in the object's ``__dict__`` (which also works for the
    frozen dataclasses), so the hot key-building paths pay one dict
    lookup.  Objects are immutable-by-contract once used in a key; the
    persistent store re-verifies the ones it was registered with (see
    :meth:`~repro.engine.store.CacheStore.verify_registered`).
    """
    memo = obj.__dict__
    value = memo.get("_fingerprint")
    if value is None:
        value = memo["_fingerprint"] = content_fingerprint(obj)
    return value


class CacheStats:
    """Per-stage hit/miss counters of an :class:`EvalCache`."""

    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = {}
        self.misses = {}

    def hit(self, stage):
        self.hits[stage] = self.hits.get(stage, 0) + 1

    def miss(self, stage):
        self.misses[stage] = self.misses.get(stage, 0) + 1

    def hit_count(self, stage=None):
        if stage is not None:
            return self.hits.get(stage, 0)
        return sum(self.hits.values())

    def miss_count(self, stage=None):
        if stage is not None:
            return self.misses.get(stage, 0)
        return sum(self.misses.values())

    def hit_rate(self, stage):
        """Hits / lookups for one stage; 0.0 before any lookup."""
        lookups = self.hit_count(stage) + self.miss_count(stage)
        if not lookups:
            return 0.0
        return self.hit_count(stage) / lookups

    def stages(self):
        """Stage names seen so far, sorted."""
        return sorted(set(self.hits) | set(self.misses))

    def snapshot(self):
        """Mapping stage -> (hits, misses), for assertions and reports."""
        return {stage: (self.hit_count(stage), self.miss_count(stage))
                for stage in self.stages()}

    def merge(self, snapshot):
        """Add another accounting's ``snapshot()`` into this one.

        The batch APIs fan work out over processes whose caches never
        come back; their counters do, and merging them here is what
        keeps ``session.stats`` honest for parallel runs.
        """
        for stage, (hits, misses) in snapshot.items():
            if hits:
                self.hits[stage] = self.hits.get(stage, 0) + hits
            if misses:
                self.misses[stage] = self.misses.get(stage, 0) + misses
        return self

    @staticmethod
    def delta(before, after):
        """Per-stage (hits, misses) growth between two snapshots."""
        result = {}
        for stage, (hits, misses) in after.items():
            old_hits, old_misses = before.get(stage, (0, 0))
            grown = (hits - old_hits, misses - old_misses)
            if grown != (0, 0):
                result[stage] = grown
        return result

    def overall_hit_rate(self):
        """Hits / lookups across every stage; 0.0 before any lookup."""
        lookups = self.hit_count() + self.miss_count()
        if not lookups:
            return 0.0
        return self.hit_count() / lookups

    def summary(self):
        """One human-readable line per stage."""
        lines = []
        for stage in self.stages():
            lines.append("%-12s %6d hits  %6d misses  (%.0f%% hit rate)"
                         % (stage, self.hit_count(stage),
                            self.miss_count(stage),
                            100.0 * self.hit_rate(stage)))
        return "\n".join(lines)

    def __repr__(self):
        return "CacheStats(hits=%d, misses=%d)" % (self.hit_count(),
                                                   self.miss_count())


class EvalCache:
    """Shared memo dicts for every stage of the exploration pipeline.

    In the key descriptions, *bsb*, *library*, *technology* and
    *processor* stand for the object's :func:`fingerprint`, *array* for
    :meth:`array_key` and *arch* for the (library, processor,
    hw-cycle-ratio) triple a BSB cost depends on.

    Attributes (all plain dicts, keyed as noted):
        sched: (bsb, relevant counts, library) or (bsb, "hetero",
            relevant counts, library) -> list-schedule length.
        ops: (bsb, library) -> sorted (resource name, op count) tuple of
            the BSB's designated-resource demand.
        capable: (bsb, library) -> (capable names, per-type names) for
            module-selection mixes.
        sw_times: (bsb, processor) -> software cycles.
        costs: (bsb, allocation signature, arch) -> BSBCost.
        intervals: (bsb uid, library) -> ASAP/ALAP start intervals per
            operation uid; process-local.
        furo: (bsb, library) -> FURO value mapping.
        urgency: (bsb uids, library) -> UrgencyState; process-local.
        eca: (bsb, library, technology) -> estimated area.
        restrictions: (array, library) -> restriction RMap.
        tables: (cost object ids, comm cost) -> (SequenceTable or
            None, the cost array's content key or None, its speed-up
            bound gains or None); process-local.  Cost objects are
            interned, so one entry stands for one content.  The gains
            (:func:`~repro.partition.pace.bound_gains`) are built on the
            entry's first bound-gated probe, the content key on its
            first partition probe and the table on its first partition
            miss, so arrays whose partitions all hit hold no table, and
            arrays whose candidates the gate all settles hold neither a
            key nor a table.
        partitions: (array, digest of the architecture's cost knobs
            and each BSB's hardware time and controller area, comm
            cost, available area, quanta) -> PartitionResult —
            distinct allocations whose cost arrays and available
            controller areas coincide share one PACE DP run.
        evals: full-evaluation key -> AllocationEvaluation.
        allocs: Algorithm 1 memo used by the engine Session.
        sched_inputs: (bsb uid, library) -> (priority map, schedule
            tables) handed to the list scheduler so repeated schedules
            of one DFG skip the ALAP and unit-pool preprocessing;
            process-local.
        cost_plans: (array, library) -> the grouping of a BSB array by
            identical cost-signature functions, so one evaluation
            computes each distinct signature once instead of once per
            BSB.
        bounds: (bsb, library, capped effective counts) ->
            (schedule-length floor, controller-area floor) used by the
            branch-and-bound exhaustive search; never persisted —
            bounds are cheap to recompute and admissibility is easier
            to audit without a disk round-trip.
        energies: (array, library, processor) -> tuple of per-BSB
            (software energy, hardware energy) pairs; never persisted
            (two multiplications per BSB to rebuild) and deliberately
            outside the hit/miss accounting.
        interned: BSBCost -> the one equal BSBCost every newly
            computed cost is replaced by, so equal cost arrays are
            equal id tuples; process-local and outside the hit/miss
            accounting (the ``costs`` stage counts the lookups).
        stats: the :class:`CacheStats` counters.
    """

    _STAGES = ("sched", "ops", "capable", "sw_times", "costs",
               "intervals", "furo", "urgency", "eca", "restrictions",
               "tables", "partitions", "evals", "allocs", "sched_inputs",
               "cost_plans", "bounds", "energies", "interned")

    __slots__ = _STAGES + ("stats", "_array_keys")

    def __init__(self):
        for name in self._STAGES:
            setattr(self, name, {})
        self.stats = CacheStats()
        self._array_keys = {}

    def array_key(self, bsbs):
        """The fingerprint tuple of a BSB array, memoised per list.

        Evaluation keys embed the whole array; exhaustive searches look
        tens of thousands of keys up against the same list object, so
        the tuple is built once per list.  The memo holds the list, so
        its id cannot be recycled — callers must not mutate a BSB list
        after passing it into cached evaluations.
        """
        entry = self._array_keys.get(id(bsbs))
        if entry is None:
            entry = self._array_keys[id(bsbs)] = (
                bsbs, tuple(fingerprint(bsb) for bsb in bsbs))
        return entry[1]

    def clear(self):
        """Drop every memoised value (stats included)."""
        for name in self._STAGES:
            getattr(self, name).clear()
        self._array_keys.clear()
        self.stats = CacheStats()

    def __repr__(self):
        entries = sum(len(getattr(self, name)) for name in
                      ("sched", "ops", "capable", "sw_times", "costs",
                       "intervals", "furo", "urgency", "eca",
                       "restrictions", "tables", "partitions", "evals",
                       "allocs"))
        return "EvalCache(entries=%d, %r)" % (entries, self.stats)
