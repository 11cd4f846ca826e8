"""Evaluate an allocation: build BSB costs, run PACE, report the result.

This is the paper's evaluation loop (section 5): the quality of an
allocation *is* the speed-up PACE achieves with it.  Both the heuristic
allocation and every allocation visited by the exhaustive search go
through this same function, so comparisons are consistent.

The :class:`~repro.engine.cache.EvalCache` (the engine
:class:`~repro.engine.session.Session`'s, or a fresh one) memoises at
four levels:

* whole evaluations, keyed by (BSBs, architecture, allocation, quanta);
* per-BSB cost objects (see :mod:`repro.partition.model`);
* PACE :class:`~repro.partition.pace.SequenceTable` instances, keyed by
  the identity of the cost array — allocations that differ only in
  resources no BSB can use share one table;
* PACE results, keyed by the cost array's content plus the available
  area and quanta, so such allocations also share one DP run.
"""

from dataclasses import dataclass

from repro.core.rmap import RMap
from repro.engine.cache import EvalCache, data_digest, fingerprint
from repro.errors import PartitionError
from repro.partition.model import (
    _arch_cost_key,
    _compute_bsb_cost,
    _cost_plan,
    _group_signature,
    bsb_costs,
    bsb_energy_pairs,
    partition_energy,
)
from repro.partition.pace import SequenceTable, pace_partition, \
    PartitionResult


@dataclass
class AllocationEvaluation:
    """An allocation together with its PACE partitioning outcome.

    Attributes:
        allocation: The evaluated allocation.
        datapath_area: Data-path area the allocation consumes.
        available_controller_area: Area left for controllers.
        partition: The :class:`PartitionResult` PACE produced.
        overhead_area: Interconnect/storage estimate charged (zero
            unless an overhead model was supplied).
        energy: Total energy of the partitioned implementation — each
            moved BSB priced at its hardware energy, every other at
            its software energy (see
            :func:`~repro.partition.model.partition_energy`).
        datapath_fraction: Data-path share of the ASIC area actually
            used (data-path + controllers), the paper's "Size" column.
    """

    allocation: RMap
    datapath_area: float
    available_controller_area: float
    partition: PartitionResult
    overhead_area: float = 0.0
    energy: float = 0.0

    @property
    def speedup(self):
        return self.partition.speedup

    @property
    def datapath_fraction(self):
        used = self.datapath_area + self.partition.controller_area_used
        if used <= 0:
            return 0.0
        return self.datapath_area / used


def _evaluation_key(bsbs, allocation, architecture, area_quanta,
                    overhead_model, cache):
    return (cache.array_key(bsbs),
            fingerprint(architecture.library),
            fingerprint(architecture.processor),
            architecture.total_area,
            architecture.comm_cycles_per_word,
            architecture.hw_cycle_ratio,
            allocation,
            area_quanta,
            overhead_model)


def _partition(costs, content, architecture, available, area_quanta,
               cache, remember):
    """PACE result of one cost array, through the table and DP memos.

    Tables are keyed by cost-object identity (cost objects are
    memoised, hence live as long as the cache).  A PartitionResult
    depends on nothing but the cost array's ``content`` (see
    :class:`~repro.partition.model.CostArray`), the communication
    cost, the available area and the quanta, so allocations that differ
    only in resources no BSB uses while their data-path areas coincide
    share one DP run.  Each table keeps its array's content as (array
    fingerprints, digest of the rest): one short string per key instead
    of a nested signature tuple per cost group, both in memory and on
    disk.
    """
    comm = architecture.comm_cycles_per_word
    table_key = (tuple(map(id, costs)), comm)
    entry = cache.tables.get(table_key)
    if entry is None:
        cache.stats.miss("table")
        entry = cache.tables[table_key] = (
            SequenceTable(costs, architecture),
            (content[0], data_digest(content[1:])))
    else:
        cache.stats.hit("table")
    sequence_table, content_key = entry
    partition_key = content_key + (comm, available, area_quanta)
    partition = cache.partitions.get(partition_key)
    if partition is not None:
        cache.stats.hit("partition")
        return partition
    cache.stats.miss("partition")
    partition = pace_partition(costs, architecture, available,
                               area_quanta=area_quanta,
                               sequence_table=sequence_table)
    if remember:
        cache.partitions[partition_key] = partition
    return partition


def evaluate_allocation(bsbs, allocation, architecture, area_quanta=400,
                        cache=None, overhead_model=None,
                        remember=True):
    """Partition ``bsbs`` under ``allocation`` and return the evaluation.

    Args:
        bsbs: The application's leaf-BSB array.
        allocation: Data-path allocation (RMap or dict).
        architecture: The target architecture (defines the total area).
        area_quanta: Resolution of PACE's area axis.
        cache: The :class:`~repro.engine.cache.EvalCache` shared across
            evaluations (cost arrays, PACE sequence tables and results,
            whole evaluations); a fresh one when omitted.
        overhead_model: Optional
            :class:`~repro.hwlib.overheads.OverheadModel`: charges the
            interconnect/storage estimate of the future-work extension
            against the area left for controllers.
        remember: Store the whole evaluation (and its PACE result) in
            the cache.  Enumeration-style searches that visit each
            allocation exactly once pass ``False`` so the memo does not
            grow by one entry per candidate for ~zero hits; the
            schedule/cost/table collapsing — where the actual reuse is
            — still applies, and lookups still hit entries remembered
            by other callers.  The intermediate value ``"partitions"``
            remembers PACE results but not whole evaluations: what a
            search backed by a persistent store wants, since the DP
            runs are exactly what a warm restart can skip.

    Note on resolutions: ``area_quanta`` defaults differ deliberately
    across entry points — 400 here (one-off evaluations favour
    fidelity), 200 in :func:`~repro.core.exhaustive
    .exhaustive_best_allocation` and 150 in the engine's
    :class:`~repro.engine.design_point.DesignPoint` (searches trade
    resolution for throughput over many candidates).  Results are only
    comparable across calls made at one resolution.
    """
    if cache is None:
        cache = EvalCache()
    allocation = RMap._coerce(allocation)
    key = _evaluation_key(bsbs, allocation, architecture, area_quanta,
                          overhead_model, cache)
    evaluation = cache.evals.get(key)
    if evaluation is not None:
        cache.stats.hit("eval")
        return evaluation
    cache.stats.miss("eval")

    datapath_area = allocation.area(architecture.library)
    if datapath_area > architecture.total_area:
        raise PartitionError(
            "allocation area %.1f exceeds total ASIC area %.1f"
            % (datapath_area, architecture.total_area))
    overhead_area = 0.0
    if overhead_model is not None:
        from repro.hwlib.overheads import total_overhead_area

        overhead_area = total_overhead_area(
            allocation, bsbs, architecture.library, model=overhead_model)
    # Overheads may leave no controller room at all — that is a valid
    # (terrible) design point, not an error: PACE then moves nothing.
    available = architecture.total_area - datapath_area - overhead_area
    costs = bsb_costs(bsbs, allocation, architecture, cache=cache)
    partition = _partition(costs, costs.content, architecture, available,
                           area_quanta, cache, remember)
    evaluation = AllocationEvaluation(
        allocation=allocation,
        datapath_area=datapath_area,
        available_controller_area=available,
        partition=partition,
        overhead_area=overhead_area,
        energy=partition_energy(
            bsb_energy_pairs(bsbs, architecture, cache=cache),
            partition.hw_sequences),
    )
    if remember is True:
        cache.evals[key] = evaluation
    return evaluation


class EvaluationScan:
    """Neighbour-aware evaluator for enumeration-order candidate scans.

    :func:`evaluate_allocation` rebuilds every stage key and probes
    every memo from scratch per candidate; on a warm scan that
    key-building dominates the wall clock.  Consecutive candidates of a
    lexicographic (or branch-and-bound) scan differ in a handful of
    resource counts, so a scan-scoped evaluator can *diff* the
    allocation against the previous candidate and carry the unchanged
    cost groups — signatures, cost objects and thereby the sequence
    table identity — forward without touching their memos.

    The results are bit-identical to :func:`evaluate_allocation` with
    the same cache: a cost group whose relevant counts did not change
    has, by construction, the same signature, hence the same memo key,
    hence the same (memoised, hence identical) cost object a fresh
    probe would return.  The hit/miss accounting matches too — the cost
    memo stores unconditionally, so a carried group's probe would have
    been a hit.

    One scan instance serves one (BSB array, architecture, quanta)
    triple; ``overhead_model`` evaluations are out of scope (the
    searches this serves never charge overheads).
    """

    __slots__ = ("_bsbs", "_architecture", "_area_quanta", "_cache",
                 "_remember", "_members", "_groups", "_deps", "_arch_key",
                 "_key_prefix", "_array_key", "_prev", "_signatures",
                 "_costs")

    def __init__(self, bsbs, architecture, area_quanta=400, cache=None,
                 remember=False):
        if cache is None:
            cache = EvalCache()
        self._bsbs = bsbs
        self._architecture = architecture
        self._area_quanta = area_quanta
        self._cache = cache
        self._remember = remember
        members, group_list = _cost_plan(bsbs, architecture.library, cache)
        self._members = members
        self._groups = group_list
        # Per group, the resource names its signature can depend on:
        # designated demand plus every module-selection-capable unit.
        # A candidate step that changes none of these counts provably
        # leaves the group's signature (and cost objects) unchanged.
        deps = []
        for identity in group_list:
            if identity is None:
                deps.append(())
            else:
                ops, capable, _ = identity
                deps.append(tuple(sorted(
                    {name for name, _ in ops} | set(capable))))
        self._deps = deps
        self._arch_key = _arch_cost_key(architecture)
        self._key_prefix = _evaluation_key(bsbs, None, architecture, None,
                                           None, cache)[:6]
        self._array_key = cache.array_key(bsbs)
        self._prev = None
        self._signatures = [None] * len(group_list)
        self._costs = [None] * len(bsbs)

    def evaluate(self, allocation):
        """Evaluate one candidate; same contract as
        :func:`evaluate_allocation` (including the
        :class:`PartitionError` on an allocation over the ASIC area and
        the per-stage hit/miss accounting)."""
        allocation = RMap._coerce(allocation)
        cache = self._cache
        architecture = self._architecture
        key = self._key_prefix + (allocation, self._area_quanta, None)
        evaluation = cache.evals.get(key)
        if evaluation is not None:
            # Early return leaves the carried state pointing at the
            # last *computed* candidate, which is exactly what the next
            # diff must compare against.
            cache.stats.hit("eval")
            return evaluation
        cache.stats.miss("eval")
        datapath_area = allocation.area(architecture.library)
        if datapath_area > architecture.total_area:
            raise PartitionError(
                "allocation area %.1f exceeds total ASIC area %.1f"
                % (datapath_area, architecture.total_area))
        available = architecture.total_area - datapath_area
        costs = self._costs_for(allocation)
        # The content key bsb_costs would attach to the same array.
        content = (self._array_key, self._arch_key,
                   tuple(self._signatures))
        partition = _partition(costs, content, architecture, available,
                               self._area_quanta, cache, self._remember)
        evaluation = AllocationEvaluation(
            allocation=allocation,
            datapath_area=datapath_area,
            available_controller_area=available,
            partition=partition,
            energy=partition_energy(
                bsb_energy_pairs(self._bsbs, architecture, cache=cache),
                partition.hw_sequences),
        )
        if self._remember is True:
            cache.evals[key] = evaluation
        return evaluation

    def _costs_for(self, allocation):
        """The candidate's cost array, diffed against the previous one.

        Mirrors :func:`~repro.partition.model.bsb_costs`, but only
        re-keys the groups whose dependency counts changed.
        """
        cache = self._cache
        prev = self._prev
        get = allocation.get
        signatures = self._signatures
        if prev is None:
            changed = range(len(self._groups))
        else:
            prev_get = prev.get
            changed = [index for index, deps in enumerate(self._deps)
                       if any(get(name, 0) != prev_get(name, 0)
                              for name in deps)]
        for index in changed:
            signatures[index] = _group_signature(self._groups[index],
                                                 allocation)
        stale = frozenset(changed)
        costs_memo = cache.costs
        arch_key = self._arch_key
        result = self._costs
        hits = 0
        misses = 0
        for position, (bsb, fp, index) in enumerate(zip(
                self._bsbs, self._array_key, self._members)):
            if prev is not None and index not in stale:
                hits += 1  # carried: a fresh probe would have hit
                continue
            cost_key = (fp, signatures[index], arch_key)
            cost = costs_memo.get(cost_key)
            if cost is None:
                misses += 1
                cost = costs_memo[cost_key] = _compute_bsb_cost(
                    bsb, allocation, self._architecture, cache)
            else:
                hits += 1
            result[position] = cost
        stats = cache.stats
        if hits:
            stats.hits["cost"] = stats.hits.get("cost", 0) + hits
        if misses:
            stats.misses["cost"] = stats.misses.get("cost", 0) + misses
        self._prev = allocation
        return result
