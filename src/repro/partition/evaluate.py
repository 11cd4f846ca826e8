"""Evaluate an allocation: build BSB costs, run PACE, report the result.

This is the paper's evaluation loop (section 5): the quality of an
allocation *is* the speed-up PACE achieves with it.  There is one
evaluator, :class:`EvaluationScan`: the heuristic allocation, every
candidate of the exhaustive (brute, sampled and pruned) searches, the
design iteration's decrements and the multi-ASIC rounds' cost arrays
all go through it, so comparisons are consistent.
:func:`evaluate_allocation` and :func:`bsb_costs` are its one-shot uses.

The :class:`~repro.engine.cache.EvalCache` (the engine
:class:`~repro.engine.session.Session`'s, or a fresh one) memoises at
four levels:

* whole evaluations, keyed by (BSBs, architecture, allocation, quanta,
  overhead model);
* per-BSB cost objects, keyed by (BSB, allocation signature,
  architecture) — see :func:`~repro.partition.model._group_signature`;
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


def evaluate_allocation(bsbs, allocation, architecture, area_quanta=400,
                        cache=None, overhead_model=None,
                        remember=True):
    """Partition ``bsbs`` under ``allocation`` and return the evaluation.

    A one-shot :class:`EvaluationScan`: nothing to diff against, so
    every cost group is signed and every BSB probed.

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
    scan = EvaluationScan(bsbs, architecture, area_quanta=area_quanta,
                          cache=cache, remember=remember,
                          overhead_model=overhead_model)
    # Not the public evaluate(): perfbench's tracer wraps both names as
    # one layer, and this call must count once.
    return scan._evaluate(RMap._coerce(allocation))


def bsb_costs(bsbs, allocation, architecture, cache=None):
    """Per-BSB costs for the whole application, in array order.

    A one-shot :class:`EvaluationScan` cost build: one signature per
    cost group, one memo probe per BSB.
    """
    scan = EvaluationScan(bsbs, architecture, cache=cache)
    return list(scan._costs_for(RMap._coerce(allocation)))


class EvaluationScan:
    """The evaluator of one (BSB array, architecture, quanta, overhead
    model), carrying cost groups from one candidate to the next.

    Consecutive candidates of a scan (an enumeration, a branch-and-bound
    walk, the design iteration's decrements) differ in a handful of
    resource counts.  The scan therefore diffs each candidate against
    the previous *computed* one and re-signs only the cost groups whose
    dependency names — designated demand plus every capable unit —
    include a moved resource; the other groups keep their signatures
    and cost objects, and thereby the sequence table identity, without
    touching their memos.  A one-shot evaluation builds no dependency
    sets at all: they are built on the first diff.

    The results are bit-identical whatever was evaluated before: a cost
    group none of whose dependency counts changed has, by construction,
    the same signature, hence the same memo key, hence the same
    (memoised, hence identical) cost object a fresh probe would return.
    The hit/miss accounting matches a fresh probe too — the cost memo
    stores unconditionally, so a carried group's probe would have been
    a hit.
    """

    __slots__ = ("_bsbs", "_architecture", "_area_quanta", "_cache",
                 "_remember", "_overhead_model", "_key_prefix",
                 "_array_key", "_arch_key", "_members", "_groups",
                 "_deps", "_positions", "_prev", "_signatures", "_costs")

    def __init__(self, bsbs, architecture, area_quanta=400, cache=None,
                 remember=False, overhead_model=None):
        if cache is None:
            cache = EvalCache()
        self._bsbs = bsbs
        self._architecture = architecture
        self._area_quanta = area_quanta
        self._cache = cache
        self._remember = remember
        self._overhead_model = overhead_model
        self._array_key = cache.array_key(bsbs)
        self._key_prefix = (self._array_key,
                            fingerprint(architecture.library),
                            fingerprint(architecture.processor),
                            architecture.total_area,
                            architecture.comm_cycles_per_word,
                            architecture.hw_cycle_ratio)
        self._arch_key = _arch_cost_key(architecture)
        # The cost plan is read on the first evaluation miss, the
        # dependency sets are built on the first diff.
        self._groups = None
        self._deps = None
        self._prev = None

    def evaluate(self, allocation):
        """Evaluate one candidate (RMap or dict) and return its
        :class:`AllocationEvaluation`; see :func:`evaluate_allocation`.

        Raises :class:`PartitionError` when the allocation's data-path
        alone exceeds the ASIC area.
        """
        return self._evaluate(RMap._coerce(allocation))

    def _evaluate(self, allocation):
        cache = self._cache
        architecture = self._architecture
        key = self._key_prefix + (allocation, self._area_quanta,
                                  self._overhead_model)
        evaluation = cache.evals.get(key)
        if evaluation is not None:
            # The carried state still describes the last *computed*
            # candidate, which is what the next diff compares against.
            cache.stats.hit("eval")
            return evaluation
        cache.stats.miss("eval")
        datapath_area = allocation.area(architecture.library)
        if datapath_area > architecture.total_area:
            raise PartitionError(
                "allocation area %.1f exceeds total ASIC area %.1f"
                % (datapath_area, architecture.total_area))
        overhead_area = 0.0
        if self._overhead_model is not None:
            from repro.hwlib.overheads import total_overhead_area

            overhead_area = total_overhead_area(
                allocation, self._bsbs, architecture.library,
                model=self._overhead_model)
        # Overheads may leave no controller room at all — that is a valid
        # (terrible) design point, not an error: PACE then moves nothing.
        available = architecture.total_area - datapath_area - overhead_area
        partition = self._partition(self._costs_for(allocation), available)
        evaluation = AllocationEvaluation(
            allocation=allocation,
            datapath_area=datapath_area,
            available_controller_area=available,
            partition=partition,
            overhead_area=overhead_area,
            energy=partition_energy(
                bsb_energy_pairs(self._bsbs, architecture, cache=cache),
                partition.hw_sequences),
        )
        if self._remember is True:
            cache.evals[key] = evaluation
        return evaluation

    def _costs_for(self, allocation):
        """The candidate's cost array, diffed against the previous one.

        The returned list is rewritten in place by the next call.
        """
        cache = self._cache
        bsbs = self._bsbs
        # Cleared until the array is complete: a build that raises
        # leaves the next call a full one.
        prev, self._prev = self._prev, None
        if self._groups is None:
            self._members, self._groups = _cost_plan(
                bsbs, self._architecture.library, cache)
            self._signatures = [None] * len(self._groups)
            self._costs = [None] * len(bsbs)
        groups = self._groups
        changed = range(len(groups))
        positions = range(len(bsbs))
        if prev is not None:
            if self._deps is None:
                self._index_groups()
            moved = allocation.changed_names(prev)
            changed = [index for index, deps in enumerate(self._deps)
                       if not deps.isdisjoint(moved)]
            if len(changed) < len(groups):
                positions = sorted(position for index in changed
                                   for position in self._positions[index])
        signatures = self._signatures
        for index in changed:
            signatures[index] = _group_signature(groups[index], allocation)
        costs_memo = cache.costs
        arch_key = self._arch_key
        array_key = self._array_key
        members = self._members
        result = self._costs
        # A carried BSB counts as a hit: a fresh probe would have hit.
        hits = len(bsbs) - len(positions)
        misses = 0
        for position in positions:
            signature = signatures[members[position]]
            cost_key = (array_key[position], signature, arch_key)
            cost = costs_memo.get(cost_key)
            if cost is None:
                misses += 1
                cost = costs_memo[cost_key] = _compute_bsb_cost(
                    bsbs[position], signature, self._architecture, cache)
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

    def _index_groups(self):
        """Per group, the resource names its signature can depend on
        (designated demand plus every capable unit) and its array
        positions."""
        self._deps = [frozenset() if identity is None
                      else frozenset(name for name, _ in identity[0])
                      | identity[1]
                      for identity in self._groups]
        positions = [[] for _ in self._groups]
        for position, index in enumerate(self._members):
            positions[index].append(position)
        self._positions = positions

    def _partition(self, costs, available):
        """PACE result of one cost array, through the table and DP memos.

        Tables are keyed by cost-object identity (cost objects are
        memoised, hence live as long as the cache).  A PartitionResult
        depends on nothing but the cost array's content — the array's
        fingerprints, the architecture's cost knobs and one signature
        per cost group — the communication cost, the available area and
        the quanta, so allocations that differ only in resources no BSB
        uses while their data-path areas coincide share one DP run.
        Each table keeps its array's content as (array fingerprints,
        digest of the rest): one short string per key instead of a
        nested signature tuple per cost group, both in memory and on
        disk.
        """
        cache = self._cache
        architecture = self._architecture
        comm = architecture.comm_cycles_per_word
        table_key = (tuple(map(id, costs)), comm)
        entry = cache.tables.get(table_key)
        if entry is None:
            cache.stats.miss("table")
            entry = cache.tables[table_key] = (
                SequenceTable(costs, architecture),
                (self._array_key, data_digest(
                    (self._arch_key, tuple(self._signatures)))))
        else:
            cache.stats.hit("table")
        sequence_table, content_key = entry
        partition_key = content_key + (comm, available, self._area_quanta)
        partition = cache.partitions.get(partition_key)
        if partition is not None:
            cache.stats.hit("partition")
            return partition
        cache.stats.miss("partition")
        partition = pace_partition(costs, architecture, available,
                                   area_quanta=self._area_quanta,
                                   sequence_table=sequence_table)
        if self._remember:
            cache.partitions[partition_key] = partition
        return partition
