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
  architecture) — see :func:`~repro.partition.model._group_signature` —
  and interned by value, so signatures that schedule alike share one
  cost object;
* PACE :class:`~repro.partition.pace.SequenceTable` instances, keyed by
  the identity of the cost array, hence one per distinct content, and
  built on the first DP run that needs one; each table also remembers
  its DP outcomes by quantised input, so a repeated input runs no DP;
* PACE results, keyed by the cost array's content plus the available
  area and quanta, so allocations with equal cost arrays and equal
  available areas share one result.

Within one scan, each cost group also remembers its members' cost
objects by the slice of the allocation its signature reads (see
:class:`EvaluationScan`).

A scan that only needs the candidates that can win (the exhaustive
searches under the speed-up objective, keeping no history and no
front) bounds each candidate before partitioning it: once the cost
array and the available area are known, an admissible bound on the
PACE speed-up (:func:`~repro.partition.pace.speedup_bound`, a
fractional knapsack over the array's own costs) rules out most
candidates without a partition lookup, a sequence table or a DP run.
The flat scans rank a block of candidates by :meth:`EvaluationScan.bound`
and :meth:`EvaluationScan.settle` them best bound first, until a bound
falls below the incumbent; the pruned walk's leaves pass the
incumbent's speed-up to :meth:`EvaluationScan.evaluate` as ``beat``.
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
from repro.partition.pace import (
    PartitionResult,
    SequenceTable,
    bound_gains,
    pace_partition,
    speedup_bound,
)


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

    A one-shot :class:`EvaluationScan`: every cost group is signed and
    every BSB probed, and no group memo is built.

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
    model), remembering cost groups from one candidate to the next.

    The candidates of a scan (an enumeration, a branch-and-bound walk,
    the design iteration's decrements) revisit a few slices of the
    allocation per cost group.  Each group keeps a scan-local memo from
    its slice to its members' cost objects: the key is the group's
    designated counts capped at its demand, which is all its signature
    reads while every count is positive.  A key with a zero count is
    the one shared key ``None`` when each of the group's operation
    types has exactly one capable unit (the group is then unexecutable,
    whatever the other counts), and the group's full signature
    otherwise.  A memo miss signs the group and probes the cost memo
    per member; a hit touches neither.  The memos are built on a scan's
    second cost array, so a one-shot evaluation builds none.

    The results are bit-identical whatever was evaluated before: equal
    keys mean equal signatures, hence equal memo keys, hence the same
    (memoised, hence identical) cost objects a fresh probe would
    return.  The hit/miss accounting matches a fresh probe too: the
    cost memo stores unconditionally, so a member served by its group's
    memo counts as the hit its probe would have been.  A memo entry is
    stored only once every member's cost exists, so a build that raises
    leaves none behind.

    A candidate is evaluated in one call (:meth:`evaluate`, optionally
    gated by a ``beat`` speed-up) or in two: :meth:`bound` probes the
    eval memo, costs the candidate and bounds its speed-up, and
    :meth:`settle` partitions it later, so a scan can partition its
    candidates best bound first and stop at the first bound below its
    incumbent.  Both ways count the same eval and cost lookups.
    """

    __slots__ = ("_bsbs", "_architecture", "_area_quanta", "_cache",
                 "_remember", "_overhead_model", "_key_prefix",
                 "_array_key", "_arch_key", "_members", "_groups",
                 "_memos", "_costs")

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
        # The cost plan is read on the first evaluation miss, the group
        # memos are built on the second.
        self._groups = None
        self._memos = None

    def evaluate(self, allocation, beat=None):
        """Evaluate one candidate (RMap or dict) and return its
        :class:`AllocationEvaluation`; see :func:`evaluate_allocation`.

        With ``beat``, a speed-up, the candidate is first costed and its
        PACE speed-up bounded from above
        (:func:`~repro.partition.pace.speedup_bound`); when the bound
        is below ``beat`` the candidate cannot reach it, and ``None`` is
        returned without a partition lookup, a sequence table or a DP
        run.

        Raises :class:`PartitionError` when the allocation's data-path
        alone exceeds the ASIC area.
        """
        return self._evaluate(RMap._coerce(allocation), beat)

    def bound(self, allocation):
        """Rank one candidate (an RMap) for a scan that partitions its
        candidates best bound first: return (speed-up bound, pending),
        where ``pending`` is what :meth:`settle` needs besides the
        allocation.

        The eval memo is probed once, as :meth:`evaluate` probes it; a
        remembered evaluation is its own bound and its own ``pending``.
        Otherwise the candidate is costed and bounded as ``evaluate``'s
        gate bounds it, and ``pending`` is a tuple snapshot of its cost
        array, so settling repeats no eval or cost lookup.

        Raises :class:`PartitionError` as :meth:`evaluate` does.
        """
        evaluation = self._recall(allocation)
        if evaluation is not None:
            return evaluation.speedup, evaluation
        available = self._areas(allocation)[2]
        costs = tuple(self._costs_for(allocation))
        return self._speedup_bound(costs, available), costs

    def settle(self, allocation, pending):
        """The :class:`AllocationEvaluation` of a candidate :meth:`bound`
        ranked, from its ``pending``."""
        if isinstance(pending, AllocationEvaluation):
            return pending
        return self._conclude(allocation, self._areas(allocation), pending)

    def _evaluate(self, allocation, beat=None):
        evaluation = self._recall(allocation)
        if evaluation is not None:
            return evaluation
        areas = self._areas(allocation)
        costs = self._costs_for(allocation)
        if beat is not None and self._speedup_bound(costs, areas[2]) < beat:
            return None
        return self._conclude(allocation, areas, costs)

    def _eval_key(self, allocation):
        return self._key_prefix + (allocation, self._area_quanta,
                                   self._overhead_model)

    def _recall(self, allocation):
        """The remembered evaluation of ``allocation``, or ``None``; one
        counted probe of the eval memo."""
        evaluation = self._cache.evals.get(self._eval_key(allocation))
        if evaluation is not None:
            self._cache.stats.hit("eval")
        else:
            self._cache.stats.miss("eval")
        return evaluation

    def _areas(self, allocation):
        """(data-path area, overhead area, area left for controllers)."""
        architecture = self._architecture
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
        return (datapath_area, overhead_area,
                architecture.total_area - datapath_area - overhead_area)

    def _conclude(self, allocation, areas, costs):
        """Partition a costed candidate and return its evaluation,
        remembered when the scan remembers evaluations."""
        datapath_area, overhead_area, available = areas
        partition = self._partition(costs, available)
        evaluation = AllocationEvaluation(
            allocation=allocation,
            datapath_area=datapath_area,
            available_controller_area=available,
            partition=partition,
            overhead_area=overhead_area,
            energy=partition_energy(
                bsb_energy_pairs(self._bsbs, self._architecture,
                                 cache=self._cache),
                partition.hw_sequences),
        )
        if self._remember is True:
            self._cache.evals[self._eval_key(allocation)] = evaluation
        return evaluation

    def _costs_for(self, allocation):
        """The candidate's cost array, through the group memos.

        The returned list is rewritten in place by the next call.
        """
        cache = self._cache
        bsbs = self._bsbs
        memos = self._memos
        if memos is None:
            if self._groups is not None:
                memos = self._index_groups()
            else:
                self._members, self._groups = _cost_plan(
                    bsbs, self._architecture.library, cache)
                self._costs = [None] * len(bsbs)
        result = self._costs
        hits = misses = 0
        if memos is None:
            # One-shot: one signature per group, one probe per BSB.
            signatures = [_group_signature(identity, allocation)
                          for identity in self._groups]
            pending = enumerate(self._members)
            missed = ()
        else:
            signatures = {}
            pending = []
            missed = []
            get = allocation.get
            for index, (identity, demand, single, positions, memo) in \
                    enumerate(memos):
                # The counts capped at the demand (min() inlined).
                key = tuple([need if (count := get(name, 0)) > need
                             else count for name, need in demand])
                if 0 in key:
                    key = None if single \
                        else _group_signature(identity, allocation)
                costs = memo.get(key)
                if costs is None:
                    signatures[index] = _group_signature(identity,
                                                         allocation)
                    pending.extend((position, index)
                                   for position in positions)
                    missed.append((memo, key, positions))
                else:
                    hits += len(positions)
                    for position, cost in zip(positions, costs):
                        result[position] = cost
        costs_memo = cache.costs
        interned = cache.interned
        arch_key = self._arch_key
        array_key = self._array_key
        for position, index in pending:
            signature = signatures[index]
            cost_key = (array_key[position], signature, arch_key)
            cost = costs_memo.get(cost_key)
            if cost is None:
                misses += 1
                cost = _compute_bsb_cost(bsbs[position], signature,
                                         self._architecture, cache)
                cost = costs_memo[cost_key] = interned.setdefault(cost,
                                                                  cost)
            else:
                hits += 1
            result[position] = cost
        # Stored only now that every member's cost exists.
        for memo, key, positions in missed:
            memo[key] = tuple([result[position] for position in positions])
        stats = cache.stats
        if hits:
            stats.hits["cost"] = stats.hits.get("cost", 0) + hits
        if misses:
            stats.misses["cost"] = stats.misses.get("cost", 0) + misses
        return result

    def _index_groups(self):
        """Per group: (identity, designated demand, whether each
        operation type has exactly one capable unit, array positions,
        empty memo)."""
        positions = [[] for _ in self._groups]
        for position, index in enumerate(self._members):
            positions[index].append(position)
        memos = []
        for identity, members in zip(self._groups, positions):
            if identity is None:
                demand, single = (), True
            else:
                demand, _, type_sets = identity
                single = all(len(names) == 1 for names in type_sets)
            memos.append((identity, demand, single, tuple(members), {}))
        self._memos = memos
        return memos

    def _speedup_bound(self, costs, available):
        """:func:`~repro.partition.pace.speedup_bound` of a cost array
        under ``available``; the array's gains are built on its first
        bound and kept in its ``tables`` entry (see :meth:`_partition`).
        """
        cache = self._cache
        table_key = (tuple(map(id, costs)),
                     self._architecture.comm_cycles_per_word)
        sequence_table, content_key, gains = \
            cache.tables.get(table_key) or (None, None, None)
        if gains is None:
            gains = bound_gains(costs)
            cache.tables[table_key] = (sequence_table, content_key, gains)
        return speedup_bound(gains, available)

    def _partition(self, costs, available):
        """PACE result of one cost array, through the table and DP memos.

        Tables are keyed by cost-object identity: cost objects are
        memoised, hence live as long as the cache, and interned by
        value, so equal cost arrays are one key.  A PartitionResult
        depends on nothing but the cost array's content, the
        communication cost, the available area and the quanta, so
        allocations whose cost arrays coincide while their data-path
        areas do too share one DP run.  The content is named by (array
        fingerprints, digest of the architecture's cost knobs and each
        BSB's hardware time and controller area): everything else in a
        cost follows from its BSB and processor.  An entry holds the
        array's :func:`~repro.partition.pace.bound_gains` from its first
        bound, the content key from its first partition probe, and its
        :class:`SequenceTable` from its first partition miss, so a pass
        whose partitions all hit builds no table and a candidate the
        bound discards digests nothing and builds no table.
        """
        cache = self._cache
        architecture = self._architecture
        comm = architecture.comm_cycles_per_word
        table_key = (tuple(map(id, costs)), comm)
        sequence_table, content_key, gains = \
            cache.tables.get(table_key) or (None, None, None)
        if content_key is None:
            content_key = (self._array_key, data_digest((
                self._arch_key, tuple((cost.hw_time, cost.controller_area)
                                      for cost in costs))))
            cache.tables[table_key] = (sequence_table, content_key, gains)
        partition_key = content_key + (comm, available, self._area_quanta)
        partition = cache.partitions.get(partition_key)
        if partition is not None:
            cache.stats.hit("partition")
            return partition
        cache.stats.miss("partition")
        if sequence_table is None:
            cache.stats.miss("table")
            sequence_table = SequenceTable(costs, architecture)
            cache.tables[table_key] = (sequence_table, content_key, gains)
        else:
            cache.stats.hit("table")
        partition = pace_partition(costs, architecture, available,
                                   area_quanta=self._area_quanta,
                                   sequence_table=sequence_table)
        if self._remember:
            cache.partitions[partition_key] = partition
        return partition
