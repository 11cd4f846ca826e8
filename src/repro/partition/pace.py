"""The PACE dynamic-programming partitioner.

Problem statement (from Knudsen & Madsen [7]): the application is an
ordered array of BSBs.  Any set of *contiguous sequences* of BSBs may be
moved to hardware; a moved sequence

* saves the software-vs-hardware time difference of its BSBs,
* pays boundary communication on entry and exit (internal traffic is
  free — the incentive to move neighbours together), and
* consumes controller area for each moved BSB.

PACE finds the time-optimal selection under the available controller
area by dynamic programming over (BSB prefix, discretised area), the
classic knapsack-with-sequences formulation.  Area is discretised into
``area_quanta`` buckets (ceiling rounding that forgives only float
noise: the chosen areas add up to at most ``available_area / (1 -
_QUANTIZE_RTOL)``, see :func:`speedup_bound`).

:func:`speedup_bound` relaxes that DP into a fractional knapsack over
single BSBs: an admissible upper bound on the speed-up, cheap enough to
discard a candidate that cannot win before any sequence or DP work.
"""

import math
from dataclasses import dataclass, field
from itertools import chain

try:
    import numpy as _np
    from numpy.lib.stride_tricks import as_strided
except ImportError:  # numpy is the optional ``fast`` extra
    _np = None

from repro.errors import PartitionError
from repro.partition.speedup import speedup_percent


@dataclass
class PartitionResult:
    """Outcome of one PACE run.

    Attributes:
        hw_sequences: List of (first_index, last_index) BSB index pairs
            (inclusive) moved to hardware, in array order.
        hw_names: Names of the BSBs moved to hardware.
        sw_time_all: Execution time of the all-software solution.
        hybrid_time: Execution time of the partitioned solution,
            including communication.
        speedup: Speed-up percentage, the paper's SU metric.
        controller_area_used: Controller area consumed by moved BSBs.
        available_area: Controller area that was available.
        hw_fraction: Fraction of *operations executed* that moved to HW
            (profile-weighted; the paper's HW/SW column).
    """

    hw_sequences: list = field(default_factory=list)
    hw_names: list = field(default_factory=list)
    sw_time_all: float = 0.0
    hybrid_time: float = 0.0
    speedup: float = 0.0
    controller_area_used: float = 0.0
    available_area: float = 0.0
    hw_fraction: float = 0.0


class SequenceTable:
    """PACE over one cost array: its positive-gain contiguous sequences,
    area-prunable, and the DP outcomes computed over them.

    A sequence's gain and area do not depend on the controller area
    available — only on its BSB costs and the communication model.  The
    area constraint merely *prunes* which sequences are worth keeping.
    The table therefore builds sequences lazily up to the largest area
    horizon ever queried and serves smaller areas by filtering, so
    incremental-area re-partitions — the exhaustive search evaluating
    many allocations whose cost arrays coincide while their data-path
    areas differ — reuse all sequence work done so far.

    Only sequences that save cycles can ever be chosen, so only those
    are kept: ``(last, first, gain_cycles, area)`` tuples (inclusive,
    0-based) sorted by (last, first), the order the DP reads them in.
    Sequences containing an unmovable BSB are absent.  A table must
    only be queried with the exact ``costs`` and ``architecture`` it was
    built from.

    The table also remembers its DP outcomes.  For one table the DP's
    whole input is the row width, the sequences that fit and their
    quantised areas; the sequences with area <= A grow with A, so
    their number names them.  A call whose (width, number, quantised
    areas) repeat an earlier call's rebuilds that outcome's
    :class:`PartitionResult` with its own available area and runs no
    DP.  The all-software time and the static operation count are
    computed once, at construction.
    """

    __slots__ = ("_costs", "_architecture", "_horizon", "_resume",
                 "_positive", "_fields", "_outcomes", "_sw_time_all",
                 "_total_static")

    def __init__(self, costs, architecture):
        # A copy: the evaluator rewrites its list in place for the next
        # cost array while this table lives on.
        self._costs = costs = list(costs)
        self._architecture = architecture
        self._positive = []
        self._horizon = 0.0
        self._outcomes = {}
        self._sw_time_all = sum(cost.sw_time for cost in costs)
        self._total_static = sum(_op_count(cost) for cost in costs)
        # Cost attributes unpacked once into parallel tuples: the build
        # loop below touches each many times per row and dataclass
        # attribute loads dominate it otherwise.
        self._fields = tuple(
            (cost.movable, cost.controller_area, cost.reads, cost.writes,
             cost.profile_count,
             (cost.sw_time - cost.hw_time) if cost.movable else 0.0)
            for cost in costs)
        # Per-first continuation: first -> (next last index, area,
        # live-in set, defined set, min profile count, gain sum) — the
        # incremental state from which appending one more BSB extends
        # the row in O(1) set-delta work instead of re-walking the
        # whole segment.  A row leaves the map once it hits an unmovable
        # BSB or the array end.
        self._resume = {
            first: (first, 0.0, set(), set(), float("inf"), 0.0)
            for first, fields in enumerate(self._fields) if fields[0]}

    @property
    def horizon(self):
        """Largest area the table has been built for so far."""
        return self._horizon

    def positive_entries(self, available_area):
        """(last, first, gain, area) of positive-gain sequences that fit.

        Sorted by (last, first).  Growing queries extend the table in
        place; shrinking queries filter the already-built sequences
        without recomputation.
        """
        if available_area > self._horizon:
            self._extend(available_area)
        if available_area >= self._horizon:
            return self._positive
        return [entry for entry in self._positive
                if entry[3] <= available_area]

    def _extend(self, horizon):
        # The incremental state mirrors sequence_communication_time /
        # sequence_live_in / sequence_live_out exactly: live-in grows by
        # the reads not yet defined, the defined set (== live-out, every
        # written variable is conservatively transferred) by the writes,
        # the activation count is the running min profile count, and the
        # gain sum accumulates in the same left-to-right order as the
        # from-scratch sum() — so gains are bit-identical to a rebuild.
        fields = self._fields
        comm_per_word = self._architecture.comm_cycles_per_word
        count = len(fields)
        positive = self._positive
        finished = []
        for first, state in self._resume.items():
            last, area, live_in, defined, min_profile, gain_sum = state
            while last < count:
                (movable, controller_area, reads, writes, profile,
                 time_delta) = fields[last]
                if not movable:
                    last = count
                    break
                if area + controller_area > horizon:
                    break
                area += controller_area
                live_in |= (reads - defined)
                defined |= writes
                if profile < min_profile:
                    min_profile = profile
                gain_sum += time_delta
                comm = comm_per_word * ((len(live_in) + len(defined))
                                        * min_profile)
                gain = gain_sum - comm
                if gain > 0:
                    positive.append((last, first, gain, area))
                last += 1
            if last >= count:
                finished.append(first)
            else:
                self._resume[first] = (last, area, live_in, defined,
                                       min_profile, gain_sum)
        for first in finished:
            del self._resume[first]
        positive.sort()
        self._horizon = horizon

    def partition(self, available_area, area_quanta):
        """The :class:`PartitionResult` of this table's cost array under
        ``available_area`` controller area; see :func:`pace_partition`.
        """
        sw_time_all = self._sw_time_all
        count = len(self._costs)
        if available_area <= 0 or count == 0:
            return PartitionResult(
                sw_time_all=sw_time_all, hybrid_time=sw_time_all,
                speedup=0.0, available_area=max(0.0, available_area))

        # best[j][w]: max saving considering BSBs[0..j-1] with w quanta.
        # Ties on equal savings go to the earliest-relaxed sequence, so
        # the ascending-first order of the entries is part of the DP's
        # contract; both paths compute bit-identical savings and choices.
        quantum = available_area / area_quanta
        width = area_quanta + 1
        positive = self.positive_entries(available_area)
        if _np is not None:
            columns = _np.fromiter(chain.from_iterable(positive), float,
                                   4 * len(positive)).reshape(-1, 4).T
            needed = _np.minimum(_quantize_array(columns[3], quantum),
                                 width)
            key = (width, len(positive), needed.tobytes())
        else:
            needed = _quantized_needs(positive, quantum, width)
            key = (width, len(positive), tuple(needed))
        outcome = self._outcomes.get(key)
        if outcome is None:
            if _np is not None:
                total_saving, hw_sequences = _dp_vectorised(
                    count, width, columns, needed)
            else:
                total_saving, hw_sequences = _dp_python(
                    count, width, _by_last(positive, needed, count))
            outcome = self._outcomes[key] = self._outcome(total_saving,
                                                          hw_sequences)
        (total_saving, hw_sequences, hw_names, controller_area_used,
         hw_fraction) = outcome
        hybrid_time = sw_time_all - total_saving
        # Fresh lists: a caller may change its result, not the memo.
        return PartitionResult(
            hw_sequences=list(hw_sequences),
            hw_names=list(hw_names),
            sw_time_all=sw_time_all,
            hybrid_time=hybrid_time,
            speedup=speedup_percent(sw_time_all, hybrid_time),
            controller_area_used=controller_area_used,
            available_area=available_area,
            hw_fraction=hw_fraction,
        )

    def _outcome(self, total_saving, hw_sequences):
        """(total saving, hw sequences, hw names, controller area used,
        hw fraction) of one DP result."""
        costs = self._costs
        hw_names = []
        controller_area_used = 0.0
        hw_weighted_ops = 0.0
        for first, last in hw_sequences:
            for index in range(first, last + 1):
                cost = costs[index]
                hw_names.append(cost.name)
                controller_area_used += cost.controller_area
                hw_weighted_ops += _op_count(cost)
        # The paper's HW/SW column is a *static* measure of how much of
        # the application moved to hardware (man moves only "8%" yet
        # gets a 31x speed-up because that 8% dominates the runtime) —
        # so weigh each BSB by its per-execution size, not by its
        # profile count.
        total_static = self._total_static
        hw_fraction = hw_weighted_ops / total_static if total_static \
            else 0.0
        return (total_saving, hw_sequences, hw_names, controller_area_used,
                hw_fraction)


#: Relative slack tolerated when rounding an area up to whole quanta: a
#: sequence whose area is a float-noise epsilon above a quantum boundary
#: must not be charged a full extra quantum.  Areas reach the DP as sums
#: of float controller areas, so the noise scales with the magnitude of
#: the ratio — hence a relative, not absolute, tolerance.
_QUANTIZE_RTOL = 1e-9

#: Relative inflation applied to every speed-up bound (to its saving, in
#: :func:`speedup_bound`).  The bound and the evaluated speed-ups
#: accumulate floating-point error in different summation orders; a
#: mathematically-tied case could otherwise land an ulp *below* the true
#: value and wrongly discard the winner.  The inflation is ~1e2 larger
#: than the worst accumulated rounding error and ~1e7 smaller than any
#: speed-up difference the tournament cares about, so admissibility is
#: restored at ~zero pruning-power cost.
_BOUND_RTOL = 1e-9


def _quantize(area, quantum):
    """Quanta covering ``area``: ceiling with a relative tolerance."""
    ratio = area / quantum
    quanta = math.ceil(ratio - _QUANTIZE_RTOL * max(1.0, ratio))
    return max(1, quanta)


def _quantized_needs(positive, quantum, width):
    """Quanta each positive sequence needs, capped at ``width``.

    The quantization is _quantize inlined (one call per worthwhile
    sequence per partition call is where the function-call overhead
    shows); a unit test pins the two implementations together.  A
    sequence needing ``width`` or more quanta never fits, so the cap
    changes no DP result.
    """
    ceil = math.ceil
    rtol = _QUANTIZE_RTOL
    needs = []
    for entry in positive:
        ratio = entry[3] / quantum
        needed = ceil(ratio - rtol * (ratio if ratio > 1.0 else 1.0))
        if needed < 1:
            needed = 1
        elif needed > width:
            needed = width
        needs.append(needed)
    return needs


def _by_last(positive, needs, count):
    """Per-last lists of (first, gain, needed), ascending first — the
    order the DP relaxes them in (``positive`` is sorted by (last,
    first))."""
    seq_by_last = [[] for _ in range(count)]
    for (last, first, gain, _), needed in zip(positive, needs):
        seq_by_last[last].append((first, gain, needed))
    return seq_by_last


def _dp_python(count, width, seq_by_last):
    """The knapsack-with-sequences DP, pure-Python reference path.

    Returns (total saving, chosen (first, last) pairs in array order).
    """
    best = [[0.0] * width]
    choice = [[None] * width]
    for j in range(1, count + 1):
        row = best[j - 1][:]
        choice_row = [None] * width
        for first, gain, needed in seq_by_last[j - 1]:
            if needed >= width:
                continue
            base = best[first]
            # Rows are nondecreasing in w (more area never hurts), so a
            # sequence whose best candidate cannot beat the cheapest
            # target state cannot improve anything.
            if base[width - 1 - needed] + gain <= row[needed]:
                continue
            w = needed
            for base_value in base[:width - needed]:
                candidate = base_value + gain
                if candidate > row[w]:
                    row[w] = candidate
                    choice_row[w] = (first, w - needed)
                w += 1
        best.append(row)
        choice.append(choice_row)

    hw_sequences = []
    j, w = count, width - 1
    total_saving = best[count][width - 1]
    while j > 0:
        picked = choice[j][w]
        if picked is None:
            j -= 1
            continue
        first, w_prev = picked
        hw_sequences.append((first, j - 1))
        j, w = first, w_prev
    hw_sequences.reverse()
    return total_saving, hw_sequences


def _quantize_array(areas, quantum):
    """:func:`_quantize` over a float64 array, operation for operation."""
    ratio = areas / quantum
    needed = _np.ceil(ratio - _QUANTIZE_RTOL * _np.maximum(ratio, 1.0))
    return _np.maximum(needed, 1.0).astype(_np.intp)


def _dp_vectorised(count, width, columns, needed):
    """The same DP over numpy rows, read straight from the sorted table.

    ``columns`` are the entries' (lasts, firsts, gains, areas) float64
    rows, ``needed`` their quanta capped at ``width``.  The forward
    pass computes only the saving rows: row j relaxes every sequence
    ending at BSB j-1 with one gather and one max.  Each candidate is
    the float64 addition the Python path makes and max is exact, so the
    rows are bit-identical to it.  The choices are then recovered on
    the traceback by applying the Python path's tie-break at the (at
    most ``count``) states it visits.
    """
    lasts, firsts, gains, _ = columns
    if not len(lasts):
        return 0.0, []
    # Row j of ``best`` is ``width`` cells of -inf, then values[j].  The
    # width-long window of the flat array that starts ``needed`` cells
    # before values[first] thus holds a sequence's candidate base for
    # every w, -inf wherever w < needed; one capped at needed == width
    # reads only padding, which drops it as the Python path's
    # ``needed >= width`` test does.
    stride = 2 * width
    best = _np.full((count + 1, stride), -_np.inf)
    values = best[:, width:]
    values[0] = 0.0
    flat = best.ravel()
    windows = as_strided(flat, (flat.size - width + 1, width),
                         (flat.itemsize, flat.itemsize), writeable=False)
    offsets = firsts.astype(_np.intp) * stride + width - needed
    gain_column = gains[:, None]
    bounds = _np.searchsorted(lasts, _np.arange(count + 1)).tolist()
    for j in range(1, count + 1):
        start, stop = bounds[j - 1], bounds[j]
        if start == stop:
            values[j] = values[j - 1]
            continue
        candidates = windows[offsets[start:stop]]
        candidates += gain_column[start:stop]
        _np.maximum(values[j - 1], _np.maximum.reduce(candidates),
                    out=values[j])

    # The Python path's choice at (j, w): BSB j-1 stays in software when
    # the row did not rise there, else the earliest-relaxed (lowest
    # first) sequence whose candidate reaches the row's value.
    hw_sequences = []
    j, w = count, width - 1
    total_saving = float(values[count, w])
    while j > 0:
        value = values[j, w]
        if value == values[j - 1, w]:
            j -= 1
            continue
        start, stop = bounds[j - 1], bounds[j]
        candidates = windows[offsets[start:stop], w] + gains[start:stop]
        index = start + int((candidates == value).argmax())
        first = int(firsts[index])
        hw_sequences.append((first, j - 1))
        j, w = first, w - int(needed[index])
    hw_sequences.reverse()
    return total_saving, hw_sequences


def pace_partition(costs, architecture, available_area, area_quanta=400,
                   sequence_table=None):
    """Run PACE and return a :class:`PartitionResult`.

    Args:
        costs: Per-BSB :class:`~repro.partition.model.BSBCost` array.
        architecture: The :class:`~repro.partition.model.TargetArchitecture`.
        available_area: Area left for controllers (total ASIC area minus
            the pre-allocated data-path).
        area_quanta: Resolution of the DP's area axis.
        sequence_table: Optional shared :class:`SequenceTable` for
            exactly these ``costs`` under exactly this communication
            model; reused across calls with different available areas,
            and answering a repeated DP input from its outcome memo.
    """
    if area_quanta < 1:
        raise PartitionError("area_quanta must be >= 1")
    if sequence_table is None:
        sequence_table = SequenceTable(costs, architecture)
    return sequence_table.partition(available_area, area_quanta)


def bound_gains(costs):
    """What :func:`speedup_bound` reads of one cost array.

    Returns (all-software time, items): one (gain, controller area)
    item per movable BSB whose software-minus-hardware time is
    positive, best gain per area first.  The all-software time is the
    sum :class:`SequenceTable` computes, in the same order.
    """
    items = []
    for cost in costs:
        if cost.movable:
            gain = cost.sw_time - cost.hw_time
            if gain > 0:
                items.append((gain, cost.controller_area))
    items.sort(key=lambda item: item[0] / item[1], reverse=True)
    return sum(cost.sw_time for cost in costs), tuple(items)


def fractional_knapsack(items, capacity):
    """Fractional-knapsack value of (gain, weight) ``items``, taken in
    the given order (best gain per weight first) into ``capacity``."""
    saving = 0.0
    remaining = capacity
    for gain, weight in items:
        if weight <= remaining:
            saving += gain
            remaining -= weight
        else:
            saving += gain * (remaining / weight)
            break
    return saving


def speedup_bound(gains, available_area):
    """An upper bound on the speed-up PACE reaches under
    ``available_area``, at any ``area_quanta``, from the cost array's
    :func:`bound_gains`.

    Admissibility.  The DP moves disjoint contiguous sequences of
    movable BSBs.  A sequence saves the sum of its BSBs'
    software-minus-hardware times less a communication charge that is
    never negative (``comm_cycles_per_word >= 0``), and it takes the
    sum of their controller areas.  Dropping the charge and every BSB
    whose time difference is not positive raises the saving and lowers
    the area, so the DP's saving is at most that of a 0/1 choice of
    the items whose areas add up to no more than the DP spent.  The
    fractional knapsack, best gain per area first, is the optimum of
    that choice's linear relaxation, hence at least as large at any
    capacity the choice fits into.  The DP spends at most
    ``area_quanta`` quanta of ``available_area / area_quanta`` each,
    but :func:`_quantize` charges an area that lies up to
    ``_QUANTIZE_RTOL`` of its own size above a quantum boundary one
    quantum less: r quanta of area need at least r (1 - rtol) quanta,
    so the chosen areas add up to at most ``available_area / (1 -
    rtol)``, below the knapsack's capacity ``available_area (1 + 2
    rtol)``.  No area at all (or no item) means no saving, which is
    what PACE reports then too.

    Floating point.  The DP and the knapsack add the same float time
    differences in different orders.  The DP's sums may include
    negative differences, but each lowers its exact saving by at least
    its own size, so both errors stay below a few ulps of the
    knapsack's value per BSB.  The knapsack's saving is inflated by
    ``_BOUND_RTOL`` before the speed-up is computed from it by the
    expression the partition uses, which is monotone in the saving even
    under floating point.  Inflating the saving rather than the
    speed-up keeps the margin relative to what was summed: near a
    hybrid time of zero the speed-up moves by far more than its
    saving's relative error.  A saving that covers the whole software
    time bounds nothing (``inf``).
    """
    sw_time_all, items = gains
    if available_area <= 0 or not items:
        return 0.0
    saving = fractional_knapsack(
        items, available_area * (1.0 + 2.0 * _QUANTIZE_RTOL)) \
        * (1.0 + _BOUND_RTOL)
    hybrid_time = sw_time_all - saving
    if hybrid_time <= 0:
        return math.inf
    return speedup_percent(sw_time_all, hybrid_time)


def _op_count(cost):
    """Approximate operation count of a BSB from its software time.

    BSBCost deliberately does not retain the DFG; for the HW/SW-fraction
    statistic the per-execution software time is a faithful weight (it
    is a fixed positive multiple of the operation count for uniform op
    mixes, and a better workload measure otherwise).
    """
    if cost.profile_count == 0:
        return 0
    return cost.sw_time / cost.profile_count
