"""Admissible bounds for the branch-and-bound exhaustive search.

A node of the allocation prefix tree fixes the counts of the first
``k`` resources; every leaf below it completes the remaining counts
with anything up to the restriction caps.  Pruning the node is sound
iff no completion can beat the incumbent, which needs two *admissible*
(never-underestimating-the-subtree) quantities:

* an **area lower bound** — the decided digits' data-path area; the
  undecided resources contribute at least zero, and adding units never
  shrinks the area, so a prefix already over the ASIC area kills its
  whole subtree (this generalises the brute scan's per-candidate
  ``check_area`` skip);
* a **speed-up upper bound** — a fractional-knapsack relaxation of
  PACE: each BSB contributes at most its best-case gain (software time
  minus profiled hardware time at an optimistic schedule-length floor)
  at no less than its best-case controller area, into no more than
  ``total_area - prefix_area`` of controller room, ignoring
  communication and the contiguous-sequence restriction.  Every
  relaxation step only *raises* the bound, so it can never prune a
  subtree containing the true winner.

The knapsack itself (:func:`~repro.partition.pace.fractional_knapsack`)
and the ``_BOUND_RTOL`` inflation live beside the PACE DP, which they
relax: :func:`~repro.partition.pace.speedup_bound` is the same
relaxation at a single leaf, over the leaf's own cost array, and gates
the leaves and scanned candidates that cannot beat the incumbent.

The schedule-length floor is the part that needs care: list scheduling
is not monotone in resource counts (Graham's anomaly), so "schedule
under the caps" is *not* a valid floor.  The floor used here is the
maximum of two quantities that are:

* the dependency-only critical path at per-operation *minimum*
  latencies (:func:`~repro.core.eca.min_latency_states`), valid under
  any allocation;
* the load floor ``ceil(ops / count) * latency`` for resources that
  are the *only* capable unit of some operation type
  (:func:`~repro.core.restrictions.exclusive_type_load`) — those
  operations cannot migrate elsewhere, and both schedulers hold a unit
  for the full latency of the operation it executes.
"""

from repro.core.eca import controller_area_for_states, min_latency_states
from repro.core.restrictions import exclusive_type_load
from repro.engine.cache import fingerprint
from repro.partition.model import _capability, _software_time
from repro.partition.pace import _BOUND_RTOL, fractional_knapsack
from repro.partition.speedup import speedup_percent


class BoundEngine:
    """Per-node speed-up upper bounds over one allocation space.

    Bound to one (BSB array, architecture, axis order) triple; the
    per-BSB schedule-length floors are memoised in the session
    :class:`~repro.engine.cache.EvalCache` (stage ``"bound"``), so the
    many nodes a search visits collapse onto the few distinct capped
    count vectors each BSB can see.
    """

    def __init__(self, bsbs, architecture, names, caps, cache):
        self._bsbs = bsbs
        self._architecture = architecture
        self._cache = cache
        self._energy_items = None  # built lazily by energy_floor()
        self._ratio = architecture.hw_cycle_ratio
        self._total_area = architecture.total_area
        self._technology = architecture.library.technology
        library = architecture.library
        self._library_key = fingerprint(library)
        axis_index = {name: index for index, name in enumerate(names)}
        infos = []
        sw_all = 0.0
        for bsb in bsbs:
            sw_time = _software_time(bsb, architecture.processor, cache)
            sw_all += sw_time
            infos.append(self._bsb_info(bsb, sw_time, library,
                                        axis_index, caps))
        self._infos = infos
        self._sw_all = sw_all

    def _bsb_info(self, bsb, sw_time, library, axis_index, caps):
        """Static per-BSB bound inputs, or ``None`` for a BSB that can
        never contribute gain anywhere in the space."""
        if not len(bsb.dfg):
            # An empty BSB runs in zero hardware steps under every
            # allocation: constant gain, one-state controller.
            return (fingerprint(bsb), sw_time, bsb.profile_count, 0, (), (),
                    controller_area_for_states(1,
                                               technology=self._technology))
        requirements = []
        _, per_type = _capability(bsb, library, self._cache)
        for optype in sorted(per_type, key=lambda optype: optype.value):
            axes = tuple(sorted(axis_index[name]
                                for name in per_type[optype]
                                if name in axis_index))
            if not axes:
                return None  # no searched resource executes this type
            if all(caps[axis] == 0 for axis in axes):
                return None  # zero-capped everywhere: never movable
            requirements.append(axes)
        loads = []
        for name, (op_count, latency) in sorted(
                exclusive_type_load(bsb.dfg, library).items()):
            axis = axis_index.get(name)
            if axis is None:
                return None
            loads.append((axis, op_count, latency))
        asap_lb = min_latency_states(bsb.dfg, library=library)
        return (fingerprint(bsb), sw_time, bsb.profile_count, asap_lb,
                tuple(requirements), tuple(loads), None)

    def _steps_floor(self, key, asap_lb, loads, capped):
        """Admissible schedule-length floor of one BSB under ``capped``
        counts, computed and memoised on a ``bounds`` miss."""
        cache = self._cache
        cache.stats.miss("bound")
        steps = asap_lb
        for (axis, op_count, latency), count in zip(loads, capped):
            floor = -(-op_count // count) * latency
            if floor > steps:
                steps = floor
        entry = (steps, controller_area_for_states(
            max(1, steps), technology=self._technology))
        cache.bounds[key] = entry
        return entry

    def speedup_bound(self, effective, prefix_area):
        """Optimistic speed-up of any completion of the prefix.

        ``effective`` holds, per axis, the decided digit or (for
        undecided axes) the restriction cap — the most generous count
        any leaf of the subtree can reach.  ``prefix_area`` is the
        decided digits' data-path area, the subtree's area floor.
        Returns ``inf`` when the optimistic saving covers the whole
        software time (nothing can be concluded, never prune).
        """
        sw_all = self._sw_all
        if sw_all <= 0:
            return 0.0
        capacity = self._total_area - prefix_area
        if capacity <= 0:
            return 0.0
        ratio = self._ratio
        floors = self._cache.bounds
        library_key = self._library_key
        # Memo hits are counted here and added once per call.
        hits = 0
        items = []
        for info in self._infos:
            if info is None:
                continue
            (bsb_key, sw_time, profile, asap_lb, requirements, loads,
             fixed_area) = info
            if fixed_area is not None:  # empty DFG: constant bound
                if sw_time > 0:
                    items.append((sw_time, fixed_area))
                continue
            movable = True
            for axes in requirements:
                if not any(effective[axis] for axis in axes):
                    movable = False
                    break
            if not movable:
                continue
            capped = tuple(min(effective[axis], op_count)
                           for axis, op_count, _ in loads)
            key = (bsb_key, library_key, capped)
            entry = floors.get(key)
            if entry is None:
                entry = self._steps_floor(key, asap_lb, loads, capped)
            else:
                hits += 1
            steps, eca_floor = entry
            gain = sw_time - profile * steps * ratio
            if gain > 0:
                items.append((gain, eca_floor))
        if hits:
            stats = self._cache.stats
            stats.hits["bound"] = stats.hits.get("bound", 0) + hits
        if not items:
            return 0.0
        items.sort(key=lambda item: item[0] / item[1], reverse=True)
        saving = fractional_knapsack(items, capacity)
        if saving <= 0:
            return 0.0
        hybrid_floor = sw_all - saving
        if hybrid_floor <= 0:
            return float("inf")
        # Mirror the evaluated expression exactly (monotone in the
        # saving even under floating point), then inflate.
        return speedup_percent(sw_all, hybrid_floor) * (1.0 + _BOUND_RTOL)

    def energy_floor(self, effective):
        """Admissible energy lower bound of any completion.

        Every completion of the prefix allocates, per axis, at most
        ``effective[axis]`` units, and hardware support only grows
        with counts — so a BSB unsupported under ``effective`` stays
        in software in *every* leaf of the subtree and contributes its
        software energy exactly, while a supported BSB contributes at
        least the cheaper of its two sides.  The per-BSB energies are
        the very pairs the evaluator sums
        (:func:`~repro.partition.model.bsb_energy_pairs`), summed in
        the same order, so no completion can land below the floor.
        """
        items = self._energy_items
        if items is None:
            from repro.partition.model import bsb_energy_pairs

            pairs = bsb_energy_pairs(self._bsbs, self._architecture,
                                     cache=self._cache)
            items = []
            for (sw_energy, hw_energy), info in zip(pairs, self._infos):
                # info is None for BSBs that can never move anywhere in
                # the space; requirements slot 4 holds the per-type
                # capable axes otherwise (empty tuple for an empty DFG,
                # which is movable under every allocation).
                if info is None or hw_energy is None:
                    items.append((sw_energy, None, ()))
                else:
                    items.append((sw_energy, hw_energy, info[4]))
            self._energy_items = items = tuple(items)
        floor = 0.0
        for sw_energy, hw_energy, requirements in items:
            if hw_energy is not None and hw_energy < sw_energy and all(
                    any(effective[axis] for axis in axes)
                    for axes in requirements):
                floor += hw_energy
            else:
                floor += sw_energy
        return floor
