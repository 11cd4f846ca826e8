"""Exhaustive allocation search (the paper's evaluation baseline).

Section 5: "the PACE algorithm is used to generate a partition of the
application for all possible allocations.  Through this exhaustive
search, the allocation that gives the best partitioning result in terms
of speed-up is marked as the best allocation."

The search space is the cross product of per-resource counts from zero
up to the ASAP-parallelism restriction caps.  The paper's footnote notes
the eigen benchmark has about a million allocations and could not be
exhausted; :func:`exhaustive_best_allocation` therefore accepts a
``max_evaluations`` budget and switches to seeded random sampling for
such spaces.  Every search runs serially in the calling process.

``search="pruned"`` walks the same space as a mixed-radix prefix tree
instead of a flat product stream: each partial allocation carries an
admissible area lower bound and speed-up upper bound (see
:mod:`repro.core.bounds`), so subtrees provably unable to beat the
incumbent are skipped wholesale, and the surviving leaves are
evaluated through the neighbour-aware
:class:`~repro.partition.evaluate.EvaluationScan` delta path.  The
winner is bit-identical to the brute scan's — pruning only ever
discards candidates the `_better` tournament would have discarded —
while the number of candidate evaluations can drop by orders of
magnitude on spaces with a dominant incumbent.
"""

import itertools
import random
from dataclasses import dataclass, field

from repro.core.allocator import required_resources
from repro.core.bounds import BoundEngine
from repro.core.objective import as_objective
from repro.core.restrictions import asap_restrictions
from repro.core.rmap import RMap
from repro.errors import AllocationError, ReproError
from repro.partition.evaluate import EvaluationScan, evaluate_allocation

#: Valid ``search=`` modes of :func:`exhaustive_best_allocation`.
SEARCH_MODES = ("brute", "pruned")


def allocation_space(bsbs, library, restrictions=None):
    """(resource names, per-resource count ranges) of the search space.

    Only resources some BSB actually needs are enumerated; counts range
    from 0 to the restriction cap of each resource — a resource capped
    at 0 contributes only the count 0, so the search never visits
    allocations that violate the ASAP restriction caps.
    """
    if restrictions is None:
        restrictions = asap_restrictions(bsbs, library)
    needed = RMap()
    for bsb in bsbs:
        needed = needed | required_resources(bsb, library)
    names = needed.names()
    ranges = [range(0, restrictions[name] + 1) for name in names]
    return names, ranges


def space_size(bsbs, library, restrictions=None):
    """Number of allocations the exhaustive search would visit."""
    _, ranges = allocation_space(bsbs, library, restrictions=restrictions)
    size = 1
    for counts in ranges:
        size *= len(counts)
    return size


def enumerate_allocations(bsbs, library, restrictions=None):
    """Yield every allocation in the search space (RMap instances), in
    lexicographic order (last resource fastest, as ``itertools.product``).
    """
    names, ranges = allocation_space(bsbs, library,
                                     restrictions=restrictions)
    for counts in itertools.product(*ranges):
        yield RMap._unchecked({name: count
                               for name, count in zip(names, counts)
                               if count})


#: Draw-attempt budget multiplier for the sampled search: with heavy
#: area infeasibility or a small distinct-feasible population the draw
#: loop must terminate even though the evaluation budget cannot be met.
_SAMPLE_ATTEMPT_FACTOR = 50


def _draw_feasible_samples(names, ranges, budget, unit_areas, total_area,
                           space, seed=1998):
    """``budget`` distinct, area-feasible random allocations.

    Each draw picks every resource's count uniformly from its range, in
    ``names`` order, from one seeded generator, so the candidates are
    reproducible.  Infeasible draws are *replaced* (drawing continues
    until the budget is met), duplicates are redrawn without being
    counted, and the loop gives up once every distinct allocation has
    been seen or an attempt cap is hit — whichever comes first.
    Returns ``(candidates, skipped_infeasible)`` where the second
    element counts the distinct infeasible allocations that were
    discarded along the way.
    """
    generator = random.Random(seed)
    seen = set()
    candidates = []
    skipped_infeasible = 0
    attempts = 0
    limit = max(budget * _SAMPLE_ATTEMPT_FACTOR, budget + 1000)
    while len(candidates) < budget and attempts < limit \
            and len(seen) < space:
        attempts += 1
        draws = [generator.randrange(len(counts)) for counts in ranges]
        allocation = RMap._unchecked({name: value for name, value
                                      in zip(names, draws) if value})
        if allocation in seen:
            continue
        seen.add(allocation)
        if allocation.area_from(unit_areas) > total_area:
            skipped_infeasible += 1
            continue
        candidates.append(allocation)
    return candidates, skipped_infeasible


@dataclass
class ExhaustiveResult:
    """Outcome of the exhaustive (or sampled) allocation search.

    Attributes:
        best_allocation: Allocation with the highest PACE speed-up.
        best_evaluation: Its full :class:`AllocationEvaluation`.
        evaluations: Number of candidates ranked: each was costed, and
            either partitioned by PACE or discarded because its
            admissible speed-up bound was below the incumbent's (the
            gate of a speed-up search that keeps no history and no
            front).  A gated and an ungated run of one search therefore
            report the same count.
        space: Total size of the allocation space.
        sampled: True when the space exceeded the evaluation budget and
            seeded pseudo-random sampling, not full enumeration,
            supplied the candidates.
        skipped_infeasible: Distinct candidates discarded without
            evaluation because their data-path area alone exceeded the
            ASIC area.  On the sampled path these were redrawn, so
            ``evaluations`` still meets the budget whenever enough
            feasible allocations exist.
        history: Optional list of (allocation, speedup) pairs for the
            candidates actually evaluated, in ``history_order`` order.
        search: The search that actually ran: ``"brute"``,
            ``"pruned"``, or ``"sampled"`` when the evaluation budget
            forced sampling regardless of the requested mode.
        history_order: ``"scan"`` when the history follows the
            lexicographic scan order of the enumerated space (brute and
            pruned searches — a pruned history is the scan-order
            subsequence that survived the bounds); ``"sampled"`` when
            it follows the seeded draw order of the sampled search,
            which is *not* lexicographic.
        subtrees_pruned: Prefix-tree subtrees the branch-and-bound
            speed-up bound discarded (0 for other searches).
        bound_evaluations: Bound computations spent finding them (the
            warm-start evaluation seeding the prune threshold, when one
            ran, is accounted here rather than in ``evaluations``).
        pruned_leaves: Candidate allocations inside those subtrees;
            ``evaluations + skipped_infeasible + pruned_leaves ==
            space`` holds for every enumerated search.
        objective: Name of the objective the tournament ranked
            candidates under (``"speedup"`` unless overridden).
        front: The :class:`~repro.core.objective.ParetoFront` collected
            over every evaluated candidate when the objective was
            ``"pareto"``; ``None`` otherwise.
    """

    best_allocation: RMap
    best_evaluation: object
    evaluations: int
    space: int
    sampled: bool
    skipped_infeasible: int = 0
    history: list = field(default_factory=list)
    search: str = "brute"
    history_order: str = "scan"
    subtrees_pruned: int = 0
    bound_evaluations: int = 0
    pruned_leaves: int = 0
    objective: str = "speedup"
    front: object = None


#: Candidates a best-bound-first scan ranks at a time.  It keeps the
#: pending candidates of one block in memory, so memory stays bounded
#: even for a brute scan of a space of a million allocations.
_BLOCK = 4096


def _scan_candidates(candidates, bsbs, architecture, area_quanta,
                     keep_history, session, unit_areas, check_area,
                     objective):
    """Evaluate a candidate stream: the brute and sampled scans.

    Candidates are ranked by ``objective`` (the default objective's
    tournament is bit-identical to the historical :func:`_better`);
    a Pareto-style objective additionally accumulates its dominance
    front over every evaluated candidate.  Under the speed-up objective
    with no history and no front, the scan runs best bound first (see
    :func:`_scan_best_bound_first`); otherwise every candidate is
    evaluated in scan order.  Returns (best allocation, best
    evaluation, history, front, counts), where ``counts`` holds the
    :class:`ExhaustiveResult` counters the scan moved.
    """
    library = architecture.library
    # remember="partitions": each candidate is visited exactly once, so
    # storing one whole evaluation per candidate would grow the session
    # cache linearly for ~zero in-process hits; schedules, cost arrays
    # and sequence tables still collapse across candidates.  PACE DP
    # results *are* remembered when a persistent store backs the
    # session — a warm restart replays them from disk — and dropped
    # otherwise.
    remember = "partitions" if (session.store is not None) else False
    scan = EvaluationScan(bsbs, architecture, area_quanta=area_quanta,
                          cache=session.cache, remember=remember)
    front = objective.new_front() if hasattr(objective, "new_front") \
        else None
    if objective.name == "speedup" and not keep_history and front is None:
        return _scan_best_bound_first(candidates, scan, architecture,
                                      unit_areas, check_area, objective)
    best_eval = None
    best_allocation = None
    counts = {"evaluations": 0, "skipped_infeasible": 0}
    history = []
    for allocation in candidates:
        if check_area and \
                allocation.area_from(unit_areas) > architecture.total_area:
            counts["skipped_infeasible"] += 1
            continue
        evaluation = scan.evaluate(allocation)
        counts["evaluations"] += 1
        if keep_history:
            history.append((allocation, evaluation.speedup))
        if front is not None:
            front.add(objective.vector(evaluation, library), evaluation)
        if best_eval is None or objective.better(evaluation, best_eval,
                                                 library):
            best_eval = evaluation
            best_allocation = allocation
    return best_allocation, best_eval, history, front, counts


def _scan_best_bound_first(candidates, scan, architecture, unit_areas,
                           check_area, objective):
    """The speed-up scan that partitions only candidates that can win.

    The candidates are taken :data:`_BLOCK` at a time.  Each block is
    ranked in scan order: every area-feasible candidate is counted as
    evaluated and bounded (:meth:`EvaluationScan.bound`), and one whose
    admissible PACE bound is below the incumbent of earlier blocks is
    dropped.  The rest are partitioned in descending bound order, ties
    in scan order, until the first bound below the incumbent: no
    candidate from there on can reach it.  The tournament compares
    (objective key, negated scan index), so the winner is the first
    maximum in scan order, exactly the sequential scan's.  Returns
    what :func:`_scan_candidates` returns, with an empty history.
    """
    library = architecture.library
    total_area = architecture.total_area
    counts = {"evaluations": 0, "skipped_infeasible": 0}
    # (objective key, negated scan index, allocation, evaluation)
    best = None
    candidates = iter(candidates)
    index = 0
    while True:
        block = list(itertools.islice(candidates, _BLOCK))
        if not block:
            break
        incumbent = float("-inf") if best is None else best[3].speedup
        ranked = []  # (negated bound, scan index, allocation, pending)
        for allocation in block:
            index += 1
            if check_area and \
                    allocation.area_from(unit_areas) > total_area:
                counts["skipped_infeasible"] += 1
                continue
            counts["evaluations"] += 1
            bound, pending = scan.bound(allocation)
            if bound >= incumbent:
                ranked.append((-bound, index, allocation, pending))
        # Scan indices are distinct, so the sort never compares further.
        ranked.sort()
        for negated, position, allocation, pending in ranked:
            if best is not None and -negated < best[3].speedup:
                break
            evaluation = scan.settle(allocation, pending)
            entry = (objective.key(evaluation, library), -position,
                     allocation, evaluation)
            if best is None or entry[:2] > best[:2]:
                best = entry
    if best is None:
        return None, None, [], None, counts
    return best[2], best[3], [], None, counts


def _warm_threshold(bsbs, architecture, restrictions, area_quanta,
                    session, names, ranges, unit_areas, remember):
    """Speed-up of Algorithm 1's allocation, as a strict prune threshold.

    The greedy allocator lands on (or near) the best allocation long
    before the lexicographic scan does, so its evaluated speed-up makes
    a strong bound from the very first node.  Soundness: the threshold
    only ever prunes subtrees whose bound is *strictly* below it, and
    it is the speed-up of a member of the search space — so no
    candidate tying the eventual winner can be discarded and the
    scan-order tie-breaking (hence the winner) stays bit-identical to
    the brute scan.  Returns ``None`` when the allocator fails or its
    allocation falls outside the space (custom restrictions can do
    that), where that guarantee would not hold.
    """
    try:
        allocation = session.allocate(
            bsbs, architecture.total_area,
            restrictions=restrictions).allocation
    except ReproError:
        return None
    caps = {name: len(counts) - 1
            for name, counts in zip(names, ranges)}
    for name, count in allocation.items():
        if count > caps.get(name, 0):
            return None
    if allocation.area_from(unit_areas) > architecture.total_area:
        return None
    evaluation = evaluate_allocation(bsbs, allocation, architecture,
                                     area_quanta=area_quanta,
                                     cache=session.cache,
                                     remember=remember)
    return evaluation.speedup


def _scan_pruned(bsbs, architecture, restrictions, area_quanta,
                 keep_history, session, names, ranges, unit_areas, total,
                 objective):
    """Branch-and-bound over the allocation space's prefix tree.

    Candidate 0 — the empty allocation, always area-feasible, hence a
    member of the space under any objective — is evaluated up front as
    the first incumbent, and (under the default objective) the greedy
    allocator's speed-up seeds a strict prune threshold, so the walk
    prunes against strong bounds from its first node.

    The other candidates are walked as a mixed-radix prefix tree (first
    resource outermost, matching ``itertools.product``).  A node whose
    decided digits already exceed the ASIC area accounts its whole
    subtree as ``skipped_infeasible`` — and, since a digit only ever
    adds area, so do all of its later siblings at once.  A feasible
    node whose admissible bound on the objective's primary axis cannot
    beat the incumbent under the objective's tournament accounts its
    subtree as pruned: the default objective keeps the historical
    speed-up bound with its exact-tie area rule, area prunes on the
    negated prefix area (a digit only adds area), and energy prunes on
    the negated :meth:`~repro.core.bounds.BoundEngine.energy_floor`.
    Surviving leaves are evaluated in scan order through the
    :class:`EvaluationScan` delta path, so evaluated neighbours reuse
    each other's unchanged cost groups.  Returns what
    :func:`_scan_candidates` returns.
    """
    remember = "partitions" if (session.store is not None) else False
    library = architecture.library
    incumbent = RMap()
    inc_eval = evaluate_allocation(bsbs, incumbent, architecture,
                                   area_quanta=area_quanta,
                                   cache=session.cache, remember=remember)
    # The warm allocator threshold is a *speed-up* achieved inside the
    # space; under any other objective it bounds nothing.
    warm_su = None
    if objective.name == "speedup":
        warm_su = _warm_threshold(bsbs, architecture, restrictions,
                                  area_quanta, session, names, ranges,
                                  unit_areas, remember)
    history = [(incumbent, inc_eval.speedup)] if keep_history else []
    # The warm-start evaluation exists only to seed the threshold: it is
    # accounted as bound work, not as a scanned candidate.
    counts = {"evaluations": 1, "skipped_infeasible": 0,
              "subtrees_pruned": 0,
              "bound_evaluations": 0 if warm_su is None else 1,
              "pruned_leaves": 0}
    if total == 1:
        return incumbent, inc_eval, history, None, counts

    scan = EvaluationScan(bsbs, architecture, area_quanta=area_quanta,
                          cache=session.cache, remember=remember)
    caps = [len(values) - 1 for values in ranges]
    engine = BoundEngine(bsbs, architecture, names, caps, session.cache)
    axes = len(caps)
    # suffix[depth] = number of leaves below one node at that depth.
    suffix = [1] * (axes + 1)
    for axis in range(axes - 1, -1, -1):
        suffix[axis] = suffix[axis + 1] * (caps[axis] + 1)
    unit = [unit_areas[name] for name in names]
    total_area = architecture.total_area

    speedup_mode = objective.name == "speedup"
    # A leaf below the incumbent's speed-up cannot win; without a
    # history to fill, its partition is skipped (EvaluationScan's
    # ``beat``).
    gated = speedup_mode and not keep_history
    energy_mode = objective.name == "energy"
    inc_su = inc_eval.speedup
    inc_area = incumbent.area(library)
    inc_primary = objective.primary(inc_eval, library)
    digits = [0] * axes
    effective = list(caps)

    def descend(depth, node_lo, prefix_area):
        nonlocal incumbent, inc_eval, inc_su, inc_area, inc_primary
        if depth == axes:
            allocation = RMap._unchecked(
                {name: digit for name, digit in zip(names, digits)
                 if digit})
            evaluation = scan.evaluate(allocation,
                                       beat=inc_su if gated else None)
            counts["evaluations"] += 1
            if evaluation is None:
                return
            if keep_history:
                history.append((allocation, evaluation.speedup))
            if objective.better(evaluation, inc_eval, library):
                incumbent, inc_eval = allocation, evaluation
                inc_su = evaluation.speedup
                inc_area = allocation.area(library)
                inc_primary = objective.primary(evaluation, library)
            return
        span = suffix[depth + 1]
        for digit in range(caps[depth] + 1):
            child_lo = node_lo + digit * span
            # Candidate 0 was evaluated up front: the subtrees on its
            # path hold one candidate fewer, and its leaf none.
            primed = child_lo == 0
            leaves = span - primed
            if not leaves:
                continue
            area = prefix_area + digit * unit[depth]
            if area > total_area:
                # A digit only adds area, so every later sibling's
                # subtree is infeasible too: account them all and stop.
                counts["skipped_infeasible"] += \
                    node_lo + suffix[depth] - child_lo - primed
                break
            digits[depth] = digit
            effective[depth] = digit
            counts["bound_evaluations"] += 1
            if speedup_mode:
                bound = engine.speedup_bound(effective, area)
                prunable = (warm_su is not None and bound < warm_su) \
                    or bound < inc_su \
                    or (bound == inc_su and area >= inc_area)
                # No completion can win the `_better` tournament: the
                # speed-up bound is admissible, the warm threshold is
                # achieved inside the space and only prunes *strictly*
                # worse subtrees, and on an exact incumbent tie the
                # area can only grow from the prefix's.
            else:
                # Generic admissible upper bound on the primary axis:
                # higher-is-better, so area negates the prefix floor
                # and energy negates the completion energy floor.  The
                # comparison is strict, so an exact tie with the
                # incumbent is never pruned and the scan-order
                # tie-break survives.
                if energy_mode:
                    bound = -engine.energy_floor(effective)
                else:
                    bound = -area
                prunable = bound < inc_primary
            if prunable:
                counts["subtrees_pruned"] += 1
                counts["pruned_leaves"] += leaves
            else:
                descend(depth + 1, child_lo, area)
        digits[depth] = 0
        effective[depth] = caps[depth]

    descend(0, 0, 0)
    return incumbent, inc_eval, history, None, counts


def exhaustive_best_allocation(bsbs, architecture, restrictions=None,
                               max_evaluations=None, area_quanta=200,
                               keep_history=False, session=None,
                               search="brute", objective="speedup"):
    """Search the allocation space for the objective's best allocation.

    ``objective`` names the tournament ranking candidates (an
    :class:`~repro.core.objective.Objective` instance is accepted
    too).  The default ``"speedup"`` objective reproduces the paper's
    contract — highest speed-up, ties to the smaller data-path — bit
    for bit; ``"area"`` and ``"energy"`` minimise their axis with
    speed-up as tie-break; ``"pareto"`` keeps the default tournament
    for the single reported winner while additionally collecting the
    (speed-up, area, energy) dominance front over every evaluated
    candidate into the result's ``front``.  An objective without an
    admissible bound (``pareto`` needs every non-dominated point, so
    nothing may be pruned) silently downgrades ``search="pruned"`` to
    the brute scan; the result's ``search`` field reports what ran.

    When the space exceeds ``max_evaluations``, distinct feasible
    allocations are drawn pseudo-randomly (seeded, reproducible) until
    the budget is met — the result is then marked ``sampled``, matching
    the paper's treatment of eigen, where the "best" allocation came
    from numerous experiments rather than full enumeration.

    ``search`` selects how an *enumerated* space is walked.  ``"brute"``
    scans every candidate; ``"pruned"`` runs the branch-and-bound walk
    (admissible bounds over the allocation prefix tree plus delta
    evaluation of neighbouring survivors) whose winner — speed-up,
    allocation and tie-breaks included — is bit-identical to the brute
    scan's, typically after far fewer candidate evaluations.  The mode
    is ignored when the budget forces sampling; the result's ``search``
    field records what actually ran.

    Every candidate is evaluated through an engine
    :class:`~repro.engine.session.Session` (a private one when none is
    passed), whose cache collapses the thousands of candidate
    allocations onto the few distinct schedules, cost arrays and PACE
    sequence tables they actually induce.  A shared session lets the
    search reuse work done by earlier evaluations of the same BSBs —
    and vice versa; a session opened with ``cache_dir`` additionally
    persists that work across process restarts, including the work of
    a search that was interrupted or failed.
    """
    if session is None:
        from repro.engine.session import Session

        session = Session(library=architecture.library)
    if max_evaluations is not None and max_evaluations < 1:
        raise AllocationError("max_evaluations must be >= 1, got %r"
                              % (max_evaluations,))
    if search not in SEARCH_MODES:
        raise AllocationError("search must be one of %r, got %r"
                              % (SEARCH_MODES, search))
    objective = as_objective(objective)
    if search == "pruned" and not objective.bounded:
        search = "brute"
    library = architecture.library
    # Register the BSBs with the session's persistent store (and
    # hydrate their entries) no matter how the search was entered —
    # with explicit restrictions the session.restrictions() path below
    # is skipped, and without this the store would sit inert.
    session._adopt(bsbs, library=library)
    if restrictions is None:
        restrictions = session.restrictions(bsbs, library=library)
    names, ranges = allocation_space(bsbs, library,
                                     restrictions=restrictions)
    total = 1
    for values in ranges:
        total *= len(values)
    unit_areas = {name: library.area_of(name) for name in names}
    if max_evaluations is not None and total > max_evaluations:
        search = "sampled"

    skipped_drawing = 0
    if search == "sampled":
        candidates, skipped_drawing = _draw_feasible_samples(
            names, ranges, max_evaluations, unit_areas,
            architecture.total_area, total)
    elif search == "brute":
        candidates = enumerate_allocations(bsbs, library,
                                           restrictions=restrictions)
    # Persist what this search learned even when it is interrupted:
    # searches are long, and a crash or Ctrl-C should not lose them.
    # For a fully warm search the flush skips itself; callers batching
    # many searches on one session pay one transaction per search that
    # actually computed something new.
    try:
        if search == "pruned":
            outcome = _scan_pruned(bsbs, architecture, restrictions,
                                   area_quanta, keep_history, session,
                                   names, ranges, unit_areas, total,
                                   objective)
        else:
            outcome = _scan_candidates(candidates, bsbs, architecture,
                                       area_quanta, keep_history, session,
                                       unit_areas,
                                       check_area=search == "brute",
                                       objective=objective)
    finally:
        session.save_store()
    best_allocation, best_eval, history, front, counts = outcome
    counts["skipped_infeasible"] += skipped_drawing

    if best_eval is None:
        raise AllocationError("no feasible allocation fits the ASIC area")
    return ExhaustiveResult(
        best_allocation=best_allocation,
        best_evaluation=best_eval,
        space=total,
        sampled=search == "sampled",
        history=history,
        search=search,
        history_order="sampled" if search == "sampled" else "scan",
        objective=objective.name,
        front=front,
        **counts,
    )


def _better(candidate, incumbent, library):
    """Higher speed-up wins; ties go to the smaller data-path."""
    if candidate.speedup != incumbent.speedup:
        return candidate.speedup > incumbent.speedup
    return (candidate.allocation.area(library)
            < incumbent.allocation.area(library))
