"""Pluggable search objectives over allocation evaluations.

The paper optimises one scalar — PACE speed-up under the ASIC area cap
— and until this module that contract was welded into every consumer:
the ``_better`` tournament of :mod:`repro.core.exhaustive`, the design
-iteration loop's ``evaluation.speedup`` comparisons, the service wire
format and the CLI tables.  An :class:`Objective` lifts the contract
into one seam:

* :meth:`Objective.key` maps an evaluation to a *maximise-oriented*
  sortable tuple, so ``better(candidate, incumbent)`` is simply a tuple
  comparison and incumbent-wins-on-tie falls out of ``>`` being strict;
* :meth:`Objective.primary` is the key's leading axis — the scalar the
  pruned walk's strict-only prune thresholds compare;
* :meth:`Objective.improves` compares *only* the primary axis, which is
  what the reduce-only design iteration accepts steps on (the default
  objective must reproduce its historical pure-speed-up comparisons);
* :attr:`Objective.bounded` says whether the branch-and-bound search
  has an admissible per-node bound for the objective — objectives
  without one fall back to the brute scan.

:class:`SpeedupObjective` (the default) reproduces the historical
tournament exactly: higher speed-up wins, ties go to the smaller
data-path, exact ties keep the incumbent (scan order).
:class:`ParetoObjective` keeps that tournament for the single reported
winner while additionally collecting the non-dominated front over
(speed-up, −area, −energy) with a dominance filter and a hypervolume
metric (:class:`ParetoFront`).

Objectives are stateless singletons addressed by name — the form that
travels across process forks and the service wire.
"""

from repro.errors import ReproError

#: Objective names understood by every ``--objective`` surface.
OBJECTIVE_NAMES = ("speedup", "area", "energy", "pareto")


class Objective:
    """One total order over allocation evaluations.

    Subclasses define :meth:`key`; every comparison derives from it.
    Keys are maximise-oriented: minimised quantities (area, energy)
    enter negated, so ``>`` on keys is always "strictly better".
    """

    #: Registry/wire name of the objective.
    name = None
    #: True when :class:`~repro.core.bounds.BoundEngine` offers an
    #: admissible per-node bound, enabling ``search="pruned"``.
    bounded = False

    def key(self, evaluation, library):
        """Maximise-oriented sortable tuple of one evaluation."""
        raise NotImplementedError

    def primary(self, evaluation, library):
        """The key's leading axis (the oriented prune-threshold scalar)."""
        return self.key(evaluation, library)[0]

    def better(self, candidate, incumbent, library):
        """Strictly better under the full key (ties keep the incumbent)."""
        return self.key(candidate, library) > self.key(incumbent, library)

    def improves(self, candidate, incumbent, library):
        """Strictly better on the primary axis alone.

        The design-iteration loop historically accepted steps on pure
        speed-up (no area tie-break); routing it through this method
        keeps that behaviour bit-identical under the default objective
        while generalising the axis.
        """
        return (self.primary(candidate, library)
                > self.primary(incumbent, library))

    def __repr__(self):
        return "%s(name=%r)" % (type(self).__name__, self.name)


class SpeedupObjective(Objective):
    """The paper's contract: speed-up, area tie-break, incumbent wins."""

    name = "speedup"
    bounded = True

    def key(self, evaluation, library):
        return (evaluation.speedup,
                -evaluation.allocation.area(library))


class AreaObjective(Objective):
    """Smallest data-path wins; speed-up breaks area ties."""

    name = "area"
    bounded = True

    def key(self, evaluation, library):
        return (-evaluation.allocation.area(library),
                evaluation.speedup)


class EnergyObjective(Objective):
    """Lowest energy wins; speed-up, then area, break ties."""

    name = "energy"
    bounded = True

    def key(self, evaluation, library):
        return (-evaluation.energy, evaluation.speedup,
                -evaluation.allocation.area(library))


def dominates(left, right):
    """True when oriented vector ``left`` Pareto-dominates ``right``:
    no axis worse, at least one strictly better."""
    return all(l >= r for l, r in zip(left, right)) and \
        any(l > r for l, r in zip(left, right))


class ParetoFront:
    """The non-dominated set of (oriented vector, payload) points.

    Insertion keeps the *first* point of an exact vector tie (scan
    order), mirroring the incumbent-wins tournament; dominated points
    are filtered on entry and evicted when a new point dominates them.
    The final set is order-independent up to exact ties.
    """

    __slots__ = ("_points",)

    def __init__(self):
        self._points = []  # insertion-ordered (vector, payload) pairs

    def __len__(self):
        return len(self._points)

    def add(self, vector, payload=None):
        """Offer one point; True when it entered the front."""
        vector = tuple(vector)
        for existing, _ in self._points:
            if existing == vector or dominates(existing, vector):
                return False
        self._points = [(existing, kept) for existing, kept
                        in self._points
                        if not dominates(vector, existing)]
        self._points.append((vector, payload))
        return True

    def items(self):
        """(vector, payload) pairs in insertion (scan) order."""
        return list(self._points)

    def points(self):
        """(vector, payload) pairs sorted descending by vector —
        the deterministic reporting order."""
        return sorted(self._points, key=lambda point: point[0],
                      reverse=True)

    def vectors(self):
        """The oriented vectors, in :meth:`points` order."""
        return [vector for vector, _ in self.points()]

    def reference_point(self):
        """The nadir-ish hypervolume reference: per-axis minimum over
        the front, pushed out by max(10% of the axis span, 1.0) so
        boundary points contribute non-zero volume."""
        vectors = self.vectors()
        if not vectors:
            return ()
        axes = len(vectors[0])
        reference = []
        for axis in range(axes):
            values = [vector[axis] for vector in vectors]
            low, high = min(values), max(values)
            reference.append(low - max(0.1 * (high - low), 1.0))
        return tuple(reference)

    def hypervolume(self, reference=None):
        """Volume dominated by the front above ``reference``.

        Oriented maximise-space hypervolume via recursive slicing on
        the leading axis.  With the default reference every front
        point strictly dominates it, so the metric is positive for any
        non-empty front and monotone under front improvement.
        """
        if not self._points:
            return 0.0
        if reference is None:
            reference = self.reference_point()
        return _hypervolume(self.vectors(), tuple(reference))

    def __repr__(self):
        return "ParetoFront(points=%d)" % len(self._points)


def _hypervolume(vectors, reference):
    """Recursive slab hypervolume of maximise-oriented ``vectors``."""
    points = sorted({tuple(vector) for vector in vectors
                     if all(value > floor for value, floor
                            in zip(vector, reference))},
                    reverse=True)
    if not points:
        return 0.0
    if len(reference) == 1:
        return points[0][0] - reference[0]
    volume = 0.0
    for index, point in enumerate(points):
        lower = points[index + 1][0] if index + 1 < len(points) \
            else reference[0]
        width = point[0] - lower
        if width <= 0:
            continue
        volume += width * _hypervolume(
            [other[1:] for other in points[:index + 1]], reference[1:])
    return volume


class ParetoObjective(Objective):
    """Collect the (speed-up, −area, −energy) non-dominated front.

    The single reported winner stays the :class:`SpeedupObjective`
    tournament's — the front is the *additional* product — so a Pareto
    search's ``best_allocation`` is bit-identical to the default
    search's.  No admissible per-node bound covers all three axes at
    once, so the objective is unbounded and pruned searches fall back
    to the brute scan.
    """

    name = "pareto"
    bounded = False
    #: Human names of the oriented vector's axes, in order.
    axes = ("speedup", "area", "energy")

    def key(self, evaluation, library):
        return (evaluation.speedup,
                -evaluation.allocation.area(library))

    def vector(self, evaluation, library):
        """The oriented dominance vector of one evaluation."""
        return (evaluation.speedup,
                -evaluation.allocation.area(library),
                -evaluation.energy)

    def new_front(self):
        return ParetoFront()


_OBJECTIVES = {
    "speedup": SpeedupObjective(),
    "area": AreaObjective(),
    "energy": EnergyObjective(),
    "pareto": ParetoObjective(),
}

#: The objective every surface defaults to — the paper's contract.
DEFAULT_OBJECTIVE = _OBJECTIVES["speedup"]


def get_objective(name):
    """The singleton objective registered under ``name``."""
    try:
        return _OBJECTIVES[name]
    except KeyError:
        raise ReproError("unknown objective %r (expected one of %s)"
                         % (name, ", ".join(OBJECTIVE_NAMES))) from None


def as_objective(objective):
    """Coerce a name / ``None`` / :class:`Objective` to an objective."""
    if objective is None:
        return DEFAULT_OBJECTIVE
    if isinstance(objective, Objective):
        return objective
    return get_objective(objective)
