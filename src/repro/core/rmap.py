"""The RMap (Resource Map) algebra of Definition 1.

An RMap maps resources to non-negative integer counts.  Two operators
are defined (Example 1 of the paper):

* union ``A | B`` adds counts pointwise:
  ``{Adder:2, Mult:1} | {Sub:1, Mult:2} == {Adder:2, Mult:3, Sub:1}``;
* difference ``A - B`` subtracts pointwise, saturating at zero and
  dropping empty entries:
  ``{Adder:2, Mult:1} - {Sub:1, Mult:2} == {Adder:2}``.

Resources are identified by their library name (a string), which keeps
RMaps hashable-friendly, serialisable and independent of resource-object
identity.
"""

from repro.errors import AllocationError


class RMap:
    """A mapping from resource names to positive instance counts.

    The map never stores zero or negative counts: assigning zero removes
    the entry, mirroring the paper's set-like treatment of allocations.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts=None):
        self._counts = {}
        if counts:
            for name, count in dict(counts).items():
                self[name] = count

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, name):
        """Count for ``name``; zero when absent (total map into integers)."""
        return self._counts.get(name, 0)

    def get(self, name, default=0):
        return self._counts.get(name, default)

    def __setitem__(self, name, count):
        if not isinstance(name, str):
            raise AllocationError("RMap keys are resource names (str), "
                                  "got %r" % (name,))
        if not isinstance(count, int):
            raise AllocationError("RMap counts are integers, got %r"
                                  % (count,))
        if count < 0:
            raise AllocationError("RMap counts must be >= 0, got %s -> %d"
                                  % (name, count))
        if count == 0:
            self._counts.pop(name, None)
        else:
            self._counts[name] = count

    def __contains__(self, name):
        return name in self._counts

    def __iter__(self):
        return iter(sorted(self._counts))

    def __len__(self):
        return len(self._counts)

    def items(self):
        """(name, count) pairs in deterministic (name) order."""
        return [(name, self._counts[name]) for name in sorted(self._counts)]

    def names(self):
        """Resource names with a positive count."""
        return sorted(self._counts)

    # ------------------------------------------------------------------
    # Definition 1 operators
    # ------------------------------------------------------------------
    def union(self, other):
        """Pointwise sum (the paper's ∪, see Example 1)."""
        result = RMap(self._counts)
        for name, count in RMap._coerce(other).items():
            result[name] = result[name] + count
        return result

    def difference(self, other):
        """Pointwise saturating subtraction (the paper's \\)."""
        result = RMap(self._counts)
        for name, count in RMap._coerce(other).items():
            result[name] = max(0, result[name] - count)
        return result

    def __or__(self, other):
        return self.union(other)

    def __sub__(self, other):
        return self.difference(other)

    def incremented(self, name, delta=1):
        """A copy with ``name``'s count changed by ``delta``."""
        result = RMap(self._counts)
        result[name] = result[name] + delta
        return result

    # ------------------------------------------------------------------
    # Comparisons and helpers
    # ------------------------------------------------------------------
    def covers(self, other):
        """True if every count in ``other`` is <= the count here."""
        return all(self[name] >= count
                   for name, count in RMap._coerce(other).items())

    def is_empty(self):
        return not self._counts

    def area(self, library):
        """Total data-path area of this allocation under ``library``."""
        return sum(library.area_of(name) * count
                   for name, count in self._counts.items())

    def area_from(self, unit_areas):
        """Total area using a precomputed {name: unit area} mapping.

        Sums in the same (insertion) order as :meth:`area`, so callers
        iterating a search space get bit-identical totals without the
        per-name library dispatch.
        """
        return sum(unit_areas[name] * count
                   for name, count in self._counts.items())

    @classmethod
    def _unchecked(cls, counts):
        """Wrap a trusted {name: positive int} dict without validation.

        Internal fast path for enumerators that construct millions of
        maps from already-validated names and counts; the dict is
        adopted, not copied.
        """
        rmap = cls.__new__(cls)
        rmap._counts = counts
        return rmap

    def copy(self):
        return RMap(self._counts)

    def as_dict(self):
        """Plain-dict snapshot (name -> count)."""
        return dict(self._counts)

    @staticmethod
    def _coerce(value):
        if isinstance(value, RMap):
            return value
        return RMap(value)

    # ------------------------------------------------------------------
    # Equality / representation
    # ------------------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, RMap):
            return self._counts == other._counts
        if isinstance(other, dict):
            return self._counts == {k: v for k, v in other.items() if v}
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._counts.items()))

    def __repr__(self):
        body = ", ".join("%s: %d" % pair for pair in self.items())
        return "RMap({%s})" % body
