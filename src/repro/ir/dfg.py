"""Data-flow graphs: DAGs of operations with data-dependency edges.

The DFG is the contents of a leaf Basic Scheduling Block.  It is the
structure consumed by the ASAP/ALAP schedulers, the FURO metric and the
hardware time estimators.  Edges point from a producer operation to the
consumer that uses its result; the graph must stay acyclic.
"""

import heapq

from repro.errors import CdfgError
from repro.ir.ops import Operation, OpType, make_op


class DFG:
    """A data-flow graph of :class:`~repro.ir.ops.Operation` nodes.

    Edges are kept as per-uid successor and predecessor sets keyed by
    operation uid, which keeps hashing cheap while letting callers
    retrieve the full :class:`Operation` dataclass via :meth:`operation`.
    """

    def __init__(self, name=""):
        self.name = name
        self._ops = {}
        self._succ = {}
        self._pred = {}
        self._topo_cache = None
        self._pred_cache = {}
        self._succ_cache = {}
        self._signature_cache = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_operation(self, operation):
        """Add an operation node; returns the operation for chaining."""
        if not isinstance(operation, Operation):
            raise CdfgError("DFG nodes must be Operation instances, got %r"
                            % (operation,))
        if operation.uid in self._ops:
            raise CdfgError("duplicate operation uid %d in DFG %r"
                            % (operation.uid, self.name))
        self._ops[operation.uid] = operation
        self._succ[operation.uid] = set()
        self._pred[operation.uid] = set()
        self._invalidate_query_caches()
        return operation

    def new_operation(self, optype, label="", value=None):
        """Create and add a fresh operation of the given type."""
        return self.add_operation(make_op(optype, label=label, value=value))

    def add_dependency(self, producer, consumer):
        """Add a data-dependency edge producer -> consumer.

        Raises :class:`CdfgError` if either endpoint is unknown or if the
        edge would create a cycle.
        """
        for op in (producer, consumer):
            if op.uid not in self._ops:
                raise CdfgError("operation %s is not part of DFG %r"
                                % (op, self.name))
        if producer.uid == consumer.uid:
            raise CdfgError("self-dependency on %s" % producer)
        # The graph is acyclic, so the new edge closes a cycle exactly
        # when the producer is reachable from the consumer.
        if producer.uid in _reachable(consumer.uid, self._succ):
            raise CdfgError("dependency %s -> %s creates a cycle"
                            % (producer, consumer))
        self._link(producer.uid, consumer.uid)
        self._invalidate_query_caches()

    def _link(self, producer_uid, consumer_uid):
        self._succ[producer_uid].add(consumer_uid)
        self._pred[consumer_uid].add(producer_uid)

    def _edges(self):
        """(producer uid, consumer uid) pairs, in no particular order."""
        return [(producer, consumer)
                for producer, consumers in self._succ.items()
                for consumer in consumers]

    def _invalidate_query_caches(self):
        self._topo_cache = None
        self._pred_cache.clear()
        self._succ_cache.clear()
        self._signature_cache = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def operation(self, uid):
        """Return the :class:`Operation` with the given uid."""
        try:
            return self._ops[uid]
        except KeyError:
            raise CdfgError("no operation with uid %d in DFG %r"
                            % (uid, self.name)) from None

    def operations(self):
        """All operations, in deterministic (uid) order."""
        return [self._ops[uid] for uid in sorted(self._ops)]

    def __len__(self):
        return len(self._ops)

    def __iter__(self):
        return iter(self.operations())

    def __contains__(self, operation):
        return getattr(operation, "uid", None) in self._ops

    def predecessors(self, operation):
        """Direct data-dependency predecessors of an operation.

        Memoised per node (schedulers query adjacency in inner loops);
        callers must not mutate the returned list.
        """
        uid = operation.uid
        cached = self._pred_cache.get(uid)
        if cached is None:
            cached = [self._ops[each] for each in sorted(self._pred[uid])]
            self._pred_cache[uid] = cached
        return cached

    def successors(self, operation):
        """Direct data-dependency successors of an operation.

        Memoised per node; callers must not mutate the returned list.
        """
        uid = operation.uid
        cached = self._succ_cache.get(uid)
        if cached is None:
            cached = [self._ops[each] for each in sorted(self._succ[uid])]
            self._succ_cache[uid] = cached
        return cached

    def transitive_successors(self, operation):
        """All operations reachable from ``operation`` (Succ(i) in Def. 2)."""
        return {self._ops[uid] for uid in
                _reachable(operation.uid, self._succ)}

    def transitive_predecessors(self, operation):
        """All operations that reach ``operation``."""
        return {self._ops[uid] for uid in
                _reachable(operation.uid, self._pred)}

    def sources(self):
        """Operations with no predecessors."""
        return [self._ops[uid] for uid in sorted(self._ops)
                if not self._pred[uid]]

    def sinks(self):
        """Operations with no successors."""
        return [self._ops[uid] for uid in sorted(self._ops)
                if not self._succ[uid]]

    def topological_order(self):
        """Operations in a deterministic topological order.

        Kahn's walk that always takes the smallest ready uid, so the
        order is the lexicographically smallest one.  On a graph with a
        cycle the walk comes up short: the operations on and behind the
        cycle are missing.  The order is memoised (and invalidated by
        mutation): every scheduler walk starts here, and the graphs are
        immutable once the frontend built them.  Callers must not
        mutate the returned list.
        """
        if self._topo_cache is None:
            waiting = {uid: len(preds) for uid, preds in self._pred.items()
                       if preds}
            ready = [uid for uid in self._ops if uid not in waiting]
            heapq.heapify(ready)
            order = []
            while ready:
                uid = heapq.heappop(ready)
                order.append(self._ops[uid])
                for successor in self._succ[uid]:
                    waiting[successor] -= 1
                    if not waiting[successor]:
                        del waiting[successor]
                        heapq.heappush(ready, successor)
            self._topo_cache = order
        return self._topo_cache

    def op_types(self):
        """The set of operation types present in this DFG."""
        return {op.optype for op in self._ops.values()}

    def count_by_type(self):
        """Mapping op type -> number of operations of that type."""
        counts = {}
        for op in self._ops.values():
            counts[op.optype] = counts.get(op.optype, 0) + 1
        return counts

    def operations_of_type(self, optype):
        """All operations of a given type, in uid order."""
        return [op for op in self.operations() if op.optype == optype]

    def structural_signature(self):
        """A uid-independent, hashable description of the graph.

        Operations are numbered by creation order (uids are assigned
        from a monotone counter, so sorted-uid order is creation order)
        and edges reported against those dense indices.  Two DFGs built
        by the same deterministic construction — the same application
        compiled in two different processes, say — therefore share one
        signature even though their operation uids differ, which is
        what lets the persistent engine store address schedules and
        costs by content instead of by process-local identity.
        """
        if self._signature_cache is None:
            index_of = {uid: index for index, uid in
                        enumerate(sorted(self._ops))}
            nodes = tuple((op.optype.value, op.value)
                          for op in self.operations())
            edges = tuple(sorted((index_of[producer], index_of[consumer])
                                 for producer, consumer
                                 in self._edges()))
            self._signature_cache = (self.name, nodes, edges)
        return self._signature_cache

    # ------------------------------------------------------------------
    # Persistence: neutral payloads with uid re-assignment on load
    # ------------------------------------------------------------------
    def to_payload(self):
        """A uid-free, JSON-compatible description of this graph.

        Operations are listed in creation order (sorted-uid order) and
        edges refer to those dense indices — the same translation
        :meth:`structural_signature` performs — so the payload of a
        graph is identical no matter which process built it.  Load it
        back with :meth:`from_payload`, which assigns *fresh* uids from
        the current process's counter.
        """
        operations = self.operations()
        index_of = {op.uid: index for index, op in enumerate(operations)}
        return {
            "name": self.name,
            "ops": [[op.optype.value, op.label, op.value]
                    for op in operations],
            "edges": sorted([index_of[producer], index_of[consumer]]
                            for producer, consumer in self._edges()),
        }

    @classmethod
    def from_payload(cls, payload):
        """Rebuild a graph from :meth:`to_payload` output.

        Every operation gets a **fresh uid** from this process's
        monotone counter, so a loaded graph can never collide with
        graphs already live here — this is the uid re-assignment that
        lets compiled programs cross the process boundary.  Because
        creation order is preserved, :meth:`structural_signature` of
        the clone equals the original's, which is what keeps the
        content-addressed store keys stable.  Raises
        :class:`CdfgError` on any malformed payload.
        """
        if not isinstance(payload, dict):
            raise CdfgError("DFG payload must be a mapping, got %r"
                            % (payload,))
        try:
            name = payload["name"]
            op_rows = payload["ops"]
            edge_rows = payload["edges"]
        except (KeyError, TypeError):
            raise CdfgError("DFG payload missing name/ops/edges") from None
        if not isinstance(op_rows, (list, tuple)) \
                or not isinstance(edge_rows, (list, tuple)):
            raise CdfgError("DFG payload ops/edges must be sequences")
        dfg = cls(name=str(name))
        operations = []
        try:
            for type_value, label, value in op_rows:
                operations.append(dfg.new_operation(
                    OpType(type_value), label=str(label), value=value))
        except (TypeError, ValueError) as exc:
            raise CdfgError("bad DFG payload operation: %s"
                            % (exc,)) from None
        for row in edge_rows:
            try:
                producer_index, consumer_index = row
            except (TypeError, ValueError):
                raise CdfgError("bad DFG payload edge %r" % (row,)) \
                    from None
            # Explicit bounds (no Python negative indexing): a
            # corrupted index must fail here — and fall back to a cold
            # compile — never silently hydrate a different graph.
            if not all(isinstance(index, int)
                       and 0 <= index < len(operations)
                       for index in (producer_index, consumer_index)):
                raise CdfgError("bad DFG payload edge %r" % (row,))
            if producer_index == consumer_index:
                raise CdfgError("self-dependency in DFG payload")
            dfg._link(operations[producer_index].uid,
                      operations[consumer_index].uid)
        # Edges went in unchecked for speed (loading is the warm path);
        # one topological walk at the end keeps the DAG contract.
        dfg._invalidate_query_caches()
        if len(dfg.topological_order()) < len(operations):
            raise CdfgError("DFG payload %r contains a cycle" % (name,))
        return dfg

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self, name=None):
        """Deep-enough copy: same Operation objects, fresh graph."""
        clone = DFG(name=self.name if name is None else name)
        for op in self.operations():
            clone.add_operation(op)
        for producer_uid, consumer_uid in self._edges():
            clone._link(producer_uid, consumer_uid)
        return clone

    def __repr__(self):
        return "DFG(name=%r, ops=%d, edges=%d)" % (
            self.name, len(self._ops),
            sum(len(consumers) for consumers in self._succ.values()))


def _reachable(start, edges):
    """Uids reachable from ``start`` along ``edges`` (uid -> uid set)."""
    seen = set()
    stack = [start]
    while stack:
        for uid in edges[stack.pop()]:
            if uid not in seen:
                seen.add(uid)
                stack.append(uid)
    return seen


def chain(dfg, operations):
    """Convenience: add dependencies forming a chain through ``operations``."""
    for producer, consumer in zip(operations, operations[1:]):
        dfg.add_dependency(producer, consumer)
    return operations


def parallel_ops(dfg, optype, count, label_prefix=""):
    """Convenience: add ``count`` independent operations of one type."""
    return [dfg.new_operation(optype,
                              label="%s%d" % (label_prefix, index))
            for index in range(count)]
