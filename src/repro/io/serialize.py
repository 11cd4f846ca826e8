"""JSON (de)serialisation of allocation artefacts.

Formats are plain dictionaries with a ``kind`` discriminator and a
``version`` field so future layout changes stay detectable.  Only data
is serialised — libraries and applications are code, and a loaded
allocation is re-validated against the library it is applied to.
"""

import json

from repro.core.rmap import RMap
from repro.engine.design_point import DesignPoint, PointError, PointResult
from repro.errors import ReproError

FORMAT_VERSION = 1


def allocation_to_dict(allocation):
    """Serialise an RMap (or dict) allocation."""
    allocation = RMap._coerce(allocation)
    return {
        "kind": "allocation",
        "version": FORMAT_VERSION,
        "units": allocation.as_dict(),
    }


def allocation_from_dict(data, library=None):
    """Deserialise an allocation; optionally validate against a library.

    Raises :class:`ReproError` for wrong kinds, versions, or (when a
    library is given) resource names the library does not know.
    """
    if not isinstance(data, dict) or data.get("kind") != "allocation":
        raise ReproError("not an allocation document: %r" % (data,))
    if data.get("version") != FORMAT_VERSION:
        raise ReproError("unsupported allocation format version %r"
                         % (data.get("version"),))
    units = data.get("units", {})
    if not isinstance(units, dict):
        raise ReproError("allocation units must be a mapping")
    allocation = RMap({str(name): int(count)
                       for name, count in units.items()})
    if library is not None:
        for name in allocation.names():
            library.get(name)  # raises ResourceError when unknown
    return allocation


def allocation_result_to_dict(result):
    """Serialise an :class:`~repro.core.allocator.AllocationResult`."""
    return {
        "kind": "allocation-result",
        "version": FORMAT_VERSION,
        "allocation": allocation_to_dict(result.allocation),
        "hw_bsbs": list(result.hw_bsb_names),
        "remaining_area": result.remaining_area,
        "datapath_area": result.datapath_area,
        "controller_area": result.controller_area,
        "restrictions": result.restrictions.as_dict(),
        "runtime_seconds": result.runtime_seconds,
        "trace": [str(event) for event in result.events],
    }


def evaluation_to_dict(evaluation):
    """Serialise an AllocationEvaluation (PACE outcome included)."""
    partition = evaluation.partition
    return {
        "kind": "evaluation",
        "version": FORMAT_VERSION,
        "allocation": allocation_to_dict(evaluation.allocation),
        "datapath_area": evaluation.datapath_area,
        "overhead_area": evaluation.overhead_area,
        "available_controller_area":
            evaluation.available_controller_area,
        "energy": evaluation.energy,
        "speedup": partition.speedup,
        "sw_time_all": partition.sw_time_all,
        "hybrid_time": partition.hybrid_time,
        "hw_bsbs": list(partition.hw_names),
        "hw_sequences": [list(pair) for pair in partition.hw_sequences],
        "controller_area_used": partition.controller_area_used,
        "hw_fraction": partition.hw_fraction,
    }


def evaluation_from_dict(data, library=None):
    """Deserialise an evaluation document back into live objects.

    The flattened PACE fields are folded back into a
    :class:`~repro.partition.pace.PartitionResult` (its
    ``available_area`` is the evaluation's controller budget — the
    same number the evaluator handed PACE).  Raises
    :class:`ReproError` on wrong kinds, versions or malformed numbers.
    """
    from repro.partition.evaluate import AllocationEvaluation
    from repro.partition.pace import PartitionResult

    if not isinstance(data, dict) or data.get("kind") != "evaluation":
        raise ReproError("not an evaluation document: %r" % (data,))
    if data.get("version") != FORMAT_VERSION:
        raise ReproError("unsupported evaluation format version %r"
                         % (data.get("version"),))
    sequences = data.get("hw_sequences", [])
    if not isinstance(sequences, (list, tuple)):
        raise ReproError("evaluation hw_sequences must be a list")
    try:
        partition = PartitionResult(
            hw_sequences=[(int(pair[0]), int(pair[1]))
                          for pair in sequences],
            hw_names=[str(name) for name in data.get("hw_bsbs", [])],
            sw_time_all=float(data.get("sw_time_all", 0.0)),
            hybrid_time=float(data.get("hybrid_time", 0.0)),
            speedup=float(data.get("speedup", 0.0)),
            controller_area_used=float(
                data.get("controller_area_used", 0.0)),
            available_area=float(
                data.get("available_controller_area", 0.0)),
            hw_fraction=float(data.get("hw_fraction", 0.0)))
        return AllocationEvaluation(
            allocation=allocation_from_dict(data.get("allocation"),
                                            library=library),
            datapath_area=float(data.get("datapath_area", 0.0)),
            available_controller_area=float(
                data.get("available_controller_area", 0.0)),
            partition=partition,
            overhead_area=float(data.get("overhead_area", 0.0)),
            energy=float(data.get("energy", 0.0)))
    except (TypeError, ValueError, IndexError) as exc:
        raise ReproError("malformed evaluation: %s" % (exc,)) from None


def exhaustive_result_to_dict(result):
    """Serialise an :class:`~repro.core.exhaustive.ExhaustiveResult`.

    The history is deliberately dropped (it can be candidate-count
    sized); the embedded best evaluation uses the same layout as
    :func:`evaluation_to_dict`, and a Pareto front — when the search
    collected one — travels as its insertion-ordered (vector,
    evaluation) pairs so a round trip preserves dominance *and* the
    scan-order tie-breaks.
    """
    front = None
    if result.front is not None:
        front = [{"vector": list(vector),
                  "evaluation": (None if payload is None
                                 else evaluation_to_dict(payload))}
                 for vector, payload in result.front.items()]
    return {
        "kind": "exhaustive-result",
        "version": FORMAT_VERSION,
        "best_allocation": allocation_to_dict(result.best_allocation),
        "best_evaluation": evaluation_to_dict(result.best_evaluation),
        "evaluations": result.evaluations,
        "space": result.space,
        "sampled": result.sampled,
        "skipped_infeasible": result.skipped_infeasible,
        "search": result.search,
        "history_order": result.history_order,
        "subtrees_pruned": result.subtrees_pruned,
        "bound_evaluations": result.bound_evaluations,
        "pruned_leaves": result.pruned_leaves,
        "objective": result.objective,
        "front": front,
    }


def exhaustive_result_from_dict(data, library=None):
    """Deserialise an exhaustive-result document.

    The history is gone by design (the writer drops it); everything
    else — search mode, prune counters, objective name, and the Pareto
    front when one was collected — comes back as live objects.
    """
    from repro.core.exhaustive import ExhaustiveResult
    from repro.core.objective import ParetoFront

    if not isinstance(data, dict) \
            or data.get("kind") != "exhaustive-result":
        raise ReproError("not an exhaustive-result document: %r"
                         % (data,))
    if data.get("version") != FORMAT_VERSION:
        raise ReproError("unsupported exhaustive-result format "
                         "version %r" % (data.get("version"),))
    front_doc = data.get("front")
    front = None
    if front_doc is not None:
        if not isinstance(front_doc, (list, tuple)):
            raise ReproError("exhaustive-result front must be a list")
        front = ParetoFront()
        for entry in front_doc:
            if not isinstance(entry, dict):
                raise ReproError("front entries must be mappings")
            payload = entry.get("evaluation")
            front.add(tuple(float(value)
                            for value in entry.get("vector", ())),
                      None if payload is None
                      else evaluation_from_dict(payload,
                                                library=library))
    try:
        return ExhaustiveResult(
            best_allocation=allocation_from_dict(
                data.get("best_allocation"), library=library),
            best_evaluation=evaluation_from_dict(
                data.get("best_evaluation"), library=library),
            evaluations=int(data.get("evaluations", 0)),
            space=int(data.get("space", 0)),
            sampled=bool(data.get("sampled", False)),
            skipped_infeasible=int(data.get("skipped_infeasible", 0)),
            search=str(data.get("search", "brute")),
            history_order=str(data.get("history_order", "scan")),
            subtrees_pruned=int(data.get("subtrees_pruned", 0)),
            bound_evaluations=int(data.get("bound_evaluations", 0)),
            pruned_leaves=int(data.get("pruned_leaves", 0)),
            objective=str(data.get("objective", "speedup")),
            front=front)
    except (TypeError, ValueError) as exc:
        raise ReproError("malformed exhaustive result: %s"
                         % (exc,)) from None


def design_point_to_dict(point):
    """Serialise a :class:`~repro.engine.design_point.DesignPoint`."""
    return {
        "kind": "design-point",
        "version": FORMAT_VERSION,
        "app": point.app,
        "area": point.area,
        "policy": point.policy,
        "quanta": point.quanta,
        "comm_cycles_per_word": point.comm_cycles_per_word,
    }


def design_point_from_dict(data):
    """Deserialise a design point; :class:`ReproError` on bad shape.

    Validation is structural only (types, ranges, known policy names);
    whether ``app`` names a real benchmark is decided when the point is
    evaluated — that is the per-point error contract of the batch and
    service APIs, where one unknown app must not poison its batch.
    """
    if not isinstance(data, dict) or data.get("kind") != "design-point":
        raise ReproError("not a design-point document: %r" % (data,))
    if data.get("version") != FORMAT_VERSION:
        raise ReproError("unsupported design-point format version %r"
                         % (data.get("version"),))
    area = data.get("area")
    try:
        return DesignPoint(
            app=data.get("app"),
            area=None if area is None else float(area),
            policy=data.get("policy"),
            quanta=int(data.get("quanta", 150)),
            comm_cycles_per_word=float(
                data.get("comm_cycles_per_word", 4.0)))
    except (TypeError, ValueError) as exc:
        raise ReproError("malformed design point %r: %s"
                         % (data, exc)) from None


def point_result_to_dict(result):
    """Serialise a :class:`~repro.engine.design_point.PointResult`.

    The embedded ``evaluation`` object is deliberately *not* carried
    (it is a live object graph; :func:`evaluation_to_dict` exists for
    callers that want its numbers) — the wire format round-trips the
    point, the allocation, the headline metrics and the per-point
    error.
    """
    error = result.error
    return {
        "kind": "point-result",
        "version": FORMAT_VERSION,
        "point": design_point_to_dict(result.point),
        "allocation": (None if result.allocation is None
                       else allocation_to_dict(result.allocation)),
        "speedup": result.speedup,
        "datapath_area": result.datapath_area,
        "energy": result.energy,
        "hw_bsbs": list(result.hw_names),
        "error": (None if error is None
                  else {"kind": error.kind, "message": error.message}),
    }


def point_result_from_dict(data, library=None):
    """Deserialise a point result (``evaluation`` stays ``None``)."""
    if not isinstance(data, dict) or data.get("kind") != "point-result":
        raise ReproError("not a point-result document: %r" % (data,))
    if data.get("version") != FORMAT_VERSION:
        raise ReproError("unsupported point-result format version %r"
                         % (data.get("version"),))
    allocation = data.get("allocation")
    error = data.get("error")
    if error is not None:
        if not isinstance(error, dict):
            raise ReproError("point-result error must be a mapping")
        error = PointError(kind=str(error.get("kind", "Exception")),
                           message=str(error.get("message", "")))
    hw_bsbs = data.get("hw_bsbs", [])
    if not isinstance(hw_bsbs, (list, tuple)):
        raise ReproError("point-result hw_bsbs must be a list")
    try:
        return PointResult(
            point=design_point_from_dict(data.get("point")),
            allocation=(None if allocation is None else
                        allocation_from_dict(allocation, library=library)),
            speedup=float(data.get("speedup", 0.0)),
            datapath_area=float(data.get("datapath_area", 0.0)),
            energy=float(data.get("energy", 0.0)),
            hw_names=tuple(str(name) for name in hw_bsbs),
            error=error)
    except (TypeError, ValueError) as exc:
        raise ReproError("malformed point result: %s" % (exc,)) from None


# ----------------------------------------------------------------------
# Compiled programs: the persistent program store's document format
# ----------------------------------------------------------------------
def program_to_dict(program):
    """Serialise a compiled :class:`~repro.cdfg.builder.Program`.

    Everything the allocate -> PACE -> evaluate pipeline reads survives
    the round trip: the source text (for the Lines column), the
    profiled inputs/finals/outputs, and the neutral uid-free CDFG
    document, whose leaves carry their DFGs, profile counts, reads and
    writes.  The CDFG is the program's only tree — the BSB hierarchy
    is a view of it — so ``export`` renders every graph from the store
    without recompiling.  Only the AST — a frontend
    artefact nothing downstream touches — is dropped; a hydrated
    program carries ``None`` for it.
    """
    return {
        "kind": "program",
        "version": FORMAT_VERSION,
        "name": program.name,
        "source": program.source,
        "inputs": dict(program.inputs),
        "final_values": dict(program.final_values),
        "outputs": dict(program.outputs),
        "cdfg": program.cdfg.to_payload(),
    }


def program_from_dict(data):
    """Deserialise a program document; fresh uids throughout.

    The CDFG is hydrated and handed to
    :func:`~repro.cdfg.builder.program_from_cdfg`, the function a cold
    compile ends in, so the ``bsbs`` array comes out of the same
    :func:`~repro.bsb.hierarchy.leaf_array` and a hydrated program is
    positionally identical to its cold twin.  Raises
    :class:`ReproError` on malformed documents, a missing or malformed
    CDFG included (the program store treats that as damage and falls
    back to a cold compile).
    """
    from repro.cdfg.builder import program_from_cdfg
    from repro.cdfg.nodes import cdfg_from_payload
    from repro.errors import CdfgError

    if not isinstance(data, dict) or data.get("kind") != "program":
        raise ReproError("not a program document: %r" % (data,))
    if data.get("version") != FORMAT_VERSION:
        raise ReproError("unsupported program format version %r"
                         % (data.get("version"),))
    for field in ("inputs", "final_values", "outputs"):
        if not isinstance(data.get(field, {}), dict):
            raise ReproError("program %s must be a mapping" % field)
    try:
        cdfg = cdfg_from_payload(data.get("cdfg"))
    except CdfgError as exc:
        raise ReproError("malformed program CDFG: %s" % (exc,)) from None
    return program_from_cdfg(
        cdfg,
        name=str(data.get("name", "")),
        source=str(data.get("source", "")),
        inputs=data.get("inputs", {}),
        final_values=data.get("final_values", {}),
        outputs=data.get("outputs", {}),
    )


def save_json(document, path):
    """Write a serialised document to ``path`` (pretty-printed)."""
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path):
    """Read a serialised document from ``path``."""
    with open(path) as handle:
        return json.load(handle)
