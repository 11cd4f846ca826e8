"""Tests for JSON serialisation of allocation artefacts."""

import pytest

from repro.core.allocator import allocate
from repro.core.rmap import RMap
from repro.engine.design_point import MAX_QUANTA
from repro.errors import ReproError, ResourceError
from repro.io.serialize import (
    allocation_from_dict,
    allocation_result_to_dict,
    allocation_to_dict,
    evaluation_to_dict,
    load_json,
    save_json,
)
from repro.partition.evaluate import evaluate_allocation
from repro.partition.model import TargetArchitecture


class TestAllocationRoundtrip:
    def test_roundtrip(self):
        original = RMap({"adder": 2, "multiplier": 1})
        data = allocation_to_dict(original)
        assert allocation_from_dict(data) == original

    def test_accepts_plain_dict(self):
        data = allocation_to_dict({"adder": 3})
        assert allocation_from_dict(data) == RMap({"adder": 3})

    def test_empty_allocation(self):
        data = allocation_to_dict(RMap())
        assert allocation_from_dict(data).is_empty()

    def test_wrong_kind_rejected(self):
        with pytest.raises(ReproError):
            allocation_from_dict({"kind": "soup", "version": 1})

    def test_wrong_version_rejected(self):
        data = allocation_to_dict(RMap({"adder": 1}))
        data["version"] = 99
        with pytest.raises(ReproError):
            allocation_from_dict(data)

    def test_bad_units_rejected(self):
        with pytest.raises(ReproError):
            allocation_from_dict({"kind": "allocation", "version": 1,
                                  "units": [1, 2]})

    def test_library_validation(self, library):
        data = allocation_to_dict(RMap({"warp-core": 1}))
        with pytest.raises(ResourceError):
            allocation_from_dict(data, library=library)

    def test_library_validation_passes(self, library):
        data = allocation_to_dict(RMap({"adder": 1}))
        assert allocation_from_dict(data, library=library)["adder"] == 1


class TestResultSerialisation:
    def test_allocation_result_fields(self, library, two_bsbs):
        result = allocate(two_bsbs, library, area=20000.0,
                          keep_trace=True)
        data = allocation_result_to_dict(result)
        assert data["kind"] == "allocation-result"
        assert data["allocation"]["units"] == result.allocation.as_dict()
        assert data["hw_bsbs"] == result.hw_bsb_names
        assert data["trace"]

    def test_evaluation_fields(self, library, two_bsbs):
        architecture = TargetArchitecture(library=library,
                                          total_area=20000.0)
        result = allocate(two_bsbs, library, area=20000.0)
        evaluation = evaluate_allocation(two_bsbs, result.allocation,
                                         architecture)
        data = evaluation_to_dict(evaluation)
        assert data["kind"] == "evaluation"
        assert data["speedup"] == pytest.approx(evaluation.speedup)
        assert data["hw_bsbs"] == evaluation.partition.hw_names

    def test_exhaustive_result_fields(self, library, two_bsbs):
        import json

        from repro.core.exhaustive import exhaustive_best_allocation
        from repro.io.serialize import exhaustive_result_to_dict

        architecture = TargetArchitecture(library=library,
                                          total_area=20000.0)
        result = exhaustive_best_allocation(two_bsbs, architecture,
                                            area_quanta=100)
        data = exhaustive_result_to_dict(result)
        assert data["kind"] == "exhaustive-result"
        assert data["evaluations"] == result.evaluations
        assert data["space"] == result.space
        assert data["sampled"] is result.sampled
        assert data["skipped_infeasible"] == result.skipped_infeasible
        assert (data["best_allocation"]["units"]
                == result.best_allocation.as_dict())
        assert data["best_evaluation"]["speedup"] == pytest.approx(
            result.best_evaluation.speedup)
        json.dumps(data)  # the document must be JSON-clean


class TestExhaustiveResultRoundtrip:
    """Wire round-trips of the search metadata: the branch-and-bound
    fields (search mode, history order, prune counters) and the
    objective-layer fields (objective, energy, Pareto front)."""

    @staticmethod
    def _search(two_bsbs, library, **kwargs):
        from repro.core.exhaustive import exhaustive_best_allocation

        architecture = TargetArchitecture(library=library,
                                          total_area=20000.0)
        return exhaustive_best_allocation(two_bsbs, architecture,
                                          area_quanta=100, **kwargs)

    @staticmethod
    def _wire_roundtrip(result, library):
        import json

        from repro.io.serialize import (exhaustive_result_from_dict,
                                        exhaustive_result_to_dict)

        wire = json.loads(json.dumps(
            exhaustive_result_to_dict(result)))
        return exhaustive_result_from_dict(wire, library=library)

    def test_pruned_search_fields_roundtrip(self, library, two_bsbs):
        result = self._search(two_bsbs, library, search="pruned")
        again = self._wire_roundtrip(result, library)
        assert again.search == result.search == "pruned"
        assert again.history_order == result.history_order
        assert again.subtrees_pruned == result.subtrees_pruned
        assert again.bound_evaluations == result.bound_evaluations
        assert again.pruned_leaves == result.pruned_leaves
        assert again.best_allocation == result.best_allocation
        assert again.best_evaluation.speedup == pytest.approx(
            result.best_evaluation.speedup)

    def test_objective_and_energy_roundtrip(self, library, two_bsbs):
        result = self._search(two_bsbs, library, search="pruned",
                              objective="energy")
        again = self._wire_roundtrip(result, library)
        assert again.objective == result.objective == "energy"
        assert again.best_evaluation.energy == pytest.approx(
            result.best_evaluation.energy)
        assert again.front is None

    def test_pareto_front_roundtrip(self, library, two_bsbs):
        result = self._search(two_bsbs, library, objective="pareto")
        assert result.front is not None and len(result.front)
        again = self._wire_roundtrip(result, library)
        assert again.objective == "pareto"
        assert again.front is not None
        assert len(again.front) == len(result.front)
        for loaded_vector, original_vector in zip(
                again.front.vectors(), result.front.vectors()):
            assert loaded_vector == pytest.approx(original_vector)
        # Payload evaluations survive the trip (speed-up and energy).
        for (_, original), (_, loaded) in zip(result.front.items(),
                                              again.front.items()):
            assert loaded.speedup == pytest.approx(original.speedup)
            assert loaded.energy == pytest.approx(original.energy)

    def test_default_objective_fields_absent_history(self, library,
                                                     two_bsbs):
        result = self._search(two_bsbs, library)
        again = self._wire_roundtrip(result, library)
        assert again.objective == "speedup"
        assert again.search == "brute"
        assert again.front is None


class TestFileRoundtrip:
    def test_save_and_load(self, tmp_path, library, two_bsbs):
        result = allocate(two_bsbs, library, area=20000.0)
        path = tmp_path / "allocation.json"
        save_json(allocation_to_dict(result.allocation), path)
        loaded = allocation_from_dict(load_json(path), library=library)
        assert loaded == result.allocation

    def test_loaded_allocation_reusable(self, tmp_path, library,
                                        two_bsbs):
        """The design-artefact workflow: save, reload, re-evaluate."""
        architecture = TargetArchitecture(library=library,
                                          total_area=20000.0)
        result = allocate(two_bsbs, library, area=20000.0)
        before = evaluate_allocation(two_bsbs, result.allocation,
                                     architecture)
        path = tmp_path / "allocation.json"
        save_json(allocation_to_dict(result.allocation), path)
        loaded = allocation_from_dict(load_json(path), library=library)
        after = evaluate_allocation(two_bsbs, loaded, architecture)
        assert after.speedup == pytest.approx(before.speedup)


class TestDesignPointRoundtrip:
    def test_roundtrip(self):
        from repro.engine import DesignPoint
        from repro.io.serialize import (design_point_from_dict,
                                        design_point_to_dict)

        point = DesignPoint(app="hal", area=4000.0, policy="balanced",
                            quanta=120, comm_cycles_per_word=2.0)
        assert design_point_from_dict(design_point_to_dict(point)) \
            == point

    def test_roundtrip_defaults(self):
        from repro.engine import DesignPoint
        from repro.io.serialize import (design_point_from_dict,
                                        design_point_to_dict)

        point = DesignPoint(app="man")
        again = design_point_from_dict(design_point_to_dict(point))
        assert again == point
        assert again.area is None

    def test_json_roundtrip_is_exact(self):
        import json

        from repro.engine import DesignPoint
        from repro.io.serialize import (design_point_from_dict,
                                        design_point_to_dict)

        point = DesignPoint(app="hal", area=0.1 + 0.2)
        wire = json.loads(json.dumps(design_point_to_dict(point)))
        assert design_point_from_dict(wire).area == point.area

    def test_rejects_wrong_kind(self):
        from repro.io.serialize import design_point_from_dict

        with pytest.raises(ReproError):
            design_point_from_dict({"kind": "allocation", "version": 1})

    def test_rejects_wrong_version(self):
        from repro.io.serialize import design_point_from_dict

        with pytest.raises(ReproError):
            design_point_from_dict({"kind": "design-point",
                                    "version": 99, "app": "hal"})

    def test_rejects_structural_garbage(self):
        from repro.io.serialize import design_point_from_dict

        for bad in ({"kind": "design-point", "version": 1, "app": None},
                    {"kind": "design-point", "version": 1, "app": "hal",
                     "area": "wide"},
                    {"kind": "design-point", "version": 1, "app": "hal",
                     "policy": "greedy"},
                    {"kind": "design-point", "version": 1, "app": "hal",
                     "quanta": 0}):
            with pytest.raises(ReproError):
                design_point_from_dict(bad)

    def test_accepts_unknown_app_name(self):
        """Unknown apps fail at evaluation (per-point), not parse."""
        from repro.io.serialize import (design_point_from_dict,
                                        design_point_to_dict)
        from repro.engine import DesignPoint

        point = design_point_from_dict(design_point_to_dict(
            DesignPoint(app="not-a-benchmark")))
        assert point.app == "not-a-benchmark"

    @pytest.mark.parametrize("field, value", [
        ("area", float("nan")),
        ("area", float("inf")),
        ("area", "Infinity"),
        ("comm_cycles_per_word", float("nan")),
        ("comm_cycles_per_word", float("inf")),
        ("quanta", MAX_QUANTA + 1),
        ("quanta", 10**8),
    ])
    def test_rejects_out_of_range_values(self, field, value):
        """Wire points that would size the DP or poison its arithmetic."""
        from repro.io.serialize import design_point_from_dict

        data = {"kind": "design-point", "version": 1, "app": "hal",
                field: value}
        with pytest.raises(ReproError, match=field):
            design_point_from_dict(data)

    def test_accepts_the_largest_quanta(self):
        from repro.io.serialize import design_point_from_dict

        point = design_point_from_dict({"kind": "design-point",
                                        "version": 1, "app": "hal",
                                        "quanta": MAX_QUANTA})
        assert point.quanta == MAX_QUANTA


class TestPointResultRoundtrip:
    def test_roundtrip_success(self):
        from repro.engine import DesignPoint, Session
        from repro.io.serialize import (point_result_from_dict,
                                        point_result_to_dict)

        result = Session().evaluate_point(
            DesignPoint(app="straight", quanta=80))
        again = point_result_from_dict(point_result_to_dict(result))
        assert again.point == result.point
        assert again.speedup == result.speedup
        assert again.datapath_area == result.datapath_area
        assert again.hw_names == tuple(result.hw_names)
        assert again.allocation == result.allocation
        assert again.error is None and again.ok
        assert again.evaluation is None  # wire format drops the graph

    def test_roundtrip_failure(self):
        from repro.engine import DesignPoint
        from repro.engine.design_point import failed_point_result
        from repro.io.serialize import (point_result_from_dict,
                                        point_result_to_dict)

        failed = failed_point_result(DesignPoint(app="nope"),
                                     ReproError("unknown app"))
        again = point_result_from_dict(point_result_to_dict(failed))
        assert not again.ok
        assert again.error.kind == "ReproError"
        assert again.error.message == "unknown app"
        assert again.allocation is None

    def test_rejects_wrong_kind(self):
        from repro.io.serialize import point_result_from_dict

        with pytest.raises(ReproError):
            point_result_from_dict({"kind": "design-point",
                                    "version": 1})

    def test_validates_allocation_against_library(self, library):
        from repro.engine import DesignPoint, Session
        from repro.io.serialize import (point_result_from_dict,
                                        point_result_to_dict)

        result = Session().evaluate_point(
            DesignPoint(app="straight", quanta=80))
        data = point_result_to_dict(result)
        data["allocation"]["units"] = {"warp-core": 1}
        with pytest.raises(ResourceError):
            point_result_from_dict(data, library=library)
