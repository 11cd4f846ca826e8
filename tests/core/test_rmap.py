"""Tests for the RMap algebra — including the paper's Example 1."""

import pytest

from repro.core.rmap import RMap
from repro.errors import AllocationError


class TestPaperExample1:
    """Example 1 of the paper, verbatim."""

    def setup_method(self):
        self.allocation1 = RMap({"Adder": 2, "Multiplier": 1})
        self.allocation2 = RMap({"Subtractor": 1, "Multiplier": 2})

    def test_union(self):
        result = self.allocation1 | self.allocation2
        assert result == RMap({"Adder": 2, "Multiplier": 3,
                               "Subtractor": 1})

    def test_difference_one(self):
        assert (self.allocation1 - self.allocation2) == RMap({"Adder": 2})

    def test_difference_two(self):
        assert (self.allocation2 - self.allocation1) == RMap(
            {"Subtractor": 1, "Multiplier": 1})

    def test_indexing_update(self):
        updated = self.allocation1.incremented("Adder")
        assert updated == RMap({"Adder": 3, "Multiplier": 1})


class TestMappingBehaviour:
    def test_absent_key_is_zero(self):
        assert RMap()["anything"] == 0

    def test_zero_assignment_removes(self):
        rmap = RMap({"adder": 2})
        rmap["adder"] = 0
        assert "adder" not in rmap
        assert len(rmap) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(AllocationError):
            RMap({"adder": -1})

    def test_non_integer_count_rejected(self):
        with pytest.raises(AllocationError):
            RMap({"adder": 1.5})

    def test_non_string_key_rejected(self):
        with pytest.raises(AllocationError):
            rmap = RMap()
            rmap[42] = 1

    def test_items_sorted(self):
        rmap = RMap({"z": 1, "a": 2, "m": 3})
        assert [name for name, _ in rmap.items()] == ["a", "m", "z"]

    def test_iteration_order(self):
        rmap = RMap({"b": 1, "a": 1})
        assert list(rmap) == ["a", "b"]


class TestOperators:
    def test_union_does_not_mutate(self):
        left = RMap({"a": 1})
        right = RMap({"a": 2})
        _ = left | right
        assert left == RMap({"a": 1})

    def test_difference_saturates(self):
        assert (RMap({"a": 1}) - RMap({"a": 5})) == RMap()

    def test_difference_with_plain_dict(self):
        assert (RMap({"a": 3}) - {"a": 1}) == RMap({"a": 2})

    def test_union_with_plain_dict(self):
        assert (RMap({"a": 1}) | {"b": 2}) == RMap({"a": 1, "b": 2})

    def test_incremented_negative_delta(self):
        assert RMap({"a": 2}).incremented("a", -1) == RMap({"a": 1})

    def test_incremented_to_zero_removes(self):
        assert RMap({"a": 1}).incremented("a", -1) == RMap()

    def test_incremented_below_zero_rejected(self):
        with pytest.raises(AllocationError):
            RMap().incremented("a", -1)


class TestComparisons:
    def test_covers_true(self):
        assert RMap({"a": 2, "b": 1}).covers(RMap({"a": 1}))

    def test_covers_false(self):
        assert not RMap({"a": 1}).covers(RMap({"a": 2}))

    def test_covers_empty(self):
        assert RMap().covers(RMap())

    def test_is_empty(self):
        assert RMap().is_empty()
        assert not RMap({"a": 1}).is_empty()

    def test_equality_with_dict_ignores_zero_entries(self):
        assert RMap({"a": 1}) == {"a": 1, "b": 0}

    def test_hashable(self):
        assert hash(RMap({"a": 1})) == hash(RMap({"a": 1}))
        assert len({RMap({"a": 1}), RMap({"a": 1})}) == 1

    def test_copy_independent(self):
        original = RMap({"a": 1})
        clone = original.copy()
        clone["a"] = 5
        assert original["a"] == 1


class TestArea:
    def test_area_under_library(self, library):
        rmap = RMap({"adder": 2, "multiplier": 1})
        expected = 2 * library.area_of("adder") + library.area_of(
            "multiplier")
        assert rmap.area(library) == expected

    def test_empty_area_is_zero(self, library):
        assert RMap().area(library) == 0.0

    def test_as_dict_snapshot(self):
        rmap = RMap({"a": 1})
        snapshot = rmap.as_dict()
        snapshot["a"] = 99
        assert rmap["a"] == 1

    def test_repr_deterministic(self):
        assert repr(RMap({"b": 2, "a": 1})) == "RMap({a: 1, b: 2})"
