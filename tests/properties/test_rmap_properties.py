"""Property-based tests for the RMap algebra (Definition 1)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rmap import RMap

names = st.sampled_from(["adder", "subtractor", "multiplier", "divider",
                         "constgen", "shifter"])
counts = st.integers(min_value=0, max_value=40)
rmaps = st.dictionaries(names, counts, max_size=6).map(RMap)


class TestUnionProperties:
    @given(rmaps, rmaps)
    def test_union_is_commutative(self, left, right):
        assert (left | right) == (right | left)

    @given(rmaps, rmaps, rmaps)
    def test_union_is_associative(self, a, b, c):
        assert ((a | b) | c) == (a | (b | c))

    @given(rmaps)
    def test_empty_is_identity(self, rmap):
        assert (rmap | RMap()) == rmap
        assert (RMap() | rmap) == rmap

    @given(rmaps, rmaps)
    def test_union_adds_counts(self, left, right):
        union = left | right
        for name in set(left.names()) | set(right.names()):
            assert union[name] == left[name] + right[name]

    @given(rmaps, rmaps)
    def test_union_total_units(self, left, right):
        def total(rmap):
            return sum(rmap.as_dict().values())

        assert total(left | right) == total(left) + total(right)


class TestDifferenceProperties:
    @given(rmaps)
    def test_self_difference_is_empty(self, rmap):
        assert (rmap - rmap).is_empty()

    @given(rmaps, rmaps)
    def test_difference_saturates(self, left, right):
        difference = left - right
        for name in difference.names():
            assert difference[name] == max(0, left[name] - right[name])
            assert difference[name] > 0

    @given(rmaps, rmaps)
    def test_union_then_difference_recovers(self, left, right):
        assert ((left | right) - right) == left

    @given(rmaps, rmaps)
    def test_difference_never_negative(self, left, right):
        difference = left - right
        assert all(count > 0 for _, count in difference.items())

    @given(rmaps, rmaps)
    def test_difference_bounded_by_left(self, left, right):
        assert left.covers(left - right)


class TestCoverProperties:
    @given(rmaps)
    def test_covers_is_reflexive(self, rmap):
        assert rmap.covers(rmap)

    @given(rmaps, rmaps)
    def test_union_covers_both(self, left, right):
        union = left | right
        assert union.covers(left)
        assert union.covers(right)

    @given(rmaps, rmaps, rmaps)
    def test_covers_is_transitive(self, a, b, c):
        big = a | b | c
        mid = a | b
        assert big.covers(mid) and mid.covers(a) and big.covers(a)


class TestRepresentation:
    @given(rmaps)
    def test_dict_roundtrip(self, rmap):
        assert RMap(rmap.as_dict()) == rmap

    @given(rmaps)
    def test_copy_equals_original(self, rmap):
        assert rmap.copy() == rmap
        assert hash(rmap.copy()) == hash(rmap)

    @given(rmaps)
    def test_no_zero_entries_stored(self, rmap):
        assert all(count > 0 for _, count in rmap.items())
