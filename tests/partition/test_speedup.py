"""Tests for the speed-up metric."""

import pytest

from repro.errors import PartitionError
from repro.partition.speedup import speedup_percent


class TestSpeedupPercent:
    def test_no_change_is_zero(self):
        assert speedup_percent(100.0, 100.0) == 0.0

    def test_halving_time_is_100_percent(self):
        assert speedup_percent(200.0, 100.0) == pytest.approx(100.0)

    def test_paper_scale_example(self):
        # A 31.8x faster hybrid is a 3081% speed-up (the man row).
        hybrid = 100.0
        assert speedup_percent(31.81 * hybrid, hybrid) == pytest.approx(
            3081.0, abs=1.0)

    def test_slowdown_is_negative(self):
        assert speedup_percent(50.0, 100.0) == pytest.approx(-50.0)

    def test_zero_hybrid_rejected(self):
        with pytest.raises(PartitionError):
            speedup_percent(100.0, 0.0)

    def test_both_zero_is_zero(self):
        assert speedup_percent(0.0, 0.0) == 0.0
