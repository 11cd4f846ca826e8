"""Tests for the experiment drivers (cheap configurations only).

The full Table 1 run belongs to the benchmarks; here each driver is
exercised on its smallest benchmark to validate plumbing and the
qualitative claims that are cheap to check.
"""

from unittest import mock

import pytest

from repro.errors import SchedulingError
from repro.report.experiments import (
    design_iteration_report,
    fig3_sweep,
    render_fig3,
    render_s51,
    render_table1,
    s51_controller_rows,
    table1_row,
)


class TestTable1Row:
    @pytest.fixture(scope="class")
    def hal_row(self):
        return table1_row("hal", max_evaluations=300)

    def test_row_fields(self, hal_row):
        assert hal_row.name == "hal"
        assert hal_row.lines > 0
        assert hal_row.cpu_seconds >= 0
        assert 0 <= hal_row.size_percent <= 100
        assert 0 <= hal_row.hw_percent <= 100

    def test_algorithm_close_to_best(self, hal_row):
        """The hal row of Table 1: SU == SU(best)."""
        assert hal_row.su == pytest.approx(hal_row.su_best, rel=0.05)

    def test_iterated_at_least_raw(self, hal_row):
        assert hal_row.su_iterated >= hal_row.su - 1e-9

    def test_render(self, hal_row):
        text = render_table1([hal_row])
        assert "hal" in text
        assert "SU(best)" in text


class TestFig3:
    @pytest.fixture(scope="class")
    def points(self):
        return fig3_sweep(name="hal", fractions=[0.1, 0.4, 0.98])

    def test_points_structure(self, points):
        assert len(points) == 3
        for point in points:
            assert point["speedup"] >= 0

    def test_tradeoff_shape(self, points):
        """Figure 3: both extremes lose to the middle."""
        tiny, mid, huge = points
        assert mid["speedup"] > tiny["speedup"]
        assert mid["speedup"] > huge["speedup"]

    def test_render(self, points):
        text = render_fig3(points, name="hal")
        assert "Figure 3" in text


class TestS51:
    @pytest.fixture(scope="class")
    def rows(self):
        return s51_controller_rows("hal")

    def test_rows_structure(self, rows):
        assert rows
        for row in rows:
            assert row["eca"] > 0
            assert row["actual"] > 0

    def test_estimate_is_optimistic(self, rows):
        """Section 5.1: actual controllers are never smaller than the
        ASAP-based estimate."""
        for row in rows:
            assert row["ratio"] >= 1.0 - 1e-9

    def test_some_bsb_strictly_larger_when_constrained(self):
        # hal's allocation reaches full parallelism (all ratios 1.0);
        # eigen's does not, so its real controllers exceed the ECA.
        rows = s51_controller_rows("eigen")
        assert any(row["ratio"] > 1.0 for row in rows)

    def test_render(self, rows):
        assert "5.1" in render_s51(rows, "hal")

    def test_unexecutable_bsbs_are_skipped(self):
        with mock.patch("repro.report.experiments.actual_controller_area",
                        side_effect=SchedulingError("no multiplier")):
            assert s51_controller_rows("hal") == []

    def test_other_errors_propagate(self):
        with mock.patch("repro.report.experiments.actual_controller_area",
                        side_effect=TypeError("broken")):
            with pytest.raises(TypeError, match="broken"):
                s51_controller_rows("hal")


class TestDesignIteration:
    def test_man_recovers_speedup(self):
        """The paper's man fix: the raw allocation underperforms; the
        reduce-only iteration recovers a large speed-up."""
        report = design_iteration_report("man")
        assert report["steps"], "man iteration found nothing to trim"
        assert report["final_speedup"] > 2 * report["initial_speedup"]

    def test_hal_needs_no_iteration(self):
        report = design_iteration_report("hal")
        assert report["final_speedup"] == pytest.approx(
            report["initial_speedup"], rel=0.05)
