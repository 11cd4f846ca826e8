"""C44 — section 4.4: algorithm complexity.

The paper: "the runtime of the initial computation of the Functional
Unit Request Overlaps is proportional to L * k^2, where L is the number
of BSBs and k is the maximum number of operations in any of the BSBs.
... this computation is only done once.  The allocation algorithm could
be executed several times for the same array of BSBs with different
area constraints".

Measured expectations:

* FURO preprocessing time grows ~linearly in L and ~quadratically in k;
* re-running the allocator on a precomputed UrgencyState is cheap: three
  re-runs cost less than half of the preprocessing.
"""

import time

import pytest

from repro.apps.synthetic import synthetic_bsb_array as make_bsb_array
from repro.core.allocator import allocate
from repro.core.furo import UrgencyState
from repro.engine.cache import EvalCache


def furo_time(bsb_count, ops_per_bsb):
    bsbs = make_bsb_array(bsb_count, ops_per_bsb)
    started = time.perf_counter()
    UrgencyState(bsbs, library=None)
    return time.perf_counter() - started


def min_time(run, repeats=5):
    """Fastest of ``repeats`` timed calls of ``run``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def test_linear_in_bsb_count(benchmark, capsys):
    def measure():
        small = min(furo_time(8, 24) for _ in range(3))
        large = min(furo_time(32, 24) for _ in range(3))
        return large / small

    ratio = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nFURO time L=8 -> L=32 (k=24): x%.1f "
              "(linear would be x4)" % ratio)
    assert ratio < 8.0  # linear-ish, certainly not quadratic (x16)


def test_superlinear_in_ops_per_bsb(benchmark, capsys):
    def measure():
        small = min(furo_time(8, 12) for _ in range(3))
        large = min(furo_time(8, 48) for _ in range(3))
        return large / small

    ratio = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print("FURO time k=12 -> k=48 (L=8): x%.1f "
              "(quadratic would be x16)" % ratio)
    assert ratio > 4.0  # clearly superlinear in k


def test_furo_preprocessing_benchmark(benchmark, library):
    bsbs = make_bsb_array(16, 32)
    benchmark(lambda: UrgencyState(bsbs, library=library))


def test_allocator_rerun_benchmark(benchmark, library, capsys):
    """Re-running the allocator with different area constraints — the
    use case section 4.4 calls out as cheap.  On a warm cache three
    re-runs cost less than half of the one-time preprocessing."""
    bsbs = make_bsb_array(16, 32)
    areas = [4000.0, 8000.0, 16000.0]
    cache = EvalCache()

    def rerun():
        return [allocate(bsbs, library, area=area, cache=cache)
                for area in areas]

    results = benchmark(rerun)
    assert len(results) == 3
    preprocessing = min_time(lambda: UrgencyState(bsbs, library=library))
    ratio = min_time(rerun) / preprocessing
    with capsys.disabled():
        print("\n3 allocator re-runs / FURO preprocessing (L=16, k=32): "
              "%.2f" % ratio)
    assert ratio < 0.5
