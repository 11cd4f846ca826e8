"""One key space: what content-fingerprint cache keys guarantee.

``EvalCache`` keys name BSBs, libraries and processors by content, so
equal-content objects share entries and the persistent store spills the
stage dicts as they are.  The stages whose values embed uids or live
objects stay keyed by BSB uid, so a structurally equal twin with other
uids never inherits them.  And a warm session still installs (hence
LRU-stamps) only the entries of the programs it adopted.
"""

import time

from repro.apps.registry import application_spec
from repro.core.allocator import allocate
from repro.core.rmap import RMap
from repro.engine import EvalCache, Session
from repro.engine.cache import fingerprint
from repro.hwlib.library import default_library
from repro.io.serialize import program_from_dict, program_to_dict
from repro.partition.evaluate import evaluate_allocation
from repro.partition.model import TargetArchitecture

from tests.engine.test_compact import (
    HAL,
    STRAIGHT,
    read_stamps,
    run_point,
    shard_keys,
)
from tests.engine.test_regression import assert_same_evaluation


def test_warm_session_stamps_only_its_own_programs(tmp_path):
    # A store holding only hal names hal's keys (the pipeline is
    # deterministic, so content keys match across stores).
    reference = str(tmp_path / "reference")
    run_point(reference, HAL)
    hal_keys = shard_keys(reference)

    root = str(tmp_path / "store")
    run_point(root, STRAIGHT)
    run_point(root, HAL)
    before = read_stamps(root)
    time.sleep(0.05)
    run_point(root, HAL)  # warm: replays hal, never adopts straight
    after = read_stamps(root)

    restamped = kept = 0
    for stage, bucket in before.items():
        for key, stamp in bucket.items():
            if key in hal_keys.get(stage, ()):
                assert after[stage][key] > stamp, (stage, key)
                restamped += 1
            else:
                assert after[stage][key] == stamp, (stage, key)
                kept += 1
    assert restamped == sum(len(keys) for keys in hal_keys.values())
    assert kept > 0


def test_equal_content_libraries_share_entries(library):
    app = Session().program("hal").bsbs
    allocation = RMap({"multiplier": 2, "adder": 1, "subtractor": 1,
                       "comparator": 1, "constgen": 1, "mover": 1,
                       "shifter": 1})
    cache = EvalCache()
    first = evaluate_allocation(
        app, allocation,
        TargetArchitecture(library=library, total_area=9000.0),
        area_quanta=150, cache=cache)
    twin_library = default_library()
    assert twin_library is not library
    architecture = TargetArchitecture(library=twin_library,
                                      total_area=9000.0)
    second = evaluate_allocation(app, allocation, architecture,
                                 area_quanta=150, cache=cache)
    assert second is first
    assert cache.stats.hit_count("eval") == 1
    assert_same_evaluation(second, evaluate_allocation(
        app, allocation, architecture, area_quanta=150))


def test_hydrated_twin_keeps_its_own_uid_keyed_entries():
    program = Session().program("hal")
    twin = program_from_dict(program_to_dict(program))
    assert [fingerprint(bsb) for bsb in twin.bsbs] == \
        [fingerprint(bsb) for bsb in program.bsbs]
    assert not {bsb.uid for bsb in twin.bsbs} & \
        {bsb.uid for bsb in program.bsbs}

    library = default_library()
    area = application_spec("hal").total_area
    architecture = TargetArchitecture(library=library, total_area=area)
    cache = EvalCache()
    allocated = {}
    for bsbs in (program.bsbs, twin.bsbs):
        result = allocate(bsbs, library, area=area, cache=cache)
        plain = allocate(bsbs, library, area=area)
        assert result.allocation == plain.allocation
        assert result.hw_bsb_names == plain.hw_bsb_names
        allocated[id(bsbs)] = result.allocation
    # Only the original evaluates this one, so the twin's schedules
    # miss the content-keyed memo and need its own priority maps.
    fresh = RMap({"multiplier": 1, "adder": 1, "subtractor": 1,
                  "comparator": 1, "constgen": 1, "mover": 1,
                  "shifter": 1})
    evaluate_allocation(program.bsbs, allocated[id(program.bsbs)],
                        architecture, area_quanta=150, cache=cache)
    for allocation in (allocated[id(twin.bsbs)], fresh):
        cached = evaluate_allocation(twin.bsbs, allocation, architecture,
                                     area_quanta=150, cache=cache)
        assert_same_evaluation(cached, evaluate_allocation(
            twin.bsbs, allocation, architecture, area_quanta=150))
    # Content-keyed stages are shared; uid-keyed ones are per program.
    assert len(cache.furo) == len(program.bsbs)
    assert len(cache.urgency) == 2
