"""Algorithm 1's results do not depend on the interpreter's hash seed.

Operation types are enum members, so a set of them iterates in an order
that follows the per-process string hash.  If the required units of a
BSB were collected in that order, the data-path area would be summed in
it too, and with non-integral unit areas the float totals — and every
later ``cost <= remaining`` test — would differ between processes.  The
service compares coordinator, worker and in-process results, so the
same allocation must come out of every process bit for bit.
"""

import os
import subprocess
import sys

import repro

SCRIPT = r"""
from repro.apps.registry import application_spec, load_application
from repro.core.allocator import allocate
from repro.engine.cache import EvalCache
from repro.hwlib.library import ResourceLibrary, default_library
from repro.hwlib.resources import Resource
from repro.ir.ops import OpType

base = default_library()
library = ResourceLibrary("odd-areas")
for k, optype in enumerate(OpType):
    unit = base.resource_for(optype)
    library.add(Resource(name=unit.name, optypes=unit.optypes,
                         area=(k + 1) * 137 + 0.1, latency=unit.latency))
for app in ("hal", "straight"):
    bsbs = load_application(app).bsbs
    total = application_spec(app).total_area
    cache = EvalCache()
    for step in range(1, 41):
        result = allocate(bsbs, library, area=step / 40 * total,
                          cache=cache)
        print(repr((app, step, result.allocation, result.datapath_area,
                    result.remaining_area, result.controller_area)))
"""


def _run_with_hash_seeds(seeds):
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    processes = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source_root, env.get("PYTHONPATH")]))
        processes.append(subprocess.Popen(
            [sys.executable, "-c", SCRIPT], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    outputs = []
    for process in processes:
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stderr
        outputs.append(stdout)
    return outputs


def test_areas_agree_across_hash_seeds():
    first, second = _run_with_hash_seeds([0, 3])
    assert first.count("\n") == 80
    assert first == second
