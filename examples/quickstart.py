"""Quickstart: compile an application, allocate hardware, partition.

Walks the full LYCOS flow of Figure 1 on a small application:

1. compile mini-C source into a CDFG, whose view is the BSB hierarchy
   (Figure 4);
2. profile it on concrete inputs;
3. run the hardware resource allocation algorithm (Algorithm 1);
4. evaluate the allocation by PACE hardware/software partitioning.

Run:  python examples/quickstart.py
"""

from repro import (
    TargetArchitecture,
    allocate,
    compile_source,
    default_library,
    evaluate_allocation,
)
from repro.bsb.hierarchy import hierarchy_lines

SOURCE = """
// A toy signal chain: scale, square, accumulate.
input n;
input gain;
output energy;

int i; int x; int y; int energy;

energy = 0;
for (i = 0; i < n; i = i + 1) {
    x = (i * 37 + 11) & 255;          // synth input sample
    y = (x * gain) >> 8;              // scale
    energy = energy + ((y * y) >> 6); // accumulate energy
}
if (energy > 100000) {
    energy = 100000;                  // saturate
}
"""


def main():
    # ------------------------------------------------------------------
    # 1-2. Frontend: source -> CDFG, plus profiling.  The BSB hierarchy
    #      is a view of the CDFG; its leaves form the leaf-BSB array.
    # ------------------------------------------------------------------
    program = compile_source(SOURCE, name="energy", inputs={"n": 64,
                                                            "gain": 200})
    print("Compiled %r: %d non-blank lines, %d leaf BSBs"
          % (program.name, program.source_lines(), len(program.bsbs)))
    print("\nBSB hierarchy (the Figure 4 correspondence):")
    for line in hierarchy_lines(program.cdfg):
        print("  " + line)
    print("\nProfiled outputs: %s" % program.outputs)

    # ------------------------------------------------------------------
    # 3. The allocation algorithm (the paper's contribution).
    # ------------------------------------------------------------------
    library = default_library()
    total_area = 6000.0
    result = allocate(program.bsbs, library, area=total_area,
                      keep_trace=True)
    print("\nAlgorithm 1 trace (area budget %.0f gate equivalents):"
          % total_area)
    for line in result.trace_lines():
        print("  " + line)
    print("\nProduced allocation: %s" % result.allocation)
    print("Data-path area %.0f, estimated controllers %.0f, left %.0f"
          % (result.datapath_area, result.controller_area,
             result.remaining_area))

    # ------------------------------------------------------------------
    # 4. Evaluate with PACE partitioning.
    # ------------------------------------------------------------------
    architecture = TargetArchitecture(library=library,
                                      total_area=total_area)
    evaluation = evaluate_allocation(program.bsbs, result.allocation,
                                     architecture)
    partition = evaluation.partition
    print("\nPACE partition: %d of %d BSBs in hardware: %s"
          % (len(partition.hw_names), len(program.bsbs),
             ", ".join(partition.hw_names) or "none"))
    print("All-software time: %.0f cycles" % partition.sw_time_all)
    print("Hybrid time:       %.0f cycles (incl. communication)"
          % partition.hybrid_time)
    print("Speed-up:          %.0f%%" % evaluation.speedup)
    print("Data-path share of used hardware: %.0f%%"
          % (100 * evaluation.datapath_fraction))


if __name__ == "__main__":
    main()
