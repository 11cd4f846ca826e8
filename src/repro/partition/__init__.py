"""HW/SW partitioning: the PACE dynamic-programming algorithm.

The paper evaluates allocations by running the PACE partitioner [7] for
each candidate allocation and comparing the achieved speed-ups.  This
package reimplements PACE from its published problem statement: given a
pre-allocated data-path, choose which BSBs to move to hardware —
contiguous sequences move together and save internal communication —
so that total execution time (software + hardware + HW/SW communication)
is minimised under the remaining-area constraint for controllers.
"""

from repro.partition.model import TargetArchitecture, BSBCost
from repro.partition.communication import sequence_communication_time
from repro.partition.pace import (
    pace_partition,
    PartitionResult,
    SequenceTable,
)
from repro.partition.speedup import speedup_percent
from repro.partition.evaluate import bsb_costs, evaluate_allocation

__all__ = [
    "TargetArchitecture",
    "BSBCost",
    "bsb_costs",
    "sequence_communication_time",
    "pace_partition",
    "PartitionResult",
    "SequenceTable",
    "speedup_percent",
    "evaluate_allocation",
]
