"""Host-speed-normalised time: reference seconds.

On a shared 2-core VM the same table1 pass took 10 s to 19 s within a
few minutes: neighbours on the host slow every instruction, so CPU time
drifts with the host's load just as wall time does (steal time stayed
under 1% of it).  A fixed kernel measures the host's speed, as
``REFERENCE_KERNEL_S`` over its time now, and a reference second is a
second at speed 1.

A :class:`HostClock` normalises a CPU-bound pass in its own process.
While the pass runs, ``SIGALRM`` interrupts it every
``SAMPLE_INTERVAL_S`` to time the kernel; each slice of the pass
between two samples is scaled by the speed at its two ends.  The
kernel's own time is left out of both the reference and the raw
seconds.  :func:`cpu_speed` serves a sampler process running beside
the service's processes.

The kernel mixes, in equal parts, the kinds of work the program does: a
pure-Python knapsack DP over float lists, dict lookups spread over a
table larger than the L2 cache, and small numpy row updates.  Each part
alone over- or under-states how much the host slows a table1 pass; the
three together divided the drift out best (ten back-to-back cold passes
of 9.8-17.1 s gave a quartile spread of 0.27 raw, 0.05 normalised).
It lives here, not in ``src/``, so no change to the program moves it.
"""

import random
import signal
import statistics
import time

import numpy

#: Seconds between kernel samples during a pass.
SAMPLE_INTERVAL_S = 0.5
#: The kernel's time on an unloaded 2-core VM (Intel Xeon, Python
#: 3.11): a reference second is a second at that speed.
REFERENCE_KERNEL_S = 0.0125

_rng = random.Random(12345)
_ITEMS = [(_rng.randrange(1, 60), _rng.random()) for _ in range(400)]
_TABLE = {(index, index * 7 % 1013): [float(index), index / 3.0]
          for index in range(30000)}
_KEYS = [(index, index * 7 % 1013)
         for index in (_rng.randrange(30000) for _ in range(6000))]
_ROWS = numpy.zeros((64, 400))


def _knapsack():
    width = 200
    best = [0.0] * width
    for needed, gain in _ITEMS:
        row = best[:]
        for w in range(needed, width):
            candidate = best[w - needed] + gain
            if candidate > row[w]:
                row[w] = candidate
        best = row
    return best[-1]


def _lookups():
    total = 0.0
    for key in _KEYS:
        entry = _TABLE[key]
        total += entry[1] - entry[0]
    return total


def _row_updates():
    rows = _ROWS
    for j in range(1, 64):
        for shift in range(1, 25):
            rows[j, shift:] = numpy.maximum(rows[j - 1, :400 - shift] + 0.5,
                                            rows[j, shift:])
    return float(rows[63, -1])


def _kernel():
    """One kernel sample: ``(start, end)`` perf_counter stamps."""
    start = time.perf_counter()
    _knapsack()
    _lookups()
    _row_updates()
    return start, time.perf_counter()


def cpu_speed():
    """Reference seconds per second now, from one kernel sample timed on
    this thread's CPU clock: a sampler that shares a core with the
    service's busy processes measures the host, not its wait for the
    core."""
    start = time.thread_time()
    _kernel()
    return REFERENCE_KERNEL_S / (time.thread_time() - start)


class HostClock:
    """Kernel samples around and during a pass, and the pass's
    reference seconds between any two ``perf_counter`` stamps."""

    def __init__(self):
        _kernel()  # first-call costs stay out of the samples
        self.samples = []

    def scale(self, count=3):
        """Reference seconds per second now: the median of ``count``
        fresh samples (for short spans such as interpreter start)."""
        return REFERENCE_KERNEL_S / statistics.median(
            end - start for start, end in (_kernel() for _ in range(count)))

    def start(self):
        self.samples.append(_kernel())
        signal.signal(signal.SIGALRM,
                      lambda signum, frame: self.samples.append(_kernel()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(_kernel())

    def _slices(self, start, end):
        """``(seconds, kernel_s)`` of each slice of ``[start, end]``
        between two samples, the kernel time averaged over both ends."""
        for before, after in zip(self.samples, self.samples[1:]):
            low, high = max(start, before[1]), min(end, after[0])
            if high > low:
                yield high - low, ((before[1] - before[0]) +
                                   (after[1] - after[0])) / 2

    def seconds(self, start, end):
        """Seconds of ``[start, end]`` outside the kernel samples."""
        return sum(seconds for seconds, _ in self._slices(start, end))

    def reference_seconds(self, start, end):
        """``[start, end]`` in reference seconds."""
        return sum(seconds * REFERENCE_KERNEL_S / kernel_s
                   for seconds, kernel_s in self._slices(start, end))
