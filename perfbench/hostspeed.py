"""Host speed: a fixed reference loop, timed between the benchmark's ops.

On a shared 2-vCPU Xeon VM the speed of the same code drifted by up to 1.6x
over tens of seconds to minutes, with no steal time and CPU time equal to
wall time, so the medians of ten 30-60 s runs spread 0.2-0.3 (interquartile
range over median) whatever the run length. Every timing metric is
therefore divided by a host factor: the median time of this reference loop
over REF_NOMINAL_S, sampled where and when the timed work runs. Ops are
paired with samples the benchmark process takes between them; each set-up
child samples before and after its own work, since it may run on the
other vCPU, whose speed can differ. On that VM, over ten runs, this cut
the spread of `op_p50_s` from 0.23 to 0.044 on audit-large and from 0.070
to 0.043 on simulate-did; on audit-batch it left it near that of wall time
(README.md). The loop touches a few kilobytes, so neither the program's
heap nor its inputs slow it; only the host's speed does.
"""

import statistics
import time

REF_NOMINAL_S = 0.05
# Between ops, one sample for every this many seconds, outside the timed
# regions.
REF_EVERY_S = 0.5


def reference_loop() -> float:
    """Wall time of a fixed pure-Python integer loop."""
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    return time.perf_counter() - start


def factor(samples: list[float]) -> float:
    return statistics.median(samples) / REF_NOMINAL_S


class HostSpeed:
    """Reference-loop samples spread evenly over a run's ops."""

    def __init__(self):
        self.samples = [reference_loop()]
        self.last = time.perf_counter()

    def catch_up(self) -> None:
        """Take one sample for every REF_EVERY_S passed since the last."""
        n = int((time.perf_counter() - self.last) / REF_EVERY_S)
        if n:
            self.samples += [reference_loop() for _ in range(n)]
            self.last = time.perf_counter()

    def factor(self) -> float:
        return factor(self.samples)
