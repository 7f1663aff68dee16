"""Scale CPU times to a reference interpreter speed.

On a shared host the same Python code runs in fast and slow spells that
differ by up to half and switch every second or so, as neighbours
contend for the core and its caches; CPU time counts the slow spells in
full.  While a timed sample runs, :class:`SpeedSampler` interrupts it
every :data:`INTERVAL_S` of wall time (``SIGALRM``) to time a fixed
kernel.  A sample's CPU time, less the kernels' own cost, is then scaled
by :data:`KERNEL_REF_S` over the kernel's trimmed mean time during the
sample, raised to :data:`SENSITIVITY`.  The result estimates the CPU
time the sample would have taken at the reference speed.  The kernel
touches nothing of the program, so results are unaffected.
"""

from __future__ import annotations

import contextlib
import signal
import time
from typing import Any, Iterator, List, Optional

#: Seconds of wall time between two kernel timings.
INTERVAL_S = 0.05

#: CPU seconds the kernel takes at the reference speed.
KERNEL_REF_S = 0.0002

#: How strongly the simulator's CPU time follows the kernel's between
#: spells: the slope of log(run CPU time) on log(kernel time), fitted
#: over 40 runs of each workload on the 2-vCPU host the benchmark was
#: tuned on, was 0.64 to 0.72 at the packet level and 0.85 at the contact
#: level.  Scaling by the full kernel ratio overcorrects.
SENSITIVITY = 0.75

#: Fewest kernel timings a sample needs to be scaled by its own; shorter
#: samples use every timing of the run.
MIN_TIMINGS = 5

_TABLE = [i * 0.25 for i in range(64)]


def _kernel() -> float:
    """Fixed interpreter work: float arithmetic, list reads, branches and
    calls on a few warm objects.  It creates no container, so neither the
    program's heap nor the garbage collector changes its cost."""
    table = _TABLE
    acc = 0.0
    for i in range(600):
        x = table[i & 63] * 1.5 + i
        if x > acc:
            acc = max(acc, x % 97.0)
        else:
            acc -= x * 0.001
    return acc


def trimmed_mean(values: List[float], trim: float = 0.1) -> float:
    """Mean after dropping the lowest and highest ``trim`` share."""
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


class Window:
    """The kernel timings taken during one timed sample, and their cost."""

    def __init__(self) -> None:
        self.timings: List[float] = []
        self.cost_s = 0.0


class SpeedSampler:
    """Times the kernel while samples run; holds every timing of the run."""

    def __init__(self) -> None:
        self.timings: List[float] = []

    @contextlib.contextmanager
    def sampling(self) -> Iterator[Window]:
        """Time the kernel every :data:`INTERVAL_S` inside the block."""
        window = Window()
        clock = time.process_time

        def handler(signum: int, frame: Any) -> None:
            start = clock()
            _kernel()  # warm the caches the program has just evicted
            warm = clock()
            _kernel()
            end = clock()
            window.timings.append(end - warm)
            window.cost_s += end - start

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield window
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.timings.extend(window.timings)

    def scale(self, window: Optional[Window] = None) -> float:
        """The factor to the reference speed, from the kernel timings of
        ``window`` (if it has enough) or of the whole run."""
        timings = self.timings
        if window is not None and len(window.timings) >= MIN_TIMINGS:
            timings = window.timings
        if not timings:
            return 1.0
        return (KERNEL_REF_S / trimmed_mean(timings)) ** SENSITIVITY
