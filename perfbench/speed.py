"""Host-speed calibration: the time scale of the end-to-end metrics.

The benchmark runs on a few shared cores whose speed drifts by a fifth
or more over minutes and swings by half within seconds; ``cpu_s`` moves
with ``wall_s``, so the drift is in the host, not in scheduling.  To
compare two commits measured at different times, every timed interval
is scaled by how fast the host ran during it: a fixed pure-Python
:func:`kernel` (it allocates no container, so the garbage collector
never runs in it and nothing the program does can speed it up or slow
it down) is timed every :data:`PERIOD` seconds, and an interval of
``t`` seconds during which one kernel took ``k`` CPU seconds on average
is reported as ``t * REFERENCE / k`` — seconds at the reference host
speed.  ``README.md`` records how the kernel was chosen.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from typing import List, Optional, Tuple

#: Seconds between kernel samples.
PERIOD = 0.05
#: Steps of the kernel's two halves (about 3 ms together).
LCG_STEPS = 10000
WALK_STEPS = 6000
#: Entries of the table the walk reads (a few MB: past L2, within L3).
TABLE_SIZE = 1 << 14
#: CPU seconds of one kernel sample on the host the benchmark was
#: written on (2-vCPU Intel Xeon, Python 3.11.7); only sets the unit.
REFERENCE = 0.0035
#: Fewest samples a scale is taken over: an interval with fewer
#: borrows the most recent ones.
MIN_SAMPLES = 5
#: Samples of one :func:`burst`.
BURST = 20

_rng = random.Random(1997)
_NODES = [(index % 40, _rng.randrange(TABLE_SIZE), _rng.randrange(TABLE_SIZE))
          for index in range(TABLE_SIZE)]
_VALUES = {key: _rng.randrange(1000) for key in range(TABLE_SIZE)}


def kernel() -> float:
    """CPU seconds of one fixed piece of work: an integer LCG, then a
    random walk of tuple unpacking and dictionary look-ups over a
    prebuilt table.  Neither allocates a container."""
    start = time.thread_time()
    x = 1
    for _ in range(LCG_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    nodes, values, node, total = _NODES, _VALUES, 1, 0
    for _ in range(WALK_STEPS):
        var, low, high = nodes[node]
        total += values[(low << 7 ^ high) % TABLE_SIZE] + var
        node = high if total & 1 else low
    return time.thread_time() - start


def scale(samples: List[float]) -> float:
    """Reference seconds per second measured while ``samples`` were
    taken."""
    return REFERENCE / statistics.mean(samples)


def window(samples: List[float], first: int) -> List[float]:
    """``samples[first:]``, widened back to :data:`MIN_SAMPLES`."""
    return samples[max(0, min(first, len(samples) - MIN_SAMPLES)):]


def burst() -> float:
    """The scale from :data:`BURST` kernel samples taken back to back."""
    return scale([kernel() for _ in range(BURST)])


class Sampler:
    """Times :func:`kernel` from ``SIGALRM`` every :data:`PERIOD`
    seconds while started (and :data:`MIN_SAMPLES` times on start), in
    the main thread of a busy process, and keeps the wall and CPU
    seconds it took from the program so that a caller can subtract
    them."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.paused_wall = 0.0
        self.paused_cpu = 0.0
        self._previous: Optional[object] = None

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append(kernel())
        self.paused_cpu += self.samples[-1]
        self.paused_wall += time.perf_counter() - started

    def start(self) -> None:
        self.samples += [kernel() for _ in range(MIN_SAMPLES)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Tuple[int, float, float]:
        return len(self.samples), self.paused_wall, self.paused_cpu

    def since(self, mark: Tuple[int, float, float]
              ) -> Tuple[float, float, float]:
        """Paused wall and CPU seconds since ``mark``, and the scale over
        that interval."""
        first, wall, cpu = mark
        return (self.paused_wall - wall, self.paused_cpu - cpu,
                scale(window(self.samples, first)))
