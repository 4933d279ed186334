"""The machine's speed, measured next to every job.

On a shared host the same work runs at different speeds from one second to
the next and from one minute to the next (identical passes of the same jobs
took from 1x to 2x; CPU time tracked wall time, so the time is lost inside
the CPU, not to the scheduler).  A run therefore times a fixed calibration
unit before every job and after the last one, and reports each job's time
scaled to the reference speed:

    reported = measured * ref_s / (median time of the unit around the job)

where "around" is the job's own duration before and after it (see
``Unit.factors``).  ``ref_s`` is the unit's median time on the reference
machine (2-core Xeon, Python 3.11), so reported times are close to the
milliseconds measured there.

There are two units, matched to what the jobs spend their time on:

- ``INTERPRETER``: a fixed piece of pure-Python work, for jobs that run in
  this process.  It allocates no object the cyclic garbage collector
  tracks, so it does not move the collector's schedule inside the jobs.
- ``MEMORY``: first touches of fresh anonymous pages, for jobs that are
  process starts: the CLI jobs and the set-up of a fresh process.  A new
  process faults in tens of megabytes, and on this kind of host the cost of
  a page fault drifts with the host's memory load, which pure-Python work
  does not follow (per CLI job, the job time correlated 0.7 with this unit
  and 0.6 with the interpreter unit).

Neither unit uses ``ghzgraphs`` code or imports numpy: a change to the
library moves the job times and not the unit's.
"""

from __future__ import annotations

import mmap
from bisect import bisect_left, bisect_right
from itertools import accumulate
from statistics import median
from time import perf_counter

_TABLE = {i: (i * 7919) % 1009 for i in range(1009)}


def interpret() -> None:
    """A fixed amount of interpreter work: integer arithmetic, dict lookups
    and short string operations."""
    table = _TABLE
    acc = 0
    for i in range(5000):
        k = (acc + i * 31) % 1009
        acc = (acc * 33 + table[k]) & 0xFFFFFFF
        if i % 16 == 0:
            acc ^= len(str(acc)) + ord(str(k)[-1])


_PAGE = mmap.PAGESIZE
_FRESH_BYTES = 32 << 20


def touch_pages() -> None:
    """Map fresh anonymous memory, write one byte to each page, unmap it."""
    with mmap.mmap(-1, _FRESH_BYTES) as m:
        for offset in range(0, _FRESH_BYTES, _PAGE):
            m[offset] = 1


class Unit:
    """A calibration unit: ``run`` done ``count`` times per sample, taking
    ``ref_s`` seconds each at reference speed."""

    def __init__(self, run, ref_s: float, count: int = 1):
        self.run = run
        self.ref_s = ref_s
        self.count = count

    def times(self, count: int) -> "Unit":
        return Unit(self.run, self.ref_s, count)

    def sample(self) -> float:
        """Seconds per run, over ``count`` runs back to back."""
        start = perf_counter()
        for _ in range(self.count):
            self.run()
        return (perf_counter() - start) / self.count

    def factors(self, samples: list[float], durations: list[float]) -> list[float]:
        """Factors to reference speed for jobs run one after another, job i
        taking ``durations[i]`` seconds between samples i and i + 1.

        A job's speed is the median of the samples taken within its own
        duration before its start and after its end (the two next to it
        always): a short job is scaled by the speed right around it, a long
        one by the speed over a span as long as itself on each side."""
        times = list(accumulate(durations, initial=0.0))
        out = []
        for i, d in enumerate(durations):
            lo = min(i, bisect_left(times, times[i] - d))
            hi = max(i + 2, bisect_right(times, times[i + 1] + d))
            out.append(self.ref_s / median(samples[lo:hi]))
        return out

    def speed_scale(self, samples: int = 5) -> float:
        """Factor to reference speed from the median of a few samples, after
        one unsampled warm-up run."""
        self.run()
        return self.ref_s / median(self.sample() for _ in range(samples))


INTERPRETER = Unit(interpret, ref_s=0.0021)
MEMORY = Unit(touch_pages, ref_s=0.033)
