"""Host time scaled to a reference host speed.

The benchmark runs on shared hosts whose speed for the same work swings
by up to 1.6x, in bursts of seconds and in drifts over minutes, as
other tenants load the physical cores. A :class:`Gauge` times a section
of the program and, while it runs, samples the host's speed: a timer
signal interrupts the program every ``INTERVAL_S`` and times a fixed
loop of ``CHUNK_STEPS`` dict lookups over a ``TABLE_SIZE``-entry table
(about 0.6 MB, the size of a mid-level CPU cache), and one sample is
taken at each end of the section. The section's host seconds, less the
samples' own time, are scaled by ``NOMINAL_CHUNK_S`` over the mean
sample: the seconds the section would have taken on a host where the
loop runs at its nominal speed. The simulation is untouched, so its
outputs are the same with or without the gauge.

Dict lookups are much of what the program does, and they slow down
with it. Over 16 identical crawl units on a loaded 2-vCPU Xeon host,
scaling by this loop cut the units' coefficient of variation from 0.11
to 0.03, where a loop of integer arithmetic cut it to 0.06 and one of
random reads from a 16 MB list to 0.07.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

#: seconds between samples inside a section
INTERVAL_S = 0.02
#: entries of the reference loop's table, and lookups per sample
TABLE_SIZE = 8192
CHUNK_STEPS = 6000
#: the reference loop's host seconds on a quiet 2-vCPU Xeon host
#: (Python 3.11); the scale of every gauged time
NOMINAL_CHUNK_S = 0.3e-3


_rng = random.Random(1)
_TABLE = {_rng.getrandbits(40): value for value in range(TABLE_SIZE)}
_KEYS = list(_TABLE)[:CHUNK_STEPS]


def _chunk() -> int:
    table, total = _TABLE, 0
    for key in _KEYS:
        total += table[key]
    return total


def sample() -> float:
    """Host seconds for one run of the reference loop."""
    started = time.perf_counter()
    _chunk()
    return time.perf_counter() - started


@dataclass
class Section:
    """One gauged section: its host seconds and the samples taken in it."""

    #: host seconds, less the time spent sampling
    host_s: float = 0.0
    samples: list[float] = field(default_factory=list)

    @property
    def slowdown(self) -> float:
        """The host's mean slowness during the section, against nominal."""
        return statistics.fmean(self.samples) / NOMINAL_CHUNK_S

    def scaled(self, host_s: float | None = None) -> float:
        """``host_s`` (default: the whole section) at nominal host speed."""
        return (self.host_s if host_s is None else host_s) / self.slowdown


class Gauge:
    """Times sections of the program at nominal host speed. With
    ``interval_s=None`` it samples only at each end of a section (the
    traced runs do so, so that no sample lands inside a span)."""

    def __init__(self, interval_s: float | None = INTERVAL_S) -> None:
        self.interval_s = interval_s
        #: host seconds spent in samples taken inside sections so far
        self.sampled_s = 0.0

    def now(self) -> float:
        """A host clock that stands still while a sample inside a section runs."""
        return time.perf_counter() - self.sampled_s

    @contextmanager
    def section(self) -> Iterator[Section]:
        section = Section(samples=[sample()])
        interrupts: list[float] = []

        def on_timer(signum, frame) -> None:
            interrupts.append(sample())
            self.sampled_s += interrupts[-1]

        previous = None
        if self.interval_s is not None:
            previous = signal.signal(signal.SIGALRM, on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        started = time.perf_counter()
        try:
            yield section
        finally:
            elapsed = time.perf_counter() - started
            if self.interval_s is not None:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
            section.host_s = elapsed - sum(interrupts)
            section.samples.extend(interrupts)
            section.samples.append(sample())
