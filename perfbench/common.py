"""Shared pieces of the benchmark: reference-speed scaling, exact
quantiles from raw samples, and process memory.

Wall-clock figures on a shared host drift with the host's speed (the
same process, same seed, can run 30% slower a minute later), and CPU
time does not help because the drift is in how fast the CPU runs, not
in how long the process waits. So every wall metric is stated at a
*reference speed*: each measured stretch of work is bracketed by a fixed
pure-Python reference loop, and its raw time is multiplied by
``REF_PIN_NS / reference time measured around it``. A uniform slowdown
of the host stretches both by the same factor and cancels out.
"""

from __future__ import annotations

import bisect
import math
import os
import time
from dataclasses import dataclass, field

#: Median time of one :func:`reference_loop` call on the host the
#: benchmark was calibrated on (2-core x86-64 VM, CPython 3.11). Scaled
#: wall metrics read as if measured on that host at that speed.
REF_PIN_NS = 4_500_000

#: Reference-loop repetitions per bracket; the median is used.
REF_REPS = 3


class _RefNode:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self, delta: int) -> int:
        self.value = (self.value + delta) & 0xFFFFFFFF
        return self.value


def reference_loop() -> int:
    """A fixed pure-Python workload shaped like the store's hot path:
    64-bit hash mixing, dict probes, small tuples, method calls and
    binary search over a sorted list. Imports nothing from the system
    under test, so a change to the system never changes the yardstick."""
    mask = (1 << 64) - 1
    table: dict[int, _RefNode] = {}
    fences = list(range(0, 1 << 16, 97))
    acc = 0
    for i in range(2_000):
        z = (i * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z ^= z >> 31
        key = z & 0xFFFF
        node = table.get(key)
        if node is None:
            node = table[key] = _RefNode(key, i)
        pair = (key, node.bump(i))
        acc ^= pair[1] + bisect.bisect_right(fences, pair[0])
    return acc + len(table)


def time_reference(clock=time.perf_counter_ns, loop=reference_loop,
                   cpus=()) -> float:
    """Median wall time (ns) of :data:`REF_REPS` reference-loop calls;
    with ``cpus``, the mean of that median on each CPU in turn (the
    calling thread's affinity is restored afterwards). Work split
    between processes pinned to different CPUs runs at the speed of
    all of them, and one CPU can slow down while another does not."""
    saved = os.sched_getaffinity(0) if cpus else None
    medians = []
    try:
        for cpu in cpus or (None,):
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            samples = []
            for _ in range(REF_REPS):
                start = clock()
                loop()
                samples.append(clock() - start)
            medians.append(sorted(samples)[REF_REPS // 2])
    finally:
        if saved is not None:
            os.sched_setaffinity(0, saved)
    return sum(medians) / len(medians)


class RefScale:
    """Brackets stretches of work with reference-loop timings.

    ``mark()`` times the reference loop (on each of ``cpus``, if given)
    and returns the scale factor for the stretch since the previous
    mark: ``REF_PIN_NS`` over the mean of the two bracketing reference
    times. Every factor is kept for the artifact.
    """

    def __init__(self, clock=time.perf_counter_ns, loop=reference_loop,
                 cpus=()) -> None:
        self._clock = clock
        self._loop = loop
        self._cpus = tuple(cpus)
        self._last = time_reference(clock, loop, self._cpus)
        self.factors: list[float] = []

    def mark(self) -> float:
        now = time_reference(self._clock, self._loop, self._cpus)
        factor = REF_PIN_NS / ((self._last + now) / 2)
        self._last = now
        self.factors.append(factor)
        return factor


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def quantile(sorted_values: list[float], q: float) -> float:
    """Exact sample quantile (linear interpolation between the two
    nearest ranks) of an already-sorted list."""
    if not sorted_values:
        raise InsufficientSamples("no samples")
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def beyond(n: int, q: float) -> int:
    """Samples of ``n`` that lie above the ``q`` quantile's rank."""
    return n - math.ceil(q * n)


def percentile(samples: list[float], q: float) -> float:
    """The ``q`` quantile of raw samples; refuses unless at least ten
    samples lie beyond it (a p99 needs 1000 samples)."""
    if beyond(len(samples), q) < 10:
        raise InsufficientSamples(
            f"p{q * 100:g} needs >= 10 samples beyond it, have "
            f"{len(samples)} samples"
        )
    return quantile(sorted(samples), q)


@dataclass
class Samples:
    """Latency samples of one operation type, grouped in rounds (fixed
    blocks of work). Each sample is scaled to the reference speed by
    the factor of the stretch it was timed in.

    A quantile is computed exactly over each round's samples, and the
    run reports the median over its rounds: a stall that lands in one
    round moves that round's tail, not the run's figure.
    """

    rounds: list[list[float]] = field(default_factory=list)
    raw_rounds: list[list[float]] = field(default_factory=list)
    _open: bool = False

    def extend(self, raw_ns: list[int], factor: float) -> None:
        """Add samples (ns) timed at scale ``factor`` to the open round."""
        if not self._open:
            self.rounds.append([])
            self.raw_rounds.append([])
            self._open = True
        self.raw_rounds[-1].extend(v / 1_000 for v in raw_ns)
        self.rounds[-1].extend(v * factor / 1_000 for v in raw_ns)

    def end_round(self) -> None:
        self._open = False

    def open_count(self) -> int:
        """Samples in the open round."""
        return len(self.rounds[-1]) if self._open else 0

    def fold_open_round(self) -> None:
        """Close the open round by joining it to the round before it,
        for a last round too small for its quantiles."""
        if self._open and len(self.rounds) > 1:
            self.rounds[-2].extend(self.rounds.pop())
            self.raw_rounds[-2].extend(self.raw_rounds.pop())
        self._open = False

    def summary(self, qs: tuple[float, ...] = (0.5, 0.99)) -> dict:
        """Median over rounds of each round's quantiles and mean (µs),
        scaled and raw, with the sample and round counts."""
        out: dict = {"n": sum(map(len, self.rounds)),
                     "rounds": len(self.rounds)}
        for prefix, rounds in (("", self.rounds), ("raw_", self.raw_rounds)):
            for q in qs:
                out[f"{prefix}p{q * 100:g}"] = median(
                    [percentile(r, q) for r in rounds]
                )
            out[f"{prefix}mean"] = median([sum(r) / len(r) for r in rounds])
        return out


def median(values: list[float]) -> float:
    ordered = sorted(values)
    return quantile(ordered, 0.5)


def status_mb(field: str, pid: int | str = "self") -> float:
    """A memory field of ``/proc/<pid>/status`` (VmRSS, VmHWM), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {field} in /proc/{pid}/status")
