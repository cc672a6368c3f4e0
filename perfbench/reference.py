"""Host-speed gauge: a fixed reference computation timed alongside a workload.

The benchmark runs on a few vCPUs of a shared host whose speed drifts:
on a 2-vCPU KVM guest of a 2.1 GHz Xeon, the median latency of the
same serving requests moved by up to 2.1x between 2-second windows of
one run, and the same fixed loop moved alike.  Between runs minutes
apart the drift is as large, so raw timings of one program spread
across runs by more than any regression bound.

A :class:`Gauge` therefore times a fixed reference pass every
:data:`PASS_EVERY_S` of a workload's run, between operations and
outside their timed calls, each right after an untimed pass that warms
its code and data.  The pass imports nothing from the program,
so a change to the program cannot move it.  Each operation's latency is
then scaled by ``REFERENCE_PASS_S[kind] / p``, where ``p`` is the
median pass time of the :data:`WINDOW_S` window the operation ended in:
the latency the operation would have had on a host running the pass in
its reference time.

There are two kinds of pass, because a host's slow spells do not slow
every kind of work alike.  The ``mixed`` pass (interpreter work,
library calls, small and mid-sized NumPy calls) is made of what the
serving, ingest and n = 2,000 batch operations are made of.  Over the
2-second windows of a serving run it moved with the requests' median
latency (log-log slope 1.0) and cut that median's spread (IQR over
median) from 0.07 to 0.04.  The n = 200,000 batch queries are bound by memory latency,
and slowed by up to 2.3 times as much as the mixed pass did; the
``memory`` pass, binary searches over an 8 MB sorted array, moved with
them (log-log slope 0.9 to 1.0 against the mixed pass's 0.4 to 0.6,
with another process streaming memory on the other vCPU half the time)
and cut their window spread from 0.10 to 0.06.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import statistics
import time
from typing import Callable, Sequence

import numpy as np

#: Median time of one pass of each kind on the reference host (a
#: 2-vCPU KVM guest of a 2.1 GHz Xeon): scaled latencies read as
#: latencies on that host at its median speed.
REFERENCE_PASS_S = {"mixed": 1.3e-3, "memory": 0.9e-3}
#: Least wall time between the end of one pass and the start of the
#: next; a pass runs after the first operation that ends past it.
PASS_EVERY_S = 0.025
#: Width of the windows whose median pass time scales the operations
#: that end in them.
WINDOW_S = 2.0
#: Untimed passes run before the first timed one.
WARM_PASSES = 5
#: Timed passes run just before and just after a set-up, to scale it.
SETUP_PASSES = 15

_RNG = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(99,)))
_SORTED = np.sort(_RNG.random(200_000))
_PROBES = _RNG.random(300)
_LONG = _RNG.random(100_000)
_SHORT = _LONG[:2_000].copy()
_DOC = {
    "rows": [
        {"id": i, "name": f"n{i}", "vals": [i * 0.5, i * 1.5, None], "ok": i % 2 == 0}
        for i in range(20)
    ]
}
_NAME = re.compile(r"n(\d+)")


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b

    def at(self, x: float) -> float:
        return self.a * x + self.b


@dataclasses.dataclass(frozen=True)
class _Record:
    a: float
    b: float
    name: str


def mixed_pass() -> int:
    """One pass of the interpreter-and-NumPy reference mix (about 1.3 ms warm)."""
    # Interpreter: objects, method calls, dicts, formatting.
    acc, table, flags = 0.0, {}, []
    for i in range(200):
        acc += _Point(i, 0.5).at(0.25)
        table[(i & 31, "k")] = acc
        flags.append(math.isfinite(acc) and acc >= 0.0)
        text = f"{i}:{acc:.3f}"
    # Library code with a broad footprint: json, re, dataclasses, sorting.
    rows = json.loads(json.dumps(_DOC))["rows"]
    ids = [_NAME.match(row["name"]).group(1) for row in rows]
    records = sorted(
        (_Record(row["vals"][0], row["vals"][1], row["name"]) for row in rows),
        key=lambda r: (-r.a, r.name),
    )
    records = [dataclasses.replace(r, a=r.a + 1.0) for r in records]
    # Small NumPy calls, dominated by call overhead.
    for _ in range(30):
        np.searchsorted(_SHORT, 0.5)
        np.minimum(_SHORT[:8], 0.3).sum()
    # Large NumPy calls, dominated by memory traffic.
    np.cumsum(_LONG)
    np.searchsorted(_SORTED, _PROBES)
    np.sort(_SHORT)
    return len(table) + len(flags) + len(text) + len(ids) + len(records)


@functools.cache
def _memory_inputs() -> "tuple[np.ndarray, np.ndarray]":
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(98,)))
    return np.sort(rng.random(1_000_000)), rng.random(2_000)


def memory_pass() -> int:
    """One pass of the memory-latency reference: 2,000 binary searches over 8 MB.

    About 0.9 ms warm.
    """
    keys, probes = _memory_inputs()
    return int(np.searchsorted(keys, probes)[-1])


PASSES: "dict[str, Callable[[], int]]" = {"mixed": mixed_pass, "memory": memory_pass}


class Gauge:
    """Times a reference pass of one kind between a workload's operations."""

    def __init__(self, kind: str, clock: Callable[[], float] = time.perf_counter) -> None:
        self._pass = PASSES[kind]
        self.reference_s = REFERENCE_PASS_S[kind]
        self._clock = clock
        for _ in range(WARM_PASSES):
            self._pass()
        self.start = self._last = clock()
        #: ``(end, duration)`` of every timed pass, in order.
        self.passes: list[tuple[float, float]] = []

    def tick(self) -> None:
        """Run a pass if :data:`PASS_EVERY_S` has gone by since the last one."""
        if self._clock() - self._last >= PASS_EVERY_S:
            self.measure()

    def measure(self) -> None:
        """Run one pass untimed, then run and time another."""
        # The untimed pass brings the pass's code and data back into the
        # caches, so the timed one does not depend on how much of them
        # the workload's last operation evicted: a program change that
        # touches less memory must not make the gauge read faster.
        self._pass()
        begin = self._clock()
        self._pass()
        end = self._clock()
        self.passes.append((end, end - begin))
        self._last = end

    def pass_s(self) -> float:
        """Median pass time of the whole run."""
        return statistics.median(duration for _, duration in self.passes)

    def scale(self, seconds: float) -> float:
        """``seconds`` scaled by the reference pass time over the run's median pass."""
        return seconds * self.reference_s / self.pass_s()

    def factors(self, ends: Sequence[float]) -> "list[float]":
        """The reference pass time over the median pass of each end time's window."""
        return scale_factors(self.start, self.passes, ends, self.reference_s)


def scale_factors(
    start: float,
    passes: "Sequence[tuple[float, float]]",
    ends: Sequence[float],
    reference_s: float,
) -> "list[float]":
    """Per time in ``ends``, ``reference_s`` over its window's median pass.

    Window ``k`` covers ``[start + k * WINDOW_S, start + (k + 1) * WINDOW_S)``;
    a window without passes borrows the nearest window that has some,
    the earlier one on a tie.
    """
    if not passes:
        raise ValueError("the gauge timed no reference pass")
    last = max([*(end for end, _ in passes), *ends])
    windows: list[list[float]] = [[] for _ in range(int((last - start) // WINDOW_S) + 1)]
    for end, duration in passes:
        windows[int((end - start) // WINDOW_S)].append(duration)
    filled = [k for k, window in enumerate(windows) if window]
    medians = [statistics.median(window) if window else 0.0 for window in windows]
    for k, window in enumerate(windows):
        if not window:
            medians[k] = medians[min(filled, key=lambda j: (abs(j - k), j))]
    return [reference_s / medians[int((end - start) // WINDOW_S)] for end in ends]
