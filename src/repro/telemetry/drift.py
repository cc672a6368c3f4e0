"""Drift and staleness monitors for built statistics.

Every estimator in this codebase is build-once: an ANALYZE draws a
sample, builds a statistic, and the statistic silently ages as the
underlying data changes.  Before incremental maintenance can *react*
to change, something has to *measure* it — that is this module:

* :class:`StalenessMonitor` — per-table gauges for how old a table's
  statistics are (``drift.staleness.age.<table>``, seconds since the
  last ANALYZE) and how many catalog versions behind they have fallen
  (``drift.staleness.lag.<table>``).
* :class:`DriftMonitor` — a distribution-shift statistic per
  (table, column): the two-sample Kolmogorov–Smirnov distance between
  the *build-time sample* (the baseline ANALYZE actually used) and a
  bounded :class:`ReservoirSample` of recently observed values,
  emitted as the ``drift.ks.<table>.<column>`` gauge.  KS distance is
  in [0, 1]; 0 means the recent data looks exactly like what the
  statistic was built from, and a sustained high value is the signal
  a selective-rebuild policy consumes.

Both monitors are thread-safe and cheap enough to sit on the serving
path; gauges are only emitted while telemetry is enabled.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import zlib
from typing import Mapping

import numpy as np

from repro.telemetry.runtime import get_telemetry

#: Default number of recent values retained per (table, column).
RESERVOIR_CAPACITY = 512


class ReservoirSample:
    """A bounded uniform sample of a stream (Vitter's algorithm R).

    Every value ever offered has equal probability of being in the
    reservoir, so the KS comparison sees an unbiased recent-history
    sample at O(capacity) memory.  Seeded explicitly — reproducibility
    is a repo-wide invariant (see DESIGN.md) — and lock-guarded so
    serving threads can feed one reservoir concurrently.
    """

    def __init__(self, capacity: int = RESERVOIR_CAPACITY, seed: int = 0) -> None:
        if capacity < 2:
            raise ValueError(f"reservoir capacity must be >= 2, got {capacity}")
        self._capacity = int(capacity)
        self._rng = np.random.default_rng(seed)
        self._values: list[float] = []
        self._seen = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        """Maximum number of retained values."""
        return self._capacity

    @property
    def seen(self) -> int:
        """Total values offered so far."""
        with self._lock:
            return self._seen

    def add(self, value: float) -> None:
        """Offer one value to the reservoir."""
        with self._lock:
            self._add_locked(float(value))

    def extend(self, values: np.ndarray) -> None:
        """Offer a batch of values under one lock acquisition."""
        flat = np.asarray(values, dtype=np.float64).ravel()
        with self._lock:
            for value in flat:
                self._add_locked(float(value))

    def _add_locked(self, value: float) -> None:
        self._seen += 1
        if len(self._values) < self._capacity:
            self._values.append(value)
            return
        slot = int(self._rng.integers(0, self._seen))
        if slot < self._capacity:
            self._values[slot] = value

    def values(self) -> np.ndarray:
        """The retained sample (copy)."""
        with self._lock:
            return np.asarray(self._values, dtype=np.float64)


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov distance ``sup |F_a - F_b|``.

    Both arrays must be non-empty; the result is in [0, 1].
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_distance needs two non-empty samples")
    # Evaluate both empirical CDFs at every jump point of either.
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


@dataclasses.dataclass(frozen=True)
class DriftReading:
    """One drift measurement for a (table, column) pair."""

    table: str
    column: str
    ks: float
    baseline_size: int
    recent_seen: int


class DriftMonitor:
    """Per-(table, column) distribution-shift tracking.

    ``set_baseline`` stores the sample a statistic was built from;
    ``ingest`` feeds recently observed attribute values into a bounded
    reservoir and (when telemetry is enabled) emits the current KS
    distance as the ``drift.ks.<table>.<column>`` gauge plus a
    ``drift.values`` ingest counter.
    """

    def __init__(
        self, capacity: int = RESERVOIR_CAPACITY, min_recent: int = 16
    ) -> None:
        if min_recent < 2:
            raise ValueError(f"min_recent must be >= 2, got {min_recent}")
        self._capacity = int(capacity)
        self._min_recent = int(min_recent)
        self._baselines: dict[tuple[str, str], np.ndarray] = {}
        self._reservoirs: dict[tuple[str, str], ReservoirSample] = {}
        self._lock = threading.Lock()

    def set_baseline(self, table: str, column: str, sample: np.ndarray) -> None:
        """Store the build-time sample and restart the recent window."""
        baseline = np.sort(np.asarray(sample, dtype=np.float64).ravel())
        if baseline.size == 0:
            raise ValueError("baseline sample must be non-empty")
        key = (table, column)
        with self._lock:
            self._baselines[key] = baseline
            # Deterministic per-key reservoir seed (crc32, not hash():
            # str hashing is salted per process): same ANALYZE order,
            # same drift readings.
            self._reservoirs[key] = ReservoirSample(
                self._capacity, seed=zlib.crc32(f"{table}|{column}|drift".encode()) & 0x7FFFFFFF
            )

    def forget(self, table: str) -> None:
        """Drop the table's baselines and recent windows (statistics were invalidated)."""
        with self._lock:
            for key in [key for key in self._baselines if key[0] == table]:
                del self._baselines[key]
                self._reservoirs.pop(key, None)

    def has_baseline(self, table: str, column: str) -> bool:
        """Whether a build-time baseline is stored for the pair."""
        with self._lock:
            return (table, column) in self._baselines

    def ingest(self, table: str, column: str, values: np.ndarray) -> "DriftReading | None":
        """Feed recently observed values; returns the reading, if any.

        Values offered before a baseline exists are dropped (there is
        nothing to compare against yet).  A reading is produced once
        the reservoir holds at least ``min_recent`` values.
        """
        key = (table, column)
        with self._lock:
            reservoir = self._reservoirs.get(key)
        if reservoir is None:
            return None
        flat = np.asarray(values, dtype=np.float64).ravel()
        reservoir.extend(flat)
        telemetry = get_telemetry()
        if telemetry.enabled and flat.size:
            telemetry.metrics.inc("drift.values", flat.size)
        reading = self.reading(table, column)
        if reading is not None and telemetry.enabled:
            telemetry.metrics.set_gauge(f"drift.ks.{table}.{column}", reading.ks)
        return reading

    def reading(self, table: str, column: str) -> "DriftReading | None":
        """The current drift measurement, or ``None`` if underfed."""
        key = (table, column)
        with self._lock:
            baseline = self._baselines.get(key)
            reservoir = self._reservoirs.get(key)
        if baseline is None or reservoir is None:
            return None
        recent = reservoir.values()
        if recent.size < self._min_recent:
            return None
        return DriftReading(
            table=table,
            column=column,
            ks=ks_distance(baseline, recent),
            baseline_size=int(baseline.size),
            recent_seen=reservoir.seen,
        )

    def snapshot(self) -> dict[str, float]:
        """All current KS readings, keyed ``<table>.<column>``."""
        with self._lock:
            keys = list(self._baselines)
        out: dict[str, float] = {}
        for table, column in keys:
            reading = self.reading(table, column)
            if reading is not None:
                out[f"{table}.{column}"] = reading.ks
        return out


@dataclasses.dataclass(frozen=True)
class Staleness:
    """How stale one table's statistics are."""

    table: str
    age_seconds: float
    version_lag: int


class StalenessMonitor:
    """Tracks per-table statistics age and catalog-version lag.

    ``on_analyze`` stamps a rebuild; ``observe`` computes the current
    staleness and (when telemetry is enabled) emits the
    ``drift.staleness.age.<table>`` / ``drift.staleness.lag.<table>``
    gauges.
    """

    def __init__(self) -> None:
        self._analyzed_at: dict[str, float] = {}
        self._analyzed_version: dict[str, int] = {}
        self._lock = threading.Lock()

    def on_analyze(
        self, table: str, version: int, timestamp: float | None = None
    ) -> None:
        """Record that ``table`` was analyzed at catalog ``version``."""
        with self._lock:
            self._analyzed_at[table] = time.time() if timestamp is None else timestamp
            self._analyzed_version[table] = int(version)

    def forget(self, table: str) -> None:
        """Drop the table's stamps (statistics were invalidated)."""
        with self._lock:
            self._analyzed_at.pop(table, None)
            self._analyzed_version.pop(table, None)

    def observe(
        self, table: str, current_version: int, now: float | None = None
    ) -> "Staleness | None":
        """Current staleness of ``table``; ``None`` if never analyzed."""
        with self._lock:
            analyzed_at = self._analyzed_at.get(table)
            analyzed_version = self._analyzed_version.get(table)
        if analyzed_at is None or analyzed_version is None:
            return None
        staleness = Staleness(
            table=table,
            age_seconds=(time.time() if now is None else now) - analyzed_at,
            version_lag=max(0, int(current_version) - analyzed_version),
        )
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.set_gauge(
                f"drift.staleness.age.{table}", staleness.age_seconds
            )
            telemetry.metrics.set_gauge(
                f"drift.staleness.lag.{table}", float(staleness.version_lag)
            )
        return staleness

    def snapshot(self, versions: Mapping[str, int]) -> dict[str, Staleness]:
        """Staleness of every stamped table given current versions."""
        with self._lock:
            tables = list(self._analyzed_at)
        out: dict[str, Staleness] = {}
        for table in tables:
            staleness = self.observe(table, versions.get(table, 0))
            if staleness is not None:
                out[table] = staleness
        return out
