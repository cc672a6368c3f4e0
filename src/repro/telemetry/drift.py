"""Drift and staleness monitors for built statistics.

Every estimator in this codebase is build-once: an ANALYZE draws a
sample, builds a statistic, and the statistic silently ages as the
underlying data changes.  Before incremental maintenance can *react*
to change, something has to *measure* it — that is this module:

* :class:`StalenessMonitor` — per-table gauges for how old a table's
  statistics are (``drift.staleness.age.<table>``, seconds since the
  last ANALYZE) and how many catalog versions behind they have fallen
  (``drift.staleness.lag.<table>``).
* :func:`grid_ks` — the distribution-shift statistic: the
  Kolmogorov–Smirnov distance ``max |F_base - F_live|`` between two
  bin-count vectors over the same grid edges.  The catalog compares
  each column's summary grid at the last full ANALYZE against the live
  one and emits the result as the ``drift.ks.<table>.<column>`` gauge.
  It bounds how far the true selectivity of any half-range
  ``[low, x]`` with ``x`` on a grid edge has moved since the build;
  0 means the data looks exactly like what the statistic was built
  from.

Gauges are only emitted while telemetry is enabled.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Mapping

import numpy as np

from repro.telemetry.runtime import get_telemetry


def grid_ks(base: np.ndarray, live: np.ndarray) -> float:
    """KS distance between two count vectors over the same grid edges.

    Both empirical CDFs are evaluated at every grid edge; the result is
    in [0, 1].  Both vectors must hold positive mass.
    """
    cdf_base = np.cumsum(base, dtype=np.float64)
    cdf_live = np.cumsum(live, dtype=np.float64)
    if cdf_base.size == 0 or cdf_base[-1] <= 0.0 or cdf_live[-1] <= 0.0:
        raise ValueError("grid_ks needs two grids with positive mass")
    return float(np.abs(cdf_base / cdf_base[-1] - cdf_live / cdf_live[-1]).max())


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
