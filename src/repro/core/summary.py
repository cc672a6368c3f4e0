"""Mergeable, versioned column statistics for incremental ANALYZE.

The paper's estimators are build-once: every insert or delete
invalidates the whole model and the fingerprint-keyed statistics
cache.  This module provides the mutable substrate that breaks that
coupling.  A :class:`ColumnSummary` absorbs row batches in O(batch)
(``update`` / ``delete``), combines with summaries built over disjoint
partitions (``merge``), and at any point emits an immutable
:class:`FrozenSummary` (``freeze``) from which every estimator family
can be constructed — so the catalog refreshes statistics in O(delta)
instead of re-scanning O(n) rows.

Three mergeable components are maintained per column:

* a **distinct-value bottom-k reservoir** — the ``capacity`` distinct
  values with the smallest deterministic seeded hash, each with an
  exact multiplicity count.  Retention is a *global* condition (the
  hash ranks against every distinct value ever seen, independent of
  arrival order), which makes the reservoir exactly mergeable: for the
  same seed, ``merge(update(A), update(B))`` is byte-identical to
  ``update(A + B)`` in any split or merge order.
* a **bin-count/CDF sketch** — equal-width counts over the declared
  domain; merge is vector addition, delete is subtraction.
* **moment accumulators** — live row count, sum and sum of squares.

Determinism comes from hashing, not an RNG: each value's priority is a
splitmix64-style mix of its float64 bit pattern with the seed, so no
random state needs to be carried, split, or re-synchronized across
partitions (see DESIGN.md §seeding).  splitmix64's finalizer is a
bijection on 64-bit words, so distinct values get distinct priorities
and the bottom-k cut needs no tie-breaking.

Deletions are exact for values still tracked by the reservoir;
deletions of values that were evicted (only possible once the distinct
count exceeded ``capacity``) degrade gracefully — they adjust the
sketch and moments exactly and are tallied on the
``summary.delete.unaccounted`` counter so dashboards can see when a
summary's sample has drifted from the live multiset.

``freeze`` expands the reservoir back into a sorted sample array.  A
one-shot summary whose capacity covers every distinct value reproduces
the input multiset exactly, which is what keeps the raw-array
estimator path bit-identical (see :meth:`FrozenSummary.from_sample`).
"""

from __future__ import annotations

import dataclasses
import zlib

import numpy as np

from repro.core.base import InvalidSampleError, validate_sample
from repro.data.domain import Interval
from repro.telemetry.runtime import get_telemetry

__all__ = [
    "ColumnSummary",
    "FrozenSummary",
    "value_priorities",
    "DEFAULT_CAPACITY",
    "DEFAULT_GRID_BINS",
]

#: Default number of distinct values retained by the reservoir.
DEFAULT_CAPACITY = 2048

#: Default number of equal-width bins in the CDF sketch.
DEFAULT_GRID_BINS = 256

#: Expansion cap: ``freeze`` never materializes a sample larger than
#: this multiple of the reservoir capacity (duplicate-heavy columns
#: would otherwise expand back to O(n) values).
EXPANSION_FACTOR = 4

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def value_priorities(values: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic 64-bit priority per float64 value.

    splitmix64-style finalizer over the value's bit pattern offset by
    the seed.  The mix is bijective for a fixed seed, so distinct
    values always receive distinct priorities; ``-0.0`` is canonicalized
    to ``0.0`` first so equal floats hash equally.
    """
    canonical = np.where(values == 0.0, 0.0, np.asarray(values, dtype=np.float64))
    bits = np.ascontiguousarray(canonical, dtype=np.float64).view(np.uint64)
    offset = np.uint64(((int(seed) & _MASK64) * _GOLDEN + _GOLDEN) & _MASK64)
    # uint64 wrap-around is the *point* of the mix (mod-2^64 arithmetic
    # produces a bijection, never NaN/inf), so the overflow warning is
    # suppressed rather than handled.
    with np.errstate(over="ignore"):
        z = bits + offset
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _readonly(array: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(array)
    if out is array:
        out = array.copy()
    out.flags.writeable = False
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class FrozenSummary:
    """Immutable estimator inputs produced by :meth:`ColumnSummary.freeze`.

    Everything an estimator constructor needs — a sorted sample, the
    declared domain, the live row count, the CDF sketch and the first
    two moments — plus a content fingerprint for cache keys.  Frozen
    summaries never change; refreshing statistics means freezing a new
    one and swapping the reference (see ``repro.db.catalog``).
    """

    domain: Interval
    sample: np.ndarray
    row_count: int
    grid_edges: np.ndarray
    grid_counts: np.ndarray
    total: float
    total_sq: float
    seed: int
    version: int
    fingerprint: str
    unaccounted_deletes: int

    @property
    def mean(self) -> float:
        """Mean of the live rows (exact, from the moment accumulators)."""
        return self.total / self.row_count

    @property
    def variance(self) -> float:
        """Population variance of the live rows (exact)."""
        mean = self.mean
        return max(self.total_sq / self.row_count - mean * mean, 0.0)

    @property
    def grid_cdf(self) -> np.ndarray:
        """Empirical CDF at the grid edges (length ``bins + 1``)."""
        mass = float(self.grid_counts.sum())
        if mass <= 0.0:
            return np.zeros(self.grid_edges.size)
        return np.concatenate(([0.0], np.cumsum(self.grid_counts) / mass))

    @classmethod
    def from_sample(
        cls,
        sample: np.ndarray,
        domain: Interval,
        *,
        seed: int = 0,
        grid_bins: int = DEFAULT_GRID_BINS,
    ) -> "FrozenSummary":
        """Thin adapter: wrap a raw sample array as a frozen summary.

        The reservoir capacity is set to the sample size, so every
        distinct value is retained and the frozen sample is the input
        multiset, sorted — estimators built through this path are
        bit-identical to the historical raw-array constructors.
        """
        values = validate_sample(sample, domain)
        summary = ColumnSummary(
            domain, seed=seed, capacity=max(int(values.size), 1), grid_bins=grid_bins
        )
        summary.update(values)
        return summary.freeze()


class ColumnSummary:
    """Mutable, mergeable statistics over one metric column.

    Parameters
    ----------
    domain:
        Declared attribute domain; all ingested values must lie inside
        it (the grid sketch bins over it).
    seed:
        Hash seed for the reservoir priorities.  Summaries can only be
        merged when built with the same seed, capacity, grid and
        domain.
    capacity:
        Maximum number of *distinct* values retained by the reservoir.
    grid_bins:
        Number of equal-width bins in the CDF sketch.

    Not thread-safe: callers (the catalog's refresh path) serialize
    mutations and publish frozen snapshots to readers.
    """

    def __init__(
        self,
        domain: Interval,
        *,
        seed: int,
        capacity: int = DEFAULT_CAPACITY,
        grid_bins: int = DEFAULT_GRID_BINS,
    ) -> None:
        if capacity < 1:
            raise InvalidSampleError(f"reservoir capacity must be >= 1, got {capacity}")
        if grid_bins < 1:
            raise InvalidSampleError(f"grid must have >= 1 bin, got {grid_bins}")
        self._domain = domain
        self._seed = int(seed)
        self._capacity = int(capacity)
        self._grid_bins = int(grid_bins)
        self._edges = np.linspace(domain.low, domain.high, self._grid_bins + 1)
        self._grid = np.zeros(self._grid_bins, dtype=np.int64)
        self._count = 0
        self._total = 0.0
        self._total_sq = 0.0
        # Reservoir arrays, kept sorted by value and row-aligned.
        self._values = np.empty(0, dtype=np.float64)
        self._counts = np.empty(0, dtype=np.int64)
        self._prios = np.empty(0, dtype=np.uint64)
        self._unaccounted = 0
        self._version = 0

    # -- inspection ----------------------------------------------------

    @property
    def domain(self) -> Interval:
        """Declared attribute domain."""
        return self._domain

    @property
    def seed(self) -> int:
        """Reservoir hash seed."""
        return self._seed

    @property
    def capacity(self) -> int:
        """Maximum distinct values retained."""
        return self._capacity

    @property
    def grid_bins(self) -> int:
        """Number of sketch bins."""
        return self._grid_bins

    @property
    def grid_counts(self) -> np.ndarray:
        """Live per-bin row counts of the CDF sketch (read-only copy)."""
        return _readonly(self._grid)

    @property
    def row_count(self) -> int:
        """Live rows currently represented (inserts minus deletes)."""
        return self._count

    @property
    def version(self) -> int:
        """Monotone mutation counter (bumped by update/delete/merge)."""
        return self._version

    @property
    def distinct_tracked(self) -> int:
        """Distinct values currently held by the reservoir."""
        return int(self._values.size)

    @property
    def unaccounted_deletes(self) -> int:
        """Deleted rows whose value had been evicted from the reservoir."""
        return self._unaccounted

    def compatible_with(self, other: "ColumnSummary") -> bool:
        """Whether ``other`` can be merged into this summary."""
        return (
            self._seed == other._seed
            and self._capacity == other._capacity
            and self._grid_bins == other._grid_bins
            and self._domain == other._domain
        )

    # -- lifecycle -----------------------------------------------------

    def update(self, batch: np.ndarray) -> "ColumnSummary":
        """Absorb a batch of inserted values; returns ``self``."""
        values = self._validate(batch)
        if values.size == 0:
            return self
        self._count += int(values.size)
        self._total += float(values.sum())
        self._total_sq += float(np.square(values).sum())
        self._grid += self._bincount(values)
        unique, counts = np.unique(values, return_counts=True)
        self._absorb(unique, counts.astype(np.int64))
        self._truncate()
        self._version += 1
        self._emit("summary.update", values.size)
        return self

    def delete(self, batch: np.ndarray) -> "ColumnSummary":
        """Remove a batch of previously inserted values; returns ``self``.

        Values still tracked by the reservoir are decremented exactly.
        Values already evicted (possible only after the distinct count
        exceeded capacity) adjust the sketch and moments but leave the
        reservoir untouched; they are tallied as unaccounted so the
        staleness policy can force a full rebuild.
        """
        values = self._validate(batch)
        if values.size == 0:
            return self
        removed = min(int(values.size), self._count)
        self._count -= removed
        self._total -= float(values.sum())
        self._total_sq -= float(np.square(values).sum())
        self._grid = np.maximum(self._grid - self._bincount(values), 0)
        if self._count == 0:
            self._total = 0.0
            self._total_sq = 0.0
        unique, counts = np.unique(values, return_counts=True)
        position = np.searchsorted(self._values, unique)
        position = np.clip(position, 0, max(self._values.size - 1, 0))
        tracked = self._values.size > 0
        hit = (
            (self._values[position] == unique)
            if tracked
            else np.zeros(unique.size, dtype=bool)
        )
        misses = int(counts[~hit].sum()) if unique.size else 0
        if np.any(hit):
            index = position[hit]
            wanted = counts[hit]
            taken = np.minimum(self._counts[index], wanted)
            self._counts[index] -= taken
            misses += int((wanted - taken).sum())
            keep = self._counts > 0
            if not np.all(keep):
                self._values = self._values[keep]
                self._counts = self._counts[keep]
                self._prios = self._prios[keep]
        self._unaccounted += misses
        self._version += 1
        self._emit("summary.delete", values.size)
        if misses:
            self._emit("summary.delete.unaccounted", misses)
        return self

    def merge(self, other: "ColumnSummary") -> "ColumnSummary":
        """Pure merge: a new summary equivalent to ingesting both inputs.

        Both summaries must share seed, capacity, grid and domain.
        Because retention is the global bottom-k-by-hash condition,
        the result is byte-identical to a single summary that saw the
        concatenated input, in any split or merge order.
        """
        if not self.compatible_with(other):
            raise InvalidSampleError(
                "cannot merge summaries with different seed/capacity/grid/domain"
            )
        merged = ColumnSummary(
            self._domain,
            seed=self._seed,
            capacity=self._capacity,
            grid_bins=self._grid_bins,
        )
        merged._count = self._count + other._count
        merged._total = self._total + other._total
        merged._total_sq = self._total_sq + other._total_sq
        merged._grid = self._grid + other._grid
        merged._unaccounted = self._unaccounted + other._unaccounted
        values = np.concatenate([self._values, other._values])
        counts = np.concatenate([self._counts, other._counts])
        prios = np.concatenate([self._prios, other._prios])
        order = np.argsort(values, kind="stable")
        values, counts, prios = values[order], counts[order], prios[order]
        if values.size:
            boundary = np.ones(values.size, dtype=bool)
            boundary[1:] = values[1:] != values[:-1]
            group = np.cumsum(boundary) - 1
            merged._values = values[boundary]
            merged._prios = prios[boundary]
            merged._counts = np.bincount(group, weights=counts).astype(np.int64)
        merged._truncate()
        merged._version = max(self._version, other._version) + 1
        merged._emit("summary.merge", 1)
        return merged

    def freeze(self) -> FrozenSummary:
        """Emit an immutable snapshot usable as estimator input."""
        if self._count <= 0 or self._values.size == 0:
            raise InvalidSampleError("cannot freeze an empty summary")
        counts = self._counts
        total = int(counts.sum())
        cap = self._capacity * EXPANSION_FACTOR
        if total > cap:
            scaled = np.floor(counts * (cap / total)).astype(np.int64)
            counts = np.maximum(scaled, 1)
        sample = np.repeat(self._values, counts)
        digest = zlib.crc32(self._values.tobytes())
        digest = zlib.crc32(self._counts.tobytes(), digest)
        digest = zlib.crc32(self._grid.tobytes(), digest)
        self._emit("summary.freeze", 1)
        return FrozenSummary(
            domain=self._domain,
            sample=_readonly(sample),
            row_count=self._count,
            grid_edges=_readonly(self._edges),
            grid_counts=_readonly(self._grid),
            total=self._total,
            total_sq=self._total_sq,
            seed=self._seed,
            version=self._version,
            fingerprint=f"{self._count}-{self._version}-{digest:08x}",
            unaccounted_deletes=self._unaccounted,
        )

    def copy(self) -> "ColumnSummary":
        """Independent deep copy (used to stage atomic refreshes)."""
        out = ColumnSummary(
            self._domain,
            seed=self._seed,
            capacity=self._capacity,
            grid_bins=self._grid_bins,
        )
        out._grid = self._grid.copy()
        out._count = self._count
        out._total = self._total
        out._total_sq = self._total_sq
        out._values = self._values.copy()
        out._counts = self._counts.copy()
        out._prios = self._prios.copy()
        out._unaccounted = self._unaccounted
        out._version = self._version
        return out

    # -- internals -----------------------------------------------------

    def _validate(self, batch: np.ndarray) -> np.ndarray:
        values = np.asarray(batch, dtype=np.float64)
        if values.ndim != 1:
            raise InvalidSampleError(f"batch must be one-dimensional, got shape {values.shape}")
        if values.size == 0:
            return values
        return validate_sample(values, self._domain)

    def _bincount(self, values: np.ndarray) -> np.ndarray:
        index = np.searchsorted(self._edges, values, side="right") - 1
        index = np.clip(index, 0, self._grid_bins - 1)
        return np.bincount(index, minlength=self._grid_bins).astype(np.int64)

    def _absorb(self, unique: np.ndarray, counts: np.ndarray) -> None:
        if self._values.size == 0:
            self._values = unique.copy()
            self._counts = counts.copy()
            self._prios = value_priorities(unique, self._seed)
            return
        position = np.searchsorted(self._values, unique)
        position_clipped = np.clip(position, 0, self._values.size - 1)
        hit = self._values[position_clipped] == unique
        if np.any(hit):
            self._counts[position_clipped[hit]] += counts[hit]
        if np.any(~hit):
            fresh = unique[~hit]
            values = np.concatenate([self._values, fresh])
            new_counts = np.concatenate([self._counts, counts[~hit]])
            prios = np.concatenate([self._prios, value_priorities(fresh, self._seed)])
            order = np.argsort(values, kind="stable")
            self._values = values[order]
            self._counts = new_counts[order]
            self._prios = prios[order]

    def _truncate(self) -> None:
        if self._values.size <= self._capacity:
            return
        # Bottom-k by priority.  Priorities are unique per distinct
        # value (bijective mix), so the cut is deterministic.
        keep = np.argsort(self._prios, kind="stable")[: self._capacity]
        keep.sort()
        self._values = self._values[keep]
        self._counts = self._counts[keep]
        self._prios = self._prios[keep]

    def _emit(self, name: str, amount: float) -> None:
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.inc(name, float(amount))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnSummary(rows={self._count}, distinct={self._values.size}, "
            f"capacity={self._capacity}, version={self._version})"
        )
