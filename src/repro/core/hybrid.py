"""The hybrid histogram-kernel estimator (paper §3.3).

The paper's new estimator combines the strengths of both families:

1. **Partition** the domain into bins at the density's change points
   (detected via the second derivative,
   :mod:`repro.core.changepoints`).
2. **Merge** adjacent bins whose sample count is too small to support
   their own kernel estimate.
3. **Estimate within bins**: each bin runs an independent
   boundary-kernel estimate over its samples, with its *own*
   bandwidth, treating the bin edges as domain boundaries.  A bin's
   mass is its sample fraction, so discontinuities of the true PDF end
   up *between* bins where kernel smoothing never crosses them.

Bins whose sample population is too thin for kernel estimation fall
back to the uniform-within-bin assumption — exactly a histogram bin —
which is why the method is a genuine hybrid.

The estimator is a thin layer over the kernel window engine
(:mod:`repro.core.kernel.flat`): it chooses the bins, their bandwidths
and their coefficients, and the engine answers all queries and
densities with one segment per bin — the
:class:`~repro.core.kernel.boundary.BoundaryKernelEstimator` is the
same engine with a single segment.
:meth:`HybridEstimator.selectivities_reference` and
:meth:`HybridEstimator.density_reference` are the ``Theta(n)``
Algorithm 1 oracle the engine is tested against.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, TypeAlias

import numpy as np

from repro.core.base import (
    DensityEstimator,
    EstimatorError,
    InvalidSampleError,
    validate_query,
    validate_query_batch,
    validate_sample,
)
from repro.bandwidth.scale import clamp_bandwidth
from repro.core.changepoints import detect_change_points
from repro.core.kernel.boundary import boundary_density_scan, boundary_mass_scan
from repro.core.kernel.flat import (
    FlatLayout,
    bin_offsets,
    build_flat,
    flat_density,
    flat_selectivities,
)
from repro.data.domain import Interval

if TYPE_CHECKING:
    from repro.core.summary import FrozenSummary

#: Bins with fewer samples than this cannot support a kernel estimate
#: and fall back to the uniform-within-bin assumption.
MIN_KERNEL_SAMPLES = 8

#: One bin as the ``Theta(n)`` oracle sees it: interval, coefficient
#: (weight x mass renormalization), samples and bandwidth (``None`` for
#: a uniform-fallback bin).
_ReferenceBin: TypeAlias = "tuple[Interval, float, np.ndarray, float | None]"


def _flatten(a: np.ndarray, b: np.ndarray) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Broadcast a validated query batch to flat ``float64`` endpoints."""
    shape = np.broadcast(a, b).shape
    flat_a = np.broadcast_to(a, shape).astype(np.float64, copy=False).ravel()
    flat_b = np.broadcast_to(b, shape).astype(np.float64, copy=False).ravel()
    return shape, flat_a, flat_b


class HybridEstimator(DensityEstimator):
    """Change-point-partitioned kernel estimator.

    Parameters
    ----------
    sample:
        Sample set.
    domain:
        Attribute domain.
    max_changepoints:
        Upper bound on detected change points (bins = change points + 1).
    min_bin_fraction:
        Adjacent bins are merged until every bin holds at least this
        fraction of the sample ("merged into one if the corresponding
        number of records is not sufficiently large", paper §3.3).
    bandwidth_rule:
        Callable mapping a bin's sample array to a bandwidth.  Defaults
        to the Epanechnikov normal-scale rule; the bandwidth is always
        clamped to half the bin width so boundary regions never overlap.
    changepoint_kwargs:
        Extra keyword arguments forwarded to
        :func:`repro.core.changepoints.detect_change_points`.
    """

    def __init__(
        self,
        sample: np.ndarray,
        domain: Interval,
        *,
        max_changepoints: int = 8,
        min_bin_fraction: float = 0.05,
        bandwidth_rule: Callable[[np.ndarray], float] | None = None,
        changepoint_kwargs: dict | None = None,
    ) -> None:
        if not 0.0 < min_bin_fraction < 1.0:
            raise InvalidSampleError(
                f"min_bin_fraction must be in (0, 1), got {min_bin_fraction}"
            )
        values = validate_sample(sample, domain)
        if bandwidth_rule is None:
            from repro.bandwidth.normal_scale import kernel_bandwidth

            bandwidth_rule = kernel_bandwidth

        kwargs = dict(changepoint_kwargs or {})
        kwargs.setdefault("max_points", max_changepoints)
        points = detect_change_points(values, domain, **kwargs)
        sorted_values = np.sort(values)
        edges = self._merge_small_bins(sorted_values, domain, points, min_bin_fraction)
        offsets = bin_offsets(sorted_values, edges)

        self._domain = domain
        self._n = int(values.size)
        self._edges = edges
        self._bins: list[Interval] = domain.subdivide(edges[1:-1])
        counts = np.diff(offsets)
        self._weights = counts / self._n
        bandwidths = [
            self._bin_bandwidth(
                sorted_values[offsets[k] : offsets[k + 1]], interval, bandwidth_rule
            )
            for k, interval in enumerate(self._bins)
        ]
        is_kernel = np.array([bw is not None for bw in bandwidths], dtype=bool)
        h = np.array([1.0 if bw is None else bw for bw in bandwidths])
        # Built once with unit coefficients (each kernel bin normalized
        # by its own sample count) to measure each bin's raw mass, then
        # given its real ones (weight x renormalization).
        unit_coeff = np.divide(1.0, counts, out=np.ones(counts.size), where=is_kernel)
        unit = build_flat(sorted_values, edges, offsets, unit_coeff, is_kernel, h)
        self._flat: FlatLayout = dataclasses.replace(
            unit, coeff=unit_coeff * self._weights * self._bin_scale(unit)
        )

    @classmethod
    def from_summary(cls, summary: "FrozenSummary", **kwargs: object) -> "HybridEstimator":
        """Build from a frozen column summary (see ``repro.core.summary``)."""
        return cls(summary.sample, summary.domain, **kwargs)

    @staticmethod
    def _merge_small_bins(
        sorted_values: np.ndarray,
        domain: Interval,
        points: np.ndarray,
        min_bin_fraction: float,
    ) -> np.ndarray:
        """Drop change points until every bin is sufficiently populated.

        Greedy: while some bin holds less than the minimum fraction,
        remove the interior boundary that separates it from its
        lighter neighbour.  Bin populations come from the same
        ``searchsorted`` rule as every other binning step
        (:func:`bin_offsets`), so a sample exactly on an interior edge
        is counted by the bin that will actually own it.
        """
        edges = np.concatenate(([domain.low], np.asarray(points, dtype=np.float64), [domain.high]))
        minimum = min_bin_fraction * sorted_values.size
        while edges.size > 2:
            counts = np.diff(bin_offsets(sorted_values, edges))
            light = int(np.argmin(counts))
            if counts[light] >= minimum:
                break
            if light == 0:
                drop = 1
            elif light == counts.size - 1:
                drop = edges.size - 2
            else:
                # Merge towards the lighter neighbour.
                drop = light if counts[light - 1] <= counts[light + 1] else light + 1
            edges = np.delete(edges, drop)
        return edges

    @staticmethod
    def _bin_bandwidth(
        in_bin: np.ndarray,
        interval: Interval,
        bandwidth_rule: Callable[[np.ndarray], float],
    ) -> float | None:
        """The bin's clamped kernel bandwidth, or ``None`` for uniform.

        ``None`` marks the uniform-within-bin fallback: too few
        samples, or a bandwidth rule that cannot produce a usable
        bandwidth from them.
        """
        if in_bin.size < MIN_KERNEL_SAMPLES:
            return None
        try:
            bandwidth = float(bandwidth_rule(in_bin))
        except EstimatorError:
            # Degenerate bins (all duplicates => zero scale) cannot
            # support a kernel estimate.
            return None
        # Non-finite bandwidths (a rule dividing by a zero scale can
        # produce NaN/inf) must be caught *before* the clamp, which
        # would silently coerce them to the cap.
        if not np.isfinite(bandwidth):
            return None
        # Cap the bandwidth at a quarter of the bin width so the two
        # boundary regions never cover more than half the bin.  The
        # looser half-width cap (which only keeps the regions disjoint)
        # lets oversmoothed bins degenerate into pure boundary
        # correction, whose signed-kernel dips grow with ``h``.
        bandwidth = clamp_bandwidth(bandwidth, interval.width / 2.0)
        # Duplicate-heavy bins can yield bandwidths that vanish at the
        # bin's floating-point resolution (``high - h == high``): the
        # boundary regions collapse and the density becomes spikes no
        # evaluation grid resolves.
        low, high = interval.low, interval.high
        if not (low + bandwidth > low and high - bandwidth < high):
            return None
        return bandwidth

    @staticmethod
    def _bin_scale(unit: FlatLayout) -> np.ndarray:
        """Renormalization factors making every bin's mass exactly 1.

        Boundary-kernel estimates are consistent but not densities
        (paper §3.2.1): the mass a bin's estimate assigns to its own
        interval drifts from 1 as the bandwidth grows (observed up to
        ~1.08 high and ~0.9 low on duplicate-heavy bins).  The hybrid
        hands every bin exactly its sample fraction, so the per-bin
        estimate is rescaled by the *raw* (unclipped) mass over the
        bin — one flat query per bin on the unit-coefficient layout.
        """
        mass = flat_selectivities(unit, unit.edges[:-1], unit.edges[1:])
        scale = np.ones_like(mass)
        usable = np.isfinite(mass) & (mass > 1e-9)
        scale[usable] = 1.0 / mass[usable]
        return scale

    @property
    def sample_size(self) -> int:
        return self._n

    @property
    def domain(self) -> Interval:
        """Attribute domain."""
        return self._domain

    @property
    def bins(self) -> list[Interval]:
        """The change-point partition after merging."""
        return list(self._bins)

    @property
    def change_points(self) -> np.ndarray:
        """Interior bin boundaries actually in use."""
        return self._edges[1:-1].copy()

    @property
    def bin_weights(self) -> np.ndarray:
        """Sample mass fraction per bin."""
        return self._weights.copy()

    def selectivity(self, a: float, b: float) -> float:
        a, b = validate_query(a, b)
        return float(self.selectivities(np.array([a]), np.array([b]))[0])

    def selectivities(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batched selectivity over the partition.

        The contiguous flat layout answers the whole batch with two
        ``searchsorted`` calls plus segmented reductions across all
        bins at once.  Per-bin estimates are renormalized to unit mass
        over the bin before weighting (see :meth:`_bin_scale`).
        """
        a, b = validate_query_batch(a, b)
        shape, flat_a, flat_b = _flatten(a, b)
        total = flat_selectivities(self._flat, flat_a, flat_b)
        return np.clip(total, 0.0, 1.0).reshape(shape)

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        return flat_density(self._flat, x.ravel()).reshape(x.shape)

    def _reference_bins(self) -> list[_ReferenceBin]:
        """Every bin with its coefficient, from direct sums only.

        The renormalization is the bin's own ``Theta(n)`` mass, so the
        oracle shares the partition and bandwidths with the flat path
        but none of its query arithmetic.
        """
        flat = self._flat
        bins: list[_ReferenceBin] = []
        for k, interval in enumerate(self._bins):
            values = flat.values[flat.offsets[k] : flat.offsets[k + 1]]
            coeff = float(self._weights[k])
            h = float(flat.h[k]) if flat.is_kernel[k] else None
            if h is not None:
                mass = boundary_mass_scan(values, h, interval, interval.low, interval.high)
                mass /= values.size
                if np.isfinite(mass) and mass > 1e-9:
                    coeff /= mass
            bins.append((interval, coeff, values, h))
        return bins

    def selectivities_reference(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``Theta(n)`` oracle for :meth:`selectivities` (Algorithm 1).

        One query at a time, every bin sums the three-region
        boundary-kernel mass over all of its samples
        (:func:`~repro.core.kernel.boundary.boundary_mass_scan`), or
        takes its uniform share — no search windows, no prefix moments
        and O(n) memory.  ``tests/test_hybrid_flat.py`` and the batch
        benchmark check the flat path against it.
        """
        a, b = validate_query_batch(a, b)
        shape, flat_a, flat_b = _flatten(a, b)
        bins = self._reference_bins()
        total = np.zeros(flat_a.shape, dtype=np.float64)
        for j, (qa, qb) in enumerate(zip(flat_a.tolist(), flat_b.tolist())):
            for interval, coeff, values, h in bins:
                lo = min(max(qa, interval.low), interval.high)
                hi = max(min(qb, interval.high), lo)
                if hi == lo:
                    continue
                if h is None:
                    part = (hi - lo) / interval.width
                else:
                    part = boundary_mass_scan(values, h, interval, lo, hi) / values.size
                total[j] += coeff * part
        return np.clip(total, 0.0, 1.0).reshape(shape)

    def density_reference(self, x: np.ndarray) -> np.ndarray:
        """``Theta(n)`` oracle for :meth:`density`, one point at a time.

        A point on an interior edge sums both adjacent bins, each of
        whose densities includes its edges.
        """
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        bins = self._reference_bins()
        total = np.zeros(x.size, dtype=np.float64)
        for j, point in enumerate(x.ravel().tolist()):
            for interval, coeff, values, h in bins:
                if not interval.low <= point <= interval.high:
                    continue
                if h is None:
                    part = 1.0 / interval.width
                else:
                    part = boundary_density_scan(values, h, interval, point)
                    part /= values.size * h
                total[j] += coeff * part
        return total.reshape(x.shape)
