"""Boundary treatments for kernel estimators (paper §3.2.1).

Kernel estimators leak probability mass across the domain boundaries:
for queries within one bandwidth of an edge the untreated estimator
underestimates badly (paper Fig. 3).  The paper compares two cures:

:class:`ReflectionKernelEstimator`
    Mirror the samples near each boundary back into the domain, so the
    leaked mass is folded back in.  The result *is* a density (it
    integrates to one over the domain) but is not consistent at the
    boundary.

:class:`BoundaryKernelEstimator`
    Replace the kernel near the boundary with the Simonoff–Dong family

    .. math::

       K^{(l)}(t, q) = \\frac{3 + 3 q^2 - 6 t^2}{(1 + q)^3}
                       \\cdot I_{[-1, q]}(t), \\qquad q = (x - l) / h

    whose support never crosses the boundary.  The result is
    consistent but not a density (the boundary kernels dip negative).

For selectivity estimation the boundary-kernel integral must be taken
over the *query* coordinate, along which ``q`` varies with ``x``.
Eliminating that dependence (as the paper prescribes) gives the exact
primitive, derived by substituting ``v = (x - l)/h``, ``w = (X_i - l)/h``:

.. math::

   P(v; w) = -3 \\ln(1 + v) - \\frac{6 + 12 w}{1 + v}
             + \\frac{3 w (2 + w)}{(1 + v)^2}

with per-sample contribution ``P(v_hi; w) - P(max(v_lo, w - 1); w)``.

Every query path here is batch-first: a query batch decomposes into
its left-boundary, interior, and right-boundary segments, and each
region evaluates all its segments at once through the same segmented
window sums the interior fast path uses (no Python per-query loop).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import (
    InvalidSampleError,
    validate_query,
    validate_query_batch,
    validate_sample,
)
from repro.core.kernel.estimator import (
    KernelSelectivityEstimator,
    _validate_bandwidth,
    segment_window_sums,
)
from repro.core.kernel.functions import EPANECHNIKOV, KernelFunction, get_kernel
from repro.data.domain import Interval


class ReflectionKernelEstimator(KernelSelectivityEstimator):
    """Kernel estimator with the reflection boundary treatment.

    Samples within one kernel reach of a boundary are mirrored at that
    boundary ("these samples are considered twice", paper §3.2.1); the
    normalization stays at the original ``n``.  Queries are clipped to
    the domain, outside which the estimator assigns no mass.
    """

    def __init__(
        self,
        sample: np.ndarray,
        bandwidth: float,
        domain: Interval,
        kernel: "KernelFunction | str" = EPANECHNIKOV,
    ) -> None:
        values = validate_sample(sample, domain)
        h = _validate_bandwidth(bandwidth)
        resolved = get_kernel(kernel)
        reach = h * resolved.support
        left = values[values < domain.low + reach]
        right = values[values > domain.high - reach]
        augmented = np.concatenate(
            [values, 2.0 * domain.low - left, 2.0 * domain.high - right]
        )
        super().__init__(augmented, h, resolved, domain=None)
        self._domain = domain
        self._norm = int(values.size)

    def raw_selectivities(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        domain = self._domain
        a = np.clip(a, domain.low, domain.high)
        b = np.clip(b, domain.low, domain.high)
        return super().raw_selectivities(a, b)

    def selectivities(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = validate_query_batch(a, b)
        return np.clip(self.raw_selectivities(a, b), 0.0, 1.0)

    def density(self, x: np.ndarray) -> np.ndarray:
        """Reflected KDE; zero outside the domain."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        inside = (x >= self._domain.low) & (x <= self._domain.high)
        return np.where(inside, super().density(x), 0.0)


def _left_primitive(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The boundary-kernel selectivity primitive ``P(v; w)`` (module doc)."""
    s = 1.0 + v
    return -3.0 * np.log(s) - (6.0 + 12.0 * w) / s + 3.0 * w * (2.0 + w) / (s * s)


def _left_region_mass(
    v_lo: np.ndarray, v_hi: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Per-sample boundary-kernel mass over ``v in [v_lo, v_hi]``.

    ``v`` and ``w`` are the query position and sample position in
    boundary units (distance from the boundary divided by ``h``).
    Samples only contribute where the kernel support ``t >= -1`` holds,
    i.e. for ``v >= w - 1``.
    """
    start = np.maximum(v_lo, w - 1.0)
    active = start < v_hi
    start = np.where(active, start, v_hi)
    return np.where(active, _left_primitive(v_hi, w) - _left_primitive(start, w), 0.0)


def boundary_kernel_pdf(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The Simonoff–Dong left-boundary kernel ``K^(l)(t, q)``.

    Vectorized over ``t`` and ``q`` (broadcast together).  Values can
    be negative near ``t = -1`` — the price of consistency at the
    boundary.
    """
    t = np.asarray(t, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    inside = (t >= -1.0) & (t <= q)
    value = (3.0 + 3.0 * q * q - 6.0 * t * t) / (1.0 + q) ** 3
    return np.where(inside, value, 0.0)


def boundary_mass_scan(
    values: np.ndarray, h: float, interval: Interval, a: float, b: float
) -> float:
    """Boundary-kernel mass of ``[a, b]`` summed over every sample.

    The literal ``Theta(n)`` Algorithm 1 loop of the three-region
    estimator: each sample's left-region, interior and right-region
    contributions are summed directly, with no search windows and no
    prefix moments.  ``[a, b]`` is clipped to ``interval``; divide by
    the sample size for the selectivity.
    """
    low, high = interval.low, interval.high
    a = min(max(a, low), high)
    b = min(max(b, low), high)
    left_hi = (min(b, low + h) - low) / h
    left = _left_region_mass(min((a - low) / h, left_hi), left_hi, (values - low) / h)
    right_hi = (high - max(a, high - h)) / h
    right = _left_region_mass(min((high - b) / h, right_hi), right_hi, (high - values) / h)
    lo = min(max(a, low + h), high - h)
    hi = max(min(b, high - h), lo)
    interior = EPANECHNIKOV.mass_between((lo - values) / h, (hi - values) / h)
    return float(left.sum() + interior.sum() + right.sum())


def boundary_density_scan(values: np.ndarray, h: float, interval: Interval, x: float) -> float:
    """Boundary-kernel density sum at ``x`` over every sample.

    The ``Theta(n)`` counterpart of :meth:`BoundaryKernelEstimator.density`:
    the region-appropriate kernel evaluated at every sample, zero
    outside ``interval``; divide by ``n * h`` for the density.
    """
    low, high = interval.low, interval.high
    if not low <= x <= high:
        return 0.0
    if x < low + h:
        kernel = boundary_kernel_pdf((x - values) / h, (x - low) / h)
    elif x > high - h:
        kernel = boundary_kernel_pdf((values - x) / h, (high - x) / h)
    else:
        kernel = EPANECHNIKOV.pdf((x - values) / h)
    return float(kernel.sum())


class BoundaryKernelEstimator(KernelSelectivityEstimator):
    """Kernel estimator using Simonoff–Dong boundary kernels.

    Within one bandwidth of each domain edge the Epanechnikov kernel
    is replaced by the boundary kernel whose shape varies with the
    distance ``q`` to the edge; in the interior the ordinary kernel
    applies.  Selectivities are assembled from the exact primitives of
    the three regions, so no numerical integration is involved, and
    all three regions evaluate their whole query batch at once.

    Only the Epanechnikov kernel is supported — the Simonoff–Dong
    family is constructed for it (paper §3.2.1).
    """

    def __init__(
        self,
        sample: np.ndarray,
        bandwidth: float,
        domain: Interval,
        kernel: "KernelFunction | str" = EPANECHNIKOV,
    ) -> None:
        resolved = get_kernel(kernel)
        if resolved.name != "epanechnikov":
            raise InvalidSampleError(
                "boundary kernels are derived for the Epanechnikov kernel; "
                f"got {resolved.name!r} (use the reflection treatment instead)"
            )
        h = _validate_bandwidth(bandwidth)
        if 2.0 * h > domain.width:
            raise InvalidSampleError(
                f"bandwidth {h} is too large for boundary treatment on a domain of "
                f"width {domain.width}: the two boundary regions would overlap"
            )
        super().__init__(sample, h, resolved, domain)

    def raw_selectivities(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        domain, h = self._domain, self._h
        flat_a = np.clip(np.ascontiguousarray(a.ravel()), domain.low, domain.high)
        flat_b = np.clip(np.ascontiguousarray(b.ravel()), domain.low, domain.high)
        left_edge = domain.low + h
        right_edge = domain.high - h
        # Left boundary region [low, low + h): mass in boundary units.
        left = self._left_masses(
            (flat_a - domain.low) / h,
            (np.minimum(flat_b, left_edge) - domain.low) / h,
        )
        # Right boundary region (high - h, high]: mirror of the left.
        right = self._right_masses(
            (domain.high - flat_b) / h,
            (domain.high - np.maximum(flat_a, right_edge)) / h,
        )
        # Interior region: the ordinary kernel applies unchanged.
        lo = np.minimum(np.maximum(flat_a, left_edge), right_edge)
        hi = np.maximum(np.minimum(flat_b, right_edge), lo)
        interior = super().raw_selectivities(lo, hi)
        return (left + interior + right).reshape(a.shape)

    def selectivities(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = validate_query_batch(a, b)
        return np.clip(self.raw_selectivities(a, b), 0.0, 1.0)

    def selectivity(self, a: float, b: float) -> float:
        a, b = validate_query(a, b)
        return float(self.selectivities(np.array([a]), np.array([b]))[0])

    def selectivity_scan(self, a: float, b: float) -> float:
        """Reference ``Theta(n)`` evaluation with the boundary kernels.

        Sums all three regions over every sample
        (:func:`boundary_mass_scan`) to cross-check the windowed fast
        path; prefer :meth:`selectivity`.
        """
        a, b = validate_query(a, b)
        total = boundary_mass_scan(self._sorted, self._h, self._domain, a, b)
        return float(np.clip(total / self._norm, 0.0, 1.0))

    def _left_masses(self, v_lo: np.ndarray, v_hi: np.ndarray) -> np.ndarray:
        """Batched left-region boundary-kernel mass of ``[v_lo, v_hi]``.

        Segment endpoints are in left-boundary units ``(x - low)/h``.
        Contributing samples (``w < v_hi + 1``) form a prefix of the
        sorted sample.  Zero-width segments — every query that does not
        touch the region — get empty windows, so interior-only batches
        pay one ``searchsorted`` call and nothing else.
        """
        domain, h = self._domain, self._h
        v_lo = np.minimum(v_lo, v_hi)
        cutoff = domain.low + (v_hi + 1.0) * h
        hi_idx = np.searchsorted(self._sorted, cutoff, side="left")
        hi_idx = np.where(v_hi > v_lo, hi_idx, 0)
        sample = self._sorted
        sums = segment_window_sums(
            np.zeros(hi_idx.shape, dtype=np.intp),
            hi_idx,
            lambda pick, i: _left_region_mass(
                pick(v_lo), pick(v_hi), (sample[i] - domain.low) / h
            ),
        )
        return sums / self._norm

    def _right_masses(self, v_lo: np.ndarray, v_hi: np.ndarray) -> np.ndarray:
        """Batched right-region mass; mirror image of :meth:`_left_masses`.

        Endpoints are in mirrored units ``(high - x)/h``; contributing
        samples form a *suffix* of the sorted sample.
        """
        domain, h = self._domain, self._h
        n = self._sorted.size
        v_lo = np.minimum(v_lo, v_hi)
        cutoff = domain.high - (v_hi + 1.0) * h
        lo_idx = np.searchsorted(self._sorted, cutoff, side="right")
        lo_idx = np.where(v_hi > v_lo, lo_idx, n)
        sample = self._sorted
        sums = segment_window_sums(
            lo_idx,
            np.full(lo_idx.shape, n, dtype=np.intp),
            lambda pick, i: _left_region_mass(
                pick(v_lo), pick(v_hi), (domain.high - sample[i]) / h
            ),
        )
        return sums / self._norm

    def density(self, x: np.ndarray) -> np.ndarray:
        """Pointwise estimate with the region-appropriate kernel."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        domain = self._domain
        h = self._h
        flat = np.ascontiguousarray(x.ravel())
        interior = super().density(flat)
        out = np.where(
            (flat >= domain.low) & (flat <= domain.high), interior, 0.0
        )
        inside = (flat >= domain.low) & (flat <= domain.high)
        left = (flat < domain.low + h) & inside
        right = (flat > domain.high - h) & inside
        # Boundary-region points only see samples within 2h of their
        # edge (|t| <= 1 requires |x - X| <= h and x is within h of the
        # edge), so the outer product is over a small prefix/suffix.
        near_left = self._sorted[: np.searchsorted(self._sorted, domain.low + 2.0 * h, side="right")]
        near_right = self._sorted[np.searchsorted(self._sorted, domain.high - 2.0 * h, side="left") :]
        for mask, edge, sign, window in (
            (left, domain.low, 1.0, near_left),
            (right, domain.high, -1.0, near_right),
        ):
            if not np.any(mask):
                continue
            points = flat[mask]
            q = sign * (points - edge) / h
            t = sign * (points[:, None] - window[None, :]) / h
            out[mask] = boundary_kernel_pdf(t, q[:, None]).sum(axis=1) / (self._norm * h)
        return out.reshape(x.shape)


#: Registry of boundary treatments accepted by the factory.
BOUNDARY_TREATMENTS = ("none", "reflection", "kernel")


def make_kernel_estimator(
    sample: np.ndarray,
    bandwidth: float,
    domain: Interval | None = None,
    *,
    boundary: str = "none",
    kernel: "KernelFunction | str" = EPANECHNIKOV,
) -> KernelSelectivityEstimator:
    """Build a kernel estimator with the requested boundary treatment.

    Parameters
    ----------
    sample, bandwidth, domain, kernel:
        Passed through to the estimator.
    boundary:
        ``"none"`` (untreated), ``"reflection"`` or ``"kernel"``
        (Simonoff–Dong boundary kernels).  Both treatments require a
        domain.
    """
    if boundary not in BOUNDARY_TREATMENTS:
        raise ValueError(
            f"unknown boundary treatment {boundary!r}; expected one of {BOUNDARY_TREATMENTS}"
        )
    if boundary == "none":
        return KernelSelectivityEstimator(sample, bandwidth, kernel, domain)
    if domain is None:
        raise InvalidSampleError(f"boundary treatment {boundary!r} requires a domain")
    if boundary == "reflection":
        return ReflectionKernelEstimator(sample, bandwidth, domain, kernel)
    return BoundaryKernelEstimator(sample, bandwidth, domain, kernel)
