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

Both estimators answer through the window engine of
:mod:`repro.core.kernel.flat`, which holds the primitive and the
boundary kernel: each is one segment bounded by the domain, the
boundary-kernel estimator with the three regions (left boundary,
interior, right boundary) switched on.  The ``Theta(n)`` scans here
(:func:`boundary_mass_scan`, :func:`boundary_density_scan` and the
estimators' ``selectivity_scan``) are its oracles.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import InvalidSampleError, validate_query
from repro.core.kernel.estimator import KernelSelectivityEstimator, _validate_bandwidth
from repro.core.kernel.flat import _left_region_mass, boundary_kernel_pdf
from repro.core.kernel.functions import EPANECHNIKOV, KernelFunction, get_kernel
from repro.data.domain import Interval


class ReflectionKernelEstimator(KernelSelectivityEstimator):
    """Kernel estimator with the reflection boundary treatment.

    Samples within one kernel reach of a boundary are mirrored at that
    boundary ("these samples are considered twice", paper §3.2.1); the
    normalization stays at the original ``n``.  Queries are clipped to
    the domain, outside which the estimator assigns no mass.
    """

    _treatment = "reflection"

    def __init__(
        self,
        sample: np.ndarray,
        bandwidth: float,
        domain: Interval,
        kernel: "KernelFunction | str" = EPANECHNIKOV,
    ) -> None:
        super().__init__(sample, bandwidth, kernel, domain)

    def _stored_sample(self, values: np.ndarray, domain: Interval) -> np.ndarray:
        """The sample plus its mirror images at both domain edges."""
        reach = self._h * self._kernel.support
        left = values[values < domain.low + reach]
        right = values[values > domain.high - reach]
        return np.concatenate([values, 2.0 * domain.low - left, 2.0 * domain.high - right])

    def selectivity_scan(self, a: float, b: float) -> float:
        """Reference ``Theta(n)`` evaluation over the mirrored sample.

        The query is clipped to the domain first, as the batch path
        clips it: the estimator assigns no mass outside the domain.
        """
        a, b = validate_query(a, b)
        domain = self._domain
        if domain is not None:
            a = min(max(a, domain.low), domain.high)
            b = min(max(b, domain.low), domain.high)
        return super().selectivity_scan(a, b)


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
    the three regions, so no numerical integration is involved; the
    window engine evaluates all three over a whole query batch at once,
    as the hybrid's one-bin case.

    Only the Epanechnikov kernel is supported — the Simonoff–Dong
    family is constructed for it (paper §3.2.1).
    """

    _treatment = "kernel"

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

    def selectivity_scan(self, a: float, b: float) -> float:
        """Reference ``Theta(n)`` evaluation with the boundary kernels.

        Sums all three regions over every sample
        (:func:`boundary_mass_scan`) to cross-check the windowed fast
        path; prefer :meth:`selectivity`.
        """
        a, b = validate_query(a, b)
        total = boundary_mass_scan(self._sorted, self._h, self._domain, a, b)
        return float(np.clip(total / self._norm, 0.0, 1.0))


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
