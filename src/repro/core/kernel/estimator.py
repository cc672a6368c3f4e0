"""Algorithm 1: the kernel selectivity estimator (paper §3.2).

The estimator integrates a kernel density estimate over the query
range (paper eq. 6):

.. math::

   \\hat\\sigma_K(a, b) = \\frac{1}{n} \\sum_{i=1}^{n}
       \\Big( C\\big(\\tfrac{b - X_i}{h}\\big)
            - C\\big(\\tfrac{a - X_i}{h}\\big) \\Big)

where ``C`` is the kernel CDF.  Algorithm 1 of the paper is the
observation that most terms are exactly 0 or 1: only samples within
one bandwidth of a query endpoint need the primitive evaluated.  With
the sample kept sorted this gives the ``O(log n + k)`` evaluation the
paper sketches (``k`` = samples near the endpoints).

Every kernel estimator answers through one window engine,
:mod:`repro.core.kernel.flat`: this estimator is its one-segment,
interior-only case, built once in the constructor.  The engine
answers a whole batch with two ``searchsorted`` calls per endpoint
plus one flattened kernel-CDF evaluation over the windows (or O(1)
prefix-moment sums for the Epanechnikov kernel), with no
Python-level per-query loop.  An exhaustive ``Theta(n)`` reference
path (:meth:`KernelSelectivityEstimator.selectivity_scan`) keeps it
honest in tests.

This class applies **no boundary treatment** — its estimates are
biased near the domain edges, which is exactly the behaviour the
paper's Fig. 3 demonstrates.  Use :mod:`repro.core.kernel.boundary`
for the corrected estimators.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.summary import FrozenSummary

from repro.core.base import (
    DensityEstimator,
    InvalidSampleError,
    validate_query,
    validate_query_batch,
    validate_sample,
)
from repro.core.kernel.flat import FlatLayout, build_flat, flat_density, flat_selectivities
from repro.core.kernel.functions import EPANECHNIKOV, KernelFunction, get_kernel
from repro.data.domain import Interval


def _validate_bandwidth(bandwidth: float) -> float:
    bandwidth = float(bandwidth)
    if not np.isfinite(bandwidth) or bandwidth <= 0:
        raise InvalidSampleError(f"bandwidth must be a positive finite number, got {bandwidth}")
    return bandwidth


class KernelSelectivityEstimator(DensityEstimator):
    """Kernel selectivity estimator without boundary treatment.

    Parameters
    ----------
    sample:
        Sample set the estimator is built from.
    bandwidth:
        The smoothing parameter ``h`` (see :mod:`repro.bandwidth` for
        selection rules).
    kernel:
        Kernel function or registry name; the paper uses the
        Epanechnikov kernel.
    domain:
        Optional attribute domain (validation, CDF origin).
    """

    #: Boundary treatment, as :func:`~repro.core.kernel.boundary.make_kernel_estimator`
    #: names it.  The untreated estimator is one unbounded segment of
    #: the window engine; the treated subclasses bound it by the domain
    #: (queries and points are clipped to it), and ``"kernel"`` adds the
    #: Simonoff–Dong boundary regions within ``h`` of each edge.
    _treatment: ClassVar[str] = "none"

    def __init__(
        self,
        sample: np.ndarray,
        bandwidth: float,
        kernel: "KernelFunction | str" = EPANECHNIKOV,
        domain: Interval | None = None,
    ) -> None:
        values = validate_sample(sample, domain)
        self._h = _validate_bandwidth(bandwidth)
        self._kernel = get_kernel(kernel)
        self._domain = domain
        # Normalizing count: the sample size, even where the stored
        # sample holds more (the reflection estimator's mirrored copies
        # carry their source samples' mass, paper §3.2.1).
        self._norm = int(values.size)
        edges = np.array([-np.inf, np.inf])
        if domain is not None and self._treatment != "none":
            edges = np.array([domain.low, domain.high])
            values = self._stored_sample(values, domain)
        self._sorted = np.sort(values)
        self._sorted.flags.writeable = False
        stored = self._sorted.size
        self._flat: FlatLayout = build_flat(
            self._sorted,
            edges,
            np.array([0, stored]),
            np.array([1.0 / self._norm]),
            np.ones(1, dtype=bool),
            np.array([self._h]),
            kernel=self._kernel,
            regions=self._treatment == "kernel",
        )

    def _stored_sample(self, values: np.ndarray, domain: Interval) -> np.ndarray:
        """The sample a treated estimator's segment holds (hook)."""
        return values

    @classmethod
    def from_summary(
        cls,
        summary: "FrozenSummary",
        bandwidth: float,
        kernel: "KernelFunction | str" = EPANECHNIKOV,
    ) -> "KernelSelectivityEstimator":
        """Build from a frozen column summary (see ``repro.core.summary``).

        The summary's expanded reservoir sample and declared domain
        feed the ordinary constructor, so the estimator is exactly the
        one a raw-array build over that sample would produce.  Works
        for the boundary subclasses too (``cls`` dispatch).
        """
        return cls(summary.sample, bandwidth, kernel=kernel, domain=summary.domain)

    @property
    def sample_size(self) -> int:
        return self._norm

    @property
    def bandwidth(self) -> float:
        """The smoothing parameter ``h``."""
        return self._h

    @property
    def kernel(self) -> KernelFunction:
        """The kernel function ``K``."""
        return self._kernel

    @property
    def domain(self) -> Interval | None:
        """Attribute domain, if declared."""
        return self._domain

    @property
    def sorted_sample(self) -> np.ndarray:
        """The sorted sample (read-only view)."""
        return self._sorted

    def density(self, x: np.ndarray) -> np.ndarray:
        """Pointwise KDE ``(1 / nh) * sum K((x - X_i) / h)``, vectorized.

        The treated estimators are zero outside the domain, and the
        boundary-kernel estimator applies its boundary kernels within
        ``h`` of each edge.
        """
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        return flat_density(self._flat, x.ravel()).reshape(x.shape)

    def selectivity(self, a: float, b: float) -> float:
        a, b = validate_query(a, b)
        return float(self.selectivities(np.array([a]), np.array([b]))[0])

    def selectivities(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized Algorithm 1 over a batch of queries.

        Per query: samples fully below ``a - h`` contribute 0 to both
        CDF sums, samples fully below ``b - h`` and above ``a + h``
        contribute exactly 1, and only the samples near the endpoints
        evaluate the kernel primitive — all queries at once through
        segmented window sums.
        """
        a, b = validate_query_batch(a, b)
        total = flat_selectivities(self._flat, a.ravel(), b.ravel())
        return np.clip(total, 0.0, 1.0).reshape(a.shape)

    def selectivity_scan(self, a: float, b: float) -> float:
        """Reference ``Theta(n)`` evaluation (the literal Algorithm 1 loop).

        Exists to cross-check the windowed fast path; prefer
        :meth:`selectivity`.
        """
        a, b = validate_query(a, b)
        h = self._h
        total = self._kernel.mass_between((a - self._sorted) / h, (b - self._sorted) / h).sum()
        return float(np.clip(total / self._norm, 0.0, 1.0))
