"""Kernel selectivity estimation (paper §3.2).

* :mod:`repro.core.kernel.functions` — kernel functions with exact
  primitives (the paper's ``F_K``), second moments and roughness.
* :mod:`repro.core.kernel.flat` — the one window engine every kernel
  estimator answers through: segments of a sorted sample with
  interior sums, optional Simonoff–Dong boundary regions and the
  segmented window sums Algorithm 1's ``O(log n + k)`` path rests on.
* :mod:`repro.core.kernel.moments` — prefix moments that make the
  engine's interior Epanechnikov window sums O(1) per window.
* :mod:`repro.core.kernel.estimator` — Algorithm 1: the kernel
  selectivity estimator, the engine's one-segment interior-only case.
* :mod:`repro.core.kernel.boundary` — the two boundary treatments of
  §3.2.1 (sample reflection and Simonoff–Dong boundary kernels), each
  one segment bounded by the domain, and their ``Theta(n)`` scans.
* :mod:`repro.core.kernel.density` — pointwise density and derivative
  evaluation used by plug-in rules and change-point detection.
"""

from repro.core.kernel.adaptive import AdaptiveKernelEstimator
from repro.core.kernel.binned import BinnedKernelDensity
from repro.core.kernel.boundary import (
    BoundaryKernelEstimator,
    ReflectionKernelEstimator,
    make_kernel_estimator,
)
from repro.core.kernel.density import KernelDensity
from repro.core.kernel.estimator import KernelSelectivityEstimator
from repro.core.kernel.functions import (
    BIWEIGHT,
    COSINE,
    EPANECHNIKOV,
    GAUSSIAN,
    KERNELS,
    TRIANGULAR,
    TRIWEIGHT,
    UNIFORM,
    KernelFunction,
    get_kernel,
)

__all__ = [
    "AdaptiveKernelEstimator",
    "BIWEIGHT",
    "BinnedKernelDensity",
    "BoundaryKernelEstimator",
    "COSINE",
    "EPANECHNIKOV",
    "GAUSSIAN",
    "KERNELS",
    "KernelDensity",
    "KernelFunction",
    "KernelSelectivityEstimator",
    "ReflectionKernelEstimator",
    "TRIANGULAR",
    "TRIWEIGHT",
    "UNIFORM",
    "get_kernel",
    "make_kernel_estimator",
]
