"""Prefix-moment evaluation of Epanechnikov window sums in O(1)/window.

The per-sample window path of :mod:`repro.core.kernel.flat` still
touches every sample within one bandwidth of a query endpoint.  For
the smooth-bandwidth regimes the paper's protocol lands in (normal
scale or plug-in bandwidths on n = 2,000 samples), those windows cover
a large fraction of the sample, so "only the window" is still O(n)
per query.  This module removes the per-sample work entirely for the
Epanechnikov kernel: its CDF is the cubic

.. math::

   C(t) = \\tfrac12 + \\tfrac34 t - \\tfrac14 t^3, \\qquad |t| \\le 1

so the window sum ``sum_i C((x - X_i) / h)`` expands in power sums of
the samples,

.. math::

   \\sum_i (x - X_i)^3 = N x^3 - 3 x^2 S_1 + 3 x S_2 - S_3,
   \\qquad S_p = \\sum_i X_i^p,

and every ``S_p`` over a contiguous window of the sorted sample is one
subtraction of precomputed prefix sums.  A query batch then costs two
``searchsorted`` calls plus O(1) arithmetic per query — independent of
the window width.  The same trick gives the quadratic PDF sums for
pointwise density evaluation.

Cancellation control
--------------------
The expansion subtracts terms of magnitude ``~(spread / h)^3`` times
the final answer, so three defenses bound the rounding error: samples
are centered per segment (halving the worst-case power magnitude),
the prefix sums are built with a vectorized compensated cumulative
sum (each prefix entry is accurate to ~machine epsilon of its own
value, instead of accumulating ``O(n)`` rounding), and the path is
only used when ``half-spread / h`` is modest
(:data:`MOMENT_MAX_RATIO`); beyond the cutoff the windows are narrow
and the per-sample path is both cheap and exact.
``tests/test_hybrid_flat.py`` and ``tests/test_properties.py`` check
the estimators built on these sums against their ``Theta(n)`` scans
to 1e-12.

The window engine (:mod:`repro.core.kernel.flat`) is this module's
only caller.  It keeps one sorted sample split into segments (one for
a plain kernel estimator, one per bin for the hybrid), and each
segment gets its own zero-based prefix run (one padding slot per
segment), so window sums never mix segments and carry no
cross-segment rounding noise.
"""

from __future__ import annotations

import dataclasses

import numpy as np

#: Largest ``half-spread / bandwidth`` ratio the moment path accepts.
#: Evaluating the cubic bracket rounds at magnitude ``n * ratio^3``
#: relative to the O(n) answer, so the cutoff keeps normalized
#: selectivities well below the 1e-12 property-test tolerance
#: (~1e-13 at the cutoff for n = 2,000); wider ratios mean the
#: bandwidth is small relative to the segment, where the per-sample
#: windowed path is cheap anyway.
MOMENT_MAX_RATIO = 8.0


def compensated_cumsum(values: np.ndarray) -> np.ndarray:
    """Cumulative sum with first-order error compensation, vectorized.

    ``np.cumsum`` accumulates sequentially, so entry ``i`` carries
    ``O(i)`` rounding — fatal for prefix-sum *differences* whose true
    magnitude is far below the prefix magnitude.  Each step's exact
    rounding error is recovered with the TwoSum identity (all
    vectorized) and folded back in, making every entry accurate to
    ~machine epsilon of its own value.
    """
    sums = np.cumsum(values)
    previous = np.empty_like(sums)
    previous[0] = 0.0
    previous[1:] = sums[:-1]
    # TwoSum: sums = fl(previous + values); recover the exact error.
    virtual = sums - previous
    errors = (previous - (sums - virtual)) + (values - virtual)
    return sums + np.cumsum(errors)


@dataclasses.dataclass(frozen=True)
class PrefixMoments:
    """Per-segment prefix power sums of a sorted sample.

    ``offsets`` splits the sorted sample into segments (bins); sample
    index ``i`` of segment ``k`` maps to padded index ``i + k``, and
    each segment's run starts at an explicit zero, so the power sum
    over window ``[lo, hi)`` inside segment ``k`` is
    ``p[hi + k] - p[lo + k]`` with no contribution from other
    segments.  Samples are centered at ``center[k]`` before the powers
    are accumulated.
    """

    offsets: np.ndarray
    center: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray


def build_moments(
    sorted_values: np.ndarray,
    offsets: np.ndarray | None = None,
    centers: np.ndarray | None = None,
) -> PrefixMoments:
    """Prefix moments of ``sorted_values`` split at ``offsets``.

    Parameters
    ----------
    sorted_values:
        The sorted (float64) sample.
    offsets:
        Segment boundaries ``[0, ..., n]``; default one segment.
    centers:
        Per-segment centering constants; default each segment's
        midrange (halves the worst-case power magnitude).
    """
    values = np.ascontiguousarray(sorted_values, dtype=np.float64)
    if offsets is None:
        offsets = np.array([0, values.size], dtype=np.intp)
    else:
        offsets = np.asarray(offsets, dtype=np.intp)
    segments = offsets.size - 1
    if centers is None:
        mids = np.empty(segments, dtype=np.float64)
        for k in range(segments):
            lo, hi = int(offsets[k]), int(offsets[k + 1])
            if hi > lo:
                mids[k] = 0.5 * (values[lo] + values[hi - 1])
            else:
                mids[k] = 0.0
        centers = mids
    else:
        centers = np.asarray(centers, dtype=np.float64)
    p1 = np.zeros(values.size + segments, dtype=np.float64)
    p2 = np.zeros(values.size + segments, dtype=np.float64)
    p3 = np.zeros(values.size + segments, dtype=np.float64)
    for k in range(segments):
        lo, hi = int(offsets[k]), int(offsets[k + 1])
        if hi <= lo:
            continue
        centered = values[lo:hi] - centers[k]
        base = lo + k + 1
        p1[base : base + (hi - lo)] = compensated_cumsum(centered)
        squared = centered * centered
        p2[base : base + (hi - lo)] = compensated_cumsum(squared)
        squared *= centered
        p3[base : base + (hi - lo)] = compensated_cumsum(squared)
    return PrefixMoments(offsets=offsets, center=centers, p1=p1, p2=p2, p3=p3)


def epan_cdf_sums(
    moments: PrefixMoments,
    x: np.ndarray,
    inv_h: "float | np.ndarray",
    lo: np.ndarray,
    hi: np.ndarray,
    segment: np.ndarray | None = None,
) -> np.ndarray:
    """``sum_i C((x_j - X_i) * inv_h)`` over windows, O(1) each.

    ``lo``/``hi`` are window bounds into the sorted sample, already
    clamped to the segment given by ``segment`` (default: segment 0).
    Every sample inside the window must satisfy ``|t| <= 1`` —
    guaranteed when the windows come from ``searchsorted`` at
    ``x -/+ h`` — so the cubic branch of the CDF applies throughout.
    """
    seg = np.zeros(lo.shape, dtype=np.intp) if segment is None else segment
    pl = lo + seg
    ph = hi + seg
    count = (hi - lo).astype(np.float64)
    s1 = moments.p1[ph] - moments.p1[pl]
    s2 = moments.p2[ph] - moments.p2[pl]
    s3 = moments.p3[ph] - moments.p3[pl]
    xc = x - moments.center[seg]
    lin = (count * xc - s1) * inv_h
    cubic = (((count * xc - 3.0 * s1) * xc + 3.0 * s2) * xc - s3) * (
        inv_h * inv_h * inv_h
    )
    return 0.5 * count + 0.75 * lin - 0.25 * cubic


def epan_pdf_sums(
    moments: PrefixMoments,
    x: np.ndarray,
    inv_h: "float | np.ndarray",
    lo: np.ndarray,
    hi: np.ndarray,
    segment: np.ndarray | None = None,
) -> np.ndarray:
    """``sum_i K((x_j - X_i) * inv_h)`` over windows, O(1) each."""
    seg = np.zeros(lo.shape, dtype=np.intp) if segment is None else segment
    pl = lo + seg
    ph = hi + seg
    count = (hi - lo).astype(np.float64)
    s1 = moments.p1[ph] - moments.p1[pl]
    s2 = moments.p2[ph] - moments.p2[pl]
    xc = x - moments.center[seg]
    sum_t2 = ((count * xc - 2.0 * s1) * xc + s2) * (inv_h * inv_h)
    return 0.75 * (count - sum_t2)
