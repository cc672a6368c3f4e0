"""The window engine shared by every kernel estimator (paper §3.2–§3.3).

Each kernel estimator is a set of *segments*: contiguous runs of one
sorted sample, each with its own edges, bandwidth and coefficient,
evaluated by the same code.

- The untreated and reflection estimators (§3.2) are one segment with
  interior window sums only, under any kernel.  The untreated segment
  is unbounded; the reflection segment is the domain, to which queries
  and points are clipped.
- :class:`~repro.core.kernel.boundary.BoundaryKernelEstimator`
  (§3.2.1) is one segment ``[low, high]`` whose edges are boundaries:
  within one bandwidth of each the Simonoff–Dong kernels apply.
- :class:`~repro.core.hybrid.HybridEstimator` (§3.3) is one segment
  per bin, each an independent boundary-kernel estimate with the bin
  edges as its boundaries, or a uniform-fallback bin.

:class:`FlatLayout` keeps the segments in contiguous arrays:

- the sorted sample, shared with the estimator, with per-segment
  ``offsets`` (segments partition the sample in order);
- the sample pre-scaled per segment, ``(X_i - center_k) / h_k``, so a
  selectivity window term is one subtraction from the query's scaled
  position (density terms use the unscaled sample: their kernels may
  jump at the ends of the support, where rounding must not move a
  sample across);
- per-segment coefficient, bandwidth and uniform-fallback arrays;
- per-segment prefix moments (:mod:`repro.core.kernel.moments`), so
  interior Epanechnikov sums cost O(1) per window wherever a segment
  passes the moment precision gate.

A query batch expands into (query, segment) pairs for the segments
each query overlaps — two ``searchsorted`` calls against the edge
array.  Each pair evaluates the three-region decomposition (left
boundary, interior, right boundary) or the uniform share, and the
pairs reduce to per-query totals with one ``np.add.reduceat``.  When
every query stays inside one segment (always, for the one-segment
estimators) the pair arrays are the query arrays and the reduction is
skipped.  No Python loop over segments or queries survives.

The ``Theta(n)`` scans in :mod:`repro.core.kernel.estimator` and
:mod:`repro.core.kernel.boundary`, and the hybrid's
``selectivities_reference`` / ``density_reference``, are this engine's
oracles; the property tests pin them together to 1e-12.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.core.kernel.functions import EPANECHNIKOV, KernelFunction
from repro.core.kernel.moments import (
    MOMENT_MAX_RATIO,
    PrefixMoments,
    build_moments,
    epan_cdf_sums,
    epan_pdf_sums,
)

#: Cap on the flattened (query x window) work array of one vectorized
#: pass.  Batches whose windows would exceed it are processed in query
#: chunks, bounding peak memory at ~32 MB per intermediate array while
#: staying fully vectorized inside each chunk.
MAX_FLAT_WINDOW = 4_194_304

#: ``pick`` broadcasts a per-query array onto the flattened window
#: layout; a window term maps ``(pick, sample_idx)`` to per-element
#: kernel contributions.
PickFn = Callable[[np.ndarray], np.ndarray]
WindowTerm = Callable[[PickFn, np.ndarray], np.ndarray]
#: Multi-term variant: ``prepare`` builds shared per-element state
#: (e.g. the scaled offsets and one kernel evaluation) and each term
#: maps that state to its per-element contributions.
PrepareFn = Callable[[PickFn, np.ndarray], object]
SharedTerm = Callable[[object], np.ndarray]


def segment_window_sums(lo: np.ndarray, hi: np.ndarray, term: WindowTerm) -> np.ndarray:
    """Per-window sums of a kernel term over sorted-sample windows.

    For each window ``j`` spanning sample indices ``[lo[j], hi[j])``,
    computes ``sum_i term(j, i)`` fully vectorized: the windows are
    flattened into one index array, ``term`` is evaluated once over
    the flat arrays, and the per-window sums come from a segmented
    reduction.  Windows larger in aggregate than
    :data:`MAX_FLAT_WINDOW` are processed in query chunks.

    Parameters
    ----------
    lo, hi:
        Window boundaries (``hi >= lo``), one pair per query/point.
    term:
        Callable ``term(pick, sample_idx) -> float array`` where
        ``sample_idx`` is the flat array of window sample indices and
        ``pick(arr)`` expands a per-window array to the flat layout
        (``pick(arr)[k]`` is ``arr`` at the window the ``k``-th
        flattened element belongs to).  The flat arrays ``term``
        receives (and ``pick`` returns) are fresh, so it may mutate
        them in place.
    """

    def prepare(pick: PickFn, sample_idx: np.ndarray) -> object:
        return term(pick, sample_idx)

    def identity(values: object) -> np.ndarray:
        return values  # type: ignore[return-value]

    return segment_window_multi_sums(lo, hi, prepare, [identity])[0]


def segment_window_multi_sums(
    lo: np.ndarray,
    hi: np.ndarray,
    prepare: PrepareFn,
    terms: "list[SharedTerm]",
) -> "list[np.ndarray]":
    """Per-window sums of several kernel terms sharing one evaluation.

    Generalizes :func:`segment_window_sums` to terms that share
    expensive per-element state — e.g. the Gaussian derivative stack,
    where one ``exp`` evaluation feeds every Hermite order.
    ``prepare(pick, sample_idx)`` is called once per chunk and its
    result is handed to each ``terms[k]``, whose output is segment-
    reduced into the ``k``-th returned array.  Terms must not mutate
    the shared state they receive.
    """
    lo = np.asarray(lo, dtype=np.intp)
    hi = np.asarray(hi, dtype=np.intp)
    counts = hi - lo
    out = [np.zeros(counts.shape, dtype=np.float64) for _ in terms]
    if counts.size == 0:
        return out
    cumulative = np.cumsum(counts)
    total = int(cumulative[-1])
    if total == 0:
        return out
    start = 0
    while start < counts.size:
        base = int(cumulative[start - 1]) if start else 0
        stop = int(cumulative.searchsorted(base + MAX_FLAT_WINDOW, side="right")) + 1
        stop = max(start + 1, min(stop, counts.size))
        chunk_counts = counts[start:stop]
        chunk_total = int(cumulative[stop - 1]) - base
        if chunk_total:
            # Exclusive prefix sums double as the segment boundaries for
            # the reduction and the flattening shift: element ``k`` of
            # window ``j`` lands at flat position ``prefix[j] + k``, so
            # one ``repeat`` of ``lo - prefix`` plus one ``arange``
            # yields every window's sample indices at once.
            prefix = cumulative[start:stop] - chunk_counts - base
            sample_idx = np.arange(chunk_total) + np.repeat(
                lo[start:stop] - prefix, chunk_counts
            )

            def pick(
                arr: np.ndarray,
                _s: int = start,
                _e: int = stop,
                _c: np.ndarray = chunk_counts,
            ) -> np.ndarray:
                return np.repeat(arr[_s:_e], _c)

            shared = prepare(pick, sample_idx)
            nonempty = chunk_counts > 0
            for k, term in enumerate(terms):
                values = term(shared)
                out[k][start:stop][nonempty] = np.add.reduceat(values, prefix[nonempty])
        start = stop
    return out


def _left_primitive(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The boundary-kernel selectivity primitive ``P(v; w)``.

    See :mod:`repro.core.kernel.boundary` for the derivation.
    """
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


def bin_offsets(sorted_values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Offsets of each bin's samples within the sorted sample.

    This is the single binning rule of the hybrid estimator: bins are
    half-open ``[low, high)`` with the rightmost bin closed, so a
    sample exactly on an interior edge belongs to the bin on its
    right.  Returns ``len(edges)`` offsets with ``offsets[k] ..
    offsets[k + 1]`` spanning bin ``k``'s samples.
    """
    offsets = np.empty(edges.size, dtype=np.intp)
    offsets[0] = 0
    offsets[-1] = sorted_values.size
    if edges.size > 2:
        offsets[1:-1] = np.searchsorted(sorted_values, edges[1:-1], side="left")
    return offsets


@dataclasses.dataclass(frozen=True)
class FlatLayout:
    """Contiguous representation of a built kernel estimator.

    All arrays are per-segment (length ``m``) except ``edges`` /
    ``offsets`` (length ``m + 1``) and ``values`` / ``scaled`` (the
    sorted sample).  A kernel segment's estimate is its raw kernel
    sums times ``coeff`` (which holds the ``1 / n`` normalization); a
    uniform-fallback segment's is the fraction of it a query covers,
    times ``coeff``.  Uniform-fallback segments carry a placeholder
    bandwidth of 1.0 and are routed by ``is_kernel``.  ``regions``
    applies the Simonoff–Dong boundary regions within ``h`` of every
    segment edge; without it every segment takes interior sums of
    ``kernel`` only.
    """

    edges: np.ndarray
    offsets: np.ndarray
    values: np.ndarray
    scaled: np.ndarray
    center: np.ndarray
    coeff: np.ndarray
    is_kernel: np.ndarray
    h: np.ndarray
    inv_h: np.ndarray
    inv_width: np.ndarray
    kernel: KernelFunction
    regions: bool
    moments: PrefixMoments
    moment_bins: np.ndarray


#: Prefix moments of no sample: the layout's moments when no segment
#: passes the precision gate (the moment path is then never taken).
_NO_MOMENTS = build_moments(np.empty(0))


def build_flat(
    sorted_values: np.ndarray,
    edges: np.ndarray,
    offsets: np.ndarray,
    coeff: np.ndarray,
    is_kernel: np.ndarray,
    bandwidths: np.ndarray,
    *,
    kernel: KernelFunction = EPANECHNIKOV,
    regions: bool = True,
) -> FlatLayout:
    """Assemble the flat layout from per-segment build results.

    Non-kernel segments take a placeholder bandwidth of 1.0.
    ``sorted_values`` is shared, not copied, when it already is a
    contiguous ``float64`` array.  Each segment is centered on its own
    midrange, for the pre-scaled sample and for its prefix moments, so
    window sums never mix segments and carry no cross-segment
    cancellation.  The moments are built only when some segment passes
    the precision gate (otherwise they are empty and never read).
    """
    values = np.ascontiguousarray(sorted_values, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.intp)
    is_kernel = np.asarray(is_kernel, dtype=bool)
    h = np.asarray(bandwidths, dtype=np.float64)
    inv_h = 1.0 / h
    # Each segment's first and last sample (arbitrary for an empty
    # segment, which is never a kernel segment and holds no sample).
    first = values.take(offsets[:-1], mode="clip")
    last = values.take(offsets[1:] - 1, mode="clip")
    center = 0.5 * (first + last)
    if h.size == 1:
        scaled = (values - center[0]) * inv_h[0]
    else:
        counts = offsets[1:] - offsets[:-1]
        scaled = (values - np.repeat(center, counts)) * np.repeat(inv_h, counts)
    moment_bins = is_kernel & (0.5 * (last - first) <= MOMENT_MAX_RATIO * h)
    if kernel.name == "epanechnikov" and moment_bins.any():
        moments = build_moments(values, offsets, center)
    else:
        moment_bins[:] = False
        moments = _NO_MOMENTS
    return FlatLayout(
        edges=edges,
        offsets=offsets,
        values=values,
        scaled=scaled,
        center=center,
        coeff=np.asarray(coeff, dtype=np.float64),
        is_kernel=is_kernel,
        h=h,
        inv_h=inv_h,
        inv_width=1.0 / (edges[1:] - edges[:-1]),
        kernel=kernel,
        regions=regions,
        moments=moments,
        moment_bins=moment_bins,
    )


def _expand_pairs(
    k_min: np.ndarray, k_max: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """(query, segment) pair arrays for per-query segment ranges.

    Returns ``(pair_q, pair_k, counts, prefix)`` where ``prefix`` is
    the exclusive pair-count prefix (segment starts for the final
    reduction).
    """
    counts = np.maximum(k_max - k_min + 1, 0)
    prefix = np.concatenate(([0], np.cumsum(counts)[:-1]))
    total = int(counts.sum())
    pair_q = np.repeat(np.arange(counts.size), counts)
    pair_k = np.arange(total) + np.repeat(k_min - prefix, counts)
    return pair_q, pair_k, counts, prefix


def _per_query(
    pair_fn: "Callable[..., np.ndarray]",
    k_min: np.ndarray,
    k_max: np.ndarray,
    *query: np.ndarray,
) -> np.ndarray:
    """Per-query totals of ``pair_fn(pair_k, *pair_query)``.

    Queries inside one segment each are their own pairs; otherwise the
    queries expand over their segment ranges and the pair values are
    summed back per query.
    """
    if not np.count_nonzero(k_min != k_max):
        return pair_fn(k_min, *query)
    pair_q, pair_k, counts, prefix = _expand_pairs(k_min, k_max)
    totals = np.zeros(k_min.shape, dtype=np.float64)
    if pair_q.size == 0:
        return totals
    values = pair_fn(pair_k, *(arr[pair_q] for arr in query))
    populated = counts > 0
    totals[populated] = np.add.reduceat(values, prefix[populated])
    return totals


def _split(
    mask: np.ndarray,
    on: "Callable[..., np.ndarray]",
    off: "Callable[..., np.ndarray]",
    *arrays: np.ndarray,
) -> np.ndarray:
    """``on(*arrays)`` where ``mask`` holds, ``off(*arrays)`` elsewhere.

    Both take and return per-pair arrays; a uniform mask hands over the
    whole arrays without gathering them.
    """
    hits = np.count_nonzero(mask)
    if hits == mask.size:
        return on(*arrays)
    if not hits:
        return off(*arrays)
    out = np.empty(mask.shape, dtype=np.float64)
    out[mask] = on(*(arr[mask] for arr in arrays))
    rest = ~mask
    out[rest] = off(*(arr[rest] for arr in arrays))
    return out


def _window_sums(
    flat: FlatLayout,
    x: np.ndarray,
    k: np.ndarray,
    moment_sums: "Callable[..., np.ndarray]",
    make_term: "Callable[[np.ndarray, np.ndarray], WindowTerm]",
) -> "tuple[np.ndarray, np.ndarray]":
    """Kernel-window sums per pair, and the segment's samples below the window.

    The window of ``x`` holds segment ``k``'s samples within one kernel
    reach of it.  Segments that pass the precision gate sum it in O(1)
    with the prefix-moment ``moment_sums``; the others evaluate the
    per-sample terms of ``make_term(x, k)``.
    """
    values = flat.values
    reach = flat.h[k] * flat.kernel.support
    off_lo = flat.offsets[k]
    lo = values.searchsorted(x - reach, side="left")
    hi = values.searchsorted(x + reach, side="right")
    if flat.h.size > 1:
        # Confine the windows to their segments (a lone segment spans
        # the whole sample).
        off_hi = flat.offsets[1:][k]
        lo = np.minimum(np.maximum(lo, off_lo), off_hi)
        hi = np.minimum(np.maximum(hi, off_lo), off_hi)
    sums = _split(
        flat.moment_bins[k],
        lambda x, lo, hi, k: moment_sums(flat.moments, x, flat.inv_h[k], lo, hi, segment=k),
        lambda x, lo, hi, k: segment_window_sums(lo, hi, make_term(x, k)),
        x,
        lo,
        hi,
        k,
    )
    return sums, lo - off_lo


def _cdf_sums(flat: FlatLayout, x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``sum_{i in segment k} C((x_j - X_i) / h_k)`` per pair.

    Samples of the segment below the kernel window contribute exactly
    1, samples above it 0.
    """
    scaled, cdf = flat.scaled, flat.kernel.cdf

    def make_term(x_s: np.ndarray, k_s: np.ndarray) -> WindowTerm:
        x_scaled = (x_s - flat.center[k_s]) * flat.inv_h[k_s]

        def term(pick: PickFn, i: np.ndarray) -> np.ndarray:
            t = pick(x_scaled)
            t -= scaled[i]
            return cdf(t)

        return term

    sums, below = _window_sums(flat, x, k, epan_cdf_sums, make_term)
    return below + sums


def _boundary_sums(
    flat: FlatLayout,
    v_lo: np.ndarray,
    v_hi: np.ndarray,
    k: np.ndarray,
    mirrored: bool,
) -> np.ndarray:
    """Boundary-region mass sums per pair, in boundary units.

    ``v_lo`` / ``v_hi`` measure the query from the segment's left edge
    (or, ``mirrored``, back from its right edge) in bandwidths.
    Contributing samples (``w < v_hi + 1``) form a prefix (suffix) of
    the segment's samples; zero-width ranges get empty windows.
    """
    scaled = flat.scaled
    h = flat.h[k]
    off_lo = flat.offsets[k]
    off_hi = flat.offsets[1:][k]
    v_lo = np.minimum(v_lo, v_hi)
    touched = v_hi > v_lo
    if mirrored:
        edge = flat.edges[1:][k]
        cutoff = flat.values.searchsorted(edge - (v_hi + 1.0) * h, side="right")
        lo = np.where(touched, np.maximum(cutoff, off_lo), off_hi)
        hi = off_hi
    else:
        edge = flat.edges[k]
        cutoff = flat.values.searchsorted(edge + (v_hi + 1.0) * h, side="left")
        lo = off_lo
        hi = np.where(touched, np.minimum(cutoff, off_hi), off_lo)
    # The edge on the segment's scaled axis; ``w`` is a sample's
    # distance from it, in bandwidths, measured into the segment.
    origin = (edge - flat.center[k]) * flat.inv_h[k]

    def term(pick: PickFn, i: np.ndarray) -> np.ndarray:
        w = pick(origin) - scaled[i] if mirrored else scaled[i] - pick(origin)
        return _left_region_mass(pick(v_lo), pick(v_hi), w)

    return segment_window_sums(lo, hi, term)


def _kernel_sums(flat: FlatLayout, lo: np.ndarray, hi: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Raw kernel mass of ``[lo, hi]`` (inside segment ``k``) per pair."""
    if not flat.regions:
        return _cdf_sums(flat, hi, k) - _cdf_sums(flat, lo, k)
    left = flat.edges[k]
    right = flat.edges[1:][k]
    h = flat.h[k]
    inv_h = flat.inv_h[k]
    inner_left = left + h
    inner_right = right - h
    # Left boundary region [left, left + h), in boundary units.
    left_mass = _boundary_sums(
        flat, (lo - left) * inv_h, (np.minimum(hi, inner_left) - left) * inv_h, k, False
    )
    # Right boundary region (right - h, right], mirrored units.
    right_mass = _boundary_sums(
        flat, (right - hi) * inv_h, (right - np.maximum(lo, inner_right)) * inv_h, k, True
    )
    # Interior region: ordinary kernel CDF sums.
    i_lo = np.minimum(np.maximum(lo, inner_left), inner_right)
    i_hi = np.maximum(np.minimum(hi, inner_right), i_lo)
    return left_mass + (_cdf_sums(flat, i_hi, k) - _cdf_sums(flat, i_lo, k)) + right_mass


def _pair_masses(flat: FlatLayout, k: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Segment ``k``'s weighted share of ``[a, b]`` per pair."""
    left = flat.edges[k]
    right = flat.edges[1:][k]
    lo = np.minimum(np.maximum(a, left), right)
    hi = np.maximum(np.minimum(b, right), lo)
    mass = _split(
        flat.is_kernel[k],
        lambda lo, hi, k: _kernel_sums(flat, lo, hi, k),
        lambda lo, hi, k: (hi - lo) * flat.inv_width[k],
        lo,
        hi,
        k,
    )
    return mass * flat.coeff[k]


def flat_selectivities(flat: FlatLayout, flat_a: np.ndarray, flat_b: np.ndarray) -> np.ndarray:
    """Unclipped selectivities over a validated flat batch.

    Every query sums the shares of the segments it overlaps.  Segments
    a query merely touches at an edge contribute exactly 0, so the
    edge conventions of the pair expansion cannot change totals.
    """
    inner = flat.edges[1:-1]
    k_min = inner.searchsorted(flat_a, side="right")
    k_max = inner.searchsorted(flat_b, side="left")
    return _per_query(
        lambda k, a, b: _pair_masses(flat, k, a, b), k_min, k_max, flat_a, flat_b
    )


def _pdf_sums(flat: FlatLayout, x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``sum_{i in segment k} K((x_j - X_i) / h_k)`` per pair.

    Unlike the CDF sums, the window terms use the unscaled sample: a
    kernel density may jump at the ends of its support (the uniform
    kernel does), where the pre-scaled sample's rounding could move a
    sample across the jump.
    """
    values, pdf = flat.values, flat.kernel.pdf

    def make_term(x_s: np.ndarray, k_s: np.ndarray) -> WindowTerm:
        h_s = flat.h[k_s]

        def term(pick: PickFn, i: np.ndarray) -> np.ndarray:
            t = pick(x_s)
            t -= values[i]
            t /= pick(h_s)
            return pdf(t)

        return term

    return _window_sums(flat, x, k, epan_pdf_sums, make_term)[0]


def _boundary_pdf_sums(
    flat: FlatLayout, x: np.ndarray, k: np.ndarray, mirrored: bool
) -> np.ndarray:
    """Boundary-kernel density sums per pair for points within ``h`` of an edge.

    Contributing samples lie within ``2h`` of the edge: a prefix
    (suffix, ``mirrored``) of the segment's samples.  The boundary
    kernel jumps at both ends of its support, so ``t`` and ``q`` are
    formed from the unscaled sample exactly as
    :func:`~repro.core.kernel.boundary.boundary_density_scan` forms
    them: a sample on the edge must land on ``t = q``, not one rounding
    step outside it.
    """
    values = flat.values
    h = flat.h[k]
    if mirrored:
        edge = flat.edges[1:][k]
        lo = np.maximum(values.searchsorted(edge - 2.0 * h, side="left"), flat.offsets[k])
        hi = flat.offsets[1:][k]
        q = (edge - x) / h
    else:
        edge = flat.edges[k]
        lo = flat.offsets[k]
        hi = np.minimum(values.searchsorted(edge + 2.0 * h, side="right"), flat.offsets[1:][k])
        q = (x - edge) / h

    def term(pick: PickFn, i: np.ndarray) -> np.ndarray:
        t = values[i] - pick(x) if mirrored else pick(x) - values[i]
        t /= pick(h)
        return boundary_kernel_pdf(t, pick(q))

    return segment_window_sums(lo, hi, term)


def _pair_density(flat: FlatLayout, k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Segment ``k``'s weighted density at ``x`` per pair."""
    left = flat.edges[k]
    right = flat.edges[1:][k]
    inside = (x >= left) & (x <= right)
    out = np.zeros(x.shape, dtype=np.float64)
    uniform = inside & ~flat.is_kernel[k]
    out[uniform] = flat.inv_width[k[uniform]]
    kernel = inside & flat.is_kernel[k]
    if kernel.any():
        h = flat.h[k]
        interior = kernel.copy()
        if flat.regions:
            in_left = kernel & (x < left + h)
            in_right = kernel & (x > right - h)
            interior &= ~in_left & ~in_right
            for mask, mirrored in ((in_left, False), (in_right, True)):
                if mask.any():
                    out[mask] = _boundary_pdf_sums(flat, x[mask], k[mask], mirrored)
        if interior.any():
            out[interior] = _pdf_sums(flat, x[interior], k[interior])
        out[kernel] *= flat.inv_h[k[kernel]]
    return out * flat.coeff[k]


def flat_density(flat: FlatLayout, flat_x: np.ndarray) -> np.ndarray:
    """Pointwise density over a flat batch of points.

    Points on an interior edge receive contributions from *both*
    adjacent segments (each segment's density is inclusive of both its
    edges), matching ``HybridEstimator.density_reference``; points
    outside every segment get 0.
    """
    inner = flat.edges[1:-1]
    k_min = inner.searchsorted(flat_x, side="left")
    k_max = inner.searchsorted(flat_x, side="right")
    return _per_query(lambda k, x: _pair_density(flat, k, x), k_min, k_max, flat_x)
