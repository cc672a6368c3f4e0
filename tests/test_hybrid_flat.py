"""The flat hybrid query path vs the ``Theta(n)`` oracle.

The contract under test: ``HybridEstimator.selectivities`` /
``density`` answered through the kernel window engine
(:mod:`repro.core.kernel.flat`) must match the direct per-bin sums of
``selectivities_reference`` / ``density_reference`` to 1e-12 —
including the awkward inputs (zero-width queries, queries pinned on
bin edges, single-bin partitions, uniform-fallback bins) — while the
prefix-moment machinery it rides on (:mod:`repro.core.kernel.moments`)
holds its own numerical guarantees.
"""

import numpy as np
import pytest

from repro.bandwidth.normal_scale import kernel_bandwidth
from repro.core.base import EstimatorError
from repro.core.hybrid import MIN_KERNEL_SAMPLES, HybridEstimator
from repro.core.kernel.flat import bin_offsets
from repro.core.kernel.moments import (
    MOMENT_MAX_RATIO,
    build_moments,
    compensated_cumsum,
    epan_cdf_sums,
    epan_pdf_sums,
)
from repro.data.domain import Interval

DOMAIN = Interval(0.0, 1_000_000.0)

ATOL = 1e-12


def _random_sample(seed: int, n: int = 2_000) -> np.ndarray:
    """Multi-modal sample with sharp edges: multi-bin partitions."""
    rng = np.random.default_rng(seed)
    parts = [
        rng.normal(rng.uniform(0.1, 0.4) * DOMAIN.width, 30_000.0, n // 3),
        rng.uniform(0.5 * DOMAIN.width, 0.8 * DOMAIN.width, n // 3),
        rng.normal(0.9 * DOMAIN.width, 15_000.0, n - 2 * (n // 3)),
    ]
    return np.clip(np.concatenate(parts), DOMAIN.low, DOMAIN.high)


def _random_queries(seed: int, n: int = 400) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.uniform(DOMAIN.low, DOMAIN.high, n)
    b = np.minimum(a + rng.uniform(0.0, 0.3, n) * DOMAIN.width, DOMAIN.high)
    return a, b


class TestFlatMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_changepoints(self, seed):
        est = HybridEstimator(_random_sample(seed), DOMAIN)
        a, b = _random_queries(seed + 100)
        np.testing.assert_allclose(
            est.selectivities(a, b), est.selectivities_reference(a, b), atol=ATOL
        )

    def test_zero_width_queries(self):
        est = HybridEstimator(_random_sample(7), DOMAIN)
        points = np.concatenate(
            [
                np.linspace(DOMAIN.low, DOMAIN.high, 64),
                est.change_points,
                [DOMAIN.low, DOMAIN.high],
            ]
        )
        fast = est.selectivities(points, points)
        ref = est.selectivities_reference(points, points)
        np.testing.assert_allclose(fast, ref, atol=ATOL)
        np.testing.assert_allclose(fast, 0.0, atol=ATOL)

    def test_bin_edge_queries(self):
        est = HybridEstimator(_random_sample(11), DOMAIN)
        edges = np.concatenate([[DOMAIN.low], est.change_points, [DOMAIN.high]])
        # Every pair of edges, both orders of closeness to the edge.
        a = np.repeat(edges, edges.size)
        b = np.tile(edges, edges.size)
        keep = b >= a
        np.testing.assert_allclose(
            est.selectivities(a[keep], b[keep]),
            est.selectivities_reference(a[keep], b[keep]),
            atol=ATOL,
        )

    def test_single_bin(self):
        rng = np.random.default_rng(3)
        smooth = np.clip(
            rng.normal(0.5 * DOMAIN.width, 0.15 * DOMAIN.width, 2_000),
            DOMAIN.low,
            DOMAIN.high,
        )
        est = HybridEstimator(smooth, DOMAIN, max_changepoints=0)
        assert len(est.bins) == 1
        a, b = _random_queries(13)
        np.testing.assert_allclose(
            est.selectivities(a, b), est.selectivities_reference(a, b), atol=ATOL
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_density_matches(self, seed):
        est = HybridEstimator(_random_sample(seed), DOMAIN)
        rng = np.random.default_rng(seed + 50)
        x = np.concatenate(
            [
                rng.uniform(DOMAIN.low, DOMAIN.high, 500),
                est.change_points,  # both adjacent bins contribute
                [DOMAIN.low, DOMAIN.high],
            ]
        )
        fast = est.density(x)
        ref = est.density_reference(x)
        # Densities scale as 1/width (~1e-6 here); compare relative to
        # the peak so the tolerance is meaningful.
        scale = max(float(np.max(np.abs(ref))), 1.0 / DOMAIN.width)
        np.testing.assert_allclose(fast / scale, ref / scale, atol=ATOL)

    def test_uniform_fallback_bins(self, monkeypatch):
        # Bin 1 holds too few samples for a kernel; bin 3 is all
        # duplicates, on which the bandwidth rule raises.  Both fall
        # back to the uniform-within-bin assumption.
        rng = np.random.default_rng(21)
        duplicates = np.full(200, 450_000.0)
        sample = np.concatenate(
            [
                rng.uniform(0.0, 300_000.0, 995),
                rng.uniform(300_000.0, 310_000.0, MIN_KERNEL_SAMPLES - 3),
                rng.uniform(310_000.0, 400_000.0, 300),
                duplicates,
                rng.uniform(500_000.0, DOMAIN.high, 500),
            ]
        )
        with pytest.raises(EstimatorError):
            kernel_bandwidth(duplicates)
        points = np.array([300_000.0, 310_000.0, 400_000.0, 500_000.0])
        monkeypatch.setattr(
            "repro.core.hybrid.detect_change_points",
            lambda values, domain, **kwargs: points,
        )
        est = HybridEstimator(sample, DOMAIN, min_bin_fraction=0.001)
        np.testing.assert_array_equal(est.change_points, points)
        assert est._flat.is_kernel.tolist() == [True, False, True, False, True]
        edges = np.concatenate([[DOMAIN.low], points, [DOMAIN.high]])
        a, b = _random_queries(19)
        a = np.concatenate([a, np.repeat(edges, edges.size)])
        b = np.concatenate([b, np.tile(edges, edges.size)])
        keep = b >= a
        np.testing.assert_allclose(
            est.selectivities(a[keep], b[keep]),
            est.selectivities_reference(a[keep], b[keep]),
            atol=ATOL,
        )
        x = np.concatenate([np.linspace(DOMAIN.low, DOMAIN.high, 257), edges])
        ref = est.density_reference(x)
        scale = float(np.max(np.abs(ref)))
        np.testing.assert_allclose(est.density(x) / scale, ref / scale, atol=ATOL)


class TestBinOffsets:
    def test_edge_coincident_samples(self):
        edges = np.array([0.0, 10.0, 20.0])
        values = np.sort(np.array([0.0, 5.0, 10.0, 10.0, 15.0, 20.0]))
        offsets = bin_offsets(values, edges)
        # Interior edge 10.0 belongs to the right bin; domain max stays
        # in the last bin.
        assert offsets.tolist() == [0, 2, 6]

    def test_concatenation_is_global_sort(self):
        rng = np.random.default_rng(0)
        values = np.sort(rng.uniform(0.0, 30.0, 200))
        edges = np.array([0.0, 7.5, 12.0, 30.0])
        offsets = bin_offsets(values, edges)
        parts = [values[offsets[k] : offsets[k + 1]] for k in range(3)]
        np.testing.assert_array_equal(np.concatenate(parts), values)
        for k, part in enumerate(parts):
            assert np.all(part >= edges[k])
            if k < 2:
                assert np.all(part < edges[k + 1])


class TestMoments:
    def test_compensated_cumsum_beats_plain(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-1.0, 1.0, 100_000)
        exact = np.cumsum(values.astype(np.longdouble))
        compensated = compensated_cumsum(values)
        plain = np.cumsum(values)
        err_comp = np.max(np.abs(compensated - exact))
        err_plain = np.max(np.abs(plain - exact))
        assert err_comp <= err_plain
        assert err_comp < 1e-11

    def test_cdf_sums_match_direct(self):
        rng = np.random.default_rng(1)
        values = np.sort(rng.uniform(-4.0, 4.0, 512))
        h = 1.0 / MOMENT_MAX_RATIO * 0.5 * np.ptp(values) * 2.0  # well in range
        moments = build_moments(values)
        x = rng.uniform(-4.0, 4.0, 64)
        lo = np.searchsorted(values, x - h, side="left")
        hi = np.searchsorted(values, x + h, side="right")
        got = epan_cdf_sums(moments, x, 1.0 / h, lo, hi)
        t = (x[:, None] - values[None, :]) / h
        inside = np.abs(t) <= 1.0
        direct = np.where(inside, 0.5 + 0.75 * t - 0.25 * t**3, 0.0)
        # Only windowed samples count: mask to [lo, hi).
        idx = np.arange(values.size)
        windowed = (idx[None, :] >= lo[:, None]) & (idx[None, :] < hi[:, None])
        np.testing.assert_allclose(got, (direct * windowed).sum(axis=1), atol=1e-12)

    def test_pdf_sums_match_direct(self):
        rng = np.random.default_rng(2)
        values = np.sort(rng.uniform(0.0, 10.0, 256))
        h = 3.0
        moments = build_moments(values)
        x = rng.uniform(0.0, 10.0, 32)
        lo = np.searchsorted(values, x - h, side="left")
        hi = np.searchsorted(values, x + h, side="right")
        got = epan_pdf_sums(moments, x, 1.0 / h, lo, hi)
        t = (x[:, None] - values[None, :]) / h
        direct = np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t**2), 0.0)
        np.testing.assert_allclose(got, direct.sum(axis=1), atol=1e-12)

    def test_segments_do_not_leak(self):
        values = np.sort(np.random.default_rng(3).uniform(0.0, 10.0, 100))
        offsets = np.array([0, 40, 40, 100])  # middle segment empty
        moments = build_moments(values, offsets)
        # Full-window sum over segment 2 only counts its own samples.
        x = np.array([5.0])
        got = epan_cdf_sums(
            moments,
            x,
            1e-12,  # inv_h ~ 0: every CDF term is ~0.5
            np.array([40]),
            np.array([100]),
            segment=np.array([2]),
        )
        np.testing.assert_allclose(got, 0.5 * 60, atol=1e-9)

    def test_empty_sample(self):
        moments = build_moments(np.array([]))
        out = epan_cdf_sums(
            moments, np.array([0.0]), 1.0, np.array([0]), np.array([0])
        )
        np.testing.assert_array_equal(out, [0.0])
