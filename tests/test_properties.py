"""Cross-estimator property-based tests (hypothesis).

Invariants every selectivity estimator in the library must satisfy,
checked over randomized samples and queries:

* estimates live in ``[0, 1]``;
* monotonicity: enlarging the range never lowers the estimate;
* additivity: adjacent ranges sum to their union (up to clipping);
* determinism: rebuilding from the same sample gives identical output.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import estimators
from repro.core.base import InvalidQueryError
from repro.core.histogram.bins import PiecewiseConstantDensity
from repro.core.kernel import KernelSelectivityEstimator, make_kernel_estimator
from repro.core.kernel.boundary import boundary_density_scan
from repro.core.kernel.functions import KERNELS
from repro.data.domain import Interval

DOMAIN = Interval(0.0, 100.0)


def _build(kind: str, sample: np.ndarray):
    if kind == "sampling":
        return estimators.sampling(sample, DOMAIN)
    if kind == "uniform":
        return estimators.uniform(DOMAIN)
    if kind == "equi_width":
        return estimators.equi_width(sample, DOMAIN, bins=7)
    if kind == "equi_depth":
        return estimators.equi_depth(sample, DOMAIN, bins=5)
    if kind == "max_diff":
        return estimators.max_diff(sample, DOMAIN, bins=5)
    if kind == "ash":
        return estimators.ash(sample, DOMAIN, bins=6, shifts=3)
    if kind == "kernel-none":
        return estimators.kernel(sample, None, bandwidth=4.0)
    if kind == "kernel-reflection":
        return estimators.kernel(sample, DOMAIN, bandwidth=4.0, boundary="reflection")
    if kind == "kernel-boundary":
        return estimators.kernel(sample, DOMAIN, bandwidth=4.0, boundary="kernel")
    if kind == "hybrid":
        return estimators.hybrid(sample, DOMAIN, max_changepoints=3)
    if kind == "v_optimal":
        return estimators.v_optimal(sample, DOMAIN, bins=5)
    if kind == "wavelet":
        return estimators.wavelet(sample, DOMAIN, coefficients=16)
    if kind == "end_biased":
        return estimators.end_biased(sample, DOMAIN, top=4)
    if kind == "feedback":
        from repro.feedback import AdaptiveHistogram

        est = AdaptiveHistogram(DOMAIN, bins=8)
        # Feed a couple of synthetic observations so the estimator is
        # non-trivial; determinism must still hold.
        est.observe(0.0, 50.0, float(np.mean(sample <= 50.0)))
        est.observe(25.0, 75.0, float(np.mean((sample >= 25.0) & (sample <= 75.0))))
        return est
    raise AssertionError(kind)


ALL_KINDS = (
    "sampling",
    "uniform",
    "equi_width",
    "equi_depth",
    "max_diff",
    "ash",
    "kernel-none",
    "kernel-reflection",
    "kernel-boundary",
    "hybrid",
    "v_optimal",
    "wavelet",
    "end_biased",
    "feedback",
)

samples = st.lists(
    st.floats(0.0, 100.0, allow_nan=False), min_size=16, max_size=80
).map(lambda xs: np.asarray(xs))

points = st.floats(-10.0, 110.0, allow_nan=False)

#: Estimators built on boundary kernels have *signed* densities
#: (paper §3.2.1): extending a query across a negative-density sliver
#: can lower the estimate slightly, so exact monotonicity cannot hold
#: for them.  The slack bounds how negative those slivers may get.
SIGNED_DENSITY_SLACK = {"kernel-boundary": 0.02, "hybrid": 0.02}


def _slack(kind: str) -> float:
    return SIGNED_DENSITY_SLACK.get(kind, 1e-9)


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestEstimatorInvariants:
    @given(sample=samples, x=points, width=st.floats(0.0, 120.0))
    @settings(max_examples=25, deadline=None)
    def test_in_unit_range(self, kind, sample, x, width):
        est = _build(kind, sample)
        value = est.selectivity(x, x + width)
        assert 0.0 <= value <= 1.0

    @given(sample=samples, x=points, w1=st.floats(0, 40), w2=st.floats(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_range(self, kind, sample, x, w1, w2):
        est = _build(kind, sample)
        small, big = sorted([w1, w2])
        assert est.selectivity(x, x + small) <= est.selectivity(x, x + big) + _slack(kind)

    @given(sample=samples, x=st.floats(0, 60), w1=st.floats(0.5, 20), w2=st.floats(0.5, 20))
    @settings(max_examples=25, deadline=None)
    def test_additive_over_adjacent_ranges(self, kind, sample, x, w1, w2):
        est = _build(kind, sample)
        left = est.selectivity(x, x + w1)
        right = est.selectivity(x + w1, x + w1 + w2)
        union = est.selectivity(x, x + w1 + w2)
        # Sub-additivity holds even when a point mass on the shared
        # endpoint is counted in both halves (that only inflates the
        # sum); monotonicity bounds the union from below (up to the
        # signed-density slack for boundary-kernel estimators).
        assert union <= left + right + _slack(kind)
        assert union >= max(left, right) - _slack(kind)

    @given(sample=samples)
    @settings(max_examples=10, deadline=None)
    def test_deterministic_rebuild(self, kind, sample):
        a = _build(kind, sample)
        b = _build(kind, sample)
        queries = [(0.0, 10.0), (25.0, 30.0), (0.0, 100.0), (99.0, 100.0)]
        for qa, qb in queries:
            assert a.selectivity(qa, qb) == b.selectivity(qa, qb)

    @given(sample=samples)
    @settings(max_examples=10, deadline=None)
    def test_batch_matches_scalar(self, kind, sample):
        est = _build(kind, sample)
        a = np.array([0.0, 10.0, 50.0, 90.0])
        b = np.array([5.0, 30.0, 51.0, 100.0])
        batch = est.selectivities(a, b)
        singles = [est.selectivity(x, y) for x, y in zip(a, b)]
        np.testing.assert_allclose(batch, singles, atol=1e-12)


class TestDensityEstimatorInvariants:
    # The hybrid is excluded from the non-negativity check: its per-bin
    # boundary kernels are consistent-but-signed (paper §3.2.1).
    NONNEGATIVE_KINDS = ("equi_width", "equi_depth", "ash", "kernel-none")
    # Point-mass estimators (equi-depth on duplicate-heavy samples) are
    # excluded from the grid integral: a Dirac mass has no density.
    SMOOTH_KINDS = ("equi_width", "ash", "kernel-none", "hybrid")

    @pytest.mark.parametrize("kind", NONNEGATIVE_KINDS)
    @given(sample=samples)
    @settings(max_examples=10, deadline=None)
    def test_density_nonnegative(self, kind, sample):
        est = _build(kind, sample)
        grid = np.linspace(-5.0, 105.0, 111)
        assert (est.density(grid) >= -1e-12).all()

    @staticmethod
    def _integration_grid(sample: np.ndarray) -> np.ndarray:
        """Coarse global grid plus geometric refinement at the spikes.

        Near-duplicate samples drive the bandwidth rule toward zero, so
        kernel densities can carry legitimate spikes far narrower than
        any fixed uniform grid step; a plain ``linspace`` trapezoid
        then overestimates the mass by several percent (observed 1.057
        on a 16-point sample with 15 duplicates).  Refining
        geometrically around every sample value and both domain edges
        resolves spikes of any bandwidth down to ~1e-12.
        """
        coarse = np.linspace(-20.0, 120.0, 8_001)
        offsets = np.geomspace(1e-12, 4.0, 480)
        offsets = np.concatenate((-offsets[::-1], [0.0], offsets))
        centers = np.unique(np.concatenate((sample, [0.0, 100.0])))
        local = (centers[:, None] + offsets[None, :]).ravel()
        grid = np.unique(np.concatenate((coarse, local)))
        return grid[(grid >= -20.0) & (grid <= 120.0)]

    @pytest.mark.parametrize("kind", SMOOTH_KINDS)
    @given(sample=samples)
    # Duplicates plus one subnormal value: the hybrid's bin bandwidth
    # vanishes at the bin edge's floating-point resolution.
    @example(sample=np.array([0.0] * 10 + [3.0, 4.0, 7.0, 7.0, 7.0, 1.401298464324817e-45]))
    @settings(max_examples=8, deadline=None)
    def test_density_integrates_to_at_most_one(self, kind, sample):
        est = _build(kind, sample)
        grid = self._integration_grid(sample)
        mass = np.trapezoid(est.density(grid), grid)
        # Hybrid bins renormalize their boundary-kernel mass to exactly
        # 1, so the only legitimate excess left is the discretization
        # error of the grid integral.
        assert mass <= 1.01

    @given(sample=samples)
    @settings(max_examples=10, deadline=None)
    def test_hybrid_negative_dips_are_small(self, sample):
        """Boundary kernels may dip negative, but never by more than a
        fraction of the estimator's peak density."""
        est = _build("hybrid", sample)
        grid = np.linspace(0.0, 100.0, 501)
        density = est.density(grid)
        if density.max() > 0:
            assert density.min() >= -0.6 * density.max()


#: Edge-straddling query batches: endpoints deliberately range beyond
#: the domain on both sides, and zero-width queries are allowed.
query_batches = st.lists(
    st.tuples(
        st.floats(-20.0, 120.0, allow_nan=False),
        st.floats(0.0, 60.0, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
).map(
    lambda qs: (
        np.array([a for a, _ in qs]),
        np.array([a + w for a, w in qs]),
    )
)


class TestBatchScanEquivalence:
    """The vectorized batch path must agree with the reference paths.

    ``selectivity_scan`` is the literal ``Theta(n)`` Algorithm 1 loop;
    the windowed/segmented fast path must reproduce it to within
    accumulated rounding for every kernel, including batches whose
    queries straddle the sample range (empty windows on one side).
    """

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @given(sample=samples, batch=query_batches)
    @settings(max_examples=15, deadline=None)
    def test_kernel_batch_matches_scan(self, kernel, sample, batch):
        est = KernelSelectivityEstimator(sample, 4.0, kernel=kernel)
        a, b = batch
        scan = np.array([est.selectivity_scan(x, y) for x, y in zip(a, b)])
        np.testing.assert_allclose(est.selectivities(a, b), scan, atol=1e-12)

    @given(sample=samples, batch=query_batches)
    @example(
        sample=np.linspace(1.0, 99.0, 16),
        batch=(np.array([-10.0, 98.0]), np.array([2.0, 150.0])),
    )
    @settings(max_examples=15, deadline=None)
    def test_reflection_batch_matches_scan(self, sample, batch):
        # Both paths clip queries to the domain: the mirrored copies
        # outside it carry mass neither may count.
        est = make_kernel_estimator(sample, 4.0, DOMAIN, boundary="reflection")
        a, b = batch
        scan = np.array([est.selectivity_scan(x, y) for x, y in zip(a, b)])
        np.testing.assert_allclose(est.selectivities(a, b), scan, atol=1e-12)

    @given(sample=samples, batch=query_batches)
    @settings(max_examples=15, deadline=None)
    def test_boundary_batch_matches_scan(self, sample, batch):
        # The scan must apply the boundary kernels within h of each
        # edge, exactly as the three-region batch path does.
        est = make_kernel_estimator(sample, 4.0, DOMAIN, boundary="kernel")
        a, b = batch
        scan = np.array([est.selectivity_scan(x, y) for x, y in zip(a, b)])
        np.testing.assert_allclose(est.selectivities(a, b), scan, atol=1e-12)

    @given(
        sample=samples,
        h=st.floats(0.1, DOMAIN.width / 2.0),
        x=st.lists(st.floats(-20.0, 120.0, allow_nan=False), min_size=1, max_size=40),
    )
    @settings(max_examples=15, deadline=None)
    def test_boundary_density_matches_scan(self, sample, h, x):
        # Up to h = width / 2 the two boundary regions meet and leave no
        # interior; both edges are always among the points.
        est = make_kernel_estimator(sample, h, DOMAIN, boundary="kernel")
        points = np.array(x + [DOMAIN.low, DOMAIN.high])
        scan = np.array([boundary_density_scan(sample, h, DOMAIN, p) for p in points])
        np.testing.assert_allclose(est.density(points), scan / (sample.size * h), atol=1e-12)

    @pytest.mark.parametrize("boundary", ("none", "reflection", "kernel"))
    @given(sample=samples, batch=query_batches)
    @settings(max_examples=15, deadline=None)
    def test_batch_matches_singleton_windows(self, boundary, sample, batch):
        # One flattened multi-query evaluation vs. many single-query
        # evaluations: exercises the window segmentation (empty windows,
        # prefix offsets) against the trivially-correct singleton layout.
        est = make_kernel_estimator(sample, 4.0, DOMAIN, boundary=boundary)
        a, b = batch
        singles = np.concatenate(
            [est.selectivities(a[i : i + 1], b[i : i + 1]) for i in range(a.size)]
        )
        np.testing.assert_allclose(est.selectivities(a, b), singles, atol=1e-12)


@st.composite
def degenerate_histograms(draw):
    """A PiecewiseConstantDensity with at least one zero-width bin."""
    edges = draw(
        st.lists(
            st.floats(0.0, 100.0, allow_nan=False), min_size=3, max_size=10
        )
    )
    # Duplicate one edge so a zero-width (point-mass) bin always exists.
    edges = sorted(edges + [edges[draw(st.integers(0, len(edges) - 1))]])
    counts = draw(
        st.lists(
            st.integers(0, 50),
            min_size=len(edges) - 1,
            max_size=len(edges) - 1,
        )
    )
    sample_size = max(1, sum(counts)) + draw(st.integers(0, 10))
    return (
        np.asarray(edges),
        np.asarray(counts, dtype=np.float64),
        sample_size,
    )


class TestZeroWidthBins:
    @given(hist=degenerate_histograms(), batch=query_batches)
    @settings(max_examples=25, deadline=None)
    def test_batch_well_formed_and_covering_query_is_total_mass(self, hist, batch):
        edges, counts, n = hist
        est = PiecewiseConstantDensity(edges, counts, n)
        a, b = batch
        values = est.selectivities(a, b)
        assert values.shape == a.shape
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        covering = est.selectivity(-1000.0, 1000.0)
        assert covering == pytest.approx(min(1.0, est.total_mass()), abs=1e-12)

    @given(hist=degenerate_histograms())
    @settings(max_examples=25, deadline=None)
    def test_point_query_sees_the_point_mass(self, hist):
        edges, counts, n = hist
        est = PiecewiseConstantDensity(edges, counts, n)
        for position, mass in est.point_masses:
            assert est.selectivity(position, position) >= mass - 1e-12


class TestBatchValidation:
    """Malformed batches fail up front with :class:`InvalidQueryError`.

    The regression this guards: estimators whose batch path re-derived
    per-query structures used to surface inverted ranges as
    ``InvalidSampleError`` (or worse, partial results) midway through
    the batch.
    """

    SAMPLE = np.linspace(0.0, 100.0, 32)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_inverted_pair_raises_invalid_query(self, kind):
        est = _build(kind, self.SAMPLE)
        a = np.array([0.0, 30.0, 10.0])
        b = np.array([5.0, 20.0, 60.0])  # index 1 inverted
        with pytest.raises(InvalidQueryError, match="batch index 1"):
            est.selectivities(a, b)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_non_finite_endpoint_raises_invalid_query(self, kind):
        est = _build(kind, self.SAMPLE)
        a = np.array([0.0, np.nan])
        b = np.array([5.0, 20.0])
        with pytest.raises(InvalidQueryError, match="finite"):
            est.selectivities(a, b)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_shape_mismatch_raises_invalid_query(self, kind):
        est = _build(kind, self.SAMPLE)
        with pytest.raises(InvalidQueryError, match="shape"):
            est.selectivities(np.array([0.0, 1.0]), np.array([5.0]))
