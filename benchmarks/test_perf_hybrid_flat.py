"""Perf: the flat hybrid hot paths and the DPI bandwidth.

The hybrid estimator answers a whole batch through the kernel window
engine (one sorted sample plus per-bin coefficient arrays, see
``repro.core.kernel.flat``) with two ``searchsorted`` calls and
segmented reductions.  This module times its build and batch query,
which the CI perf gate holds against ``BENCH_perf.json``, and the
direct plug-in bandwidth whose roughness functionals run on the
linear-binned convolution path.
"""

import numpy as np
import pytest

from repro.bandwidth.plugin import plugin_bandwidth
from repro.core.hybrid import HybridEstimator
from repro.data.domain import Interval

DOMAIN = Interval(0.0, 1_000_000.0)
N_SAMPLES = 2_000
N_QUERIES = 300


@pytest.fixture(scope="module")
def sample():
    # Bimodal with a sharp edge: exercises change-point detection and
    # yields a multi-bin partition (the regime the flat layout targets).
    rng = np.random.default_rng(0)
    values = np.concatenate(
        [
            rng.normal(250_000.0, 40_000.0, N_SAMPLES // 2),
            rng.uniform(600_000.0, 900_000.0, N_SAMPLES - N_SAMPLES // 2),
        ]
    )
    return np.clip(values, DOMAIN.low, DOMAIN.high)


@pytest.fixture(scope="module")
def estimator(sample):
    return HybridEstimator(sample, DOMAIN)


@pytest.fixture(scope="module")
def query_batch():
    rng = np.random.default_rng(1)
    a = rng.uniform(DOMAIN.low, DOMAIN.high * 0.99, N_QUERIES)
    return a, np.minimum(a + rng.uniform(0.0, 0.2, N_QUERIES) * DOMAIN.width, DOMAIN.high)


def test_perf_build_hybrid_flat(benchmark, sample, perf_export):
    built = benchmark(HybridEstimator, sample, DOMAIN)
    assert built.selectivity(DOMAIN.low, DOMAIN.high) > 0.99
    perf_export.record("perf_build", "hybrid_flat", benchmark.stats.stats)


def test_perf_query_hybrid_flat(benchmark, estimator, query_batch, perf_export):
    a, b = query_batch
    out = benchmark(estimator.selectivities, a, b)
    assert out.shape == a.shape
    perf_export.record("perf_query_batch", "hybrid_flat", benchmark.stats.stats)


def test_perf_build_plugin_dpi(benchmark, sample, perf_export):
    bandwidth = benchmark(plugin_bandwidth, sample, domain=DOMAIN)
    assert np.isfinite(bandwidth) and bandwidth > 0
    perf_export.record("perf_build", "plugin_dpi", benchmark.stats.stats)

