"""Tests of the benchmark's own helpers.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from stats import TooFewSamples, mean_relative_error, percentile  # noqa: E402


class TestPercentile:
    def test_refuses_fewer_than_ten_beyond(self):
        with pytest.raises(TooFewSamples):
            percentile(range(100), 95)  # rank 95 leaves 5 beyond
        with pytest.raises(TooFewSamples):
            percentile(range(19), 50)  # rank 10 leaves 9 beyond

    def test_accepts_exactly_ten_beyond(self):
        assert percentile(range(1000), 99) == 989
        assert percentile(range(20), 50) == 9

    def test_failures_count_beyond_any_limit(self):
        values = [1.0] * 985 + [math.inf] * 15
        assert percentile(values, 99) == math.inf
        assert percentile(values, 50) == 1.0


def test_mre_excludes_zero_count_queries():
    assert mean_relative_error([5.0, 10.0, 3.0], [0, 20, 3]) == pytest.approx(0.25)


class TestReferenceScaling:
    WIDTH = reference.WINDOW_S
    REF = reference.REFERENCE_PASS_S["mixed"]

    def test_times_scale_by_their_window_median(self):
        w, ref = self.WIDTH, self.REF
        passes = [(0.1 * w, ref), (0.5 * w, 3 * ref), (0.9 * w, 2 * ref), (1.5 * w, 4 * ref)]
        factors = reference.scale_factors(0.0, passes, [0.2 * w, 0.95 * w, 1.2 * w], ref)
        assert factors == pytest.approx([0.5, 0.5, 0.25])

    def test_empty_window_borrows_the_nearest(self):
        w, ref = self.WIDTH, self.REF
        passes = [(0.5 * w, ref), (2.5 * w, 2 * ref), (5.5 * w, 4 * ref)]
        ends = [1.5 * w, 3.5 * w, 4.5 * w]
        # Window 1 ties between windows 0 and 2 and takes the earlier.
        assert reference.scale_factors(0.0, passes, ends, ref) == pytest.approx([1.0, 0.5, 0.25])

    def test_refuses_a_run_without_passes(self):
        with pytest.raises(ValueError):
            reference.scale_factors(0.0, [], [1.0], self.REF)

    @pytest.mark.parametrize("kind", sorted(reference.PASSES))
    def test_gauge_runs_a_pass_once_the_interval_is_over(self, kind):
        now = [0.0]
        gauge = reference.Gauge(kind, clock=lambda: now[0])
        gauge.tick()  # no time has passed
        now[0] = reference.PASS_EVERY_S
        gauge.tick()  # begins and ends at the same fake instant
        now[0] += reference.PASS_EVERY_S / 2
        gauge.tick()
        assert gauge.passes == [(reference.PASS_EVERY_S, 0.0)]


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, 0, "timed", {})


class TestSelfTime:
    def test_nested_spans(self):
        recorded = [
            _span("root", 0.0, 10.0, -1),
            _span("a", 1.0, 4.0, 0),
            _span("a.child", 2.0, 3.0, 1),
            _span("b", 5.0, 9.0, 0),
        ]
        assert spans.self_times(recorded) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_counted_once(self):
        recorded = [
            _span("root", 0.0, 10.0, -1),
            _span("a", 1.0, 5.0, 0),
            _span("b", 3.0, 7.0, 0),
            _span("late", 9.0, 12.0, 0),
        ]
        assert spans.self_times(recorded)[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_recorder_nests_wrapped_calls(self):
        ticks = iter(range(100))
        recorder = spans.Recorder(clock=lambda: float(next(ticks)))
        inner = recorder.wrap(lambda: None, "inner")
        outer = recorder.wrap(lambda: inner() or inner(), "outer")
        outer()
        names = [(s.name, s.parent) for s in recorder.spans]
        assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
        # outer spans ticks 0..5, each inner one tick of it.
        assert spans.self_times(recorder.spans) == [3.0, 1.0, 1.0]


def test_unpatch_restores_every_entry_point():
    from repro.db import catalog
    from repro.serving.service import EstimationService

    before_estimate = EstimationService.__dict__["estimate"]
    before_families = dict(catalog.FAMILIES)
    recorder = spans.Recorder()
    recorder.install()
    assert EstimationService.__dict__["estimate"] is not before_estimate
    recorder.unpatch()
    assert EstimationService.__dict__["estimate"] is before_estimate
    assert catalog.FAMILIES == before_families
    from repro.core.histogram.equi_depth import EquiDepthHistogram

    assert "selectivity" not in vars(EquiDepthHistogram)


class TestSeeding:
    def test_serve_stream_depends_only_on_seed(self):
        first, again, other = (workloads.ServeZipf(seed) for seed in (3, 3, 4))
        assert np.array_equal(first.stream, again.stream)
        assert np.array_equal(first.shapes, again.shapes, equal_nan=True)
        assert not np.array_equal(first.stream, other.stream)

    def test_ingest_reads_depend_only_on_seed(self):
        first, again, other = (workloads.IngestRefresh(seed) for seed in (3, 3, 4))
        for phase in range(3):
            rows, delete, reads = first._inputs(phase)
            rows_again, delete_again, reads_again = again._inputs(phase)
            rows_other, delete_other, reads_other = other._inputs(phase)
            assert np.array_equal(reads, reads_again)
            assert not np.array_equal(reads, reads_other)
            # The write stream is fixed: it steers the rebuilt statistics.
            assert np.array_equal(rows["x"], rows_again["x"])
            assert np.array_equal(rows["x"], rows_other["x"])
            assert delete == delete_again == delete_other

    def test_shape_pool_mix_is_even(self):
        shapes = workloads.shape_pool(50, workloads.rng_for(3, 1))
        with_y = np.isfinite(shapes[:, 2]).reshape(-1, 10)
        assert (with_y.sum(axis=1) == 3).all()
        widths = (shapes[:, 1] - shapes[:, 0]).reshape(-1, 4)
        assert (np.argsort(widths, axis=1) == np.arange(4)).all()

    def test_ingest_writes_repeat_every_period(self):
        workload = workloads.IngestRefresh(3)
        workload.setup()
        first = []
        for _ in range(2 * workloads.INGEST_PERIOD):
            workload.prepare()
            rows, delete, _ = workload.inputs
            if workload.cycle == workloads.INGEST_PERIOD:
                assert workload.table.row_count == 257_942  # restored
            if workload.cycle < workloads.INGEST_PERIOD:
                first.append((rows, delete))
            else:
                rows_first, delete_first = first[workload.cycle - workloads.INGEST_PERIOD]
                assert np.array_equal(rows["x"], rows_first["x"])
                assert delete == delete_first
            low, high = workload.x0.min(), workload.x0.max()
            assert low <= rows["x"].min() and rows["x"].max() <= high
            workload.step(time.perf_counter)
        assert workload.failed == 0

    def test_same_seed_same_mre(self):
        def first_pass(seed):
            workload = workloads.make("batch-n2k", seed)
            workload.setup()
            for _ in range(workload.batches):
                workload.step(lambda: 0.0)
            return workload.a, workload.finish()

        (a, (mre, _, failed)), (a_again, (mre_again, _, _)) = first_pass(3), first_pass(3)
        other, (mre_other, _, _) = first_pass(4)
        assert failed == 0
        assert np.array_equal(a, a_again) and mre == mre_again
        assert not np.array_equal(a, other) and mre != mre_other
