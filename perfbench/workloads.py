"""The benchmark's workloads: inputs from a seed, one timed operation per step.

Every workload is a closed loop with one client thread — each caller
of a selectivity estimator is a planner thread that waits for its
answer.  A workload object builds its inputs from the seed before any
clock starts, performs its set-up calls in :meth:`setup`, answers one
operation per :meth:`step` (returning the time spent inside the
program's public calls and whether the operation succeeded), and
checks every answer, either in ``step`` outside the timed calls or in
:meth:`finish`.

The data are the paper's ``rr1(22)`` and ``rr2(22)`` files (257,942
rows each, canonical realization) and the queries its size-separated
files ``F_D(s)`` for ``s`` in {1, 2, 5, 10} %, positioned on the data.

Fixtures (the workload seed varies the queries, and the row pairing of
``x`` with ``y``; every ANALYZE samples with :data:`ANALYZE_SEED`, and
the ingest writes and accuracy probes are fixed by :data:`WRITE_SEED`):

``serve-zipf``
    Table ``rr`` with ``x`` = rr1(22), ``y`` = rr2(22); an
    ``EstimationService`` with the default ladder (hybrid, equi-depth,
    uniform) at n = 2,000.  20,000 request shapes, 5,000 per query
    size, 30 % with a ``y`` predicate, drawn by a bounded Zipf law
    (s = 0.8): about 20 % of requests hit the 256-entry result cache.
    Operation: one ``estimate``.  Tail: p99.
``ingest-refresh``
    The same table and service.  Operation: one cycle of ``append``
    (2,000 rows resampled from the files, ``x`` shifted by 0.1 % of the
    domain per cycle of the period, wrapping inside the data range),
    ``delete_where`` over 2,000 consecutive values of the original
    ``x``, ``refresh_incremental``, and 4 ``estimate`` reads; the last
    of every 33 cycles also runs a full ``refresh``.  The write stream
    repeats every 33 cycles from the registered table (see
    :class:`IngestRefresh`).  Every publish moves the snapshot version,
    so reads miss the result cache.  Tail: p80.
``batch-n2k`` / ``batch-n200k``
    Table ``rr1`` with rr1(22) only, analyzed by the ``hybrid`` and
    ``kernel`` (plug-in boundary kernel) families at n = 2,000 or
    200,000.  16,000 queries, 4,000 per size, answered 300 at a time
    through ``selectivities``.  Operation: one query answered by both
    families.  Tail: p90.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from repro.data import registry
from repro.db import Catalog, RangePredicate, Table
from repro.serving import EstimationService, ServiceConfig, ServingError
from repro.workload.queries import generate_query_file

from stats import mean_relative_error

QUERY_SIZES = (0.01, 0.02, 0.05, 0.10)
TABLE = "rr"
#: Sampling seed of every ANALYZE, as a deployment would fix it.  The
#: workload seed varies the data pairing and the queries; a varying
#: ANALYZE sample would move the MRE between seeds by about 40 %.
ANALYZE_SEED = 0
#: Seed of the ingest workload's write stream.  Writes steer which rows
#: the statistics are rebuilt from; a write stream that varied with the
#: workload seed would move the MRE between seeds by about 40 %, so
#: the workload seed varies the reads only.
WRITE_SEED = 0
#: Shapes in the serving working set, against a 256-entry result cache
#: and a 512-entry planner LRU.
SERVE_SHAPES = 20_000
#: Bounded Zipf exponent of shape popularity.
ZIPF_S = 0.8
#: Share of shapes that add a predicate on ``y``.
Y_SHARE = 0.3
#: Requests in one pass of the serving stream; the MRE covers the
#: distinct shapes of the first pass.
SERVE_PASS = 10_000
#: Rows appended per ingest cycle, and consecutive values of the
#: original ``x`` whose range each cycle deletes: the delta size of the
#: repository's incremental-refresh fixture
#: (``benchmarks/test_perf_incremental.py``).
INGEST_ROWS = 2_000
#: Cycles in one period of the ingest write stream.  A cycle changes
#: about 3,800 rows (2,000 appended, about 1,800 deleted), so the
#: catalog's default staleness budget (half of the 257,942 rows
#: analyzed) lets 33 cycles refresh incrementally and forces a full
#: rescan on the 34th.  The last cycle of a period therefore runs the
#: full ANALYZE (``EstimationService.refresh``) on schedule, and every
#: ``refresh_incremental`` stays incremental.
INGEST_PERIOD = 33
#: Shift of the rows appended on cycle ``k`` of a period, ``k`` times
#: this share of the domain width; a fixed fixture choice that makes
#: the appended rows drift about 3 % away from the file by the end of a
#: period.
INGEST_DRIFT = 0.001
#: Estimates read per ingest cycle; a fixed fixture choice ("a few
#: reads" per write batch).
INGEST_READS = 4
#: The ingest MRE comes from untimed probes, one in each of the first
#: ``MRE_PERIODS`` periods, at cycles spread over the period; each reads
#: ``PROBE_SHAPES`` shapes of a probe set drawn with :data:`WRITE_SEED`.
#: Like the write stream, the probe set is fixed: about 25 % of the
#: original rows are deleted by the end of a period, and the few queries
#: that fall inside deleted ranges carry relative errors above 100, so
#: probe sets that varied with the seed moved the MRE between 0.36 and
#: 0.61.  The workload seed varies the timed reads.
MRE_PERIODS = 4
PROBE_SHAPES = 1_000
#: Queries per ``selectivities`` call in the batch workloads: the batch
#: size of the repository's query-batch benchmarks
#: (``benchmarks/test_perf_hybrid_flat.py``).  At n = 200,000 the
#: temporaries of every such batch page-fault afresh; with 100-query
#: batches, whether they did depended on the allocation history, which
#: differed between query sets and moved the per-query cost by 25 %
#: between seeds.
BATCH = 300
#: Queries per paper size in the batch workloads' query set.
BATCH_QUERIES = 4_000
#: Queries per batch checked against the Θ(n) oracle.
ORACLE_PICKS = (0, 299)
ORACLE_TOL = 1e-9
#: Families each batch workload answers every batch with.
BATCH_FAMILIES = ("hybrid", "kernel")
#: Sample size of each batch workload, and its kind of reference pass:
#: queries at n = 200,000 are bound by memory latency.
BATCH_WORKLOADS = {"batch-n2k": (2_000, "mixed"), "batch-n200k": (200_000, "memory")}

Clock = Callable[[], float]


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator number ``stream`` derived from the workload seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def load_files():
    return registry.load("rr1(22)"), registry.load("rr2(22)")


def two_column_table(seed: int) -> Table:
    """``x`` = rr1(22), ``y`` = rr2(22) paired by a seeded permutation."""
    rr1, rr2 = load_files()
    y = rr2.values[rng_for(seed, 0).permutation(rr2.size)]
    return Table(TABLE, {"x": (rr1.values, rr1.domain), "y": (y, rr2.domain)})


def paper_queries(relation, count: int, rng: np.random.Generator) -> "tuple[np.ndarray, np.ndarray]":
    """``count`` queries per paper size, positioned on the data, concatenated."""
    files = [generate_query_file(relation, s, count, seed=rng) for s in QUERY_SIZES]
    return np.concatenate([f.a for f in files]), np.concatenate([f.b for f in files])


def shape_pool(per_size: int, rng: np.random.Generator) -> np.ndarray:
    """Request shapes ``(xa, xb, ya, yb)``, ``per_size`` per paper size, evenly mixed.

    Shape ``k`` has paper size ``QUERY_SIZES[k % 4]``, and exactly
    :data:`Y_SHARE` of every ten consecutive shapes add a ``y``
    predicate (the others have NaN ``ya``/``yb``).  Any run of
    consecutive shapes, such as the most popular ones, therefore has
    the same mix of sizes and predicates whatever the seed.
    """
    rr1, rr2 = load_files()
    xa, xb = paper_queries(rr1, per_size, rng)
    ya, yb = paper_queries(rr2, per_size, rng)
    if xa.size % 10:
        raise ValueError("the shape count must be a multiple of ten")
    # Shuffle within each size, then interleave the sizes.
    order = np.stack(
        [rng.permutation(per_size) + i * per_size for i in range(len(QUERY_SIZES))], axis=1
    ).ravel()
    pair = rng.permutation(ya.size)
    block = np.arange(10) < round(10 * Y_SHARE)
    with_y = rng.permuted(np.tile(block, (xa.size // 10, 1)), axis=1).ravel()
    return np.stack([
        xa[order], xb[order],
        np.where(with_y, ya[pair], np.nan), np.where(with_y, yb[pair], np.nan),
    ], axis=1)


def exact_counts(table: Table, xa, xb, ya, yb) -> np.ndarray:
    """Exact result sizes of ``x in [xa, xb] and (y in [ya, yb] if ya is finite)``.

    Vectorized over a row order sorted on ``x``; equal to ``Table.count``
    (spot-checked by the workloads that use it).
    """
    x, y = table.column("x"), table.column("y")
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    lo = np.searchsorted(xs, xa, side="left")
    hi = np.searchsorted(xs, xb, side="right")
    counts = (hi - lo).astype(np.int64)
    for i in np.flatnonzero(np.isfinite(ya)):
        window = ys[lo[i] : hi[i]]
        counts[i] = int(np.count_nonzero((window >= ya[i]) & (window <= yb[i])))
    return counts


def predicates(xa: float, xb: float, ya: float, yb: float) -> "list[RangePredicate]":
    preds = [RangePredicate("x", xa, xb)]
    if math.isfinite(ya):
        preds.append(RangePredicate("y", ya, yb))
    return preds


def count_predicates(xa: float, xb: float, ya: float, yb: float) -> dict:
    preds = {"x": (xa, xb)}
    if math.isfinite(ya):
        preds["y"] = (ya, yb)
    return preds


class Workload:
    """Interface of one workload (see module docstring)."""

    #: Operations below which the run keeps going past ``--seconds``.
    min_ops = 0
    #: Percentile reported as ``op_tail_us``; ``min_ops`` leaves at least
    #: ten operations beyond it.
    tail = 99.0
    #: Kind of reference pass that gauges the host's speed for this
    #: workload (see ``perfbench/reference.py``).
    gauge = "mixed"

    def setup(self) -> float:
        """Perform the set-up calls; returns their wall time in seconds."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work before the next :meth:`step` (none by default)."""

    def step(self, clock: Clock) -> "tuple[float, bool]":
        """One operation; returns (seconds inside the program's calls, succeeded)."""
        raise NotImplementedError

    def finish(self) -> "tuple[float, int, int]":
        """Check the answers; returns ``(mre, attempted, failed)``."""
        raise NotImplementedError


class ServeZipf(Workload):
    """Cold-mix serving: a Zipf working set far larger than the caches."""

    min_ops = SERVE_PASS
    tail = 99.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.table = two_column_table(seed)
        rng = rng_for(seed, 1)
        # Row k of ``shapes`` is the k-th most popular shape.
        self.shapes = shape_pool(SERVE_SHAPES // len(QUERY_SIZES), rng)
        weights = 1.0 / np.arange(1, SERVE_SHAPES + 1) ** ZIPF_S
        self.stream = rng.choice(SERVE_SHAPES, size=SERVE_PASS, p=weights / weights.sum())
        self.requests = [predicates(*self.shapes[k]) for k in self.stream]
        self.served: list[float] = []

    def setup(self) -> float:
        start = time.perf_counter()
        self.service = EstimationService(ServiceConfig(), seed=self.seed)
        self.service.register(self.table, seed=ANALYZE_SEED)
        return time.perf_counter() - start

    def step(self, clock: Clock) -> "tuple[float, bool]":
        preds = self.requests[len(self.served) % SERVE_PASS]
        start = clock()
        try:
            rows = self.service.estimate(TABLE, preds).plan.estimated_rows
        except ServingError:
            self.served.append(math.nan)
            return clock() - start, False
        elapsed = clock() - start
        self.served.append(rows)
        return elapsed, True

    def finish(self) -> "tuple[float, int, int]":
        n_rows = self.table.row_count
        # Reference: a separately analyzed catalog with the same seed.
        # Any stale result-cache or planner-LRU entry breaks equality.
        reference = Catalog("hybrid", 2_000)
        reference.analyze(self.table, seed=ANALYZE_SEED)
        sel_x = reference.column_statistic(TABLE, "x").selectivity
        sel_y = reference.column_statistic(TABLE, "y").selectivity
        served = np.asarray(self.served)
        shape_of = self.stream[np.arange(served.size) % SERVE_PASS]
        expected: dict[int, float] = {}
        bad = 0
        for shape, rows in zip(shape_of, served):
            if shape not in expected:
                xa, xb, ya, yb = self.shapes[shape]
                fx = sel_x(xa, xb)
                expected[shape] = fx * n_rows if math.isnan(ya) else fx * sel_y(ya, yb) * n_rows
            want = expected[shape]
            single = math.isnan(self.shapes[shape][2])
            ok = math.isfinite(rows) and 0.0 <= rows <= n_rows and (
                rows == want if single else math.isclose(rows, want, rel_tol=1e-9, abs_tol=1e-9)
            )
            bad += not ok
        # MRE over the distinct shapes of the first pass, each once.
        first, where = np.unique(self.stream[: min(served.size, SERVE_PASS)], return_index=True)
        truth = exact_counts(self.table, *self.shapes[first].T)
        for i in rng_for(self.seed, 4).choice(first.size, size=16, replace=False):
            if truth[i] != self.table.count(count_predicates(*self.shapes[first[i]])):
                raise AssertionError("vectorized truth disagrees with Table.count")
        mre = mean_relative_error(served[where], truth)
        return mre, int(served.size), bad


class IngestRefresh(Workload):
    """Writes alongside reads: append, delete, incremental refresh, reads.

    The write stream is fixed (:data:`WRITE_SEED`) and repeats every
    :data:`INGEST_PERIOD` cycles.  Before each period after the first,
    :meth:`prepare` restores the table to its registered contents and
    registers it again, untimed, so cycle ``k`` of every period is timed
    on the same table however long the run is and however fast the
    program.  The restore first evicts the table from the process-wide
    ANALYZE cache, so the period's timed full ANALYZE of data identical
    to the previous period's is a real one.
    """

    min_ops = MRE_PERIODS * INGEST_PERIOD
    #: A 25-second run makes about 300 cycles, 3 % of them full ANALYZEs
    #: about ten times as long; the p90 then sat among the few cycles a
    #: burst of host load had slowed and spread between runs by up to
    #: 0.2 of its median, the p80 by 0.06.
    tail = 80.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.table = two_column_table(seed)
        self.columns = {
            name: (self.table.column(name), self.table.domain(name))
            for name in self.table.column_names
        }
        rr1, _ = load_files()
        self.x0 = rr1.values
        self.x_low, self.x_span = float(self.x0.min()), float(self.x0.max() - self.x0.min() + 1)
        self.shift = INGEST_DRIFT * rr1.domain.width
        self.shapes = shape_pool(500, rng_for(seed, 1))
        self.probes = shape_pool(MRE_PERIODS * PROBE_SHAPES // 4, rng_for(WRITE_SEED, 6))
        self.writes = rng_for(WRITE_SEED, 2)
        self.reads = rng_for(seed, 5)
        self.cycle = 0
        self.attempted = 0
        self.failed = 0
        self.answers: list[tuple[float, int]] = []

    def setup(self) -> float:
        start = time.perf_counter()
        self.service = EstimationService(ServiceConfig(), seed=self.seed)
        self.service.register(self.table, seed=ANALYZE_SEED)
        return time.perf_counter() - start

    def prepare(self) -> None:
        phase = self.cycle % INGEST_PERIOD
        if phase == 0 and self.cycle:
            self._restore()
        period = self.cycle // INGEST_PERIOD
        if period < MRE_PERIODS and phase == (period + 1) * INGEST_PERIOD // (MRE_PERIODS + 1):
            self._probe(self.probes[period * PROBE_SHAPES : (period + 1) * PROBE_SHAPES])
        self.inputs = self._inputs(phase)

    def _restore(self) -> None:
        """Back to the registered table and statistics, untimed."""
        Catalog("uniform", 2_000).invalidate(TABLE)
        self.table = Table(TABLE, self.columns)
        self.service.register(self.table, seed=ANALYZE_SEED)
        self.writes = rng_for(WRITE_SEED, 2)

    def _inputs(self, phase: int) -> "tuple[dict, dict, np.ndarray]":
        rng, n0 = self.writes, self.x0.size
        # Rows resampled from the registered table, so appended pairs
        # follow the table's own pairing of x with y.
        pick = rng.integers(0, n0, INGEST_ROWS)
        x, y = self.columns["x"][0][pick], self.columns["y"][0][pick]
        # Integer shift, wrapped inside the file's own range: the domain
        # is integer, and clipping would pile rows onto one value.
        shifted = x - self.x_low + round(phase * self.shift)
        rows = {"x": self.x_low + shifted % self.x_span, "y": y}
        r = int(rng.integers(0, n0 - INGEST_ROWS))
        delete = {"x": (float(self.x0[r]), float(self.x0[r + INGEST_ROWS - 1]))}
        reads = self.reads.integers(0, len(self.shapes), INGEST_READS)
        return rows, delete, reads

    def step(self, clock: Clock) -> "tuple[float, bool]":
        rows, delete, reads = self.inputs
        service, table = self.service, self.table
        full = self.cycle % INGEST_PERIOD == INGEST_PERIOD - 1
        start = clock()
        table.append(rows)
        table.delete_where(delete)
        _, modes = service.refresh_incremental(TABLE)
        if full:
            service.refresh(TABLE)
        elapsed = clock() - start
        self.attempted += 3 + full
        failed_modes = sum(mode.startswith("failed") for mode in modes.values())
        self.failed += failed_modes
        ok = failed_modes == 0
        for k in reads:
            start = clock()
            estimated = self._read(self.shapes[k])
            elapsed += clock() - start
            ok = ok and estimated is not None
        self.cycle += 1
        return elapsed, ok

    def _read(self, shape: np.ndarray) -> "float | None":
        """One checked ``estimate``; ``None`` when it failed."""
        self.attempted += 1
        try:
            estimated = self.service.estimate(TABLE, predicates(*shape))
        except ServingError:
            self.failed += 1
            return None
        rows = estimated.plan.estimated_rows
        if not (math.isfinite(rows) and 0.0 <= rows <= self.table.row_count):
            self.failed += 1
            return None
        return rows

    def _probe(self, shapes: np.ndarray) -> None:
        """Untimed accuracy probe: the answers the MRE is taken over."""
        truth = exact_counts(self.table, *shapes.T)
        for shape, count in zip(shapes[:4], truth[:4]):
            if count != self.table.count(count_predicates(*shape)):
                raise AssertionError("vectorized truth disagrees with Table.count")
        for shape, count in zip(shapes, truth):
            estimated = self._read(shape)
            if estimated is not None:
                self.answers.append((estimated, count))

    def finish(self) -> "tuple[float, int, int]":
        estimated, truth = zip(*self.answers)
        return mean_relative_error(estimated, truth), self.attempted, self.failed


class BatchScale(Workload):
    """Query batches straight into the hybrid and kernel estimators at one n.

    One operation answers a 300-query batch with each family in turn;
    its latency is reported per query.  No admission, cache or planner
    is involved, only estimator kernels.
    """

    min_ops = 120
    tail = 90.0

    def __init__(self, seed: int, sample_size: int, gauge: str) -> None:
        self.seed = seed
        self.sample_size = sample_size
        self.gauge = gauge
        rr1, _ = load_files()
        self.table = Table("rr1", {"x": (rr1.values, rr1.domain)})
        rng = rng_for(seed, 3)
        files = [generate_query_file(rr1, s, BATCH_QUERIES, seed=rng) for s in QUERY_SIZES]
        a = np.concatenate([f.a for f in files])
        b = np.concatenate([f.b for f in files])
        truth = np.concatenate([f.true_counts for f in files])
        order = rng.permutation(a.size)
        self.a, self.b, self.truth = a[order], b[order], truth[order]
        for i in rng_for(seed, 4).choice(a.size, size=16, replace=False):
            if self.truth[i] != self.table.count({"x": (self.a[i], self.b[i])}):
                raise AssertionError("query-file truth disagrees with Table.count")
        self.batches = a.size // BATCH
        self.picks = (np.arange(self.batches)[:, None] * BATCH + ORACLE_PICKS).ravel()
        self.calls = 0
        self.bad = 0
        self.first_pass: dict[str, list[np.ndarray]] = {f: [] for f in BATCH_FAMILIES}

    def setup(self) -> float:
        start = time.perf_counter()
        catalogs = {family: Catalog(family, self.sample_size) for family in BATCH_FAMILIES}
        for catalog in catalogs.values():
            catalog.analyze(self.table, seed=ANALYZE_SEED)
        elapsed = time.perf_counter() - start
        self.estimators = {f: c.column_statistic("rr1", "x") for f, c in catalogs.items()}
        self.oracle = {f: self._oracle(f).reshape(self.batches, -1) for f in BATCH_FAMILIES}
        return elapsed

    def _oracle(self, family: str) -> np.ndarray:
        """The Θ(n) Algorithm-1 answers to the checked queries of every batch."""
        estimator, a, b = self.estimators[family], self.a[self.picks], self.b[self.picks]
        if family == "hybrid":
            return estimator.selectivities_reference(a, b)
        return np.array([estimator.selectivity_scan(qa, qb) for qa, qb in zip(a, b)])

    def step(self, clock: Clock) -> "tuple[float, bool]":
        batch = self.calls % self.batches
        a = self.a[batch * BATCH : (batch + 1) * BATCH]
        b = self.b[batch * BATCH : (batch + 1) * BATCH]
        elapsed, bad = 0.0, 0
        for family, estimator in self.estimators.items():
            start = clock()
            out = estimator.selectivities(a, b)
            elapsed += clock() - start
            in_range = np.isfinite(out) & (out >= 0.0) & (out <= 1.0)
            oracle_ok = np.abs(out[list(ORACLE_PICKS)] - self.oracle[family][batch]) <= ORACLE_TOL
            bad += int(np.count_nonzero(~in_range)) + int(np.count_nonzero(~oracle_ok))
            if self.calls < self.batches:
                self.first_pass[family].append(out)
        self.bad += bad
        self.calls += 1
        return elapsed / BATCH, bad == 0

    def finish(self) -> "tuple[float, int, int]":
        estimated = [np.concatenate(answers) for answers in self.first_pass.values()]
        truth = self.truth[: estimated[0].size]
        mre = mean_relative_error(
            np.concatenate(estimated) * self.table.row_count, np.tile(truth, len(estimated))
        )
        return mre, self.calls * BATCH * len(BATCH_FAMILIES), self.bad


WORKLOADS = ["serve-zipf", "ingest-refresh", *BATCH_WORKLOADS]


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` with its inputs generated from ``seed``."""
    if name == "serve-zipf":
        return ServeZipf(seed)
    if name == "ingest-refresh":
        return IngestRefresh(seed)
    return BatchScale(seed, *BATCH_WORKLOADS[name])
