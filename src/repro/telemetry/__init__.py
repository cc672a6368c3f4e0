"""Telemetry: tracing spans, metrics, and run manifests.

The estimation stack is instrumented end to end — estimator
construction and queries (:mod:`repro.core.base`), the planner
(:mod:`repro.db.planner`), the experiment harness
(:mod:`repro.experiments`) and the online aggregation stream
(:mod:`repro.online`) all report into one process-global
:class:`Telemetry` object.  Telemetry is **off by default** and the
disabled path is a single attribute check, so the instrumented code
pays near-zero overhead until someone opts in::

    from repro import telemetry

    with telemetry.session(trace_memory=False) as t:
        est = estimators.kernel(sample, domain)
        est.selectivity(10.0, 20.0)
    print(t.render_spans())          # span tree with wall-clock timings
    print(t.snapshot()["metrics"])   # counters + value histograms

Metric names are dotted, lowercase, ``subsystem.noun[.verb]``
(``estimator.build``, ``planner.estimate``, ``harness.experiment``,
``online.batch`` — see DESIGN.md §"Telemetry conventions").

The CLI front end is ``python -m repro <exp> --trace`` (writes a JSON
run manifest under ``benchmarks/reports/manifests/``) and
``python -m repro stats`` (aggregates existing manifests).  See
``docs/OBSERVABILITY.md``.
"""

from repro.telemetry.metrics import MetricsRegistry, ValueSummary
from repro.telemetry.sketch import QuantileSketch
from repro.telemetry.spans import SpanRecord
from repro.telemetry.runtime import (
    Telemetry,
    get_telemetry,
    set_telemetry,
    session,
)
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    aggregate_manifests,
    build_manifest,
    load_manifests,
    manifest_dir,
    write_manifest,
)
from repro.telemetry.bench import (
    BENCH_KINDS,
    HIGHER_IS_BETTER_KINDS,
    BenchmarkExporter,
    entry_direction,
    entry_kind,
)
from repro.telemetry.quality import (
    QERROR_FLOOR,
    QualityRecord,
    QualityTracker,
    qerror,
    qerrors,
    record_quality,
    record_quality_batch,
)
from repro.telemetry.drift import Staleness, StalenessMonitor, grid_ks
from repro.telemetry.slo import (
    DEFAULT_SLOS,
    SERVING_SLOS,
    SLOResult,
    SLOSpec,
    evaluate_bench,
    evaluate_registry,
    evaluate_snapshot,
    max_burn,
    render_report,
)
from repro.telemetry.export import (
    JsonlEventLog,
    bench_exposition,
    default_event_log,
    iter_events,
    parse_exposition,
    prometheus_exposition,
)

__all__ = [
    "BENCH_KINDS",
    "BenchmarkExporter",
    "DEFAULT_SLOS",
    "HIGHER_IS_BETTER_KINDS",
    "JsonlEventLog",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "QERROR_FLOOR",
    "QualityRecord",
    "QualityTracker",
    "QuantileSketch",
    "SERVING_SLOS",
    "SLOResult",
    "SLOSpec",
    "SpanRecord",
    "Staleness",
    "StalenessMonitor",
    "Telemetry",
    "ValueSummary",
    "aggregate_manifests",
    "bench_exposition",
    "build_manifest",
    "default_event_log",
    "entry_direction",
    "entry_kind",
    "evaluate_bench",
    "evaluate_registry",
    "evaluate_snapshot",
    "get_telemetry",
    "grid_ks",
    "iter_events",
    "max_burn",
    "load_manifests",
    "manifest_dir",
    "parse_exposition",
    "prometheus_exposition",
    "qerror",
    "qerrors",
    "record_quality",
    "record_quality_batch",
    "render_report",
    "session",
    "set_telemetry",
    "write_manifest",
]
