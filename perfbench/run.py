"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/workloads.py`` and ``BENCHMARK.json``):
``serve-zipf``, ``ingest-refresh``, ``batch-n2k`` and ``batch-n200k``.
Every workload reports the same end-to-end metrics, each defined on the
workload's own operation (a served request, an ingest cycle, or one
query answered in a batch by both the hybrid and the kernel estimator):

* ``setup_s`` — median wall time of the set-up calls (``register``,
  or ``analyze``) over three processes that had analyzed nothing;
  input generation and truth counting are excluded;
* ``ref_ops_per_s`` — operations per second of time spent in them;
* ``ref_op_p50_us`` — median latency per operation;
* ``ref_op_tail_us`` — tail latency per operation; the percentile is
  fixed per workload (p99 serving, p80 ingest, p90 batch) and always has
  at least ten operations beyond it; a failed operation counts as
  beyond any limit;
* ``mre`` — the paper's mean relative error of a fixed set of answers
  against exact counts (drawn from the seed, except for ingest's fixed
  probe set); it repeats exactly for a seed;
* ``peak_rss_mb`` — peak resident memory of the measuring process.

The ``ref_`` timings and ``setup_s`` are scaled to the reference host's
speed: a :class:`reference.Gauge` times a fixed computation between
operations (and around the set-up calls), and each operation's latency
is scaled by how much slower or faster than on the reference host that
computation ran around it.  The computation is of the kind that
tracks the workload's own operations (see ``perfbench/reference.py``).  The raw timings, the median reference
pass and ``failed_frac`` (carried by ``attempted`` and ``failed``) are
printed as text lines only, outside the result.

``--trace 1`` instead runs half the timed phase untraced and half with
span wrappers around every layer's entry points (``perfbench/spans.py``),
prints the per-layer metrics, the tracing overhead, and writes the
spans to ``.perfbench-out/``.  Per-layer times are as measured, with
the traced half's median reference pass as ``host.reference_pass_us``
to set them against; the overhead compares the halves' scaled median
latencies.  Untraced runs install no wrappers and
leave ``repro.telemetry`` disabled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits 1 when a correctness check fails, and 2, printing no result,
when the checkout holds no ``src/repro`` package to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from reference import SETUP_PASSES, Gauge
from spans import Recorder, layer_metrics
from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

#: Processes whose set-up time is measured per run (the measuring
#: process plus this many fresh children).
SETUP_CHILDREN = 2
#: Operations each half of a traced run makes at least, for its median.
TRACE_MIN_OPS = 21

FAMILIES = ("hybrid", "equi-depth", "uniform", "kernel")
BATCH_KEYS = ("hybrid.n2k", "hybrid.n200k", "kernel.n2k", "kernel.n200k")

#: Build layers whose set-up cost the traced run also reports.
SETUP_LAYERS = (
    "serving.register_ms",
    "catalog.analyze_ms.hybrid",
    "catalog.analyze_ms.kernel",
    "estimator.build_ms.hybrid",
    "estimator.build_ms.kernel",
    "changepoints.detect_ms",
    "bandwidth.select_ms",
    "summary.update_us",
)


def _parse(argv: "list[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


class Timed(NamedTuple):
    """The operations of one closed loop."""

    #: Latency per operation, scaled to the reference host's speed.
    scaled: "list[float]"
    #: Latency per operation as measured.
    raw: "list[float]"
    oks: "list[bool]"
    #: Median reference pass time over the loop, in seconds.
    pass_s: float


def _loop(
    workload, seconds: float, min_ops: int, recorder: "Recorder | None" = None
) -> Timed:
    """Closed loop: one operation after another for ``seconds`` (and ``min_ops``).

    Between operations a :class:`Gauge` times its reference pass.  With
    a ``recorder``, spans of the untimed ``prepare`` calls are kept
    apart (phase ``untimed``) and every operation gets its own id.
    """
    clock = time.perf_counter
    gauge = Gauge(workload.gauge, clock)
    latencies: list[float] = []
    oks: list[bool] = []
    ends: list[float] = []
    start = clock()
    while clock() - start < seconds or len(latencies) < min_ops:
        if recorder is not None:
            recorder.phase = "untimed"
        workload.prepare()
        if recorder is not None:
            recorder.phase = "timed"
            recorder.next_op()
        latency, ok = workload.step(clock)
        latencies.append(latency)
        oks.append(ok)
        ends.append(clock())
        gauge.tick()
    scaled = [lat * f for lat, f in zip(latencies, gauge.factors(ends))]
    return Timed(scaled, latencies, oks, gauge.pass_s())


def _setup(workload) -> "tuple[float, float]":
    """The workload's set-up time, as measured and scaled to the reference host.

    The scale comes from reference passes timed just before and just
    after the set-up calls.
    """
    gauge = Gauge(workload.gauge)
    for _ in range(SETUP_PASSES):
        gauge.measure()
    elapsed = workload.setup()
    for _ in range(SETUP_PASSES):
        gauge.measure()
    return elapsed, gauge.scale(elapsed)


def _setup_in_children(args: argparse.Namespace) -> "list[tuple[float, float]]":
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        raw, scaled = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(raw), float(scaled)))
    return samples


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _untraced(args: argparse.Namespace, workloads) -> "tuple[dict, dict, int, int]":
    setup = _setup_in_children(args)
    workload = workloads.make(args.workload, args.seed)
    setup.append(_setup(workload))
    timed = _loop(workload, args.seconds, workload.min_ops)
    mre, attempted, failed = workload.finish()

    def tails(latencies: "list[float]") -> "list[float]":
        return [lat if ok else math.inf for lat, ok in zip(latencies, timed.oks)]

    scaled, raw = tails(timed.scaled), tails(timed.raw)
    metrics = {
        "setup_s": _metric(statistics.median(scaled for _, scaled in setup), "s"),
        "ref_ops_per_s": _metric(len(scaled) / sum(timed.scaled), "1/s"),
        "ref_op_p50_us": _metric(percentile(scaled, 50.0) * 1e6, "us"),
        "ref_op_tail_us": _metric(percentile(scaled, workload.tail) * 1e6, "us"),
        "mre": _metric(mre, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = {
        "raw_setup_s": _metric(statistics.median(raw for raw, _ in setup), "s"),
        "ops_per_s": _metric(len(raw) / sum(timed.raw), "1/s"),
        "op_p50_us": _metric(percentile(raw, 50.0) * 1e6, "us"),
        "op_tail_us": _metric(percentile(raw, workload.tail) * 1e6, "us"),
        "reference_pass_us": _metric(timed.pass_s * 1e6, "us"),
    }
    return metrics, notes, attempted, failed


def _traced(args: argparse.Namespace, workloads) -> "tuple[dict, dict, int, int]":
    workload = workloads.make(args.workload, args.seed)
    recorder = Recorder()
    recorder.install()
    try:
        workload.setup()
    finally:
        recorder.unpatch()
    half = args.seconds / 2
    plain = _loop(workload, half, TRACE_MIN_OPS)
    recorder.install()
    try:
        traced = _loop(workload, half, TRACE_MIN_OPS, recorder)
    finally:
        recorder.unpatch()
    _, attempted, failed = workload.finish()
    OUT_DIR.mkdir(exist_ok=True)
    recorder.dump(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"))
    values = layer_metrics(
        recorder.spans, phase="timed", families=FAMILIES, batch_keys=BATCH_KEYS
    )
    values.update(
        {f"setup.{name}": value for name, value in layer_metrics(
            recorder.spans, phase="setup", families=FAMILIES, batch_keys=()
        ).items() if name in SETUP_LAYERS}
    )
    values["trace.overhead_ratio"] = (
        statistics.median(traced.scaled) / statistics.median(plain.scaled)
    )
    values["trace.spans_per_op"] = sum(
        span.phase == "timed" for span in recorder.spans
    ) / len(traced.scaled)
    values["host.reference_pass_us"] = traced.pass_s * 1e6
    metrics = {name: _metric(value, _unit(name)) for name, value in values.items()}
    return metrics, {}, attempted, failed


def _unit(name: str) -> str:
    tokens = set(re.split(r"[._]", name))
    for token in ("us", "ms"):
        if token in tokens:
            return token
    if tokens & {"per", "points", "rows"}:
        return "count"
    return "ratio"


def main(argv: "list[str]") -> int:
    args = _parse(argv)
    _import_program()
    import workloads
    from repro.telemetry import get_telemetry

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if get_telemetry().enabled:
        print("repro.telemetry must be disabled for a benchmark run", file=sys.stderr)
        return 2
    if args.setup_probe:
        workload = workloads.make(args.workload, args.seed)
        print(*map(repr, _setup(workload)))
        return 0
    run = _traced if args.trace else _untraced
    metrics, notes, attempted, failed = run(args, workloads)
    notes["failed_frac"] = _metric(failed / attempted, "ratio")
    for name, metric in {**metrics, **notes}.items():
        print(f"{args.workload:20s} {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    correct = failed == 0
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
