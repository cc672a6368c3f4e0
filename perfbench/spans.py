"""Span tracing from outside the program, for the benchmark's traced run.

:class:`Recorder` installs thin wrappers around each layer's public
entry points and keeps one :class:`Span` per call in memory: name,
start, end, parent span and the request or cycle id it belongs to.
Every wrapper is patched where callers look the entry point up — a
class attribute, the ``repro.db.catalog.FAMILIES`` dict the catalog
builds estimators through, or the module global a caller imported by
name — so that no wrapper times nothing.  Untraced runs never
construct a recorder and leave every entry point untouched.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from typing import Any, Callable, Iterable

#: Prefix of estimator spans; an estimator call made inside another
#: estimator call counts toward the outer one.
ESTIMATOR_PREFIX = "estimator."

AttrsFn = Callable[[tuple, dict, Any], dict]


@dataclasses.dataclass
class Span:
    """One timed call of a wrapped entry point."""

    name: str
    start: float
    end: float
    parent: int
    op: int
    phase: str
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: "list[Span]") -> "list[float]":
    """Each span's duration minus the part of it covered by its children.

    Children are the spans whose ``parent`` is the span's index;
    overlapping children are counted once (their union is subtracted)
    and any part of a child outside its parent is ignored.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


class Recorder:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.op = 0
        self._clock = clock
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- recording ----------------------------------------------------

    def wrap(self, fn: Callable, name: str, attrs: "AttrsFn | None" = None) -> Callable:
        """``fn`` recording one span named ``name`` per call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, self._clock(), 0.0, parent, self.op, self.phase, {})
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def next_op(self) -> None:
        """Attribute the spans that follow to a new request or cycle."""
        self.op += 1

    # -- patching -----------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str, attrs: "AttrsFn | None" = None) -> None:
        """Replace ``owner.attr`` (a class, module or dict entry) by a traced wrapper."""
        if isinstance(owner, dict):
            original, own = owner[attr], True
            owner[attr] = self.wrap(original, name, attrs)
        else:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(original, name, attrs))
        self._patches.append((owner, attr, original, own))

    def unpatch(self) -> None:
        """Restore every patched entry point, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            elif own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def install(self) -> None:
        """Wrap every layer's public entry points (see module docstring)."""
        import repro.bandwidth.normal_scale as normal_scale
        import repro.core.hybrid as hybrid_mod
        import repro.estimators as estimators_mod
        from repro.core.histogram.equi_depth import EquiDepthHistogram
        from repro.core.histogram.uniform import UniformEstimator
        from repro.core.hybrid import HybridEstimator
        from repro.core.kernel.boundary import BoundaryKernelEstimator
        from repro.core.summary import ColumnSummary
        from repro.db import catalog as catalog_mod
        from repro.db.planner import Planner
        from repro.db.table import Table
        from repro.serving.service import EstimationService
        from repro.serving.snapshot import SnapshotStore

        self.patch(EstimationService, "estimate", "serving.estimate", _estimate_attrs)
        self.patch(EstimationService, "register", "serving.register")
        self.patch(EstimationService, "refresh_incremental", "serving.refresh_incremental")
        self.patch(SnapshotStore, "publish", "snapshot.publish")
        self.patch(Planner, "plan", "planner.plan")
        self.patch(catalog_mod.Catalog, "analyze", "catalog.analyze", _family_attrs)
        self.patch(catalog_mod.Catalog, "refresh", "catalog.refresh", _refresh_attrs)
        self.patch(catalog_mod.Catalog, "fork", "catalog.fork")
        self.patch(Table, "append", "table.append", _append_attrs)
        self.patch(Table, "delete_where", "table.delete_where", _delete_attrs)
        for method in ("update", "merge", "freeze"):
            self.patch(ColumnSummary, method, f"summary.{method}")
        for family in list(catalog_mod.FAMILIES):
            self.patch(
                catalog_mod.FAMILIES, family, "estimator.build", _const_attrs(family=family)
            )
        self.patch(hybrid_mod, "detect_change_points", "changepoints.detect", _points_attrs)
        self.patch(normal_scale, "kernel_bandwidth", "bandwidth.select")
        self.patch(estimators_mod, "plugin_bandwidth", "bandwidth.select")
        for cls, family in (
            (HybridEstimator, "hybrid"),
            (BoundaryKernelEstimator, "kernel"),
            (EquiDepthHistogram, "equi-depth"),
            (UniformEstimator, "uniform"),
        ):
            self.patch(cls, "selectivity", "estimator.selectivity", _const_attrs(family=family))
            self.patch(
                cls, "selectivities", "estimator.selectivities", _batch_attrs(family)
            )

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON (one list per field)."""
        fields = [field.name for field in dataclasses.fields(Span)]
        columns = {field: [getattr(span, field) for span in self.spans] for field in fields}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(columns, handle, separators=(",", ":"))


def _const_attrs(**values: Any) -> AttrsFn:
    return lambda args, kwargs, result: dict(values)


def _estimate_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {
        "cached": bool(result.cached),
        "attempts": int(result.attempts),
        "wait_s": float(result.wait_s),
        "degraded": bool(result.degraded),
    }


def _family_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"family": args[0].family}


def _refresh_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"family": args[0].family, "incremental": result == "incremental"}


def _append_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    rows = args[1]
    return {"rows": int(len(next(iter(rows.values()))))}


def _delete_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"rows": int(result)}


def _points_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"points": int(len(result))}


def _batch_attrs(family: str) -> AttrsFn:
    def attrs(args: tuple, kwargs: dict, result: Any) -> dict:
        return {"family": family, "n": int(args[0].sample_size), "queries": int(len(args[1]))}

    return attrs


def size_label(n: int) -> str:
    """``2000`` -> ``"n2k"``, ``200000`` -> ``"n200k"``."""
    return f"n{n // 1000}k" if n % 1000 == 0 else f"n{n}"


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    spans: "list[Span]", *, phase: str, families: Iterable[str], batch_keys: Iterable[str]
) -> "dict[str, float]":
    """Per-layer metrics over the spans of one phase.

    Times are means per call of the named entry point; ``*.self_us``
    subtract child spans.  A layer the phase never entered reads 0.
    """
    selfs = self_times(spans)
    chosen = [i for i, span in enumerate(spans) if span.phase == phase]
    by_name: dict[str, list[int]] = {}
    for i in chosen:
        by_name.setdefault(spans[i].name, []).append(i)

    def named(name: str, **match: Any) -> "list[int]":
        return [
            i for i in by_name.get(name, ())
            if all(spans[i].attrs.get(k) == v for k, v in match.items())
        ]

    def mean_dur(indices: "list[int]", scale: float) -> float:
        return _mean(spans[i].duration * scale for i in indices)

    def attr_mean(indices: "list[int]", key: str, scale: float = 1.0) -> float:
        # A call that raised recorded no attributes.
        return _mean(float(spans[i].attrs[key]) * scale for i in indices if key in spans[i].attrs)

    def top_level(indices: "list[int]") -> "list[int]":
        # Estimator calls made by another estimator call (a scalar
        # query answered as a batch of one, a hybrid's per-bin
        # estimators) belong to their caller's figure.
        return [
            i for i in indices
            if spans[i].parent < 0 or not spans[spans[i].parent].name.startswith(ESTIMATOR_PREFIX)
        ]

    estimates = named("serving.estimate")
    plans = named("planner.plan")
    appends, deletes = named("table.append"), named("table.delete_where")
    detects = named("changepoints.detect")
    scalar = top_level(named("estimator.selectivity"))
    plan_set = set(plans)
    out: dict[str, float] = {
        "serving.estimate_us": mean_dur(estimates, 1e6),
        "serving.self_us": _mean(selfs[i] * 1e6 for i in estimates),
        "serving.admission_wait_us": attr_mean(estimates, "wait_s", 1e6),
        "serving.result_cache_hit_ratio": attr_mean(estimates, "cached"),
        "serving.attempts_per_request": attr_mean(estimates, "attempts"),
        "serving.degraded_ratio": attr_mean(estimates, "degraded"),
        "serving.refresh_incremental_ms": mean_dur(named("serving.refresh_incremental"), 1e3),
        "serving.register_ms": mean_dur(named("serving.register"), 1e3),
        "snapshot.publish_us": mean_dur(named("snapshot.publish"), 1e6),
        "planner.plan_us": mean_dur(plans, 1e6),
        "planner.self_us": _mean(selfs[i] * 1e6 for i in plans),
        "planner.estimator_calls_per_plan": (
            sum(spans[i].parent in plan_set for i in scalar) / len(plans) if plans else 0.0
        ),
        "catalog.fork_ms": mean_dur(named("catalog.fork"), 1e3),
        "catalog.incremental_ratio": attr_mean(named("catalog.refresh"), "incremental"),
        "table.append_us": mean_dur(appends, 1e6),
        "table.delete_where_us": mean_dur(deletes, 1e6),
        "table.rows_per_append": attr_mean(appends, "rows"),
        "table.rows_per_delete": attr_mean(deletes, "rows"),
        "summary.update_us": mean_dur(named("summary.update"), 1e6),
        "summary.merge_us": mean_dur(named("summary.merge"), 1e6),
        "summary.freeze_us": mean_dur(named("summary.freeze"), 1e6),
        "changepoints.detect_ms": mean_dur(detects, 1e3),
        "changepoints.points": attr_mean(detects, "points"),
        "bandwidth.select_ms": mean_dur(named("bandwidth.select"), 1e3),
        "estimator.calls_per_request": len(scalar) / len(estimates) if estimates else 0.0,
    }
    for family in families:
        out[f"catalog.refresh_ms.{family}"] = mean_dur(named("catalog.refresh", family=family), 1e3)
        out[f"catalog.analyze_ms.{family}"] = mean_dur(named("catalog.analyze", family=family), 1e3)
        out[f"estimator.build_ms.{family}"] = mean_dur(named("estimator.build", family=family), 1e3)
        out[f"estimator.selectivity_us.{family}"] = _mean(
            spans[i].duration * 1e6 for i in scalar if spans[i].attrs.get("family") == family
        )
    batches = top_level(named("estimator.selectivities"))
    for key in batch_keys:
        family, label = key.split(".")
        picked = [
            i for i in batches
            if spans[i].attrs.get("family") == family
            and size_label(spans[i].attrs.get("n", 0)) == label
        ]
        queries = sum(spans[i].attrs["queries"] for i in picked)
        total = sum(spans[i].duration for i in picked)
        out[f"estimator.selectivities_us_per_query.{key}"] = total * 1e6 / queries if queries else 0.0
    return out
