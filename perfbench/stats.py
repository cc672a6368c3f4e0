"""Summary statistics for the benchmark: tail percentiles and the paper's MRE."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Refuses (raises :class:`TooFewSamples`) unless at least
    :data:`MIN_BEYOND` samples lie beyond the reported rank, so a tail
    figure always rests on more than a handful of outliers.  A failed
    operation is passed in as ``inf``: it counts as beyond any limit.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {len(ordered)} samples leaves {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return float(ordered[rank - 1])


def mean_relative_error(estimated: Sequence[float], true: Sequence[float]) -> float:
    """The paper's MRE (§5.1.2): mean ``|est - true| / true`` over non-empty queries.

    Zero-count queries are excluded, as in ``repro.workload.metrics``.
    """
    est = np.asarray(estimated, dtype=np.float64)
    truth = np.asarray(true, dtype=np.float64)
    keep = truth > 0
    if not np.any(keep):
        raise ValueError("every query has an empty true result")
    return float(np.mean(np.abs(est[keep] - truth[keep]) / truth[keep]))
