"""Percentiles that refuse to be reported from too few samples."""

from __future__ import annotations

import math

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    pass


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank q-quantile (0 < q < 1) of the samples.

    Raises TooFewSamples unless at least MIN_BEYOND samples lie beyond
    it, so a p90 needs 100 samples and a median 20."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; need {MIN_BEYOND}")
    return sorted(samples)[rank - 1]
