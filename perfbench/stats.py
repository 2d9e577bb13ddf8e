"""Summary statistics and fidelity errors used by the benchmark.

Everything here is pure arithmetic over plain numbers, so the tests can
check it against hand-computed values.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Mapping, Sequence

#: The paper's Table 3, in percent: (row-buffer hit rate, effective
#: bandwidth over peak) per memory-controller policy.
PAPER_TABLE3: Dict[str, tuple] = {
    "fcfs": (47.7, 65.6),
    "frfcfs": (91.6, 89.7),
    "atlas": (74.2, 78.4),
    "tcm": (79.6, 80.8),
    "sms": (84.7, 84.3),
}

#: Figures whose average PCCS error feeds each PU's fidelity metric.
#: ``fig14-<pu>`` is the per-PU average of the Fig. 14 co-run study.
PCCS_ERROR_SOURCES: Dict[str, tuple] = {
    "gpu": ("fig8", "fig10", "fig14-gpu"),
    "cpu": ("fig9", "fig11", "fig14-cpu"),
    "dla": ("fig12", "fig14-dla"),
}

MIN_BEYOND = 10
"""Samples a reported percentile must have above it."""


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to have a tail."""


def percentile(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> float:
    """Nearest-rank ``q``-th percentile with at least ``min_beyond``
    samples strictly above its rank.

    The rank is ``ceil(q / 100 * n)`` (1-based), so the percentile is an
    observed sample and ``n - rank`` samples lie beyond it. Raises
    :class:`TooFewSamples` when that tail is shorter than ``min_beyond``
    — a p90 over 50 calls would rest on five samples.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need {min_beyond}"
        )
    return sorted(samples)[rank - 1]


def samples_needed(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count for which :func:`percentile` succeeds."""
    n = min_beyond + 1
    while n - max(1, math.ceil(q / 100.0 * n)) < min_beyond:
        n += 1
    return n


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance over the median (``statistics`` quartiles)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def table3_errors(
    measured: Mapping[str, tuple], paper: Mapping[str, tuple] = PAPER_TABLE3
) -> tuple:
    """Mean absolute (RBH, effective-BW) difference from the paper, in
    percentage points.

    ``measured`` maps policy to (row-hit rate, effective-BW fraction) as
    fractions in [0, 1], the form ``PolicyStats`` carries; every paper
    policy must be present.
    """
    rbh = [abs(measured[p][0] * 100.0 - paper[p][0]) for p in paper]
    effbw = [abs(measured[p][1] * 100.0 - paper[p][1]) for p in paper]
    return sum(rbh) / len(rbh), sum(effbw) / len(effbw)


def pccs_errors(
    figure_errors: Mapping[str, float],
    sources: Mapping[str, tuple] = PCCS_ERROR_SOURCES,
) -> Dict[str, float]:
    """Per-PU mean of the per-figure average PCCS errors, in percent.

    ``figure_errors`` maps a source name (``fig8``, ``fig14-gpu``, ...)
    to that figure's average error as a fraction.
    """
    return {
        pu: sum(figure_errors[name] for name in names) * 100.0 / len(names)
        for pu, names in sources.items()
    }
