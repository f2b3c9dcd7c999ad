"""Exact count series and the log-space fits used on them.  No text is
formatted here: ``stats`` prints a series through the one chunked row writer."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np


@dataclass(frozen=True)
class DistributionSeries:
    """Sorted (value, count) points of exact integer counts: per value, or
    cumulative (at or above each value).  The population and each
    probability, count / population, are derived once, when first read."""

    values: tuple[float, ...]
    counts: tuple[int, ...]
    cumulative: bool = False

    def __post_init__(self) -> None:
        if len(self.values) != len(self.counts):
            raise ValueError("values and counts must align")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be strictly increasing")
        if min(self.counts, default=1) < 1:
            raise ValueError("counts must be positive")
        if self.cumulative and any(b > a for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("cumulative counts must be non-increasing")

    @cached_property
    def population(self) -> int:
        """The sum of a plain series' counts, the first of a cumulative one's."""
        return self.counts[0] if self.cumulative and self.counts else sum(self.counts)

    @cached_property
    def probabilities(self) -> tuple[float, ...]:
        # int / int rounds once, correctly
        return tuple(c / self.population for c in self.counts)

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.values, self.probabilities))

    @classmethod
    def from_counts(cls, values, counts) -> "DistributionSeries":
        pairs = sorted(zip(values, counts))
        return cls(values=tuple(float(v) for v, _ in pairs),
                   counts=tuple(int(c) for _, c in pairs))


def cumulative_series(d: DistributionSeries) -> DistributionSeries:
    """Suffix-sum a plain series into the counts at or above each value."""
    if d.cumulative:
        return d
    suffix = tuple(accumulate(reversed(d.counts)))[::-1]
    return DistributionSeries(values=d.values, counts=suffix, cumulative=True)


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares power-law exponent from a cumulative series.

    gamma is reported for the plain distribution: |slope of the cumulative
    log-log fit| + 1.
    """

    gamma: float
    intercept: float
    r_squared: float
    fit_range: tuple[float, float]


def _select(d: DistributionSeries, positive_values: bool):
    # every count is positive, so every probability has a logarithm
    vals = np.asarray(d.values)
    probs = np.asarray(d.probabilities)
    if positive_values:
        vals, probs = vals[vals > 0], probs[vals > 0]
    if len(vals) < 3:  # a series' values are distinct
        raise ValueError("need at least 3 distinct values in the fit range")
    return vals, probs


def _least_squares(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def fit_power_law(d: DistributionSeries) -> PowerLawFit:
    """log p vs log value regression on the cumulative series."""
    series = cumulative_series(d)
    vals, probs = _select(series, positive_values=True)
    slope, intercept, r2 = _least_squares(np.log(vals), np.log(probs))
    return PowerLawFit(gamma=abs(slope) + 1.0, intercept=intercept, r_squared=r2,
                       fit_range=(float(vals.min()), float(vals.max())))


def fit_exponential(d: DistributionSeries) -> tuple[float, float]:
    """log p vs value regression; returns (decay rate, r_squared)."""
    series = cumulative_series(d)
    vals, probs = _select(series, positive_values=False)
    slope, _, r2 = _least_squares(vals.astype(float), np.log(probs))
    return -slope, r2
