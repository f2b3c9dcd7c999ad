"""Exact count series, two numpy arrays from the measure to the row writer, and
the log-space fits used on them.  No text is formatted here."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class DistributionSeries:
    """Sorted (value, count) points of exact integer counts: per value, or
    cumulative (at or above each value), as float64 values and int64 counts.
    The population is below 2**53, so it and every count are exact float64s,
    and each probability, count / population, rounds once, when first read."""

    values: np.ndarray
    counts: np.ndarray
    cumulative: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, np.float64))
        object.__setattr__(self, "counts", np.asarray(self.counts, np.int64))
        values, counts = self.values, self.counts
        if values.shape != counts.shape or values.ndim != 1:
            raise ValueError("values and counts must align")
        if np.any(values[1:] <= values[:-1]):
            raise ValueError("values must be strictly increasing")
        if np.any(counts < 1):
            raise ValueError("counts must be positive")
        if self.cumulative and np.any(counts[1:] > counts[:-1]):
            raise ValueError("cumulative counts must be non-increasing")
        if self.population >= 2 ** 53:
            raise ValueError("counts must total below 2**53")

    @cached_property
    def population(self) -> int:
        """The sum of a plain series' counts, the first of a cumulative one's, in
        float64: exact below 2**53, and at least 2**53 if the sum is, with no wrap."""
        return int(self.counts[:1 if self.cumulative else None].sum(dtype=np.float64))

    @cached_property
    def probabilities(self) -> np.ndarray:
        # both sides are exact float64s, so the quotient rounds once, as int / int does
        return self.counts / self.population

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.values.tolist(), self.probabilities.tolist()))

    @classmethod
    def from_counts(cls, values, counts) -> "DistributionSeries":
        values = np.asarray(values, dtype=np.float64)
        order = np.argsort(values, kind="stable")
        return cls(values=values[order], counts=np.asarray(counts, dtype=np.int64)[order])


def cumulative_series(d: DistributionSeries) -> DistributionSeries:
    """Suffix-sum a plain series into the counts at or above each value."""
    if d.cumulative:
        return d
    suffix = np.cumsum(d.counts[::-1])[::-1]
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
    vals, probs = d.values, d.probabilities
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
    slope, _, r2 = _least_squares(vals, np.log(probs))
    return -slope, r2
