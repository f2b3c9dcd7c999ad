"""Value/probability series and the log-space fits used on them.  No text is
formatted here: ``stats`` prints a series through the one chunked row writer."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DistributionSeries:
    """Sorted (value, probability) points, plain or cumulative.

    ``counts`` keeps the exact integer weights when the series came from
    counting, so downstream comparisons can be exact instead of float-eyed.
    """

    values: tuple[float, ...]
    probabilities: tuple[float, ...]
    cumulative: bool
    population: int
    counts: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.values) != len(self.probabilities):
            raise ValueError("values and probabilities must align")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be strictly increasing")
        if self.counts is not None and len(self.counts) != len(self.values):
            raise ValueError("counts must align with values")
        if self.cumulative:
            if any(b > a + 1e-12 for a, b in zip(self.probabilities,
                                                 self.probabilities[1:])):
                raise ValueError("cumulative probabilities must be non-increasing")
            if self.probabilities and abs(self.probabilities[0] - 1.0) > 1e-12:
                raise ValueError("cumulative series must start at 1")
        else:
            # fsum is exact: the roundings of many c/pop terms do not add up
            if self.probabilities and abs(math.fsum(self.probabilities) - 1.0) > 1e-12:
                raise ValueError("plain series must sum to 1")

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.values, self.probabilities))

    @classmethod
    def from_counts(cls, values, counts) -> "DistributionSeries":
        pairs = sorted(zip(values, counts))
        vals = tuple(float(v) for v, _ in pairs)
        cnts = tuple(int(c) for _, c in pairs)
        pop = sum(cnts)
        probs = tuple(c / pop for c in cnts)
        return cls(values=vals, probabilities=probs, cumulative=False,
                   population=pop, counts=cnts)


def cumulative_series(d: DistributionSeries) -> DistributionSeries:
    """Suffix-sum a plain series of exact counts into P(value >= v)."""
    if d.cumulative:
        return d
    if d.counts is None:
        raise ValueError("a plain series needs its counts to be cumulated")
    suffix = np.cumsum(d.counts[::-1])[::-1]
    probs = tuple(int(c) / d.population for c in suffix)
    return DistributionSeries(values=d.values, probabilities=probs,
                              cumulative=True, population=d.population,
                              counts=tuple(int(c) for c in suffix))


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
    vals = np.asarray(d.values)
    probs = np.asarray(d.probabilities)
    keep = probs > 0
    if positive_values:
        keep &= vals > 0
    vals, probs = vals[keep], probs[keep]
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
