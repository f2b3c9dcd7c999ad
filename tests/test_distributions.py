"""Series invariants, cumulative transform, and the two log-space fits."""

import math

import numpy as np
import pytest

import reference
from coronagraphs.cli import _rows
from coronagraphs.distributions import (
    DistributionSeries,
    cumulative_series,
    fit_exponential,
    fit_power_law,
)


def plain(values, probs, population=100):
    return DistributionSeries(values=tuple(values), probabilities=tuple(probs),
                              cumulative=False, population=population)


class TestSeriesInvariants:
    def test_plain_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            plain([1.0, 2.0], [0.5, 0.4])

    def test_many_rounded_terms_sum_to_one(self):
        # 200,000 terms of 1/200000, each rounded: a plain sum drifts past 1e-12
        d = DistributionSeries.from_counts(range(200_000), [1] * 200_000)
        assert d.population == 200_000
        assert abs(sum(d.probabilities) - 1.0) > 1e-12

    def test_values_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            plain([2.0, 1.0], [0.5, 0.5])

    def test_cumulative_head_is_one(self):
        with pytest.raises(ValueError, match="start at 1"):
            DistributionSeries(values=(1.0, 2.0), probabilities=(0.9, 0.4),
                               cumulative=True, population=10)

    def test_cumulative_monotone(self):
        with pytest.raises(ValueError, match="non-increasing"):
            DistributionSeries(values=(1.0, 2.0, 3.0),
                               probabilities=(1.0, 0.2, 0.4),
                               cumulative=True, population=10)

    def test_from_counts_sorts(self):
        d = DistributionSeries.from_counts([5, 3], [1, 3])
        assert d.values == (3.0, 5.0)
        assert d.counts == (3, 1)
        assert abs(sum(d.probabilities) - 1.0) < 1e-15


class TestCumulative:
    def test_suffix_sums(self):
        d = DistributionSeries.from_counts([3, 5], [9, 3])
        c = cumulative_series(d)
        assert c.cumulative
        assert c.points == [(3.0, 1.0), (5.0, 0.25)]

    def test_plain_series_without_counts_refused(self):
        with pytest.raises(ValueError, match="counts"):
            cumulative_series(plain([3.0, 5.0], [0.75, 0.25], population=12))

    def test_exact_with_counts(self):
        d = DistributionSeries.from_counts([3, 5], [9, 3])
        c = cumulative_series(d)
        assert c.counts == (12, 3)
        assert c.probabilities[0] == 1.0

    def test_idempotent(self):
        c = cumulative_series(DistributionSeries.from_counts([1, 2], [1, 1]))
        assert cumulative_series(c) is c


class TestPowerLawFit:
    def test_recovers_exact_exponent(self):
        # cumulative p = v^-1 corresponds to plain exponent 2
        values = [2.0 ** i for i in range(6)]
        probs = [1.0 / v for v in values]
        d = DistributionSeries(values=tuple(values), probabilities=tuple(probs),
                               cumulative=True, population=1000)
        fit = fit_power_law(d)
        assert abs(fit.gamma - 2.0) < 1e-12
        assert abs(fit.r_squared - 1.0) < 1e-12
        assert fit.fit_range == (1.0, 32.0)

    def test_zero_values_are_excluded_by_default(self):
        d = DistributionSeries.from_counts([0, 1, 2, 4], [4, 2, 1, 1])
        fit = fit_power_law(d)
        assert fit.fit_range[0] == 1.0

    def test_degenerate_range(self):
        d = DistributionSeries.from_counts([1, 2], [1, 1])
        with pytest.raises(ValueError, match="3 distinct"):
            fit_power_law(d)


class TestExponentialFit:
    def test_recovers_exact_rate(self):
        values = list(range(1, 7))
        probs = [math.exp(-0.5 * v) for v in values]
        head = probs[0]
        d = DistributionSeries(values=tuple(float(v) for v in values),
                               probabilities=tuple(p / head for p in probs),
                               cumulative=True, population=100)
        rate, r2 = fit_exponential(d)
        assert abs(rate - 0.5) < 1e-12
        assert abs(r2 - 1.0) < 1e-12

    def test_plain_input_is_cumulated_first(self):
        d = DistributionSeries.from_counts([1, 2, 3], [4, 2, 1])
        rate, _ = fit_exponential(d)
        assert rate > 0


class TestCsv:
    def test_emission(self):
        # the degree series as stats --format csv writes it, by the one row writer
        d = DistributionSeries.from_counts([3, 5], [9, 3])
        head = f"# cumulative=false population={d.population}\nvalue,probability\n"
        text = head + "".join(_rows("%d,%r\n", (np.array(d.values),
                                                 np.array(d.probabilities))))
        lines = text.splitlines()
        assert lines[0] == "# cumulative=false population=12"
        assert lines[1] == "value,probability"
        assert lines[2] == "3,0.75"
        assert len(lines) == 4
        assert text == reference.series_to_csv(d)
