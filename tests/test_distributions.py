"""Series invariants, cumulative transform, and the two log-space fits."""

import math

import pytest

import reference
from coronagraphs.distributions import (
    DistributionSeries,
    cumulative_series,
    fit_exponential,
    fit_power_law,
)
from coronagraphs.floattext import rows


class TestSeriesInvariants:
    def test_many_rounded_terms_sum_to_one(self):
        # 200,000 terms of 1/200000, each rounded: a plain sum drifts past 1e-12
        d = DistributionSeries.from_counts(range(200_000), [1] * 200_000)
        assert d.population == 200_000
        assert abs(sum(d.probabilities) - 1.0) > 1e-12

    def test_values_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            DistributionSeries(values=(2.0, 1.0), counts=(1, 1))

    def test_fields_align(self):
        with pytest.raises(ValueError, match="align"):
            DistributionSeries(values=(1.0, 2.0), counts=(1,))

    def test_counts_are_positive(self):
        with pytest.raises(ValueError, match="positive"):
            DistributionSeries(values=(1.0, 2.0), counts=(3, 0))

    def test_cumulative_monotone(self):
        with pytest.raises(ValueError, match="non-increasing"):
            DistributionSeries(values=(1.0, 2.0, 3.0), counts=(5, 1, 2),
                               cumulative=True)

    def test_population_is_derived(self):
        assert DistributionSeries(values=(1.0, 2.0), counts=(9, 3)).population == 12
        c = DistributionSeries(values=(1.0, 2.0), counts=(12, 3), cumulative=True)
        assert c.population == 12
        assert c.probabilities.tolist() == [1.0, 0.25]
        assert DistributionSeries(values=(), counts=(), cumulative=True).population == 0

    def test_population_is_below_two_to_the_53(self):
        # every count and the population are exact float64s, so each
        # probability is the correctly rounded int / int
        big = DistributionSeries(values=(1.0, 2.0), counts=(2 ** 52 + 1, 2 ** 52 - 2))
        assert big.population == 2 ** 53 - 1
        assert big.probabilities.tolist() == [(2 ** 52 + 1) / (2 ** 53 - 1),
                                              (2 ** 52 - 2) / (2 ** 53 - 1)]
        assert cumulative_series(big).counts.tolist() == [2 ** 53 - 1, 2 ** 52 - 2]
        for counts, cumulative in [((2 ** 52, 2 ** 52), False),
                                   ((2 ** 53, 1), True),
                                   # an int64 sum wraps to a negative total
                                   ((2 ** 62, 2 ** 62), False)]:
            with pytest.raises(ValueError, match=r"below 2\*\*53"):
                DistributionSeries(values=(1.0, 2.0), counts=counts, cumulative=cumulative)

    def test_from_counts_sorts(self):
        d = DistributionSeries.from_counts([5, 3], [1, 3])
        assert d.values.tolist() == [3.0, 5.0]
        assert d.counts.tolist() == [3, 1]
        assert abs(sum(d.probabilities) - 1.0) < 1e-15


class TestCumulative:
    def test_suffix_sums(self):
        d = DistributionSeries.from_counts([3, 5], [9, 3])
        c = cumulative_series(d)
        assert c.cumulative
        assert c.points == [(3.0, 1.0), (5.0, 0.25)]

    def test_exact_with_counts(self):
        d = DistributionSeries.from_counts([3, 5], [9, 3])
        c = cumulative_series(d)
        assert c.counts.tolist() == [12, 3]
        assert c.probabilities[0] == 1.0

    def test_idempotent(self):
        c = cumulative_series(DistributionSeries.from_counts([1, 2], [1, 1]))
        assert cumulative_series(c) is c


# plain counts whose suffix sums halve: 32, 16, 8, 4, 2, 1
COUNTS = (16, 8, 4, 2, 1, 1)


class TestPowerLawFit:
    def test_recovers_exact_exponent(self):
        # cumulative counts 32, 16, ..., 1: p = v^-1 on v = 1, 2, ..., 32,
        # which corresponds to plain exponent 2
        d = DistributionSeries.from_counts([2 ** i for i in range(6)], COUNTS)
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
        # cumulative counts 32, 16, ..., 1: p = 2^-(v-1) on v = 1, ..., 6
        d = DistributionSeries.from_counts(range(1, 7), COUNTS)
        rate, r2 = fit_exponential(d)
        assert abs(rate - math.log(2.0)) < 1e-12
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
        text = head + "".join(rows("%d,%r\n", (d.values, d.probabilities)))
        lines = text.splitlines()
        assert lines[0] == "# cumulative=false population=12"
        assert lines[1] == "value,probability"
        assert lines[2] == "3,0.75"
        assert len(lines) == 4
        assert text == reference.series_to_csv(d)
