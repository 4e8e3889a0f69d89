import math

import pytest

from oddgraceful.bench import bench_csv, fit, params_for_q, run_bench
from oddgraceful.construction import METHODS
from oddgraceful.errors import PathTooShortError


class TestParamsForQ:
    def test_default_family_fixes_m8(self):
        params = params_for_q(100)
        assert params.m == 8
        assert params.q == 100
        assert params.n == 93

    def test_unrealizable_q_names_constraint(self):
        with pytest.raises(PathTooShortError, match="q >= 14"):
            params_for_q(5)

    def test_boundary(self):
        assert params_for_q(14).n == 7
        with pytest.raises(PathTooShortError):
            params_for_q(13)


class TestRunBench:
    def test_sample_counts_and_positivity(self):
        samples = run_bench([50, 100, 200], repetitions=2)
        assert len(samples) == 3 * 2 * 2
        assert all(nanoseconds > 0 for _, _, nanoseconds in samples)
        assert {method for _, method, _ in samples} == set(METHODS)
        for method in METHODS:
            assert fit(samples, method)[2] == 3

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError):
            run_bench([50], repetitions=0)

    def test_empty_q_list_rejected(self):
        with pytest.raises(ValueError):
            run_bench([], repetitions=1)

    def test_bad_q_fails_before_timing(self):
        with pytest.raises(PathTooShortError):
            run_bench([50, 5], repetitions=1)


class TestSummarize:
    def test_synthetic_linear_data_gives_slope_one(self):
        samples = [(q, "algorithmic", 17 * q) for q in (100, 1000, 10000)]
        slope, r_squared, _ = fit(samples, "algorithmic")
        assert slope == pytest.approx(1.0)
        assert r_squared == pytest.approx(1.0)

    def test_synthetic_quadratic_data_gives_slope_two(self):
        samples = [(q, "closed", 3 * q * q) for q in (100, 1000, 10000)]
        slope, _, _ = fit(samples, "closed")
        assert slope == pytest.approx(2.0)

    def test_median_is_used_per_q(self):
        samples = [
            (100, "closed", t) for t in (90, 100, 5000)  # outlier ignored by the median
        ] + [(1000, "closed", 1000)]
        slope, _, _ = fit(samples, "closed")
        assert slope == pytest.approx(1.0)

    def test_single_point_has_no_fit(self):
        slope, _, q_points = fit([(100, "closed", 5)], "closed")
        assert q_points == 1
        assert slope != slope  # NaN

    def test_flat_times_give_slope_zero(self):
        slope, r_squared, q_points = fit([(100, "closed", 5), (1000, "closed", 5)], "closed")
        assert slope == 0.0
        assert math.isnan(r_squared)
        assert q_points == 2


class TestCsv:
    def test_layout(self):
        text = bench_csv([(50, "closed", 10), (50, "algorithmic", 20)])
        lines = text.strip().splitlines()
        assert lines[0] == "q,method,nanoseconds"
        assert lines[1] == "50,closed,10"
        assert lines[2] == "50,algorithmic,20"
        assert lines[3].startswith("# method=closed slope=")
        assert lines[4].startswith("# method=algorithmic slope=")
