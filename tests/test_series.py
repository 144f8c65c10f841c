import datetime as dt
import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leancast.series import (DailySeries, ScalerState, chronological_split,
                             fit_scaler, generate_synthetic, make_windows)
from reference_kernels import ar1_loop


def make_series(values, metric="synthetic"):
    return DailySeries(start_date=dt.date(2018, 1, 1), values=np.asarray(values, float),
                       metric=metric)


class TestDailySeries:
    def test_basic_fields(self):
        s = make_series([1.0, 2.0, 3.0])
        assert len(s) == 3
        assert s.end_date == dt.date(2018, 1, 3)
        assert s.dates()[1] == dt.date(2018, 1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_series([])

    def test_count_series_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            make_series([1.0, -2.0], metric="post_count")

    def test_count_series_must_be_fully_observed(self):
        with pytest.raises(ValueError):
            make_series([1.0, float("nan")], metric="likes_sum")

    def test_last_day_must_be_a_date(self):
        last = DailySeries(start_date=dt.date(9999, 12, 30), values=[1.0, 2.0])
        assert last.end_date == dt.date.max
        with pytest.raises(ValueError, match="^3 days from 9999-12-30 run past 9999-12-31$"):
            DailySeries(start_date=dt.date(9999, 12, 30), values=[1.0, 2.0, 3.0])

    def test_sentiment_series_may_hold_nan(self):
        s = make_series([0.5, float("nan")], metric="sentiment_mean")
        assert np.isnan(s.values[1])


class TestSplit:
    def test_length_10_ratio_07(self):
        pair = chronological_split(make_series(range(10)), 0.7)
        assert len(pair.train) == 7 and len(pair.test) == 3

    def test_length_120_ratio_07(self):
        # the 70/30 split used throughout: 120 days -> 84 + 36
        pair = chronological_split(make_series(range(120)), 0.7)
        assert len(pair.train) == 84 and len(pair.test) == 36

    def test_singleton_errors(self):
        with pytest.raises(ValueError):
            chronological_split(make_series([1.0]), 0.7)

    def test_test_start_date_follows_train(self):
        pair = chronological_split(make_series(range(10)), 0.7)
        assert pair.test.start_date == pair.train.end_date + dt.timedelta(days=1)

    @given(st.integers(min_value=2, max_value=400),
           st.floats(min_value=0.05, max_value=0.95))
    def test_tiling(self, n, ratio):
        n_train = int(np.floor(ratio * n))
        if n_train < 1 or n - n_train < 1:
            return
        series = make_series(np.arange(n, dtype=float))
        pair = chronological_split(series, ratio)
        npt.assert_array_equal(
            np.concatenate([pair.train.values, pair.test.values]), series.values)


class TestScaler:
    def test_endpoints(self):
        scaler = fit_scaler(np.array([0.0, 5.0, 10.0]))
        npt.assert_allclose(scaler.apply([0.0, 5.0, 10.0]), [0.0, 0.5, 1.0])

    def test_constant_series_maps_to_zero(self):
        scaler = fit_scaler(np.array([4.0, 4.0, 4.0]))
        npt.assert_array_equal(scaler.apply([4.0, 4.0]), [0.0, 0.0])
        # inversion of the degenerate scaler lands back on the constant
        npt.assert_array_equal(scaler.invert([0.0]), [4.0])

    def test_round_trip_example(self):
        scaler = fit_scaler(np.array([3.7, 9.1]))
        npt.assert_allclose(scaler.invert(scaler.apply([3.7, 9.1])), [3.7, 9.1],
                            rtol=1e-12)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=40))
    def test_round_trip_property(self, values):
        values = np.asarray(values)
        scaler = fit_scaler(values)
        if scaler.max == scaler.min:
            return
        npt.assert_allclose(scaler.invert(scaler.apply(values)), values,
                            rtol=1e-12, atol=1e-9)


class TestWindows:
    def test_enumeration_h1(self):
        ws = make_windows([1, 2, 3, 4, 5], 2, 1)
        npt.assert_array_equal(ws.inputs, [[1, 2], [2, 3], [3, 4]])
        npt.assert_array_equal(ws.targets, [[3], [4], [5]])

    def test_enumeration_h2(self):
        ws = make_windows([1, 2, 3, 4, 5], 2, 2)
        npt.assert_array_equal(ws.inputs, [[1, 2], [2, 3]])
        npt.assert_array_equal(ws.targets, [[3, 4], [4, 5]])

    def test_too_short_is_empty_not_error(self):
        assert make_windows([1, 2], 14, 5).count == 0

    @given(st.integers(min_value=0, max_value=60),
           st.integers(min_value=1, max_value=20),
           st.integers(min_value=1, max_value=10))
    def test_count_formula(self, n, lookback, horizon):
        ws = make_windows(np.zeros(n), lookback, horizon)
        assert ws.count == max(0, n - lookback - horizon + 1)


class TestSynthetic:
    def test_sine_zeros_at_half_period(self):
        s = generate_synthetic("sine", 10, seed=0, period=10, amplitude=1.0)
        assert s.values[0] == 0.0
        assert abs(s.values[5]) < 1e-9

    def test_sine_period_below_two_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic("sine", 10, seed=0, period=1)

    @pytest.mark.parametrize("params,message", [
        ({"period": math.nan}, "sine period must be finite and >= 2, got nan"),
        ({"period": math.inf}, "sine period must be finite and >= 2, got inf"),
        ({"period": -math.inf}, "sine period must be finite and >= 2, got -inf"),
        ({"amplitude": math.nan}, "sine amplitude must be finite, got nan"),
        ({"amplitude": math.inf}, "sine amplitude must be finite, got inf"),
        ({"noise_sigma": -1.0}, "sine noise_sigma must be >= 0, got -1.0"),
        ({"noise_sigma": math.nan}, "sine noise_sigma must be >= 0, got nan"),
    ])
    def test_sine_parameter_out_of_range_named(self, params, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_synthetic("sine", 10, seed=0, **params)

    @pytest.mark.parametrize("n", [True, 40.0, "40"])
    def test_n_must_be_an_int(self, n):
        with pytest.raises(ValueError, match=f"^synthetic n must be an integer, got {n!r}$"):
            generate_synthetic("sine", n, seed=0)

    @pytest.mark.parametrize("kind,params,message", [
        ("ar1", {"alpha": True}, "synthetic alpha must be a number, got True"),
        ("ar1", {"alpha": "0.5"}, "synthetic alpha must be a number, got '0.5'"),
        ("sine", {"amplitude": [1.0]}, "synthetic amplitude must be a number, got [1.0]"),
    ])
    def test_parameters_must_be_numbers(self, kind, params, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_synthetic(kind, 40, seed=0, **params)

    def test_ar1_alpha_zero_mean(self):
        # plain white noise; LLN puts the sample mean near 0
        s = generate_synthetic("ar1", 10000, seed=123, alpha=0.0, sigma=1.0)
        assert abs(float(np.mean(s.values))) < 0.05

    def test_deterministic_for_fixed_seed(self):
        a = generate_synthetic("ar1", 50, seed=9, alpha=0.5, sigma=2.0)
        b = generate_synthetic("ar1", 50, seed=9, alpha=0.5, sigma=2.0)
        npt.assert_array_equal(a.values, b.values)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic("brownian", 10, seed=0)

    @pytest.mark.parametrize("n", [1, 2, 60])
    @pytest.mark.parametrize("alpha", [-0.9, 0.0, 0.5, 1.0, 1.2])
    @pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0, 2.5, 1e5])
    def test_ar1_matches_its_own_recursion_bit_for_bit(self, n, alpha, sigma):
        for seed in (0, 7):
            got = generate_synthetic("ar1", n, seed=seed, alpha=alpha, sigma=sigma).values
            assert got.tobytes() == ar1_loop(n, seed, alpha=alpha, sigma=sigma).tobytes()

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, 1e160, 1e-160])
    def test_ar1_sigma_that_does_not_square_exactly_rejected(self, sigma):
        with pytest.raises(ValueError, match="^ar1 sigma must be 0 or between about"):
            generate_synthetic("ar1", 10, seed=0, sigma=sigma)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_ar1_non_finite_alpha_named(self, alpha):
        with pytest.raises(ValueError, match=f"^ar1 alpha must be finite, got {alpha}$"):
            generate_synthetic("ar1", 10, seed=0, alpha=alpha)

    @pytest.mark.parametrize("kind,params,unread", [
        ("ar1", {"alpha": 0.5, "model": {"order": [1, 0, 0]}}, "model"),
        ("ar1", {"period": 7}, "period"),
        ("sine", {"period": 7, "alpha": 0.5, "sigma": 1.0}, "alpha, sigma"),
        ("seasonal_sarima", {"amplitude": 1.0}, "amplitude"),
    ])
    def test_parameter_the_kind_never_reads_rejected(self, kind, params, unread):
        with pytest.raises(ValueError, match=f"synthetic kind {kind} does not read {unread}$"):
            generate_synthetic(kind, 10, seed=0, **params)

    @pytest.mark.parametrize("given,missing", [
        ((), "spec and params"), (("spec",), "params"), (("params",), "spec")])
    def test_seasonal_sarima_without_its_model_names_what_is_missing(self, given, missing):
        from leancast.sarima import SarimaParams, SarimaSpec
        model = {"spec": SarimaSpec(p=1), "params": SarimaParams(alpha=(0.5,), sigma2=1.0)}
        with pytest.raises(ValueError, match=f"^synthetic kind seasonal_sarima needs {missing}$"):
            generate_synthetic("seasonal_sarima", 40, seed=0, **{key: model[key] for key in given})
