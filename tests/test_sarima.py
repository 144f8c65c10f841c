import json
import time
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leancast import sarima
from leancast.sarima import (GridSearchError, GridSpec, SarimaFit, SarimaParams,
                             SarimaSpec, css_residuals, difference, fit, forecast,
                             from_doc, grid_search, invert_difference,
                             rolling_test_rmse, simulate, to_doc)
from leancast.series import generate_synthetic

NONSEASONAL = SarimaSpec(0, 0, 0, 0, 0, 0, 0)


def zero_params(spec, c=0.0, sigma2=1.0):
    return SarimaParams(c=c, alpha=(0.0,) * spec.p, theta=(0.0,) * spec.q,
                        phi=(0.0,) * spec.P, eta=(0.0,) * spec.Q, sigma2=sigma2)


def manual_fit(spec, params):
    # hand-built frozen model for forecasting tests
    return SarimaFit(spec=spec, params=params, sse=0.0, converged=True)


def oracle_residuals(w, spec, params):
    """The per-step residual loop the shared recursion replaced."""
    alpha, theta = np.asarray(params.alpha), np.asarray(params.theta)
    phi, eta = np.asarray(params.phi), np.asarray(params.eta)
    p, q, P, Q, s = spec.p, spec.q, spec.P, spec.Q, spec.s
    eps = np.zeros(len(w))
    for t in range(spec.burn_in, len(w)):
        acc = params.c
        if p:
            acc += alpha @ w[t - p:t][::-1]
        if q:
            window = eps[max(0, t - q):t][::-1]
            acc += theta[:len(window)] @ window
        if P:
            acc += phi @ w[t - s * np.arange(1, P + 1)]
        if Q:
            idx = t - s * np.arange(1, Q + 1)
            ok = idx >= 0
            if ok.any():
                acc += eta[ok] @ eps[idx[ok]]
        eps[t] = w[t] - acc
    return eps


def _masked_seasonal(coefs, values, t, s):
    idx = t - s * np.arange(1, len(coefs) + 1)
    ok = idx >= 0
    return coefs[ok] @ values[idx[ok]] if ok.any() else 0.0


def oracle_forecast(spec, params, history, horizon):
    """The forecast loop the shared recursion replaced."""
    w, ctx = difference(history, spec.d, spec.D, spec.s)
    eps = oracle_residuals(w, spec, params)
    if horizon == 0:
        return np.empty(0)
    alpha, theta = np.asarray(params.alpha), np.asarray(params.theta)
    phi, eta = np.asarray(params.phi), np.asarray(params.eta)
    p, q, s = spec.p, spec.q, spec.s
    w_ext = np.concatenate([w, np.zeros(horizon)])
    eps_ext = np.concatenate([eps, np.zeros(horizon)])
    for t in range(len(w), len(w) + horizon):
        acc = params.c
        if p:
            acc += alpha @ w_ext[t - p:t][::-1]
        if q:
            window = eps_ext[max(0, t - q):t][::-1]
            acc += theta[:len(window)] @ window
        if spec.P:
            acc += _masked_seasonal(phi, w_ext, t, s)
        if spec.Q:
            acc += _masked_seasonal(eta, eps_ext, t, s)
        w_ext[t] = acc
    return invert_difference(w_ext, ctx)[-horizon:]


def oracle_simulate(spec, params, n, rng):
    """The simulation loop and integration loops the shared recursion replaced."""
    alpha, theta = np.asarray(params.alpha), np.asarray(params.theta)
    phi, eta = np.asarray(params.phi), np.asarray(params.eta)
    p, q, s = spec.p, spec.q, spec.s
    eps = rng.normal(0.0, np.sqrt(params.sigma2), n)
    w = np.zeros(n)
    for t in range(n):
        acc = params.c
        if p:
            window = w[max(0, t - p):t][::-1]
            acc += alpha[:len(window)] @ window
        if q:
            window = eps[max(0, t - q):t][::-1]
            acc += theta[:len(window)] @ window
        if spec.P:
            acc += _masked_seasonal(phi, w, t, s)
        if spec.Q:
            acc += _masked_seasonal(eta, eps, t, s)
        w[t] = acc + eps[t]
    for _ in range(spec.D):
        out = np.empty(n)
        for t in range(n):
            out[t] = w[t] + (out[t - s] if t >= s else 0.0)
        w = out
    for _ in range(spec.d):
        w = np.cumsum(w)
    return w


def oracle_rolling_rmse(spec, params, train, test):
    """One forecast per test day on the growing true history."""
    history = list(train)
    errors = np.empty(len(test))
    for i, actual in enumerate(test):
        errors[i] = oracle_forecast(spec, params, np.asarray(history), 1)[0] - actual
        history.append(actual)
    return float(np.sqrt(np.mean(errors ** 2)))


def assert_near_oracle(got, want):
    """Equal to within 1e-12 of want's largest absolute value: the same
    terms, summed in another order."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    err = np.max(np.abs(got - want), initial=0.0)
    assert err <= 1e-12 * np.max(np.abs(want), initial=0.0), err


def random_params(spec, rng):
    draw = lambda k: rng.uniform(-0.6, 0.6, k)
    return SarimaParams(c=rng.normal(), alpha=draw(spec.p), theta=draw(spec.q),
                        phi=draw(spec.P), eta=draw(spec.Q), sigma2=rng.uniform(0.5, 2.0))


# AR, MA, seasonal AR and MA alone and together, with and without d and D
ORACLE_SPECS = [
    SarimaSpec(1, 0, 0, 0, 0, 0, 0),
    SarimaSpec(0, 0, 3, 0, 0, 0, 0),
    SarimaSpec(2, 1, 2, 0, 0, 0, 0),
    SarimaSpec(0, 1, 0, 2, 0, 0, 4),
    SarimaSpec(0, 0, 0, 0, 1, 2, 3),
    SarimaSpec(3, 0, 0, 2, 0, 1, 5),
    SarimaSpec(2, 1, 2, 1, 1, 1, 7),
    SarimaSpec(2, 2, 1, 3, 1, 2, 3),
    SarimaSpec(9, 0, 10, 2, 1, 1, 12),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda sp: str(sp.as_tuple()))
def test_shared_recursion_matches_the_loops_it_replaced(spec):
    rng = np.random.default_rng(sum(spec.as_tuple()))
    span = spec.d + spec.D * spec.s
    for _ in range(3):
        params = random_params(spec, rng)
        # the shortest history leaves the MA lags reaching before the start
        for n in (span + spec.burn_in + 1, span + spec.burn_in + 4, span + 60):
            values = rng.normal(size=n)
            w, _ = difference(values, spec.d, spec.D, spec.s)
            eps, sse = css_residuals(w, spec, params)
            assert_near_oracle(eps, oracle_residuals(w, spec, params)[spec.burn_in:])
            assert sse == float(eps @ eps)
            model = manual_fit(spec, params)
            for h in (0, 1, 3, 20):
                assert_near_oracle(forecast(model, values, h),
                                   oracle_forecast(spec, params, values, h))
            for n_test in (1, 7):
                test = rng.normal(size=n_test)
                assert_near_oracle(rolling_test_rmse(model, values, test),
                                   oracle_rolling_rmse(spec, params, values, test))
        for n in (1, 5, 40):
            seed = int(rng.integers(1 << 30))
            assert_near_oracle(simulate(spec, params, n, np.random.default_rng(seed)),
                               oracle_simulate(spec, params, n, np.random.default_rng(seed)))


def param_vector(params):
    return np.concatenate([[params.c], params.alpha, params.theta, params.phi, params.eta])


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda sp: str(sp.as_tuple()))
def test_jacobian_matches_central_differences(spec):
    rng = np.random.default_rng(100 + sum(spec.as_tuple()))
    values = rng.normal(size=spec.d + spec.D * spec.s + spec.burn_in + 40)
    w, _ = difference(values, spec.d, spec.D, spec.s)
    params = random_params(spec, rng)
    vec = param_vector(params)
    residuals, _ = css_residuals(w, spec, params)
    minus_jac = sarima._neg_jacobian(w, residuals, spec, params)
    h = 1e-6
    central = np.empty_like(minus_jac)
    for m in range(len(vec)):
        up, down = vec.copy(), vec.copy()
        up[m] += h
        down[m] -= h
        central[:, m] = (css_residuals(w, spec, sarima._unpack(up, spec))[0]
                         - css_residuals(w, spec, sarima._unpack(down, spec))[0]) / (2 * h)
    assert np.max(np.abs(-minus_jac - central)) <= 1e-6 * np.max(np.abs(central))


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda sp: str(sp.as_tuple()))
def test_two_dimensional_pass_matches_column_passes(spec):
    # the Jacobian runs k regressor columns through the recursion at once
    rng = np.random.default_rng(200 + sum(spec.as_tuple()))
    for lags in (spec.ar_lags, spec.ma_lags):
        coeffs = rng.uniform(-0.6, 0.6, len(lags))
        x = rng.normal(size=(spec.burn_in + 30, 4))
        for start in (0, 5):    # rows before start pass through unchanged
            got = sarima._recurse(x, coeffs, lags, start)
            npt.assert_array_equal(got[:start], x[:start])
            for col in range(x.shape[1]):
                assert_near_oracle(got[:, col], sarima._recurse(x[:, col], coeffs, lags, start))


@pytest.mark.parametrize("spec", [sp for sp in ORACLE_SPECS if sp.q == sp.Q == 0],
                         ids=lambda sp: str(sp.as_tuple()))
def test_ar_only_fit_is_the_least_squares_optimum(spec):
    # without MA terms the CSS is linear least squares on the lagged design
    values = generate_synthetic("ar1", 200, seed=9, alpha=0.6, sigma=1.0).values
    w, _ = difference(values, spec.d, spec.D, spec.s)
    lags = list(range(1, spec.p + 1)) + [spec.s * n for n in range(1, spec.P + 1)]
    rows = np.arange(spec.burn_in, len(w))
    design = np.column_stack([np.ones(len(rows))] + [w[rows - lag] for lag in lags])
    optimum = np.linalg.lstsq(design, w[rows], rcond=None)[0]
    fitted = fit(values, spec)
    assert fitted.converged
    npt.assert_allclose(param_vector(fitted.params), optimum, rtol=1e-10)


class TestSpec:
    def test_seasonal_orders_need_period(self):
        with pytest.raises(ValueError):
            SarimaSpec(1, 0, 0, 1, 0, 0, 0)
        with pytest.raises(ValueError):
            SarimaSpec(0, 0, 0, 0, 1, 0, 1)

    def test_burn_in(self):
        assert SarimaSpec(9, 0, 10, 2, 1, 1, 12).burn_in == 24
        assert SarimaSpec(9, 0, 0, 0, 0, 0, 0).burn_in == 9

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            SarimaSpec(-1, 0, 0, 0, 0, 0, 0)


class TestDifference:
    def test_first_difference(self):
        w, _ = difference(np.array([1.0, 3.0, 6.0]), 1, 0, 0)
        npt.assert_array_equal(w, [2.0, 3.0])

    def test_seasonal_lag2(self):
        w, _ = difference(np.array([1.0, 2.0, 3.0, 4.0]), 0, 1, 2)
        npt.assert_array_equal(w, [2.0, 2.0])

    def test_output_length(self):
        values = np.arange(30.0)
        w, _ = difference(values, 2, 1, 7)
        assert len(w) == 30 - 2 - 7

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            difference(np.array([1.0, 2.0]), 1, 1, 2)

    def test_round_trip_example(self):
        values = np.array([1.5, -2.0, 0.25, 7.0, 3.5, -1.0, 2.0, 8.0])
        for d, D, s in [(1, 0, 0), (2, 0, 0), (0, 1, 2), (1, 1, 3), (0, 0, 0)]:
            w, ctx = difference(values, d, D, s)
            npt.assert_array_equal(invert_difference(w, ctx), values)

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=16, max_size=40),
           st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=1),
           st.sampled_from([0, 2, 7]))
    def test_round_trip_is_bitwise(self, values, d, D, s):
        if D > 0 and s == 0:
            s = 2
        values = np.asarray(values)
        w, ctx = difference(values, d, D, s)
        npt.assert_array_equal(invert_difference(w, ctx), values)

    def test_inversion_extends_forecasts(self):
        # appended entries integrate back through every stage
        values = np.array([1.0, 4.0, 9.0, 16.0, 25.0, 36.0])
        w, ctx = difference(values, 1, 0, 0)
        extended = np.concatenate([w, [13.0]])        # next first-difference
        restored = invert_difference(extended, ctx)
        npt.assert_array_equal(restored[:6], values)
        assert restored[6] == 36.0 + 13.0


class TestCssResiduals:
    def test_forced_arithmetic(self):
        spec = SarimaSpec(1, 0, 0, 0, 0, 0, 0)
        params = SarimaParams(c=0.0, alpha=(0.5,), theta=(), phi=(), eta=(),
                              sigma2=1.0)
        eps, sse = css_residuals(np.array([1.0, 1.0, 1.0]), spec, params)
        npt.assert_array_equal(eps, [0.5, 0.5])
        assert sse == 0.5

    def test_zero_model_returns_series_tail(self):
        w = np.array([3.0, -1.0, 2.0, 5.0])
        eps, sse = css_residuals(w, NONSEASONAL, zero_params(NONSEASONAL))
        npt.assert_array_equal(eps, w)
        assert sse == float(np.sum(w * w))

    def test_true_alpha_beats_zero(self):
        series = generate_synthetic("ar1", 300, seed=11, alpha=0.8, sigma=1.0)
        spec = SarimaSpec(1, 0, 0, 0, 0, 0, 0)
        good = SarimaParams(c=0.0, alpha=(0.8,), theta=(), phi=(), eta=(), sigma2=1.0)
        bad = SarimaParams(c=0.0, alpha=(0.0,), theta=(), phi=(), eta=(), sigma2=1.0)
        _, sse_good = css_residuals(series.values, spec, good)
        _, sse_bad = css_residuals(series.values, spec, bad)
        assert sse_good < sse_bad

    def test_seasonal_term_enters_prediction(self):
        # one seasonal AR lag at s=2: y_hat_t = phi * y_{t-2}
        spec = SarimaSpec(0, 0, 0, 1, 0, 0, 2)
        params = SarimaParams(c=0.0, alpha=(), theta=(), phi=(0.5,), eta=(),
                              sigma2=1.0)
        eps, _ = css_residuals(np.array([2.0, 4.0, 6.0, 8.0]), spec, params)
        npt.assert_allclose(eps, [6.0 - 1.0, 8.0 - 2.0])


class TestFit:
    def test_overflowing_sum_of_squares_is_named(self):
        # finite values up to ~5e300, whose squares overflow: the fit stops
        # at the zero model's SSE, before LAPACK sees a non-finite matrix
        values = 2.0 ** np.arange(1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"zero model's sum of squares overflows \(inf\)"):
                fit(values, SarimaSpec(1, 0, 0, 0, 0, 0, 0), seed=0)

    def test_white_noise_alpha_small(self):
        series = generate_synthetic("ar1", 500, seed=3, alpha=0.0, sigma=1.0)
        f = fit(series.values, SarimaSpec(1, 0, 0, 0, 0, 0, 0), seed=0)
        assert abs(f.params.alpha[0]) < 0.15

    def test_ar1_recovery(self):
        series = generate_synthetic("ar1", 500, seed=17, alpha=0.8, sigma=1.0)
        f = fit(series.values, SarimaSpec(1, 0, 0, 0, 0, 0, 0), seed=0)
        assert 0.7 <= f.params.alpha[0] <= 0.9

    def test_constant_series_constant_model(self):
        f = fit(np.full(40, 5.0), NONSEASONAL, seed=0)
        assert abs(f.params.c - 5.0) < 1e-4
        assert f.sse < 1e-6

    def test_never_worse_than_zero_model(self):
        series = generate_synthetic("ar1", 120, seed=5, alpha=0.5, sigma=2.0)
        spec = SarimaSpec(2, 0, 1, 0, 0, 0, 0)
        f = fit(series.values, spec, seed=0)
        _, zero_sse = css_residuals(series.values, spec, zero_params(spec))
        assert f.sse <= zero_sse

    def test_sigma2_matches_sse(self):
        series = generate_synthetic("ar1", 200, seed=8, alpha=0.6, sigma=1.0)
        f = fit(series.values, SarimaSpec(1, 0, 0, 0, 0, 0, 0), seed=0)
        n_eval = len(css_residuals(series.values, f.spec, f.params)[0])
        assert n_eval == 199    # 200 values less the burn-in of one
        npt.assert_allclose(f.params.sigma2, f.sse / n_eval, rtol=1e-12)
        npt.assert_allclose(f.train_rmse ** 2 * n_eval, f.sse, rtol=1e-12)
        # derived from sigma2, it equals the RMSE of the evaluated residuals bit for bit
        assert f.train_rmse == float(np.sqrt(f.sse / n_eval))

    def test_published_spec_fits_quickly_below_the_zero_model(self):
        spec = SarimaSpec(9, 0, 10, 2, 1, 1, 12)   # twitter-posts left
        values = generate_synthetic("sine", 84, seed=3, period=7, amplitude=5.0,
                                    noise_sigma=2.0).values
        started = time.monotonic()
        f = fit(values, spec)
        assert time.monotonic() - started < 2.0
        w, _ = difference(values, spec.d, spec.D, spec.s)
        _, zero_sse = css_residuals(w, spec, zero_params(spec))
        assert f.sse < zero_sse
        # 24 coefficients against 48 residuals: the SSE still falls at MAX_ITER
        assert not f.converged

    def test_converged_comes_from_the_stop_rule(self, monkeypatch):
        values = generate_synthetic("ar1", 300, seed=12, alpha=0.5, sigma=1.0).values
        spec = SarimaSpec(1, 0, 1, 0, 0, 0, 0)
        assert fit(values, spec).converged           # an accepted step gained < SSE_TOL
        exact = fit(np.zeros(30), NONSEASONAL)       # no step lowers an sse of 0
        assert exact.converged and exact.params.c == 0.0
        monkeypatch.setattr(sarima, "MAX_ITER", 1)
        assert not fit(values, spec).converged       # the iteration cap came first
        monkeypatch.setattr(sarima, "_neg_jacobian", lambda *args: np.full((299, 3), np.inf))
        assert not fit(values, spec).converged       # an overflowed Jacobian stops the fit

    def test_overflowing_trial_step_is_rejected_quietly(self, monkeypatch):
        values = generate_synthetic("ar1", 200, seed=1, alpha=0.99, sigma=1.0).values
        sses = []

        def recording(w, spec, params):
            eps, sse = css_residuals(w, spec, params)
            sses.append(sse)
            return eps, sse

        monkeypatch.setattr(sarima, "css_residuals", recording)
        monkeypatch.setattr(sarima, "MAX_ITER", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f = fit(values, SarimaSpec(9, 0, 10, 2, 1, 1, 12))
        assert not np.isfinite(sses[1])      # the first trial step overflowed
        assert np.isfinite(f.sse) and f.sse < sses[0]

    def test_non_finite_input_rejected(self):
        values = np.ones(50)
        values[10] = np.nan
        with pytest.raises(ValueError):
            fit(values, NONSEASONAL, seed=0)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            fit(np.ones(5), SarimaSpec(2, 0, 2, 0, 0, 0, 0), seed=0)


class TestForecast:
    def test_constant_mean_model(self):
        f = manual_fit(NONSEASONAL, zero_params(NONSEASONAL, c=2.0))
        npt.assert_array_equal(forecast(f, np.array([1.0, 5.0, 3.0]), 3),
                               [2.0, 2.0, 2.0])

    def test_random_walk_stays_flat(self):
        spec = SarimaSpec(0, 1, 0, 0, 0, 0, 0)
        f = manual_fit(spec, zero_params(spec))
        history = np.array([2.0, 4.0, 7.0, 10.0])
        npt.assert_array_equal(forecast(f, history, 4), [10.0] * 4)

    def test_ar1_one_step_matches_hand_rule(self):
        series = generate_synthetic("ar1", 300, seed=2, alpha=0.7, sigma=1.0)
        f = fit(series.values, SarimaSpec(1, 0, 0, 0, 0, 0, 0), seed=0)
        got = forecast(f, series.values, 1)[0]
        want = f.params.c + f.params.alpha[0] * series.values[-1]
        npt.assert_allclose(got, want, rtol=1e-12)

    def test_h_zero_empty(self):
        f = manual_fit(NONSEASONAL, zero_params(NONSEASONAL))
        assert len(forecast(f, np.arange(10.0), 0)) == 0

    def test_output_length_is_h(self):
        f = manual_fit(NONSEASONAL, zero_params(NONSEASONAL, c=1.0))
        for h in (1, 2, 7):
            assert len(forecast(f, np.arange(10.0), h)) == h


class TestRollingTestRmse:
    def test_perfect_model_is_zero(self):
        train = np.full(30, 5.0)
        f = fit(train, NONSEASONAL, seed=0)
        assert rolling_test_rmse(f, train, np.full(10, 5.0)) < 1e-4

    def test_forced_arithmetic(self):
        f = manual_fit(NONSEASONAL, zero_params(NONSEASONAL))
        got = rolling_test_rmse(f, np.zeros(20), np.array([3.0, 4.0]))
        npt.assert_allclose(got, np.sqrt(12.5), rtol=1e-12)

    def test_white_noise_mean_only_near_sigma(self):
        series = generate_synthetic("ar1", 1000, seed=44, alpha=0.0, sigma=1.0)
        train, test = series.values[:700], series.values[700:]
        f = fit(train, NONSEASONAL, seed=0)
        got = rolling_test_rmse(f, train, test)
        assert abs(got - 1.0) < 0.1

    def test_empty_test_rejected(self):
        f = manual_fit(NONSEASONAL, zero_params(NONSEASONAL))
        with pytest.raises(ValueError):
            rolling_test_rmse(f, np.zeros(10), np.array([]))

    def test_train_shorter_than_burn_in_rejected(self):
        # differenced train length 2 < burn_in + 1 = 3, as forecast(train) rejects
        spec = SarimaSpec(2, 1, 0, 0, 0, 0, 0)
        f = manual_fit(spec, zero_params(spec))
        with pytest.raises(ValueError, match="need at least 3"):
            forecast(f, np.arange(3.0), 1)
        with pytest.raises(ValueError, match="need at least 3"):
            rolling_test_rmse(f, np.arange(3.0), np.arange(5.0))


class TestGridSearch:
    def test_singleton_grid(self):
        series = generate_synthetic("ar1", 80, seed=1, alpha=0.5, sigma=1.0)
        grid = GridSpec(p=(1,), d=(0,), q=(0,), P=(0,), D=(0,), Q=(0,), s=(0,))
        result = grid_search(series.values, grid, seed=0)
        assert result.spec == SarimaSpec(1, 0, 0, 0, 0, 0, 0)

    def test_tie_breaks_to_fewer_coefficients(self, monkeypatch):
        calls = []

        def fake_fit(values, spec, seed=0):
            calls.append(spec)
            return manual_fit(spec, zero_params(spec))

        monkeypatch.setattr(sarima, "fit", fake_fit)
        monkeypatch.setattr(sarima, "rolling_test_rmse", lambda f, tr, te: 1.0)
        grid = GridSpec(p=(0, 2), d=(0,), q=(0,), P=(0,), D=(0,), Q=(0,), s=(0,))
        result = grid_search(np.arange(50.0), grid, seed=0)
        assert result.spec == SarimaSpec(0, 0, 0, 0, 0, 0, 0)

    def test_candidates_record_whether_their_fit_converged(self, monkeypatch):
        def fake_fit(values, spec, seed=0):
            if spec.p == 2:
                raise ValueError("too few points")
            return SarimaFit(spec=spec, params=zero_params(spec), sse=1.0,
                             converged=spec.p == 0)

        monkeypatch.setattr(sarima, "fit", fake_fit)
        monkeypatch.setattr(sarima, "rolling_test_rmse", lambda f, tr, te: 1.0)
        grid = GridSpec(p=(0, 1, 2), d=(0,), q=(0,), P=(0,), D=(0,), Q=(0,), s=(0,))
        result = grid_search(np.arange(50.0), grid, seed=0)
        assert [(c.spec.p, c.score, c.converged, c.error) for c in result.candidates] == [
            (0, 1.0, True, None), (1, 1.0, False, None), (2, None, None, "too few points")]

    def test_winner_score_is_minimal(self):
        series = generate_synthetic("ar1", 100, seed=6, alpha=0.8, sigma=1.0)
        grid = GridSpec(p=(0, 1), d=(0,), q=(0, 1), P=(0,), D=(0,), Q=(0,), s=(0,))
        result = grid_search(series.values, grid, seed=0)
        scores = [c.score for c in result.candidates if c.score is not None]
        winner_scores = [c.score for c in result.candidates
                         if c.spec == result.spec and c.score is not None]
        assert min(scores) == min(winner_scores)

    def test_aic_selection_runs(self):
        series = generate_synthetic("ar1", 100, seed=6, alpha=0.8, sigma=1.0)
        grid = GridSpec(p=(0, 1), d=(0,), q=(0,), P=(0,), D=(0,), Q=(0,), s=(0,),
                        selection="aic")
        result = grid_search(series.values, grid, seed=0)
        assert result.spec.p == 1    # AR structure should be detected

    def test_aic_counts_the_evaluated_residuals(self):
        values = generate_synthetic("sine", 80, seed=2, period=7, amplitude=3.0,
                                    noise_sigma=1.0).values
        grid = GridSpec(p=(0, 2), d=(0, 1), q=(0, 1), P=(0, 1), D=(0, 1), Q=(0,), s=(7,),
                        selection="aic")
        result = grid_search(values, grid)
        for cand in result.candidates:
            spec = cand.spec
            f = fit(values, spec)
            w, _ = difference(values, spec.d, spec.D, spec.s)
            n_eval = len(css_residuals(w, spec, f.params)[0])
            want = 2.0 * (1 + spec.n_coefficients) + n_eval * np.log(f.sse / n_eval)
            assert cand.score == float(want), spec
        assert result.spec is result.fit.spec

    def test_nonseasonal_candidates_deduplicated(self):
        grid = GridSpec(p=(1,), d=(0,), q=(0,), P=(0, 1), D=(0,), Q=(0,), s=(0, 7))
        specs = grid.candidates()
        # s=0 collapses (P,D,Q,s) to zero; duplicates must not survive
        assert len(specs) == len(set(specs))
        assert SarimaSpec(1, 0, 0, 0, 0, 0, 0) in specs
        assert SarimaSpec(1, 0, 0, 1, 0, 0, 7) in specs
        assert SarimaSpec(1, 0, 0, 0, 0, 0, 7) not in specs

    def test_all_failures_raise_with_diagnostics(self):
        grid = GridSpec(p=(3,), d=(0,), q=(3,), P=(0,), D=(0,), Q=(0,), s=(0,))
        with pytest.raises(GridSearchError) as exc_info:
            grid_search(np.arange(8.0), grid, seed=0)
        assert exc_info.value.diagnostics

    def test_from_doc_intervals_and_sets(self):
        grid = GridSpec.from_doc(
            {"p": [0, 2], "q": {"values": [1, 3]}, "s": {"values": [0, 7]},
             "P": 1, "selection": "holdout_rmse"})
        assert grid.p == (0, 1, 2)
        assert grid.q == (1, 3)
        assert grid.s == (0, 7)
        assert grid.P == (1,)

    @pytest.mark.parametrize("doc,message", [
        ({"bogus": [0, 1]}, "unknown grid key 'bogus'"),
        ('{"p": [0, 1]}', "a grid must be an object"),
        # a candidate set is a JSON list, not a number, a string of digits or an object
        ({"p": {"values": 5}}, "grid values for p must be a JSON list, got 5"),
        ({"p": {"values": "12"}}, "grid values for p must be a JSON list, got '12'"),
        ({"q": {"values": {"values": [1]}}}, "grid values for q must be a JSON list"),
    ])
    def test_from_doc_rejects(self, doc, message):
        with pytest.raises(ValueError, match=message):
            GridSpec.from_doc(doc)


class TestSimulate:
    def test_matches_ar1_generator(self):
        # the seasonal simulator collapses to the plain AR(1) recursion
        spec = SarimaSpec(1, 0, 0, 0, 0, 0, 0)
        params = SarimaParams(c=0.0, alpha=(0.8,), theta=(), phi=(), eta=(),
                              sigma2=1.0)
        rng = np.random.default_rng(77)
        sim = simulate(spec, params, 100, rng)
        ref = generate_synthetic("ar1", 100, seed=77, alpha=0.8, sigma=1.0)
        npt.assert_allclose(sim, ref.values, rtol=1e-12)

    def test_differencing_integrates(self):
        spec = SarimaSpec(0, 1, 0, 0, 0, 0, 0)
        params = SarimaParams(c=1.0, alpha=(), theta=(), phi=(), eta=(),
                              sigma2=0.0)
        rng = np.random.default_rng(0)
        sim = simulate(spec, params, 5, rng)
        # zero noise: differenced series is constant 1, integral is a ramp
        npt.assert_allclose(sim, [1.0, 2.0, 3.0, 4.0, 5.0])


class TestModelDoc:
    def test_round_trip_through_json_text(self):
        spec = SarimaSpec(2, 1, 1, 1, 0, 1, 7)
        params = SarimaParams(c=0.5, alpha=(0.3, -0.2), theta=(0.1,),
                              phi=(0.4,), eta=(-0.1,), sigma2=2.5)
        spec2, params2 = from_doc(json.loads(json.dumps(to_doc(spec, params))))
        assert spec2 == spec
        assert params2 == params

    def test_wire_format_fields(self):
        doc = to_doc(SarimaSpec(1, 0, 0, 0, 0, 0, 0),
                     zero_params(SarimaSpec(1, 0, 0, 0, 0, 0, 0)))
        assert doc["order"] == [1, 0, 0]
        assert doc["seasonal"] == [0, 0, 0, 0]
        assert set(doc) == {"order", "seasonal", "c", "alpha", "theta", "phi",
                            "eta", "sigma2"}
