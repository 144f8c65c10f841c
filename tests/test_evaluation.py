import datetime as dt

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leancast.evaluation import (CSV_COLUMNS, EvalRow, ReportTable, evaluate,
                                 multistep_window_predictions,
                                 render_report, render_report_csv,
                                 render_report_text,
                                 rolling_one_step_predictions, rmse)
from leancast.forecasters import TrainedForecaster, predict_next
from leancast.neural import RecurrentNetwork
from leancast.forecasters import default_network_config
from leancast.sarima import SarimaFit, SarimaParams, SarimaSpec, rolling_test_rmse
from leancast.series import (DailySeries, IDENTITY_SCALER, chronological_split,
                             fit_scaler, generate_synthetic, make_windows)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def split_of(values, ratio=0.7, metric="synthetic"):
    series = DailySeries(start_date=dt.date(2018, 1, 1),
                         values=np.asarray(values, dtype=np.float64), metric=metric)
    return chronological_split(series, ratio)


def manual_sarima(spec, c=0.0, alpha=(), train_rmse=0.0):
    params = SarimaParams(c=c, alpha=alpha, theta=(0.0,) * spec.q,
                          phi=(0.0,) * spec.P, eta=(0.0,) * spec.Q, sigma2=1.0)
    fit = SarimaFit(spec=spec, params=params, residuals=np.array([]),
                    sse=0.0, converged=True, train_rmse=train_rmse)
    return TrainedForecaster("sarima", fit, IDENTITY_SCALER, {})


def zero_net_forecaster(kind):
    cfg = default_network_config(kind, layers=1, hidden=4, epochs=1)
    net = RecurrentNetwork(cfg, init="zeros")
    return TrainedForecaster(kind, net, IDENTITY_SCALER, {})


class TestRmse:
    def test_three_four_five(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.5355339, abs=1e-7)

    def test_singleton(self):
        assert rmse([0.0], [3.0]) == 3.0

    def test_identical_is_zero(self):
        assert rmse([1.5, 2.5], [1.5, 2.5]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])

    @given(st.lists(finite, min_size=1, max_size=20), st.floats(0.0, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_absolutely_homogeneous(self, values, k):
        a = np.array(values)
        b = np.roll(a, 1)
        assert rmse(a, b) == pytest.approx(rmse(b, a), rel=1e-12)
        npt.assert_allclose(rmse(k * a, k * b), k * rmse(a, b), rtol=1e-9, atol=1e-9)


class TestEvalRow:
    def test_negative_rmse_rejected(self):
        with pytest.raises(ValueError):
            EvalRow("sarima", "left", "post_count", 1.0, -0.5)
        with pytest.raises(ValueError):
            EvalRow("sarima", "left", "post_count", -1.0, 0.5)
        with pytest.raises(ValueError):
            EvalRow("multistep_14_5", None, "post_count", None, 1.0, (0.1, -0.2))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rmse_rejected(self, value):
        match = "an RMSE must be finite and non-negative"
        with pytest.raises(ValueError, match=match):
            EvalRow("sarima", "left", "post_count", 1.0, value)
        with pytest.raises(ValueError, match=match):
            EvalRow("sarima", "left", "post_count", value, 0.5)
        with pytest.raises(ValueError, match=match):
            EvalRow("multistep_14_5", None, "post_count", None, 1.0, (0.1, value, 0.3, 0.4, 0.5))

    @pytest.mark.parametrize("leaning,steps", [("left", (1.0, 2.0, 3.0)), (5, None)])
    def test_wrong_type_rejected(self, leaning, steps):
        # a 3-step row would render 8 cells under the 10-column header
        with pytest.raises(TypeError, match="a row has a value of the wrong type"):
            EvalRow("multistep_14_5", leaning, "post_count", None, 1.0, steps)

    def test_train_rmse_may_be_absent(self):
        row = EvalRow("multistep_14_5", None, "post_count", None, 1.0)
        assert row.train_rmse is None


class TestReportTable:
    def test_duplicate_cell_rejected(self):
        row = EvalRow("sarima", "left", "post_count", 1.0, 2.0)
        with pytest.raises(ValueError, match="duplicate"):
            ReportTable("twitter", "post_count", [row, row])

    def test_distinct_leanings_coexist(self):
        rows = [EvalRow("sarima", l, "post_count", 1.0, 2.0) for l in ("left", "right")]
        assert len(ReportTable("twitter", "post_count", rows).rows) == 2


class TestRenderCsv:
    def test_single_row_layout(self):
        table = ReportTable("twitter", "post_count",
                            [EvalRow("sarima", "left", "post_count", 10.5, 66.1)])
        assert render_report_csv([table]).splitlines()[1] == \
            "sarima,left,post_count,10.50,66.10,,,,,"

    def test_empty_report_is_header_only(self):
        assert render_report_csv([]) == ",".join(CSV_COLUMNS) + "\n"

    def test_rows_sort_by_model_then_leaning(self):
        scores = {"left": 66.10, "right": 31.29, "center": 70.15,
                  "left_leaning": 155.72, "right_leaning": 13.07}
        rows = [EvalRow("sarima", leaning, "post_count", 1.0, v)
                for leaning, v in scores.items()]
        lines = render_report_csv([ReportTable("twitter", "post_count", rows)]).splitlines()
        leanings = [line.split(",")[1] for line in lines[1:]]
        assert leanings == ["center", "left", "left_leaning", "right", "right_leaning"]
        assert lines[1].split(",")[4] == "70.15"
        assert lines[5].split(",")[4] == "13.07"

    def test_multistep_row_has_five_steps_and_no_train(self):
        row = EvalRow("multistep_14_5", None, "sentiment_mean", None, 1.0,
                      (0.1, 0.2, 0.3, 0.4, 0.5))
        line = render_report_csv([ReportTable("gab", "sentiment_mean", [row])]).splitlines()[1]
        assert line == "multistep_14_5,,sentiment_mean,,1.00,0.10,0.20,0.30,0.40,0.50"


class TestRenderText:
    def test_caption_and_missing_markers(self):
        row = EvalRow("multistep_14_5", None, "post_count", None, 1.0)
        text = render_report_text([ReportTable("gab", "post_count", [row])])
        assert "== gab / post_count ==" in text
        assert " -" in text

    def test_dispatch(self):
        table = ReportTable("twitter", "post_count",
                            [EvalRow("sarima", "left", "post_count", 1.0, 2.0)])
        assert render_report([table], "csv") != render_report([table], "text")
        with pytest.raises(ValueError):
            render_report([table], "html")


class TestRollingPredictions:
    # SARIMA is scored by sarima.rolling_test_rmse, which evaluate calls
    def test_random_walk_tracks_true_history(self):
        # alpha=1 predicts the previous observed value, so the rolling
        # evaluation must feed each test day the true day before it: its
        # RMSE is the persistence RMSE
        model = manual_sarima(SarimaSpec(1, 0, 0, 0, 0, 0, 0), alpha=(1.0,))
        split = split_of(np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]))
        persistence = np.concatenate([[split.train.values[-1]], split.test.values[:-1]])
        got = rolling_test_rmse(model.model, split.train.values, split.test.values)
        assert got == pytest.approx(rmse(persistence, split.test.values), rel=1e-12)
        assert got > 0.0

    def test_constant_model_is_flat(self):
        model = manual_sarima(SarimaSpec(0, 0, 0, 0, 0, 0, 0), c=2.0)
        split = split_of(np.arange(10.0))
        got = rolling_test_rmse(model.model, split.train.values, split.test.values)
        assert got == pytest.approx(rmse(np.full(3, 2.0), split.test.values), rel=1e-12)

    def test_sarima_kind_rejected(self):
        model = manual_sarima(SarimaSpec(0, 0, 0, 0, 0, 0, 0), c=2.0)
        with pytest.raises(ValueError, match="rolling_test_rmse"):
            rolling_one_step_predictions(model, split_of(np.arange(10.0)))

    def test_neural_kind_needs_a_lookback_of_training_history(self):
        split = split_of(np.arange(30.0), ratio=0.4)
        with pytest.raises(ValueError, match="need at least 14"):
            rolling_one_step_predictions(zero_net_forecaster("lstm_14day"), split)


class TestEvaluate:
    def test_sarima_row_uses_stored_train_rmse(self):
        model = manual_sarima(SarimaSpec(0, 0, 0, 0, 0, 0, 0), c=5.0, train_rmse=0.125)
        row = evaluate(model, split_of(np.full(30, 5.0)), leaning="left")
        assert row.model == "sarima"
        assert row.leaning == "left"
        assert row.metric == "synthetic"
        assert row.train_rmse == 0.125
        assert row.test_rmse == 0.0
        assert row.per_step_rmse is None

    def test_zero_network_rows_score_against_zero(self):
        split = split_of(np.arange(1.0, 41.0))
        row = evaluate(zero_net_forecaster("lstm_1day"), split, metric="post_count")
        train_targets = split.train.values[1:]
        assert row.train_rmse == pytest.approx(rmse(np.zeros_like(train_targets),
                                                    train_targets), rel=1e-12)
        assert row.test_rmse == pytest.approx(rmse(np.zeros_like(split.test.values),
                                                   split.test.values), rel=1e-12)
        assert row.metric == "post_count"

    def test_multistep_row_reports_per_step_and_pooled(self):
        split = split_of(np.arange(1.0, 121.0))
        row = evaluate(zero_net_forecaster("multistep_14_5"), split)
        assert row.train_rmse is None
        assert len(row.per_step_rmse) == 5
        windows = 36 - 14 - 5 + 1
        targets = np.stack([split.test.values[14 + i:14 + i + 5] for i in range(windows)])
        for k in range(5):
            assert row.per_step_rmse[k] == pytest.approx(
                rmse(np.zeros(windows), targets[:, k]), rel=1e-12)
        assert row.test_rmse == pytest.approx(
            rmse(np.zeros(windows * 5), targets.ravel()), rel=1e-12)

    def test_later_steps_degrade_for_trending_data(self):
        # predicting zeros against an increasing ramp: the k-th step target
        # is larger, so per-step RMSE must increase monotonically
        split = split_of(np.arange(1.0, 121.0))
        row = evaluate(zero_net_forecaster("multistep_14_5"), split)
        assert all(a < b for a, b in zip(row.per_step_rmse, row.per_step_rmse[1:]))

    def test_short_test_half_rejected(self):
        split = split_of(np.arange(40.0), ratio=0.8)
        with pytest.raises(ValueError, match="15"):
            evaluate(zero_net_forecaster("lstm_14day"), split)

    def test_multistep_needs_nineteen_test_points(self):
        split = split_of(np.arange(60.0), ratio=0.7)
        with pytest.raises(ValueError, match="19"):
            evaluate(zero_net_forecaster("multistep_14_5"), split)


class TestMultistepWindows:
    def test_count_and_shapes(self):
        model = zero_net_forecaster("multistep_14_5")
        preds, targets = multistep_window_predictions(model, np.arange(25.0))
        assert preds.shape == targets.shape == (7, 5)
        npt.assert_array_equal(preds, np.zeros((7, 5)))

    def test_too_short_names_the_minimum(self):
        with pytest.raises(ValueError, match="19"):
            multistep_window_predictions(zero_net_forecaster("multistep_14_5"),
                                         np.arange(10.0))


# -- batched evaluation against the per-row loops it replaced --------------


def random_net_forecaster(kind, split, **over):
    """Untrained but randomly initialised network: nontrivial outputs."""
    over.setdefault("layers", 2)
    over.setdefault("hidden", 5)
    cfg = default_network_config(kind, seed=17, epochs=1, **over)
    return TrainedForecaster(kind, RecurrentNetwork(cfg), fit_scaler(split.train.values), {})


def per_row_outputs(net, scaled_window):
    """One batch-1 forward, laid out flat or as a sequence."""
    if net.config.input_size == len(scaled_window):
        x = scaled_window[None, None, :]
    else:
        x = scaled_window[None, :, None]
    outputs, _ = net.forward(x)
    return float(outputs[0, -1, 0])


def oracle_rolling(model, split):
    """Each test day predicted on its own from the true history before it."""
    history = np.concatenate([split.train.values, split.test.values])
    n_train = len(split.train.values)
    preds = np.empty(len(split.test.values))
    for i in range(len(preds)):
        tail = model.scaler.apply(history[:n_train + i][-model.lookback:])
        preds[i] = model.scaler.invert(np.array([per_row_outputs(model.model, tail)]))[0]
    return preds


def oracle_decode(net, scaled_window, horizon):
    """Batch-1 autoregressive decoding, one window at a time."""
    seq = list(scaled_window)
    for _ in range(horizon):
        outputs, _ = net.forward(np.array(seq)[None, :, None])
        seq.append(float(outputs[0, -1, 0]))
    return np.array(seq[len(scaled_window):])


def oracle_multistep(model, test_values):
    windows = make_windows(test_values, model.lookback, model.horizon)
    preds = np.stack([
        model.scaler.invert(oracle_decode(model.model, model.scaler.apply(row),
                                          model.horizon))
        for row in windows.inputs])
    return preds, windows.targets


def sine_split(n=90):
    values = generate_synthetic("sine", n, seed=5, period=7, amplitude=10.0,
                                noise_sigma=2.0).values + 20.0
    return split_of(values, ratio=0.6)


ONE_STEP_CASES = [
    ("lstm_1day", {}),
    ("lstm_14day", {}),
    ("gru_14day", {}),
    ("lstm_14day", {"input_size": 1}),
    ("gru_14day", {"input_size": 1}),
    ("gru_14day", {"layers": 4, "dropout": 0.4}),
]


class TestBatchedEvaluationMatchesPerRowLoops:
    @pytest.mark.parametrize("kind,over", ONE_STEP_CASES)
    def test_rolling_predictions(self, kind, over):
        split = sine_split()
        model = random_net_forecaster(kind, split, **over)
        batched = rolling_one_step_predictions(model, split)
        oracle = oracle_rolling(model, split)
        assert batched.shape == oracle.shape == (36,)
        npt.assert_allclose(batched, oracle, rtol=1e-12, atol=0)
        assert np.ptp(oracle) > 0.0

    @pytest.mark.parametrize("kind,over", ONE_STEP_CASES)
    def test_evaluate_rmses(self, kind, over):
        split = sine_split()
        model = random_net_forecaster(kind, split, **over)
        row = evaluate(model, split)
        train = split.train.values
        train_preds = [model.scaler.invert(np.array([per_row_outputs(
            model.model, model.scaler.apply(train[i:i + model.lookback]))]))[0]
            for i in range(len(train) - model.lookback)]
        assert row.train_rmse == pytest.approx(
            rmse(train_preds, train[model.lookback:]), rel=1e-12, abs=0)
        assert row.test_rmse == pytest.approx(
            rmse(oracle_rolling(model, split), split.test.values), rel=1e-12, abs=0)

    def test_predict_next_is_the_last_rolling_step(self):
        split = sine_split()
        model = random_net_forecaster("lstm_14day", split, input_size=1)
        history = np.concatenate([split.train.values, split.test.values[:-1]])
        assert predict_next(model, history) == pytest.approx(
            rolling_one_step_predictions(model, split)[-1], rel=1e-12, abs=0)

    @pytest.mark.parametrize("layers", [1, 8])
    def test_multistep_windows(self, layers):
        split = sine_split(n=120)
        model = random_net_forecaster("multistep_14_5", split, layers=layers, hidden=8)
        preds, targets = multistep_window_predictions(model, split.test.values)
        oracle_preds, oracle_targets = oracle_multistep(model, split.test.values)
        assert preds.shape == (30, 5)
        npt.assert_array_equal(targets, oracle_targets)
        npt.assert_allclose(preds, oracle_preds, rtol=1e-12, atol=0)
        assert np.ptp(oracle_preds) > 0.0
