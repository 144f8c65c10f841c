import datetime as dt
import json
import re

import numpy as np
import numpy.testing as npt
import pytest

from leancast import sarima
from leancast.forecasters import (KINDS, MultistepEpochLoss, TrainedForecaster,
                                  decode_multistep, default_network_config,
                                  fit_forecaster, forecast_multistep,
                                  forecaster_from_json, forecaster_to_json,
                                  kind_horizon, kind_lookback, multistep_loss,
                                  multistep_positions, predict_next,
                                  teacher_forced_inputs,
                                  train_multistep_teacher_forced)
from leancast.neural import NetworkConfig, RecurrentNetwork
from leancast.presets import FALLBACK_GRID, PRESETS, get_preset
from leancast.sarima import (GridSpec, SarimaFit, SarimaParams, SarimaSpec)
from leancast.series import (DailySeries, IDENTITY_SCALER, ScalerState,
                             chronological_split, generate_synthetic,
                             make_windows)


def split_of(values, ratio=0.7):
    series = DailySeries(start_date=dt.date(2018, 1, 1),
                         values=np.asarray(values, dtype=np.float64),
                         metric="synthetic")
    return chronological_split(series, ratio)


def ar1_split(n=120, seed=3, ratio=0.7):
    return split_of(generate_synthetic("ar1", n, seed=seed, alpha=0.8, sigma=1.0).values,
                    ratio)


def tiny_config(kind, **over):
    over.setdefault("layers", 1)
    over.setdefault("hidden", 4)
    over.setdefault("epochs", 3)
    return default_network_config(kind, **over)


def constant_sarima(c):
    spec = SarimaSpec(0, 0, 0, 0, 0, 0, 0)
    params = SarimaParams(c=c, alpha=(), theta=(), phi=(), eta=(), sigma2=1.0)
    fit = SarimaFit(spec=spec, params=params, sse=0.0, converged=True)
    return TrainedForecaster("sarima", fit, IDENTITY_SCALER, {})


class TestKindTable:
    def test_registered_kinds(self):
        assert KINDS == ("sarima", "lstm_1day", "lstm_14day", "gru_14day",
                         "multistep_14_5")

    @pytest.mark.parametrize("kind,lookback,horizon", [
        ("sarima", 1, 1),
        ("lstm_1day", 1, 1),
        ("lstm_14day", 14, 1),
        ("gru_14day", 14, 1),
        ("multistep_14_5", 14, 5),
    ])
    def test_lookback_and_horizon(self, kind, lookback, horizon):
        assert kind_lookback(kind) == lookback
        assert kind_horizon(kind) == horizon


class TestDefaultConfigs:
    def test_flat_lstm(self):
        cfg = default_network_config("lstm_14day")
        assert (cfg.cell, cfg.input_size, cfg.layers, cfg.hidden) == ("lstm", 14, 4, 32)
        assert (cfg.learning_rate, cfg.epochs, cfg.batch_size) == (0.001, 500, 8)
        assert cfg.optimizer == "rmsprop" and cfg.dropout == 0.0

    def test_gru_uses_adam_and_dropout(self):
        cfg = default_network_config("gru_14day")
        assert cfg.cell == "gru"
        assert (cfg.dropout, cfg.optimizer) == (0.2, "adam")
        assert (cfg.learning_rate, cfg.batch_size) == (0.002, 16)

    def test_multistep_is_deep_and_narrow(self):
        cfg = default_network_config("multistep_14_5")
        assert (cfg.layers, cfg.hidden, cfg.input_size, cfg.output_size) == (8, 8, 1, 1)
        assert (cfg.epochs, cfg.learning_rate, cfg.batch_size) == (125, 0.005, 0)

    def test_overrides_win(self):
        assert default_network_config("lstm_14day", epochs=7).epochs == 7

    @pytest.mark.parametrize("kind,size,message", [
        ("lstm_14day", 7, "input_size must be 1 or 14, got 7"),
        ("lstm_1day", 3, "input_size must be 1, got 3"),
        ("multistep_14_5", 14, "input_size must be 1, got 14"),
    ])
    def test_input_layout_checked_for_every_caller(self, kind, size, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            default_network_config(kind, input_size=size)
        with pytest.raises(ValueError, match=f"^{message}$"):
            get_preset("twitter-posts").network_config(kind, input_size=size)

    def test_sarima_has_no_network_config(self):
        with pytest.raises(ValueError):
            default_network_config("sarima")


class TestFitForecaster:
    def test_window_counts_for_standard_split(self):
        split = split_of(np.arange(120.0))
        assert len(split.train) == 84
        assert make_windows(split.train.values, 1, 1).count == 83
        assert make_windows(split.train.values, 14, 5).count == 66

    def test_sarima_with_fixed_order(self):
        model = fit_forecaster("sarima", ar1_split(n=80), SarimaSpec(1, 0, 0, 0, 0, 0, 0))
        assert model.kind == "sarima"
        assert model.scaler is IDENTITY_SCALER
        assert model.model.spec == SarimaSpec(1, 0, 0, 0, 0, 0, 0)
        assert isinstance(model.model.converged, bool)
        assert model.metadata == {}     # the fit is deterministic: no seed

    def test_sarima_with_singleton_grid(self):
        grid = GridSpec(p=(1,), d=(0,), q=(0,), P=(0,), D=(0,), Q=(0,), s=(0,))
        model = fit_forecaster("sarima", ar1_split(n=80), grid)
        assert model.metadata == {"grid_candidates": 1}
        assert model.model.spec == SarimaSpec(1, 0, 0, 0, 0, 0, 0)

    def test_sarima_rejects_other_configs(self):
        with pytest.raises(TypeError):
            fit_forecaster("sarima", ar1_split(), config={"order": (1, 0, 0)})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fit_forecaster("arimax", ar1_split())

    def test_short_training_half_names_the_minimum(self):
        with pytest.raises(ValueError, match="15"):
            fit_forecaster("lstm_14day", split_of(np.arange(16.0)))

    def test_cell_mismatch_rejected(self):
        cfg = tiny_config("gru_14day")
        with pytest.raises(ValueError):
            fit_forecaster("lstm_14day", ar1_split(), config=cfg)

    def test_neural_fit_scales_on_train_only(self):
        split = ar1_split(n=60)
        model = fit_forecaster("lstm_1day", split, config=tiny_config("lstm_1day"))
        assert model.scaler.min == float(split.train.values.min())
        assert model.scaler.max == float(split.train.values.max())
        assert np.isfinite(model.metadata["final_loss"])


class TestPredictNext:
    def test_zero_network_predicts_scaler_minimum(self):
        cfg = tiny_config("lstm_14day")
        net = RecurrentNetwork(cfg, init="zeros")
        model = TrainedForecaster("lstm_14day", net, ScalerState(10.0, 20.0), {})
        assert predict_next(model, np.arange(14.0)) == 10.0

    def test_zero_network_identity_scaler_predicts_zero(self):
        net = RecurrentNetwork(tiny_config("lstm_14day"), init="zeros")
        model = TrainedForecaster("lstm_14day", net, IDENTITY_SCALER, {})
        assert predict_next(model, np.arange(30.0)) == 0.0

    def test_constant_sarima_predicts_its_mean(self):
        npt.assert_allclose(predict_next(constant_sarima(2.0), np.array([5.0, 7.0])),
                            2.0, rtol=1e-12)

    def test_short_history_rejected(self):
        net = RecurrentNetwork(tiny_config("lstm_14day"), init="zeros")
        model = TrainedForecaster("lstm_14day", net, IDENTITY_SCALER, {})
        with pytest.raises(ValueError):
            predict_next(model, np.arange(10.0))


class TestTeacherForcing:
    def test_decoder_inputs_hold_ground_truth(self):
        w = make_windows(np.arange(25.0), 14, 5)
        x = teacher_forced_inputs(w)
        assert x.shape == (7, 18, 1)
        npt.assert_array_equal(x[:, :14, 0], w.inputs)
        npt.assert_array_equal(x[:, 14:, 0], w.targets[:, :-1])
        # step 3 reads the true value of step 2, not a model output
        assert x[0, 15, 0] == w.targets[0, 1]

    def test_prediction_positions(self):
        assert multistep_positions(14, 5) == [13, 14, 15, 16, 17]

    def test_loss_decomposes_over_steps(self):
        rng = np.random.default_rng(0)
        preds, targets = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        total, per_step = multistep_loss(preds, targets)
        assert total == pytest.approx(sum(per_step), abs=1e-15)
        err = preds[:, 2] - targets[:, 2]
        assert per_step[2] == pytest.approx(float(np.mean(err * err)), abs=1e-12)

    def test_zero_error_gives_zero_everywhere(self):
        preds = np.ones((4, 5))
        total, per_step = multistep_loss(preds, preds.copy())
        assert total == 0.0 and per_step == (0.0,) * 5

    def test_sequence_mode_required(self):
        w = make_windows(np.arange(40.0), 14, 5)
        # default_network_config rejects this layout too; train's own guard is tested here
        cfg = NetworkConfig(cell="lstm", layers=1, hidden=4, input_size=14, epochs=3)
        with pytest.raises(ValueError, match="input_size must be 1"):
            train_multistep_teacher_forced(cfg, w)

    def test_single_step_horizon_rejected(self):
        w = make_windows(np.arange(40.0), 14, 1)
        with pytest.raises(ValueError):
            train_multistep_teacher_forced(tiny_config("multistep_14_5"), w)

    def test_epoch_records_sum_their_steps(self):
        w = make_windows(generate_synthetic("ar1", 40, seed=1, alpha=0.6, sigma=1.0).values,
                         14, 5)
        _, history = train_multistep_teacher_forced(tiny_config("multistep_14_5"), w)
        assert len(history) == 3
        for record in history:
            assert isinstance(record, MultistepEpochLoss)
            assert len(record.per_step) == 5
            assert record.total == pytest.approx(sum(record.per_step), rel=1e-12)

    def test_training_is_deterministic(self):
        w = make_windows(generate_synthetic("ar1", 40, seed=2, alpha=0.6, sigma=1.0).values,
                         14, 5)
        cfg = tiny_config("multistep_14_5")
        _, h1 = train_multistep_teacher_forced(cfg, w)
        _, h2 = train_multistep_teacher_forced(cfg, w)
        assert [e.total for e in h1] == [e.total for e in h2]


class TestDecodeMultistep:
    def test_zero_network_appends_zeros(self):
        net = RecurrentNetwork(tiny_config("multistep_14_5"), init="zeros")
        scaled = np.linspace(0.2, 0.9, 14)
        preds, seq = decode_multistep(net, scaled, 5)
        npt.assert_array_equal(preds, np.zeros(5))
        assert seq.shape == (18,)
        npt.assert_array_equal(seq[:14], scaled)
        npt.assert_array_equal(seq[14:], np.zeros(4))

    def test_decoder_consumes_its_own_predictions(self):
        split = ar1_split(n=60)
        model = fit_forecaster("multistep_14_5", split,
                               config=tiny_config("multistep_14_5", epochs=5))
        scaled = model.scaler.apply(split.train.values[-14:])
        preds, seq = decode_multistep(model.model, scaled, 5)
        npt.assert_array_equal(seq[14:], preds[:4])
        assert not np.allclose(preds, 0.0)


    def test_one_window_matches_row_zero_of_a_batch(self):
        cfg = tiny_config("multistep_14_5", layers=3, hidden=6)
        net = RecurrentNetwork(cfg)
        batch = np.random.default_rng(4).uniform(0.0, 1.0, (9, 14))
        preds, seq = decode_multistep(net, batch, 5)
        assert preds.shape == (9, 5) and seq.shape == (9, 18)
        one_preds, one_seq = decode_multistep(net, batch[0], 5)
        assert one_preds.shape == (5,) and one_seq.shape == (18,)
        npt.assert_allclose(one_preds, preds[0], rtol=1e-12, atol=0)
        npt.assert_allclose(one_seq, seq[0], rtol=1e-12, atol=0)
        npt.assert_array_equal(seq[:, :14], batch)
        npt.assert_array_equal(seq[:, 14:], preds[:, :4])

    def test_leading_axes_are_kept(self):
        net = RecurrentNetwork(tiny_config("multistep_14_5"))
        batch = np.random.default_rng(5).uniform(0.0, 1.0, (2, 3, 14))
        preds, seq = decode_multistep(net, batch, 4)
        assert preds.shape == (2, 3, 4) and seq.shape == (2, 3, 17)
        flat_preds, _ = decode_multistep(net, batch.reshape(6, 14), 4)
        npt.assert_array_equal(preds.reshape(6, 4), flat_preds)


class TestForecastMultistep:
    def test_requires_multistep_kind(self):
        with pytest.raises(ValueError):
            forecast_multistep(constant_sarima(1.0), np.arange(14.0))

    def test_requires_exact_lookback(self):
        net = RecurrentNetwork(tiny_config("multistep_14_5"), init="zeros")
        model = TrainedForecaster("multistep_14_5", net, IDENTITY_SCALER, {})
        with pytest.raises(ValueError):
            forecast_multistep(model, np.arange(13.0))

    def test_constant_series_forecasts_the_constant(self):
        split = split_of(np.full(40, 7.0))
        model = fit_forecaster("multistep_14_5", split,
                               config=tiny_config("multistep_14_5"))
        preds = forecast_multistep(model, split.train.values[-14:])
        assert preds.shape == (5,)
        npt.assert_allclose(preds, np.full(5, 7.0), rtol=0.05)

    def test_horizon_length(self):
        net = RecurrentNetwork(tiny_config("multistep_14_5"), init="zeros")
        model = TrainedForecaster("multistep_14_5", net, IDENTITY_SCALER, {})
        assert forecast_multistep(model, np.arange(14.0)).shape == (5,)

    def test_batch_of_windows_forecasts_each_row(self):
        net = RecurrentNetwork(tiny_config("multistep_14_5"))
        model = TrainedForecaster("multistep_14_5", net, ScalerState(0.0, 40.0), {})
        rows = np.stack([np.arange(14.0) + k for k in range(4)])
        batched = forecast_multistep(model, rows)
        assert batched.shape == (4, 5)
        for k in range(4):
            npt.assert_allclose(batched[k], forecast_multistep(model, rows[k]),
                                rtol=1e-12, atol=0)
        with pytest.raises(ValueError):
            forecast_multistep(model, rows[:, :13])


class TestScaleInvariance:
    def test_doubling_the_series_doubles_the_prediction(self):
        # min-max scaling strips affine structure, so training sees the
        # same inputs bit for bit and the inverse map carries the factor
        values = generate_synthetic("ar1", 60, seed=9, alpha=0.8, sigma=1.0).values
        cfg = tiny_config("lstm_1day")
        p1 = predict_next(fit_forecaster("lstm_1day", split_of(values), config=cfg),
                          values)
        p2 = predict_next(fit_forecaster("lstm_1day", split_of(2.0 * values), config=cfg),
                          2.0 * values)
        assert p2 == 2.0 * p1


class TestPresets:
    def test_unknown_preset_lists_available(self):
        with pytest.raises(KeyError, match="gab-likes"):
            get_preset("reddit-posts")

    def test_twitter_posts_shares_one_order_across_leanings(self):
        bundle = get_preset("twitter-posts")
        for leaning in ("left", "left_leaning", "center", "right_leaning", "right"):
            assert bundle.sarima_spec(leaning).as_tuple() == (9, 0, 10, 2, 1, 1, 12)

    def test_twitter_likes_order(self):
        assert get_preset("twitter-likes").sarima_spec("center").as_tuple() == \
            (11, 1, 3, 3, 1, 3, 12)

    @pytest.mark.parametrize("leaning,order", [
        ("left", (7, 1, 10, 3, 1, 1, 14)),
        ("right", (6, 2, 10, 4, 1, 1, 11)),
        ("center", (11, 1, 10, 2, 1, 1, 14)),
    ])
    def test_gab_posts_orders(self, leaning, order):
        assert get_preset("gab-posts").sarima_spec(leaning).as_tuple() == order

    @pytest.mark.parametrize("leaning,order", [
        ("left", (11, 1, 6, 3, 0, 4, 12)),
        ("right", (9, 1, 11, 1, 1, 3, 12)),
        ("center", (8, 1, 11, 4, 0, 0, 12)),
    ])
    def test_gab_likes_orders(self, leaning, order):
        assert get_preset("gab-likes").sarima_spec(leaning).as_tuple() == order

    def test_gab_minor_leanings_have_no_published_order(self):
        for name in ("gab-posts", "gab-likes"):
            bundle = get_preset(name)
            assert bundle.sarima_spec("left_leaning") is None
            assert bundle.sarima_spec("right_leaning") is None

    def test_epoch_presets(self):
        epochs = {name: (b.lstm_epochs, b.gru_epochs, b.multistep_epochs)
                  for name, b in PRESETS.items()}
        assert epochs == {
            "twitter-posts": (100, 100, 125),
            "twitter-likes": (100, 100, 100),
            "gab-posts": (200, 100, 150),
            "gab-likes": (200, 100, 100),
        }

    def test_network_config_carries_bundle_epochs(self):
        bundle = get_preset("gab-posts")
        assert bundle.network_config("lstm_14day").epochs == 200
        assert bundle.network_config("gru_14day").epochs == 100
        cfg = bundle.network_config("multistep_14_5")
        assert (cfg.layers, cfg.hidden, cfg.epochs) == (8, 8, 150)

    def test_fallback_grid_months_and_weeks(self):
        assert FALLBACK_GRID.s == (0, 7)
        assert 0 in FALLBACK_GRID.d and 1 in FALLBACK_GRID.d


class TestSerialization:
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_predicts_bit_identically(self, kind):
        split = ar1_split(n=80)
        config = (SarimaSpec(1, 0, 1, 1, 0, 1, 7) if kind == "sarima"
                  else tiny_config(kind, layers=2))
        model = fit_forecaster(kind, split, config=config)
        text = forecaster_to_json(model)
        clone = forecaster_from_json(text)
        assert clone.kind == model.kind
        assert clone.scaler == model.scaler
        assert clone.metadata == model.metadata
        assert forecaster_to_json(clone) == text
        if kind != "sarima":
            # the flat kinds train one step, without recurrent weights
            assert clone.model.one_step == model.model.one_step == (kind != "multistep_14_5")
            npt.assert_array_equal(clone.model.theta, model.model.theta)
        history = split.train.values
        assert predict_next(clone, history) == predict_next(model, history)

    def test_multistep_round_trip(self):
        split = ar1_split(n=60)
        model = fit_forecaster("multistep_14_5", split,
                               config=tiny_config("multistep_14_5"))
        clone = forecaster_from_json(forecaster_to_json(model))
        tail = split.train.values[-14:]
        npt.assert_array_equal(forecast_multistep(clone, tail),
                               forecast_multistep(model, tail))

    def test_sarima_round_trip(self):
        model = fit_forecaster("sarima", ar1_split(n=80), SarimaSpec(1, 0, 0, 0, 0, 0, 0))
        clone = forecaster_from_json(forecaster_to_json(model))
        history = np.arange(30.0)
        npt.assert_allclose(predict_next(clone, history),
                            predict_next(model, history), rtol=1e-12)
        assert clone.model.train_rmse == model.model.train_rmse

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_encode_matches_round_trip_bytes(self, kind):
        split = ar1_split(n=80)
        if kind == "sarima":
            model = fit_forecaster(kind, split, SarimaSpec(1, 0, 1, 1, 0, 1, 7))
            fit = model.model
            payload = json.loads(json.dumps(sarima.to_doc(fit.spec, fit.params),
                                            sort_keys=True))
            payload.update(sse=fit.sse, converged=fit.converged)
        else:
            model = fit_forecaster(kind, split, config=tiny_config(kind))
            payload = json.loads(json.dumps(model.model.to_doc(), sort_keys=True))
        # the encoding before the payload dicts were embedded directly
        want = json.dumps({"kind": kind,
                           "scaler": {"min": model.scaler.min, "max": model.scaler.max},
                           "model": payload, "metadata": model.metadata}, sort_keys=True)
        text = forecaster_to_json(model)
        assert text == want
        assert forecaster_to_json(forecaster_from_json(text)) == text

    @pytest.mark.parametrize("kind", KINDS)
    def test_metadata_states_only_what_the_model_lacks(self, kind):
        """No metadata key repeats a model key, and a file whose metadata
        does (and whose SARIMA model stores train_rmse), as older files do,
        loads and predicts bit-identically."""
        split = ar1_split(n=80)
        configs = ([SarimaSpec(1, 0, 1, 1, 0, 1, 7), GridSpec(p=(0, 1), q=(0, 1))]
                   if kind == "sarima" else [tiny_config(kind, layers=2)])
        for config in configs:
            model = fit_forecaster(kind, split, config=config)
            doc = json.loads(forecaster_to_json(model))
            model_keys = set(doc["model"]) | set(doc["model"].get("config", ()))
            assert not set(doc["metadata"]) & model_keys
            if kind == "sarima":
                assert set(doc["metadata"]) <= {"grid_candidates"}
                fit = model.model
                doc["model"]["train_rmse"] = fit.train_rmse
                doc["metadata"].update(converged=fit.converged, sse=fit.sse,
                                       spec=list(fit.spec.as_tuple()))
            else:
                assert set(doc["metadata"]) == {"final_loss"}
                doc["metadata"].update(seed=config.seed, epochs_run=config.epochs)
            clone = forecaster_from_json(json.dumps(doc, sort_keys=True))
            history = split.train.values
            assert predict_next(clone, history) == predict_next(model, history)
            if kind == "sarima":
                assert clone.model == model.model
            else:
                npt.assert_array_equal(clone.model.theta, model.model.theta)

    # written before the model facts left the metadata, with each file's
    # one-step prediction from ar1_split(n=40)'s training half then
    OLDER_FILES = [
        ('{"kind": "sarima", "metadata": {"converged": true, "spec": [1, 0, 0, 0, 0, 0, 0], '
         '"sse": 32.05156969687243}, "model": {"alpha": [0.6401990132379631], '
         '"c": -0.06652064256953366, "converged": true, "eta": [], "order": [1, 0, 0], '
         '"phi": [], "seasonal": [0, 0, 0, 0], "sigma2": 1.187095173958238, '
         '"sse": 32.05156969687243, "theta": [], "train_rmse": 1.089538973124981}, '
         '"scaler": {"max": 1.0, "min": 0.0}}', 1.1578785469379653),
        ('{"kind": "lstm_1day", "metadata": {"epochs_run": 2, "final_loss": 0.28191305615486134, '
         '"seed": 3}, "model": {"config": {"batch_size": 8, "cell": "lstm", "dropout": 0.0, '
         '"epochs": 2, "hidden": 1, "input_size": 1, "layers": 1, "learning_rate": 0.001, '
         '"optimizer": "rmsprop", "output_size": 1, "seed": 3}, "weights": {'
         '"layer0.W_f": {"data": [0.14364953489555077], "shape": [1, 1]}, '
         '"layer0.W_g": {"data": [-0.08982785394979027], "shape": [1, 1]}, '
         '"layer0.W_i": {"data": [0.4304397636520771], "shape": [1, 1]}, '
         '"layer0.W_o": {"data": [0.6635610930026018], "shape": [1, 1]}, '
         '"layer0.b_f": {"data": [0.0], "shape": [1]}, '
         '"layer0.b_g": {"data": [0.014504755580207886], "shape": [1]}, '
         '"layer0.b_i": {"data": [-0.012665829699001445], "shape": [1]}, '
         '"layer0.b_o": {"data": [-0.012703513280894916], "shape": [1]}, '
         '"out.W": {"data": [0.18278963692453412], "shape": [1, 1]}, '
         '"out.b": {"data": [0.014849291671074877], "shape": [1]}}}, '
         '"scaler": {"max": 2.7276866804959785, "min": -2.9093380328498157}}',
         -2.8495803346257245),
    ]

    @pytest.mark.parametrize("text,prediction", OLDER_FILES, ids=["sarima", "lstm_1day"])
    def test_an_older_file_predicts_as_it_did(self, text, prediction):
        model = forecaster_from_json(text)
        assert predict_next(model, ar1_split(n=40).train.values) == prediction
        doc = json.loads(text)
        if model.kind == "sarima":
            assert model.model.train_rmse == doc["model"].pop("train_rmse")
        # re-encoding drops only the derived train_rmse; metadata passes through
        assert json.loads(forecaster_to_json(model)) == doc

    def test_unknown_kind_rejected(self):
        doc = json.loads(forecaster_to_json(constant_sarima(1.0)))
        doc["kind"] = "varmax"
        with pytest.raises(ValueError):
            forecaster_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["converged", "sse"])
    def test_sarima_model_without_a_fit_fact_rejected(self, key):
        # a missing fact is not read as converged or as a zero error
        doc = json.loads(forecaster_to_json(constant_sarima(1.0)))
        del doc["model"][key]
        with pytest.raises(ValueError, match=f"^sarima model lacks {key}$"):
            forecaster_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key, value, message", [
        ("sse", "lots", "sse must be a number, got 'lots'"),
        ("sse", True, "sse must be a number, got True"),
        ("converged", "no", "converged must be true or false, got 'no'"),
        ("converged", 1, "converged must be true or false, got 1"),
        ("c", "1.0", "c must be a number, got '1.0'"),
        ("sigma2", None, "sigma2 must be a number, got None"),
        ("alpha", "", "alpha must be a list of numbers, got ''"),
        ("theta", [False], "theta must be a list of numbers, got [False]"),
    ])
    def test_sarima_model_fields_are_json_numbers_and_bools(self, key, value, message):
        # a string is not read as a number, nor a nonempty one as converged
        doc = json.loads(forecaster_to_json(constant_sarima(1.0)))
        doc["model"][key] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            forecaster_from_json(json.dumps(doc))
