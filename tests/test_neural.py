import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leancast.neural import (CellState, FlatParameters, GruLayerWeights,
                             LstmLayerWeights, NetworkConfig, RecurrentNetwork,
                             TrainingDivergedError, dropout_masks, gru_step,
                             layout_windows, lstm_step, sigmoid, train, train_at_positions,
                             zero_gru_weights, zero_lstm_weights)
from leancast.rng import derive_rng
from leancast.series import make_windows, generate_synthetic
from reference_kernels import allocating_backward, masked_sigmoid, per_layer_forward


def small_config(**over):
    base = dict(cell="lstm", layers=2, hidden=3, input_size=2, output_size=1,
                dropout=0.0, seed=0, learning_rate=1e-3, epochs=5, batch_size=0)
    base.update(over)
    return NetworkConfig(**base)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_extremes_do_not_overflow(self):
        with np.errstate(over="raise"):
            out = sigmoid(np.array([-1000.0, 1000.0]))
        npt.assert_allclose(out, [0.0, 1.0])

    def test_branch_free_form_matches_masked_form_bit_for_bit(self):
        rng = np.random.default_rng(20)
        finfo = np.finfo(np.float64)
        special = np.array([0.0, -0.0, 1.0, -1.0, 36.7, -36.7, 709.78, -709.78, 745.0,
                            -745.0, 745.2, -745.2, 1000.0, -1000.0, np.inf, -np.inf,
                            finfo.smallest_subnormal, -finfo.smallest_subnormal,
                            finfo.smallest_normal, -finfo.smallest_normal, 1e-310, -1e-310,
                            finfo.max, -finfo.max])
        # every float64 bit pattern is equally likely, so all exponents appear
        patterns = rng.integers(0, np.iinfo(np.uint64).max, 400_000, dtype=np.uint64,
                                endpoint=True).view(np.float64)
        x = np.concatenate([special, rng.normal(0, 1, 300_000), rng.normal(0, 40, 200_000),
                            rng.uniform(-800, 800, 100_000), rng.uniform(-1, 1, 50_000) * 1e-310,
                            patterns[~np.isnan(patterns)]])
        assert x.size >= 1_000_000
        with np.errstate(over="raise"):
            out = sigmoid(x)
        npt.assert_array_equal(out.view(np.uint64), masked_sigmoid(x).view(np.uint64))

    def test_nan_maps_to_nan(self):
        out = sigmoid(np.array([np.nan, -np.nan, 0.0]))
        assert np.isnan(out[:2]).all() and out[2] == 0.5


class TestLstmStep:
    def test_zero_weights_carry_cell(self):
        # all gates sit at 0.5, candidate at 0, so the cell halves
        w = zero_lstm_weights(1, 1)
        out = lstm_step(np.array([0.7]), CellState(h=np.zeros(1), c=np.array([2.0])), w)
        npt.assert_allclose(out.c, [1.0])
        npt.assert_allclose(out.h, [0.38079708], atol=1e-8)

    def test_saturated_forget_gate_preserves_cell(self):
        w = zero_lstm_weights(1, 1)
        w.b_f[:] = 50.0
        out = lstm_step(np.array([0.3]), CellState(h=np.zeros(1), c=np.array([3.0])), w)
        npt.assert_allclose(out.c, [3.0], atol=1e-12)

    def test_input_gate_adds_candidate(self):
        w = zero_lstm_weights(1, 1)
        w.b_i[:] = 50.0
        w.b_g[:] = 50.0
        out = lstm_step(np.array([0.0]), CellState(h=np.zeros(1), c=np.array([0.0])), w)
        # i ~ 1, g ~ 1, f*c = 0
        npt.assert_allclose(out.c, [1.0], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        w = zero_lstm_weights(2, 3)
        with pytest.raises(ValueError):
            lstm_step(np.zeros(1), CellState(h=np.zeros(3), c=np.zeros(3)), w)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_hidden_state_stays_inside_unit_box(self, seed):
        rng = np.random.default_rng(seed)
        w = LstmLayerWeights(*(rng.normal(0, 2, (3, 5)) for _ in range(4)),
                             *(rng.normal(0, 2, 3) for _ in range(4)))
        state = CellState(h=np.tanh(rng.normal(0, 1, 3)), c=rng.normal(0, 3, 3))
        out = lstm_step(rng.normal(0, 2, 2), state, w)
        assert np.all(np.abs(out.h) < 1.0)


class TestGruStep:
    def test_zero_weights_halve_state(self):
        w = zero_gru_weights(1, 1)
        npt.assert_allclose(gru_step(np.array([9.0]), np.array([1.0]), w), [0.5])

    def test_closed_update_gate_freezes_state(self):
        w = zero_gru_weights(1, 1)
        w.b_z[:] = -50.0
        npt.assert_allclose(gru_step(np.array([123.0]), np.array([0.8]), w),
                            [0.8], atol=1e-12)

    def test_open_update_gate_jumps_to_candidate(self):
        w = zero_gru_weights(1, 1)
        w.b_z[:] = 50.0
        w.b_h[:] = 50.0
        npt.assert_allclose(gru_step(np.array([0.0]), np.array([-0.9]), w),
                            [1.0], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        w = zero_gru_weights(2, 3)
        with pytest.raises(ValueError):
            gru_step(np.zeros(2), np.zeros(4), w)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_new_state_is_convex_mix(self, seed):
        # h' = (1-z) h + z tanh(...) so each entry lands between h and +-1
        rng = np.random.default_rng(seed)
        w = GruLayerWeights(*(rng.normal(0, 2, (3, 2)) for _ in range(3)),
                            *(rng.normal(0, 2, (3, 3)) for _ in range(3)),
                            *(rng.normal(0, 2, 3) for _ in range(3)))
        h = rng.normal(0, 3, 3)
        out = gru_step(rng.normal(0, 2, 2), h, w)
        assert np.all(out <= np.maximum(h, 1.0) + 1e-12)
        assert np.all(out >= np.minimum(h, -1.0) - 1e-12)


class TestForward:
    def test_zero_network_outputs_zeros(self):
        net = RecurrentNetwork(small_config(), init="zeros")
        x = np.random.default_rng(0).normal(0, 1, (4, 6, 2))
        out, _ = net.forward(x)
        npt.assert_array_equal(out, np.zeros((4, 6, 1)))

    def test_output_shape_reads_every_step(self):
        net = RecurrentNetwork(small_config(cell="gru", output_size=4))
        out, _ = net.forward(np.ones((5, 7, 2)))
        assert out.shape == (5, 7, 4)

    def test_deterministic_outside_training(self):
        net = RecurrentNetwork(small_config(dropout=0.5))
        x = np.random.default_rng(1).normal(0, 1, (3, 5, 2))
        a, _ = net.forward(x)
        b, _ = net.forward(x)
        npt.assert_array_equal(a, b)

    def test_zero_rate_training_matches_inference(self):
        net = RecurrentNetwork(small_config(dropout=0.0))
        x = np.random.default_rng(2).normal(0, 1, (3, 5, 2))
        a, _ = net.forward(x, training=True, dropout_rng=np.random.default_rng(0))
        b, _ = net.forward(x)
        npt.assert_array_equal(a, b)

    def test_dropout_perturbs_training_outputs(self):
        net = RecurrentNetwork(small_config(dropout=0.5, hidden=16))
        x = np.random.default_rng(3).normal(0, 1, (3, 5, 2))
        a, _ = net.forward(x, training=True, dropout_rng=np.random.default_rng(10))
        b, _ = net.forward(x)
        assert not np.array_equal(a, b)

    def test_bad_input_shape_rejected(self):
        net = RecurrentNetwork(small_config())
        with pytest.raises(ValueError):
            net.forward(np.ones((3, 5)))
        with pytest.raises(ValueError):
            net.forward(np.ones((3, 5, 7)))

    def test_single_layer_gru_matches_step_function(self):
        cfg = small_config(cell="gru", layers=1, hidden=4, input_size=3, seed=9)
        net = RecurrentNetwork(cfg)
        x = np.random.default_rng(4).normal(0, 1, (1, 6, 3))
        out, _ = net.forward(x)
        h = np.zeros(4)
        for t in range(6):
            h = gru_step(x[0, t], h, net.layers[0])
            npt.assert_allclose(out[0, t], net.W_out @ h + net.b_out, atol=1e-12)

    def test_single_layer_lstm_matches_step_function(self):
        cfg = small_config(layers=1, hidden=4, input_size=3, seed=9)
        net = RecurrentNetwork(cfg)
        x = np.random.default_rng(5).normal(0, 1, (1, 6, 3))
        out, _ = net.forward(x)
        state = CellState(h=np.zeros(4), c=np.zeros(4))
        for t in range(6):
            state = lstm_step(x[0, t], state, net.layers[0])
            npt.assert_allclose(out[0, t], net.W_out @ state.h + net.b_out, atol=1e-12)


class TestBackward:
    def test_zero_output_gradient_gives_zero_parameter_gradients(self):
        net = RecurrentNetwork(small_config(cell="gru"))
        _, cache = net.forward(np.ones((2, 4, 2)))
        grads = net.backward(cache, np.zeros((2, 4, 1)))
        for g in grads.values():
            npt.assert_array_equal(g, np.zeros_like(g))

    def test_gradients_are_linear_in_output_gradient(self):
        net = RecurrentNetwork(small_config(seed=3))
        x = np.random.default_rng(6).normal(0, 1, (2, 4, 2))
        _, cache = net.forward(x)
        d = np.random.default_rng(7).normal(0, 1, (2, 4, 1))
        g1 = net.backward(cache, d)
        g2 = net.backward(cache, 2.0 * d)
        for name in g1:
            npt.assert_allclose(g2[name], 2.0 * g1[name], rtol=1e-12, atol=1e-15)


# (cell, layers, steps, dropout): dropout masks exist only between layers
BACKWARD_CASES = [(cell, layers, steps, dropout) for cell in ("lstm", "gru")
                  for layers in (1, 3) for steps in (1, 18) for dropout in (0.0, 0.3)]


@pytest.mark.parametrize("cell,layers,steps,dropout", BACKWARD_CASES)
def test_backward_into_buffer_matches_former_backward_bit_for_bit(cell, layers, steps,
                                                                  dropout):
    cfg = small_config(cell=cell, layers=layers, hidden=5, input_size=3, output_size=2,
                       dropout=dropout, seed=10 * layers + steps)
    net = RecurrentNetwork(cfg)
    rng = np.random.default_rng(steps + layers)
    net.theta[:] = rng.normal(0, 0.7, net.theta.size)
    x = rng.normal(0, 1, (4, steps, 3))
    _, cache = net.forward(x, training=dropout > 0, dropout_rng=np.random.default_rng(1))
    assert (cache["masks"][0] is not None) == (dropout > 0 and layers > 1)
    d = rng.normal(0, 1, (4, steps, 2))
    fresh = net.backward(cache, d)
    buffer = FlatParameters(cfg)
    buffer.vector[:] = rng.normal(0, 1e6, buffer.vector.size)
    buffer.vector[::3] = np.nan
    assert net.backward(cache, d, out=buffer) is buffer
    npt.assert_array_equal(buffer.vector.view(np.uint64), fresh.vector.view(np.uint64))
    # the former backward runs the layers one after another, computing
    # layer 0's input gradient and every t = 0 recurrent product; the
    # wavefronts and dropping those products change no gradient bit
    _, former_cache = per_layer_forward(net, x, training=dropout > 0, masks=cache["masks"])
    former = allocating_backward(net, former_cache, d)
    npt.assert_array_equal(fresh.vector.view(np.uint64), former.vector.view(np.uint64))


def test_backward_rejects_a_buffer_of_another_layout():
    net = RecurrentNetwork(small_config())
    _, cache = net.forward(np.ones((2, 3, 2)))
    with pytest.raises(ValueError, match="gradient buffer"):
        net.backward(cache, np.ones((2, 3, 1)), out=FlatParameters(small_config(hidden=4)))


def relative_error(a, b):
    scale = max(abs(a), abs(b), 1e-8)
    return abs(a - b) / scale


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("seed", range(5))
def test_backward_matches_central_differences(cell, seed):
    """Every analytic gradient entry agrees with a finite difference probe."""
    rng = np.random.default_rng(seed)
    dropout = 0.4 if seed % 2 else 0.0
    cfg = small_config(cell=cell, layers=2, hidden=3, input_size=2,
                       output_size=2, dropout=dropout, seed=seed + 100)
    net = RecurrentNetwork(cfg)
    x = rng.normal(0, 1, (2, 4, 2))
    rvec = rng.normal(0, 1, (2, 4, 2))
    training = dropout > 0
    masks = None
    if training:
        masks = [dropout_masks(np.random.default_rng(seed), (2, 4, 3), dropout), None]

    def loss_at(params):
        net.set_parameters(params)
        out, _ = net.forward(x, training=training, masks=masks)
        return float(np.sum(out * rvec))

    base = {k: v.copy() for k, v in net.parameters().items()}
    _, cache = net.forward(x, training=training, masks=masks)
    analytic = net.backward(cache, rvec)

    delta = 1e-5
    worst = 0.0
    for name, arr in base.items():
        flat = arr.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + delta
            up = loss_at(base)
            flat[j] = orig - delta
            down = loss_at(base)
            flat[j] = orig
            numeric = (up - down) / (2 * delta)
            worst = max(worst, relative_error(analytic[name].ravel()[j], numeric))
    net.set_parameters(base)
    assert worst < 1e-4


class TestDropoutMasks:
    def test_values_are_zero_or_inverted_keep_rate(self):
        m = dropout_masks(np.random.default_rng(0), (1000,), 0.3)
        assert set(np.unique(m)) <= {0.0, 1.0 / 0.7}

    def test_unit_mean_in_expectation(self):
        m = dropout_masks(np.random.default_rng(1), (100_000,), 0.3)
        assert abs(m.mean() - 1.0) < 0.02


class TestBatchLayout:
    def test_flat_layout_single_step(self):
        w = make_windows(np.arange(10.0), 4, 2)
        x = layout_windows(w.inputs, input_size=4)
        assert x.shape == (5, 1, 4)
        npt.assert_array_equal(x[0, 0], [0, 1, 2, 3])

    def test_sequence_layout_scalar_steps(self):
        w = make_windows(np.arange(10.0), 4, 2)
        x = layout_windows(w.inputs, input_size=1)
        assert x.shape == (5, 4, 1)
        npt.assert_array_equal(x[2, :, 0], [2, 3, 4, 5])

    def test_incompatible_input_size_rejected(self):
        w = make_windows(np.arange(10.0), 4, 2)
        with pytest.raises(ValueError):
            layout_windows(w.inputs, input_size=3)


class TestTrain:
    def test_identical_runs_are_bit_identical(self):
        values = generate_synthetic("ar1", 60, seed=5, alpha=0.7, sigma=1.0).values
        w = make_windows(values, 4, 1)
        cfg = small_config(input_size=4, hidden=8, epochs=4, batch_size=8, dropout=0.2)
        net_a, hist_a = train(cfg, w)
        net_b, hist_b = train(cfg, w)
        assert hist_a == hist_b
        for name, arr in net_a.parameters().items():
            npt.assert_array_equal(arr, net_b.parameters()[name])

    def test_zero_data_sits_at_zero_loss(self):
        w = make_windows(np.zeros(12), 4, 1)
        _, history = train(small_config(input_size=4, epochs=3), w)
        assert history == [0.0, 0.0, 0.0]

    def test_learns_noiseless_sine(self):
        values = generate_synthetic("sine", 90, seed=0, period=12,
                                    amplitude=1.0, noise_sigma=0.0).values
        w = make_windows(values, 14, 1)
        cfg = small_config(input_size=14, hidden=16, epochs=150,
                           learning_rate=5e-3, seed=1)
        _, history = train(cfg, w)
        assert history[-1] < 0.01 * float(np.var(w.targets))

    def test_loss_history_length_matches_epochs(self):
        w = make_windows(np.arange(20.0) / 20.0, 4, 1)
        _, history = train(small_config(input_size=4, epochs=7), w)
        assert len(history) == 7

    def test_divergence_raises_with_last_finite_loss(self):
        w = make_windows(np.arange(20.0), 4, 1)
        cfg = small_config(input_size=4, epochs=10, learning_rate=1e200)
        # pyproject turns a RuntimeWarning into an error: none may escape
        with pytest.raises(TrainingDivergedError) as exc:
            train(cfg, w)
        assert exc.value.epoch >= 1
        assert np.isfinite(exc.value.last_finite_loss)

    def test_parameters_overflowing_in_the_last_step_raise(self):
        """Every loss is finite, because each is computed before its step,
        but the one step's update leaves theta non-finite."""
        values = generate_synthetic("ar1", 80, 1, alpha=0.8, sigma=1.0).values
        cfg = NetworkConfig(cell="lstm", layers=1, hidden=4, input_size=1, epochs=1,
                            learning_rate=1e308)
        with pytest.raises(TrainingDivergedError, match="^parameters became non-finite "
                                                        "at epoch 0; last finite loss") as exc:
            train(cfg, make_windows(values, 1, 1))
        assert np.isfinite(exc.value.last_finite_loss)

    def test_empty_window_set_rejected(self):
        w = make_windows(np.arange(3.0), 4, 1)
        with pytest.raises(ValueError):
            train(small_config(input_size=4), w)

    @pytest.mark.parametrize("targets", [
        (6, 1, 1),    # once broadcast into every readout
        (9, 5, 1),    # once cut to the six inputs
        (6, 5, 2),
    ])
    def test_targets_of_another_shape_rejected(self, targets):
        cfg = small_config(input_size=1, epochs=1)
        with pytest.raises(ValueError, match=fr"^targets \({targets[0]}, {targets[1]}, "
                                             fr"{targets[2]}\) do not fit inputs \(6, 18, 1\) "
                                             r"read at 5 positions: need \(6, 5, 1\)$"):
            train_at_positions(cfg, np.zeros((6, 18, 1)), np.zeros(targets), [13, 14, 15, 16, 17])

    @pytest.mark.parametrize("positions", [[18], [-19], [0, 17, 18]])
    def test_positions_outside_the_time_axis_rejected(self, positions):
        cfg = small_config(input_size=1, epochs=1)
        with pytest.raises(ValueError, match=r"lie outside the time axis of inputs \(6, 18, 1\)$"):
            train_at_positions(cfg, np.zeros((6, 18, 1)), np.zeros((6, len(positions), 1)),
                               positions)

    def test_horizon_must_match_output_size(self):
        w = make_windows(np.arange(12.0), 4, 2)
        with pytest.raises(ValueError):
            train(small_config(input_size=4, output_size=1), w)


class TestConfigValidation:
    @pytest.mark.parametrize("over", [
        dict(cell="rnn"),
        dict(layers=0),
        dict(hidden=0),
        dict(dropout=1.0),
        dict(dropout=-0.1),
        dict(learning_rate=0.0),
        dict(optimizer="sgd"),
        dict(layers=1.5),
        dict(hidden=True),
        dict(input_size=None),
        dict(output_size="1"),
        dict(epochs=2.0),
        dict(batch_size=None),
        dict(learning_rate=True),
        dict(dropout=False),
        dict(learning_rate="0.1"),
        dict(learning_rate=None),
        dict(dropout=[0.1]),
        dict(learning_rate=float("nan")),
        dict(dropout=float("nan")),
        dict(learning_rate=float("inf")),
        dict(learning_rate=1e400),
        dict(dropout=-float("inf")),
    ])
    def test_bad_fields_rejected(self, over):
        # the message names the field
        with pytest.raises(ValueError, match=next(iter(over))):
            small_config(**over)

    def test_integer_learning_rate_accepted(self):
        assert small_config(learning_rate=1, dropout=0).learning_rate == 1

    @pytest.mark.parametrize("over,message", [
        (dict(epochs=0), "epochs"),
        (dict(epochs=-1), "epochs"),
        (dict(batch_size=-2), "batch_size"),
    ])
    def test_schedules_that_train_nothing_rejected(self, over, message):
        # zero epochs, or a negative batch stride, would take no optimizer
        # step and leave the network at its initial weights
        with pytest.raises(ValueError, match=message):
            small_config(**over)

    def test_one_epoch_full_batch_accepted(self):
        cfg = small_config(epochs=1, batch_size=0)
        assert (cfg.epochs, cfg.batch_size) == (1, 0)


class TestSerialization:
    def test_round_trip_preserves_weights_and_outputs(self):
        net = RecurrentNetwork(small_config(cell="gru", seed=11))
        clone = RecurrentNetwork.from_doc(json.loads(json.dumps(net.to_doc())))
        for name, arr in net.parameters().items():
            npt.assert_array_equal(arr, clone.parameters()[name])
        x = np.random.default_rng(8).normal(0, 1, (2, 5, 2))
        npt.assert_array_equal(net.forward(x)[0], clone.forward(x)[0])

    def test_config_survives_round_trip(self):
        cfg = small_config(dropout=0.25, optimizer="adam", batch_size=16)
        doc = json.loads(json.dumps(RecurrentNetwork(cfg).to_doc()))
        clone = RecurrentNetwork.from_doc(doc)
        assert clone.config == cfg


class TestFlatParameters:
    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_theta_holds_every_parameter_in_storage_order(self, cell):
        cfg = small_config(cell=cell, layers=2, hidden=3, input_size=2, output_size=2, seed=4)
        net = RecurrentNetwork(cfg)
        params = net.parameters()
        fields = (LstmLayerWeights if cell == "lstm" else GruLayerWeights).FIELDS
        assert list(params) == [f"layer{k}.{f}" for k in range(2) for f in fields] + [
            "out.W", "out.b"]
        npt.assert_array_equal(np.concatenate([a.ravel() for a in params.values()]),
                               net.theta)
        # the former per-array init: each 2-D array, in order, drew its own
        # U(-1/sqrt(columns), 1/sqrt(columns)); biases start at zero
        rng = derive_rng(4, "weights")
        for name, arr in params.items():
            expected = (rng.uniform(-1 / np.sqrt(arr.shape[1]), 1 / np.sqrt(arr.shape[1]),
                                    arr.shape) if arr.ndim == 2 else np.zeros(arr.shape))
            npt.assert_array_equal(arr, expected, err_msg=name)
        # layer weights, the readout and backward's mapping are all views
        views = [getattr(w, name) for w in net.layers for name in fields]
        assert all(np.shares_memory(v, net.theta)
                   for v in [*views, *params.values(), net.W_out, net.b_out])
        _, cache = net.forward(np.ones((2, 3, 2)))
        grads = net.backward(cache, np.ones((2, 3, 2)))
        assert all(np.shares_memory(g, grads.vector) for g in grads.values())
        npt.assert_array_equal(np.concatenate([g.ravel() for g in grads.values()]),
                               grads.vector)
