"""The one training loop (``neural.train_at_positions``) against the two
loops it replaced.

``_oracle_final_step`` and ``_oracle_teacher_forced`` are the former
``neural.train`` and ``forecasters.train_multistep_teacher_forced`` bodies,
kept as references; only their optimizer calls follow the flat-vector API
(clip and step on ``net.theta`` and the gradient vector).  The merged path
does the same arithmetic in the same order, so histories and weights must
match bit for bit.  The oracles build the full layout, so the one-step
cases (time 1), which train without recurrent weights, are held to them
within a tolerance in test_one_step.py; their layer loop trains bit for bit
as the per-layer kernels do on the one-step layout.
"""

from dataclasses import dataclass

import numpy as np
import numpy.testing as npt
import pytest

from leancast import neural, optim
from leancast.forecasters import (default_network_config, kind_horizon, kind_lookback,
                                  multistep_positions, teacher_forced_inputs,
                                  train_multistep_teacher_forced)
from leancast.neural import RecurrentNetwork, TrainingDivergedError
from leancast.rng import derive_rng
from leancast.series import generate_synthetic, make_windows
from reference_kernels import (allocating_adam_step, allocating_backward,
                               allocating_rmsprop_step, masked_sigmoid, per_layer_backward,
                               per_layer_forward)


def _oracle_windows_to_batches(windows, input_size: int):
    if input_size == windows.lookback:
        x = windows.inputs[:, None, :]
    elif input_size == 1:
        x = windows.inputs[:, :, None]
    else:
        raise ValueError("incompatible input_size")
    return x, windows.targets


def _oracle_final_step(config, windows):
    if windows.count == 0:
        raise ValueError("cannot train on an empty window set")
    if windows.horizon != config.output_size:
        raise ValueError("horizon mismatch")
    x_all, t_all = _oracle_windows_to_batches(windows, config.input_size)
    net = RecurrentNetwork(config)
    state = optim.init_optimizer(config.optimizer, net.theta)
    shuffle_rng = derive_rng(config.seed, "shuffle")
    dropout_rng = derive_rng(config.seed, "dropout")
    n = windows.count
    batch = n if config.batch_size in (0, None) else min(config.batch_size, n)

    history = []
    last_finite = float("nan")
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            x = x_all[idx]
            target = t_all[idx]
            outputs, cache = net.forward(x, training=True, dropout_rng=dropout_rng)
            pred = outputs[:, -1, :]
            err = pred - target
            loss = float(np.mean(err * err))
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, last_finite)
            last_finite = loss
            batch_losses.append(loss)
            d_outputs = np.zeros_like(outputs)
            d_outputs[:, -1, :] = 2.0 * err / err.size
            grads = net.backward(cache, d_outputs)
            grads = optim.clip_global_norm(grads.vector, neural.GRAD_CLIP_NORM)
            optim.optimizer_step(net.theta, grads, state, config.learning_rate)
        history.append(float(np.mean(batch_losses)))
    return net, history


@dataclass(frozen=True)
class _OracleEpochLoss:
    total: float
    per_step: tuple


def _oracle_multistep_loss(preds, targets):
    err = preds - targets
    per_step = [float(np.mean(err[:, k] * err[:, k])) for k in range(err.shape[1])]
    return float(sum(per_step)), tuple(per_step)


def _oracle_teacher_forced(config, windows):
    if windows.count == 0:
        raise ValueError("cannot train on an empty window set")
    lookback, horizon = windows.lookback, windows.horizon
    x_all = teacher_forced_inputs(windows)
    t_all = windows.targets
    positions = multistep_positions(lookback, horizon)

    net = RecurrentNetwork(config)
    state = optim.init_optimizer(config.optimizer, net.theta)
    shuffle_rng = derive_rng(config.seed, "shuffle")
    dropout_rng = derive_rng(config.seed, "dropout")
    n = windows.count
    batch = n if config.batch_size in (0, None) else min(config.batch_size, n)

    history = []
    last_finite = float("nan")
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            x = x_all[idx]
            target = t_all[idx]
            outputs, cache = net.forward(x, training=True, dropout_rng=dropout_rng)
            preds = outputs[:, positions, 0]
            total, per_step = _oracle_multistep_loss(preds, target)
            if not np.isfinite(total):
                raise TrainingDivergedError(epoch, last_finite)
            last_finite = total
            epoch_losses.append(_OracleEpochLoss(total, per_step))
            d_outputs = np.zeros_like(outputs)
            d_outputs[:, positions, 0] = 2.0 * (preds - target) / len(idx)
            grads = net.backward(cache, d_outputs)
            grads = optim.clip_global_norm(grads.vector, neural.GRAD_CLIP_NORM)
            optim.optimizer_step(net.theta, grads, state, config.learning_rate)
        history.append(_OracleEpochLoss(
            float(np.mean([e.total for e in epoch_losses])),
            tuple(np.mean([e.per_step for e in epoch_losses], axis=0).tolist())))
    return net, history


def _series(n, seed=4):
    return generate_synthetic("ar1", n, seed=seed, alpha=0.7, sigma=1.0).values


def _assert_same_weights(net_a, net_b):
    params_b = net_b.parameters()
    for name, arr in net_a.parameters().items():
        npt.assert_array_equal(arr, params_b[name], err_msg=name)


FINAL_STEP_CASES = {
    "lstm_14day_sequence": ("lstm_14day", 40, dict(layers=2, hidden=4, epochs=3,
                                                   input_size=1)),
}


@pytest.mark.parametrize("case", sorted(FINAL_STEP_CASES))
def test_final_step_training_matches_oracle(case):
    kind, n, over = FINAL_STEP_CASES[case]
    cfg = default_network_config(kind, seed=9, **over)
    windows = make_windows(_series(n), kind_lookback(kind), 1)
    net, history = neural.train(cfg, windows)
    ref_net, ref_history = _oracle_final_step(cfg, windows)
    assert history == ref_history
    _assert_same_weights(net, ref_net)
    # the shared loop's per-position record holds the one final-step term
    _, records = neural.train_at_positions(
        cfg, neural.layout_windows(windows.inputs, cfg.input_size),
        windows.targets[:, None, :], [-1])
    assert [r.per_step for r in records] == [(h,) for h in ref_history]


@pytest.mark.parametrize("layers,batch_size", [(1, 0), (8, 32)])
def test_teacher_forced_training_matches_oracle(layers, batch_size):
    cfg = default_network_config("multistep_14_5", seed=5, layers=layers, hidden=5,
                                 epochs=3, batch_size=batch_size)
    windows = make_windows(_series(90, seed=6), 14, 5)
    net, history = train_multistep_teacher_forced(cfg, windows)
    ref_net, ref_history = _oracle_teacher_forced(cfg, windows)
    assert [(e.total, e.per_step) for e in history] == \
        [(e.total, e.per_step) for e in ref_history]
    _assert_same_weights(net, ref_net)


# tiny shapes at each kind's own cell, optimizer and dropout, in sequence
# presentation: the flat one trains without the oracles' recurrent weights
ALLOCATING_CASES = {
    "lstm_14day": (59, dict(layers=2, hidden=5, input_size=1)),
    "gru_14day": (60, dict(layers=3, hidden=4, input_size=1)),
    "multistep_14_5": (60, dict(layers=3, hidden=4, batch_size=16)),
}


def _train_kind(kind, seed):
    n, over = ALLOCATING_CASES[kind]
    cfg = default_network_config(kind, seed=seed, epochs=2, **over)
    windows = make_windows(_series(n, seed=seed), kind_lookback(kind), kind_horizon(kind))
    if kind == "multistep_14_5":
        net, history = train_multistep_teacher_forced(cfg, windows)
        return net, [(e.total, e.per_step) for e in history]
    return neural.train(cfg, windows)


@pytest.mark.parametrize("kind", sorted(ALLOCATING_CASES))
def test_training_matches_allocating_kernels_bit_for_bit(kind, monkeypatch):
    net, history = _train_kind(kind, seed=3)
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(neural, "sigmoid", counted("sigmoid", masked_sigmoid))
    monkeypatch.setattr(optim, "rmsprop_step", counted("step", allocating_rmsprop_step))
    monkeypatch.setattr(optim, "adam_step", counted("step", allocating_adam_step))
    # the former per-layer forward, whose cache the allocating backward reads
    monkeypatch.setattr(RecurrentNetwork, "forward", counted("forward", per_layer_forward))
    monkeypatch.setattr(RecurrentNetwork, "backward", counted("backward", allocating_backward))
    ref_net, ref_history = _train_kind(kind, seed=3)
    assert sorted(calls) == ["backward", "forward", "sigmoid", "step"]
    assert calls["step"] == calls["backward"] >= 4
    assert history == ref_history
    npt.assert_array_equal(net.theta.view(np.uint64), ref_net.theta.view(np.uint64))


# the one-step kinds at tiny shapes, each with its own cell, optimizer and
# dropout (the GRU's 0.2 with Adam), and a last partial batch
ONE_STEP_CASES = {
    "lstm_1day": (40, dict(layers=2, hidden=5)),
    "lstm_14day": (59, dict(layers=2, hidden=5)),
    "gru_14day": (60, dict(layers=3, hidden=4)),
}


@pytest.mark.parametrize("kind", sorted(ONE_STEP_CASES))
def test_one_step_training_matches_per_layer_kernels_bit_for_bit(kind, monkeypatch):
    """The one-step layer loop against the per-layer kernels, which run the
    full recursion from the zero state on the same layout, through training."""
    n, over = ONE_STEP_CASES[kind]
    cfg = default_network_config(kind, seed=3, epochs=3, **over)
    windows = make_windows(_series(n, seed=3), kind_lookback(kind), 1)
    if kind == "gru_14day":
        assert (cfg.dropout, cfg.optimizer) == (0.2, "adam")
    net, history = neural.train(cfg, windows)
    assert net.one_step
    calls = []

    def backward(self, cache, d_outputs, out=None):
        calls.append(1)
        return per_layer_backward(self, cache, d_outputs)

    monkeypatch.setattr(RecurrentNetwork, "forward", per_layer_forward)
    monkeypatch.setattr(RecurrentNetwork, "backward", backward)
    ref_net, ref_history = neural.train(cfg, windows)
    assert len(calls) == cfg.epochs * -(-windows.count // cfg.batch_size)
    assert history == ref_history
    npt.assert_array_equal(net.theta.view(np.uint64), ref_net.theta.view(np.uint64))


def _divergence(train_fn, cfg, windows):
    with pytest.raises(TrainingDivergedError) as exc:
        train_fn(cfg, windows)
    return exc.value.epoch, exc.value.last_finite_loss


@pytest.mark.parametrize("kind", ["lstm_14day", "multistep_14_5"])
def test_divergence_matches_oracle(kind):
    cfg = default_network_config(kind, layers=1, hidden=4, epochs=10,
                                 learning_rate=1e200)
    if kind == "lstm_14day":
        windows = make_windows(np.arange(40.0), 14, 1)
        merged, oracle = neural.train, _oracle_final_step
    else:
        windows = make_windows(np.arange(40.0), 14, 5)
        merged, oracle = train_multistep_teacher_forced, _oracle_teacher_forced
    # the merged loop lets no RuntimeWarning out; the oracle's loop does
    epoch, last_finite = _divergence(merged, cfg, windows)
    with np.errstate(over="ignore", invalid="ignore"):
        assert (epoch, last_finite) == _divergence(oracle, cfg, windows)
    assert np.isfinite(last_finite)
