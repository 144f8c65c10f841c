"""One-step networks, which train without recurrent weights, against the
full layout they replace.

A network trained on one-step input runs one cell step from a zero state,
so its recurrent weights (an LSTM's h-columns of W, a GRU's U) never reach
an output and never get a gradient; ``train_at_positions`` builds it
without them.  Driven through the same loop, the full layout
(``RecurrentNetwork(config)``) must give the same training up to
summation order: the GEMMs no longer add the zero h-products, and the
global-norm dot product runs over a shorter vector.  The entries the
one-step layout drops must still hold their initial draw after training on
the full layout, which shows that they were dead.
"""

import numpy as np
import numpy.testing as npt
import pytest

from leancast import neural
from leancast.forecasters import default_network_config, kind_lookback
from leancast.neural import (CellState, FlatParameters, NetworkConfig, RecurrentNetwork,
                             dropout_masks, gru_step, lstm_step)
from leancast.series import generate_synthetic, make_windows

# relative to the largest magnitude compared: only the summation order differs
RTOL = 1e-12

# the one-step cases of test_training_loop.py's oracles:
# case -> (kind, series length, series seed, config seed, overrides)
CASES = {
    # 59 values give 45 fourteen-day windows, which batches of 8 do not divide
    "lstm_14day_flat_batch8": ("lstm_14day", 59, 4, 9, dict(layers=2, hidden=6, epochs=4)),
    "lstm_1day": ("lstm_1day", 40, 4, 9, dict(layers=2, hidden=5, epochs=4)),
    "gru_dropout_adam_batch16": ("gru_14day", 60, 4, 9, dict(layers=3, hidden=6, epochs=4)),
    # the allocating-kernel cases: each kind's own cell, optimizer and dropout
    "lstm_1day_tiny": ("lstm_1day", 40, 3, 3, dict(layers=2, hidden=4, epochs=2)),
    "lstm_14day_tiny": ("lstm_14day", 59, 3, 3, dict(layers=2, hidden=5, epochs=2)),
    "gru_14day_tiny": ("gru_14day", 60, 3, 3, dict(layers=3, hidden=4, epochs=2)),
}


def _case(case):
    kind, n, series_seed, seed, over = CASES[case]
    cfg = default_network_config(kind, seed=seed, **over)
    values = generate_synthetic("ar1", n, seed=series_seed, alpha=0.7, sigma=1.0).values
    return cfg, make_windows(values, kind_lookback(kind), 1)


def _live(cfg):
    """Mask over the full layout's theta of the entries a one-step layout keeps."""
    mask = FlatParameters(cfg)
    for name, view in FlatParameters(cfg, one_step=True).items():
        mask[name][..., -view.shape[-1]:] = 1.0
    return mask.vector == 1.0


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_step_training_matches_full_layout(case, monkeypatch):
    cfg, windows = _case(case)
    if case == "gru_dropout_adam_batch16":
        assert (cfg.dropout, cfg.optimizer, cfg.batch_size) == (0.2, "adam", 16)
    if case == "lstm_14day_flat_batch8":
        assert windows.count % cfg.batch_size != 0
    net, history = neural.train(cfg, windows)
    assert net.one_step
    full = neural.RecurrentNetwork
    monkeypatch.setattr(neural, "RecurrentNetwork", lambda config, one_step=False: full(config))
    ref, ref_history = neural.train(cfg, windows)
    assert not ref.one_step
    for loss, ref_loss in zip(history, ref_history, strict=True):
        assert abs(loss - ref_loss) <= RTOL * abs(ref_loss)
    live = _live(cfg)
    assert live.sum() == net.theta.size < ref.theta.size
    kept = ref.theta[live]
    assert np.max(np.abs(net.theta - kept)) <= RTOL * np.max(np.abs(kept))
    # what the one-step layout drops kept its initial draw on the full one
    dead = ~live
    npt.assert_array_equal(ref.theta[dead].view(np.uint64),
                           full(cfg).theta[dead].view(np.uint64))


@pytest.mark.parametrize("kind,over", [(kind, over) for kind in
                                       ("lstm_1day", "lstm_14day", "gru_14day")
                                       for over in ({}, dict(layers=3, hidden=5))])
def test_one_step_init_keeps_the_full_draws_live_columns(kind, over):
    cfg = default_network_config(kind, seed=6, **over)
    net = RecurrentNetwork(cfg, one_step=True)
    npt.assert_array_equal(net.theta.view(np.uint64),
                           RecurrentNetwork(cfg).theta[_live(cfg)].view(np.uint64))


def test_one_step_layout_sizes_at_preset_shapes():
    sizes = {kind: (RecurrentNetwork(default_network_config(kind)).theta.size,
                    RecurrentNetwork(default_network_config(kind), one_step=True).theta.size)
             for kind in ("lstm_1day", "lstm_14day", "gru_14day")}
    assert sizes == {"lstm_1day": (29345, 12961), "lstm_14day": (31009, 14625),
                     "gru_14day": (23265, 10977)}


def test_only_one_step_input_trains_a_one_step_network():
    values = generate_synthetic("ar1", 40, seed=2, alpha=0.7, sigma=1.0).values
    windows = make_windows(values, 14, 1)
    flat = default_network_config("lstm_14day", layers=1, hidden=3, epochs=1)
    assert neural.train(flat, windows)[0].one_step
    sequence = default_network_config("lstm_14day", layers=1, hidden=3, epochs=1, input_size=1)
    assert not neural.train(sequence, windows)[0].one_step


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("seed", range(3))
def test_one_step_backward_matches_central_differences(cell, seed):
    """Criterion 01's probe at T = 1, with dropout between the layers."""
    rng = np.random.default_rng(seed)
    cfg = NetworkConfig(cell=cell, layers=3, hidden=3, input_size=2, output_size=2,
                        dropout=0.4, seed=seed + 900)
    net = RecurrentNetwork(cfg, one_step=True)
    x = rng.normal(0, 1, (2, 1, 2))
    rvec = rng.normal(0, 1, (2, 1, 2))
    masks = [dropout_masks(rng, (2, 1, 3), 0.4) for _ in range(2)] + [None]

    def loss():
        out, _ = net.forward(x, training=True, masks=masks)
        return float(np.sum(out * rvec))

    _, cache = net.forward(x, training=True, masks=masks)
    analytic = net.backward(cache, rvec).vector
    assert analytic.size == net.theta.size
    worst, delta = 0.0, 1e-5
    for j in range(net.theta.size):
        orig = net.theta[j]
        net.theta[j] = orig + delta
        up = loss()
        net.theta[j] = orig - delta
        down = loss()
        net.theta[j] = orig
        numeric = (up - down) / (2 * delta)
        worst = max(worst, abs(analytic[j] - numeric) / max(abs(analytic[j]), abs(numeric), 1e-8))
    assert worst < 1e-4


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_one_step_network_rejects_more_steps_or_a_state(cell):
    net = RecurrentNetwork(NetworkConfig(cell=cell, layers=2, hidden=3, input_size=2),
                           one_step=True)
    _, cache = net.forward(np.ones((4, 1, 2)))
    with pytest.raises(ValueError, match="one-step network"):
        net.forward(np.ones((4, 2, 2)))
    with pytest.raises(ValueError, match="one-step network"):
        net.final_state(cache)
    state = [(np.zeros((4, 3)),) * (2 if cell == "lstm" else 1)] * 2
    with pytest.raises(ValueError, match="one-step network"):
        net.forward(np.ones((4, 1, 2)), state=state)
    layer = net.layers[0]
    assert (layer.one_step, layer.hidden, layer.input_size) == (True, 3, 2)
    with pytest.raises(ValueError, match="one-step network"):
        if cell == "lstm":
            lstm_step(np.ones(2), CellState(np.zeros(3), np.zeros(3)), layer)
        else:
            gru_step(np.ones(2), np.zeros(3), layer)


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_one_step_model_document_holds_no_recurrent_weights(cell):
    cfg = NetworkConfig(cell=cell, layers=2, hidden=3, input_size=4, seed=2)
    net = RecurrentNetwork(cfg, one_step=True)
    doc = net.to_doc()
    assert sum(len(entry["data"]) for entry in doc["weights"].values()) == net.theta.size
    assert not any(name.split(".")[1].startswith("U") for name in doc["weights"])
    clone = RecurrentNetwork.from_doc(doc)
    assert clone.one_step
    npt.assert_array_equal(clone.theta.view(np.uint64), net.theta.view(np.uint64))
    full = RecurrentNetwork(cfg)
    assert not RecurrentNetwork.from_doc(full.to_doc()).one_step
