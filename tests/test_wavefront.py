"""The wavefront schedule against the per-layer schedule it replaced.

``RecurrentNetwork.forward`` runs the cells (l, t) with equal l + t together
and ``backward`` walks those wavefronts in reverse.  Every cell sees the same
operands as in the former per-layer time loops (``reference_kernels``), so
outputs, the cache's top hidden states and the gradient vector must match
bit for bit, over both cells, with and without dropout masks, at shapes where
the wavefronts hold one cell (T = 1 or L = 1) and many.  One-step networks,
whose cells skip the terms of the zero state, are held to the per-layer
kernels run on the same layout.

``decode_multistep`` runs the lookback once and then one step per further
prediction from the carried per-layer state; it must return exactly what a
forward over the whole prefix per step returned.
"""

import itertools

import numpy as np
import numpy.testing as npt
import pytest

from leancast.forecasters import TrainedForecaster, decode_multistep, forecast_multistep
from leancast.neural import NetworkConfig, RecurrentNetwork, dropout_masks
from leancast.series import IDENTITY_SCALER
from reference_kernels import per_layer_backward, per_layer_forward, prefix_decode

SHAPES = list(itertools.product((1, 7, 66, 257), (4, 8, 32), (1, 5, 18), (1, 14)))


def _bits(a):
    return np.asarray(a).view(np.uint64)


LAYOUTS = [(cell, layers, dropout) for cell in ("lstm", "gru") for layers in (1, 2, 8)
           for dropout in (False, True) if layers > 1 or not dropout]


def _match_per_layer_schedule(cell, layers, dropout, shapes, one_step=False):
    for n, hidden, steps, input_size in shapes:
        shape = f"n={n} H={hidden} T={steps} I={input_size}"
        cfg = NetworkConfig(cell=cell, layers=layers, hidden=hidden, input_size=input_size,
                            output_size=2, dropout=0.3 if dropout else 0.0,
                            seed=n + hidden + steps)
        net = RecurrentNetwork(cfg, one_step=one_step)
        rng = np.random.default_rng(n * hidden + steps * input_size)
        # gate pre-activations then cover both saturated and linear regions
        net.theta[:] = rng.normal(0, 0.5, net.theta.size)
        x = rng.normal(0, 1, (n, steps, input_size))
        masks = None
        if dropout:
            masks = [dropout_masks(rng, (n, steps, hidden), 0.3)
                     for _ in range(layers - 1)] + [None]
        outputs, cache = net.forward(x, training=dropout, masks=masks)
        ref_outputs, ref_cache = per_layer_forward(net, x, training=dropout, masks=masks)
        npt.assert_array_equal(_bits(outputs), _bits(ref_outputs), err_msg=shape)
        npt.assert_array_equal(_bits(cache["top"]), _bits(ref_cache["top"]), err_msg=shape)
        d_outputs = rng.normal(0, 1, outputs.shape)
        grads = net.backward(cache, d_outputs).vector
        ref_grads = per_layer_backward(net, ref_cache, d_outputs).vector
        npt.assert_array_equal(_bits(grads), _bits(ref_grads), err_msg=shape)


@pytest.mark.parametrize("cell,layers,dropout", LAYOUTS)
def test_wavefronts_match_per_layer_schedule_bit_for_bit(cell, layers, dropout):
    _match_per_layer_schedule(cell, layers, dropout, SHAPES)


@pytest.mark.parametrize("cell,layers,dropout", LAYOUTS)
def test_one_step_layout_matches_per_layer_schedule_bit_for_bit(cell, layers, dropout):
    """A one-step network (no recurrent weights, T = 1 from zero state)
    against the per-layer kernels' full recursion on the same layout."""
    _match_per_layer_schedule(cell, layers, dropout,
                              [shape for shape in SHAPES if shape[2] == 1], one_step=True)


def test_dropout_masks_are_drawn_in_layer_order():
    cfg = NetworkConfig(cell="lstm", layers=3, hidden=4, input_size=1, dropout=0.4, seed=2)
    net = RecurrentNetwork(cfg)
    x = np.random.default_rng(0).normal(0, 1, (6, 5, 1))
    outputs, cache = net.forward(x, training=True, dropout_rng=np.random.default_rng(9))
    ref_outputs, ref_cache = per_layer_forward(net, x, training=True,
                                               dropout_rng=np.random.default_rng(9))
    for mask, ref_mask in zip(cache["masks"], ref_cache["masks"]):
        npt.assert_array_equal(mask, ref_mask)
    npt.assert_array_equal(_bits(outputs), _bits(ref_outputs))


@pytest.mark.parametrize("split", [0, 6])
@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_final_state_continues_the_sequence(cell, split):
    """A forward over a prefix and one from its final state over the rest
    give the top hidden states of one forward over the whole sequence (the
    readout is not compared: BLAS may sum a longer sequence's rows another
    way).  An empty prefix leaves the initial state."""
    net = RecurrentNetwork(NetworkConfig(cell=cell, layers=3, hidden=5, input_size=2, seed=4))
    x = np.random.default_rng(1).normal(0, 1, (7, 9, 2))
    _, whole = net.forward(x)
    _, head = net.forward(x[:, :split])
    _, tail = net.forward(x[:, split:], state=net.final_state(head))
    npt.assert_array_equal(_bits(tail["top"]), _bits(whole["top"][:, split:]))


@pytest.mark.parametrize("layers", [1, 8])
def test_carried_decode_matches_prefix_rerun(layers):
    net = RecurrentNetwork(NetworkConfig(cell="lstm", layers=layers, hidden=8, input_size=1,
                                         seed=layers))
    batch = np.random.default_rng(layers).random((33, 14))
    for values in (batch, batch[5]):
        preds, consumed = decode_multistep(net, values, 5)
        ref_preds, ref_consumed = prefix_decode(net, values, 5)
        npt.assert_array_equal(_bits(preds), _bits(ref_preds))
        npt.assert_array_equal(_bits(consumed), _bits(ref_consumed))


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_empty_sequence_runs_no_wavefront(cell):
    net = RecurrentNetwork(NetworkConfig(cell=cell, layers=3, hidden=4, input_size=1,
                                         dropout=0.5))
    outputs, cache = net.forward(np.zeros((2, 0, 1)), training=True)
    assert outputs.shape == (2, 0, 1) and cache["fronts"] == []
    assert not net.backward(cache, outputs).vector.any()


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_empty_batch_runs_every_wavefront(cell):
    net = RecurrentNetwork(NetworkConfig(cell=cell, layers=3, hidden=4, input_size=1,
                                         dropout=0.5))
    outputs, cache = net.forward(np.zeros((0, 5, 1)), training=True)
    assert outputs.shape == (0, 5, 1) and len(cache["fronts"]) == 7
    assert not net.backward(cache, outputs).vector.any()
    assert [s.shape for state in net.final_state(cache) for s in state] == \
        [(0, 4)] * (3 if cell == "gru" else 6)
    model = TrainedForecaster("multistep_14_5", net, IDENTITY_SCALER, {})
    assert forecast_multistep(model, np.empty((0, 14))).shape == (0, 5)
