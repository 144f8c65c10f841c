"""``RecurrentNetwork.forward(out=cache)`` refills an earlier forward's cache.

A training loop passes each step's activation cache to the next forward, so
a fit holds one cache instead of building the next beside the last.  The
refilled cache must hold exactly what a fresh forward's holds: its state
history, ``top`` and pre-activations in the arrays of the cache passed in,
and every other array in memory of its own, none of the earlier forward's.
A state history of another shape leaves the earlier cache alone.  Training
with the refill must match training with fresh caches bit for bit, and must
not hold two caches at once.
"""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from leancast import neural
from leancast.forecasters import (default_network_config, multistep_positions,
                                  teacher_forced_inputs, train_multistep_teacher_forced)
from leancast.neural import NetworkConfig, RecurrentNetwork, dropout_masks
from leancast.series import generate_synthetic, make_windows


def _bits(a):
    return np.asarray(a).view(np.uint64)


def _arrays(cache):
    """{path: array} of every array in a forward's cache."""
    found = {}

    def walk(path, value):
        if isinstance(value, np.ndarray):
            found[path] = value
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(path + (key,), item)
        elif isinstance(value, (list, tuple)):
            for j, item in enumerate(value):
                walk(path + (j,), item)

    walk((), cache)
    return found


def _assert_same_contents(path, got, want, layers, steps):
    if path == ("skew",):    # only the entries of a cell are set, and read
        got, want = ([s[layer + 1:layer + 1 + steps, layer] for layer in range(layers - 1)]
                     for s in (got, want))
    npt.assert_array_equal(_bits(got), _bits(want), err_msg=str(path))


# the arrays a refilled cache keeps from the cache passed in
REUSED = (("history",), ("top",), ("pre",))


def _assert_refilled(old, before, cache, fresh, own, layers, steps):
    """``cache``, refilled from ``old`` whose arrays were ``before``, holds
    what ``fresh`` holds: the REUSED arrays are the earlier ones, and every
    other array is a view into those or into this forward's ``own`` inputs,
    or shares no memory with any earlier array."""
    assert cache is old
    got, want = _arrays(cache), _arrays(fresh)
    assert set(got) == set(want)
    for path in REUSED:
        assert got[path] is before[path], path
    viewed = [got[path] for path in REUSED] + own
    for path, array in want.items():
        _assert_same_contents(path, got[path], array, layers, steps)
        if path in REUSED or any(np.shares_memory(got[path], a) for a in viewed):
            continue
        assert not any(np.may_share_memory(got[path], a) for a in before.values()), path


# (cell, layers, one_step, dropout, state): state="own" continues from the
# final state of the very cache that is refilled
CASES = [(cell, layers, one_step, dropout, state)
         for cell in ("lstm", "gru") for layers in (1, 2, 8) for one_step in (False, True)
         for dropout in (False, True) for state in (None, "own")
         if (layers > 1 or not dropout) and not (one_step and state)]


@pytest.mark.parametrize("cell,layers,one_step,dropout,state", CASES)
def test_refilled_cache_matches_a_fresh_forward_in_the_old_arrays(cell, layers, one_step,
                                                                  dropout, state):
    n, hidden, steps, input_size = 5, 4, 1 if one_step else 6, 3
    cfg = NetworkConfig(cell=cell, layers=layers, hidden=hidden, input_size=input_size,
                        output_size=2, dropout=0.3 if dropout else 0.0, seed=layers)
    net = RecurrentNetwork(cfg, one_step=one_step)
    rng = np.random.default_rng(layers + 10 * one_step)
    net.theta[:] = rng.normal(0, 0.5, net.theta.size)
    x1, x2 = (rng.normal(0, 1, (n, steps, input_size)) for _ in range(2))
    masks1, masks2 = ([dropout_masks(rng, (n, steps, hidden), 0.3) for _ in range(layers - 1)]
                      + [None] if dropout else None for _ in range(2))
    _, old = net.forward(x1, training=dropout, masks=masks1)
    before = _arrays(old)
    carried = copied = None
    if state:
        carried = net.final_state(old)
        copied = [tuple(s.copy() for s in layer) for layer in carried]

    outputs, cache = net.forward(x2, training=dropout, masks=masks2, state=carried, out=old)
    fresh_outputs, fresh = net.forward(x2, training=dropout, masks=masks2, state=copied)
    npt.assert_array_equal(_bits(outputs), _bits(fresh_outputs))
    own = [x2] + [mask for mask in masks2 or () if mask is not None]
    _assert_refilled(old, before, cache, fresh, own, layers, steps)

    d = rng.normal(0, 1, (n, steps, 2))
    npt.assert_array_equal(_bits(net.backward(cache, d).vector),
                           _bits(net.backward(fresh, d).vector))


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("dropout_before", [False, True])
def test_a_cache_is_refilled_whether_either_forward_drops_out(cell, dropout_before):
    """Only the state history's shape decides: a forward with dropout
    between layers refills the cache of one without, and the other way round."""
    cfg = NetworkConfig(cell=cell, layers=3, hidden=4, input_size=1, dropout=0.3, seed=2)
    net = RecurrentNetwork(cfg)
    rng = np.random.default_rng(3)
    _, old = net.forward(rng.normal(0, 1, (5, 6, 1)), training=dropout_before,
                         dropout_rng=np.random.default_rng(4))
    before = _arrays(old)
    x = rng.normal(0, 1, (5, 6, 1))
    outputs, cache = net.forward(x, training=not dropout_before,
                                 dropout_rng=np.random.default_rng(5), out=old)
    fresh_outputs, fresh = net.forward(x, training=not dropout_before,
                                       dropout_rng=np.random.default_rng(5))
    npt.assert_array_equal(_bits(outputs), _bits(fresh_outputs))
    _assert_refilled(old, before, cache, fresh, [x], 3, 6)


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("change", ["batch", "steps"])
def test_a_cache_of_other_shapes_is_left_alone(cell, change):
    cfg = NetworkConfig(cell=cell, layers=3, hidden=4, input_size=1, dropout=0.3, seed=2)
    net = RecurrentNetwork(cfg)
    rng = np.random.default_rng(3)
    _, old = net.forward(rng.normal(0, 1, (5, 6, 1)), training=True)
    kept = {path: array.copy() for path, array in _arrays(old).items()}
    x = rng.normal(0, 1, {"batch": (4, 6, 1), "steps": (5, 7, 1)}[change])
    outputs, cache = net.forward(x, training=True, dropout_rng=np.random.default_rng(4),
                                 out=old)
    fresh_outputs, fresh = net.forward(x, training=True, dropout_rng=np.random.default_rng(4))
    assert cache is not old
    npt.assert_array_equal(_bits(outputs), _bits(fresh_outputs))
    npt.assert_array_equal(_bits(cache["top"]), _bits(fresh["top"]))
    for path, array in _arrays(old).items():
        _assert_same_contents(path, array, kept[path], 3, 6)
        assert not any(np.shares_memory(array, a) for a in _arrays(cache).values()), path


# tiny shapes at each kind's own cell, optimizer and dropout, with a last
# partial batch (a fresh cache) except in the full-batch multistep fit
REFILL_KINDS = {
    "lstm_1day": (40, 1, dict(layers=3, hidden=4, dropout=0.3)),
    "lstm_14day": (40, 1, dict(layers=2, hidden=4, input_size=1)),
    "gru_14day": (45, 1, dict(layers=3, hidden=4, input_size=1)),
    "multistep_14_5": (40, 5, dict(layers=3, hidden=4)),
}


@pytest.mark.parametrize("kind", sorted(REFILL_KINDS))
def test_training_with_refilled_caches_matches_fresh_caches_bit_for_bit(kind, monkeypatch):
    n, horizon, over = REFILL_KINDS[kind]
    cfg = default_network_config(kind, seed=7, epochs=3, **over)
    values = generate_synthetic("ar1", n, seed=7, alpha=0.7, sigma=1.0).values
    windows = make_windows(values, 1 if kind == "lstm_1day" else 14, horizon)

    def train():
        if kind == "multistep_14_5":
            net, history = train_multistep_teacher_forced(cfg, windows)
            return net, [(e.total, e.per_step) for e in history]
        return neural.train(cfg, windows)

    net, history = train()
    refills = []
    forward = RecurrentNetwork.forward

    def fresh_forward(self, x, *args, out=None, **kwargs):
        refills.append(out is not None)
        return forward(self, x, *args, **kwargs)

    monkeypatch.setattr(RecurrentNetwork, "forward", fresh_forward)
    ref_net, ref_history = train()
    assert refills == [False] + [True] * (len(refills) - 1)    # each step's cache to the next
    assert history == ref_history
    npt.assert_array_equal(_bits(net.theta), _bits(ref_net.theta))


def _held_bytes(cache):
    """Bytes of the distinct buffers a cache's arrays hold."""
    owners = {}
    for array in _arrays(cache).values():
        while array.base is not None:
            array = array.base
        owners[id(array)] = array.nbytes
    return sum(owners.values())


def test_training_holds_one_activation_cache():
    """At the multistep_14_5 preset shape (66 windows, 8 layers of 8 over
    18 steps, full batch), the traced peak of training stays well below two
    forward caches."""
    cfg = default_network_config("multistep_14_5", seed=1, epochs=3)
    windows = make_windows(generate_synthetic("ar1", 84, seed=1, alpha=0.7).values, 14, 5)
    inputs, targets = teacher_forced_inputs(windows), windows.targets[:, :, None]
    assert inputs.shape == (66, 18, 1)
    _, cache = RecurrentNetwork(cfg).forward(inputs, training=True)
    one_cache = _held_bytes(cache)
    del cache
    tracemalloc.start()
    try:
        neural.train_at_positions(cfg, inputs, targets, multistep_positions(14, 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * one_cache, (peak, one_cache)
