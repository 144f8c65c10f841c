"""Named forecasting model configurations behind one fitting and
prediction contract.

Five kinds are available:

====================  =========================================
kind                  meaning
====================  =========================================
sarima                seasonal ARIMA on the raw series
lstm_1day             LSTM fed yesterday's value only
lstm_14day            LSTM fed the last 14 days as one flat vector
gru_14day             GRU fed the last 14 days as one flat vector
multistep_14_5        teacher-forced LSTM, 14 days in, 5 days out
====================  =========================================

Neural kinds min-max scale with a scaler fit on the training half only and
report on the original scale; SARIMA works on raw values (identity scaler).
The 14-day kinds consume the lookback flat (a single cell step over a
14-dimensional input); passing a network config with input_size=1 switches
to a 14-step sequence presentation instead.  A kind trained on one step
(lstm_1day, and the flat 14-day kinds) gets a network without recurrent
weights, which a single step from zero state would never use (see
``neural``); its model file's theta holds only the live weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import neural, sarima
from .neural import NetworkConfig, RecurrentNetwork
from .neural import MultistepEpochLoss, multistep_loss  # noqa: F401  (re-exported)
from .series import (IDENTITY_SCALER, ScalerState, SplitPair, WindowSet,
                     fit_scaler, make_windows)

KINDS = ("sarima", "lstm_1day", "lstm_14day", "gru_14day", "multistep_14_5")

# kind -> (cell, lookback, horizon); sarima conditions on full history
_NEURAL_SHAPES = {
    "lstm_1day": ("lstm", 1, 1),
    "lstm_14day": ("lstm", 14, 1),
    "gru_14day": ("gru", 14, 1),
    "multistep_14_5": ("lstm", 14, 5),
}


def kind_lookback(kind: str) -> int:
    return _NEURAL_SHAPES[kind][1] if kind in _NEURAL_SHAPES else 1


def kind_horizon(kind: str) -> int:
    return _NEURAL_SHAPES[kind][2] if kind in _NEURAL_SHAPES else 1


@dataclass
class TrainedForecaster:
    kind: str
    model: object                  # SarimaFit or RecurrentNetwork
    scaler: ScalerState
    metadata: dict

    @property
    def lookback(self) -> int:
        return kind_lookback(self.kind)

    @property
    def horizon(self) -> int:
        return kind_horizon(self.kind)


def default_network_config(kind: str, seed: int = 0, **overrides) -> NetworkConfig:
    """Per-kind network defaults; keyword overrides win.  The lookback is
    presented as one flat step or as scalar steps; a multistep kind's
    decoder feeds back one value per step, so it takes scalar steps only."""
    if kind not in _NEURAL_SHAPES:
        raise ValueError(f"no network config for kind {kind!r}")
    cell, lookback, horizon = _NEURAL_SHAPES[kind]
    base = dict(cell=cell, layers=4, hidden=32, input_size=lookback,
                output_size=1, dropout=0.0, seed=seed, learning_rate=0.001,
                epochs=500, batch_size=8, optimizer="rmsprop")
    if kind == "gru_14day":
        base.update(dropout=0.2, optimizer="adam", learning_rate=0.002,
                    epochs=500, batch_size=16)
    elif kind == "multistep_14_5":
        base.update(layers=8, hidden=8, input_size=1, epochs=125,
                    learning_rate=0.005, batch_size=0)
    base.update(overrides)
    config = NetworkConfig(**base)
    sizes = [1] if horizon > 1 else sorted({1, lookback})
    if config.input_size not in sizes:
        raise ValueError(f"input_size must be {' or '.join(map(str, sizes))}, "
                         f"got {config.input_size}")
    return config


def fit_forecaster(kind: str, split: SplitPair, config=None, seed: int = 0) -> TrainedForecaster:
    """Fit one model kind on the training half of ``split``.

    ``config`` is a SarimaSpec or GridSpec for kind="sarima", an optional
    NetworkConfig for the neural kinds (defaults seeded by ``seed`` if omitted).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown forecaster kind {kind!r}; expected one of {KINDS}")
    train_values = split.train.values

    # metadata holds only what the model document lacks
    if kind == "sarima":
        if isinstance(config, sarima.GridSpec):
            result = sarima.grid_search(train_values, config)
            fit, meta = result.fit, {"grid_candidates": len(result.candidates)}
        elif isinstance(config, sarima.SarimaSpec):
            fit, meta = sarima.fit(train_values, config), {}
        else:
            raise TypeError("sarima requires a SarimaSpec or GridSpec config")
        return TrainedForecaster("sarima", fit, IDENTITY_SCALER, meta)

    cell, lookback, horizon = _NEURAL_SHAPES[kind]
    minimum = lookback + horizon
    if len(train_values) < minimum:
        raise ValueError(
            f"kind {kind!r} needs at least {minimum} training points "
            f"(lookback {lookback} + horizon {horizon}), got {len(train_values)}")
    if config is None:
        config = default_network_config(kind, seed=seed)
    if config.cell != cell:
        raise ValueError(f"kind {kind!r} uses a {cell} cell, config says {config.cell!r}")
    scaler = fit_scaler(train_values)
    windows = make_windows(scaler.apply(train_values), lookback, horizon)
    if kind == "multistep_14_5":
        net, history = train_multistep_teacher_forced(config, windows)
        final = history[-1].total       # NetworkConfig requires epochs >= 1
    else:
        net, losses = neural.train(config, windows)
        final = losses[-1]
    return TrainedForecaster(kind, net, scaler, {"final_loss": final})


def predict_next(model: TrainedForecaster, history) -> float:
    """One-step-ahead prediction on the original scale.

    ``history`` is the full value history up to and including today; the
    model conditions on its own lookback's worth of the tail (SARIMA uses
    everything).
    """
    history = np.asarray(history, dtype=np.float64)
    if model.kind == "sarima":
        return float(sarima.forecast(model.model, history, 1)[0])
    lookback = model.lookback
    if len(history) < lookback:
        raise ValueError(f"history has {len(history)} values; need at least {lookback}")
    scaled = model.scaler.apply(history[-lookback:])
    return float(model.scaler.invert(_last_step_outputs(model.model, scaled[None]))[0])


def _last_step_outputs(net: RecurrentNetwork, scaled_inputs: np.ndarray) -> np.ndarray:
    """Last-step output for each row of (N, lookback) scaled windows from
    one forward in the training layout; the forward cache is dropped at once."""
    return net.forward(neural.layout_windows(scaled_inputs, net.config.input_size))[0][:, -1, 0]


# -- teacher-forced multistep -------------------------------------------


def teacher_forced_inputs(windows: WindowSet) -> np.ndarray:
    """Decoder input tensor for teacher-forced training.

    Shape (count, L+H-1, 1): positions 0..L-1 hold the lookback, position
    L-1+j holds the ground-truth target for step j (j = 1..H-1).  The
    output read at position L-2+k is the prediction of step k, so step 1's
    input is the last lookback day and step k's input (k > 1) is the true
    value of step k-1, never the model's own output.
    """
    lead = windows.inputs
    truth = windows.targets[:, :-1]
    return np.concatenate([lead, truth], axis=1)[:, :, None]


def multistep_positions(lookback: int, horizon: int) -> list:
    """Time indices whose outputs are the H predictions."""
    return [lookback - 1 + k for k in range(horizon)]


def train_multistep_teacher_forced(config: NetworkConfig, windows: WindowSet):
    """Train one shared stacked network on all H steps at once.

    The network is unrolled over lookback + horizon - 1 time steps per
    window; during training the decoder positions see ground truth (teacher
    forcing), and the loss is the sum of the per-step MSEs.  This is
    ``neural.train_at_positions`` read out at the H decoder positions; it
    returns the network and a per-epoch list of MultistepEpochLoss.
    """
    if config.input_size != 1:
        raise ValueError("teacher-forced training is sequence mode; input_size must be 1")
    if config.output_size != 1:
        raise ValueError("output_size must be 1; the horizon is unrolled over time")
    if windows.horizon < 2:
        raise ValueError(f"horizon {windows.horizon} leaves nothing to teacher-force; need >= 2")
    return neural.train_at_positions(config, teacher_forced_inputs(windows),
                                     windows.targets[:, :, None],
                                     multistep_positions(windows.lookback, windows.horizon))


def decode_multistep(net: RecurrentNetwork, scaled_values: np.ndarray, horizon: int):
    """Autoregressive decoding in scaled space.

    ``scaled_values`` is one window (L,) or a batch (..., L).  One forward
    runs the lookback; each further step runs one step from the carried
    per-layer state, fed the model's own previous prediction (no ground
    truth involved).  The readout of each prediction runs over the whole
    top-layer prefix, so it sums as a forward over that prefix would.
    Returns (predictions (..., horizon), input sequence as finally consumed
    (..., L+horizon-1)) so callers can verify what the decoder was fed.
    """
    values = np.asarray(scaled_values, dtype=np.float64)
    lead, lookback = values.shape[:-1], values.shape[-1]
    seq = np.empty((int(np.prod(lead)), lookback + horizon))
    seq[:, :lookback] = values.reshape(-1, lookback)
    top = np.empty((len(seq), lookback + horizon - 1, net.config.hidden))
    state, done = None, 0
    for k in range(horizon):
        _, cache = net.forward(seq[:, done:lookback + k, None], state=state)
        top[:, done:lookback + k], state, done = cache["top"], net.final_state(cache), lookback + k
        seq[:, done] = (top[:, :done] @ net.W_out.T + net.b_out)[:, -1, 0]
    return (seq[:, lookback:].reshape(lead + (horizon,)),
            seq[:, :-1].reshape(lead + (lookback + horizon - 1,)))


def forecast_multistep(model: TrainedForecaster, last_values) -> np.ndarray:
    """Predict the kind's full horizon from one lookback window (L,) or each row of (N, L)."""
    if model.kind != "multistep_14_5":
        raise ValueError(f"forecast_multistep needs a multistep model, got {model.kind!r}")
    values = np.asarray(last_values, dtype=np.float64)
    lookback, horizon = model.lookback, model.horizon
    if values.ndim not in (1, 2) or values.shape[-1] != lookback:
        raise ValueError(f"expected {lookback} values per window, got shape {values.shape}")
    scaled = model.scaler.apply(values)
    preds, _ = decode_multistep(model.model, scaled, horizon)
    return model.scaler.invert(preds)


# -- serialization --------------------------------------------------------


def forecaster_to_json(model: TrainedForecaster) -> str:
    doc = {"kind": model.kind,
           "scaler": {"min": model.scaler.min, "max": model.scaler.max},
           "model": model.model.to_doc(),
           "metadata": model.metadata}
    return json.dumps(doc, sort_keys=True)


def forecaster_from_json(text: str) -> TrainedForecaster:
    """A model file's forecaster; files whose metadata repeats model facts,
    as older ones do, load too."""
    doc = json.loads(text)
    kind = doc["kind"]
    if kind not in KINDS:
        raise ValueError(f"unknown forecaster kind {kind!r}")
    scaler = ScalerState(doc["scaler"]["min"], doc["scaler"]["max"])
    model = (sarima.SarimaFit if kind == "sarima" else RecurrentNetwork).from_doc(doc["model"])
    return TrainedForecaster(kind, model, scaler, doc.get("metadata", {}))
