"""Recurrent network core: LSTM and GRU cells, stacked forward pass,
backpropagation through time, and the one mini-batch training loop,
:func:`train_at_positions`: every neural kind trains through it, scored at
its readout positions (the final step, or the teacher-forced decoder steps).

The LSTM gates act on the concatenation [h_{t-1}, x_t]:

    i = sigmoid(W_i [h, x] + b_i)        f = sigmoid(W_f [h, x] + b_f)
    g = tanh   (W_g [h, x] + b_g)        o = sigmoid(W_o [h, x] + b_o)
    c_t = f * c_{t-1} + i * g            h_t = o * tanh(c_t)

The GRU keeps separate input and recurrent matrices:

    z = sigmoid(W_z x + U_z h + b_z)     r = sigmoid(W_r x + U_r h + b_r)
    hcand = tanh(W_h x + U_h (r * h) + b_h)
    h_t = (1 - z) * h + z * hcand

All math is float64 numpy; gradients are exact reverse-mode derivatives of
the forward recursion (checked against finite differences in the tests).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, field

import numpy as np

from . import optim
from .rng import derive_rng

GRAD_CLIP_NORM = 5.0


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, last_finite_loss: float):
        super().__init__(
            f"loss became non-finite at epoch {epoch}; "
            f"last finite loss was {last_finite_loss:.6g}")
        self.epoch = epoch
        self.last_finite_loss = last_finite_loss


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class NetworkConfig:
    cell: str = "lstm"               # lstm | gru
    layers: int = 1
    hidden: int = 32
    input_size: int = 1
    output_size: int = 1
    dropout: float = 0.0
    seed: int = 0
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 0              # 0 means full batch
    optimizer: str = "rmsprop"       # rmsprop | adam

    def __post_init__(self):
        if self.cell not in ("lstm", "gru"):
            raise ValueError(f"unknown cell {self.cell!r}")
        for name in ("layers", "hidden", "input_size", "output_size", "epochs", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.layers < 1 or self.hidden < 1 or self.input_size < 1 or self.output_size < 1:
            raise ValueError("layers, hidden, input_size and output_size must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0 (0 means full batch)")
        if self.optimizer not in ("rmsprop", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class LstmLayerWeights:
    W_i: np.ndarray
    W_f: np.ndarray
    W_g: np.ndarray
    W_o: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_g: np.ndarray
    b_o: np.ndarray

    FIELDS = ("W_i", "W_f", "W_g", "W_o", "b_i", "b_f", "b_g", "b_o")

    @property
    def hidden(self):
        return self.W_i.shape[0]

    @property
    def input_size(self):
        return self.W_i.shape[1] - self.W_i.shape[0]


@dataclass
class GruLayerWeights:
    W_z: np.ndarray
    W_r: np.ndarray
    W_h: np.ndarray
    U_z: np.ndarray
    U_r: np.ndarray
    U_h: np.ndarray
    b_z: np.ndarray
    b_r: np.ndarray
    b_h: np.ndarray

    FIELDS = ("W_z", "W_r", "W_h", "U_z", "U_r", "U_h", "b_z", "b_r", "b_h")

    @property
    def hidden(self):
        return self.U_z.shape[0]

    @property
    def input_size(self):
        return self.W_z.shape[1]


@dataclass
class CellState:
    h: np.ndarray
    c: np.ndarray | None = None    # LSTM only


def zero_lstm_weights(input_size: int, hidden: int) -> LstmLayerWeights:
    gate = lambda: np.zeros((hidden, hidden + input_size))
    bias = lambda: np.zeros(hidden)
    return LstmLayerWeights(gate(), gate(), gate(), gate(), bias(), bias(), bias(), bias())


def zero_gru_weights(input_size: int, hidden: int) -> GruLayerWeights:
    return GruLayerWeights(
        np.zeros((hidden, input_size)), np.zeros((hidden, input_size)),
        np.zeros((hidden, input_size)), np.zeros((hidden, hidden)),
        np.zeros((hidden, hidden)), np.zeros((hidden, hidden)),
        np.zeros(hidden), np.zeros(hidden), np.zeros(hidden))


def lstm_step(x, state: CellState, w: LstmLayerWeights) -> CellState:
    """One LSTM cell update on plain vectors."""
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(state.h, dtype=np.float64)
    c = np.asarray(state.c, dtype=np.float64)
    if x.shape != (w.input_size,) or h.shape != (w.hidden,) or c.shape != (w.hidden,):
        raise ValueError(
            f"shape mismatch: x {x.shape}, h {h.shape}, c {c.shape} for "
            f"hidden={w.hidden}, input={w.input_size}")
    zcat = np.concatenate([h, x])
    i = sigmoid(w.W_i @ zcat + w.b_i)
    f = sigmoid(w.W_f @ zcat + w.b_f)
    g = np.tanh(w.W_g @ zcat + w.b_g)
    o = sigmoid(w.W_o @ zcat + w.b_o)
    c_new = f * c + i * g
    return CellState(h=o * np.tanh(c_new), c=c_new)


def gru_step(x, h, w: GruLayerWeights) -> np.ndarray:
    """One GRU cell update on plain vectors."""
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if x.shape != (w.input_size,) or h.shape != (w.hidden,):
        raise ValueError(
            f"shape mismatch: x {x.shape}, h {h.shape} for "
            f"hidden={w.hidden}, input={w.input_size}")
    z = sigmoid(w.W_z @ x + w.U_z @ h + w.b_z)
    r = sigmoid(w.W_r @ x + w.U_r @ h + w.b_r)
    hcand = np.tanh(w.W_h @ x + w.U_h @ (r * h) + w.b_h)
    return (1.0 - z) * h + z * hcand


def _lstm_layer_forward(x_seq, w: LstmLayerWeights):
    n, steps, _ = x_seq.shape
    hidden = w.hidden
    h = np.zeros((n, hidden))
    c = np.zeros((n, hidden))
    hs = np.empty((n, steps, hidden))
    caches = []
    for t in range(steps):
        zcat = np.concatenate([h, x_seq[:, t, :]], axis=1)
        i = sigmoid(zcat @ w.W_i.T + w.b_i)
        f = sigmoid(zcat @ w.W_f.T + w.b_f)
        g = np.tanh(zcat @ w.W_g.T + w.b_g)
        o = sigmoid(zcat @ w.W_o.T + w.b_o)
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h = o * tc
        hs[:, t, :] = h
        caches.append((zcat, i, f, g, o, c, tc))
        c = c_new
    return hs, caches


def _lstm_layer_backward(dh_seq, w: LstmLayerWeights, caches, input_size: int):
    n, steps, hidden = dh_seq.shape
    grads = {name: np.zeros_like(getattr(w, name)) for name in w.FIELDS}
    dx_seq = np.empty((n, steps, input_size))
    dh_next = np.zeros((n, hidden))
    dc_next = np.zeros((n, hidden))
    for t in reversed(range(steps)):
        zcat, i, f, g, o, c_prev, tc = caches[t]
        dh = dh_seq[:, t, :] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        df = dc * c_prev
        di = dc * g
        dg = dc * i
        dc_next = dc * f
        da_i = di * i * (1.0 - i)
        da_f = df * f * (1.0 - f)
        da_g = dg * (1.0 - g * g)
        da_o = do * o * (1.0 - o)
        grads["W_i"] += da_i.T @ zcat
        grads["W_f"] += da_f.T @ zcat
        grads["W_g"] += da_g.T @ zcat
        grads["W_o"] += da_o.T @ zcat
        grads["b_i"] += da_i.sum(axis=0)
        grads["b_f"] += da_f.sum(axis=0)
        grads["b_g"] += da_g.sum(axis=0)
        grads["b_o"] += da_o.sum(axis=0)
        dzcat = da_i @ w.W_i + da_f @ w.W_f + da_g @ w.W_g + da_o @ w.W_o
        dh_next = dzcat[:, :hidden]
        dx_seq[:, t, :] = dzcat[:, hidden:]
    return dx_seq, grads


def _gru_layer_forward(x_seq, w: GruLayerWeights):
    n, steps, _ = x_seq.shape
    hidden = w.hidden
    h = np.zeros((n, hidden))
    hs = np.empty((n, steps, hidden))
    caches = []
    for t in range(steps):
        x = x_seq[:, t, :]
        z = sigmoid(x @ w.W_z.T + h @ w.U_z.T + w.b_z)
        r = sigmoid(x @ w.W_r.T + h @ w.U_r.T + w.b_r)
        rh = r * h
        hcand = np.tanh(x @ w.W_h.T + rh @ w.U_h.T + w.b_h)
        h_new = (1.0 - z) * h + z * hcand
        caches.append((x, h, z, r, rh, hcand))
        hs[:, t, :] = h_new
        h = h_new
    return hs, caches


def _gru_layer_backward(dh_seq, w: GruLayerWeights, caches, input_size: int):
    n, steps, hidden = dh_seq.shape
    grads = {name: np.zeros_like(getattr(w, name)) for name in w.FIELDS}
    dx_seq = np.empty((n, steps, input_size))
    dh_next = np.zeros((n, hidden))
    for t in reversed(range(steps)):
        x, h_prev, z, r, rh, hcand = caches[t]
        dh = dh_seq[:, t, :] + dh_next
        dz = dh * (hcand - h_prev)
        dhcand = dh * z
        dh_prev = dh * (1.0 - z)
        da_h = dhcand * (1.0 - hcand * hcand)
        grads["W_h"] += da_h.T @ x
        grads["U_h"] += da_h.T @ rh
        grads["b_h"] += da_h.sum(axis=0)
        drh = da_h @ w.U_h
        dr = drh * h_prev
        dh_prev = dh_prev + drh * r
        da_r = dr * r * (1.0 - r)
        grads["W_r"] += da_r.T @ x
        grads["U_r"] += da_r.T @ h_prev
        grads["b_r"] += da_r.sum(axis=0)
        dh_prev = dh_prev + da_r @ w.U_r
        da_z = dz * z * (1.0 - z)
        grads["W_z"] += da_z.T @ x
        grads["U_z"] += da_z.T @ h_prev
        grads["b_z"] += da_z.sum(axis=0)
        dh_prev = dh_prev + da_z @ w.U_z
        dx_seq[:, t, :] = da_h @ w.W_h + da_r @ w.W_r + da_z @ w.W_z
        dh_next = dh_prev
    return dx_seq, grads


def dropout_masks(rng, shape, rate: float) -> np.ndarray:
    """Inverted dropout: zeros a ``rate`` fraction and scales survivors by
    1/(1-rate), so the mask has unit mean in expectation."""
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


class RecurrentNetwork:
    """Stacked LSTM or GRU layers and a linear readout applied at each step.

    Input is (batch, time, input_size); the first layer sees the raw input,
    deeper layers see the layer below (with inverted dropout between layers
    while training).  ``forward`` returns the readout at every time step so
    callers pick the positions they train on.
    """

    def __init__(self, config: NetworkConfig, init: str = "uniform"):
        self.config = config
        rng = derive_rng(config.seed, "weights")
        self.layers = []
        for layer_idx in range(config.layers):
            in_size = config.input_size if layer_idx == 0 else config.hidden
            if config.cell == "lstm":
                weights = zero_lstm_weights(in_size, config.hidden)
            else:
                weights = zero_gru_weights(in_size, config.hidden)
            if init == "uniform":
                for name in weights.FIELDS:
                    mat = getattr(weights, name)
                    if mat.ndim == 2:
                        limit = 1.0 / np.sqrt(mat.shape[1])
                        setattr(weights, name, rng.uniform(-limit, limit, mat.shape))
            self.layers.append(weights)
        if init == "uniform":
            limit = 1.0 / np.sqrt(config.hidden)
            self.W_out = rng.uniform(-limit, limit, (config.output_size, config.hidden))
        else:
            self.W_out = np.zeros((config.output_size, config.hidden))
        self.b_out = np.zeros(config.output_size)

    # -- parameter plumbing ------------------------------------------------

    def parameters(self) -> dict:
        out = {}
        for idx, weights in enumerate(self.layers):
            for name in weights.FIELDS:
                out[f"layer{idx}.{name}"] = getattr(weights, name)
        out["out.W"] = self.W_out
        out["out.b"] = self.b_out
        return out

    def set_parameters(self, params: dict):
        for idx, weights in enumerate(self.layers):
            for name in weights.FIELDS:
                setattr(weights, name, np.asarray(params[f"layer{idx}.{name}"], dtype=np.float64))
        self.W_out = np.asarray(params["out.W"], dtype=np.float64)
        self.b_out = np.asarray(params["out.b"], dtype=np.float64)

    # -- forward / backward --------------------------------------------

    def forward(self, x, training: bool = False, dropout_rng=None, masks=None):
        """Run the stack over (batch, time, input_size) input.

        Returns (outputs, cache) where outputs is (batch, time, output_size).
        ``masks`` overrides the dropout draw (used by the gradient tests).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.config.input_size:
            raise ValueError(
                f"input must be (batch, time, {self.config.input_size}), got {x.shape}")
        rate = self.config.dropout
        layer_caches = []
        used_masks = []
        cur = x
        for layer_idx, weights in enumerate(self.layers):
            if self.config.cell == "lstm":
                hs, cache = _lstm_layer_forward(cur, weights)
            else:
                hs, cache = _gru_layer_forward(cur, weights)
            layer_caches.append((cache, cur.shape[2]))
            if layer_idx < len(self.layers) - 1 and training and rate > 0.0:
                if masks is not None:
                    mask = masks[layer_idx]
                else:
                    if dropout_rng is None:
                        dropout_rng = derive_rng(self.config.seed, "dropout")
                    mask = dropout_masks(dropout_rng, hs.shape, rate)
                used_masks.append(mask)
                cur = hs * mask
            else:
                used_masks.append(None)
                cur = hs
        outputs = cur @ self.W_out.T + self.b_out
        cache = {"top": cur, "layers": layer_caches, "masks": used_masks}
        return outputs, cache

    def backward(self, cache, d_outputs) -> dict:
        """Exact BPTT gradients for every parameter given d(loss)/d(outputs)."""
        d_outputs = np.asarray(d_outputs, dtype=np.float64)
        top = cache["top"]
        grads = {
            "out.W": np.einsum("nto,nth->oh", d_outputs, top),
            "out.b": d_outputs.sum(axis=(0, 1)),
        }
        dh_seq = d_outputs @ self.W_out
        for layer_idx in reversed(range(len(self.layers))):
            weights = self.layers[layer_idx]
            layer_cache, in_size = cache["layers"][layer_idx]
            mask = cache["masks"][layer_idx]
            if mask is not None:
                dh_seq = dh_seq * mask
            if self.config.cell == "lstm":
                dx_seq, wgrads = _lstm_layer_backward(dh_seq, weights, layer_cache, in_size)
            else:
                dx_seq, wgrads = _gru_layer_backward(dh_seq, weights, layer_cache, in_size)
            for name, grad in wgrads.items():
                grads[f"layer{layer_idx}.{name}"] = grad
            dh_seq = dx_seq
        return grads

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        doc = {"config": asdict(self.config), "weights": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in self.parameters().items()}}
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RecurrentNetwork":
        doc = json.loads(text)
        net = cls(NetworkConfig(**doc["config"]), init="zeros")
        params = {name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
                  for name, entry in doc["weights"].items()}
        net.set_parameters(params)
        return net


def layout_windows(inputs: np.ndarray, input_size: int) -> np.ndarray:
    """Lay (N, lookback) windows out as (N, time, input_size) network input:
    one flat step when ``input_size`` equals the lookback, scalar steps when
    it is 1.  Training and inference both use this layout."""
    lookback = inputs.shape[1]
    if input_size == lookback:
        return inputs[:, None, :]
    if input_size == 1:
        return inputs[:, :, None]
    raise ValueError(
        f"input_size {input_size} fits neither flat ({lookback}) nor "
        f"sequence (1) presentation of lookback {lookback}")


@dataclass(frozen=True)
class MultistepEpochLoss:
    total: float
    per_step: tuple


def multistep_loss(preds: np.ndarray, targets: np.ndarray):
    """Sum over readout positions (axis 1) of the MSE at each; returns
    (total, per-position terms)."""
    err = preds - targets
    per_step = [float(np.mean(err[:, k] * err[:, k])) for k in range(err.shape[1])]
    return float(sum(per_step)), tuple(per_step)


def train_at_positions(config: NetworkConfig, inputs: np.ndarray, targets: np.ndarray,
                       positions: list) -> tuple[RecurrentNetwork, list]:
    """Mini-batch training against :func:`multistep_loss` at the readout
    ``positions`` of (count, time, input_size) ``inputs``; ``targets`` is
    (count, len(positions), output_size).

    Weight init, batch shuffling and dropout all derive from ``config.seed``;
    identical reruns give identical histories.  Divergence (non-finite loss)
    raises :class:`TrainingDivergedError`.  Returns the network and each
    epoch's batch-mean :class:`MultistepEpochLoss`.
    """
    n = len(inputs)
    if n == 0:
        raise ValueError("cannot train on an empty window set")
    net = RecurrentNetwork(config)
    state = optim.init_optimizer(config.optimizer, net.parameters())
    shuffle_rng = derive_rng(config.seed, "shuffle")
    dropout_rng = derive_rng(config.seed, "dropout")
    batch = min(config.batch_size or n, n)

    history = []
    last_finite = float("nan")
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            outputs, cache = net.forward(inputs[idx], training=True, dropout_rng=dropout_rng)
            preds = outputs[:, positions, :]
            target = targets[idx]
            total, per_step = multistep_loss(preds, target)
            if not np.isfinite(total):
                raise TrainingDivergedError(epoch, last_finite)
            last_finite = total
            batch_losses.append(MultistepEpochLoss(total, per_step))
            d_outputs = np.zeros_like(outputs)
            # each position's MSE averages over the batch and output columns
            d_outputs[:, positions, :] = 2.0 * (preds - target) / target[:, 0].size
            grads = optim.clip_global_norm(net.backward(cache, d_outputs), GRAD_CLIP_NORM)
            params, state = optim.optimizer_step(net.parameters(), grads, state,
                                                 config.learning_rate)
            net.set_parameters(params)
        history.append(MultistepEpochLoss(
            float(np.mean([e.total for e in batch_losses])),
            tuple(np.mean([e.per_step for e in batch_losses], axis=0).tolist())))
    return net, history


def train(config: NetworkConfig, windows) -> tuple[RecurrentNetwork, list[float]]:
    """Train against MSE at the final step; returns the network and the
    per-epoch mean batch loss."""
    if windows.horizon != config.output_size:
        raise ValueError(
            f"window horizon {windows.horizon} != network output_size {config.output_size}")
    net, history = train_at_positions(config, layout_windows(windows.inputs, config.input_size),
                                      windows.targets[:, None, :], [-1])
    return net, [epoch.total for epoch in history]
