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

All parameters live in one float64 vector, ``RecurrentNetwork.theta``, each
array raveled in this order: per layer ``W_i W_f W_g W_o b_i b_f b_g b_o``
(LSTM) or ``W_z W_r W_h U_z U_r U_h b_z b_r b_h`` (GRU), then ``out.W out.b``.
``parameters()``, ``layers[k]``, ``W_out`` and ``b_out`` are views into it,
and ``backward`` fills a gradient vector of the same layout.  A layer's
W (and U, b) blocks are adjacent, so its gates are fused (Appleyard et al.
2016): one GEMM per step for all LSTM gates, and for the GRU's inputs.

All math is float64 numpy; gradients are exact reverse-mode derivatives of
the forward recursion (checked against finite differences in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

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
    """1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, as float64, branch-free:
    both forms share e = e^-|x|, which never overflows."""
    # the result goes into the first buffer, allocated before any temporary:
    # the forward caches every gate array, and a result allocated after the
    # temporaries left a hole below each one (+1 MiB peak RSS on neural_run)
    e = np.abs(x, out=np.empty(np.shape(x)))
    np.negative(e, out=e)
    np.exp(e, out=e)
    numerator = np.where(x >= 0, 1.0, e)
    e += 1.0
    np.divide(numerator, e, out=e)
    return e


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
        for name in ("dropout", "learning_rate"):
            value = getattr(self, name)
            real = isinstance(value, (int, float, np.integer, np.floating))
            if isinstance(value, bool) or not real or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
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
    config = NetworkConfig("lstm", hidden=hidden, input_size=input_size)
    return RecurrentNetwork(config, init="zeros").layers[0]


def zero_gru_weights(input_size: int, hidden: int) -> GruLayerWeights:
    config = NetworkConfig("gru", hidden=hidden, input_size=input_size)
    return RecurrentNetwork(config, init="zeros").layers[0]


def lstm_step(x, state: CellState, w: LstmLayerWeights) -> CellState:
    """One LSTM cell update on plain vectors."""
    x, h, c = (np.asarray(v, dtype=np.float64) for v in (x, state.h, state.c))
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
    x, h = np.asarray(x, dtype=np.float64), np.asarray(h, dtype=np.float64)
    if x.shape != (w.input_size,) or h.shape != (w.hidden,):
        raise ValueError(
            f"shape mismatch: x {x.shape}, h {h.shape} for "
            f"hidden={w.hidden}, input={w.input_size}")
    z = sigmoid(w.W_z @ x + w.U_z @ h + w.b_z)
    r = sigmoid(w.W_r @ x + w.U_r @ h + w.b_r)
    hcand = np.tanh(w.W_h @ x + w.U_h @ (r * h) + w.b_h)
    return (1.0 - z) * h + z * hcand


def _gates(a, count):
    """The ``count`` per-gate column views of a fused (n, count*H) array."""
    return a.reshape(len(a), count, -1).swapaxes(0, 1)


def _lstm_layer_forward(x_seq, W, b):
    """W is [W_i; W_f; W_g; W_o] as one (4H, H+I) block: one GEMM per step."""
    n, steps, _ = x_seq.shape
    hidden = len(b) // 4
    h = c = np.zeros((n, hidden))
    hs = np.empty((n, steps, hidden))
    caches = []
    for t in range(steps):
        zcat = np.concatenate([h, x_seq[:, t, :]], axis=1)
        a = zcat @ W.T + b
        gates = sigmoid(a)
        gates[:, 2 * hidden:3 * hidden] = np.tanh(a[:, 2 * hidden:3 * hidden])
        i, f, g, o = _gates(gates, 4)
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h = o * tc
        hs[:, t, :] = h
        caches.append((zcat, gates, c, tc))
        c = c_new
    return hs, caches


def _lstm_layer_backward(dh_seq, caches, weights, grads, input_grad=True):
    """Accumulates into the (dW, db) blocks ``grads``; returns d(input), or
    None when ``input_grad`` is false (layer 0, whose input is the data)."""
    (W, _), (dW, db) = weights, grads
    n, steps, hidden = dh_seq.shape
    dx_seq = np.empty((n, steps, W.shape[1] - hidden)) if input_grad else None
    dh_next = dc_next = np.zeros((n, hidden))
    da = np.empty((n, 4 * hidden))
    da_i, da_f, da_g, da_o = _gates(da, 4)
    for t in reversed(range(steps)):
        zcat, gates, c_prev, tc = caches[t]
        i, f, g, o = _gates(gates, 4)
        dh = dh_seq[:, t, :] + dh_next
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dc_next = dc * f
        da_i[...] = dc * g * i * (1.0 - i)
        da_f[...] = dc * c_prev * f * (1.0 - f)
        da_g[...] = dc * i * (1.0 - g * g)
        da_o[...] = dh * tc * o * (1.0 - o)
        dW += da.T @ zcat
        db += da.sum(axis=0)
        # nothing reads dh_next after t = 0; the product stays whole because
        # a column slice of W would change BLAS's summation order
        if t > 0 or input_grad:
            dzcat = da @ W
            dh_next = dzcat[:, :hidden]
            if input_grad:
                dx_seq[:, t, :] = dzcat[:, hidden:]
    return dx_seq


def _gru_layer_forward(x_seq, W, U, b):
    """W is [W_z; W_r; W_h] (3H, I) and U is [U_z; U_r; U_h] (3H, H): one
    input GEMM for all three gates and one recurrent GEMM for z and r."""
    n, steps, _ = x_seq.shape
    hidden = len(b) // 3
    U_zr, U_h, b_zr, b_h = U[:2 * hidden], U[2 * hidden:], b[:2 * hidden], b[2 * hidden:]
    h = np.zeros((n, hidden))
    hs = np.empty((n, steps, hidden))
    caches = []
    for t in range(steps):
        x = x_seq[:, t, :]
        ax = x @ W.T
        zr = sigmoid(ax[:, :2 * hidden] + h @ U_zr.T + b_zr)
        z, r = _gates(zr, 2)
        rh = r * h
        hcand = np.tanh(ax[:, 2 * hidden:] + rh @ U_h.T + b_h)
        caches.append((x, h, zr, rh, hcand))
        h = (1.0 - z) * h + z * hcand
        hs[:, t, :] = h
    return hs, caches


def _gru_layer_backward(dh_seq, caches, weights, grads, input_grad=True):
    """Accumulates into the (dW, dU, db) blocks ``grads``; returns d(input),
    or None when ``input_grad`` is false (layer 0, whose input is the data)."""
    (W, U, _), (dW, dU, db) = weights, grads
    n, steps, hidden = dh_seq.shape
    dx_seq = np.empty((n, steps, W.shape[1])) if input_grad else None
    dh_next = np.zeros((n, hidden))
    da = np.empty((n, 3 * hidden))
    da_z, da_r, da_h = _gates(da, 3)
    da_zr = da[:, :2 * hidden]
    for t in reversed(range(steps)):
        x, h_prev, zr, rh, hcand = caches[t]
        z, r = _gates(zr, 2)
        dh = dh_seq[:, t, :] + dh_next
        da_h[...] = dh * z * (1.0 - hcand * hcand)
        drh = da_h @ U[2 * hidden:]
        da_r[...] = drh * h_prev * r * (1.0 - r)
        da_z[...] = dh * (hcand - h_prev) * z * (1.0 - z)
        dW += da.T @ x
        dU[:2 * hidden] += da_zr.T @ h_prev
        dU[2 * hidden:] += da_h.T @ rh
        db += da.sum(axis=0)
        if t > 0:
            dh_next = dh * (1.0 - z) + drh * r + da_zr @ U[:2 * hidden]
        if input_grad:
            dx_seq[:, t, :] = da @ W
    return dx_seq


def dropout_masks(rng, shape, rate: float) -> np.ndarray:
    """Inverted dropout: zeros a ``rate`` fraction and scales survivors by
    1/(1-rate), so the mask has unit mean in expectation."""
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


class FlatParameters(dict):
    """Name -> array views into one zeroed float64 ``vector`` in the module
    docstring's order; ``blocks`` holds each layer's fused (W, b) or
    (W, U, b) blocks, then the readout's (W, b)."""

    def __init__(self, config: NetworkConfig):
        super().__init__()
        lstm, hidden, out = config.cell == "lstm", config.hidden, config.output_size
        fields = (LstmLayerWeights if lstm else GruLayerWeights).FIELDS
        groups = []    # (prefix, fields, shape of each): one fused block each
        for k in range(config.layers):
            inp = config.input_size if k == 0 else hidden
            shape = {"W": (hidden, hidden + inp) if lstm else (hidden, inp),
                     "U": (hidden, hidden), "b": (hidden,)}
            groups += [(f"layer{k}", [f for f in fields if f[0] == letter], shape[letter])
                       for letter in ("Wb" if lstm else "WUb")]
        groups += [("out", ["W"], (out, hidden)), ("out", ["b"], (out,))]
        self.vector = np.zeros(sum(len(names) * math.prod(shape) for _, names, shape in groups))
        blocks, start = {}, 0
        for prefix, names, (rows, *cols) in groups:
            size = len(names) * rows * math.prod(cols)
            block = self.vector[start:start + size].reshape(-1, *cols)
            start += size
            blocks.setdefault(prefix, []).append(block)
            self.update((f"{prefix}.{name}", block[j * rows:(j + 1) * rows])
                        for j, name in enumerate(names))
        self.blocks = list(blocks.values())


class RecurrentNetwork:
    """Stacked LSTM or GRU layers and a linear readout applied at each step.

    Input is (batch, time, input_size); the first layer sees the raw input,
    deeper layers see the layer below (with inverted dropout between layers
    while training).  ``forward`` returns the readout at every time step so
    callers pick the positions they train on.  The optimizer updates
    ``theta`` in place.
    """

    def __init__(self, config: NetworkConfig, init: str = "uniform"):
        self.config = config
        self._params = FlatParameters(config)
        self.theta = self._params.vector
        cls = LstmLayerWeights if config.cell == "lstm" else GruLayerWeights
        self.layers = [cls(*(self._params[f"layer{k}.{name}"] for name in cls.FIELDS))
                       for k in range(config.layers)]
        self.W_out, self.b_out = self._params["out.W"], self._params["out.b"]
        if init == "uniform":
            rng = derive_rng(config.seed, "weights")
            for mat in self._params.values():
                if mat.ndim == 2:
                    limit = 1.0 / np.sqrt(mat.shape[1])
                    mat[...] = rng.uniform(-limit, limit, mat.shape)

    def parameters(self) -> FlatParameters:
        """Name -> view into ``theta``, in storage order."""
        return self._params

    def set_parameters(self, params: dict):
        """Copy each named array into its slot of ``theta``."""
        for name, view in self._params.items():
            view[...] = np.reshape(params[name], view.shape)

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
        layer_forward = _lstm_layer_forward if self.config.cell == "lstm" else _gru_layer_forward
        layer_caches, used_masks, cur = [], [], x
        for layer_idx, blocks in enumerate(self._params.blocks[:-1]):
            hs, cache = layer_forward(cur, *blocks)
            layer_caches.append(cache)
            mask = None
            if layer_idx < len(self.layers) - 1 and training and rate > 0.0:
                dropout_rng = dropout_rng or derive_rng(self.config.seed, "dropout")
                mask = (dropout_masks(dropout_rng, hs.shape, rate) if masks is None
                        else masks[layer_idx])
            used_masks.append(mask)
            cur = hs if mask is None else hs * mask
        outputs = cur @ self.W_out.T + self.b_out
        return outputs, {"top": cur, "layers": layer_caches, "masks": used_masks}

    def backward(self, cache, d_outputs, out: FlatParameters | None = None) -> FlatParameters:
        """Exact BPTT gradients given d(loss)/d(outputs), laid out like
        ``theta``: views by name into one gradient ``vector``.

        ``out``, a ``FlatParameters`` of this network's config, is zeroed,
        filled and returned in place of a new one, so a training loop can
        reuse one gradient buffer for every batch.
        """
        d_outputs = np.asarray(d_outputs, dtype=np.float64)
        if out is None:
            out = FlatParameters(self.config)
        elif out.vector.shape == self.theta.shape:
            out.vector.fill(0.0)
        else:
            raise ValueError(f"gradient buffer holds {out.vector.size} values, "
                             f"network has {self.theta.size}")
        grads = out
        grads["out.W"][...] = np.einsum("nto,nth->oh", d_outputs, cache["top"])
        grads["out.b"][...] = d_outputs.sum(axis=(0, 1))
        kernel = _lstm_layer_backward if self.config.cell == "lstm" else _gru_layer_backward
        dh_seq = d_outputs @ self.W_out
        for layer_idx in reversed(range(len(self.layers))):
            mask = cache["masks"][layer_idx]
            if mask is not None:
                dh_seq = dh_seq * mask
            # nothing consumes the gradient with respect to the input data
            dh_seq = kernel(dh_seq, cache["layers"][layer_idx], self._params.blocks[layer_idx],
                            grads.blocks[layer_idx], input_grad=layer_idx > 0)
        return grads

    def to_doc(self) -> dict:
        return {"config": asdict(self.config), "weights": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in self.parameters().items()}}

    @classmethod
    def from_doc(cls, doc: dict) -> "RecurrentNetwork":
        net = cls(NetworkConfig(**doc["config"]), init="zeros")
        net.set_parameters({name: entry["data"] for name, entry in doc["weights"].items()})
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
    state = optim.init_optimizer(config.optimizer, net.theta)
    grads = FlatParameters(config)
    shuffle_rng = derive_rng(config.seed, "shuffle")
    dropout_rng = derive_rng(config.seed, "dropout")
    batch = min(config.batch_size or n, n)

    history, last_finite = [], float("nan")
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
            grad = optim.clip_global_norm(net.backward(cache, d_outputs, out=grads).vector,
                                          GRAD_CLIP_NORM)
            optim.optimizer_step(net.theta, grad, state, config.learning_rate)
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
