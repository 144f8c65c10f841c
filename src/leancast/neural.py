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
W (and U, b) blocks are adjacent, so its gates are fused (Appleyard,
Kocisky & Blunsom 2016, "Optimizing performance of recurrent neural
networks on GPUs"): one GEMM per step for all LSTM gates, and for the GRU's
inputs.

The stack runs in their layer-overlap schedule: cell (l, t) needs only
(l - 1, t) and (l, t - 1), so wavefront k runs every cell with l + t = k at
once, L + T - 1 steps instead of L * T.  Layer 0 runs its own GEMM; the
layers above run one matmul over views that stack their blocks, each matrix
with the strides of the one-cell operand, so BLAS sums every cell in the
same order and results are bit-identical to one layer's time loop after
another.  The gate math runs once per wavefront, a lone cell on plain 2-D
arrays.  ``backward`` walks the wavefronts in reverse.  ``final_state``
gives each layer's state after a forward, from which a later forward
continues the sequence (the multistep decoder steps on this way).

All math is float64 numpy; gradients are exact reverse-mode derivatives of
the forward recursion (checked against finite differences in the tests).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


_GATE_AXES = {2: (1, 0, 2), 3: (2, 0, 1, 3)}


def _gates(a, count):
    """The ``count`` gate views of a fused (n, count*H) or (layers, n, count*H) array."""
    return a.reshape(a.shape[:-1] + (count, -1)).transpose(_GATE_AXES[a.ndim])


@functools.lru_cache
def _fronts(layers, steps):
    """(k, lo, hi) of each wavefront k: it runs the cells (l, k - l), lo <= l <= hi."""
    return tuple((k, max(0, k - steps + 1), min(layers - 1, k))
                 for k in range(layers + steps - 1 if steps else 0))


# A wavefront of one cell works on plain 2-D arrays with its layer's own
# blocks.  A wider one stacks its rows: layer 0's row, when it holds it, is
# split off (its input has another width) and the others run as one stack.

def _split(a, lo):
    """(layer 0's row or None, the stacked rows above) of a wavefront's array."""
    return (a[0], a[1:]) if lo == 0 else (None, a)


def _join(a2, a3):
    """The inverse of ``_split``."""
    return a3 if a2 is None else np.concatenate([a2[None], a3])


def _by_layer(a2, a3, lo, hi, w0, w):
    """Each row of a wavefront, as ``_split`` parts, times its own layer's
    weight: layer 0's by ``w0``, the rows above in one matmul by their
    slice of ``w``, a stack over layers 1.. whose matrices have the strides
    of the one-cell operand, so BLAS sums in the same order as for one cell."""
    return (None if a2 is None else np.matmul(a2, w0), np.matmul(a3, w[max(lo, 1) - 1:hi]))


def _buffer(buffers, shape, count):
    """A d(pre-activation) array and its gate views, kept while the fronts
    keep their ``shape``: each front reads it only itself."""
    if shape not in buffers:
        da = np.empty(shape)
        buffers.clear()
        buffers[shape] = da, tuple(_gates(da, count))
    return buffers[shape]


def _add_grads(da, x2, x3, lo, hi, dW0, dW, db):
    """Add a front's gradients into each layer's W (``da.T @`` its operand:
    the one cell's or layer 0's ``x2``, the stacked rows' ``x3``) and b."""
    if lo == hi:
        dW2, db = (dW[lo - 1] if lo else dW0), db[lo]
        dW2 += da.T @ x2
    else:
        da2, da3 = _split(da, lo)
        if lo == 0:
            dW0 += da2.T @ x2
        dW[max(lo, 1) - 1:hi] += np.matmul(da3.swapaxes(1, 2), x3)
        db = db[lo:hi + 1]
    db += np.add.reduce(da, axis=-2)


def _lstm_step(x2, x3, state, lo, hi, weights):
    (h, c), (W0T, WT, b), hidden = state, weights, state[1].shape[-1]
    if lo == hi:
        z2, z3 = np.concatenate([h, x2], axis=1), None
        a = z2 @ (WT[lo - 1] if lo else W0T) + b[lo]
    else:
        h2, h3 = _split(h, lo)
        z2 = None if lo else np.concatenate([h2, x2], axis=1)
        z3 = np.concatenate([h3, x3], axis=2)
        a = _join(*_by_layer(z2, z3, lo, hi, W0T, WT))
        a += b[lo:hi + 1, None]
    gates = sigmoid(a)
    gates[..., 2 * hidden:3 * hidden] = np.tanh(a[..., 2 * hidden:3 * hidden])
    i, f, g, o = _gates(gates, 4)
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return (o * tc, c_new), (z2, z3, gates, c, tc)


def _lstm_back(dh, d_state, cache, lo, hi, k, weights, grads, buffers):
    (dh_next, dc_next), (z2, z3, gates, c, tc) = d_state, cache
    (W0, W), hidden = weights, c.shape[-1]
    i, f, g, o = _gates(gates, 4)
    dh = dh + dh_next
    dc = dc_next + dh * o * (1.0 - tc * tc)
    da, (da_i, da_f, da_g, da_o) = _buffer(buffers, gates.shape, 4)
    da_i[...] = dc * g * i * (1.0 - i)
    da_f[...] = dc * c * f * (1.0 - f)
    da_g[...] = dc * i * (1.0 - g * g)
    da_o[...] = dh * tc * o * (1.0 - o)
    _add_grads(da, z2, z3, lo, hi, *grads)
    # nothing reads layer 0's d(input), nor a d(h) before t = 0; the
    # products stay whole: a column slice of W changes BLAS's order
    if lo == hi:
        dz = da @ (W[lo - 1] if lo else W0) if lo or k else None
        return ((None if dz is None else dz[:, :hidden]), dc * f), (dz[:, hidden:] if lo else None)
    da2, da3 = _split(da, lo)
    dz2, dz3 = _by_layer(da2, da3, lo, hi, W0, W)
    return (_join(None if dz2 is None else dz2[:, :hidden], dz3[..., :hidden]), dc * f), \
        dz3[..., hidden:]


def _gru_step(x2, x3, state, lo, hi, weights):
    (h,), (W0T, WT, UzT, UhT, bz, bh), hidden = state, weights, state[0].shape[-1]
    if lo == hi:
        ax, uz, uh, bz, bh = x2 @ (WT[lo - 1] if lo else W0T), UzT[lo], UhT[lo], bz[lo], bh[lo]
    else:
        ax = _join(*_by_layer(x2, x3, lo, hi, W0T, WT))
        uz, uh, bz, bh = UzT[lo:hi + 1], UhT[lo:hi + 1], bz[lo:hi + 1, None], bh[lo:hi + 1, None]
    zr = sigmoid(ax[..., :2 * hidden] + np.matmul(h, uz) + bz)
    z, r = _gates(zr, 2)
    rh = r * h
    hcand = np.tanh(ax[..., 2 * hidden:] + np.matmul(rh, uh) + bh)
    return ((1.0 - z) * h + z * hcand,), (x2, x3, h, zr, rh, hcand)


def _gru_back(dh, d_state, cache, lo, hi, k, weights, grads, buffers):
    (dh_next,), (x2, x3, h, zr, rh, hcand) = d_state, cache
    (W0, W, Uz, Uh), (dW0, dW, dUz, dUh, db) = weights, grads
    rows, cut = (lo if lo == hi else slice(lo, hi + 1)), 2 * h.shape[-1]
    z, r = _gates(zr, 2)
    dh = dh + dh_next
    da, (da_z, da_r, da_h) = _buffer(buffers, zr.shape[:-1] + (3 * h.shape[-1],), 3)
    da_h[...] = dh * z * (1.0 - hcand * hcand)
    drh = np.matmul(da_h, Uh[rows])
    da_r[...] = drh * h * r * (1.0 - r)
    da_z[...] = dh * (hcand - h) * z * (1.0 - z)
    _add_grads(da, x2, x3, lo, hi, dW0, dW, db)
    dUz, dUh = dUz[rows], dUh[rows]
    dUz += np.matmul(da[..., :cut].swapaxes(-1, -2), h)
    dUh += np.matmul(da_h.swapaxes(-1, -2), rh)
    dh_next = None
    if lo < hi or k > lo:    # nothing reads a d(h) before t = 0
        dh_next = dh * (1.0 - z) + drh * r + np.matmul(da[..., :cut], Uz[rows])
    # nothing reads layer 0's d(input)
    if lo == hi:
        return (dh_next,), (da @ W[lo - 1] if lo else None)
    return (dh_next,), np.matmul(_split(da, lo)[1], W[max(lo, 1) - 1:hi])


def _forward_fronts(step, weights, x, skew, init):
    """Run ``step`` (``_lstm_step`` or ``_gru_step``) over every wavefront
    from the per-layer ``init`` states.  Returns the top layer's hidden
    sequence and the per-front caches."""
    layers, (n, steps, _), hidden = len(init), x.shape, init[0][0].shape[-1]
    top, fronts, prev, prev_lo = np.empty((n, steps, hidden)), [], (), 0
    for k, lo, hi in _fronts(layers, steps):
        # each layer's state from the front before, or at t = 0 its initial
        # state; a one-cell front works on plain 2-D rows
        one, start = lo == hi, (init[hi] if hi == k else None)
        if one:
            state = start or (prev if prev[0].ndim == 2 else tuple(s[lo - prev_lo] for s in prev))
        else:
            prev = tuple(s if s.ndim == 3 else s[None] for s in prev)
            state = tuple(s[lo - prev_lo:] for s in prev)
            if start:
                state = tuple(np.concatenate([s, s0[None]]) for s, s0 in zip(state, start))
        # layers above 0 read what the layers below them output in the front before
        below = None
        if hi:
            h = prev[0]
            below = (h if h.ndim == 2 else h[lo - 1 - prev_lo]) if one else \
                h[max(lo, 1) - 1 - prev_lo:hi - prev_lo]
            if skew is not None:
                below = below * skew[k, lo - 1 if one else slice(max(lo, 1) - 1, hi)]
        x2, x3 = (below, None) if one and lo else (x[:, k] if lo == 0 else None, below)
        prev, cache = step(x2, x3, state, lo, hi, weights)
        fronts.append(cache)
        prev_lo = lo
        if hi == layers - 1:
            top[:, k - hi] = prev[0][-1] if prev[0].ndim == 3 else prev[0]
    return top, fronts


def _backward_fronts(back, fronts, skew, dh_top, weights, grads, count):
    """Walk the wavefronts in reverse: ``back`` (``_lstm_back`` or
    ``_gru_back``) adds each front's gradients into ``grads``; ``count`` is
    the number of state arrays a cell carries."""
    layers, (n, steps, hidden) = len(grads[-1]), dh_top.shape
    zero, carry, dx, next_lo, buffers = np.zeros((n, hidden)), (None,) * count, None, 0, {}
    for k, lo, hi in reversed(_fronts(layers, steps)):
        one, last = lo == hi, k - lo == steps - 1
        # d(loss)/d(h): what the layer above passed down in the front
        # before, dropout-masked, or for the top layer the readout's
        dh = None
        if dx is not None:
            dh = (dx if dx.ndim == 2 else dx[0]) if one else dx if dx.ndim == 3 else dx[None]
            if skew is not None:
                dh = dh * skew[k + 1, lo if one else slice(lo, lo + len(dh))]
        if hi == layers - 1:
            dh = dh_top[:, k - hi] if one else np.concatenate([dh, dh_top[None, :, k - hi]])
        # and what each layer's next step passed back: zero at its last step
        if one:
            d_state = ((zero,) * count if last else carry if carry[0].ndim == 2
                       else tuple(s[0] for s in carry))
        else:
            d_state = tuple((s if s.ndim == 3 else s[None])[:hi - next_lo + 1] for s in carry)
            if last:
                d_state = tuple(np.concatenate([zero[None], s]) for s in d_state)
        carry, dx = back(dh, d_state, fronts[k], lo, hi, k, weights, grads, buffers)
        next_lo = lo


def dropout_masks(rng, shape, rate: float) -> np.ndarray:
    """Inverted dropout: zeros a ``rate`` fraction and scales survivors by
    1/(1-rate), so the mask has unit mean in expectation."""
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


class FlatParameters(dict):
    """Name -> array views into one zeroed float64 ``vector`` in the module
    docstring's order; ``blocks`` holds each layer's fused (W, b) or
    (W, U, b) blocks, then the readout's (W, b).  ``stacks`` views the same
    blocks on a leading layer axis: W of layers 1.., U (GRU) and b of every
    layer."""

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
        # a layer above 0 is one block list of the same size after the one
        # below it, and layer 0's U and b sit where that rule puts them
        like = self.blocks[1 if config.layers > 1 else 0]
        step = 8 * sum(block.size for block in like)
        self.stacks = [as_strided(self.blocks[0][j] if j else like[0],
                                  (config.layers - (j == 0),) + block.shape,
                                  (step,) + block.strides) for j, block in enumerate(like)]


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

    def forward(self, x, training: bool = False, dropout_rng=None, masks=None, state=None):
        """Run the stack over (batch, time, input_size) input.

        Returns (outputs, cache) where outputs is (batch, time, output_size).
        ``masks`` overrides the dropout draw (used by the gradient tests).
        Each layer starts from zero state, or from ``state``: what
        ``final_state`` returns for an earlier forward's cache, so that this
        forward continues that sequence.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.config.input_size:
            raise ValueError(
                f"input must be (batch, time, {self.config.input_size}), got {x.shape}")
        (n, steps, _), layers, rate = x.shape, len(self.layers), self.config.dropout
        used_masks, skew = [None] * layers, None
        if training and rate > 0.0 and layers > 1:
            dropout_rng = dropout_rng or derive_rng(self.config.seed, "dropout")
            shape = (n, steps, self.config.hidden)
            used_masks[:-1] = [dropout_masks(dropout_rng, shape, rate) if masks is None
                               else masks[layer_idx] for layer_idx in range(layers - 1)]
            # skew[k, l]: the mask on what layer l + 1 reads in wavefront k
            # (entries of no cell stay unset and are never read)
            skew = np.empty((layers + steps, layers - 1, n, self.config.hidden))
            for layer_idx, mask in enumerate(used_masks[:-1]):
                skew[layer_idx + 1:layer_idx + 1 + steps, layer_idx] = mask.swapaxes(0, 1)
        lstm, zeros = self.config.cell == "lstm", np.zeros((n, self.config.hidden))
        W0T, (W, *rest) = self._params.blocks[0][0].T, self._params.stacks
        if lstm:
            weights = (W0T, W.swapaxes(1, 2), rest[0])
        else:    # the z and r parts of U and b, then the candidate's
            (U, b), cut = rest, 2 * self.config.hidden
            UT = U.swapaxes(1, 2)
            weights = (W0T, W.swapaxes(1, 2), UT[..., :cut], UT[..., cut:], b[:, :cut], b[:, cut:])
        top, fronts = _forward_fronts(_lstm_step if lstm else _gru_step, weights, x, skew,
                                      state or [(zeros,) * (1 + lstm)] * layers)
        outputs = top @ self.W_out.T + self.b_out
        return outputs, {"top": top, "fronts": fronts, "masks": used_masks, "skew": skew}

    def final_state(self, cache) -> list:
        """Each layer's (h, c) (LSTM) or (h,) (GRU) after the last step of the
        forward that left ``cache``, computed as that forward computed it;
        kept out of the cache, which would hold two arrays per layer more."""
        steps, fronts, states = cache["top"].shape[1], cache["fronts"], []
        for layer in range(len(fronts) - steps + 1):
            # a layer's last step is the first row of its last wavefront
            row = [a if a is None or a.ndim == 2 else a[0] for a in fronts[layer + steps - 1]]
            if self.config.cell == "lstm":
                i, f, g, o = _gates(row[2], 4)
                states.append((o * row[4], f * row[3] + i * g))
            else:
                z = _gates(row[3], 2)[0]
                states.append(((1.0 - z) * row[2] + z * row[5],))
        return states

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
        out["out.W"][...] = np.einsum("nto,nth->oh", d_outputs, cache["top"])
        out["out.b"][...] = d_outputs.sum(axis=(0, 1))
        lstm, W0, dW0 = self.config.cell == "lstm", self._params.blocks[0][0], out.blocks[0][0]
        if lstm:
            weights, grads = (W0, self._params.stacks[0]), (dW0, *out.stacks)
        else:
            (W, U, _), (dW, dU, db), cut = self._params.stacks, out.stacks, 2 * self.config.hidden
            weights = (W0, W, U[:, :cut], U[:, cut:])
            grads = (dW0, dW, dU[:, :cut], dU[:, cut:], db)
        _backward_fronts(_lstm_back if lstm else _gru_back, cache["fronts"], cache["skew"],
                         d_outputs @ self.W_out, weights, grads, 1 + lstm)
        return out

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
