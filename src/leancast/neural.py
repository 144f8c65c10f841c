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
inputs; the elementwise gate math after it runs on contiguous gate-major slabs.

A network trained on one-step input (time 1; the flat next-day kinds) runs
one step from a zero state, so its recurrent weights multiply h = 0: they
never reach an output and their gradient is exactly zero.  Such a
``one_step`` network is built without them: an LSTM layer's W_* hold only
their x-columns, (H, I), and a GRU layer has no U_*.  Init draws the full
layout and keeps the live columns.  It is a feed-forward stack and runs as
a plain loop over its layers: the GEMM by the fused W block, the bias, and
the gates that meet no zero state (LSTM i, g, o; GRU z and the candidate),
so outputs and gradients are the full network's up to summation order.

Over T > 1 steps the stack runs in their layer-overlap schedule: cell (l, t)
needs only (l - 1, t) and (l, t - 1), so wavefront k runs every cell with
l + t = k at once, L + T - 1 steps instead of L * T.  Every wavefront is a
stack of its rows, one per layer, and the gate math runs once per wavefront.
Layer 0 runs its own GEMM; the layers above run one matmul over views that
stack their blocks, each matrix with the strides of one layer's operand, so
BLAS sums every cell in the same order and results are bit-identical to one
layer's time loop after another.  The forward writes every state into one
history per carried state, (L, T + 1, n, H), in which a wavefront's cells,
their next states and the outputs of the layers below are strided slices.
``backward`` walks the wavefronts in reverse over per-layer gradient
buffers.  ``final_state`` reads each layer's state after the last step out
of the history; a later forward continues the sequence from it (the
multistep decoder steps on this way).

Training holds one activation cache: ``forward(..., out=cache)`` writes
its state history, ``top`` and pre-activations into an earlier cache's
arrays of the same shapes and frees the rest of that cache first; other
shapes (a last, smaller batch) and one-step networks get fresh arrays.

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
    def __init__(self, epoch: int, last_finite_loss: float, what: str = "loss"):
        super().__init__(
            f"{what} became non-finite at epoch {epoch}; "
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
    numerator = np.minimum(x, 0.0)    # e^0 = 1 exactly, and e^x = e for x < 0
    np.exp(numerator, out=numerator)
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
    one_step: bool = False           # the W_* hold only their x-columns

    FIELDS = ("W_i", "W_f", "W_g", "W_o", "b_i", "b_f", "b_g", "b_o")

    @property
    def hidden(self):
        return self.W_i.shape[0]

    @property
    def input_size(self):
        return self.W_i.shape[1] - (0 if self.one_step else self.W_i.shape[0])


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
    one_step: bool = False           # no U_* (they are None)

    FIELDS = ("W_z", "W_r", "W_h", "U_z", "U_r", "U_h", "b_z", "b_r", "b_h")

    @property
    def hidden(self):
        return self.W_z.shape[0]

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


def _require_recurrent(w):
    if w.one_step:
        raise ValueError("a one-step network's layer has no recurrent weights to step h with")


def lstm_step(x, state: CellState, w: LstmLayerWeights) -> CellState:
    """One LSTM cell update on plain vectors."""
    _require_recurrent(w)
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
    _require_recurrent(w)
    x, h = np.asarray(x, dtype=np.float64), np.asarray(h, dtype=np.float64)
    if x.shape != (w.input_size,) or h.shape != (w.hidden,):
        raise ValueError(
            f"shape mismatch: x {x.shape}, h {h.shape} for "
            f"hidden={w.hidden}, input={w.input_size}")
    z = sigmoid(w.W_z @ x + w.U_z @ h + w.b_z)
    r = sigmoid(w.W_r @ x + w.U_r @ h + w.b_r)
    hcand = np.tanh(w.W_h @ x + w.U_h @ (r * h) + w.b_h)
    return (1.0 - z) * h + z * hcand


def _product(out, first, *factors):
    """``out`` = the factors multiplied left to right, in place."""
    np.multiply(first, factors[0], out=out)
    for factor in factors[1:]:
        out *= factor


@functools.lru_cache
def _fronts(layers, steps):
    """(k, lo, hi) of each wavefront k: it runs the cells (l, k - l), lo <= l <= hi."""
    return tuple((k, max(0, k - steps + 1), min(layers - 1, k))
                 for k in range(layers + steps - 1 if steps else 0))


# Every wavefront is a stack of its rows lo..hi, in which row 0, when the
# front holds it, is layer 0 (its input has another width).

def _front_gemm(a, x0, x3, lo, hi, W0, W):
    """Each row's input times its layer's weight, into ``a``: layer 0's
    (``x0``) by ``W0`` in its own GEMM, the rows above (``x3``) in one matmul
    by their slice of ``W``, a stack over layers 1.. whose matrices have the
    strides of one layer's operand, so BLAS sums as in a layer's time loop."""
    if lo == 0:
        np.matmul(x0, W0, out=a[0])
    if hi:
        np.matmul(x3, W[max(lo, 1) - 1:hi], out=a[max(lo, 1) - lo:])


def _lstm_step(a, x0, below, state, new, lo, hi, weights):
    (W0T, WT, b), h, c, hidden = weights, state[0], state[1], state.shape[-1]
    x0 = np.concatenate([h[0], x0], axis=1) if lo == 0 else None
    below = np.concatenate([h[max(lo, 1) - lo:], below], axis=2) if hi else None
    _front_gemm(a, x0, below, lo, hi, W0T, WT)
    a += b[lo:hi + 1]
    i, f, g, o = gates = sigmoid(a.reshape(a.shape[:2] + (4, hidden)).transpose(2, 0, 1, 3))
    np.tanh(a[..., 2 * hidden:3 * hidden], out=g)
    c_new = np.multiply(i, g, out=new[1])
    c_new += f * c
    tc = np.tanh(c_new)
    np.multiply(o, tc, out=new[0])
    return x0, below, gates, c, tc


def _lstm_back(d, da, dg, cache, lo, hi, k, weights, grads):
    (z0, z3, (i, f, g, o), c, tc), (W0, W), (dW0, dW, db) = cache, weights, grads
    rows, hidden = slice(lo, hi + 1), c.shape[-1]
    (di, df, dgg, do, tmp), dc = dg, d[2, rows]
    dh = np.add(d[0, rows], d[1, rows], out=d[0, rows])
    _product(di, dh, o, np.subtract(1.0, np.multiply(tc, tc, out=tmp), out=tmp))
    dc += di
    _product(df, dc, c, f, np.subtract(1.0, f, out=tmp))
    _product(di, dc, g, i, np.subtract(1.0, i, out=tmp))
    _product(dgg, dc, i, np.subtract(1.0, np.multiply(g, g, out=tmp), out=tmp))
    _product(do, dh, tc, o, np.subtract(1.0, o, out=tmp))
    da.reshape(tmp.shape[:2] + (4, hidden))[...] = dg[:4].transpose(1, 2, 0, 3)
    db[rows] += np.add.reduce(da, axis=1)
    # nothing reads layer 0's d(input), nor a d(h) or d(c) before t = 0; the
    # products stay whole: a column slice of W changes BLAS's order
    if k > lo:
        dc *= f
    if lo == 0:
        dW0 += da[0].T @ z0
        if k:
            d[1, 0] = (da[0] @ W0)[:, :hidden]
    if hi:
        da3, above = da[max(lo, 1) - lo:], slice(max(lo, 1) - 1, hi)
        dW[above] += np.matmul(da3.swapaxes(1, 2), z3)
        dz = np.matmul(da3, W[above])
        if k > lo:
            d[1, max(lo, 1):hi + 1] = dz[..., :hidden]
        return dz[..., -hidden:]


def _gru_step(a, x0, below, state, new, lo, hi, weights):
    (W0T, WT, UzT, UhT, bz, bh), h = weights, state[0]
    rows, cut = slice(lo, hi + 1), bz.shape[-1]
    _front_gemm(a, x0, below, lo, hi, W0T, WT)
    zr = a[..., :cut] + np.matmul(h, UzT[rows]) + bz[rows]
    z, r = gates = sigmoid(zr.reshape(h.shape[:2] + (2, h.shape[-1])).transpose(2, 0, 1, 3))
    rh = r * h
    hcand = np.tanh(a[..., cut:] + np.matmul(rh, UhT[rows]) + bh[rows])
    h_new = np.multiply(z, hcand, out=new[0])
    h_new += (1.0 - z) * h
    return x0, below, h, gates, rh, hcand


def _gru_back(d, da, dg, cache, lo, hi, k, weights, grads):
    (x0, x3, h, (z, r), rh, hcand), (W0, W, Uz, Uh), (dW0, dW, dUz, dUh, db) = cache, weights, grads
    rows, cut = slice(lo, hi + 1), 2 * h.shape[-1]
    dh, (dz, dr, dhc, tmp) = d[0, rows] + d[1, rows], dg
    _product(dhc, dh, z, np.subtract(1.0, np.multiply(hcand, hcand, out=tmp), out=tmp))
    _product(dz, dh, np.subtract(hcand, h, out=dz), z, np.subtract(1.0, z, out=tmp))
    da[..., cut:] = dhc    # the GEMM for d(r) reads it from the fused da
    drh = np.matmul(da[..., cut:], Uh[rows])
    _product(dr, drh, h, r, np.subtract(1.0, r, out=tmp))
    dUh[rows] += np.matmul(da[..., cut:].swapaxes(1, 2), rh)
    da.reshape(tmp.shape[:2] + (3, tmp.shape[-1]))[:, :, :2] = dg[:2].transpose(1, 2, 0, 3)
    dUz[rows] += np.matmul(da[..., :cut].swapaxes(1, 2), h)
    db[rows] += np.add.reduce(da, axis=1)
    if k > lo:    # nothing reads a d(h) before t = 0
        np.add(dh * (1.0 - z) + drh * r, np.matmul(da[..., :cut], Uz[rows]), out=d[1, rows])
    # nothing reads layer 0's d(input)
    if lo == 0:
        dW0 += da[0].T @ x0
    if hi:
        da3, above = da[max(lo, 1) - lo:], slice(max(lo, 1) - 1, hi)
        dW[above] += np.matmul(da3.swapaxes(1, 2), x3)
        return np.matmul(da3, W[above])


def _forward_fronts(step, weights, x, skew, history, pre):
    """Run ``step`` (``_lstm_step`` or ``_gru_step``) over every wavefront.
    ``history`` is (states, L, T + 1, n, H): ``[:, l, t]`` is layer l's
    state before step t, given at t = 0 and written here for t > 0.  ``pre``
    holds the pre-activations (4H LSTM, 3H GRU) of the widest wavefront.
    Returns the per-front caches."""
    states, layers, span, n, hidden = history.shape
    steps, flat, fronts = span - 1, history.reshape(states, layers * span, n, hidden), []
    for k, lo, hi in _fronts(layers, steps):
        # in the flat history cell (l, k - l) sits at l * T + k, its next
        # state one further on, and the layer below's output it reads (that
        # layer's state after step k - l) T before it
        first, stop, below = lo * steps + k, hi * steps + k + 1, None
        if hi:
            below = flat[0, first - steps if lo else k:stop - steps:steps]
            if skew is not None:
                below = below * skew[k, max(lo, 1) - 1:hi]
        fronts.append(step(pre[:hi - lo + 1], x[:, k] if lo == 0 else None, below,
                           flat[:, first:stop:steps], flat[:, first + 1:stop + 1:steps],
                           lo, hi, weights))
    return fronts


def _backward_fronts(back, fronts, skew, dh_top, weights, grads, states):
    """Walk the wavefronts in reverse: ``back`` (``_lstm_back`` or
    ``_gru_back``) adds each front's gradients into ``grads``.  ``d`` holds
    per layer d(loss)/d(h) from the layer above (the readout's for the top
    layer), then d(h) and, for the LSTM, d(c) through the layer's next step,
    zero at its last; each front reads its own rows and writes what the front
    before it reads.  ``back`` forms the d(gates) in ``dg``, a zeroed slab per
    gate, and copies them into the fused ``da`` its GEMMs read.  ``states``
    is the number of state arrays a cell carries."""
    layers, (n, steps, hidden) = len(grads[-1]), dh_top.shape
    d = np.zeros((1 + states, layers, n, hidden))
    # d(pre-activation) (4H LSTM, 3H GRU) of the widest wavefront, and d(gates)
    da = np.empty((min(layers, steps), n, (2 + states) * hidden))
    dg = np.zeros((3 + states,) + da.shape[:2] + (hidden,))
    for k, lo, hi in reversed(_fronts(layers, steps)):
        if hi == layers - 1:
            d[0, hi] = dh_top[:, k - hi]
        size = hi - lo + 1
        dx = back(d, da[:size], dg[:, :size], fronts[k], lo, hi, k, weights, grads)
        if hi:    # the rows below read it, dropout-masked, in the front before
            below = slice(max(lo, 1) - 1, hi)
            if skew is None:
                d[0, below] = dx
            else:
                np.multiply(dx, skew[k, below], out=d[0, below])


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
    layer.  A ``one_step`` layout has no recurrent weights: an LSTM's W holds
    only its x-columns, and a GRU has no U."""

    def __init__(self, config: NetworkConfig, one_step: bool = False):
        super().__init__()
        lstm, hidden, out = config.cell == "lstm", config.hidden, config.output_size
        fields = (LstmLayerWeights if lstm else GruLayerWeights).FIELDS
        groups = []    # (prefix, fields, shape of each): one fused block each
        for k in range(config.layers):
            inp = config.input_size if k == 0 else hidden
            shape = {"W": (hidden, inp + hidden * (lstm and not one_step)),
                     "U": (hidden, hidden), "b": (hidden,)}
            groups += [(f"layer{k}", [f for f in fields if f[0] == letter], shape[letter])
                       for letter in ("Wb" if lstm or one_step else "WUb")]
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

    A ``one_step`` network, which ``train_at_positions`` builds for one-step
    input, has no recurrent weights and runs as a layer loop (module
    docstring); its ``layers`` say so, and their U entries are None.
    """

    def __init__(self, config: NetworkConfig, init: str = "uniform", one_step: bool = False):
        self.config, self.one_step = config, one_step
        self._params = FlatParameters(config, one_step)
        self.theta = self._params.vector
        cls = LstmLayerWeights if config.cell == "lstm" else GruLayerWeights
        self.layers = [cls(*(self._params.get(f"layer{k}.{name}") for name in cls.FIELDS),
                           one_step=one_step) for k in range(config.layers)]
        self.W_out, self.b_out = self._params["out.W"], self._params["out.b"]
        if init == "uniform":
            # a one-step network keeps the live columns of the full layout's
            # draw, so the weight stream does not depend on the layout
            full = FlatParameters(config) if one_step else self._params
            rng = derive_rng(config.seed, "weights")
            for mat in full.values():
                if mat.ndim == 2:
                    limit = 1.0 / np.sqrt(mat.shape[1])
                    mat[...] = rng.uniform(-limit, limit, mat.shape)
            if one_step:
                for name, view in self._params.items():
                    view[...] = full[name][..., -view.shape[-1]:]

    def parameters(self) -> FlatParameters:
        """Name -> view into ``theta``, in storage order."""
        return self._params

    def set_parameters(self, params: dict):
        """Copy each named array into its slot of ``theta``."""
        for name, view in self._params.items():
            view[...] = np.reshape(params[name], view.shape)

    def forward(self, x, training: bool = False, dropout_rng=None, masks=None, state=None,
                out: dict | None = None):
        """Run the stack over (batch, time, input_size) input.

        Returns (outputs, cache) where outputs is (batch, time, output_size).
        ``masks`` overrides the dropout draw (used by the gradient tests).
        Each layer starts from zero state, or from ``state``: what
        ``final_state`` returns for an earlier forward's cache, so that this
        forward continues that sequence.  A one-step network takes neither
        ``state`` nor more than one step.

        ``out``, an earlier forward's cache of this network, becomes this
        forward's cache when its state history has this forward's shape (the
        same batch and steps): the forward empties it, then writes its state
        history, ``top`` and pre-activations into the earlier arrays, so
        nothing may read it as the earlier forward's cache afterwards.  Any
        other ``out``, or any ``out`` of a one-step network, is left alone.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.config.input_size:
            raise ValueError(
                f"input must be (batch, time, {self.config.input_size}), got {x.shape}")
        (n, steps, _), layers, rate = x.shape, len(self.layers), self.config.dropout
        if self.one_step and (steps > 1 or state):
            raise ValueError("a one-step network runs one step from zero state, "
                             f"got {steps} steps" + (" and a state" if state else ""))
        lstm, hidden = self.config.cell == "lstm", self.config.hidden
        history_shape = (1 + lstm, layers, steps + 1, n, hidden)
        if self.one_step:
            cache = {}
        elif out is not None and out["history"].shape == history_shape:
            cache, history, top, pre = out, out["history"], out["top"], out["pre"]
            cache.clear()    # frees the earlier forward's other arrays before this one's
        else:
            cache, history, top = {}, np.empty(history_shape), np.empty((n, steps, hidden))
            # pre-activations (4H LSTM, 3H GRU) of the widest wavefront
            pre = np.empty((min(layers, steps), n, (3 + lstm) * hidden))
        used_masks, skew = [None] * layers, None
        if training and rate > 0.0 and layers > 1:
            dropout_rng = dropout_rng or derive_rng(self.config.seed, "dropout")
            used_masks[:-1] = [dropout_masks(dropout_rng, (n, steps, hidden), rate)
                               if masks is None else masks[layer_idx]
                               for layer_idx in range(layers - 1)]
        if self.one_step:
            top, cache["layers"] = self._layer_loop(x[:, 0], used_masks)
        else:
            if used_masks[0] is not None:
                # skew[k, l]: the mask on what layer l + 1 reads in wavefront k
                # (entries of no cell stay unset and are never read)
                skew = np.empty((layers + steps, layers - 1, n, hidden))
                for layer_idx, mask in enumerate(used_masks[:-1]):
                    skew[layer_idx + 1:layer_idx + 1 + steps, layer_idx] = mask.swapaxes(0, 1)
            W0T, (W, *U, b) = self._params.blocks[0][0].T, self._params.stacks
            WT, b = W.swapaxes(1, 2), b[:, None]
            if lstm:
                weights = (W0T, WT, b)
            else:    # the z and r parts of U and b, then the candidate's
                zr, cand, UT = slice(2 * hidden), slice(2 * hidden, None), U[0].swapaxes(1, 2)
                weights = (W0T, WT, UT[..., zr], UT[..., cand], b[..., zr], b[..., cand])
            history[:, :, 0] = np.swapaxes(state, 0, 1) if state else 0.0
            cache.update(fronts=_forward_fronts(_lstm_step if lstm else _gru_step, weights, x,
                                                skew, history, pre),
                         history=history, skew=skew, pre=pre)
            np.copyto(top, history[0, -1, 1:].swapaxes(0, 1))
        outputs = top @ self.W_out.T + self.b_out
        cache.update(top=top, masks=used_masks)
        return outputs, cache

    def _layer_loop(self, x, masks):
        """A one-step network's forward over (n, input_size) ``x``; returns the
        top layer's h, (n, 1, H), and per layer what ``backward`` reads."""
        hidden, lstm, layers = self.config.hidden, self.config.cell == "lstm", []
        for (W, b), mask in zip(self._params.blocks[:-1], masks):    # the readout's is last
            a = x @ W.T + b
            if lstm:    # (i, o), then (g, tanh(c)), gate-major; f only meets c = 0
                io = sigmoid(a.reshape(len(a), 4, hidden)[:, ::3].swapaxes(0, 1))
                gt = np.empty_like(io)
                g = np.tanh(a[:, 2 * hidden:3 * hidden], out=gt[0])
                tc = np.tanh(io[0] * g, out=gt[1])
                h, cached = io[1] * tc, (io, gt)
            else:    # z and the candidate; r only meets h = 0
                z, hcand = sigmoid(a[:, :hidden]), np.tanh(a[:, 2 * hidden:])
                h, cached = z * hcand, (z, hcand)
            layers.append((x,) + cached)
            x = h if mask is None else h * mask[:, 0]
        return h[:, None], layers

    def final_state(self, cache) -> list:
        """Each layer's (h, c) (LSTM) or (h,) (GRU) after the last step of the
        forward that left ``cache``: views into its state history."""
        if self.one_step:
            raise ValueError("a one-step network carries no state to continue from")
        return [tuple(states[:, -1]) for states in cache["history"].swapaxes(0, 1)]

    def backward(self, cache, d_outputs, out: FlatParameters | None = None) -> FlatParameters:
        """Exact BPTT gradients given d(loss)/d(outputs), laid out like
        ``theta``: views by name into one gradient ``vector``.

        ``out``, a ``FlatParameters`` of this network's config, is zeroed,
        filled and returned in place of a new one, so a training loop can
        reuse one gradient buffer for every batch.
        """
        d_outputs = np.asarray(d_outputs, dtype=np.float64)
        if out is None:
            out = FlatParameters(self.config, self.one_step)
        elif out.vector.shape == self.theta.shape:
            out.vector.fill(0.0)
        else:
            raise ValueError(f"gradient buffer holds {out.vector.size} values, "
                             f"network has {self.theta.size}")
        out["out.W"][...] = np.einsum("nto,nth->oh", d_outputs, cache["top"])
        out["out.b"][...] = d_outputs.sum(axis=(0, 1))
        dh_top = d_outputs @ self.W_out
        if self.one_step:
            self._layer_loop_back(cache, dh_top[:, 0], out)
            return out
        lstm, W0, dW0 = self.config.cell == "lstm", self._params.blocks[0][0], out.blocks[0][0]
        if lstm:
            weights, grads = (W0, self._params.stacks[0]), (dW0, *out.stacks)
        else:    # U split into its z and r part and the candidate's
            (W, U, _), (dW, dU, db), cut = self._params.stacks, out.stacks, 2 * self.config.hidden
            weights = (W0, W, U[:, :cut], U[:, cut:])
            grads = (dW0, dW, dU[:, :cut], dU[:, cut:], db)
        _backward_fronts(_lstm_back if lstm else _gru_back, cache["fronts"], cache["skew"],
                         dh_top, weights, grads, 1 + lstm)
        return out

    def _layer_loop_back(self, cache, dh, out):
        """``_layer_loop``'s layers in reverse from the top layer's d(h), each
        adding its gradients into ``out``; a d(f) (LSTM) or d(r) (GRU) is zero."""
        hidden, lstm = self.config.hidden, self.config.cell == "lstm"
        da, pair = np.zeros((len(dh), (3 + lstm) * hidden)), np.empty((2, len(dh), hidden))
        gates = da.reshape(len(dh), 3 + lstm, hidden)
        for k in reversed(range(len(self.layers))):
            if lstm:    # d(i) = d(c) g i (1 - i) and d(o) = d(h) tanh(c) o (1 - o) at once
                x, io, gt = cache["layers"][k]
                dtanh = np.subtract(1.0, gt * gt)
                dc = np.multiply(dh, io[1], out=pair[0])
                dc *= dtanh[1]
                pair[1] = dh
                _product(gates[:, 2], dc, io[0], dtanh[0])
                _product(pair, pair, gt, io, 1.0 - io)
                gates[:, ::3] = pair.swapaxes(0, 1)
            else:
                x, z, hcand = cache["layers"][k]
                _product(pair[0], dh, hcand, z, 1.0 - z)
                _product(pair[1], dh, z, 1.0 - hcand * hcand)
                gates[:, ::2] = pair.swapaxes(0, 1)
            (W, _), (dW, db) = self._params.blocks[k], out.blocks[k]
            db += np.add.reduce(da, axis=0)
            dW += da.T @ x
            if k:    # nothing reads layer 0's d(input)
                dh = da @ W
                if cache["masks"][k - 1] is not None:
                    dh *= cache["masks"][k - 1][:, 0]

    def to_doc(self) -> dict:
        return {"config": asdict(self.config), "weights": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in self.parameters().items()}}

    @classmethod
    def from_doc(cls, doc: dict) -> "RecurrentNetwork":
        config, weights = NetworkConfig(**doc["config"]), doc["weights"]
        # a one-step network's LSTM W has only the x-columns, its GRU no U
        one_step = ("layer0.U_z" not in weights if config.cell == "gru"
                    else weights["layer0.W_i"]["shape"][1] == config.input_size)
        net = cls(config, init="zeros", one_step=one_step)
        net.set_parameters({name: entry["data"] for name, entry in weights.items()})
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


@np.errstate(over="ignore", invalid="ignore")    # a divergence is reported, not warned
def train_at_positions(config: NetworkConfig, inputs: np.ndarray, targets: np.ndarray,
                       positions: list) -> tuple[RecurrentNetwork, list]:
    """Mini-batch training against :func:`multistep_loss` at the readout
    ``positions`` of (count, time, input_size) ``inputs``; ``targets`` is
    (count, len(positions), output_size).

    One-step ``inputs`` (time 1) train a one-step network, which has no
    recurrent weights.  Weight init, batch shuffling and dropout all derive
    from ``config.seed``; identical reruns give identical histories.
    Divergence (non-finite loss or parameters) raises :class:`TrainingDivergedError`.
    Returns the network and each epoch's batch-mean
    :class:`MultistepEpochLoss`.
    """
    n, steps = len(inputs), inputs.shape[1]
    if n == 0:
        raise ValueError("cannot train on an empty window set")
    if targets.shape != (n, len(positions), config.output_size):
        raise ValueError(f"targets {targets.shape} do not fit inputs {inputs.shape} read at "
                         f"{len(positions)} positions: need ({n}, {len(positions)}, "
                         f"{config.output_size})")
    if not all(-steps <= p < steps for p in positions):
        raise ValueError(f"positions {list(positions)} lie outside the time axis of "
                         f"inputs {inputs.shape}")
    net = RecurrentNetwork(config, one_step=steps == 1)
    state = optim.init_optimizer(config.optimizer, net.theta)
    grads = FlatParameters(config, net.one_step)
    shuffle_rng = derive_rng(config.seed, "shuffle")
    dropout_rng = derive_rng(config.seed, "dropout")
    batch = min(config.batch_size or n, n)

    history, last_finite, cache = [], float("nan"), None
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            # each step reuses the step before's state history, top and pre, if shapes match
            outputs, cache = net.forward(inputs[idx], training=True, dropout_rng=dropout_rng,
                                         out=cache)
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
    if not np.isfinite(net.theta).all():    # the last step's update, which no loss saw
        raise TrainingDivergedError(epoch, last_finite, "parameters")
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
