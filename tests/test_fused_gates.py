"""The network's fused-gate wavefront kernels against the per-gate kernels
they replaced.

The ``_oracle_*`` functions are the former ``neural`` layer kernels, kept
verbatim: one GEMM per gate in forward and backward, one layer's whole time
loop after another.  The production kernels stack the gates' rows into one
block, which changes the summation order of ``dx`` and the recurrent
gradient, so outputs and every named weight gradient must agree within
1e-12 relative to each array's largest entry.
"""

import numpy as np
import pytest

from leancast.neural import (GruLayerWeights, LstmLayerWeights, NetworkConfig,
                             RecurrentNetwork, sigmoid)


def _oracle_lstm_forward(x_seq, w: LstmLayerWeights):
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


def _oracle_lstm_backward(dh_seq, w: LstmLayerWeights, caches, input_size: int):
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


def _oracle_gru_forward(x_seq, w: GruLayerWeights):
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


def _oracle_gru_backward(dh_seq, w: GruLayerWeights, caches, input_size: int):
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


def _assert_close(actual, expected, what):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    worst = float(np.max(np.abs(actual - expected))) / scale
    assert worst <= 1e-12, f"{what}: relative error {worst:.3g}"


# (cell, layers, input size, hidden, steps)
CASES = {
    "lstm_flat_14_32": ("lstm", 1, 14, 32, 1),
    "lstm_sequence_1_8": ("lstm", 1, 1, 8, 18),
    "gru_flat_14_32": ("gru", 1, 14, 32, 1),
    "gru_sequence_1_8": ("gru", 1, 1, 8, 18),
    "lstm_deeper_layer": ("lstm", 2, 1, 8, 18),
    "gru_deeper_layer": ("gru", 2, 14, 32, 3),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_kernels_match_per_gate_oracle(case):
    cell, layers, input_size, hidden, steps = CASES[case]
    cfg = NetworkConfig(cell=cell, layers=layers, hidden=hidden, input_size=input_size,
                        output_size=2, seed=sorted(CASES).index(case))
    net = RecurrentNetwork(cfg)
    rng = np.random.default_rng(len(case))
    # gate pre-activations then cover both saturated and linear regions
    net.theta[:] = rng.normal(0, 0.5, net.theta.size)
    x = rng.normal(0, 1, (16, steps, input_size))
    d_outputs = rng.normal(0, 1, (16, steps, 2))
    oracle_fwd, oracle_bwd = ((_oracle_lstm_forward, _oracle_lstm_backward) if cell == "lstm"
                              else (_oracle_gru_forward, _oracle_gru_backward))

    outputs, cache = net.forward(x)
    ref_caches, hs = [], x
    for weights in net.layers:
        hs, layer_cache = oracle_fwd(hs, weights)
        ref_caches.append(layer_cache)
    _assert_close(cache["top"], hs, "top hidden states")
    _assert_close(outputs, hs @ net.W_out.T + net.b_out, "outputs")

    grads = net.backward(cache, d_outputs)
    dh = d_outputs @ net.W_out
    for k in reversed(range(layers)):
        in_size = input_size if k == 0 else hidden
        dh, ref_grads = oracle_bwd(dh, net.layers[k], ref_caches[k], in_size)
        for name in net.layers[k].FIELDS:
            _assert_close(grads[f"layer{k}.{name}"], ref_grads[name], f"layer{k}.{name}")
    _assert_close(grads["out.W"], np.einsum("nto,nth->oh", d_outputs, hs), "out.W")
    _assert_close(grads["out.b"], d_outputs.sum(axis=(0, 1)), "out.b")
