"""The training hot path as it was before it stopped allocating, kept
verbatim as references: the boolean-mask ``sigmoid``, the allocating RMSProp
and Adam steps, and ``RecurrentNetwork.backward`` with layer kernels that
allocate a fresh gradient vector and compute every product, the dropped
input gradient of layer 0 included.

The current code evaluates the same operations on the same operands in the
same order, so every result must match these bit for bit.

``per_url_extract_domain`` is ``ingest.extract_domain`` as it was before it
parsed each distinct authority once: it runs ``urlsplit`` on the whole text
of every call.  The memoized function must return the same domain, or raise
the same exception type with the same message, on every input.
"""

from urllib.parse import urlsplit

import numpy as np

from leancast import optim
from leancast.ingest import _HOST_RE, _MULTI_SUFFIXES, DomainParseError
from leancast.neural import FlatParameters, _gates


def masked_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def allocating_rmsprop_step(theta, grad, state, learning_rate):
    state.t += 1
    state.v *= optim.RMSPROP_RHO
    state.v += (1.0 - optim.RMSPROP_RHO) * grad * grad
    theta -= learning_rate * grad / np.sqrt(state.v + optim.EPSILON)


def allocating_adam_step(theta, grad, state, learning_rate):
    state.t += 1
    state.m *= optim.ADAM_BETA1
    state.m += (1.0 - optim.ADAM_BETA1) * grad
    state.v *= optim.ADAM_BETA2
    state.v += (1.0 - optim.ADAM_BETA2) * grad * grad
    m_hat = state.m / (1.0 - optim.ADAM_BETA1 ** state.t)
    v_hat = state.v / (1.0 - optim.ADAM_BETA2 ** state.t)
    theta -= learning_rate * m_hat / (np.sqrt(v_hat) + optim.EPSILON)


def lstm_layer_backward(dh_seq, caches, weights, grads):
    (W, _), (dW, db) = weights, grads
    n, steps, hidden = dh_seq.shape
    dx_seq = np.empty((n, steps, W.shape[1] - hidden))
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
        dzcat = da @ W
        dh_next = dzcat[:, :hidden]
        dx_seq[:, t, :] = dzcat[:, hidden:]
    return dx_seq


def gru_layer_backward(dh_seq, caches, weights, grads):
    (W, U, _), (dW, dU, db) = weights, grads
    n, steps, hidden = dh_seq.shape
    dx_seq = np.empty((n, steps, W.shape[1]))
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
        dh_next = dh * (1.0 - z) + drh * r + da_zr @ U[:2 * hidden]
        dx_seq[:, t, :] = da @ W
    return dx_seq


def allocating_backward(net, cache, d_outputs, out=None):
    """The former ``RecurrentNetwork.backward``; ``out`` is accepted and
    ignored, so this can stand in for the method in a training loop."""
    d_outputs = np.asarray(d_outputs, dtype=np.float64)
    grads = FlatParameters(net.config)
    grads["out.W"][...] = np.einsum("nto,nth->oh", d_outputs, cache["top"])
    grads["out.b"][...] = d_outputs.sum(axis=(0, 1))
    kernel = lstm_layer_backward if net.config.cell == "lstm" else gru_layer_backward
    dh_seq = d_outputs @ net.W_out
    for layer_idx in reversed(range(len(net.layers))):
        mask = cache["masks"][layer_idx]
        if mask is not None:
            dh_seq = dh_seq * mask
        dh_seq = kernel(dh_seq, cache["layers"][layer_idx],
                        net.parameters().blocks[layer_idx], grads.blocks[layer_idx])
    return grads


def per_url_extract_domain(url_or_domain: str) -> str:
    """Registrable domain of a URL or bare hostname, lowercased, www-less."""
    text = url_or_domain.strip()
    if not text:
        raise DomainParseError("cannot extract a domain from empty text")
    if "://" in text:
        host = urlsplit(text).hostname
        if not host:
            raise DomainParseError(f"cannot extract a domain from {url_or_domain!r}")
    else:
        host = text.split("/", 1)[0]
        if host.count(":") == 1:        # tolerate a port on a bare host
            host = host.split(":", 1)[0]
    host = host.lower().rstrip(".")
    if not _HOST_RE.match(host):
        raise DomainParseError(f"cannot extract a domain from {url_or_domain!r}")
    if host.startswith("www."):
        host = host[4:]
    labels = host.split(".")
    if len(labels) < 2:
        raise DomainParseError(f"cannot extract a domain from {url_or_domain!r}")
    take = 3 if len(labels) >= 3 and ".".join(labels[-2:]) in _MULTI_SUFFIXES else 2
    return ".".join(labels[-take:])
