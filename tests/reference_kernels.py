"""Former implementations of hot paths, kept verbatim as references.

The per-layer stack: ``per_layer_forward`` and ``per_layer_backward`` are
``RecurrentNetwork.forward`` and ``.backward`` as they were before the
layers ran as wavefronts, with their layer kernels (``_lstm_layer_forward``
and friends): each layer runs its whole time loop before the next layer
starts.  The kernels take a one-step layout too (an LSTM W without its
h-columns, a GRU without U) and run the full recursion on it: the LSTM
still forms f * c, the carries and every d(gate) from its zero state, and
the GRU its U terms from zero matrices, whose gradient is dropped.
``prefix_decode`` is ``forecasters.decode_multistep`` as it was before it
carried its state: one forward over the whole prefix per step ahead.  The
wavefront schedule evaluates the same operations on the same operands, so
every result must match these bit for bit; a one-step network's layer
loop, which skips the zero terms, must match them too.

The training hot path as it was before it stopped allocating: the
boolean-mask ``sigmoid``, the allocating RMSProp and Adam steps, and
``allocating_backward``, whose layer kernels allocate a fresh gradient
vector and compute every product, the dropped input gradient of layer 0
included.  It reads the cache of ``per_layer_forward``.

``per_url_extract_domain`` is ``ingest.extract_domain`` as it was before it
parsed each distinct authority once: it runs ``urlsplit`` on the whole text
of every call.  The memoized function must return the same domain, or raise
the same exception type with the same message, on every input.

The record ingest path as it was before posts became columns, with its
own record type so that it shares no rule code with ``leancast``:
``per_row_read_posts_csv`` parses and checks one row at a time into an
``OraclePost``, stating each posts-row rule and the UTC-day conversion
itself, and ``per_record_aggregate`` labels each record with
``per_record_label_post`` (through ``per_url_extract_domain``) and reads its
UTC day, likes and sentiment one record at a time.  The reader adds the two
checks the columnar reader moved to read time from crashes inside
``aggregate``: likes too large for a float and timestamps whose UTC day is
outside ``datetime``'s range.  It states the timestamp grammar that every
supported Python reads alike with its own pattern, and names a row by the
physical line it starts on, as the columnar reader does.  The columnar
reader plus ``aggregate`` must give the same series and summary, or raise
the same exception type with the same message, on every input.

``csv_module_blocks`` is ``ingest._csv_blocks`` as it was before quote-free
lines were split in bulk: the csv module reads every record, and the block
size is ``ingest._BLOCK_ROWS`` as it stands when the reader starts.  The
bulk reader must yield the same ``(line numbers, columns)`` blocks and end
with the same exception type and text on every input.

``ar1_loop`` is ``generate_synthetic("ar1")`` as it was before it ran the
(1,0,0) model through ``sarima.simulate``: its own scalar recursion over
``rng.normal(0, sigma, n)``.  The two must agree bit for bit on every sigma
the generator accepts.
"""

import csv
import datetime as dt
import re
from typing import NamedTuple
from urllib.parse import urlsplit

import numpy as np

from leancast import ingest, neural, optim
from leancast.ingest import (_HOST_RE, _MULTI_SUFFIXES, INGEST_METRICS, LEANINGS,
                             PLATFORMS, POSTS_HEADER, DomainParseError, IngestSummary,
                             _first_non_utf8_line)
from leancast.series import DailySeries
from leancast.neural import FlatParameters, dropout_masks
from leancast.rng import derive_rng


def _gates(a, count):
    """The ``count`` per-gate column views of a fused (n, count*H) array."""
    return a.reshape(len(a), count, -1).swapaxes(0, 1)


def _lstm_layer_forward(x_seq, W, b, one_step=False):
    """W is [W_i; W_f; W_g; W_o] as one (4H, H+I) block, or (4H, I) for a
    one-step layer: one GEMM per step."""
    n, steps, _ = x_seq.shape
    hidden = len(b) // 4
    h = c = np.zeros((n, hidden))
    hs = np.empty((n, steps, hidden))
    caches = []
    for t in range(steps):
        zcat = x_seq[:, t, :] if one_step else np.concatenate([h, x_seq[:, t, :]], axis=1)
        a = zcat @ W.T + b
        gates = neural.sigmoid(a)
        gates[:, 2 * hidden:3 * hidden] = np.tanh(a[:, 2 * hidden:3 * hidden])
        i, f, g, o = _gates(gates, 4)
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h = o * tc
        hs[:, t, :] = h
        caches.append((zcat, gates, c, tc))
        c = c_new
    return hs, caches


def _lstm_layer_backward(dh_seq, caches, weights, grads, input_grad=True, one_step=False):
    """Accumulates into the (dW, db) blocks ``grads``; returns d(input), or
    None when ``input_grad`` is false (layer 0, whose input is the data)."""
    (W, _), (dW, db) = weights, grads
    n, steps, hidden = dh_seq.shape
    width = W.shape[1] - (0 if one_step else hidden)
    dx_seq = np.empty((n, steps, width)) if input_grad else None
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
                dx_seq[:, t, :] = dzcat[:, -width:]
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
        zr = neural.sigmoid(ax[:, :2 * hidden] + h @ U_zr.T + b_zr)
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


def _layer_blocks(net, params, layer_idx):
    """Layer ``layer_idx``'s blocks of ``params`` (weights or gradients) as the
    kernels take them: a one-step GRU gets a zero U, into which its dU goes."""
    blocks = params.blocks[layer_idx]
    if net.one_step and net.config.cell == "gru":
        W, b = blocks
        blocks = (W, np.zeros((len(W), net.config.hidden)), b)
    return blocks


def _layer_kwargs(net):
    return {"one_step": net.one_step} if net.config.cell == "lstm" else {}


def per_layer_forward(net, x, training=False, dropout_rng=None, masks=None, out=None):
    # out (an earlier cache to refill) is accepted and ignored: this forward allocates
    x = np.asarray(x, dtype=np.float64)
    rate = net.config.dropout
    layer_forward = _lstm_layer_forward if net.config.cell == "lstm" else _gru_layer_forward
    layer_caches, used_masks, cur = [], [], x
    for layer_idx in range(len(net.layers)):
        hs, cache = layer_forward(cur, *_layer_blocks(net, net.parameters(), layer_idx),
                                  **_layer_kwargs(net))
        layer_caches.append(cache)
        mask = None
        if layer_idx < len(net.layers) - 1 and training and rate > 0.0:
            dropout_rng = dropout_rng or derive_rng(net.config.seed, "dropout")
            mask = (dropout_masks(dropout_rng, hs.shape, rate) if masks is None
                    else masks[layer_idx])
        used_masks.append(mask)
        cur = hs if mask is None else hs * mask
    outputs = cur @ net.W_out.T + net.b_out
    return outputs, {"top": cur, "layers": layer_caches, "masks": used_masks}


def per_layer_backward(net, cache, d_outputs):
    d_outputs = np.asarray(d_outputs, dtype=np.float64)
    grads = FlatParameters(net.config, net.one_step)
    grads["out.W"][...] = np.einsum("nto,nth->oh", d_outputs, cache["top"])
    grads["out.b"][...] = d_outputs.sum(axis=(0, 1))
    kernel = _lstm_layer_backward if net.config.cell == "lstm" else _gru_layer_backward
    dh_seq = d_outputs @ net.W_out
    for layer_idx in reversed(range(len(net.layers))):
        mask = cache["masks"][layer_idx]
        if mask is not None:
            dh_seq = dh_seq * mask
        dh_seq = kernel(dh_seq, cache["layers"][layer_idx],
                        _layer_blocks(net, net.parameters(), layer_idx),
                        _layer_blocks(net, grads, layer_idx), input_grad=layer_idx > 0,
                        **_layer_kwargs(net))
    return grads


def prefix_decode(net, scaled_values, horizon):
    values = np.asarray(scaled_values, dtype=np.float64)
    lead, lookback = values.shape[:-1], values.shape[-1]
    seq = np.empty((int(np.prod(lead)), lookback + horizon))
    seq[:, :lookback] = values.reshape(-1, lookback)
    for k in range(horizon):
        outputs = per_layer_forward(net, seq[:, :lookback + k, None])[0]
        seq[:, lookback + k] = outputs[:, -1, 0]
    return (seq[:, lookback:].reshape(lead + (horizon,)),
            seq[:, :-1].reshape(lead + (lookback + horizon - 1,)))


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


def csv_module_blocks(path, header: list, what: str):
    """Yield ``(line numbers, columns)`` per block of up to ``_BLOCK_ROWS``
    non-blank data rows of the CSV at ``path``: one list of stripped cells
    per header field, filled as rows stream in.  The header must be
    ``header`` and each row must have as many fields; the rows before a
    short or long row, or one the csv module rejects (a cell over its field
    size limit), are yielded before it raises, so a bad value above it is
    reported first.  The last block may be empty."""
    _BLOCK_ROWS = ingest._BLOCK_ROWS
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        lines, columns = [], tuple([] for _ in header)
        start = 1   # the physical line the next record starts on; a quoted cell may span lines
        try:
            got = next(reader, None)
            if got != header:
                raise ValueError(f"{what} CSV header must be {','.join(header)}, got {got}")
            start = reader.line_num + 1
            for cells in reader:
                line_no, start = start, reader.line_num + 1
                if not cells:
                    continue
                if len(cells) != len(header):
                    yield lines, columns
                    raise ValueError(f"{what} row {line_no}: expected {len(header)} fields, "
                                     f"got {len(cells)}")
                lines.append(line_no)
                for column, cell in zip(columns, cells):
                    column.append(cell.strip())
                if len(lines) == _BLOCK_ROWS:
                    yield lines, columns
                    lines, columns = [], tuple([] for _ in header)
        except csv.Error as exc:
            yield lines, columns
            raise ValueError(f"{what} CSV line {start}: {exc}") from None
        except UnicodeDecodeError as exc:
            line, byte = _first_non_utf8_line(path), exc.object[exc.start]
            raise ValueError(f"{what} CSV {path} line {line}: byte {byte:#04x} is not UTF-8 "
                             f"({exc.reason})") from None
        yield lines, columns


class OraclePost(NamedTuple):
    post_id: str
    utc_date: dt.date       # the calendar day of the timestamp in UTC; naive is UTC
    platform: str
    url_or_domain: str
    likes: int
    sentiment: float | None


# an ISO date, then optionally any one character and an hour, minutes and
# seconds with a fraction of up to six digits, then optionally Z or an offset
_ORACLE_FRACTION = r"(?:[.][0-9][0-9]?[0-9]?[0-9]?[0-9]?[0-9]?)"
_ORACLE_STAMP = re.compile(
    rf"\d\d\d\d-\d\d-\d\d(?:.\d\d(?::\d\d(?::\d\d{_ORACLE_FRACTION}?)?)?)?"
    rf"(?:Z|[-+]\d\d:\d\d(?::\d\d{_ORACLE_FRACTION}?)?)?", re.ASCII | re.DOTALL)


def _oracle_fromisoformat(ts: str) -> dt.datetime:
    """``fromisoformat`` of a stamp the grammar above accepts, its "Z" read
    as "+00:00" and each fraction of seconds padded to six digits."""
    if _ORACLE_STAMP.fullmatch(ts) is None:
        raise ValueError(ts)
    ts = ts.replace("Z", "+00:00")
    for fraction in reversed(list(re.finditer(r":\d\d[.](\d+)", ts))):
        ts = ts[:fraction.start(1)] + fraction.group(1).ljust(6, "0") + ts[fraction.end(1):]
    return dt.datetime.fromisoformat(ts)


def per_row_read_posts_csv(path) -> list:
    """One ``OraclePost`` per non-blank row of the posts CSV at ``path``;
    errors name the physical line a row starts on."""
    posts = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        got = next(reader, None)
        if got != POSTS_HEADER:
            raise ValueError(f"posts CSV header must be {','.join(POSTS_HEADER)}, got {got}")
        start = reader.line_num + 1
        for cells in reader:
            line_no, start = start, reader.line_num + 1
            if not cells:
                continue
            if len(cells) != len(POSTS_HEADER):
                raise ValueError(f"posts row {line_no}: expected {len(POSTS_HEADER)} fields, "
                                 f"got {len(cells)}")
            where = f"posts row {line_no}"
            post_id, ts, platform, url, likes, sentiment = [c.strip() for c in cells]
            try:
                likes_val = int(likes)
            except ValueError:
                raise ValueError(f"{where}: likes must be an integer, got {likes!r}") from None
            try:
                sent_val = float(sentiment) if sentiment else None
            except ValueError:
                raise ValueError(f"{where}: sentiment must be a number, "
                                 f"got {sentiment!r}") from None
            try:
                timestamp = _oracle_fromisoformat(ts)
            except ValueError:
                raise ValueError(f"{where}: cannot parse timestamp {ts!r}") from None
            if platform not in PLATFORMS:
                raise ValueError(f"{where}: unknown platform {platform!r}; "
                                 f"expected one of {PLATFORMS}")
            if likes_val < 0:
                raise ValueError(f"{where}: post {post_id}: likes must be >= 0, got {likes_val}")
            if sent_val is not None and not -1.0 <= sent_val <= 1.0:
                raise ValueError(f"{where}: post {post_id}: sentiment {sent_val} outside [-1, 1]")
            try:
                float(likes_val)
            except OverflowError:
                raise ValueError(f"{where}: likes {likes!r} too large") from None
            try:
                if timestamp.tzinfo is not None:
                    timestamp = timestamp.astimezone(dt.timezone.utc)
            except OverflowError:
                raise ValueError(f"{where}: timestamp {ts!r} is out of range in UTC") from None
            posts.append(OraclePost(post_id, timestamp.date(), platform, url, likes_val,
                                    sent_val))
    return posts


def per_record_label_post(post, table):
    """The bias table's leaning for the post's domain, or None if unknown."""
    if not table.entries:
        raise ValueError("bias table is empty")
    try:
        return table.entries.get(per_url_extract_domain(post.url_or_domain))
    except ValueError as exc:           # name the post, keep the exception type
        raise type(exc)(f"post {post.post_id}: {exc}") from None


def per_record_aggregate(posts, table, window, metrics) -> tuple:
    """``ingest.aggregate`` over a list of records, one record at a time."""
    for metric in metrics:
        if metric not in INGEST_METRICS:
            raise ValueError(f"unknown aggregation metric {metric!r}")
    start, end = window
    if start > end:
        raise ValueError(f"empty date window: {start} > {end}")
    posts = list(posts)
    code_of = {**{leaning: code for code, leaning in enumerate(LEANINGS)}, None: -1}
    codes = np.array([code_of[per_record_label_post(p, table)] for p in posts], dtype=np.intp)
    days = np.array([p.utc_date.toordinal() for p in posts], dtype=np.intp)
    likes = np.array([p.likes for p in posts], dtype=np.float64)
    sentiment = np.array([np.nan if p.sentiment is None else p.sentiment for p in posts],
                         dtype=np.float64)

    labeled = codes >= 0
    n_total, n_labeled = len(posts), int(labeled.sum())
    per_leaning = np.bincount(codes[labeled], minlength=len(LEANINGS)).tolist()
    summary = IngestSummary(
        total_posts=n_total, labeled_posts=n_labeled, unlabeled_posts=n_total - n_labeled,
        per_leaning_counts=dict(zip(LEANINGS, per_leaning)),
        date_range=(dt.date.fromordinal(int(days.min())),
                    dt.date.fromordinal(int(days.max()))) if posts else None)
    platforms = {p.platform for p in posts}
    platform = (platforms.pop() if len(platforms) == 1
                else "mixed" if platforms else "unknown")

    n_days = (end - start).days + 1
    day = days - start.toordinal()
    kept = labeled & (day >= 0) & (day < n_days)
    cell = codes[kept] * n_days + day[kept]

    def daily_sums(weights=None):
        return np.bincount(cell, weights, minlength=len(LEANINGS) * n_days).astype(np.float64)

    def series_of(metric):
        if metric == "post_count":
            values = daily_sums()
        elif metric == "likes_sum":
            values = daily_sums(likes[kept])
        else:
            missing = kept & np.isnan(sentiment)
            if missing.any():
                ids = sorted(p.post_id for p, m in zip(posts, missing) if m)
                raise ValueError(f"posts missing sentiment: {', '.join(ids)}")
            counts = daily_sums()
            values = np.where(counts > 0,
                              daily_sums(sentiment[kept]) / np.maximum(counts, 1), np.nan)
        return {leaning: DailySeries(start_date=start, values=row, platform=platform,
                                     leaning=leaning, metric=metric)
                for leaning, row in zip(LEANINGS, values.reshape(len(LEANINGS), n_days))}

    return summary, platform, {metric: series_of(metric) for metric in metrics}


def ar1_loop(n, seed, alpha=0.0, sigma=1.0) -> np.ndarray:
    eps = np.random.default_rng(seed).normal(0.0, sigma, n)
    values = np.empty(n)
    prev = 0.0
    for t in range(n):
        prev = alpha * prev + eps[t]
        values[t] = prev
    return values
