"""Seasonal ARIMA estimation via conditional sum of squares.

The model for the (optionally differenced) series y is additive in its
seasonal terms:

    y_t = c + sum_{n=1..p} alpha_n * y_{t-n}  + sum_{n=1..q} theta_n * e_{t-n}
            + sum_{n=1..P} phi_n   * y_{t-sn} + sum_{n=1..Q} eta_n   * e_{t-sn}
            + e_t

with e_t the one-step residual.  Estimation minimizes the conditional sum of
squares (pre-sample residuals fixed at zero) by Levenberg-Marquardt; no
state-space likelihood is involved.  Order selection is a plain grid search
scored either by holdout one-step RMSE or by AIC.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

SSE_TOL = 1e-8   # stop once an accepted step gains less than this share of the SSE
MAX_ITER = 200   # Levenberg-Marquardt iterations (Jacobians) per fit
VALIDATION_FRACTION = 0.2   # share of the series that holdout_rmse scores on


class GridSearchError(RuntimeError):
    """Raised when no grid candidate could be fitted; carries diagnostics."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class SarimaSpec:
    """Orders (p, d, q) and seasonal orders (P, D, Q, s).  s = 0 disables
    the seasonal terms entirely."""

    p: int = 0
    d: int = 0
    q: int = 0
    P: int = 0
    D: int = 0
    Q: int = 0
    s: int = 0

    def __post_init__(self):
        for name in ("p", "d", "q", "P", "D", "Q", "s"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"order {name} must be a nonnegative integer, got {v!r}")
        if (self.P > 0 or self.D > 0 or self.Q > 0) and self.s < 2:
            raise ValueError(f"seasonal orders require s >= 2, got s={self.s}")

    @classmethod
    def from_orders(cls, order, seasonal) -> "SarimaSpec":
        """Spec from ``[p, d, q]`` and ``[P, D, Q, s]`` lists, as configs and
        model files give them."""
        if not isinstance(order, list) or len(order) != 3:
            raise ValueError(f"spec order must be [p, d, q], got {order!r}")
        if not isinstance(seasonal, list) or len(seasonal) != 4:
            raise ValueError(f"spec seasonal must be [P, D, Q, s], got {seasonal!r}")
        return cls(*order, *seasonal)

    @property
    def burn_in(self) -> int:
        return max(self.p, self.s * self.P)

    @property
    def n_coefficients(self) -> int:
        return self.p + self.q + self.P + self.Q

    def as_tuple(self):
        return (self.p, self.d, self.q, self.P, self.D, self.Q, self.s)


@dataclass(frozen=True)
class SarimaParams:
    """Constant, coefficient vectors and innovation variance for one spec."""

    c: float = 0.0
    alpha: tuple = ()
    theta: tuple = ()
    phi: tuple = ()
    eta: tuple = ()
    sigma2: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "theta", "phi", "eta"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")

    def check_lengths(self, spec: SarimaSpec):
        expected = {"alpha": spec.p, "theta": spec.q, "phi": spec.P, "eta": spec.Q}
        for name, want in expected.items():
            got = len(getattr(self, name))
            if got != want:
                raise ValueError(f"{name} has {got} coefficients, spec requires {want}")


@dataclass(frozen=True)
class SarimaFit:
    spec: SarimaSpec
    params: SarimaParams
    residuals: np.ndarray        # one per evaluated time step, differenced scale
    sse: float
    converged: bool
    train_rmse: float


def difference(values, d: int, D: int, s: int) -> tuple[np.ndarray, tuple]:
    """Apply ordinary differencing d times, then seasonal differencing D times.

    Output length is n - d - D*s; a series too short for that raises
    ``ValueError``.  Also returns the stages that undo it: ``stages[k]`` is
    (lag, the full series before the k-th pass).  :func:`invert_difference`
    restores the observed range from them, so the round trip is lossless,
    and integrates entries appended past it, which forecasting needs.
    """
    values = np.asarray(values, dtype=np.float64)
    if D > 0 and s < 2:
        raise ValueError("seasonal differencing requires s >= 2")
    if len(values) <= d + D * s:
        raise ValueError(
            f"series of length {len(values)} too short for d={d}, D={D}, s={s}")
    stages = []
    cur = values
    for _ in range(d):
        stages.append((1, cur))
        cur = cur[1:] - cur[:-1]
    for _ in range(D):
        stages.append((s, cur))
        cur = cur[s:] - cur[:-s]
    return cur, tuple(stages)


def invert_difference(diffed, stages: tuple) -> np.ndarray:
    """Undo the differencing recorded in ``stages`` by :func:`difference`.

    ``diffed`` may extend the series that produced the stages (forecast
    values appended at the end); its leading entries are assumed unchanged.
    """
    cur = np.asarray(diffed, dtype=np.float64)
    for lag, prev in reversed(stages):
        out = np.empty(len(cur) + lag)
        n_known = min(len(prev), len(out))
        out[:n_known] = prev[:n_known]
        for t in range(n_known, len(out)):
            out[t] = cur[t - lag] + out[t - lag]
        cur = out
    return cur


def _arma_pass(w, eps, n_observed: int, start: int, spec: SarimaSpec,
               params: SarimaParams) -> tuple[np.ndarray, np.ndarray]:
    """The ARMA conditional mean, run over t = start .. len(w) - 1.

    Where the data covers t (t < n_observed) the step sets
    eps[t] = w[t] - mean; past it, w[t] = mean + eps[t].  Lags that reach
    before the series read zero.  Returns filled copies of (w, eps), which
    may be (n, k) to run k series at once.
    """
    p, q, P, Q, s = spec.p, spec.q, spec.P, spec.Q, spec.s
    # one zero beyond the largest lag keeps every reversed slice's stop >= 0
    pad = max(p, q, s * P, s * Q) + 1
    wp = np.concatenate([np.zeros((pad,) + w.shape[1:]), w])
    ep = np.concatenate([np.zeros((pad,) + eps.shape[1:]), eps])
    alpha, theta, phi, eta = map(np.asarray, (params.alpha, params.theta, params.phi, params.eta))
    # seasonal lags are gathered into contiguous copies: a strided view would
    # take a different dot-product path and change the last bits of the sum
    seasonal_ar = s * np.arange(1, P + 1)
    seasonal_ma = s * np.arange(1, Q + 1)
    known = pad + n_observed
    for t in range(pad + start, len(wp)):
        acc = params.c
        if p:
            acc += alpha @ wp[t - 1:t - p - 1:-1]
        if q:
            acc += theta @ ep[t - 1:t - q - 1:-1]
        if P:
            acc += phi @ wp[t - seasonal_ar]
        if Q:
            acc += eta @ ep[t - seasonal_ma]
        if t < known:
            ep[t] = wp[t] - acc
        else:
            wp[t] = acc + ep[t]
    return wp[pad:], ep[pad:]


def _check_history(n: int, spec: SarimaSpec, params: SarimaParams):
    """Raise unless ``n`` differenced observations cover the burn-in."""
    params.check_lengths(spec)
    if n < spec.burn_in + 1:
        raise ValueError(f"need at least {spec.burn_in + 1} observations, got {n}")


def css_residuals(w, spec: SarimaSpec, params: SarimaParams) -> tuple[np.ndarray, float]:
    """One-step residuals over the evaluated range t = burn_in .. n-1 and
    their sum of squares.  Pre-sample residuals are fixed at zero."""
    w = np.asarray(w, dtype=np.float64)
    _check_history(len(w), spec, params)
    _, eps = _arma_pass(w, np.zeros(len(w)), len(w), spec.burn_in, spec, params)
    tail = eps[spec.burn_in:]
    return tail, float(tail @ tail)


def _unpack(vec, spec: SarimaSpec) -> SarimaParams:
    alpha, theta, phi, eta = np.split(vec[1:], np.cumsum([spec.p, spec.q, spec.P]))
    return SarimaParams(vec[0], alpha, theta, phi, eta)


def _lags(x, count: int, spacing: int = 1) -> np.ndarray:
    """(len(x), count) matrix of x delayed by spacing, 2 * spacing, ..., zero before the start."""
    n, lags = len(x), spacing * np.arange(1, count + 1)
    return np.concatenate([np.zeros(n), x])[n + np.subtract.outer(np.arange(n), lags)]


def _neg_jacobian(w, residuals, spec: SarimaSpec, params: SarimaParams) -> np.ndarray:
    """Minus the Jacobian of ``css_residuals`` in [c, alpha, theta, phi, eta]:
    the regressors [1, w-lags, eps-lags, seasonal w-lags, seasonal eps-lags]
    run through the MA part of the recursion."""
    eps = np.concatenate([np.zeros(spec.burn_in), residuals])
    x = np.hstack([np.ones((len(w), 1)), _lags(w, spec.p), _lags(eps, spec.q),
                   _lags(w, spec.P, spec.s), _lags(eps, spec.Q, spec.s)])
    _, minus_jac = _arma_pass(x, np.zeros_like(x), len(x), spec.burn_in,
                              SarimaSpec(q=spec.q, Q=spec.Q, s=spec.s),
                              SarimaParams(theta=params.theta, eta=params.eta))
    return minus_jac[spec.burn_in:]


def fit(values, spec: SarimaSpec, seed: int = 0) -> SarimaFit:
    """Minimize the CSS by Levenberg-Marquardt from the zero model, taking a
    step only when it lowers the SSE: the sse never exceeds the zero model's.
    ``converged``: a step gained < ``SSE_TOL`` of the SSE or no damped step
    lowered it, before ``MAX_ITER`` ran out.  ``seed`` is unused."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("series contains non-finite values")
    w, _ = difference(values, spec.d, spec.D, spec.s)
    floor = 10 + spec.p + spec.q + spec.s * (spec.P + spec.Q)
    if len(w) < floor:
        raise ValueError(
            f"differenced length {len(w)} below identifiability floor {floor} for {spec}")

    beta = np.zeros(1 + spec.n_coefficients)
    with np.errstate(over="ignore"):
        residuals, sse = css_residuals(w, spec, _unpack(beta, spec))
    if not np.isfinite(sse):
        raise ValueError(f"the zero model's sum of squares overflows ({sse}): "
                         f"the series is too large to fit")
    # a small first damping keeps early steps near Gauss-Newton: exact without MA terms
    damping, converged = 1e-6, False
    # a trial step that makes the MA recursion explode has an inf or nan sse: rejected
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_ITER):
            jac = _neg_jacobian(w, residuals, spec, _unpack(beta, spec))
            if not np.all(np.isfinite(jac)):
                break
            # min |residuals - jac @ step|^2 + damping * |scale * step|^2 (Marquardt's scale)
            scale = np.diag(np.sqrt(np.sum(jac * jac, axis=0)))
            target = np.concatenate([residuals, np.zeros(len(beta))])
            while damping <= 1e10:
                step = np.linalg.lstsq(np.vstack([jac, np.sqrt(damping) * scale]), target,
                                       rcond=None)[0]
                trial_residuals, trial_sse = css_residuals(w, spec, _unpack(beta + step, spec))
                if trial_sse < sse:
                    break
                damping *= 10.0
            else:
                converged = True    # no damped step lowers the SSE
                break
            converged = sse - trial_sse < SSE_TOL * sse
            beta, residuals, sse, damping = beta + step, trial_residuals, trial_sse, damping / 10.0
            if converged:
                break

    n_eval = len(residuals)
    return SarimaFit(spec, replace(_unpack(beta, spec), sigma2=sse / n_eval), residuals, sse,
                     converged, float(np.sqrt(sse / n_eval)))


def forecast(fitted: SarimaFit, history, horizon: int) -> np.ndarray:
    """Iterate the model ``horizon`` steps past the end of ``history``.

    Future residuals are set to zero and already-predicted values stand in
    for unobserved ones; differencing is undone so the result is on the
    original scale.  ``horizon`` = 0 yields an empty array.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    history = np.asarray(history, dtype=np.float64)
    spec, params = fitted.spec, fitted.params
    w, stages = difference(history, spec.d, spec.D, spec.s)
    _check_history(len(w), spec, params)
    if horizon == 0:
        return np.empty(0)
    w_ext, _ = _arma_pass(np.concatenate([w, np.zeros(horizon)]), np.zeros(len(w) + horizon),
                          len(w), spec.burn_in, spec, params)
    return invert_difference(w_ext, stages)[-horizon:]


def rolling_test_rmse(fitted: SarimaFit, train, test) -> float:
    """One-step rolling-origin RMSE over ``test`` with frozen parameters.

    Each forecast conditions on the true history up to that day (train plus
    the already-revealed test prefix), never on earlier forecasts.
    """
    train = np.asarray(train, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if len(test) == 0:
        raise ValueError("test segment is empty")
    spec, params = fitted.spec, fitted.params
    w, _ = difference(np.concatenate([train, test]), spec.d, spec.D, spec.s)
    n_train = len(w) - len(test)
    _check_history(n_train, spec, params)
    # every past value is observed, so a test day's one-step error is -eps
    _, eps = _arma_pass(w, np.zeros(len(w)), len(w), spec.burn_in, spec, params)
    errors = -eps[n_train:]
    return float(np.sqrt(np.mean(errors ** 2)))


def _grid_value(name: str, v) -> int:
    # a float or bool order would be truncated or read as 0/1 without notice
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
        raise ValueError(f"grid value for {name} must be a nonnegative integer, got {v!r}")
    return int(v)


@dataclass(frozen=True)
class GridSpec:
    """Candidate values for each order, plus the selection rule."""

    p: tuple = (0, 1)
    d: tuple = (0,)
    q: tuple = (0, 1)
    P: tuple = (0,)
    D: tuple = (0,)
    Q: tuple = (0,)
    s: tuple = (0,)
    selection: str = "holdout_rmse"

    def __post_init__(self):
        for name in ("p", "d", "q", "P", "D", "Q", "s"):
            vals = tuple(_grid_value(name, v) for v in getattr(self, name))
            if not vals:
                raise ValueError(f"grid range for {name} is empty")
            object.__setattr__(self, name, vals)
        if self.selection not in ("holdout_rmse", "aic"):
            raise ValueError(f"unknown selection rule {self.selection!r}")

    @classmethod
    def from_doc(cls, doc) -> "GridSpec":
        """The grid of a parsed JSON object.

        Each order maps either to a two-element inclusive interval
        (``"p": [0, 3]`` means 0,1,2,3) or to an explicit candidate set
        (``"s": {"values": [0, 7]}``).
        """
        if not isinstance(doc, dict):
            raise ValueError(f"a grid must be an object, got {doc!r}")
        obj = dict(doc)
        selection = obj.pop("selection", "holdout_rmse")
        fields = {}
        for name, val in obj.items():
            if name not in ("p", "d", "q", "P", "D", "Q", "s"):
                raise ValueError(f"unknown grid key {name!r}")
            if isinstance(val, dict) and set(val) == {"values"}:
                fields[name] = tuple(val["values"])
            elif isinstance(val, (list, tuple)) and len(val) == 2:
                lo, hi = _grid_value(name, val[0]), _grid_value(name, val[1])
                if hi < lo:
                    raise ValueError(f"grid interval for {name} is empty: {val}")
                fields[name] = tuple(range(lo, hi + 1))
            elif isinstance(val, int):
                fields[name] = (val,)
            else:
                raise ValueError(f"grid entry for {name} must be [lo, hi], an int, "
                                 f"or {{'values': [...]}}, got {val!r}")
        return cls(selection=selection, **fields)

    def candidates(self) -> list[SarimaSpec]:
        """Cartesian product in lexicographic (p,d,q,P,D,Q,s) order.

        Combinations with s < 2 or no seasonal terms (P = D = Q = 0) fold
        into s = 0, the one model they all are, then duplicates are dropped.
        """
        seen = set()
        out = []
        for p, d, q, P, D, Q, s in itertools.product(
                self.p, self.d, self.q, self.P, self.D, self.Q, self.s):
            if s < 2 or P == D == Q == 0:
                P, D, Q, s = 0, 0, 0, 0
            key = (p, d, q, P, D, Q, s)
            if key in seen:
                continue
            seen.add(key)
            out.append(SarimaSpec(p=p, d=d, q=q, P=P, D=D, Q=Q, s=s))
        out.sort(key=lambda sp: sp.as_tuple())
        return out


@dataclass(frozen=True)
class CandidateScore:
    spec: SarimaSpec
    score: float | None
    error: str | None = None


@dataclass(frozen=True)
class GridSearchResult:
    spec: SarimaSpec
    fit: SarimaFit
    candidates: tuple  # CandidateScore per evaluated spec, search order


def grid_search(train, grid: GridSpec, seed: int = 0) -> GridSearchResult:
    """Evaluate every candidate spec and return the winner refit on all of
    ``train``.

    Under ``holdout_rmse`` each candidate is fitted on the earlier
    ``1 - VALIDATION_FRACTION`` share and scored by one-step rolling RMSE on
    the remainder; under ``aic`` it is fitted on the full series and scored
    by 2k + n*ln(sse/n).  Ties break toward fewer coefficients, then by
    lexicographic (p,d,q,P,D,Q,s) order.  ``seed`` is unused.
    """
    train = np.asarray(train, dtype=np.float64)
    specs = grid.candidates()
    n_fit = int(np.floor((1.0 - VALIDATION_FRACTION) * len(train)))
    fit_part, val_part = train[:n_fit], train[n_fit:]

    scored = []
    diagnostics = []
    for spec in specs:
        try:
            if grid.selection == "holdout_rmse":
                if len(val_part) == 0:
                    raise ValueError("validation segment is empty")
                candidate_fit = fit(fit_part, spec)
                score = rolling_test_rmse(candidate_fit, fit_part, val_part)
            else:
                candidate_fit = fit(train, spec)
                k = 1 + spec.n_coefficients
                n_eval = len(candidate_fit.residuals)
                sse = max(candidate_fit.sse, 1e-300)  # guard ln(0) on exact fits
                score = 2.0 * k + n_eval * np.log(sse / n_eval)
            scored.append((score, spec.n_coefficients, spec.as_tuple(), spec))
            diagnostics.append(CandidateScore(spec=spec, score=float(score)))
        except ValueError as exc:
            diagnostics.append(CandidateScore(spec=spec, score=None, error=str(exc)))
    if not scored:
        raise GridSearchError("no grid candidate could be fitted", diagnostics)

    scored.sort(key=lambda item: item[:3])
    winner = scored[0][3]
    final = fit(train, winner)
    return GridSearchResult(spec=winner, fit=final, candidates=tuple(diagnostics))


def simulate(spec: SarimaSpec, params: SarimaParams, n: int, rng) -> np.ndarray:
    """Draw innovations and run the model forward from zero pre-sample state,
    then integrate away the differencing (also from zero initial values)."""
    params.check_lengths(spec)
    if n < 1:
        raise ValueError("n must be >= 1")
    eps = rng.normal(0.0, np.sqrt(params.sigma2), n) if params.sigma2 > 0 else np.zeros(n)
    w, _ = _arma_pass(np.zeros(n), eps, 0, 0, spec, params)
    zero_start = ((1, np.zeros(1)),) * spec.d + ((spec.s, np.zeros(spec.s)),) * spec.D
    return invert_difference(w, zero_start)[-n:]


# the keys of a model document, all of which to_doc writes
MODEL_KEYS = ("order", "seasonal", "c", "alpha", "theta", "phi", "eta", "sigma2")


def to_doc(spec: SarimaSpec, params: SarimaParams) -> dict:
    return {
        "order": [spec.p, spec.d, spec.q],
        "seasonal": [spec.P, spec.D, spec.Q, spec.s],
        "c": params.c,
        "alpha": list(params.alpha),
        "theta": list(params.theta),
        "phi": list(params.phi),
        "eta": list(params.eta),
        "sigma2": params.sigma2,
    }


def from_doc(obj) -> tuple[SarimaSpec, SarimaParams]:
    """The spec and parameters of a parsed model document, checked."""
    if not isinstance(obj, dict):
        raise ValueError(f"a SARIMA model must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(MODEL_KEYS))
    if unknown:
        raise ValueError(f"unknown SARIMA model keys: {', '.join(unknown)}")
    spec = SarimaSpec.from_orders(obj.get("order"), obj.get("seasonal"))
    params = SarimaParams(**{k: obj[k] for k in MODEL_KEYS[2:] if k in obj})
    params.check_lengths(spec)
    return spec, params
