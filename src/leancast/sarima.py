"""Seasonal ARIMA estimation via conditional sum of squares.

The model for the (optionally differenced) series y is additive in its
seasonal terms:

    y_t = c + sum_{n=1..p} alpha_n * y_{t-n}  + sum_{n=1..q} theta_n * e_{t-n}
            + sum_{n=1..P} phi_n   * y_{t-sn} + sum_{n=1..Q} eta_n   * e_{t-sn}
            + e_t

with e_t the one-step residual: the AR regression residual run through the
inverse MA polynomial 1 + theta(B) + eta(B^s) by one lag recursion, which
also runs the Jacobian, forecasts, simulation and un-differencing.
Estimation minimizes the conditional sum of squares (pre-sample residuals
fixed at zero) by Levenberg-Marquardt; no state-space likelihood is
involved.  Order selection is a plain grid search scored either by holdout
one-step RMSE or by AIC.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .series import is_number

SSE_TOL = 1e-8   # stop once an accepted step gains less than this share of the SSE
MAX_ITER = 200   # Levenberg-Marquardt iterations (Jacobians) per fit
VALIDATION_FRACTION = 0.2   # share of the series that holdout_rmse scores on


class GridSearchError(RuntimeError):
    """Raised when no grid candidate could be fitted; carries diagnostics."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


def _nonnegative_int(what: str, v) -> int:
    # a float or bool order would be truncated or read as 0/1 without notice
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {v!r}")
    return int(v)


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
            _nonnegative_int(f"order {name}", getattr(self, name))
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

    @property
    def ar_lags(self) -> np.ndarray:
        """1..p, then s, 2s, .. Ps: the lags of ``SarimaParams.ar``; ``ma_lags`` of ``.ma``."""
        return np.concatenate([np.arange(1, self.p + 1), self.s * np.arange(1, self.P + 1)])

    @property
    def ma_lags(self) -> np.ndarray:
        return np.concatenate([np.arange(1, self.q + 1), self.s * np.arange(1, self.Q + 1)])

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
        for name, value in list(vars(self).items()):
            scalar = name in ("c", "sigma2")
            floats = tuple(map(float, [value] if scalar else value))
            if not all(map(math.isfinite, floats)):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, floats[0] if scalar else floats)
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")

    @property
    def ar(self) -> np.ndarray:
        """[alpha, phi], the coefficients on ``SarimaSpec.ar_lags``; ``ma`` is [theta, eta]."""
        return np.array(self.alpha + self.phi)

    @property
    def ma(self) -> np.ndarray:
        return np.array(self.theta + self.eta)

    def check_lengths(self, spec: SarimaSpec):
        expected = {"alpha": spec.p, "theta": spec.q, "phi": spec.P, "eta": spec.Q}
        for name, want in expected.items():
            got = len(getattr(self, name))
            if got != want:
                raise ValueError(f"{name} has {got} coefficients, spec requires {want}")


@dataclass(frozen=True)
class SarimaFit:
    """A spec's fitted parameters (sigma2 the mean squared residual), the
    training SSE and whether the search converged."""

    spec: SarimaSpec
    params: SarimaParams
    sse: float
    converged: bool

    @property
    def train_rmse(self) -> float:
        return float(np.sqrt(self.params.sigma2))

    def to_doc(self) -> dict:
        return {**to_doc(self.spec, self.params), "sse": self.sse, "converged": self.converged}

    @classmethod
    def from_doc(cls, doc) -> "SarimaFit":
        """The fit of a parsed document; its sse and convergence are read, never
        assumed, and the train_rmse that older files store is derived instead."""
        missing = [k for k in ("sse", "converged") if k not in doc]
        if missing:
            raise ValueError(f"sarima model lacks {', '.join(missing)}")
        _check_numbers(doc, ("sse",))
        if not isinstance(doc["converged"], bool):
            raise ValueError(f"converged must be true or false, got {doc['converged']!r}")
        model = {k: v for k, v in doc.items() if k not in ("sse", "converged", "train_rmse")}
        return cls(*from_doc(model), doc["sse"], doc["converged"])


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

    ``diffed`` is the series that produced the stages or extends it (forecast
    values appended at the end); its leading entries are assumed unchanged.
    """
    cur = np.asarray(diffed, dtype=np.float64)
    for lag, prev in reversed(stages):
        cur = _recurse(np.concatenate([prev, cur[len(prev) - lag:]]), np.ones(1), np.array([lag]),
                       start=len(prev))
    return cur


def _recurse(x, coeffs, lags, start: int = 0) -> np.ndarray:
    """y with y[t] = x[t] + coeffs @ y[t - lags] for t >= start and y[t] = x[t]
    before; lags that reach before the series read zero.  ``x`` may be
    (n, k) to run k series at once."""
    pad = int(np.max(lags, initial=0))
    y = np.concatenate([np.zeros((pad,) + np.shape(x)[1:]), x])
    if pad:
        for t in range(pad + start, len(y)):
            y[t] += coeffs @ y[t - lags]
    return y[pad:]


def _lags(x, lags) -> np.ndarray:
    """(len(x), len(lags)) matrix of x delayed by each lag, zero before the start."""
    pad = int(np.max(lags, initial=0))
    return np.concatenate([np.zeros(pad), x])[pad + np.subtract.outer(np.arange(len(x)), lags)]


def _check_history(n: int, spec: SarimaSpec, params: SarimaParams):
    """Raise unless ``n`` differenced observations cover the burn-in."""
    params.check_lengths(spec)
    if n < spec.burn_in + 1:
        raise ValueError(f"need at least {spec.burn_in + 1} observations, got {n}")


def css_residuals(w, spec: SarimaSpec, params: SarimaParams) -> tuple[np.ndarray, float]:
    """One-step residuals over the evaluated range t = burn_in .. n-1 and
    their sum of squares: the AR regression residual run through the MA
    recursion.  Pre-sample residuals are fixed at zero."""
    w = np.asarray(w, dtype=np.float64)
    _check_history(len(w), spec, params)
    b = spec.burn_in
    eps = _recurse(w[b:] - (params.c + _lags(w, spec.ar_lags)[b:] @ params.ar),
                   -params.ma, spec.ma_lags)
    return eps, float(eps @ eps)


def _unpack(vec, spec: SarimaSpec) -> SarimaParams:
    alpha, theta, phi, eta = np.split(vec[1:], np.cumsum([spec.p, spec.q, spec.P]))
    return SarimaParams(vec[0], alpha, theta, phi, eta)


def _neg_jacobian(w, residuals, spec: SarimaSpec, params: SarimaParams) -> np.ndarray:
    """Minus the Jacobian of ``css_residuals`` in [c, alpha, theta, phi, eta]:
    the regressors [1, w-lags, eps-lags, seasonal w-lags, seasonal eps-lags]
    run through the MA recursion of the residuals."""
    b = spec.burn_in
    w_lags = _lags(w, spec.ar_lags)[b:]
    eps_lags = _lags(np.concatenate([np.zeros(b), residuals]), spec.ma_lags)[b:]
    x = np.hstack([np.ones((len(residuals), 1)), w_lags[:, :spec.p], eps_lags[:, :spec.q],
                   w_lags[:, spec.p:], eps_lags[:, spec.q:]])
    return _recurse(x, -params.ma, spec.ma_lags)


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

    return SarimaFit(spec, replace(_unpack(beta, spec), sigma2=sse / len(residuals)), sse,
                     converged)


def forecast(fitted: SarimaFit, history, horizon: int) -> np.ndarray:
    """Iterate the model ``horizon`` steps past the end of ``history``.

    Future residuals are set to zero and already-predicted values stand in
    for unobserved ones; differencing is undone so the result is on the
    original scale.  ``horizon`` = 0 yields an empty array.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    spec, params = fitted.spec, fitted.params
    w, stages = difference(history, spec.d, spec.D, spec.s)
    eps, _ = css_residuals(w, spec, params)
    eps = np.concatenate([np.zeros(spec.burn_in), eps, np.zeros(horizon)])
    mean = params.c + _lags(eps, spec.ma_lags)[len(w):] @ params.ma
    w_ext = _recurse(np.concatenate([w, mean]), params.ar, spec.ar_lags, start=len(w))
    return invert_difference(w_ext, stages)[len(history):]


def rolling_test_rmse(fitted: SarimaFit, train, test) -> float:
    """One-step rolling-origin RMSE over ``test`` with frozen parameters.

    Each forecast conditions on the true history up to that day (train plus
    the already-revealed test prefix), never on earlier forecasts.
    """
    if len(test) == 0:
        raise ValueError("test segment is empty")
    spec, params = fitted.spec, fitted.params
    w, _ = difference(np.concatenate([train, test]), spec.d, spec.D, spec.s)
    _check_history(len(w) - len(test), spec, params)
    # every past value is observed, so a test day's one-step error is -eps
    eps, _ = css_residuals(w, spec, params)
    return float(np.sqrt(np.mean(eps[-len(test):] ** 2)))


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
            vals = tuple(_nonnegative_int(f"grid value for {name}", v)
                         for v in getattr(self, name))
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
                if not isinstance(val["values"], list):
                    raise ValueError(f"grid values for {name} must be a JSON list, "
                                     f"got {val['values']!r}")
                fields[name] = tuple(val["values"])
            elif isinstance(val, (list, tuple)) and len(val) == 2:
                lo, hi = (_nonnegative_int(f"grid value for {name}", v) for v in val)
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
        orders = {(p, d, q, P, D, Q, s) if s >= 2 and (P or D or Q) else (p, d, q, 0, 0, 0, 0)
                  for p, d, q, P, D, Q, s in itertools.product(
                      self.p, self.d, self.q, self.P, self.D, self.Q, self.s)}
        return [SarimaSpec(*key) for key in sorted(orders)]


@dataclass(frozen=True)
class CandidateScore:
    """One grid candidate: its score and whether its fit converged, or
    neither and the error that stopped it."""
    spec: SarimaSpec
    score: float | None
    converged: bool | None = None
    error: str | None = None


@dataclass(frozen=True)
class GridSearchResult:
    fit: SarimaFit
    candidates: tuple  # CandidateScore per evaluated spec, search order

    @property
    def spec(self) -> SarimaSpec:
        return self.fit.spec


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
                n_eval = len(train) - spec.d - spec.D * spec.s - spec.burn_in
                sse = max(candidate_fit.sse, 1e-300)  # guard ln(0) on exact fits
                score = 2.0 * k + n_eval * np.log(sse / n_eval)
            scored.append((score, spec.n_coefficients, spec.as_tuple(), spec))
            diagnostics.append(CandidateScore(spec=spec, score=float(score),
                                              converged=candidate_fit.converged))
        except ValueError as exc:
            diagnostics.append(CandidateScore(spec=spec, score=None, error=str(exc)))
    if not scored:
        raise GridSearchError("no grid candidate could be fitted", diagnostics)

    scored.sort(key=lambda item: item[:3])
    winner = scored[0][3]
    return GridSearchResult(fit=fit(train, winner), candidates=tuple(diagnostics))


def simulate(spec: SarimaSpec, params: SarimaParams, n: int, rng) -> np.ndarray:
    """Draw innovations and run the model forward from zero pre-sample state,
    then integrate away the differencing (also from zero initial values)."""
    params.check_lengths(spec)
    if n < 1:
        raise ValueError("n must be >= 1")
    eps = rng.normal(0.0, np.sqrt(params.sigma2), n) if params.sigma2 > 0 else np.zeros(n)
    w = _recurse(params.c + (eps + _lags(eps, spec.ma_lags) @ params.ma), params.ar, spec.ar_lags)
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


def _check_numbers(doc: dict, names) -> None:
    """Each of ``names`` in ``doc`` is a JSON number, or a list of them for a coefficient."""
    for name in filter(doc.__contains__, names):
        value, scalar = doc[name], name in ("c", "sigma2", "sse")
        if not (is_number(value) if scalar else
                isinstance(value, list) and all(map(is_number, value))):
            raise ValueError(f"{name} must be a {'number' if scalar else 'list of numbers'}, "
                             f"got {value!r}")


def from_doc(obj) -> tuple[SarimaSpec, SarimaParams]:
    """The spec and parameters of a parsed model document, checked."""
    if not isinstance(obj, dict):
        raise ValueError(f"a SARIMA model must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(MODEL_KEYS))
    if unknown:
        raise ValueError(f"unknown SARIMA model keys: {', '.join(unknown)}")
    spec = SarimaSpec.from_orders(obj.get("order"), obj.get("seasonal"))
    _check_numbers(obj, MODEL_KEYS[2:])
    params = SarimaParams(**{k: obj[k] for k in MODEL_KEYS[2:] if k in obj})
    params.check_lengths(spec)
    return spec, params
