"""Daily series container plus splitting, scaling, windowing and synthetic data.

Everything downstream (SARIMA, the recurrent nets, the evaluation harness)
works on :class:`DailySeries` objects produced either by the ingest pipeline
or by :func:`generate_synthetic`.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field, replace

import numpy as np

METRICS = ("post_count", "likes_sum", "sentiment_mean", "synthetic")

# synthetic kind -> the keyword parameters it reads
SYNTHETIC_PARAMS = {"ar1": ("alpha", "sigma"),
                    "sine": ("period", "amplitude", "noise_sigma"),
                    "seasonal_sarima": ("spec", "params")}


def is_number(value) -> bool:
    """True for an int or float that is not a bool, as a JSON number reads."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_within_calendar(start_date: dt.date, n: int) -> None:
    """ValueError unless ``n`` days from ``start_date`` end by 9999-12-31."""
    if start_date.toordinal() + n - 1 > dt.date.max.toordinal():
        raise ValueError(f"{n} days from {start_date} run past {dt.date.max}")


@dataclass(frozen=True)
class DailySeries:
    """A contiguous per-day numeric sequence for one (platform, leaning, metric).

    ``values[i]`` is the value for ``start_date + i`` days.  Count and likes
    series are dense and nonnegative; sentiment series may contain NaN for
    days with no posts (an undefined mean, distinct from 0.0).
    """

    start_date: dt.date
    values: np.ndarray
    platform: str = "synthetic"
    leaning: str | None = None
    metric: str = "synthetic"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("series values must be a non-empty 1-d sequence")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.metric in ("post_count", "likes_sum"):
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"{self.metric} series must be fully observed")
            if np.any(vals < 0):
                raise ValueError(f"{self.metric} series must be nonnegative")
        _require_within_calendar(self.start_date, vals.size)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end_date(self) -> dt.date:
        return self.start_date + dt.timedelta(days=len(self.values) - 1)

    def dates(self) -> list[dt.date]:
        return [self.start_date + dt.timedelta(days=i) for i in range(len(self.values))]


@dataclass(frozen=True)
class SplitPair:
    """Chronological train/test halves that tile the parent series exactly."""

    train: DailySeries
    test: DailySeries


def chronological_split(series: DailySeries, ratio: float = 0.7) -> SplitPair:
    """Split ``series`` into the first ``floor(ratio * n)`` days and the rest.

    No shuffling: train strictly precedes test.  Raises ``ValueError`` when
    either half would be empty.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must lie in (0, 1), got {ratio}")
    n = len(series)
    n_train = int(np.floor(ratio * n))
    if n_train < 1 or n - n_train < 1:
        raise ValueError(f"series of length {n} cannot be split at ratio {ratio}")
    train = replace(series, values=series.values[:n_train])
    test = replace(
        series,
        values=series.values[n_train:],
        start_date=series.start_date + dt.timedelta(days=n_train),
    )
    return SplitPair(train=train, test=test)


@dataclass(frozen=True)
class ScalerState:
    """Min-max scaler parameters.  A constant series maps every value to 0."""

    min: float
    max: float

    def apply(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        span = self.max - self.min
        if span == 0.0:
            return np.zeros_like(values)
        return (values - self.min) / span

    def invert(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        span = self.max - self.min
        if span == 0.0:
            return np.full_like(values, self.min)
        return values * span + self.min


IDENTITY_SCALER = ScalerState(min=0.0, max=1.0)


def fit_scaler(values) -> ScalerState:
    """Fit a min-max scaler.  Fit on the training half only, never on test."""
    return ScalerState(min=float(np.min(values)), max=float(np.max(values)))


@dataclass(frozen=True)
class WindowSet:
    """All maximal contiguous (lookback, horizon) pairs from one series.

    ``inputs`` has shape (count, L) and ``targets`` (count, H); input window i
    immediately precedes target window i in the source sequence.
    """

    lookback: int
    horizon: int
    inputs: np.ndarray
    targets: np.ndarray

    @property
    def count(self) -> int:
        return self.inputs.shape[0]


def make_windows(values, lookback: int, horizon: int) -> WindowSet:
    """Slide a (lookback, horizon) window over ``values``.

    A series of length n yields max(0, n - L - H + 1) pairs; too-short input
    gives an empty WindowSet, not an error.
    """
    if lookback < 1 or horizon < 1:
        raise ValueError("lookback and horizon must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    width = lookback + horizon
    count = max(0, len(values) - width + 1)
    # row i views values[i : i + width]; sliding_window_view would also run a numpy
    # reduction, whose first use maps ~256 KiB and so raises a short run's peak RSS
    windows = np.lib.stride_tricks.as_strided(values, (count, width), values.strides * 2,
                                              writeable=False)
    return WindowSet(lookback=lookback, horizon=horizon,
                     inputs=windows[:, :lookback].copy(), targets=windows[:, lookback:].copy())


@np.errstate(over="ignore", invalid="ignore")   # an overflow is raised, not warned
def generate_synthetic(kind: str, n: int, seed: int, *, start_date: dt.date = dt.date(2018, 1, 1), **params) -> DailySeries:
    """Deterministic synthetic series for fixtures and oracles.

    Kinds
    -----
    ar1(alpha, sigma)
        y_t = alpha * y_{t-1} + e_t with e_t ~ Normal(0, sigma^2), y_{-1} = 0:
        the (1,0,0) seasonal_sarima, so sqrt(sigma^2) must give sigma back.
    sine(period, amplitude, noise_sigma)
        amplitude * sin(2 pi t / period) plus Gaussian noise when
        noise_sigma > 0; period must be finite and >= 2, amplitude finite
        and noise_sigma >= 0.
    seasonal_sarima(spec, params)
        Draws innovations and runs the seasonal ARMA recursion forward with
        pre-sample values and residuals fixed at 0, then integrates away any
        differencing (again from zero initial conditions).  ``spec`` is a
        :class:`leancast.sarima.SarimaSpec`, ``params`` a ``SarimaParams``.

    Noise comes from ``numpy.random.default_rng`` (PCG64), so one (kind, n,
    seed) triple always reproduces bit-identical output within this package.
    ``n`` must be an int and each ar1 or sine parameter a number, not a bool; a
    parameter the kind does not read, or a value that overflows, is an error.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"synthetic n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not isinstance(kind, str) or kind not in SYNTHETIC_PARAMS:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    unread = sorted(set(params) - set(SYNTHETIC_PARAMS[kind]))
    if unread:
        raise ValueError(f"synthetic kind {kind} does not read {', '.join(unread)}")
    for key, value in params.items() if kind != "seasonal_sarima" else ():
        if not is_number(value):
            raise ValueError(f"synthetic {key} must be a number, got {value!r}")
    missing = [key for key in SYNTHETIC_PARAMS[kind] if key not in params]
    if kind == "seasonal_sarima" and missing:    # ar1 and sine parameters have defaults
        raise ValueError(f"synthetic kind seasonal_sarima needs {' and '.join(missing)}")
    _require_within_calendar(start_date, n)     # before n values are allocated
    rng = np.random.default_rng(seed)
    if kind == "sine":
        period = float(params.get("period", 10.0))
        amplitude = float(params.get("amplitude", 1.0))
        noise_sigma = float(params.get("noise_sigma", 0.0))
        if not 2 <= period < np.inf:    # NaN too
            raise ValueError(f"sine period must be finite and >= 2, got {period}")
        if not np.isfinite(amplitude):
            raise ValueError(f"sine amplitude must be finite, got {amplitude}")
        if not noise_sigma >= 0:
            raise ValueError(f"sine noise_sigma must be >= 0, got {noise_sigma}")
        t = np.arange(n, dtype=np.float64)
        values = amplitude * np.sin(2.0 * np.pi * t / period)
        if noise_sigma > 0:
            values = values + rng.normal(0.0, noise_sigma, n)
    else:
        from . import sarima

        if kind == "ar1":
            alpha, sigma = float(params.get("alpha", 0.0)), float(params.get("sigma", 1.0))
            if not np.isfinite(alpha):
                raise ValueError(f"ar1 alpha must be finite, got {alpha}")
            if not np.sqrt(sigma * sigma) == sigma:     # negative, NaN, too large or small
                raise ValueError(f"ar1 sigma must be 0 or between about 1.5e-154 and "
                                 f"1.3e154, got {sigma}")
            params = {"spec": sarima.SarimaSpec(p=1),
                      "params": sarima.SarimaParams(alpha=(alpha,), sigma2=sigma * sigma)}
        values = sarima.simulate(params["spec"], params["params"], n, rng)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"synthetic {kind} series overflows within {n} values")
    return DailySeries(start_date=start_date, values=values, platform="synthetic", leaning=None, metric="synthetic")
