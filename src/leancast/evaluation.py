"""RMSE, train/test evaluation runs, report rendering and the rows.json codec.

One-step models are scored by rolling-origin evaluation: each test day is
predicted from the true history up to the previous day (the model never
conditions on its own test predictions).  The multistep model instead
slides complete 14-in/5-out windows across the test half and reports one
RMSE per step ahead plus their pooled value.  All RMSEs are on the
original data scale.

Each neural model is scored in one batched pass (one forward over all
windows, or a multistep decode: one forward over the lookbacks, then one
step per further day from the carried layer states), which equals the
per-day loop within 1e-12 relative: batched products only sum in another
order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .series import SplitPair, is_number, make_windows

if TYPE_CHECKING:   # the scoring functions import forecasters when called
    from .forecasters import TrainedForecaster

CSV_COLUMNS = ("model", "leaning", "metric", "train_rmse", "test_rmse",
               "step1", "step2", "step3", "step4", "step5")
STEPS = len(CSV_COLUMNS) - CSV_COLUMNS.index("step1")


@dataclass(frozen=True)
class EvalRow:
    """One report cell.  A value of the wrong type, or other than ``STEPS`` per-step
    RMSEs (a list becomes a tuple), is a TypeError; a negative, infinite or NaN RMSE
    a ValueError."""
    model: str
    leaning: str | None
    metric: str
    train_rmse: float | None
    test_rmse: float
    per_step_rmse: tuple | None = None

    def __post_init__(self):
        steps = self.per_step_rmse
        if isinstance(steps, list):
            object.__setattr__(self, "per_step_rmse", steps := tuple(steps))
        typed = (isinstance(self.model, str) and isinstance(self.metric, str)
                 and (self.leaning is None or isinstance(self.leaning, str))
                 and (self.train_rmse is None or is_number(self.train_rmse))
                 and is_number(self.test_rmse)
                 and (steps is None or isinstance(steps, tuple) and all(map(is_number, steps))))
        if typed and not all(v is None or 0 <= v < np.inf
                             for v in (self.train_rmse, self.test_rmse, *(steps or ()))):
            raise ValueError(f"an RMSE must be finite and non-negative: {self}")
        if not typed or steps is not None and len(steps) != STEPS:
            raise TypeError(f"a row has a value of the wrong type: {self}")


@dataclass
class ReportTable:
    platform: str
    metric: str
    rows: list

    def __post_init__(self):
        seen = set()
        for row in self.rows:
            key = (row.model, row.leaning)
            if key in seen:
                raise ValueError(f"duplicate report cell {key}")
            seen.add(key)


def rows_to_json(tables) -> str:
    """The ``rows.json`` document of the report tables, which ``run`` writes."""
    return json.dumps({"tables": [asdict(t) for t in tables]}, sort_keys=True, indent=2) + "\n"


def rows_from_json(path: str) -> list:
    """The report tables of the ``rows.json`` at ``path``, or a ValueError naming it."""
    names = [f.name for f in fields(EvalRow)]
    try:
        with open(path, encoding="utf-8-sig") as handle:
            doc = json.load(handle)
        return [ReportTable(rows=[EvalRow(*(r[name] for name in names)) for r in t["rows"]],
                            platform=t["platform"], metric=t["metric"])
                for t in doc["tables"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path} is not a leancast rows file "
                         f"({type(exc).__name__}: {exc})") from None


@np.errstate(over="ignore", invalid="ignore")    # EvalRow rejects a non-finite score
def rmse(predicted, true) -> float:
    predicted = np.asarray(predicted, dtype=np.float64)
    true = np.asarray(true, dtype=np.float64)
    if predicted.shape != true.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {true.shape}")
    if predicted.size == 0:
        raise ValueError("rmse of empty sequences is undefined")
    err = predicted - true
    return float(np.sqrt(np.mean(err * err)))


def rolling_one_step_predictions(model: TrainedForecaster, split: SplitPair) -> np.ndarray:
    """Predict every test day of a neural one-step model from true history
    (train plus earlier test) in one batched forward."""
    from . import forecasters
    if model.kind == "sarima":
        raise ValueError("rolling one-step predictions are for neural kinds; "
                         "score SARIMA with sarima.rolling_test_rmse")
    history = np.concatenate([split.train.values, split.test.values])
    n_train = len(split.train.values)
    lookback = model.lookback
    if n_train < lookback:
        raise ValueError(f"training half has {n_train} values; need at least {lookback}")
    windows = make_windows(model.scaler.apply(history[n_train - lookback:]), lookback, 1)
    return model.scaler.invert(forecasters._last_step_outputs(model.model, windows.inputs))


def multistep_window_predictions(model: TrainedForecaster, test_values: np.ndarray):
    """All complete lookback->horizon windows inside the test half.

    Returns (predictions, targets), each (windows, horizon).
    """
    from . import forecasters
    lookback, horizon = model.lookback, model.horizon
    windows = make_windows(np.asarray(test_values, dtype=np.float64), lookback, horizon)
    if windows.count == 0:
        raise ValueError(
            f"test half has {len(test_values)} points; multistep evaluation "
            f"needs at least {lookback + horizon}")
    return forecasters.forecast_multistep(model, windows.inputs), windows.targets


def require_test_points(kind: str, n_test: int):
    """Raise unless a test half of ``n_test`` points holds one complete
    lookback + horizon window (SARIMA needs none); checked before fitting."""
    from . import forecasters
    min_test = forecasters.kind_lookback(kind) + forecasters.kind_horizon(kind)
    if kind != "sarima" and n_test < min_test:
        raise ValueError(
            f"test half has {n_test} points; kind {kind!r} needs at least {min_test}")


def evaluate(model: TrainedForecaster, split: SplitPair,
             leaning: str | None = None, metric: str | None = None) -> EvalRow:
    """Score one fitted model on its split; see the module docstring for
    the per-kind protocol."""
    from . import forecasters, sarima
    metric = metric if metric is not None else split.train.metric
    require_test_points(model.kind, len(split.test.values))

    if model.kind == "multistep_14_5":
        preds, targets = multistep_window_predictions(model, split.test.values)
        per_step = tuple(rmse(preds[:, k], targets[:, k]) for k in range(model.horizon))
        pooled = rmse(preds.ravel(), targets.ravel())
        return EvalRow(model.kind, leaning, metric, None, pooled, per_step)

    if model.kind == "sarima":
        train_rmse = model.model.train_rmse
        test_rmse = sarima.rolling_test_rmse(model.model, split.train.values,
                                             split.test.values)
        return EvalRow(model.kind, leaning, metric, train_rmse, test_rmse)

    # neural one-step kinds: in-sample windows for train, rolling for test
    windows = make_windows(model.scaler.apply(split.train.values), model.lookback, 1)
    if windows.count == 0:
        raise ValueError("training half too short to window")
    outputs = forecasters._last_step_outputs(model.model, windows.inputs)
    train_rmse = rmse(model.scaler.invert(outputs),
                      model.scaler.invert(windows.targets[:, 0]))
    test_rmse = rmse(rolling_one_step_predictions(model, split), split.test.values)
    return EvalRow(model.kind, leaning, metric, train_rmse, test_rmse)


# -- rendering -------------------------------------------------------------


def _cell(value) -> str:
    return "" if value is None else f"{value:.2f}"


def _row_cells(table, blank: str) -> list:
    """Two-decimal cells per row in stable order, ``blank`` for absent values."""
    out = []
    for row in sorted(table.rows, key=lambda r: (r.model, r.leaning or "")):
        values = (row.train_rmse, row.test_rmse) + (row.per_step_rmse or (None,) * STEPS)
        out.append([row.model, row.leaning or blank, row.metric]
                   + [_cell(v) or blank for v in values])
    return out


def render_report_csv(tables) -> str:
    """Two-decimal CSV, one line per row, stable row order."""
    lines = [",".join(CSV_COLUMNS)]
    for table in tables:
        lines += [",".join(cells) for cells in _row_cells(table, "")]
    return "\n".join(lines) + "\n"


def render_report_text(tables) -> str:
    """Aligned plain-text rendering for terminals."""
    lines = []
    for table in tables:
        lines.append(f"== {table.platform} / {table.metric} ==")
        rendered = _row_cells(table, "-")
        widths = [max(map(len, column)) for column in zip(CSV_COLUMNS, *rendered)]
        lines.append("  ".join(c.ljust(w) for c, w in zip(CSV_COLUMNS, widths)))
        for cells in rendered:
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        lines.append("")
    return "\n".join(lines)


def render_report(tables, fmt: str = "csv") -> str:
    if fmt == "csv":
        return render_report_csv(tables)
    if fmt == "text":
        return render_report_text(tables)
    raise ValueError(f"unknown report format {fmt!r}")
