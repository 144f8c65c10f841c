"""Daily political-leaning time series and forecasting models.

Every name below loads on first use (PEP 562): ``import leancast`` imports
no submodule, and reading ``leancast.fit`` imports :mod:`leancast.sarima`.
A command therefore pays only for the layers it runs.
"""

import importlib

_EXPORTS = {
    "series": "DailySeries SplitPair ScalerState IDENTITY_SCALER WindowSet chronological_split"
              " fit_scaler make_windows generate_synthetic METRICS",
    "sarima": "SarimaSpec SarimaParams SarimaFit GridSpec GridSearchResult"
              " GridSearchError difference invert_difference css_residuals fit forecast"
              " grid_search simulate",
    "neural": "NetworkConfig RecurrentNetwork CellState LstmLayerWeights GruLayerWeights"
              " TrainingDivergedError lstm_step gru_step train",
    "forecasters": "KINDS TrainedForecaster fit_forecaster predict_next forecast_multistep"
                   " train_multistep_teacher_forced forecaster_to_json forecaster_from_json"
                   " default_network_config",
    "evaluation": "EvalRow ReportTable rmse evaluate render_report",
    "ingest": "LEANINGS PostRecord BiasTable IngestSummary extract_domain label_post aggregate"
              " aggregate_daily daily_mean_sentiment summarize",
    "presets": "PRESETS PresetBundle get_preset",
    "svgplot": "emit_plot",
    "rng": "derive_rng derive_seed",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
