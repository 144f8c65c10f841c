"""Daily political-leaning time series and forecasting models."""

from .series import (
    DailySeries,
    SplitPair,
    ScalerState,
    IDENTITY_SCALER,
    WindowSet,
    chronological_split,
    fit_scaler,
    make_windows,
    generate_synthetic,
    METRICS,
)
from .sarima import (
    SarimaSpec,
    SarimaParams,
    SarimaFit,
    DifferencingContext,
    GridSpec,
    GridSearchResult,
    GridSearchError,
    difference,
    invert_difference,
    css_residuals,
    fit,
    forecast,
    grid_search,
    simulate,
)
from .neural import (
    NetworkConfig,
    RecurrentNetwork,
    CellState,
    LstmLayerWeights,
    GruLayerWeights,
    TrainingDivergedError,
    lstm_step,
    gru_step,
    train,
)
from .forecasters import (
    KINDS,
    TrainedForecaster,
    fit_forecaster,
    predict_next,
    forecast_multistep,
    train_multistep_teacher_forced,
    forecaster_to_json,
    forecaster_from_json,
    default_network_config,
)
from .evaluation import (
    EvalRow,
    ReportTable,
    rmse,
    evaluate,
    render_report,
)
from .ingest import (
    LEANINGS,
    PostRecord,
    BiasTable,
    IngestSummary,
    extract_domain,
    label_post,
    aggregate,
    aggregate_daily,
    daily_mean_sentiment,
    summarize,
)
from .presets import PRESETS, PresetBundle, get_preset
from .svgplot import emit_plot
from .rng import derive_rng, derive_seed

__version__ = "0.1.0"
