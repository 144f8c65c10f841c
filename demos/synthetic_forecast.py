"""Fit two forecasters on one synthetic series and compare them.

The walk-through: draw 120 days of an AR(1) process, hold out the last 30
percent, fit a small seasonal ARIMA and a 1-day-lookback LSTM on the
training half, then score both on the held-out days with rolling one-step
evaluation (every prediction conditions on true history, never on the
model's own outputs).
"""

from leancast import (ReportTable, chronological_split, evaluate,
                      fit_forecaster, generate_synthetic, predict_next,
                      render_report)
from leancast.forecasters import default_network_config
from leancast.sarima import SarimaSpec

series = generate_synthetic("ar1", 120, seed=7, alpha=0.8, sigma=1.0)
split = chronological_split(series, 0.7)
print(f"series: {len(series)} days starting {series.start_date}")
print(f"split: {len(split.train)} train / {len(split.test)} test\n")

# an AR(1) spec matches the generating process, so this should do well
sarima_model = fit_forecaster("sarima", split, SarimaSpec(1, 0, 0, 0, 0, 0, 0))
print(f"sarima fitted: alpha={sarima_model.model.params.alpha[0]:+.3f} "
      f"(true +0.800), converged={sarima_model.model.converged}")

# the network sees only yesterday's value; keep it small so this runs fast
config = default_network_config("lstm_1day", seed=7, layers=2, hidden=16,
                                epochs=150)
lstm_model = fit_forecaster("lstm_1day", split, config=config)
print(f"lstm trained: final epoch loss {lstm_model.metadata['final_loss']:.5f}\n")

rows = [evaluate(sarima_model, split, leaning=None, metric="synthetic"),
        evaluate(lstm_model, split, leaning=None, metric="synthetic")]
print(render_report([ReportTable("synthetic", "synthetic", rows)], "text"))

history = series.values
print("tomorrow's value, one step past the observed series:")
print(f"  sarima: {predict_next(sarima_model, history):+.3f}")
print(f"  lstm:   {predict_next(lstm_model, history):+.3f}")
