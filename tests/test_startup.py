"""What each entry point imports, checked in fresh interpreters: the package
loads a module on the first use of one of its names, ``leancast ingest``
runs without the fitting layers, and ``leancast report`` loads only what
reads and renders a ``rows.json``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
DATA = REPO / "tests" / "data"

FITTING_LAYERS = ("sarima", "neural", "optim", "forecasters", "evaluation", "presets",
                  "svgplot", "rng", "simplex")

# every name the package exported when it imported each module up front
EXPORTS = {
    "series": ["DailySeries", "SplitPair", "ScalerState", "IDENTITY_SCALER", "WindowSet",
               "chronological_split", "fit_scaler", "make_windows", "generate_synthetic",
               "METRICS"],
    "sarima": ["SarimaSpec", "SarimaParams", "SarimaFit", "GridSpec", "GridSearchResult",
               "GridSearchError", "difference", "invert_difference", "css_residuals", "fit",
               "forecast", "grid_search", "simulate"],
    "neural": ["NetworkConfig", "RecurrentNetwork", "CellState", "LstmLayerWeights",
               "GruLayerWeights", "TrainingDivergedError", "lstm_step", "gru_step", "train"],
    "forecasters": ["KINDS", "TrainedForecaster", "fit_forecaster", "predict_next",
                    "forecast_multistep", "train_multistep_teacher_forced",
                    "forecaster_to_json", "forecaster_from_json", "default_network_config"],
    "evaluation": ["EvalRow", "ReportTable", "rmse", "evaluate", "render_report"],
    "ingest": ["LEANINGS", "BiasTable", "IngestSummary", "extract_domain", "label_post",
               "aggregate", "aggregate_daily", "daily_mean_sentiment", "summarize"],
    "presets": ["PRESETS", "PresetBundle", "get_preset"],
    "svgplot": ["emit_plot"],
    "rng": ["derive_rng", "derive_seed"],
}


def run_python(code: str, *args):
    """The JSON that ``code`` prints last, run in a fresh interpreter on
    this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_ingest_loads_no_fitting_layer(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "posts_csv": str(DATA / "posts_100.csv"), "bias_csv": str(DATA / "bias.csv"),
        "metrics": ["post_count", "likes_sum", "sentiment_mean"]}))
    loaded = run_python(
        "import json, sys\n"
        "from leancast.cli import main\n"
        "code = main(['ingest', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n",
        str(config), str(tmp_path / "out"))
    assert loaded[0] == 0
    assert (tmp_path / "out" / "series_post_count.csv").exists()
    assert "leancast.ingest" in loaded[1]
    assert [m for m in loaded[1] if m.rsplit(".", 1)[-1] in FITTING_LAYERS] == []


@pytest.mark.parametrize("command, entry", [
    ("run", {"kind": "sarima", "spec": {"order": [1, 0, 0]}}),
    ("gridsearch", {"kind": "sarima", "grid": {"p": [0, 1]}}),
])
def test_sarima_commands_load_no_second_minimizer(tmp_path, command, entry):
    # sarima.fit's Levenberg-Marquardt loop is the one minimizer
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synthetic": {"kind": "ar1", "n": 60, "alpha": 0.5},
                                  "forecasters": [entry]}))
    loaded = run_python(
        "import json, sys\n"
        "from leancast.cli import main\n"
        "code = main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n",
        command, str(config), str(tmp_path / "out"))
    assert loaded[0] == 0
    assert "leancast.sarima" in loaded[1]
    assert "leancast.simplex" not in loaded[1]


def test_report_loads_only_the_row_codec(tmp_path):
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps({"tables": [{"platform": "p", "metric": "post_count", "rows": [
        {"model": "multistep_14_5", "leaning": "left", "metric": "post_count",
         "train_rmse": None, "test_rmse": 2.5, "per_step_rmse": [1, 2, 3, 4, 5]}]}]}))
    loaded = run_python(
        "import json, sys\n"
        "from leancast.cli import main\n"
        "code = main(['report', '--config', sys.argv[1], '--format', 'text'])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules"
        " if m.startswith('leancast'))]))\n",
        str(rows))
    assert loaded == [0, ["leancast", "leancast.cli", "leancast.evaluation",
                          "leancast.ingest", "leancast.series"]]


def test_bare_import_loads_no_submodule():
    loaded = run_python("import json, sys, leancast\n"
                        "print(json.dumps(sorted(m for m in sys.modules"
                        " if m.startswith('leancast'))))\n")
    assert loaded == ["leancast"]


def test_every_exported_name_resolves_to_its_module():
    problems = run_python(
        "import json, sys\n"
        "import leancast\n"
        "exports = json.loads(sys.argv[1])\n"
        "listed = set(dir(leancast))\n"
        "problems = []\n"
        "for module, names in exports.items():\n"
        "    home = getattr(leancast, module)\n"
        "    if home is not sys.modules.get('leancast.' + module):\n"
        "        problems.append(module)\n"
        "    for name in names:\n"
        "        scope = {}\n"
        "        exec(f'from leancast import {name} as value', scope)\n"
        "        if scope['value'] is not getattr(home, name) or name not in listed:\n"
        "            problems.append(name)\n"
        "print(json.dumps(problems))\n",
        json.dumps(EXPORTS))
    assert problems == []


def test_unknown_name_is_an_attribute_error():
    outcome = run_python("import json, leancast\n"
                         "try:\n"
                         "    leancast.no_such_name\n"
                         "except AttributeError as exc:\n"
                         "    print(json.dumps(str(exc)))\n")
    assert outcome == "module 'leancast' has no attribute 'no_such_name'"
