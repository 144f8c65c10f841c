import datetime as dt
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from leancast import cli, forecasters, ingest
from leancast.cli import ConfigError, load_config, main
from leancast.forecasters import default_network_config
from leancast.presets import FALLBACK_GRID, get_preset
from leancast.rng import derive_seed
from reference_kernels import per_record_aggregate, per_row_read_posts_csv

REPO = Path(__file__).parent.parent
DATA = REPO / "tests" / "data"
POSTS = str(DATA / "posts_100.csv")
BIAS = str(DATA / "bias.csv")
JAN_WINDOW = {"start": "2018-01-01", "end": "2018-01-20"}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def synth_run_config(tmp_path, n=60, forecasters=None, **extra):
    doc = {"synthetic": {"kind": "ar1", "n": n, "alpha": 0.8, "sigma": 1.0},
           "forecasters": forecasters or [
               {"kind": "sarima", "spec": {"order": [1, 0, 0]}},
               {"kind": "lstm_1day", "epochs": 3, "layers": 1, "hidden": 4},
           ]}
    doc.update(extra)
    return write_config(tmp_path, doc)


class TestLoadConfig:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"synthetic": {"kind": "ar1", "n": 10},
                                       "typo_key": 1})
        with pytest.raises(ConfigError, match="typo_key"):
            load_config(path)

    def test_two_data_sources_rejected(self, tmp_path):
        path = write_config(tmp_path, {"posts_csv": POSTS, "bias_csv": BIAS,
                                       "synthetic": {"kind": "ar1", "n": 10}})
        with pytest.raises(ConfigError, match="not both"):
            load_config(path)

    def test_posts_without_bias_rejected(self, tmp_path):
        path = write_config(tmp_path, {"posts_csv": POSTS})
        with pytest.raises(ConfigError, match="together"):
            load_config(path)

    def test_split_ratio_bounds(self, tmp_path):
        path = write_config(tmp_path, {"synthetic": {"kind": "ar1", "n": 10},
                                       "split_ratio": 1.0})
        with pytest.raises(ConfigError, match="split_ratio"):
            load_config(path)

    def test_unknown_forecaster_kind_rejected(self, tmp_path):
        path = write_config(tmp_path, {"synthetic": {"kind": "ar1", "n": 10},
                                       "forecasters": [{"kind": "prophet"}]})
        with pytest.raises(ConfigError, match="prophet"):
            load_config(path)

    def test_unknown_synthetic_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"synthetic": {"kind": "ar1", "n": 10,
                                                     "trend": 0.5}})
        with pytest.raises(ConfigError, match="trend"):
            load_config(path)

    def test_unknown_metric_and_leaning_rejected(self, tmp_path):
        path = write_config(tmp_path, {"posts_csv": POSTS, "bias_csv": BIAS,
                                       "metrics": ["reposts"]})
        with pytest.raises(ConfigError, match="reposts"):
            load_config(path)
        path = write_config(tmp_path, {"posts_csv": POSTS, "bias_csv": BIAS,
                                       "leanings": ["centrist"]})
        with pytest.raises(ConfigError, match="centrist"):
            load_config(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    def test_repeated_forecaster_kind_rejected(self, tmp_path):
        path = write_config(tmp_path, {
            "synthetic": {"kind": "ar1", "n": 60},
            "forecasters": [{"kind": "sarima", "spec": {"order": [1, 0, 0]}},
                            {"kind": "sarima", "grid": {"p": [0, 1]}}]})
        with pytest.raises(ConfigError, match="forecaster kind listed more than once: sarima"):
            load_config(path)

    def test_repeated_metric_and_leaning_rejected(self, tmp_path):
        path = write_config(tmp_path, {"posts_csv": POSTS, "bias_csv": BIAS,
                                       "metrics": ["post_count", "post_count"]})
        with pytest.raises(ConfigError, match="metric listed more than once"):
            load_config(path)
        path = write_config(tmp_path, {"posts_csv": POSTS, "bias_csv": BIAS,
                                       "leanings": ["left", "right", "left"]})
        with pytest.raises(ConfigError, match="leaning listed more than once: left"):
            load_config(path)

    def test_split_ratio_must_be_a_number(self, tmp_path, capsys):
        for ratio in ("0.5", True, None):
            path = write_config(tmp_path, {"synthetic": {"kind": "ar1", "n": 10},
                                           "split_ratio": ratio})
            with pytest.raises(ConfigError, match="split_ratio must be a number"):
                load_config(path)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "split_ratio must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("forecasters", "lstm_1day"),
        ("forecasters", {"kind": "lstm_1day"}),
        ("metrics", "post_count"),
        ("leanings", "left"),
    ])
    def test_list_fields_must_be_lists(self, tmp_path, key, value):
        path = write_config(tmp_path, {"posts_csv": POSTS, "bias_csv": BIAS,
                                       key: value})
        with pytest.raises(ConfigError, match=f"{key} must be a list"):
            load_config(path)

    def test_forecaster_entries_must_be_objects(self, tmp_path):
        path = write_config(tmp_path, {"synthetic": {"kind": "ar1", "n": 10},
                                       "forecasters": ["lstm_1day"]})
        with pytest.raises(ConfigError, match="must be an object"):
            load_config(path)

    @pytest.mark.parametrize("override,message", [
        ({"epochs": 0}, "epochs must be >= 1"),
        ({"epochs": 3, "batch_size": -2}, "batch_size must be >= 0"),
        ({"epochs": "3"}, "lstm_14day"),
        ({"layers": 1.5}, "layers must be an integer"),
        ({"batch_size": None}, "batch_size must be an integer"),
        ({"learning_rate": True}, "learning_rate must be a finite number, got True"),
        ({"learning_rate": "0.1"}, "learning_rate must be a finite number, got '0.1'"),
        ({"learning_rate": float("nan")}, "learning_rate must be a finite number, got nan"),
        ({"learning_rate": float("inf")}, "learning_rate must be a finite number, got inf"),
        ({"dropout": False}, "dropout must be a finite number, got False"),
        ({"dropout": float("-inf")}, "dropout must be a finite number, got -inf"),
    ])
    def test_network_overrides_checked_before_reading_series(self, tmp_path, capsys,
                                                             override, message):
        # the posts file does not exist: the override must be rejected first
        path = write_config(tmp_path, {
            "posts_csv": str(tmp_path / "missing.csv"), "bias_csv": BIAS,
            "forecasters": [{"kind": "lstm_14day", **override}]})
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        assert "error: forecaster lstm_14day" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_learning_rate_fails_before_any_output(self, tmp_path, capsys):
        # JSON reads 1e400 as inf; the fit would diverge at its first epoch
        path = tmp_path / "config.json"
        path.write_text('{"synthetic": {"kind": "ar1", "n": 40}, '
                        '"forecasters": [{"kind": "lstm_1day", "learning_rate": 1e400}]}')
        with pytest.raises(ConfigError, match="learning_rate must be a finite number, got inf"):
            load_config(str(path))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert "error: forecaster lstm_1day: learning_rate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "gridsearch"])
    @pytest.mark.parametrize("doc,message", [
        ({"synthetic": {"kind": "ar1", "alpha": 0.5}}, "synthetic block must name n"),
        ({"synthetic": {"n": 40}}, "synthetic block must name kind"),
        ({"synthetic": {"kind": "ar1", "n": "40"}}, "synthetic n must be an integer"),
        ({"synthetic": ["ar1", 40]}, "synthetic must be an object"),
        ({"forecasters": [{"kind": "sarima", "spec": {"order": [1, 0]}}]},
         "forecaster sarima: spec order must be"),
        ({"forecasters": [{"kind": "sarima", "spec": {"seasonal": [1, 0, 0]}}]},
         "forecaster sarima: spec seasonal must be"),
        ({"forecasters": [{"kind": "sarima", "spec": {"order": [1.5, 0, 0]}}]},
         "order p must be a nonnegative integer"),
        ({"forecasters": [{"kind": "sarima", "spec": {"orders": [1, 0, 0]}}]},
         "unknown spec keys: orders"),
        ({"forecasters": [{"kind": "sarima", "spec": "110"}]}, "spec must be an object"),
        ({"forecasters": [{"kind": "sarima", "grid": {"p": {"vals": 1}}}]},
         "grid entry for p"),
        ({"forecasters": [{"kind": "sarima", "spec": {"order": [1, 0, 0]},
                           "grid": {"q": "all"}}]}, "grid entry for q"),
        ({"forecasters": [{"kind": "sarima", "grid": {"p": {"values": [1.5]}}}]},
         "grid value for p must be a nonnegative integer, got 1.5"),
        ({"forecasters": [{"kind": "sarima", "grid": {"p": [0.5, 2.7]}}]},
         "grid value for p must be a nonnegative integer, got 0.5"),
        ({"forecasters": [{"kind": "sarima", "grid": {"p": True}}]},
         "grid value for p must be a nonnegative integer, got True"),
        ({"forecasters": [{"kind": "sarima", "grid": {"p": [-1, 1]}}]},
         "grid value for p must be a nonnegative integer, got -1"),
        ({"forecasters": [{"kind": "sarima", "spec": {"order": [True, 0, 0]}}]},
         "order p must be a nonnegative integer, got True"),
        ({"window": {"start": "2018-01-01"}},
         "window needs ISO dates start and end, got {'start': '2018-01-01'}"),
        ({"window": "2018-01-01"}, "window must be an object with start and end dates"),
        ({"window": {"start": "2018-01-01", "end": "Jan 20"}},
         "window needs ISO dates start and end, got {'start': '2018-01-01', 'end': 'Jan 20'}"),
        ({"window": {"start": "2018-02-01", "end": "2018-01-01"}},
         "empty date window: 2018-02-01 > 2018-01-01"),
        # forms that Python 3.11+ date.fromisoformat reads and 3.10 does not
        ({"window": {"start": "20180102", "end": "2018-04-30"}},
         "window needs ISO dates start and end, got {'start': '20180102', 'end': '2018-04-30'}"),
        ({"window": {"start": "2018-01-01", "end": "2018-W01-1"}},
         "window needs ISO dates start and end, got {'start': '2018-01-01', 'end': '2018-W01-1'}"),
        ({"seed": 1.7}, "seed must be a nonnegative integer, got 1.7"),
        ({"seed": "abc"}, "seed must be a nonnegative integer, got 'abc'"),
        ({"seed": True}, "seed must be a nonnegative integer, got True"),
        ({"seed": -1}, "seed must be a nonnegative integer, got -1"),
        ({"platform": "facebook"}, "unknown platform 'facebook'; expected one of twitter, gab"),
        ({"out_dir": 5}, "out_dir must be a nonempty path, got 5"),
        ({"out_dir": ["a"]}, "out_dir must be a nonempty path, got ['a']"),
        ({"preset": "nope"}, "preset must be one of gab-likes, gab-posts, twitter-likes, "
                             "twitter-posts, got 'nope'"),
        ({"metrics": []}, "metrics must name at least one metric"),
        ({"leanings": []}, "leanings must name at least one leaning"),
        ({"synthetic": {"kind": "ar1", "n": 40, "start_date": 5}},
         "synthetic start_date must be an ISO date, got 5"),
        ({"synthetic": {"kind": "ar1", "n": 40, "start_date": "2018-W01-1"}},
         "synthetic start_date must be an ISO date, got '2018-W01-1'"),
        ({"synthetic": {"kind": "ar1", "n": 40, "start_date": "20180102"}},
         "synthetic start_date must be an ISO date, got '20180102'"),
        ({"synthetic": {"kind": "ar1", "n": 40, "alpha": [0.5]}},
         "synthetic alpha must be a number, got [0.5]"),
        ({"synthetic": {"kind": "seasonal_sarima", "n": 40}},
         "synthetic kind seasonal_sarima needs a model"),
        ({"synthetic": {"kind": "seasonal_sarima", "n": 40, "spec": {"order": [1, 0, 0]},
                        "model": {"order": [1, 0, 0], "seasonal": [0, 0, 0, 0]}}},
         "unknown synthetic keys: spec"),
        ({"synthetic": {"kind": "seasonal_sarima", "n": 40,
                        "model": {"order": [1, 0], "seasonal": [0, 0, 0, 0]}}},
         "synthetic model: spec order must be [p, d, q], got [1, 0]"),
        ({"synthetic": {"kind": "seasonal_sarima", "n": 40,
                        "model": {"order": [1, 0, 0], "seasonal": [0, 0, 0, 0],
                                  "alpha": [0.5, 0.1]}}},
         "synthetic model: alpha has 2 coefficients, spec requires 1"),
        ({"synthetic": {"kind": "seasonal_sarima", "n": 40,
                        "model": {"order": [1, 0, 0], "seasonal": [0, 0, 0, 0],
                                  "beta": [0.5]}}},
         "synthetic model: unknown SARIMA model keys: beta"),
        ({"synthetic": {"kind": "seasonal_sarima", "n": 50,
                        "model": {"order": [1, 0, 0], "seasonal": [0, 0, 0, 0],
                                  "alpha": [0.5], "sigma2": float("nan")}}},
         "synthetic model: sigma2 must be finite, got nan"),
        ({"synthetic": {"kind": "seasonal_sarima", "n": 50,
                        "model": {"order": [1, 0, 0], "seasonal": [0, 0, 0, 0],
                                  "alpha": [0.5], "c": float("nan"), "sigma2": 1.0}}},
         "synthetic model: c must be finite, got nan"),
        # strings are not read as numbers, nor a string as a list of its digits
        ({"synthetic": {"kind": "seasonal_sarima", "n": 30,
                        "model": {"order": [2, 0, 0], "seasonal": [0, 0, 0, 0],
                                  "alpha": "12", "c": True, "sigma2": "0.25"}}},
         "synthetic model: c must be a number, got True"),
        ({"synthetic": {"kind": "seasonal_sarima", "n": 30,
                        "model": {"order": [2, 0, 0], "seasonal": [0, 0, 0, 0],
                                  "alpha": "12", "sigma2": 0.25}}},
         "synthetic model: alpha must be a list of numbers, got '12'"),
        ({"synthetic": {"kind": "seasonal_sarima", "n": 30,
                        "model": {"order": [1, 0, 0], "seasonal": [0, 0, 0, 0],
                                  "alpha": 0.5, "sigma2": 0.25}}},
         "synthetic model: alpha must be a list of numbers, got 0.5"),
        ({"synthetic": {"kind": "seasonal_sarima", "n": 30,
                        "model": {"order": [1, 0, 0], "seasonal": [0, 0, 0, 0],
                                  "alpha": ["0.5"], "sigma2": 0.25}}},
         "synthetic model: alpha must be a list of numbers, got ['0.5']"),
        ({"synthetic": {"kind": "seasonal_sarima", "n": 30,
                        "model": {"order": [1, 0, 0], "seasonal": [0, 0, 0, 0],
                                  "alpha": [0.5], "sigma2": "0.25"}}},
         "synthetic model: sigma2 must be a number, got '0.25'"),
        ({"forecasters": [{"kind": "sarima", "spec": {"order": [1, 0, 0]}, "epochs": 3}]},
         "unknown sarima forecaster keys: epochs"),
        ({"forecasters": [{"kind": "lstm_1day", "grid": {"p": [0, 1]}}]},
         "unknown lstm_1day forecaster keys: grid"),
        ({"forecasters": [{"kind": "lstm_14day", "input_size": 7}]},
         "forecaster lstm_14day: input_size must be 1 or 14, got 7"),
        ({"forecasters": [{"kind": "lstm_1day", "input_size": 3}]},
         "forecaster lstm_1day: input_size must be 1, got 3"),
        ({"forecasters": [{"kind": "multistep_14_5", "input_size": 14}]},
         "forecaster multistep_14_5: input_size must be 1, got 14"),
        ({"window": {"start": "2019-01-01", "end": "2019-02-01"}},
         "a synthetic config does not read window"),
        ({"platform": "gab"}, "a synthetic config does not read platform"),
        ({"metrics": ["likes_sum"]}, "a synthetic config does not read metrics"),
        ({"leanings": ["right"]}, "a synthetic config does not read leanings"),
        ({"synthetic": {"kind": "sine", "n": 100000000000}},
         "100000000000 days from 2018-01-01 run past 9999-12-31"),
    ])
    def test_bad_config_fails_before_any_output(self, tmp_path, capsys, doc, message,
                                                command):
        doc = {"synthetic": {"kind": "ar1", "n": 40}, **doc}
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,message", [
        ("run", ["--seed", "-1"], "--seed must be a nonnegative integer, got -1"),
        ("simulate", ["--seed", "-1"], "--seed must be a nonnegative integer, got -1"),
        ("run", ["--preset", "nope"], "--preset must be one of gab-likes"),
        ("run", ["--out", ""], "--out must be a nonempty path, got ''"),
        ("simulate", ["--out", ""], "--out must be a nonempty path, got ''"),
    ])
    def test_bad_flag_fails_before_any_output(self, tmp_path, capsys, monkeypatch,
                                              flags, message, command):
        monkeypatch.chdir(tmp_path)
        path = synth_run_config(tmp_path, n=40, out_dir=str(tmp_path / "out"))
        assert main([command, "--config", path, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("doc,message", [
        ({"posts_csv": 5, "bias_csv": BIAS}, "posts_csv must be a file path, got 5"),
        ({"posts_csv": POSTS, "bias_csv": None}, "bias_csv must be a file path, got None"),
        ({"forecasters": [{"kind": "sarima", "spec": {"order": [1, 0, 0]}}]},
         "config must name input files or a synthetic spec, one but not both"),
    ])
    def test_bad_source_rejected(self, tmp_path, doc, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(write_config(tmp_path, doc))

    def test_flag_over_config_key_over_default(self, tmp_path):
        tag = "sarima/series/synthetic"
        bare = load_config(synth_run_config(tmp_path))
        assert (bare.fits[0].seed, bare.out_dir) == (derive_seed(0, tag), "leancast_out")
        path = synth_run_config(tmp_path, seed=3, out_dir="from_config",
                                preset="twitter-likes")
        keyed = load_config(path)
        assert (keyed.fits[0].seed, keyed.out_dir) == (derive_seed(3, tag), "from_config")
        flagged = load_config(path, seed=5, preset="gab-posts", out="from_flag")
        assert (flagged.fits[0].seed, flagged.out_dir) == (derive_seed(5, tag), "from_flag")
        # the preset only sets epochs the entry leaves out; the entry's 3 wins
        entry = {"kind": "lstm_1day", "layers": 1, "hidden": 4}
        path = synth_run_config(tmp_path, forecasters=[entry], preset="twitter-likes")
        assert load_config(path).fits[0].config.epochs == 100
        assert load_config(path, preset="gab-posts").fits[0].config.epochs == 200
        path = synth_run_config(tmp_path, forecasters=[{**entry, "epochs": 3}],
                                preset="gab-posts")
        assert load_config(path).fits[0].config.epochs == 3

    def test_plan_resolves_each_fit_with_its_tag_seed(self, tmp_path):
        path = write_config(tmp_path, {
            "posts_csv": POSTS, "bias_csv": BIAS, "seed": 4,
            "metrics": ["post_count", "likes_sum"], "leanings": ["left", "center"],
            "forecasters": [{"kind": "sarima"}, {"kind": "lstm_1day", "epochs": 2}]})
        plan = load_config(path, preset="gab-posts")
        assert [(f.metric, f.leaning, f.kind) for f in plan.fits] == [
            (m, l, k) for m in ("post_count", "likes_sum") for l in ("left", "center")
            for k in ("sarima", "lstm_1day")]
        for fit in plan.fits:
            assert fit.tag == f"{fit.kind}/{fit.leaning}/{fit.metric}"
            assert fit.seed == derive_seed(4, fit.tag)
            if fit.kind == "sarima":
                assert fit.config == get_preset("gab-posts").sarima_spec(fit.leaning)
            else:
                assert fit.config == default_network_config(
                    "lstm_1day", seed=fit.seed, epochs=2)
        assert plan.grid is None
        # without a preset, an order-less sarima entry falls back to the grid
        assert load_config(path).fits[0].config is FALLBACK_GRID

    @pytest.mark.parametrize("command", ["run", "gridsearch", "simulate"])
    @pytest.mark.parametrize("synthetic,message", [
        ({"kind": "ar1", "n": 0}, "n must be >= 1"),
        ({"kind": "arma", "n": 40}, "unknown synthetic kind 'arma'"),
        ({"kind": "ar1", "n": 1100, "alpha": 2.0},
         "synthetic ar1 series overflows within 1100 values"),
        ({"kind": "ar1", "n": 40, "sigma": -1.0}, "ar1 sigma must be 0 or between about"),
        ({"kind": "ar1", "n": 40, "sigma": float("nan")}, "ar1 sigma must be 0 or between"),
        ({"kind": "ar1", "n": 40, "sigma": 1e160}, "ar1 sigma must be 0 or between about"),
        ({"kind": "sine", "n": 40, "noise_sigma": -1.0}, "sine noise_sigma must be >= 0"),
        ({"kind": "sine", "n": 40, "period": float("inf")},
         "sine period must be finite and >= 2, got inf"),
        ({"kind": "ar1", "n": 40, "alpha": float("nan")}, "ar1 alpha must be finite, got nan"),
        ({"kind": "sine", "n": 40, "period": 1}, "sine period must be finite and >= 2, got 1.0"),
        ({"kind": "sine", "n": 40, "alpha": 0.5}, "synthetic kind sine does not read alpha"),
        ({"kind": "ar1", "n": 40, "trend": 1.0}, "synthetic kind ar1 does not read trend"),
        ({"kind": "sine", "n": 40, "start_date": "9999-12-25"},
         "40 days from 9999-12-25 run past 9999-12-31"),
        # rejected before anything is allocated (numpy would refuse 745 GiB)
        ({"kind": "sine", "n": 100000000000},
         "100000000000 days from 2018-01-01 run past 9999-12-31"),
    ])
    def test_series_failure_writes_nothing(self, tmp_path, capsys, synthetic, message,
                                           command):
        # load_config builds the series, so the generator's rules reject these
        path = write_config(tmp_path, {"synthetic": synthetic, "forecasters": [
            {"kind": "sarima", "grid": {"p": [0, 1]}}]})
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("with_sarima", [False, True])
    def test_unallocatable_fit_is_a_listed_failure(self, tmp_path, capsys, with_sarima):
        # numpy refuses a network this size at once, touching no memory; alone,
        # this process takes the fit, else whichever process is free
        huge = {"kind": "lstm_1day", "epochs": 1, "layers": 1, "hidden": 100000000}
        path = synth_run_config(tmp_path, forecasters=[
            *([{"kind": "sarima", "spec": {"order": [1, 0, 0]}}] if with_sarima else []),
            huge])
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "1 fit(s) failed; see failures.txt\n"
        assert re.fullmatch(r"lstm_1day/series/synthetic: Unable to allocate .*\n",
                            (out / "failures.txt").read_text())
        assert (out / "report.csv").read_text().count("\n") == 1 + with_sarima

    def test_overflowing_sarima_fit_is_a_listed_failure(self, tmp_path, capfd):
        # values up to ~1e301: finite, but the sum of squares overflows
        path = write_config(tmp_path, {
            "synthetic": {"kind": "ar1", "n": 1000, "alpha": 2.0, "sigma": 1.0},
            "forecasters": [{"kind": "sarima", "spec": {"order": [1, 0, 0]}}]})
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        err = capfd.readouterr().err
        assert "DLASCL" not in err and "Warning" not in err
        assert (out / "failures.txt").read_text() == (
            "sarima/series/synthetic: the zero model's sum of squares overflows (inf): "
            "the series is too large to fit\n")

    def test_parameters_overflowing_in_the_last_step_are_a_listed_failure(self, tmp_path,
                                                                           capfd):
        # every loss is finite (each precedes its step); theta is not after the step
        path = write_config(tmp_path, {
            "synthetic": {"kind": "ar1", "n": 80, "alpha": 0.8, "sigma": 1.0}, "seed": 1,
            "forecasters": [{"kind": "lstm_1day", "epochs": 1, "batch_size": 0, "layers": 1,
                             "hidden": 4, "learning_rate": 1e308}]})
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        assert "Warning" not in capfd.readouterr().err
        assert (out / "failures.txt").read_text().startswith(
            "lstm_1day/series/synthetic: parameters became non-finite at epoch 0; ")
        assert (out / "report.csv").read_text().count("\n") == 1    # the header only
        assert not list((out / "models").iterdir())

    def test_non_finite_score_is_a_listed_failure(self, tmp_path, capfd):
        # values near 1e155: training is finite, but the squared errors overflow
        path = write_config(tmp_path, {
            "synthetic": {"kind": "sine", "n": 60, "period": 7, "amplitude": 1e155},
            "forecasters": [{"kind": "lstm_1day", "epochs": 2, "layers": 1, "hidden": 4}]})
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        assert "Warning" not in capfd.readouterr().err
        assert (out / "failures.txt").read_text().startswith(
            "lstm_1day/series/synthetic: an RMSE must be finite and non-negative: ")
        assert json.loads((out / "rows.json").read_text()) == {"tables": []}

    def test_valid_config_accepted(self, tmp_path):
        path = write_config(tmp_path, {"posts_csv": POSTS, "bias_csv": BIAS,
                                       "metrics": ["post_count"],
                                       "leanings": ["left", "right"]})
        assert load_config(path).metrics == ["post_count"]


class TestFixtureCorpus:
    """Frozen expectations for tests/data (see gen_posts.py)."""

    def test_summary_counts(self):
        posts = ingest.read_posts_csv(POSTS)
        table = ingest.read_bias_csv(BIAS)
        summary = ingest.summarize(posts, table)
        assert summary.total_posts == 100
        assert summary.labeled_posts == 90
        assert summary.unlabeled_posts == 10
        assert summary.per_leaning_counts == {
            "left": 25, "left_leaning": 20, "center": 15,
            "right_leaning": 10, "right": 20}
        assert summary.date_range == (dt.date(2018, 1, 1), dt.date(2018, 1, 20))

    def test_daily_tallies(self):
        posts = ingest.read_posts_csv(POSTS)
        table = ingest.read_bias_csv(BIAS)
        window = (dt.date(2018, 1, 1), dt.date(2018, 1, 20))
        counts = ingest.aggregate_daily(posts, table, "post_count", window)
        npt.assert_array_equal(
            counts["left"].values,
            [1, 1, 2, 2, 1, 3, 0, 0, 1, 2, 0, 1, 0, 2, 2, 1, 1, 2, 2, 1])
        likes = ingest.aggregate_daily(posts, table, "likes_sum", window)
        npt.assert_array_equal(likes["left"].values[:5], [6, 13, 76, 45, 3])
        assert likes["right"].values.sum() == 595
        sent = ingest.daily_mean_sentiment(posts, table, window)
        assert sent["left"].values[2] == pytest.approx(0.18)


class TestIngestCommand:
    def test_writes_series_and_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, {
            "posts_csv": POSTS, "bias_csv": BIAS, "window": JAN_WINDOW,
            "metrics": ["post_count", "likes_sum", "sentiment_mean"]})
        assert main(["ingest", "--config", config, "--out", str(out)]) == 0
        assert (out / "series_post_count.csv").exists()
        assert (out / "series_likes_sum.csv").exists()
        assert (out / "series_sentiment_mean.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_posts"] == 100
        assert summary["per_leaning_counts"]["left"] == 25
        rows = (out / "series_post_count.csv").read_text().splitlines()
        assert rows[0] == "date,left,left_leaning,center,right_leaning,right"
        assert sum(int(row.split(",")[1]) for row in rows[1:]) == 25
        assert "ingested 100 posts" in capsys.readouterr().out

    @pytest.mark.parametrize("marked", [("posts",), ("bias",), ("config",),
                                        ("posts", "bias", "config")])
    def test_files_saved_with_a_byte_order_mark_ingest_alike(self, tmp_path, capsys, marked):
        # spreadsheet "CSV UTF-8" exports start with U+FEFF
        def bom(path, name):
            copy = tmp_path / f"bom_{name}"
            copy.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
            return str(copy)

        doc = {"posts_csv": POSTS, "bias_csv": BIAS, "window": JAN_WINDOW,
               "metrics": ["post_count", "likes_sum", "sentiment_mean"]}
        plain = write_config(tmp_path, doc)
        doc.update({f"{key}_csv": bom(doc[f"{key}_csv"], key + ".csv")
                    for key in ("posts", "bias") if key in marked})
        config = write_config(tmp_path, doc, "marked.json")
        if "config" in marked:
            config = bom(config, "config.json")
        assert main(["ingest", "--config", plain, "--out", str(tmp_path / "plain")]) == 0
        assert main(["ingest", "--config", config, "--out", str(tmp_path / "marked")]) == 0
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "marked").iterdir())
        for name in names:
            assert (tmp_path / "marked" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes()

    @pytest.mark.parametrize("bad", ["posts", "bias", "config"])
    def test_input_that_is_not_utf8_is_named_with_its_line(self, tmp_path, capsys, bad):
        # a Latin-1 e-acute on the next-to-last line: the text layer decodes
        # the whole file before the csv reader reads its header, so the line
        # must come from the file's bytes
        paths = {"posts": POSTS, "bias": BIAS}
        if bad != "config":
            lines = Path(paths[bad]).read_bytes().splitlines(keepends=True)
            lines[-2] = lines[-2].replace(b",", b"\xe9,", 1)
            paths[bad] = str(tmp_path / f"latin1_{bad}.csv")
            Path(paths[bad]).write_bytes(b"".join(lines))
        config = write_config(tmp_path, {"posts_csv": paths["posts"], "bias_csv": paths["bias"],
                                         "window": JAN_WINDOW})
        if bad == "config":
            Path(config).write_bytes(Path(config).read_bytes().replace(b"01-20", b"01-2\xe9"))
        assert main(["ingest", "--config", config, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        if bad == "config":
            assert err.startswith(f"error: config {config} is not UTF-8: ")
        else:
            assert err == (f"error: {bad} CSV {paths[bad]} line {len(lines) - 1}: byte 0xe9 "
                           "is not UTF-8 (invalid continuation byte)\n")
        assert err.count("\n") == 1 and not (tmp_path / "out").exists()

    def test_each_post_domain_is_extracted_once(self, tmp_path, monkeypatch):
        calls = []
        extract_domain = ingest.extract_domain

        def counting(url_or_domain):
            calls.append(url_or_domain)
            return extract_domain(url_or_domain)

        monkeypatch.setattr(ingest, "extract_domain", counting)
        config = write_config(tmp_path, {
            "posts_csv": POSTS, "bias_csv": BIAS, "window": JAN_WINDOW,
            "metrics": ["post_count", "likes_sum", "sentiment_mean"]})
        assert main(["ingest", "--config", config, "--out", str(tmp_path / "out")]) == 0
        posts = per_row_read_posts_csv(POSTS)
        bias_domains = [line.split(",")[0] for line in Path(BIAS).read_text().split()[1:]]
        assert len(posts) == 100
        assert sorted(calls) == sorted([p.url_or_domain for p in posts] + bias_domains)

    @pytest.mark.parametrize("platform", ["gab", "twitter"])
    def test_platform_filter_on_a_mixed_file(self, tmp_path, platform):
        lines = Path(POSTS).read_text().splitlines()
        mixed = tmp_path / "mixed.csv"
        mixed.write_text("\n".join(
            [lines[0]] + [line.replace(",twitter,", ",gab,") if i % 3 == 0 else line
                          for i, line in enumerate(lines[1:])]) + "\n")
        out = tmp_path / "out"
        metrics = ["post_count", "likes_sum", "sentiment_mean"]
        config = write_config(tmp_path, {"posts_csv": str(mixed), "bias_csv": BIAS,
                                         "window": JAN_WINDOW, "platform": platform,
                                         "metrics": metrics})
        assert main(["ingest", "--config", config, "--out", str(out)]) == 0
        # the record path the columns replaced, filtered record by record
        posts = [p for p in per_row_read_posts_csv(mixed) if p.platform == platform]
        window = (dt.date(2018, 1, 1), dt.date(2018, 1, 20))
        summary, got_platform, by_metric = per_record_aggregate(
            posts, ingest.read_bias_csv(BIAS), window, metrics)
        assert got_platform == platform and 0 < summary.total_posts < 100
        assert (out / "summary.json").read_text() == summary.to_json()
        for metric in metrics:
            ingest.write_series_csv(by_metric[metric], tmp_path / "want.csv")
            assert ((out / f"series_{metric}.csv").read_bytes()
                    == (tmp_path / "want.csv").read_bytes()), metric

    def test_likes_too_large_for_a_float_is_an_error(self, tmp_path, capsys):
        posts = tmp_path / "posts.csv"
        posts.write_text("post_id,timestamp,platform,url_or_domain,likes,sentiment\n"
                         "p1,2018-01-01T09:00:00,twitter,https://www.cnn.com/a,1,\n"
                         f"p2,2018-01-01T10:00:00,twitter,cnn.com,1{'0' * 400},\n")
        out = tmp_path / "out"
        config = write_config(tmp_path, {"posts_csv": str(posts), "bias_csv": BIAS})
        assert main(["ingest", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: posts row 3: likes '1{'0' * 400}' too large\n"
        assert not out.exists()

    def test_daily_likes_sum_past_the_float_range_is_named(self, tmp_path, capsys):
        # each cell parses (1e308 is finite); their sum on one day is not
        posts = tmp_path / "posts.csv"
        posts.write_text("post_id,timestamp,platform,url_or_domain,likes,sentiment\n"
                         f"p1,2018-01-01T09:00:00,twitter,cnn.com,1{'0' * 308},\n"
                         f"p2,2018-01-01T10:00:00,twitter,cnn.com,1{'0' * 308},\n")
        out = tmp_path / "out"
        config = write_config(tmp_path, {"posts_csv": str(posts), "bias_csv": BIAS,
                                         "metrics": ["post_count", "likes_sum"]})
        assert main(["ingest", "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: likes_sum of left posts on 2018-01-01 overflows the float range\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "run"])
    def test_bad_window_fails_before_reading_posts(self, tmp_path, capsys, command):
        # the posts file does not exist: the window must be rejected first
        config = write_config(tmp_path, {
            "posts_csv": str(tmp_path / "missing.csv"), "bias_csv": BIAS,
            "window": {"start": "2018-01-01"},
            "forecasters": [{"kind": "sarima", "spec": {"order": [1, 0, 0]}}]})
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: window needs ISO dates")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "run"])
    @pytest.mark.parametrize("which,above,message", [
        ("posts", "", "posts CSV line 3: field larger than field limit (131072)"),
        ("posts", "1.5", "posts row 2: likes must be an integer, got '1.5'"),
        ("bias", "", "bias CSV line 3: field larger than field limit (131072)"),
        ("bias", "centrist", "bias row 2: unknown leaning 'centrist'"),
    ], ids=["posts", "posts-below-a-bad-value", "bias", "bias-below-a-bad-value"])
    def test_cell_past_the_csv_field_limit_is_one_error_line(
            self, tmp_path, capsys, command, which, above, message):
        # the csv module rejects a cell over 131072 characters; a bad value
        # in a row above it is still the one reported
        long_cell = "x" * 200_000
        likes, leaning = (above or "1", "left") if which == "posts" else ("1", above or "left")
        posts, bias = tmp_path / "posts.csv", tmp_path / "bias.csv"
        posts.write_text("post_id,timestamp,platform,url_or_domain,likes,sentiment\n"
                         f"p1,2018-01-01T09:00:00,twitter,cnn.com,{likes},\n"
                         + (f"p2,2018-01-01T10:00:00,twitter,{long_cell},1,\n"
                            if which == "posts" else ""))
        bias.write_text(f"domain,leaning\ncnn.com,{leaning}\n"
                        + (f"{long_cell}.com,right\n" if which == "bias" else ""))
        out = tmp_path / "out"
        config = write_config(tmp_path, {
            "posts_csv": str(posts), "bias_csv": str(bias),
            "forecasters": [{"kind": "sarima", "spec": {"order": [1, 0, 0]}}]})
        assert main([command, "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_empty_posts_writes_nothing(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("post_id,timestamp,platform,url_or_domain,likes,sentiment\n")
        out = tmp_path / "out"
        config = write_config(tmp_path, {"posts_csv": str(empty), "bias_csv": BIAS})
        assert main(["ingest", "--config", config, "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unparseable_url_names_its_post(self, tmp_path, capsys):
        posts = tmp_path / "posts.csv"
        posts.write_text("post_id,timestamp,platform,url_or_domain,likes,sentiment\n"
                         "p1,2018-01-01T09:00:00,twitter,https://www.cnn.com/a,1,\n"
                         "p2,2018-01-01T10:00:00,twitter,//www.cnn.com/b,1,\n")
        out = tmp_path / "out"
        config = write_config(tmp_path, {"posts_csv": str(posts), "bias_csv": BIAS})
        assert main(["ingest", "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: post p2: cannot extract a domain from '//www.cnn.com/b'\n")
        assert not out.exists()

    def test_rejects_synthetic_config(self, tmp_path, capsys):
        config = write_config(tmp_path, {"synthetic": {"kind": "ar1", "n": 10}})
        assert main(["ingest", "--config", config, "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err


class TestRunCommand:
    def test_fits_and_reports_every_forecaster(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = synth_run_config(tmp_path)
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        report_lines = (out / "report.csv").read_text().splitlines()
        assert len(report_lines) == 3           # header + 2 models
        assert report_lines[0].startswith("model,leaning,metric")
        rows = json.loads((out / "rows.json").read_text())
        models = {r["model"] for t in rows["tables"] for r in t["rows"]}
        assert models == {"sarima", "lstm_1day"}
        assert (out / "models" / "sarima_series_synthetic.json").exists()
        assert (out / "models" / "lstm_1day_series_synthetic.json").exists()
        assert (out / "plots" / "series_synthetic.svg").exists()
        assert capsys.readouterr().out.startswith("model,leaning,metric")

    def test_reruns_are_byte_identical(self, tmp_path):
        config = synth_run_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", config, "--out", str(out_a)]) == 0
        assert main(["run", "--config", config, "--out", str(out_b)]) == 0
        for rel in ("report.csv", "report.txt", "rows.json",
                    "models/sarima_series_synthetic.json",
                    "models/lstm_1day_series_synthetic.json",
                    "plots/series_synthetic.svg"):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    def test_fallback_grid_search_finishes(self, tmp_path):
        # no spec, no grid and no published order: all of FALLBACK_GRID is searched
        config = synth_run_config(tmp_path, n=40, forecasters=[{"kind": "sarima"}])
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        doc = json.loads((out / "models" / "sarima_series_synthetic.json").read_text())
        assert doc["metadata"]["grid_candidates"] == len(FALLBACK_GRID.candidates())

    def test_seed_flag_changes_the_fit(self, tmp_path):
        config = synth_run_config(
            tmp_path, forecasters=[{"kind": "lstm_1day", "epochs": 3,
                                    "layers": 1, "hidden": 4}])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", config, "--seed", "1", "--out", str(out_a)]) == 0
        assert main(["run", "--config", config, "--seed", "2", "--out", str(out_b)]) == 0
        assert (out_a / "rows.json").read_text() != (out_b / "rows.json").read_text()

    def test_short_test_half_fails_loudly(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = synth_run_config(
            tmp_path, n=60,
            forecasters=[{"kind": "multistep_14_5", "epochs": 2,
                          "layers": 1, "hidden": 4}])
        assert main(["run", "--config", config, "--out", str(out)]) == 1
        assert "19" in (out / "failures.txt").read_text()
        assert len((out / "report.csv").read_text().splitlines()) == 1
        assert "failed" in capsys.readouterr().err

    def test_short_test_half_rejected_before_fitting(self, tmp_path, capsys, monkeypatch):
        # 50 days at split 0.7 leave 15 test days; multistep scoring needs 19
        fitted = []
        monkeypatch.setattr(forecasters, "fit_forecaster",
                            lambda *args, **kwargs: fitted.append(args))
        out = tmp_path / "out"
        config = synth_run_config(tmp_path, n=50,
                                  forecasters=[{"kind": "multistep_14_5", "epochs": 60}])
        assert main(["run", "--config", config, "--out", str(out)]) == 1
        assert fitted == []
        failures = (out / "failures.txt").read_text()
        assert "test half has 15 points" in failures and "19" in failures
        assert list((out / "models").iterdir()) == []
        assert "1 fit(s) failed" in capsys.readouterr().err

    def test_preset_bundle_is_accepted(self, tmp_path):
        out = tmp_path / "out"
        config = synth_run_config(
            tmp_path,
            forecasters=[{"kind": "lstm_1day", "epochs": 2, "layers": 1,
                          "hidden": 4}])
        assert main(["run", "--config", config, "--preset", "twitter-posts",
                     "--out", str(out)]) == 0

    def test_repeated_kind_fails_before_any_fit(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = synth_run_config(tmp_path, forecasters=[
            {"kind": "sarima", "spec": {"order": [1, 0, 0]}},
            {"kind": "sarima", "spec": {"order": [0, 0, 1]}}])
        assert main(["run", "--config", config, "--out", str(out)]) == 1
        assert "listed more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_sentiment_mean_rejected_before_reading_posts(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "posts_csv": str(tmp_path / "missing.csv"), "bias_csv": BIAS,
            "metrics": ["sentiment_mean"],
            "forecasters": [{"kind": "sarima", "spec": {"order": [1, 0, 0]}}]})
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 1
        assert "sentiment_mean" in capsys.readouterr().err
        assert not (out / "models").exists()

    def test_no_forecasters_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, {"synthetic": {"kind": "ar1", "n": 30}})
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 1
        assert "no forecasters" in capsys.readouterr().err


class TestGridsearchCommand:
    def test_small_grid_writes_winner_and_candidates(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, {
            "synthetic": {"kind": "ar1", "n": 80, "alpha": 0.8, "sigma": 1.0},
            "forecasters": [{"kind": "sarima",
                             "grid": {"p": [0, 1], "d": 0, "q": 0,
                                      "P": 0, "D": 0, "Q": 0, "s": 0}}]})
        assert main(["gridsearch", "--config", config, "--out", str(out)]) == 0
        doc = json.loads((out / "gridsearch_series_synthetic.json").read_text())
        assert "order" in doc
        lines = (out / "candidates_series_synthetic.csv").read_text().splitlines()
        assert lines[0] == "p,d,q,P,D,Q,s,score,converged,error"
        assert len(lines) == 3
        assert [line.split(",")[-2:] for line in lines[1:]] == [["true", ""]] * 2
        assert "best spec" in capsys.readouterr().out

    def test_malformed_grid_fails(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "synthetic": {"kind": "ar1", "n": 40},
            "forecasters": [{"kind": "sarima", "grid": {"p": "all"}}]})
        assert main(["gridsearch", "--config", config,
                     "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_fittable_candidate_is_an_error(self, tmp_path, capsys):
        # 12 days split 0.7 leave 8 train days, 6 after the holdout: below
        # every candidate's identifiability floor
        config = write_config(tmp_path, {
            "synthetic": {"kind": "ar1", "n": 12, "alpha": 0.5, "sigma": 1.0},
            "forecasters": [{"kind": "sarima", "grid": {"p": [0, 1], "q": 0}}]})
        assert main(["gridsearch", "--config", config,
                     "--out", str(tmp_path / "o")]) == 1
        assert "error: series/synthetic: no grid candidate could be fitted" in \
            capsys.readouterr().err

    def test_unfittable_series_is_named_and_nothing_is_written(self, tmp_path, capsys):
        # the right series' likes square past the float range, so none of its
        # candidates fits; the left series is searched first and fits
        rows = "".join(f"l{day},2018-01-{day:02d}T09:00:00,twitter,cnn.com,{3 + day % 3},0.1\n"
                       f"r{day},2018-01-{day:02d}T10:00:00,twitter,foxnews.com,{10 ** 160},0.1\n"
                       for day in range(1, 31))
        posts, bias = tmp_path / "posts.csv", tmp_path / "bias.csv"
        posts.write_text("post_id,timestamp,platform,url_or_domain,likes,sentiment\n" + rows)
        bias.write_text("domain,leaning\ncnn.com,left\nfoxnews.com,right\n")
        config = write_config(tmp_path, {
            "posts_csv": str(posts), "bias_csv": str(bias),
            "window": {"start": "2018-01-01", "end": "2018-01-30"},
            "metrics": ["likes_sum"], "leanings": ["left", "right"],
            "forecasters": [{"kind": "sarima", "grid": {"p": [0, 1]}}]})
        out = tmp_path / "out"
        out.mkdir()
        assert main(["gridsearch", "--config", config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: right/likes_sum: no grid candidate could be fitted\n"
        assert list(out.iterdir()) == []

    def test_sentiment_mean_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "posts_csv": POSTS, "bias_csv": BIAS, "window": JAN_WINDOW,
            "metrics": ["post_count", "sentiment_mean"],
            "forecasters": [{"kind": "sarima", "grid": {"p": [0, 1]}}]})
        out = tmp_path / "out"
        assert main(["gridsearch", "--config", config, "--out", str(out)]) == 1
        assert "sentiment_mean" in capsys.readouterr().err
        assert not out.exists()

    def test_exactly_one_grid_entry_required(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "synthetic": {"kind": "ar1", "n": 40},
            "forecasters": [{"kind": "lstm_1day"}]})
        assert main(["gridsearch", "--config", config,
                     "--out", str(tmp_path / "o")]) == 1
        assert "exactly one" in capsys.readouterr().err


class TestSimulateCommand:
    def test_same_seed_same_bytes(self, tmp_path):
        config = write_config(tmp_path, {
            "synthetic": {"kind": "ar1", "n": 30, "alpha": 0.5, "sigma": 1.0},
            "seed": 7})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", config, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", config, "--out", str(out_b)]) == 0
        assert (out_a / "simulated.csv").read_bytes() == \
            (out_b / "simulated.csv").read_bytes()

    def test_seed_changes_the_draw(self, tmp_path):
        config = write_config(tmp_path, {
            "synthetic": {"kind": "ar1", "n": 30, "alpha": 0.5, "sigma": 1.0}})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", config, "--seed", "1",
                     "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", config, "--seed", "2",
                     "--out", str(out_b)]) == 0
        assert (out_a / "simulated.csv").read_text() != \
            (out_b / "simulated.csv").read_text()

    def test_writes_the_series_run_fits(self, tmp_path, monkeypatch):
        fitted = []

        def record(kind, split, config, seed):
            fitted.append([*split.train.values, *split.test.values])
            raise ValueError("recorded, not fitted")

        monkeypatch.setattr(forecasters, "fit_forecaster", record)
        config = synth_run_config(tmp_path, n=30, seed=3,
                                  forecasters=[{"kind": "sarima", "spec": {"order": [1, 0, 0]}}])
        assert main(["run", "--config", config, "--out", str(tmp_path / "run")]) == 1
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "sim")]) == 0
        rows = (tmp_path / "sim" / "simulated.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == fitted[0]
        assert len(rows) == 30

    @pytest.mark.parametrize("command", ["simulate", "run"])
    def test_parameter_the_kind_never_reads_fails(self, tmp_path, capsys, command):
        config = synth_run_config(tmp_path, synthetic={
            "kind": "ar1", "n": 40, "model": {"order": [1, 0, 0], "seasonal": [0, 0, 0, 0]}})
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: synthetic kind ar1 does not read model\n"
        assert not out.exists()

    def test_requires_synthetic_spec(self, tmp_path, capsys):
        config = write_config(tmp_path, {"posts_csv": POSTS, "bias_csv": BIAS})
        assert main(["simulate", "--config", config,
                     "--out", str(tmp_path / "o")]) == 1
        assert "synthetic" in capsys.readouterr().err


class TestReportCommand:
    def test_rerenders_saved_rows(self, tmp_path, capsys):
        run_out = tmp_path / "run"
        config = synth_run_config(tmp_path)
        assert main(["run", "--config", config, "--out", str(run_out)]) == 0
        capsys.readouterr()
        report_out = tmp_path / "report"
        assert main(["report", "--config", str(run_out / "rows.json"),
                     "--out", str(report_out)]) == 0
        assert (report_out / "report.csv").read_bytes() == \
            (run_out / "report.csv").read_bytes()
        assert main(["report", "--config", str(run_out / "rows.json"),
                     "--format", "text"]) == 0
        assert "== synthetic / synthetic ==" in capsys.readouterr().out

    def test_rows_saved_with_a_byte_order_mark_render_alike(self, tmp_path, capsys):
        run_out = tmp_path / "run"
        assert main(["run", "--config", synth_run_config(tmp_path), "--out", str(run_out)]) == 0
        marked = tmp_path / "rows.json"
        marked.write_bytes(b"\xef\xbb\xbf" + (run_out / "rows.json").read_bytes())
        capsys.readouterr()
        assert main(["report", "--config", str(marked)]) == 0
        assert capsys.readouterr().out == (run_out / "report.csv").read_text()

    def test_needs_config(self, capsys):
        assert main(["report"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text,problem", [
        ("[]", "TypeError: list indices must be integers or slices, not str"),
        ("{}", "KeyError: 'tables'"),
        ('{"tables": [{}]}', "KeyError: 'rows'"),
    ])
    def test_not_a_rows_file_is_named(self, tmp_path, capsys, text, problem):
        path = tmp_path / "rows.json"
        path.write_text(text)
        assert main(["report", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path} is not a leancast rows file ({problem})\n"

    ROW = {"model": "sarima", "leaning": "left", "metric": "post_count", "train_rmse": 1.5,
           "test_rmse": 2, "per_step_rmse": None}

    @pytest.mark.parametrize("field,value", [
        ("leaning", 5), ("model", None), ("metric", ["post_count"]), ("train_rmse", "1.5"),
        ("test_rmse", None), ("test_rmse", True), ("per_step_rmse", [1.0, 2.0]),
        ("per_step_rmse", [1.0, 2.0, 3.0, 4.0, "5"]), ("per_step_rmse", 1.0),
    ])
    def test_wrong_value_type_is_named(self, tmp_path, capsys, field, value):
        path = tmp_path / "rows.json"
        row = {**self.ROW, field: value}
        path.write_text(json.dumps({"tables": [{"platform": "p", "metric": "m",
                                                "rows": [row]}]}))
        assert main(["report", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path} is not a leancast rows file "
                                       "(TypeError: a row has a value of the wrong type")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("field,value", [    # json writes NaN and Infinity tokens
        ("test_rmse", float("nan")), ("train_rmse", float("inf")),
        ("per_step_rmse", [1.0, float("nan"), 3.0, 4.0, 5.0]),
    ])
    def test_non_finite_rmse_is_named(self, tmp_path, capsys, field, value):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps({"tables": [{"platform": "p", "metric": "m",
                                                "rows": [{**self.ROW, field: value}]}]}))
        assert main(["report", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path} is not a leancast rows file "
                                       "(ValueError: an RMSE must be finite and non-negative")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("leaning,steps", [(None, None), ("left", [1, 2.5, 3, 4, 5])])
    def test_well_typed_row_renders(self, tmp_path, capsys, leaning, steps):
        path = tmp_path / "rows.json"
        row = {**self.ROW, "leaning": leaning, "per_step_rmse": steps}
        path.write_text(json.dumps({"tables": [{"platform": "p", "metric": "m",
                                                "rows": [row]}]}))
        assert main(["report", "--config", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("sarima,")


# the flags each command reads, and so accepts, besides --config and --out
COMMAND_FLAGS = {"ingest": [], "run": ["--seed", "--preset", "--format"],
                 "gridsearch": ["--seed"], "simulate": ["--seed"], "report": ["--format"]}
FLAG_VALUES = {"--seed": "1", "--preset": "gab-posts", "--format": "text"}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_each_command_takes_only_the_flags_it_reads(command, capsys):
    parser = cli.build_parser()
    dests = [flag[2:] for flag in COMMAND_FLAGS[command]]
    assert sorted(vars(parser.parse_args([command]))) == sorted(
        ["command", "func", "config", "out", *dests])
    for flag, value in FLAG_VALUES.items():
        argv = [command, "--config", "c.json", flag, value]
        if flag in COMMAND_FLAGS[command]:
            assert vars(parser.parse_args(argv))[flag[2:]] == (
                int(value) if flag == "--seed" else value)
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_traced_cli_resolves_every_wrapped_name(tmp_path):
    # perfbench/trace_cli.py wraps leancast functions by name before it runs
    # any command, so a deleted or renamed one fails this tiny simulate
    config = write_config(tmp_path, {"synthetic": {"kind": "ar1", "n": 20}})
    spans, out = tmp_path / "spans.npz", tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "trace_cli.py"), str(spans), "x", "--",
         "simulate", "--config", config, "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (out / "simulated.csv").read_text().startswith("date,value\n2018-01-01,")
    with np.load(spans) as saved:
        names = json.loads(str(saved["meta"]))["names"]
        assert names[saved["name_of"][0]] == "cli.main"    # the outermost span
