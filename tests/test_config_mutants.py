"""Seeded config mutator: every mutant of the test configs either fails to
load with ConfigError or loads into a Plan whose fit configs are all built,
and accepted synthetic mutants run to an exit code, never a traceback."""

import copy
import datetime as dt
import json
import random
from pathlib import Path

import numpy as np
import pytest

from leancast.cli import ConfigError, Plan, load_config, main
from leancast.forecasters import kind_lookback
from leancast.neural import NetworkConfig
from leancast.rng import derive_seed
from leancast.sarima import GridSpec, SarimaSpec
from leancast.series import DailySeries

DATA = Path(__file__).parent / "data"
SEED = 2018
N_MUTANTS = 400
N_RUNS = 20

# the configs of test_cli.py and test_acceptance.py, synthetic ones at 40 days
BASES = [
    {"synthetic": {"kind": "ar1", "n": 40, "alpha": 0.8, "sigma": 1.0},
     "forecasters": [{"kind": "sarima", "spec": {"order": [1, 0, 0]}},
                     {"kind": "lstm_1day", "epochs": 3, "layers": 1, "hidden": 4}]},
    {"synthetic": {"kind": "ar1", "n": 40, "alpha": 0.5, "sigma": 1.0}, "seed": 7,
     "split_ratio": 0.6,
     "forecasters": [{"kind": "sarima", "spec": {"order": [0, 0, 1]},
                      "grid": {"p": [0, 1], "d": 0, "q": 0, "P": 0, "D": 0, "Q": 0,
                               "s": 0}},
                     {"kind": "multistep_14_5", "epochs": 2, "layers": 1, "hidden": 4}]},
    {"synthetic": {"kind": "sine", "n": 40, "period": 7, "amplitude": 2.0,
                   "noise_sigma": 0.5, "start_date": "2019-03-01"},
     "preset": "twitter-posts",
     "forecasters": [{"kind": "gru_14day", "epochs": 2, "layers": 1, "hidden": 4,
                      "dropout": 0.2, "optimizer": "adam", "batch_size": 8},
                     {"kind": "lstm_14day", "epochs": 2, "layers": 1, "hidden": 4,
                      "input_size": 1, "learning_rate": 0.01}]},
    {"synthetic": {"kind": "seasonal_sarima", "n": 40,
                   "model": {"order": [1, 0, 0], "seasonal": [1, 0, 0, 7], "c": 0.1,
                             "alpha": [0.5], "phi": [0.3], "sigma2": 1.0}},
     "forecasters": [{"kind": "sarima", "spec": {"order": [1, 0, 0],
                                                 "seasonal": [0, 0, 0, 0]}}]},
    {"posts_csv": str(DATA / "posts_100.csv"), "bias_csv": str(DATA / "bias.csv"),
     "window": {"start": "2018-01-01", "end": "2018-01-20"},
     "metrics": ["post_count"], "leanings": ["left", "right"], "seed": 0,
     "forecasters": [{"kind": "sarima", "spec": {"order": [1, 0, 0]}},
                     {"kind": "lstm_1day", "epochs": 3, "layers": 1, "hidden": 4}]},
    {"posts_csv": str(DATA / "posts_100.csv"), "bias_csv": str(DATA / "bias.csv"),
     "window": {"start": "2018-01-01", "end": "2018-01-20"}, "platform": "twitter",
     "metrics": ["post_count", "likes_sum", "sentiment_mean"], "out_dir": "out"},
]

# replacement values, by JSON type; small ints keep every accepted run short
RETYPED = {"int": [0, 1, 2, -1], "str": ["", "x", "2018-01-01"],
           "list": [[], [1], ["x", 2]], "null": [None], "bool": [True, False]}


def _slots(node):
    """(container, key) of every value nested in ``node``."""
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def mutate(doc, rng):
    """One or two drops, retypes or list-entry repeats of a copy of ``doc``."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        slots = list(_slots(doc))
        lists = [(c, k) for c, k in slots if isinstance(c[k], list) and c[k]]
        op = rng.choice(["drop", "retype", "repeat"] if lists else ["drop", "retype"])
        if op == "repeat":
            container, key = rng.choice(lists)
            entries = container[key]
            entries.insert(rng.randrange(len(entries) + 1),
                           copy.deepcopy(rng.choice(entries)))
            continue
        container, key = rng.choice(slots)
        if op == "drop":
            del container[key]
        else:
            container[key] = copy.deepcopy(rng.choice(RETYPED[rng.choice(list(RETYPED))]))
    return doc


def _mutants():
    rng = random.Random(SEED)
    return [mutate(rng.choice(BASES), rng) for _ in range(N_MUTANTS)]


def _load(tmp_path, index, doc):
    path = tmp_path / f"mutant_{index}.json"
    path.write_text(json.dumps(doc))
    try:
        return str(path), load_config(str(path))
    except ConfigError:
        return str(path), None


def _check_resolved(plan: Plan, doc: dict):
    assert isinstance(plan.out_dir, str) and plan.out_dir
    start, end = plan.window
    assert isinstance(start, dt.date) and start <= end
    assert 0.0 < plan.split_ratio < 1.0
    assert plan.grid is None or isinstance(plan.grid, GridSpec)
    if plan.synthetic is not None:
        series, block = plan.synthetic, doc["synthetic"]
        assert isinstance(series, DailySeries) and series.metric == "synthetic"
        assert len(series) == block["n"] and np.all(np.isfinite(series.values))
        assert series.start_date == dt.date.fromisoformat(
            block.get("start_date", "2018-01-01"))
    else:
        assert isinstance(plan.posts_csv, str) and isinstance(plan.bias_csv, str)
    keys = set(plan.series)
    for fit in plan.fits:
        assert (fit.metric, fit.leaning) in keys
        assert fit.tag == f"{fit.kind}/{fit.leaning or 'series'}/{fit.metric}"
        assert fit.seed == derive_seed(doc.get("seed", 0), fit.tag)
        if fit.kind == "sarima":
            assert isinstance(fit.config, (SarimaSpec, GridSpec))
        else:
            assert isinstance(fit.config, NetworkConfig) and fit.config.seed == fit.seed
            assert fit.config.input_size in {1, kind_lookback(fit.kind)}


def test_every_mutant_is_rejected_or_fully_resolved(tmp_path):
    accepted = 0
    for index, doc in enumerate(_mutants()):
        _, plan = _load(tmp_path, index, doc)
        if plan is not None:
            _check_resolved(plan, doc)
            accepted += 1
    # both outcomes must occur often, or the mutations test little
    assert 30 <= accepted <= N_MUTANTS - 30, accepted


@pytest.fixture(scope="module")
def run_sample(tmp_path_factory):
    """The first N_RUNS accepted synthetic mutants of at most 40 days."""
    tmp_path = tmp_path_factory.mktemp("mutants")
    sample = []
    for index, doc in enumerate(_mutants()):
        path, plan = _load(tmp_path, index, doc)
        if plan is not None and plan.synthetic is not None and len(plan.synthetic) <= 40:
            sample.append((path, doc))
    assert len(sample) >= N_RUNS
    return sample[:N_RUNS]


@pytest.mark.parametrize("index", range(N_RUNS))
def test_accepted_mutant_runs_or_fails_cleanly(tmp_path, capsys, run_sample, index):
    path, doc = run_sample[index]
    out = tmp_path / "out"
    code = main(["run", "--config", path, "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1), doc
    if code == 1 and not (out / "failures.txt").exists():
        assert err.startswith("error: ") and err.count("\n") == 1, (doc, err)
