"""The four benchmark workloads: their generated inputs, the leancast
command each one runs, the checks on its outputs and its accuracy figure.

Each workload drives one CLI command on files generated from the seed.
``prepare`` writes the inputs and returns a :class:`Workload`; everything
else reads only the output directory of one execution.
"""

from __future__ import annotations

import csv
import datetime as dt
import glob
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import gen

# sarima_grid runs by hand only; BENCHMARK.json leaves it out (README.md).
NAMES = ("ingest_corpus", "sarima_grid", "neural_run", "forecast_long")

INGEST_POSTS = 25_000     # under 2 s of ingest per execution on one core
FIT_POSTS = 12_000        # ingest stays a small share of the fitting workloads
SPLIT = 0.7
LONG_DAYS = 730           # two years, split in half: a long test segment
LONG_SPLIT = 0.5
VALIDATION_FRACTION = 0.2   # sarima.grid_search's default holdout share

# AR and seasonal-AR terms only, with and without differencing.
# Candidates with MA terms are left out: on these series their simplex
# cost swings 10-100x from seed to seed, which no run length averages away.
GRID = {"p": {"values": [0, 2]}, "d": [0, 1], "q": 0,
        "P": 1, "D": 0, "Q": 0, "s": {"values": [0, 7]}}
GRID_LEANINGS = ["left", "right"]

NEURAL_KINDS = ("lstm_1day", "lstm_14day", "gru_14day", "multistep_14_5")
# twitter-posts preset shapes; epochs cut so that one execution takes seconds
NEURAL_EPOCHS = {"lstm_1day": 20, "lstm_14day": 20, "gru_14day": 20,
                 "multistep_14_5": 25}
NEURAL_LEANINGS = ["center"]

# cheap fits, long evaluation: each kind once (a second sarima entry would
# hit the duplicate report cell defect)
LONG_FORECASTERS = [
    {"kind": "sarima", "spec": {"order": [1, 0, 0], "seasonal": [0, 0, 0, 0]}},
    {"kind": "lstm_1day", "epochs": 2},
    {"kind": "lstm_14day", "epochs": 2},
    {"kind": "gru_14day", "epochs": 2},
    {"kind": "multistep_14_5", "epochs": 5, "layers": 1, "batch_size": 32},
]
LOOKBACK, HORIZON = 14, 5


@dataclass
class Workload:
    command: str              # leancast subcommand
    config: str               # path of the generated config
    units: int                # posts (ingest) or fits per execution
    truth: dict = field(default_factory=dict)   # (metric, leaning) -> values
    corpus: gen.Corpus | None = None

    # -- outputs -------------------------------------------------------

    def artifacts(self, out: str) -> list:
        """Output files that must be byte-identical across executions."""
        if self.command == "ingest":
            patterns = ["series_*.csv", "summary.json"]
        elif self.command == "gridsearch":
            patterns = ["candidates_*.csv", "gridsearch_*.json"]
        else:
            patterns = ["report.csv", "rows.json", os.path.join("models", "*")]
        return sorted(p for pat in patterns for p in glob.glob(os.path.join(out, pat)))

    def digest(self, out: str) -> str:
        h = hashlib.sha256()
        for path in self.artifacts(out):
            h.update(os.path.relpath(path, out).encode() + b"\0")
            with open(path, "rb") as handle:
                h.update(handle.read())
        return h.hexdigest()

    def failed_units(self, out: str, returncode: int) -> int:
        """Failed fits in one execution: lines of failures.txt, candidates
        with an error; every unit when the command failed without saying."""
        if self.command == "run" and os.path.exists(os.path.join(out, "failures.txt")):
            with open(os.path.join(out, "failures.txt")) as handle:
                return sum(1 for line in handle if line.strip())
        if self.command == "gridsearch" and returncode == 0:
            return sum(1 for rows in _candidate_rows(out).values() for row in rows
                       if row["error"])
        return self.units if returncode != 0 else 0

    def check(self, out: str) -> list:
        """Problems with one execution's outputs; empty when correct."""
        if self.command == "ingest":
            return _check_ingest(self, out)
        if self.command == "gridsearch":
            return _check_gridsearch(self, out)
        return _check_run(self, out)

    def rel_rmse(self, out: str) -> float:
        """Geometric mean over (series, model) rows of model RMSE over
        persistence RMSE on the same segment.  ingest_corpus fits nothing,
        so its mean is over no rows: the empty product, 1."""
        if self.command == "ingest":
            return 1.0
        ratios = (_gridsearch_ratios(self, out) if self.command == "gridsearch"
                  else _run_ratios(self, out))
        return float(math.exp(np.mean(np.log(ratios))))


# -- set-up ------------------------------------------------------------------


def _grid_candidates() -> list:
    """Distinct (p,d,q,P,D,Q,s) of GRID, seasonal orders dropped when s < 2."""
    def values(v):
        if isinstance(v, dict):
            return v["values"]
        if isinstance(v, list):
            return list(range(v[0], v[1] + 1))
        return [v]
    out = set()
    for p, d, q, P, D, Q, s in itertools.product(*(values(GRID[k]) for k in "pdqPDQs")):
        out.add((p, d, q, P, D, Q, s) if s >= 2 else (p, d, q, 0, 0, 0, 0))
    return sorted(out)


def prepare(name: str, workdir: str, seed: int) -> Workload:
    """Write the workload's inputs for ``seed`` under ``workdir``."""
    posts = os.path.join(workdir, "posts.csv")
    bias = os.path.join(workdir, "bias.csv")
    config = os.path.join(workdir, "config.json")
    start, end = gen.WINDOW
    window = {"start": start.isoformat(), "end": end.isoformat()}
    if name == "ingest_corpus":
        corpus = gen.write_corpus(posts, bias, seed, INGEST_POSTS)
        doc = {"posts_csv": posts, "bias_csv": bias, "window": window,
               "metrics": ["post_count", "likes_sum", "sentiment_mean"]}
        wl = Workload("ingest", config, INGEST_POSTS, corpus=corpus)
    elif name in ("sarima_grid", "neural_run"):
        corpus = gen.write_corpus(posts, bias, seed, FIT_POSTS)
        leanings = GRID_LEANINGS if name == "sarima_grid" else NEURAL_LEANINGS
        doc = {"posts_csv": posts, "bias_csv": bias, "window": window,
               "metrics": ["post_count"], "leanings": leanings,
               "split_ratio": SPLIT, "seed": seed}
        truth = {("post_count", l): corpus.counts[gen.LEANINGS.index(l)] for l in leanings}
        if name == "sarima_grid":
            doc["forecasters"] = [{"kind": "sarima", "grid": GRID}]
            wl = Workload("gridsearch", config,
                          len(leanings) * len(_grid_candidates()), truth, corpus)
        else:
            doc["preset"] = "twitter-posts"
            doc["forecasters"] = [{"kind": k, "epochs": NEURAL_EPOCHS[k]}
                                  for k in NEURAL_KINDS]
            wl = Workload("run", config, len(leanings) * len(NEURAL_KINDS),
                          truth, corpus)
    elif name == "forecast_long":
        doc = {"synthetic": gen.long_synthetic(LONG_DAYS),
               "split_ratio": LONG_SPLIT, "seed": seed,
               "forecasters": LONG_FORECASTERS}
        wl = Workload("run", config, len(LONG_FORECASTERS),
                      {("synthetic", None): _synthetic_values(doc, seed)})
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    with open(config, "w") as handle:
        json.dump(doc, handle, indent=1)
    return wl


def _synthetic_values(doc: dict, seed: int) -> np.ndarray:
    """The series ``leancast run`` builds from a synthetic config, through
    leancast's public generator and seed derivation."""
    from leancast import derive_seed, generate_synthetic

    synth = dict(doc["synthetic"])
    kind, n = synth.pop("kind"), synth.pop("n")
    return generate_synthetic(kind, n, derive_seed(seed, "synthetic"), **synth).values


# -- checks ------------------------------------------------------------------


def _read_series_csv(path: str):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _check_ingest(wl: Workload, out: str) -> list:
    corpus = wl.corpus
    start, end = gen.WINDOW
    days = [(start + dt.timedelta(days=i)).isoformat()
            for i in range((end - start).days + 1)]
    problems = []
    for metric in ("post_count", "likes_sum", "sentiment_mean"):
        path = os.path.join(out, f"series_{metric}.csv")
        if not os.path.exists(path):
            problems.append(f"{metric}: no series file")
            continue
        header, rows = _read_series_csv(path)
        if header != ["date", *gen.LEANINGS] or [r[0] for r in rows] != days:
            problems.append(f"{metric}: header or dates differ from the window")
            continue
        got = np.array([[float(c) if c else np.nan for c in r[1:]] for r in rows]).T
        want = corpus.series(metric)
        if metric == "sentiment_mean":
            same = np.array_equal(np.isnan(got), np.isnan(want)) and np.all(
                np.abs(np.nan_to_num(got) - np.nan_to_num(want)) <= 1e-12)
        else:
            same = np.array_equal(got, want)
        if not same:
            problems.append(f"{metric}: series differ from the generator's truth")
    try:
        with open(os.path.join(out, "summary.json")) as handle:
            summary = json.load(handle)
        totals = (summary["total_posts"], summary["labeled_posts"])
        if totals != (corpus.n_posts, corpus.n_labeled):
            problems.append("summary.json: post totals differ from the generator's")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"summary.json: {exc}")
    return problems


def _rows(out: str) -> list:
    with open(os.path.join(out, "rows.json")) as handle:
        doc = json.load(handle)
    return [row for table in doc["tables"] for row in table["rows"]]


def _check_run(wl: Workload, out: str) -> list:
    with open(wl.config) as handle:
        doc = json.load(handle)
    kinds = [e["kind"] for e in doc["forecasters"]]
    expected = {(k, leaning, metric) for (metric, leaning) in wl.truth for k in kinds}
    problems = []
    if os.path.exists(os.path.join(out, "failures.txt")):
        problems.append("failures.txt lists failed fits")
    try:
        got = {(r["model"], r["leaning"], r["metric"]) for r in _rows(out)
               if math.isfinite(r["test_rmse"])}
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"rows.json: {exc}"]
    if got != expected:
        problems.append(f"rows.json reports {len(got)} of {len(expected)} fits")
    models = {os.path.basename(p) for p in glob.glob(os.path.join(out, "models", "*.json"))}
    want = {f"{k}_{leaning or 'series'}_{metric}.json" for k, leaning, metric in expected}
    if models != want:
        problems.append(f"models/ holds {len(models)} of {len(want)} models")
    return problems


def _candidate_rows(out: str) -> dict:
    """base name -> candidate rows of candidates_<base>.csv."""
    out_rows = {}
    for path in sorted(glob.glob(os.path.join(out, "candidates_*.csv"))):
        base = os.path.basename(path)[len("candidates_"):-len(".csv")]
        with open(path, newline="") as handle:
            out_rows[base] = list(csv.DictReader(handle))
    return out_rows


def _check_gridsearch(wl: Workload, out: str) -> list:
    problems = []
    bases = {f"{leaning}_{metric}" for metric, leaning in wl.truth}
    cands = _candidate_rows(out)
    if set(cands) != bases:
        return [f"candidate files for {sorted(cands)}, expected {sorted(bases)}"]
    want = _grid_candidates()
    for base, rows in cands.items():
        specs = sorted(tuple(int(r[k]) for k in "pdqPDQs") for r in rows)
        if specs != want:
            problems.append(f"{base}: {len(specs)} candidates, grid has {len(want)}")
        if any(r["error"] or not r["score"] for r in rows):
            problems.append(f"{base}: candidates without a score")
        if not os.path.exists(os.path.join(out, f"gridsearch_{base}.json")):
            problems.append(f"{base}: no gridsearch_{base}.json")
    return problems


# -- accuracy ----------------------------------------------------------------


def _rmse(a, b) -> float:
    err = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.sqrt(np.mean(err * err)))


def _persistence_one_step(history, segment) -> float:
    """RMSE of predicting each day of ``segment`` by the day before it."""
    full = np.concatenate([history, segment])
    return _rmse(full[len(history) - 1:-1], segment)


def _persistence_multistep(segment) -> float:
    """Pooled RMSE over every complete 14-in/5-out window in ``segment`` of
    repeating the window's last known value for all five steps."""
    n = len(segment) - LOOKBACK - HORIZON + 1
    last = np.array([segment[i + LOOKBACK - 1] for i in range(n)])
    targets = np.array([segment[i + LOOKBACK:i + LOOKBACK + HORIZON] for i in range(n)])
    return _rmse(np.repeat(last[:, None], HORIZON, axis=1), targets)


def _run_ratios(wl: Workload, out: str) -> list:
    with open(wl.config) as handle:
        ratio = json.load(handle)["split_ratio"]
    ratios = []
    for row in _rows(out):
        values = wl.truth[(row["metric"], row["leaning"])]
        n_train = int(np.floor(ratio * len(values)))
        train, test = values[:n_train], values[n_train:]
        if row["model"] == "multistep_14_5":
            base = _persistence_multistep(test)
        else:
            base = _persistence_one_step(train, test)
        ratios.append(row["test_rmse"] / base)
    return ratios


def _gridsearch_ratios(wl: Workload, out: str) -> list:
    """Winner's holdout score over persistence on the same validation part."""
    ratios = []
    cands = _candidate_rows(out)
    for (metric, leaning), values in sorted(wl.truth.items()):
        base = f"{leaning}_{metric}"
        with open(os.path.join(out, f"gridsearch_{base}.json")) as handle:
            won = json.load(handle)
        spec = tuple(won["order"]) + tuple(won["seasonal"])
        score = next(float(r["score"]) for r in cands[base]
                     if tuple(int(r[k]) for k in "pdqPDQs") == spec)
        train = values[:int(np.floor(SPLIT * len(values)))]
        n_fit = int(np.floor((1.0 - VALIDATION_FRACTION) * len(train)))
        ratios.append(score / _persistence_one_step(train[:n_fit], train[n_fit:]))
    return ratios
