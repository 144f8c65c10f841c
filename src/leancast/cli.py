"""Command-line entry point.

Subcommands: ingest, run, gridsearch, simulate, report, each importing only
the layers it runs and taking only the flags it reads (:data:`COMMANDS`).
``load_config`` resolves a config and those flags into one frozen
:class:`Plan`, rejecting up front what could not run and building a
synthetic config's series; the commands only execute it, so reruns
produce byte-identical outputs.  ``report`` re-renders a ``rows.json``
instead.  Per-model randomness is derived from the global seed and a
stable "kind/leaning/metric" tag, which keeps individual fits
reproducible in isolation too, and lets ``run`` and ``gridsearch`` fit in
forked worker processes (:func:`_fork_map`) with the outputs of one process.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as dt
import itertools
import json
import os
import re
import sys
from dataclasses import dataclass

from . import ingest
from .series import DailySeries, chronological_split, generate_synthetic, is_number

DEFAULT_WINDOW = {"start": "2018-01-01", "end": "2018-04-30"}

_TOP_KEYS = {"posts_csv", "bias_csv", "synthetic", "window", "platform",
             "metrics", "leanings", "forecasters", "preset", "split_ratio",
             "seed", "out_dir"}
_POSTS_ONLY_KEYS = {"window", "platform", "metrics", "leanings"}
_NET_OVERRIDE_KEYS = ("epochs", "layers", "hidden", "learning_rate",
                      "batch_size", "dropout", "optimizer", "input_size")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PlannedFit:
    """One (metric, leaning, kind) cell of ``run``, ready to fit."""
    metric: str
    leaning: str | None
    kind: str
    tag: str                # "kind/leaning/metric", the seed's derivation tag
    seed: int
    config: object          # SarimaSpec or GridSpec (sarima), else NetworkConfig


@dataclass(frozen=True)
class Plan:
    """A config resolved with the command-line flags; see :func:`load_config`."""
    synthetic: DailySeries | None   # the series of a synthetic config
    posts_csv: str | None
    bias_csv: str | None
    window: tuple           # inclusive (start, end) dates
    platform: str | None    # None keeps every platform's posts
    metrics: list
    series: tuple           # (metric, leaning) per series, in run order
    split_ratio: float
    out_dir: str
    grid: object            # the sarima entry's GridSpec or None; gridsearch searches it
    fits: tuple             # PlannedFit per series and forecaster, in run order


def _reject_unknown(doc: dict, allowed: set, where: str):
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


def _reject_repeats(values, what: str):
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{what} listed more than once: {', '.join(map(str, repeated))}")


def _setting(doc: dict, key: str, flag: str, flag_value, default, ok, expected: str):
    """Flag over config key over default; a given value must satisfy ``ok``."""
    if key in doc and not ok(doc[key]):
        raise ConfigError(f"{key} must be {expected}, got {doc[key]!r}")
    if flag_value is None:
        return doc.get(key, default)
    if not ok(flag_value):
        raise ConfigError(f"{flag} must be {expected}, got {flag_value!r}")
    return flag_value


def load_config(path: str, seed: int | None = None, preset: str | None = None,
                out: str | None = None) -> Plan:
    """The config at ``path`` resolved into a :class:`Plan`, or ConfigError.
    ``seed``, ``preset`` and ``out`` are the flags, None when not given."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path} is not UTF-8: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")
    has_files = "posts_csv" in doc or "bias_csv" in doc
    if has_files == ("synthetic" in doc):
        raise ConfigError("config must name input files or a synthetic spec, "
                          "one but not both")
    if has_files and not ("posts_csv" in doc and "bias_csv" in doc):
        raise ConfigError("posts_csv and bias_csv must be given together")
    for key in ("posts_csv", "bias_csv"):
        if key in doc and (not isinstance(doc[key], str) or not doc[key]):
            raise ConfigError(f"{key} must be a file path, got {doc[key]!r}")
    window = _config_window(doc)
    seed = _setting(doc, "seed", "--seed", seed, 0,
                    lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
                    "a nonnegative integer")
    if preset is not None or "preset" in doc:
        from . import presets
        preset = _setting(doc, "preset", "--preset", preset, None,
                          lambda v: isinstance(v, str) and v in presets.PRESETS,
                          f"one of {', '.join(sorted(presets.PRESETS))}")
    out_dir = _setting(doc, "out_dir", "--out", out, "leancast_out",
                       lambda v: isinstance(v, str) and v != "", "a nonempty path")
    if "platform" in doc and doc["platform"] not in ingest.PLATFORMS:
        raise ConfigError(f"unknown platform {doc['platform']!r}; "
                          f"expected one of {', '.join(ingest.PLATFORMS)}")
    ratio = doc.get("split_ratio", 0.7)
    if not is_number(ratio):
        raise ConfigError(f"split_ratio must be a number, got {ratio!r}")
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split_ratio must lie in (0, 1), got {ratio}")
    for key in ("forecasters", "metrics", "leanings"):
        if not isinstance(doc.get(key, []), list):
            raise ConfigError(f"{key} must be a list, got {doc[key]!r}")
    metrics = doc.get("metrics", ["post_count"])
    leanings = doc.get("leanings", list(ingest.LEANINGS))
    for what, values, known in (("metric", metrics, ingest.INGEST_METRICS),
                                ("leaning", leanings, ingest.LEANINGS)):
        if not values:
            raise ConfigError(f"{what}s must name at least one {what}")
        for value in values:
            if value not in known:
                raise ConfigError(f"unknown {what} {value!r}")
        # each (kind, leaning, metric) is one report cell, so none may repeat
        _reject_repeats(values, what)
    unread = [] if has_files else sorted(_POSTS_ONLY_KEYS & set(doc))
    if unread:
        raise ConfigError(f"a synthetic config does not read {', '.join(unread)}")
    series = (tuple(itertools.product(metrics, leanings)) if has_files
              else (("synthetic", None),))
    fits, grid = (_plan_fits(doc["forecasters"], series, seed, preset)
                  if doc.get("forecasters") else ((), None))
    synthetic = None if has_files else _build_synthetic(doc["synthetic"], seed)
    return Plan(synthetic=synthetic, posts_csv=doc.get("posts_csv"),
                bias_csv=doc.get("bias_csv"), window=window,
                platform=doc.get("platform"), metrics=metrics,
                series=series, split_ratio=ratio, out_dir=out_dir,
                grid=grid, fits=fits)


def _plan_fits(entry_docs: list, series: tuple, seed: int, preset: str | None):
    """(PlannedFit per series and forecaster entry, the sarima entry's grid or None).
    Loads every fitting layer in the order the package once did: peak RSS follows it."""
    from . import sarima, forecasters, evaluation, presets, svgplot  # noqa: F401
    from .rng import derive_seed

    entries, grid = [], None
    for entry in entry_docs:
        if not isinstance(entry, dict):
            raise ConfigError(f"each forecaster must be an object, got {entry!r}")
        kind = entry.get("kind")
        if kind not in forecasters.KINDS:
            raise ConfigError(f"unknown forecaster kind {kind!r}")
        # a key the kind never reads would be dropped without a word
        _reject_unknown(entry, {"kind", "spec", "grid"} if kind == "sarima"
                        else {"kind", *_NET_OVERRIDE_KEYS}, f"{kind} forecaster")
        if kind == "sarima":
            try:
                # gridsearch reads the grid even when a spec is also given
                grid = sarima.GridSpec.from_doc(entry["grid"]) if "grid" in entry else None
                fixed = (sarima.SarimaSpec.from_orders(*_spec_orders(entry["spec"]))
                         if "spec" in entry else grid)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"forecaster sarima: {exc}") from None
            entries.append((kind, fixed))
        else:
            entries.append((kind, {k: entry[k] for k in _NET_OVERRIDE_KEYS if k in entry}))
    _reject_repeats([kind for kind, _ in entries], "forecaster kind")

    bundle = presets.PRESETS.get(preset)
    make_network = forecasters.default_network_config if bundle is None else bundle.network_config
    fits = []
    for (metric, leaning), (kind, resolved) in itertools.product(series, entries):
        tag = f"{kind}/{leaning or 'series'}/{metric}"
        fit_seed = derive_seed(seed, tag)
        if kind == "sarima":
            config = (resolved or (bundle and bundle.sarima_spec(leaning))
                      or presets.FALLBACK_GRID)
        else:
            try:
                config = make_network(kind, seed=fit_seed, **resolved)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"forecaster {kind}: {exc}") from None
        fits.append(PlannedFit(metric, leaning, kind, tag, fit_seed, config))
    return tuple(fits), grid


def _build_synthetic(synth, seed: int) -> DailySeries:
    """The series of a synthetic block: the block's JSON forms are checked
    here, every other synthetic rule by ``generate_synthetic``."""
    if not isinstance(synth, dict):
        raise ConfigError(f"synthetic must be an object, got {synth!r}")
    missing = [key for key in ("kind", "n") if key not in synth]
    if missing:
        raise ConfigError(f"synthetic block must name {' and '.join(missing)}")
    # spec and params are objects, which a config gives as the model document
    _reject_unknown(synth, set(synth) - {"spec", "params"}, "synthetic")
    args = dict(synth)
    if "start_date" in args:
        try:
            args["start_date"] = _iso_date(args["start_date"])
        except (TypeError, ValueError):
            raise ConfigError(f"synthetic start_date must be an ISO date, "
                              f"got {args['start_date']!r}") from None
    if args["kind"] == "seasonal_sarima":
        if "model" not in args:
            raise ConfigError("synthetic kind seasonal_sarima needs a model")
        from . import sarima
        try:
            args["spec"], args["params"] = sarima.from_doc(args.pop("model"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"synthetic model: {exc}") from None
    from .rng import derive_seed
    try:
        return generate_synthetic(seed=derive_seed(seed, "synthetic"), **args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _iso_date(text) -> dt.date:
    """A YYYY-MM-DD date.  Python 3.11+ ``date.fromisoformat`` also reads
    forms such as "20180102" and "2018-W01-1", which 3.10 rejects, so they
    are rejected here on every Python (ValueError, or TypeError for a non-string)."""
    if isinstance(text, str) and not re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return dt.date.fromisoformat(text)


def _config_window(doc: dict):
    """The (start, end) dates of the config's window, checked."""
    win = doc.get("window", DEFAULT_WINDOW)
    if not isinstance(win, dict):
        raise ConfigError(f"window must be an object with start and end dates, got {win!r}")
    _reject_unknown(win, {"start", "end"}, "window")
    try:
        start, end = (_iso_date(win.get(key)) for key in ("start", "end"))
    except (TypeError, ValueError):
        raise ConfigError(f"window needs ISO dates start and end, got {win!r}") from None
    if start > end:
        raise ConfigError(f"empty date window: {start} > {end}")
    return start, end


def _spec_orders(doc: dict) -> tuple:
    if not isinstance(doc, dict):
        raise ConfigError(f"spec must be an object, got {doc!r}")
    _reject_unknown(doc, {"order", "seasonal"}, "spec")
    return doc.get("order", [0, 0, 0]), doc.get("seasonal", [0, 0, 0, 0])


def _ingest_posts(plan: Plan):
    """(summary, platform, {metric: {leaning: DailySeries}}) of the plan's
    posts after the platform filter, from one labelling pass."""
    posts = ingest.read_posts_csv(plan.posts_csv)
    table = ingest.read_bias_csv(plan.bias_csv)
    if plan.platform is not None:
        posts = posts.select(posts.platform == plan.platform)
    if not posts:
        raise ConfigError("no posts to ingest (empty file or platform filter)")
    return ingest.aggregate(posts, table, plan.window, plan.metrics)


def _gather_series(plan: Plan):
    """(series, {(metric, leaning): SplitPair}, platform), before any output."""
    if plan.synthetic is not None:
        platform = "synthetic"
        series_list = [("synthetic", None, plan.synthetic)]
    elif "sentiment_mean" in plan.metrics:
        raise ConfigError("metric sentiment_mean is undefined on days without posts, "
                          "so it cannot be fitted; only ingest writes it")
    else:
        _, platform, by_metric = _ingest_posts(plan)
        series_list = [(m, l, by_metric[m][l]) for m, l in plan.series]
    splits = {(m, l): chronological_split(s, plan.split_ratio) for m, l, s in series_list}
    return series_list, splits, platform


# -- subcommands -----------------------------------------------------------


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def cmd_ingest(plan: Plan) -> int:
    if plan.synthetic is not None:
        raise ConfigError("ingest needs posts_csv and bias_csv, not a synthetic spec")
    # compute everything first so a failure writes nothing
    summary, _, outputs = _ingest_posts(plan)
    out = plan.out_dir
    os.makedirs(out, exist_ok=True)
    for metric, by_leaning in outputs.items():
        ingest.write_series_csv(by_leaning, os.path.join(out, f"series_{metric}.csv"))
    _write(os.path.join(out, "summary.json"), summary.to_json())
    print(f"ingested {summary.total_posts} posts "
          f"({summary.labeled_posts} labeled) into {out}")
    return 0


def cmd_run(plan: Plan, fmt: str) -> int:
    if not plan.fits:
        raise ConfigError("config names no forecasters")
    from . import evaluation, forecasters, svgplot
    series_list, splits, platform = _gather_series(plan)
    out = plan.out_dir
    models_dir = os.path.join(out, "models")
    plots_dir = os.path.join(out, "plots")
    os.makedirs(models_dir, exist_ok=True)
    os.makedirs(plots_dir, exist_ok=True)

    jobs = [(fit, splits[fit.metric, fit.leaning]) for fit in plan.fits]
    outcomes = _fork_map(_fit_one, jobs, [_expected_work(fit, len(split.train.values))
                                          for fit, split in jobs])
    # evaluation runs here, after every worker has gone, so its threaded
    # BLAS calls never compete with a fit; each model is scored, written
    # and dropped in turn
    rows_by_metric = {}
    failures = []
    for index, (fit, split) in enumerate(jobs):
        outcome, outcomes[index] = outcomes[index], None
        if isinstance(outcome, str):
            failures.append(outcome)
            continue
        try:
            row = evaluation.evaluate(outcome, split, leaning=fit.leaning, metric=fit.metric)
        except (ValueError, RuntimeError) as exc:
            failures.append(f"{fit.tag}: {exc}")
            continue
        rows_by_metric.setdefault(fit.metric, []).append(row)
        name = f"{fit.kind}_{fit.leaning or 'series'}_{fit.metric}.json"
        _write(os.path.join(models_dir, name), forecasters.forecaster_to_json(outcome))

    tables = [evaluation.ReportTable(platform=platform, metric=metric, rows=rows)
              for metric, rows in sorted(rows_by_metric.items())]
    report_csv = evaluation.render_report_csv(tables)
    report_text = evaluation.render_report_text(tables)
    if failures:
        report_text += "\nfailed fits:\n" + "\n".join(
            f"  {line}" for line in failures) + "\n"
    _write(os.path.join(out, "report.csv"), report_csv)
    _write(os.path.join(out, "report.txt"), report_text)
    _write(os.path.join(out, "rows.json"), evaluation.rows_to_json(tables))
    failures_path = os.path.join(out, "failures.txt")
    if failures:
        _write(failures_path, "\n".join(failures) + "\n")
    elif os.path.exists(failures_path):
        os.remove(failures_path)    # an earlier run's, which this report replaces

    by_metric = {}
    for metric, leaning, series in series_list:
        by_metric.setdefault(metric, []).append(series)
    for metric, group in sorted(by_metric.items()):
        svg = svgplot.emit_plot(group, title=f"{platform} {metric}")
        _write(os.path.join(plots_dir, f"series_{metric}.svg"), svg)

    print(report_text if fmt == "text" else report_csv, end="")
    if failures:
        print(f"{len(failures)} fit(s) failed; see failures.txt", file=sys.stderr)
        return 1
    return 0


def _expected_work(fit: PlannedFit, n_train: int) -> float:
    """A fit's expected cost, which orders the fit queue: a network's epochs
    x mini-batches per epoch x layers x steps per window, which tracked
    measured fit time within about 2x across the four kinds.  SARIMA ranks
    above every network, since a grid search can take seconds."""
    if fit.kind == "sarima":
        return float("inf")
    from . import forecasters
    config = fit.config
    lookback, horizon = forecasters.kind_lookback(fit.kind), forecasters.kind_horizon(fit.kind)
    windows = max(n_train - lookback - horizon + 1, 0)
    batches = -(-windows // (config.batch_size or max(windows, 1)))
    return config.epochs * batches * config.layers * ((lookback + horizon - 1) // config.input_size)


def _fit_one(fit: PlannedFit, split):
    """One fit's outcome: its failure line (numpy refusing its arrays too),
    or the fitted forecaster (a network pickles as config, layout and theta
    bytes)."""
    from . import evaluation, forecasters
    try:
        evaluation.require_test_points(fit.kind, len(split.test.values))
        return forecasters.fit_forecaster(fit.kind, split, fit.config, seed=fit.seed)
    except (ValueError, RuntimeError, MemoryError) as exc:
        return f"{fit.tag}: {exc}"


def _run_worker(take, pipe: int):
    """A worker's whole life: send the (index, result) pairs ``take`` yields,
    or the traceback of what it raised, down ``pipe`` in one pickle, and
    leave through ``os._exit``, which flushes no stdout buffer and runs no
    ``finally`` block of the parent's."""
    import pickle
    import signal
    import traceback
    try:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        try:
            message = list(take())
        except Exception:
            message = traceback.format_exc()
        with open(pipe, "wb") as handle:
            pickle.dump(message, handle)
        os._exit(0)
    finally:
        os._exit(1)


def _fork_map(work, items: list, costs: list) -> list:
    """``[work(*item) for item in items]``, computed by this process and one
    forked worker per further CPU it may use (none without ``os.fork``).

    Every process takes items from one queue pipe of 4-byte indices, highest
    cost first (LPT, Graham 1969), item order breaking ties; a 4-byte pipe
    read is atomic, so each item goes to exactly one process.  A worker's
    results are pickled once and this process keeps its own, so ``work``
    must give the same result anywhere.  A worker that raises or dies
    raises ChildProcessError here; every worker is killed and reaped on the
    way out, whatever ends the call."""
    import pickle
    import signal
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    forks = min(cpus, len(items)) - 1 if hasattr(os, "fork") else 0
    queue, feed = os.pipe()
    # a command has at most metrics x leanings x kinds items: far below a pipe's buffer
    os.write(feed, b"".join(index.to_bytes(4, "little") for index in
                            sorted(range(len(items)), key=lambda i: (-costs[i], i))))
    os.close(feed)

    def take():
        while chunk := os.read(queue, 4):
            index = int.from_bytes(chunk, "little")
            yield index, work(*items[index])

    workers = {}    # pid -> read end of its results pipe
    try:
        for _ in range(forks):
            read, write = os.pipe()
            # SIGINT waits until the worker is recorded for the cleanup below,
            # and in the worker until it is inside the block that ends in _exit
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _run_worker(take, write)
                workers[pid] = read
            finally:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
            os.close(write)
        results = dict(take())
        for pid in list(workers):
            with open(workers[pid], "rb", closefd=False) as handle:
                message = handle.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])  # -N: killed by signal N
            os.close(workers.pop(pid))
            if code:
                ended = (f"died from signal {-code} ({signal.strsignal(-code)})" if code < 0
                         else f"exited with status {code}")
                raise ChildProcessError(f"fit worker {pid} {ended} before it sent its results")
            sent = pickle.loads(message)
            if isinstance(sent, str):
                raise ChildProcessError(f"fit worker {pid} failed:\n{sent.rstrip()}")
            results.update(sent)
    finally:
        for pid, read in workers.items():
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(queue)
    return [results[index] for index in range(len(items))]


def _search_one(train, grid):
    """The grid search of one training series, or the message of its
    GridSearchError, which a pickle could not rebuild."""
    from . import sarima
    try:
        return sarima.grid_search(train, grid)
    except sarima.GridSearchError as exc:
        return str(exc)


def cmd_gridsearch(plan: Plan) -> int:
    if plan.grid is None:
        raise ConfigError('gridsearch needs exactly one forecaster entry of '
                          'kind "sarima" with a "grid"')
    from . import sarima
    _, splits, _ = _gather_series(plan)
    # search every series before writing, so a failure writes nothing
    jobs = [(split.train.values, plan.grid) for split in splits.values()]
    results = _fork_map(_search_one, jobs, [len(train) for train, _ in jobs])
    for (metric, leaning), result in zip(splits, results):
        if isinstance(result, str):
            raise ConfigError(f"{leaning or 'series'}/{metric}: {result}")
    os.makedirs(plan.out_dir, exist_ok=True)
    for (metric, leaning), result in zip(splits, results):
        base = f"{leaning or 'series'}_{metric}"
        doc = sarima.to_doc(result.spec, result.fit.params)
        _write(os.path.join(plan.out_dir, f"gridsearch_{base}.json"),
               json.dumps(doc, sort_keys=True) + "\n")
        lines = ["p,d,q,P,D,Q,s,score,converged,error"]
        for cand in result.candidates:
            score = "" if cand.score is None else repr(cand.score)
            converged = "" if cand.converged is None else str(cand.converged).lower()
            err = (cand.error or "").replace(",", ";").replace("\n", " ")
            lines.append(",".join([*map(str, cand.spec.as_tuple()), score, converged, err]))
        _write(os.path.join(plan.out_dir, f"candidates_{base}.csv"), "\n".join(lines) + "\n")
        print(f"{base}: best spec {result.spec.as_tuple()}")
    return 0


def cmd_simulate(plan: Plan) -> int:
    if plan.synthetic is None:
        raise ConfigError("simulate needs a synthetic spec in the config")
    os.makedirs(plan.out_dir, exist_ok=True)
    path = os.path.join(plan.out_dir, "simulated.csv")
    ingest.write_value_series_csv(plan.synthetic, path)
    print(f"wrote {len(plan.synthetic)} values to {path}")
    return 0


def cmd_report(rows_path: str, out: str | None, fmt: str) -> int:
    from . import evaluation
    rendered = evaluation.render_report(evaluation.rows_from_json(rows_path), fmt)
    if out:
        os.makedirs(out, exist_ok=True)
        ext = "csv" if fmt == "csv" else "txt"
        path = os.path.join(out, f"report.{ext}")
        _write(path, rendered)
        print(f"wrote {path}")
    else:
        print(rendered, end="")
    return 0


FLAGS = {
    "--seed": {"type": int, "help": "global seed (overrides the config)"},
    "--preset": {"help": "named hyperparameter bundle, e.g. twitter-posts"},
    "--format": {"choices": ["csv", "text"], "default": "csv"},
}

# name -> (function, help, the flags it reads besides --config and --out)
COMMANDS = {
    "ingest": (cmd_ingest, "parse posts, label leanings, write daily series", ()),
    "run": (cmd_run, "fit and evaluate all configured forecasters",
            ("--seed", "--preset", "--format")),
    "gridsearch": (cmd_gridsearch, "search SARIMA orders on the training half", ("--seed",)),
    "simulate": (cmd_simulate, "generate a synthetic series CSV", ("--seed",)),
    "report": (cmd_report, "re-render a saved rows.json", ("--format",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leancast",
        description="Daily political-leaning series and forecasting models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to the JSON run config")
        cmd.add_argument("--out", help="output directory")
        for flag in flags:
            cmd.add_argument(flag, **FLAGS[flag])
        cmd.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    flags = vars(build_parser().parse_args(argv))
    command, func, config = flags.pop("command"), flags.pop("func"), flags.pop("config")
    fmt = flags.pop("format", None)
    try:
        if not config:
            raise ConfigError(f"{command} needs --config <path>")
        if command == "report":
            return func(config, flags["out"], fmt)
        plan = load_config(config, **flags)     # the command's --seed, --preset, --out
        return func(plan) if fmt is None else func(plan, fmt)
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console():
    """The ``leancast`` command: :func:`main`, then, once stdout and stderr are
    flushed, ``os._exit`` as a fit worker leaves, skipping the interpreter's
    teardown and ``atexit``; ``main`` has closed every output file.  A flush
    that fails (a closed pipe or stream) is one ``error:`` line on stderr,
    if stderr takes it, and exit status 1, as when ``main``'s own print
    fails.  An exception from ``main`` takes the normal way out."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError) as exc:
        code = 1
        with contextlib.suppress(AttributeError, OSError, ValueError):   # no stderr to take it
            sys.stderr.write(f"error: {exc}\n")
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console()
