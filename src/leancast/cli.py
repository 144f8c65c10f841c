"""Command-line entry point.

Subcommands: ingest, run, gridsearch, simulate, report.  Every command is
a pure function of its config file and inputs plus the global seed, so
reruns produce byte-identical outputs.  Per-model randomness is derived
from the global seed and a stable "kind/leaning/metric" tag, which keeps
individual fits reproducible in isolation too.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import sys

from . import evaluation, forecasters, ingest, presets, sarima, svgplot
from .evaluation import EvalRow, ReportTable
from .forecasters import default_network_config, fit_forecaster, forecaster_to_json
from .rng import derive_seed
from .sarima import GridSpec, SarimaSpec
from .series import chronological_split, generate_synthetic

DEFAULT_WINDOW = {"start": "2018-01-01", "end": "2018-04-30"}

_TOP_KEYS = {"posts_csv", "bias_csv", "synthetic", "window", "platform",
             "metrics", "leanings", "forecasters", "preset", "split_ratio",
             "seed", "out_dir"}
_SYNTH_KEYS = {"kind", "n", "alpha", "sigma", "period", "amplitude",
               "noise_sigma", "model", "start_date"}
_FORECASTER_KEYS = {"kind", "spec", "grid", "epochs", "layers", "hidden",
                    "learning_rate", "batch_size", "dropout", "optimizer",
                    "input_size"}
_NET_OVERRIDE_KEYS = ("epochs", "layers", "hidden", "learning_rate",
                      "batch_size", "dropout", "optimizer", "input_size")


class ConfigError(ValueError):
    pass


def _reject_unknown(doc: dict, allowed: set, where: str):
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


def _reject_repeats(values, what: str):
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{what} listed more than once: {', '.join(map(str, repeated))}")


def load_config(path: str) -> dict:
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")
    has_files = "posts_csv" in doc or "bias_csv" in doc
    has_synth = "synthetic" in doc
    if has_files and has_synth:
        raise ConfigError("config must name input files or a synthetic spec, not both")
    if has_files and not ("posts_csv" in doc and "bias_csv" in doc):
        raise ConfigError("posts_csv and bias_csv must be given together")
    if has_synth:
        synth = doc["synthetic"]
        if not isinstance(synth, dict):
            raise ConfigError(f"synthetic must be an object, got {synth!r}")
        _reject_unknown(synth, _SYNTH_KEYS, "synthetic")
        missing = [key for key in ("kind", "n") if key not in synth]
        if missing:
            raise ConfigError(f"synthetic block must name {' and '.join(missing)}")
        if isinstance(synth["n"], bool) or not isinstance(synth["n"], int):
            raise ConfigError(f"synthetic n must be an integer, got {synth['n']!r}")
    _config_window(doc)
    seed = doc.get("seed", 0)
    # a negative seed would fail later, in numpy's seed sequence
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    if "platform" in doc and doc["platform"] not in ingest.PLATFORMS:
        raise ConfigError(f"unknown platform {doc['platform']!r}; "
                          f"expected one of {', '.join(ingest.PLATFORMS)}")
    ratio = doc.get("split_ratio", 0.7)
    if isinstance(ratio, bool) or not isinstance(ratio, (int, float)):
        raise ConfigError(f"split_ratio must be a number, got {ratio!r}")
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split_ratio must lie in (0, 1), got {ratio}")
    for key in ("forecasters", "metrics", "leanings"):
        if not isinstance(doc.get(key, []), list):
            raise ConfigError(f"{key} must be a list, got {doc[key]!r}")
    for entry in doc.get("forecasters", []):
        if not isinstance(entry, dict):
            raise ConfigError(f"each forecaster must be an object, got {entry!r}")
        _reject_unknown(entry, _FORECASTER_KEYS, "forecaster")
        if entry.get("kind") not in forecasters.KINDS:
            raise ConfigError(f"unknown forecaster kind {entry.get('kind')!r}")
        try:
            if entry["kind"] == "sarima":
                # gridsearch reads the grid even when a spec is also given
                _spec_from_doc(entry.get("spec", {}))
                GridSpec.from_json(entry.get("grid", {}))
            else:
                _resolve_forecaster_config(entry, None, None, 0)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"forecaster {entry['kind']}: {exc}") from None
    for metric in doc.get("metrics", []):
        if metric not in ingest.INGEST_METRICS:
            raise ConfigError(f"unknown metric {metric!r}")
    for leaning in doc.get("leanings", []):
        if leaning not in ingest.LEANINGS:
            raise ConfigError(f"unknown leaning {leaning!r}")
    # each (kind, leaning, metric) is one report cell, so none may repeat
    _reject_repeats([e["kind"] for e in doc.get("forecasters", [])], "forecaster kind")
    _reject_repeats(doc.get("metrics", []), "metric")
    _reject_repeats(doc.get("leanings", []), "leaning")
    return doc


def _config_window(doc: dict):
    """The (start, end) dates of the config's window, checked."""
    win = doc.get("window", DEFAULT_WINDOW)
    if not isinstance(win, dict):
        raise ConfigError(f"window must be an object with start and end dates, got {win!r}")
    _reject_unknown(win, {"start", "end"}, "window")
    try:
        start, end = (dt.date.fromisoformat(win.get(key)) for key in ("start", "end"))
    except (TypeError, ValueError):
        raise ConfigError(f"window needs ISO dates start and end, got {win!r}") from None
    if start > end:
        raise ConfigError(f"empty date window: {start} > {end}")
    return start, end


def _spec_from_doc(doc: dict) -> SarimaSpec:
    if not isinstance(doc, dict):
        raise ConfigError(f"spec must be an object, got {doc!r}")
    _reject_unknown(doc, {"order", "seasonal"}, "spec")
    order = doc.get("order", [0, 0, 0])
    seasonal = doc.get("seasonal", [0, 0, 0, 0])
    if not isinstance(order, list) or len(order) != 3:
        raise ConfigError(f"spec order must be [p, d, q], got {order!r}")
    if not isinstance(seasonal, list) or len(seasonal) != 4:
        raise ConfigError(f"spec seasonal must be [P, D, Q, s], got {seasonal!r}")
    return SarimaSpec(p=order[0], d=order[1], q=order[2],
                      P=seasonal[0], D=seasonal[1], Q=seasonal[2], s=seasonal[3])


def _build_synthetic(doc: dict, seed: int):
    synth = dict(doc["synthetic"])
    kind = synth.pop("kind")
    n = synth.pop("n")
    if "start_date" in synth:
        synth["start_date"] = dt.date.fromisoformat(synth.pop("start_date"))
    if kind == "seasonal_sarima":
        spec, params = sarima.from_json(json.dumps(synth.pop("model")))
        synth["spec"] = spec
        synth["params"] = params
    return generate_synthetic(kind, n, seed, **synth)


def _ingest_posts(doc: dict):
    """(summary, platform, {metric: {leaning: DailySeries}}) of the config's
    posts after the platform filter, from one labelling pass."""
    posts = ingest.read_posts_csv(doc["posts_csv"])
    table = ingest.read_bias_csv(doc["bias_csv"])
    if "platform" in doc:
        posts = [p for p in posts if p.platform == doc["platform"]]
    if not posts:
        raise ConfigError("no posts to ingest (empty file or platform filter)")
    return ingest.aggregate(posts, table, _config_window(doc),
                            doc.get("metrics", ["post_count"]))


def _gather_series(doc: dict, seed: int):
    """Yield (metric, leaning, DailySeries) for everything the config names."""
    if "synthetic" in doc:
        series = _build_synthetic(doc, derive_seed(seed, "synthetic"))
        return [("synthetic", None, series)], "synthetic"
    if "sentiment_mean" in doc.get("metrics", []):
        raise ConfigError("metric sentiment_mean is undefined on days without posts, "
                          "so it cannot be fitted; only ingest writes it")
    _, platform, by_metric = _ingest_posts(doc)
    leanings = doc.get("leanings", list(ingest.LEANINGS))
    out = [(metric, leaning, by_leaning[leaning])
           for metric, by_leaning in by_metric.items() for leaning in leanings]
    return out, platform


def _resolve_forecaster_config(entry: dict, bundle, leaning, kind_seed: int):
    kind = entry["kind"]
    if kind == "sarima":
        if "spec" in entry:
            return _spec_from_doc(entry["spec"])
        if "grid" in entry:
            return GridSpec.from_json(entry["grid"])
        if bundle is not None:
            spec = bundle.sarima_spec(leaning)
            if spec is not None:
                return spec
        return presets.FALLBACK_GRID
    overrides = {k: entry[k] for k in _NET_OVERRIDE_KEYS if k in entry}
    if bundle is not None:
        return bundle.network_config(kind, seed=kind_seed, **overrides)
    return default_network_config(kind, seed=kind_seed, **overrides)


def _global_seed(args, doc: dict) -> int:
    return args.seed if args.seed is not None else doc.get("seed", 0)


def _out_dir(args, doc: dict) -> str:
    out = args.out or doc.get("out_dir") or "leancast_out"
    os.makedirs(out, exist_ok=True)
    return out


def _require_config(args) -> dict:
    if not args.config:
        raise ConfigError("this command needs --config <path>")
    return load_config(args.config)


# -- subcommands -----------------------------------------------------------


def cmd_ingest(args) -> int:
    doc = _require_config(args)
    if "synthetic" in doc:
        raise ConfigError("ingest needs posts_csv and bias_csv, not a synthetic spec")
    # compute everything first so a failure writes nothing
    summary, _, outputs = _ingest_posts(doc)
    out = _out_dir(args, doc)
    for metric, by_leaning in outputs.items():
        ingest.write_series_csv(by_leaning, os.path.join(out, f"series_{metric}.csv"))
    with open(os.path.join(out, "summary.json"), "w") as handle:
        handle.write(summary.to_json())
    print(f"ingested {summary.total_posts} posts "
          f"({summary.labeled_posts} labeled) into {out}")
    return 0


def cmd_run(args) -> int:
    doc = _require_config(args)
    seed = _global_seed(args, doc)
    preset_name = args.preset or doc.get("preset")
    bundle = presets.get_preset(preset_name) if preset_name else None
    entries = doc.get("forecasters")
    if not entries:
        raise ConfigError("config names no forecasters")
    # build the series before creating anything, so a failure writes nothing
    series_list, platform = _gather_series(doc, seed)
    out = _out_dir(args, doc)
    ratio = doc.get("split_ratio", 0.7)

    models_dir = os.path.join(out, "models")
    plots_dir = os.path.join(out, "plots")
    os.makedirs(models_dir, exist_ok=True)
    os.makedirs(plots_dir, exist_ok=True)

    rows_by_metric = {}
    failures = []
    for metric, leaning, series in series_list:
        split = chronological_split(series, ratio)
        for entry in entries:
            kind = entry["kind"]
            tag = f"{kind}/{leaning or 'series'}/{metric}"
            kind_seed = derive_seed(seed, tag)
            try:
                evaluation.require_test_points(kind, len(split.test.values))
                config = _resolve_forecaster_config(entry, bundle, leaning, kind_seed)
                model = fit_forecaster(kind, split, config, seed=kind_seed)
                row = evaluation.evaluate(model, split, leaning=leaning, metric=metric)
            except (ValueError, RuntimeError) as exc:
                failures.append(f"{tag}: {exc}")
                continue
            rows_by_metric.setdefault(metric, []).append(row)
            name = f"{kind}_{leaning or 'series'}_{metric}.json"
            with open(os.path.join(models_dir, name), "w") as handle:
                handle.write(forecaster_to_json(model))

    tables = [ReportTable(platform=platform, metric=metric, rows=rows)
              for metric, rows in sorted(rows_by_metric.items())]
    report_csv = evaluation.render_report_csv(tables)
    report_text = evaluation.render_report_text(tables)
    if failures:
        report_text += "\nfailed fits:\n" + "\n".join(
            f"  {line}" for line in failures) + "\n"
    with open(os.path.join(out, "report.csv"), "w") as handle:
        handle.write(report_csv)
    with open(os.path.join(out, "report.txt"), "w") as handle:
        handle.write(report_text)
    with open(os.path.join(out, "rows.json"), "w") as handle:
        handle.write(_rows_to_json(tables))
    if failures:
        with open(os.path.join(out, "failures.txt"), "w") as handle:
            handle.write("\n".join(failures) + "\n")

    by_metric = {}
    for metric, leaning, series in series_list:
        by_metric.setdefault(metric, []).append(series)
    for metric, group in sorted(by_metric.items()):
        labels = [s.leaning or metric for s in group]
        svg = svgplot.emit_plot(group, labels=labels, title=f"{platform} {metric}")
        with open(os.path.join(plots_dir, f"series_{metric}.svg"), "w") as handle:
            handle.write(svg)

    print(report_text if args.format == "text" else report_csv, end="")
    if failures:
        print(f"{len(failures)} fit(s) failed; see failures.txt", file=sys.stderr)
        return 1
    return 0


def _rows_to_json(tables) -> str:
    doc = {"tables": [
        {"platform": t.platform, "metric": t.metric,
         "rows": [{"model": r.model, "leaning": r.leaning, "metric": r.metric,
                   "train_rmse": r.train_rmse, "test_rmse": r.test_rmse,
                   "per_step_rmse": list(r.per_step_rmse) if r.per_step_rmse else None}
                  for r in t.rows]}
        for t in tables]}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _rows_from_json(text: str):
    doc = json.loads(text)
    tables = []
    for t in doc["tables"]:
        rows = [EvalRow(r["model"], r["leaning"], r["metric"], r["train_rmse"],
                        r["test_rmse"],
                        tuple(r["per_step_rmse"]) if r["per_step_rmse"] else None)
                for r in t["rows"]]
        tables.append(ReportTable(platform=t["platform"], metric=t["metric"], rows=rows))
    return tables


def cmd_gridsearch(args) -> int:
    doc = _require_config(args)
    seed = _global_seed(args, doc)
    grid_entries = [e for e in doc.get("forecasters", [])
                    if e["kind"] == "sarima" and "grid" in e]
    if len(grid_entries) != 1:
        raise ConfigError('gridsearch needs exactly one forecaster entry of '
                          'kind "sarima" with a "grid"')
    grid = GridSpec.from_json(grid_entries[0]["grid"])
    series_list, _ = _gather_series(doc, seed)
    out = _out_dir(args, doc)
    ratio = doc.get("split_ratio", 0.7)
    for metric, leaning, series in series_list:
        split = chronological_split(series, ratio)
        tag = f"gridsearch/{leaning or 'series'}/{metric}"
        result = sarima.grid_search(split.train.values, grid,
                                    seed=derive_seed(seed, tag))
        base = f"{leaning or 'series'}_{metric}"
        with open(os.path.join(out, f"gridsearch_{base}.json"), "w") as handle:
            handle.write(sarima.to_json(result.spec, result.fit.params) + "\n")
        with open(os.path.join(out, f"candidates_{base}.csv"), "w") as handle:
            handle.write("p,d,q,P,D,Q,s,score,error\n")
            for cand in result.candidates:
                spec = cand.spec
                score = "" if cand.score is None else repr(cand.score)
                err = (cand.error or "").replace(",", ";").replace("\n", " ")
                handle.write(f"{spec.p},{spec.d},{spec.q},{spec.P},{spec.D},"
                             f"{spec.Q},{spec.s},{score},{err}\n")
        print(f"{base}: best spec {result.spec.as_tuple()}")
    return 0


def cmd_simulate(args) -> int:
    doc = _require_config(args)
    if "synthetic" not in doc:
        raise ConfigError("simulate needs a synthetic spec in the config")
    seed = _global_seed(args, doc)
    series = _build_synthetic(doc, seed)
    out = _out_dir(args, doc)
    path = os.path.join(out, "simulated.csv")
    ingest.write_value_series_csv(series, path)
    print(f"wrote {len(series)} values to {path}")
    return 0


def cmd_report(args) -> int:
    if not args.config:
        raise ConfigError("report needs --config pointing at a rows.json file")
    with open(args.config) as handle:
        tables = _rows_from_json(handle.read())
    rendered = evaluation.render_report(tables, args.format)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        ext = "csv" if args.format == "csv" else "txt"
        path = os.path.join(args.out, f"report.{ext}")
        with open(path, "w") as handle:
            handle.write(rendered)
        print(f"wrote {path}")
    else:
        print(rendered, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leancast",
        description="Daily political-leaning series and forecasting models.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "ingest": (cmd_ingest, "parse posts, label leanings, write daily series"),
        "run": (cmd_run, "fit and evaluate all configured forecasters"),
        "gridsearch": (cmd_gridsearch, "search SARIMA orders on the training half"),
        "simulate": (cmd_simulate, "generate a synthetic series CSV"),
        "report": (cmd_report, "re-render a saved rows.json"),
    }
    for name, (fn, help_text) in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to the JSON run config")
        cmd.add_argument("--seed", type=int, default=None,
                         help="global seed (overrides the config)")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--preset", default=None,
                         help="named hyperparameter bundle, e.g. twitter-posts")
        cmd.add_argument("--format", choices=["csv", "text"], default="csv")
        cmd.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, KeyError, OSError, sarima.GridSearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
