"""Run the leancast CLI with spans recorded around each layer's public
functions.

    python3 perfbench/trace_cli.py SPANS.npz EXEC_ID -- <leancast arguments>

Every call to a wrapped function records a span: its name, start, end and
the span that was open when it began.  Spans stay in memory and are saved
to SPANS.npz, tagged with EXEC_ID, when the command returns.  A few wrapped
functions also count outcomes (converged fits, clipped gradients, rows per
inference call).  leancast itself is unchanged: functions are wrapped from
outside, at the name each caller looks them up by.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from leancast import (cli, evaluation, forecasters, ingest, neural, optim,  # noqa: E402
                      sarima, series, simplex, svgplot)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = []
        self.start = []
        self.end = []
        self.parent = []
        self.open = [-1]
        self.counters = {}

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def count(self, name: str, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, outcome=None, name_for=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``outcome(args, kwargs, result)`` may add counts after a call;
        ``name_for(args, kwargs)`` may pick another span name per call.
        """
        index = self._name_index(name)
        clock = time.perf_counter
        name_of, start, end, parent, open_ = (self.name_of, self.start, self.end,
                                              self.parent, self.open)

        def traced(*args, **kwargs):
            span = len(start)
            name_of.append(index if name_for is None
                           else self._name_index(name_for(args, kwargs)))
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                open_.pop()
            if outcome is not None:
                outcome(args, kwargs, result)
            return result

        return traced

    def save(self, path: str, exec_id: str):
        np.savez(path, name_of=np.array(self.name_of, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int32),
                 meta=np.array(json.dumps({"exec_id": exec_id, "names": self.names,
                                           "counters": self.counters})))


def install(tracer: Tracer):
    """Wrap the public functions of every measured layer in place."""
    def module_fn(module, attr, also=(), **kw):
        """Wrap module.attr as span "<module>.<attr>", also where ``also``
        names other modules that bound it with ``from ... import``."""
        layer = module.__name__.rsplit(".", 1)[-1]
        wrapped = tracer.wrap(f"{layer}.{attr}", getattr(module, attr), **kw)
        for target, name in [(module, attr), *also]:
            setattr(target, name, wrapped)

    for attr in ("extract_domain", "label_post", "read_posts_csv", "read_bias_csv",
                 "aggregate_daily", "daily_mean_sentiment", "summarize",
                 "write_series_csv"):
        module_fn(ingest, attr)

    def fit_outcome(args, kwargs, result):
        tracer.count("sarima.fit.converged", int(result.converged))

    def nm_outcome(args, kwargs, result):
        tracer.count("simplex.nelder_mead.converged", int(result[2]))

    for attr in ("css_residuals", "forecast", "rolling_test_rmse", "grid_search",
                 "difference"):
        module_fn(sarima, attr)
    module_fn(sarima, "fit", outcome=fit_outcome)
    module_fn(simplex, "nelder_mead", also=[(sarima, "nelder_mead")], outcome=nm_outcome)

    def clip_outcome(args, kwargs, result):
        tracer.count("optim.clip_global_norm.active", int(result is not args[0]))

    module_fn(optim, "optimizer_step")
    module_fn(optim, "clip_global_norm", outcome=clip_outcome)
    module_fn(neural, "train")
    module_fn(series, "make_windows",
              also=[(forecasters, "make_windows"), (evaluation, "make_windows")])

    def training(args, kwargs):
        return bool(kwargs.get("training", args[2] if len(args) > 2 else False))

    def forward_outcome(args, kwargs, result):
        if not training(args, kwargs):
            tracer.count("neural.forward.infer.rows", result[0].shape[0])

    net = neural.RecurrentNetwork
    net.forward = tracer.wrap(
        "neural.forward.infer", net.forward, outcome=forward_outcome,
        name_for=lambda a, k: "neural.forward.train" if training(a, k) else "neural.forward.infer")
    net.backward = tracer.wrap("neural.backward", net.backward)

    module_fn(forecasters, "train_multistep_teacher_forced")
    module_fn(forecasters, "predict_next", also=[(evaluation, "predict_next")])
    module_fn(forecasters, "decode_multistep")
    module_fn(forecasters, "forecast_multistep", also=[(evaluation, "forecast_multistep")])
    module_fn(forecasters, "fit_forecaster", also=[(cli, "fit_forecaster")])
    for attr in ("evaluate", "rolling_one_step_predictions", "multistep_window_predictions"):
        module_fn(evaluation, attr)
    module_fn(svgplot, "emit_plot")
    return tracer.wrap("cli.main", cli.main)


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: trace_cli.py SPANS.npz EXEC_ID -- <leancast arguments>",
              file=sys.stderr)
        return 2
    spans_path, exec_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    traced_main = install(tracer)
    try:
        return traced_main(cli_args)
    finally:
        tracer.save(spans_path, exec_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
