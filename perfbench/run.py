"""leancast benchmark: run one workload through the leancast CLI, time it
end to end or trace it per layer, and check its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the repository root; leancast is imported from ``src/``.  The
seed generates every input.  After set-up, the workload's CLI command runs
again and again in fresh processes, one after another (a closed loop with
one client), for about ``--seconds`` seconds.  With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced executions alternate and it carries the
per-layer metrics.  The line before it records the environment.  The exit
code is 1 when any output check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
WORK = os.path.join(HERE, ".work")
sys.path[:0] = [HERE, SRC]

import workloads  # noqa: E402

SETUP_REPEATS = 9          # fresh imports per run; setup_s is their median
MIN_EXECUTIONS = 5         # untraced executions per --trace 0 run, at least
MIN_PAIRS = 3              # untraced + traced pairs per --trace 1 run, at least
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = "import sys, leancast.cli; leancast.cli.load_config(sys.argv[1])"
# Host speed: the 2-core shared VM the bounds were set on changes speed by
# 20% and more within seconds, and as much between minutes.  Every timed
# process is bracketed by a fixed reference process (interpreter start,
# numpy import, a pure-Python loop), and its wall time is scaled by the
# reference's nominal time over the mean of the two reference times around
# it.  Times are thus seconds at one fixed host speed.
REFERENCE_CODE = "import numpy\nacc = 0\nfor i in range(300_000):\n    acc += i * i\n"
REFERENCE_NOMINAL_S = 0.25

END_TO_END = {"wall_s": "s", "setup_s": "s", "work_per_s": "items/s",
              "peak_rss_mb": "MiB", "rel_rmse": "ratio"}

LAYERS = ("ingest", "series", "sarima", "simplex", "neural", "optim",
          "forecasters", "evaluation", "svgplot", "cli")
SELF_S = (
    "ingest.extract_domain", "ingest.read_posts_csv", "ingest.aggregate_daily",
    "ingest.daily_mean_sentiment", "ingest.summarize", "ingest.write_series_csv",
    "sarima.css_residuals", "sarima.fit", "simplex.nelder_mead", "sarima.grid_search",
    "sarima.forecast", "sarima.rolling_test_rmse",
    "neural.forward.train", "neural.backward", "neural.train",
    "forecasters.train_multistep_teacher_forced", "optim.optimizer_step",
    "optim.clip_global_norm", "series.make_windows",
    "neural.forward.infer", "forecasters.predict_next", "forecasters.decode_multistep",
    "evaluation.evaluate", "evaluation.rolling_one_step_predictions",
    "evaluation.multistep_window_predictions",
    "forecasters.fit_forecaster", "svgplot.emit_plot", "cli.main",
)
CALLS = (
    "ingest.extract_domain", "sarima.css_residuals", "sarima.fit",
    "simplex.nelder_mead", "sarima.difference", "sarima.forecast", "neural.backward",
    "optim.optimizer_step", "neural.forward.infer", "forecasters.predict_next",
    "forecasters.decode_multistep",
)
RATIOS = {   # name -> (numerator counter or span, denominator span, unit, better)
    "ingest.label_post.calls_per_post": ("ingest.label_post", None, "calls/post", "lower"),
    "sarima.css_residuals.per_fit": ("sarima.css_residuals", "sarima.fit", "calls/fit", "lower"),
    "sarima.fit.converged_ratio": ("sarima.fit.converged", "sarima.fit", "ratio", "higher"),
    "simplex.nelder_mead.converged_ratio": ("simplex.nelder_mead.converged",
                                            "simplex.nelder_mead", "ratio", "higher"),
    "optim.clip_global_norm.active_ratio": ("optim.clip_global_norm.active",
                                            "optim.clip_global_norm", "ratio", "lower"),
    "neural.forward.infer.rows_per_call": ("neural.forward.infer.rows",
                                           "neural.forward.infer", "rows/call", "higher"),
}


def per_layer_units() -> dict:
    """Every per-layer metric name -> (unit, better)."""
    units = {f"{n}.self_s": ("s", "lower") for n in SELF_S}
    units.update({f"{n}.calls": ("count", "lower") for n in CALLS})
    units.update({n: spec[2:] for n, spec in RATIOS.items()})
    units.update({f"layer.{layer}.self_frac": ("ratio", "lower") for layer in LAYERS})
    units["trace.overhead_frac"] = ("ratio", "lower")
    return units


# -- processes ---------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The environment every leancast process gets: leancast from src/ and
    BLAS held to one thread per available core."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(nproc())
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


class HostClock:
    """Scales process wall times to the nominal host speed (see
    REFERENCE_NOMINAL_S), from reference processes run before and after."""

    def __init__(self, cwd: str, env: dict):
        self.argv, self.cwd, self.env = [sys.executable, "-c", REFERENCE_CODE], cwd, env
        self.raw, self.refs = [], []
        self.last = self._reference()

    def _reference(self) -> float:
        wall, _, code = execute(self.argv, self.cwd, self.env)
        if code != 0:
            raise RuntimeError(f"reference process failed (exit {code})")
        return wall

    def scale(self, wall: float) -> float:
        before, self.last = self.last, self._reference()
        ref = (before + self.last) / 2.0
        self.raw.append(wall)
        self.refs.append(ref)
        return wall * REFERENCE_NOMINAL_S / ref


def execute(argv, cwd, env):
    """Run one process to completion; (wall seconds, peak RSS KiB, exit code)."""
    with open(os.path.join(cwd, "stdout.txt"), "w") as out, \
            open(os.path.join(cwd, "stderr.txt"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def environment(env: dict, seed: int) -> dict:
    """Read-only record of what the measurement ran on."""
    probe = ("import ctypes, json, sys, numpy\n"
             "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
             "threads = None\n"
             "for line in open('/proc/self/maps'):\n"
             "    if 'blas' in line and '.so' in line:\n"
             "        lib = ctypes.CDLL(line.split()[-1])\n"
             "        for sym in ('scipy_openblas_get_num_threads64_',"
             " 'openblas_get_num_threads64_', 'openblas_get_num_threads'):\n"
             "            if hasattr(lib, sym):\n"
             "                threads = getattr(lib, sym)()\n"
             "                break\n"
             "        break\n"
             "print(json.dumps({'python': sys.version.split()[0],"
             " 'numpy': numpy.__version__, 'blas': blas.get('name'),"
             " 'blas_version': blas.get('version'), 'blas_threads': threads}))\n")
    info = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                     capture_output=True, text=True).stdout)
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                                text=True, check=True, env={
                                    **os.environ,
                                    "GIT_CEILING_DIRECTORIES": os.path.dirname(REPO)},
                                ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"          # a plain checkout, not a git repository
    info.update(nproc=nproc(), cpu_count=os.cpu_count(), machine=platform.machine(),
                git_commit=commit, seed=seed,
                blas_thread_env={v: env[v] for v in BLAS_THREAD_VARS})
    return info


def setup_seconds(config: str, workdir: str, env: dict, clock: HostClock) -> float:
    """Median scaled wall time of a fresh process that imports leancast and
    loads the workload's config.  One untimed import first fills the
    bytecode cache, which users pay for once, not per run."""
    argv = [sys.executable, "-c", SETUP_CODE, config]
    times = []
    for i in range(SETUP_REPEATS + 1):
        wall, _, code = execute(argv, workdir, env)
        if code != 0:
            raise RuntimeError(f"importing leancast failed (exit {code})")
        if i:
            times.append(clock.scale(wall))
    return statistics.median(times)


# -- traces ------------------------------------------------------------------


def layer_metrics(spans_path: str, posts: int) -> dict:
    """Per-layer metrics of one traced execution.  Self time is a span's
    duration minus the time its child spans cover."""
    data = np.load(spans_path)
    meta = json.loads(str(data["meta"]))
    names, counters = meta["names"], meta["counters"]
    dur = data["end"] - data["start"]
    parent, name_of = data["parent"], data["name_of"]
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    calls = dict(zip(names, np.bincount(name_of, minlength=len(names)).tolist()))
    self_s = dict(zip(names, np.bincount(name_of, weights=self_time,
                                         minlength=len(names)).tolist()))
    counts = {**calls, **counters}
    root = float(dur[name_of == names.index("cli.main")].sum())

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{n}.self_s": self_s.get(n, 0.0) for n in SELF_S}
    out.update({f"{n}.calls": calls.get(n, 0) for n in CALLS})
    for name, (num, den, _, _) in RATIOS.items():
        out[name] = ratio(counts.get(num, 0), posts if den is None else calls.get(den, 0))
    for layer in LAYERS:
        share = sum(v for n, v in self_s.items() if n.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_frac"] = ratio(share, root)
    return out


# -- one run -----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(WORK, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = child_env()
    wl = workloads.prepare(name, workdir, seed)
    env_info = environment(env, seed)
    setup_clock, clock = HostClock(workdir, env), HostClock(workdir, env)
    setup_s = setup_seconds(wl.config, workdir, env, setup_clock)
    posts = wl.corpus.n_posts if wl.corpus is not None else 0

    walls = {False: [], True: []}
    rss, layers, digests, problems = [], [], set(), []
    attempted = failed = 0
    rel_rmse = None
    begin = time.perf_counter()
    kinds = [False, True] if trace else [False]
    rounds = MIN_PAIRS if trace else MIN_EXECUTIONS
    k = 0
    while True:
        for traced in kinds:
            out = os.path.join(workdir, f"exec{k}")
            os.makedirs(out)
            cli_args = [wl.command, "--config", wl.config, "--out", out]
            if traced:
                spans = os.path.join(workdir, f"spans{k}.npz")
                argv = [sys.executable, os.path.join(HERE, "trace_cli.py"), spans,
                        f"{name}/{seed}/{k}", "--", *cli_args]
            else:
                argv = [sys.executable, "-m", "leancast.cli", *cli_args]
            wall, maxrss, code = execute(argv, out, env)
            walls[traced].append(clock.scale(wall))
            attempted += wl.units
            failed += wl.failed_units(out, code)
            if code != 0:
                with open(os.path.join(out, "stderr.txt")) as handle:
                    tail = handle.read().strip().splitlines()[-1:]
                problems.append(f"execution {k}: exit {code}: {' '.join(tail)}")
            else:
                problems += [f"execution {k}: {p}" for p in wl.check(out)]
            digests.add(wl.digest(out))
            if traced:
                layers.append(layer_metrics(spans, posts))
                os.remove(spans)
            else:
                rss.append(maxrss / 1024.0)
                if rel_rmse is None and not problems:
                    rel_rmse = wl.rel_rmse(out)
            shutil.rmtree(out)
            k += 1
        if problems:
            break
        elapsed = time.perf_counter() - begin
        per_round = elapsed / (k // len(kinds))
        if k // len(kinds) >= rounds and elapsed + per_round > seconds:
            break
    if len(digests) > 1:
        problems.append(f"outputs differ between executions ({len(digests)} versions)")

    wall_s = statistics.median(walls[False])
    if trace:
        metrics = {m: statistics.median(d[m] for d in layers) for m in layers[0]} if layers else {}
        metrics["trace.overhead_frac"] = statistics.median(walls[True]) / wall_s - 1.0
        units = {m: u for m, (u, _) in per_layer_units().items()}
    else:
        metrics = {"wall_s": wall_s, "setup_s": setup_s, "work_per_s": wl.units / wall_s,
                   "peak_rss_mb": statistics.median(rss), "rel_rmse": rel_rmse}
        units = END_TO_END
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:
        pass            # another run's directory is still there
    env_info["unscaled_s"] = {
        "executions_median": statistics.median(clock.raw),
        "setup_median": statistics.median(setup_clock.raw),
        "reference_median": statistics.median(clock.refs + setup_clock.refs),
        "reference_nominal": REFERENCE_NOMINAL_S}
    return {"environment": env_info, "problems": problems,
            "result": {"correct": not problems, "attempted": attempted, "failed": failed,
                       "metrics": {m: {"value": v, "unit": units[m]}
                                   for m, v in metrics.items()}}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.NAMES) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "leancast", "cli.py")):
        print(f"error: leancast sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for problem in outcome["problems"]:
            print(f"CHECK FAILED {name}: {problem}", file=sys.stderr)
        results[name] = outcome["result"]
        print(json.dumps({"environment": outcome["environment"]}))
        if args.workload == "all":
            for metric, entry in outcome["result"]["metrics"].items():
                print(f"{name:14s} {metric:44s} {entry['value']} {entry['unit']}")
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
