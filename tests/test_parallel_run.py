"""``leancast run`` fits in forked worker processes, one per CPU it may use:
its outputs are byte-identical to a one-process run, a model rebuilt from
what a worker sends predicts as the one it fitted, and no worker outlives
the run, whether a fit fails, a worker raises or dies, or SIGINT arrives."""

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from leancast import cli, forecasters
from leancast.cli import main
from leancast.neural import NetworkConfig, RecurrentNetwork
from leancast.series import chronological_split, generate_synthetic

REPO = Path(__file__).parent.parent
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
needs_two_cpus = pytest.mark.skipif(
    len(CPUS) < 2 or not hasattr(os, "fork"),
    reason="workers are forked only where the process may use two CPUs")

# five fits, the overflowing one a listed failure
RUN_DOC = {
    "synthetic": {"kind": "ar1", "n": 80, "alpha": 0.8, "sigma": 1.0}, "seed": 1,
    "forecasters": [
        {"kind": "sarima", "spec": {"order": [1, 0, 0]}},
        {"kind": "lstm_1day", "epochs": 3, "layers": 1, "hidden": 4},
        {"kind": "lstm_14day", "epochs": 1, "batch_size": 0, "layers": 1, "hidden": 4,
         "learning_rate": 1e308},
        {"kind": "gru_14day", "epochs": 2, "layers": 2, "hidden": 4},
        {"kind": "multistep_14_5", "epochs": 2, "layers": 2, "hidden": 4}]}


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_pinned(config, out, cpus):
    """``leancast run`` in a fresh process that may use only ``cpus``:
    (exit code, stdout, stderr, {output file: bytes})."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "leancast.cli", "run", "--config", config,
                           "--out", str(out)], env=env, capture_output=True, timeout=300,
                          preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    files = {str(path.relative_to(out)): path.read_bytes()
             for path in sorted(out.rglob("*")) if path.is_file()}
    return done.returncode, done.stdout, done.stderr, files


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_outputs_match_between_one_cpu_and_all(tmp_path):
    config = write_config(tmp_path, RUN_DOC)
    one = run_pinned(config, tmp_path / "one", CPUS[:1])
    code, _, err, files = one
    assert code == 1, err
    assert {"report.csv", "report.txt", "rows.json", "failures.txt",
            "plots/series_synthetic.svg"} <= set(files)
    assert len([name for name in files if name.startswith("models/")]) == 4
    assert files["failures.txt"].startswith(b"lstm_14day/series/synthetic: ")
    if len(CPUS) < 2:
        pytest.skip("only one CPU: there is no all-CPU run to compare")
    assert run_pinned(config, tmp_path / "all", CPUS) == one


@pytest.mark.parametrize("cell, one_step", [("lstm", False), ("lstm", True),
                                            ("gru", False), ("gru", True)])
def test_rebuilt_network_shares_theta_and_predicts_alike(cell, one_step):
    config = NetworkConfig(cell=cell, layers=2, hidden=5, input_size=3, output_size=1,
                           dropout=0.0, seed=4, learning_rate=0.01, epochs=1,
                           batch_size=0, optimizer="adam")
    net = RecurrentNetwork(config, one_step=one_step)
    rebuilt = pickle.loads(pickle.dumps(net))
    assert rebuilt.theta.tobytes() == net.theta.tobytes()
    views = [*rebuilt.parameters().values(), rebuilt.W_out, rebuilt.b_out,
             *(m for layer in rebuilt.layers for m in vars(layer).values()
               if isinstance(m, np.ndarray))]
    assert views and all(np.shares_memory(view, rebuilt.theta) for view in views)
    x = np.random.default_rng(0).standard_normal((6, 1 if one_step else 4, 3))
    assert rebuilt.forward(x)[0].tobytes() == net.forward(x)[0].tobytes()


@pytest.mark.parametrize("kind", ["lstm_14day", "multistep_14_5"])
def test_rebuilt_forecaster_predicts_bit_for_bit(kind):
    series = generate_synthetic("ar1", n=60, seed=3, alpha=0.7, sigma=1.0)
    split = chronological_split(series, 0.7)
    config = forecasters.default_network_config(kind, seed=2, epochs=2, layers=2, hidden=4)
    model = forecasters.fit_forecaster(kind, split, config)
    rebuilt = pickle.loads(pickle.dumps(model))
    assert forecasters.forecaster_to_json(rebuilt) == forecasters.forecaster_to_json(model)
    windows = np.lib.stride_tricks.sliding_window_view(series.values, 14)
    if kind == "multistep_14_5":
        assert (forecasters.forecast_multistep(rebuilt, windows).tobytes()
                == forecasters.forecast_multistep(model, windows).tobytes())
    else:
        assert ([forecasters.predict_next(rebuilt, w) for w in windows]
                == [forecasters.predict_next(model, w) for w in windows])


def test_expected_work_ranks_sarima_then_training_work():
    entries = [{"kind": "lstm_1day", "epochs": 3}, {"kind": "multistep_14_5", "epochs": 3},
               {"kind": "gru_14day", "epochs": 3, "batch_size": 0},
               {"kind": "sarima", "spec": {"order": [1, 0, 0]}},
               {"kind": "lstm_14day", "epochs": 3}]
    fits, _ = cli._plan_fits(entries, (("synthetic", None),), 0, None)
    # epochs x mini-batches x layers x steps per window, on 50 training days:
    # 49 windows of 1 + 1 days, 32 of 14 + 5 and 36 of 14 + 1
    assert [cli._expected_work(fit, 50) for fit in fits] == [
        3 * 7 * 4 * 1, 3 * 1 * 8 * 18, 3 * 1 * 4 * 1, float("inf"), 3 * 5 * 4 * 1]


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def patch_fits(monkeypatch, in_parent, in_worker):
    """Replace every fit with ``in_parent()`` in this process and
    ``in_worker()`` in a forked worker."""
    parent = os.getpid()

    def fit(*args, **kwargs):
        return (in_parent if os.getpid() == parent else in_worker)()

    monkeypatch.setattr(forecasters, "fit_forecaster", fit)


def wait_for(path: Path):
    deadline = time.monotonic() + 60
    while not path.exists():
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.01)


@needs_two_cpus
def test_worker_exception_ends_the_run(tmp_path, monkeypatch, capsys):
    started = tmp_path / "worker_started"

    def in_worker():
        started.touch()
        raise ZeroDivisionError("a worker's fit divided by zero")

    def in_parent():
        wait_for(started)
        raise ValueError("fit refused")

    patch_fits(monkeypatch, in_parent, in_worker)
    config = write_config(tmp_path, RUN_DOC)
    assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fit worker ")
    assert "ZeroDivisionError: a worker's fit divided by zero" in err
    no_child_left()


@needs_two_cpus
def test_worker_fit_failures_are_listed(tmp_path, monkeypatch, capsys):
    started = tmp_path / "worker_started"

    def in_worker():
        started.touch()
        raise RuntimeError("worker fit diverged")

    def in_parent():
        wait_for(started)
        raise ValueError("parent fit refused")

    patch_fits(monkeypatch, in_parent, in_worker)
    config = write_config(tmp_path, RUN_DOC)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 1
    failures = (out / "failures.txt").read_text().splitlines()
    tags = [f"{entry['kind']}/series/synthetic" for entry in RUN_DOC["forecasters"]]
    assert [line.split(": ")[0] for line in failures] == tags
    assert "worker fit diverged" in (out / "failures.txt").read_text()
    assert capsys.readouterr().err == "5 fit(s) failed; see failures.txt\n"
    no_child_left()


@needs_two_cpus
@pytest.mark.parametrize("end, named", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     f"died from signal {int(signal.SIGKILL)} ({signal.strsignal(signal.SIGKILL)})"),
    (lambda: os._exit(3), "exited with status 3")])
def test_worker_ending_without_results_is_named(tmp_path, monkeypatch, capsys, end, named):
    started = tmp_path / "worker_started"

    def in_worker():
        started.touch()
        end()

    def in_parent():
        wait_for(started)
        raise ValueError("fit refused")

    patch_fits(monkeypatch, in_parent, in_worker)
    config = write_config(tmp_path, RUN_DOC)
    assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fit worker ")
    assert f"{named} before it sent its results" in err
    no_child_left()


@needs_two_cpus
def test_sigint_kills_and_reaps_training_workers(tmp_path, monkeypatch):
    training = tmp_path / "worker_training"

    def in_worker():
        training.touch()
        time.sleep(120)

    def in_parent():
        wait_for(training)
        os.kill(os.getpid(), signal.SIGINT)
        time.sleep(120)

    patch_fits(monkeypatch, in_parent, in_worker)
    config = write_config(tmp_path, RUN_DOC)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert time.monotonic() - started < 60
    no_child_left()
