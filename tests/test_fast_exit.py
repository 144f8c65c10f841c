"""``python -m leancast.cli`` and the ``leancast`` script end through
:func:`leancast.cli.console`, which leaves by ``os._exit`` once stdout and
stderr are flushed.  Each command here runs that way and through a
normal-exit reference, each in a fresh process, and the two must agree on
exit code, stdout, stderr and every file written."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from leancast import cli, evaluation

REPO = Path(__file__).parent.parent
DATA = REPO / "tests" / "data"
FAST = ["-m", "leancast.cli"]
REFERENCE = ["-c", "import sys, leancast.cli; sys.exit(leancast.cli.main())"]
SYNTH = {"kind": "ar1", "n": 40, "alpha": 0.8, "sigma": 1.0}


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_both(tmp_path, args, buffered=True, stdout=subprocess.PIPE):
    """(exit code, stdout, stderr, {file: bytes}) of ``leancast *args`` run
    from an empty directory, asserted equal for the fast and reference exits.
    ``buffered`` False sets PYTHONUNBUFFERED, so stdout writes straight through."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    results = []
    for name, entry in (("fast", FAST), ("reference", REFERENCE)):
        cwd = tmp_path / name
        cwd.mkdir()
        done = subprocess.run([sys.executable, *entry, *args], cwd=cwd, env=env,
                              stdout=stdout, stderr=subprocess.PIPE, timeout=300)
        files = {str(path.relative_to(cwd)): path.read_bytes()
                 for path in sorted(cwd.rglob("*")) if path.is_file()}
        results.append((done.returncode, done.stdout, done.stderr, files))
    fast, reference = results
    assert fast == reference
    return fast


def test_ingest(tmp_path):
    config = write_config(tmp_path, {"posts_csv": str(DATA / "posts_100.csv"),
                                     "bias_csv": str(DATA / "bias.csv")})
    code, out, err, files = run_both(tmp_path, ["ingest", "--config", config, "--out", "out"])
    assert (code, err) == (0, b"")
    assert out.startswith(b"ingested ") and "out/summary.json" in files


def test_run_with_a_diverging_fit(tmp_path):
    # two fits, so a second CPU forks a worker, which leaves through os._exit too
    config = write_config(tmp_path, {"synthetic": SYNTH, "forecasters": [
        {"kind": "sarima", "spec": {"order": [1, 0, 0]}},
        {"kind": "lstm_1day", "epochs": 1, "batch_size": 0, "layers": 1, "hidden": 4,
         "learning_rate": 1e308}]})
    code, out, err, files = run_both(tmp_path, ["run", "--config", config, "--out", "out"])
    assert code == 1 and err == b"1 fit(s) failed; see failures.txt\n"
    assert out.startswith(b"model,") and b"\nsarima," in out
    assert files["out/failures.txt"].startswith(b"lstm_1day/series/synthetic: ")


@pytest.mark.parametrize("command,written", [
    ("gridsearch", "out/gridsearch_series_synthetic.json"),
    ("simulate", "out/simulated.csv")])
def test_gridsearch_and_simulate(tmp_path, command, written):
    config = write_config(tmp_path, {"synthetic": SYNTH, "forecasters": [
        {"kind": "sarima", "grid": {"p": [0, 1]}}]})
    code, out, err, files = run_both(tmp_path, [command, "--config", config, "--out", "out"])
    assert (code, err) == (0, b"") and out and written in files


def test_report_larger_than_a_pipe_buffer_arrives_whole(tmp_path):
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps({"tables": [{"metric": "synthetic", "platform": "synthetic",
                                            "rows": [{"model": f"model_{i}", "leaning": None,
                                                      "metric": "synthetic", "train_rmse": 0.25,
                                                      "test_rmse": 0.5, "per_step_rmse": None}
                                                     for i in range(5000)]}]}))
    code, out, err, _ = run_both(tmp_path, ["report", "--config", str(rows),
                                            "--format", "text"])
    assert (code, err) == (0, b"")
    assert len(out) > 4 * 65536
    assert out == evaluation.render_report(evaluation.rows_from_json(str(rows)),
                                           "text").encode()


def test_usage_error(tmp_path):
    code, out, err, files = run_both(tmp_path, ["simulate", "--format", "text"])
    assert (code, out, files) == (2, b"", {})
    assert b"unrecognized arguments: --format text" in err


@pytest.mark.parametrize("buffered", [True, False])
def test_stdout_pipe_closed_before_start(tmp_path, buffered):
    # unbuffered, print itself fails and main reports it; buffered, the
    # flush fails, and the normal teardown reports it (exit 120)
    config = write_config(tmp_path, {"synthetic": SYNTH})
    read, write = os.pipe()
    os.close(read)
    try:
        code, _, err, files = run_both(tmp_path, ["simulate", "--config", config,
                                                  "--out", "out"],
                                       buffered=buffered, stdout=write)
    finally:
        os.close(write)
    assert "out/simulated.csv" in files
    if buffered:
        assert code == 120 and err.endswith(b"BrokenPipeError: [Errno 32] Broken pipe\n")
    else:
        assert (code, err) == (1, b"error: [Errno 32] Broken pipe\n")


class Left(Exception):
    pass


def leave(code):
    raise Left(code)


def test_console_flushes_then_leaves_through_os_exit(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path, {"synthetic": SYNTH})
    monkeypatch.setattr(sys, "argv", ["leancast", "simulate", "--config", config,
                                      "--out", str(tmp_path / "out")])
    monkeypatch.setattr(cli.os, "_exit", leave)
    with pytest.raises(Left) as left:
        cli.console()
    assert left.value.args == (0,)
    assert capsys.readouterr().out.startswith("wrote 40 values to ")


def test_console_exits_normally_when_a_flush_fails(tmp_path, monkeypatch):
    class Closed:
        def write(self, text):
            return len(text)

        def flush(self):
            raise ValueError("I/O operation on closed file.")

    config = write_config(tmp_path, {"synthetic": SYNTH})
    monkeypatch.setattr(sys, "argv", ["leancast", "simulate", "--config", config,
                                      "--out", str(tmp_path / "out")])
    monkeypatch.setattr(cli.os, "_exit", leave)
    monkeypatch.setattr(sys, "stdout", Closed())
    with pytest.raises(SystemExit) as exited:
        cli.console()
    assert exited.value.code == 0


def test_main_in_process_still_returns_its_code(tmp_path, capsys):
    config = write_config(tmp_path, {"synthetic": SYNTH})
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert cli.main(["ingest", "--config", config]) == 1
    assert capsys.readouterr().err == (
        "error: ingest needs posts_csv and bias_csv, not a synthetic spec\n")
