"""augment-eval's worker interpreters: serial bytes, and no process left behind."""

import contextlib
import functools
import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from volsynth import harness
from volsynth.cli import main as cli_main

SRC = os.path.dirname(os.path.dirname(harness.__file__))
TINY = {"svm": {"epochs": 60}, "gmm": {"num_components": 1},
        "dnn": {"channels": [3, 4], "epochs": 3, "batch_size": 6},
        "cvae": {"latent_dim": 3, "enc_channels": [3, 4], "dec_channels": [4, 3],
                 "batch_size": 4, "epochs": 2}}
# the CLI with every unit in-process, whatever the CPU count
SERIAL_CLI = ("import sys; from volsynth import cli, harness; "
              "harness.usable_cpus = lambda: 1; sys.exit(cli.main(sys.argv[1:]))")


def sweep_config(tmp_path, **changes):
    config = {
        "dataset": {"kind": "blob", "num_classes": 3, "per_class": 9,
                    "dims": [8, 8, 8], "seed": 4},
        "regime": ["real", "real_noise", "real_synth"],
        "generator": ["gmm", "cvae"],
        "classifier": ["svm", "dnn"],
        "synth_per_class": 3, "noise_per_class": 2, "noise_variance": 0.01,
        "split": {"kind": "kfold", "k": 3, "min_class_size": 3},
        "repeats": 1, "seed": 5, "models": TINY,
    }
    config.update(changes)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return path


def child_pids(pid="self"):
    """Pids of the direct children of every thread of ``pid``."""
    pids = set()
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        with open(path) as fh:
            pids.update(int(p) for p in fh.read().split())
    return pids


def session_pids(sid):
    """Pids of every live process in session ``sid``."""
    pids = set()
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:         # the process ended while being listed
            continue
        if int(fields[3]) == sid:
            pids.add(int(path.split("/")[2]))
    return pids


@pytest.fixture
def pooled(monkeypatch):
    """Units on two workers even on one CPU; the returned list gets the child
    pids seen as each unit's result is logged."""
    seen = []
    monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "log_stderr", lambda msg: seen.append(child_pids()))
    return seen


def test_pooled_outputs_equal_a_serial_run(tmp_path, pooled):
    """The serial side runs at two BLAS threads, the workers at one."""
    cfg = sweep_config(tmp_path, single_model=True)
    serial, pooled_out = tmp_path / "serial", tmp_path / "pooled"
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="2")
    result = subprocess.run([sys.executable, "-c", SERIAL_CLI, "augment-eval", "--config",
                             str(cfg), "--out", str(serial)],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert cli_main(["augment-eval", "--config", str(cfg), "--out", str(pooled_out)]) == 0
    assert len(pooled) == 24 and all(pooled)        # 8 cells x 3 folds, on workers
    names = sorted(os.listdir(serial))
    assert len(names) == 10                         # 8 run files and 2 tables
    assert names == sorted(os.listdir(pooled_out))
    for name in names:
        assert (serial / name).read_bytes() == (pooled_out / name).read_bytes(), name


def test_prints_in_a_worker_stay_off_its_result_pipe(pooled):
    assert harness.run_in_workers(functools.partial(print, flush=True), "ab") == [None, None]


def test_a_worker_exception_is_raised_with_its_type_message_and_traceback(pooled):
    with pytest.raises(ValueError, match="invalid literal for int") as info:
        harness.run_in_workers(int, ["1", "x"])
    assert isinstance(info.value.__cause__, harness.WorkerTraceback)
    assert "ValueError: invalid literal for int" in str(info.value.__cause__)


def test_no_worker_outlives_a_run(tmp_path, pooled):
    before = child_pids()
    cfg = sweep_config(tmp_path, regime="real", classifier="svm")
    assert cli_main(["augment-eval", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    assert len(pooled) == 3 and all(p - before for p in pooled)
    assert child_pids() == before


def test_no_worker_outlives_a_unit_that_raises(tmp_path, pooled, capsys):
    """A fold's training split holds 12 volumes; a batch of 50 cannot fit."""
    before = child_pids()
    cfg = sweep_config(tmp_path, regime=["real", "real_synth"], generator="icwgan",
                       classifier="svm",
                       models=dict(TINY, icwgan={"z_dim": 3, "gen_channels": [3, 2],
                                                 "disc_channels": [2, 3], "batch_size": 50}))
    assert cli_main(["augment-eval", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert "error: batch size 50 exceeds dataset size 12" in capsys.readouterr().err
    assert child_pids() == before


@contextlib.contextmanager
def cli_running_units(tmp_path):
    """The CLI in a new session, once every worker has returned a unit (so it
    has installed its signal handling) and started on the DNN units, which
    would not end for hours. Whatever is left of the session is killed after."""
    cfg = sweep_config(tmp_path, regime="real", classifier=["svm", "dnn"],
                       models=dict(TINY, dnn={"channels": [3, 4], "epochs": 10 ** 6,
                                              "batch_size": 6}))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen([sys.executable, "-m", "volsynth.cli", "augment-eval",
                             "--config", str(cfg), "--out", str(tmp_path / "r")],
                            env=env, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        lines = [proc.stderr.readline() for _ in range(5)]
        assert lines[0].startswith("running real / - / svm")
        assert lines[4].startswith("real / - / svm fold 2 repeat 0: accuracy")
        workers = min(harness.usable_cpus(), 6) if harness.usable_cpus() > 1 else 0
        assert len(child_pids(proc.pid)) == workers
        yield proc
    finally:
        if proc.poll() is None or session_pids(proc.pid):
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stderr.close()


def test_no_process_outlives_an_interrupted_run(tmp_path):
    """SIGINT to the CLI's process group, as ^C sends it."""
    with cli_running_units(tmp_path) as proc:
        os.killpg(proc.pid, signal.SIGINT)
        assert proc.wait(timeout=60) != 0
        assert "KeyboardInterrupt" in proc.stderr.read()
        assert session_pids(proc.pid) == set()


def test_no_worker_outlives_a_killed_run(tmp_path):
    """SIGKILL to the CLI alone skips its ``finally``; its workers must die too."""
    with cli_running_units(tmp_path) as proc:
        os.kill(proc.pid, signal.SIGKILL)
        assert proc.wait(timeout=60) == -signal.SIGKILL
        deadline = time.monotonic() + 30
        while session_pids(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert session_pids(proc.pid) == set()


def test_single_model_units_reuse_each_cells_one_fit(tmp_path, monkeypatch):
    """In-process, so the counting patch sees every fit that ``run_unit`` makes:
    one per cell, made while planning, and none for the cell's 3 folds."""
    calls = []

    def counting(kind, fit):
        def fit_and_count(*args, **kwargs):
            calls.append(kind)
            return fit(*args, **kwargs)
        return fit_and_count

    monkeypatch.setattr(harness, "usable_cpus", lambda: 1)
    for kind, generator in list(harness.GENERATORS.items()):
        monkeypatch.setitem(harness.GENERATORS, kind,
                            generator._replace(fit=counting(kind, generator.fit)))
    cfg = sweep_config(tmp_path, regime="real_synth", classifier="svm", single_model=True)
    out = tmp_path / "r"
    assert cli_main(["augment-eval", "--config", str(cfg), "--out", str(out)]) == 0
    assert calls == ["gmm", "cvae"]
    for kind in ("gmm", "cvae"):
        run = json.loads((out / f"run_real_synth_{kind}_svm.json").read_text())
        assert len(run["entries"]) == 3
