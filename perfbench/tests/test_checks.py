"""Each benchmark check accepts volsynth's real output and rejects a corrupted one.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
The models are tiny (8^3 volumes, one or two layers) so the file runs in
seconds; the checks are the ones the workloads use at full size.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import tracing
import workloads
from volsynth import classifiers, cli, datasets, gmm, nn, volumes

DIMS = (8, 8, 8)


def run_cli(*argv):
    assert cli.main([str(a) for a in argv]) == 0


def write_vvol_copy(src_dir, dst_dir, edit):
    """Copy a sample directory, applying ``edit(name, array) -> array`` to each VVOL."""
    shutil.copytree(src_dir, dst_dir)
    for name in sorted(os.listdir(dst_dir)):
        if name.endswith(".vvol"):
            path = os.path.join(dst_dir, name)
            data = edit(name, checks.read_vvol(path).copy())
            volumes.write_volume(volumes.Volume(data), path)


@pytest.fixture(scope="module")
def blob_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("blob")
    run_cli("synth-data", "--classes", 2, "--per-class", 10, "--dims", "8,8,8",
            "--seed", 3, "--out", out)
    return out


# -- readers ------------------------------------------------------------------

def test_vvol_reader_matches_program_and_rejects_truncation(tmp_path):
    vol = volumes.Volume(np.random.default_rng(0).uniform(size=DIMS).astype(np.float32))
    path = tmp_path / "v.vvol"
    volumes.write_volume(vol, path)
    np.testing.assert_array_equal(checks.read_vvol(path), vol.data)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError):
        checks.read_vvol(path)


def test_checkpoint_reader_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "c.ckpt"
    arrays = {"a": np.arange(6.0).reshape(2, 3)}
    nn.save_checkpoint(path, arrays, extra={"kind": "x"})
    extra, back = checks.read_checkpoint(path)
    assert extra == {"kind": "x"}
    np.testing.assert_array_equal(back["a"], arrays["a"])
    with open(path, "ab") as fh:
        fh.write(b"\0")
    with pytest.raises(ValueError):
        checks.read_checkpoint(path)


# -- desk ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_output():
    """Program outputs in the shape Desk.round returns, from cheap models."""
    ds = datasets.make_blob_dataset(4, 40, DIMS, seed=1)
    train_idx = [i for c in range(4) for i in ds.class_indices(c)[:10]]
    test_idx = [i for c in range(4) for i in ds.class_indices(c)[10:]]
    train, test = ds.subset(train_idx), ds.subset(test_idx)
    mask = volumes.compute_mask(train.volumes)
    model = gmm.fit_class_gmms(train, mask, gmm.EMConfig(seed=1))
    samples = {c: model.sample_volumes(c, 20, 50 + c) for c in range(4)}
    feats = np.asarray([volumes.apply_mask(v, mask) for v in train.volumes])
    svm = classifiers.train_svm(feats, train.labels, epochs=100, mask=mask)
    preds = svm.predict(np.asarray([volumes.apply_mask(v, mask) for v in test.volumes]))
    out = {"pred_real": preds, "pred_aug": preds.copy(), "gmm": samples,
           "cvae": samples, "icwgan": samples,
           "gan_log": [(1, "critic", -1.5, 0.2), (2, "gen", 0.7, 0.0)]}
    return train, test.labels, out


def test_desk_check_accepts_program_output(desk_output):
    train, labels, out = desk_output
    assert workloads.check_desk(train, labels, out) == []


def test_desk_check_rejects_corruptions(desk_output):
    train, labels, out = desk_output
    flipped = dict(out, icwgan={(c + 1) % 4: v for c, v in out["icwgan"].items()})
    assert any("icwgan label consistency" in f
               for f in workloads.check_desk(train, labels, flipped))

    bad = out["cvae"][2][0].data.copy()
    bad[1, 2, 3] = 1.001
    perturbed = {c: list(v) for c, v in out["cvae"].items()}
    perturbed[2][0] = volumes.Volume(bad)
    assert any("outside [0,1]" in f
               for f in workloads.check_desk(train, labels, dict(out, cvae=perturbed)))

    wrong = out["pred_real"].copy()
    wrong[: len(wrong) // 5] = (wrong[: len(wrong) // 5] + 1) % 4
    assert any("real-data test accuracy" in f
               for f in workloads.check_desk(train, labels, dict(out, pred_real=wrong)))
    assert any("real+GMM" in f
               for f in workloads.check_desk(train, labels, dict(out, pred_aug=wrong)))

    log = out["gan_log"] + [(3, "critic", float("nan"), 0.1)]
    assert any("non-finite" in f
               for f in workloads.check_desk(train, labels, dict(out, gan_log=log)))


# -- sweep --------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    config = {
        "dataset": {"kind": "blob", "num_classes": 2, "per_class": 9,
                    "dims": list(DIMS), "seed": 3},
        "regime": ["real", "real_synth"], "generator": ["gmm"], "classifier": ["svm"],
        "synth_per_class": 3, "split": {"kind": "kfold", "k": 3, "min_class_size": 3},
        "repeats": 2, "seed": 2, "models": {"svm": {"epochs": 60}},
    }
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(config))
    run_cli("augment-eval", "--config", cfg, "--out", root / "runs")
    runs = {p.name: json.loads(p.read_text()) for p in sorted((root / "runs").glob("run_*.json"))}
    return (runs, (root / "runs" / "report.csv").read_text(),
            (root / "runs" / "variance.csv").read_text())


def test_sweep_check_accepts_program_output(sweep_runs):
    runs, report, variance = sweep_runs
    assert len(runs) == 2
    assert checks.check_sweep(runs, report, variance, folds=3, repeats=2) == []


def test_sweep_check_rejects_corruptions(sweep_runs):
    runs, report, variance = sweep_runs
    name = sorted(runs)[0]

    wrong_aggregate = json.loads(json.dumps(runs))
    wrong_aggregate[name]["aggregate"]["mean"]["accuracy"] += 1e-6
    assert checks.check_sweep(wrong_aggregate, report, variance, 3, 2)

    wrong_entry = json.loads(json.dumps(runs))
    wrong_entry[name]["entries"][0]["recall"] = 1.0 - wrong_entry[name]["entries"][0]["recall"] + 0.01
    assert checks.check_sweep(wrong_entry, report, variance, 3, 2)

    lines = report.split("\n")
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) + 0.01)
    edited = "\n".join([lines[0], ",".join(cells)] + lines[2:])
    assert checks.check_sweep(runs, edited, variance, 3, 2)

    dropped = "\n".join(variance.split("\n")[:-2] + [""])
    assert checks.check_sweep(runs, report, dropped, 3, 2)

    missing_entry = json.loads(json.dumps(runs))
    missing_entry[name]["entries"].pop()
    assert checks.check_sweep(missing_entry, report, variance, 3, 2)


# -- sample -------------------------------------------------------------------

def test_clipped_normal_moments_match_monte_carlo():
    rng = np.random.default_rng(0)
    mean = np.array([-0.3, 0.1, 0.5, 0.95, 1.4])
    var = np.array([0.04, 0.09, 0.01, 0.25, 0.3])
    draws = np.clip(mean + rng.standard_normal((400_000, 5)) * np.sqrt(var), 0.0, 1.0)
    m1, m2 = checks.clipped_normal_moments(mean, var)
    np.testing.assert_allclose(draws.mean(axis=0), m1, atol=3e-3)
    np.testing.assert_allclose((draws ** 2).mean(axis=0), m2, atol=3e-3)


def sample_dir(tmp_path, ckpt, class_index, count, seed):
    out = tmp_path / f"s_{os.path.basename(ckpt)}_{class_index}"
    run_cli("sample", "--checkpoint", ckpt, "--class-index", class_index, "-n", count,
            "--seed", seed, "--out", out)
    return out


def test_gmm_sample_check(tmp_path, blob_dir):
    ckpt = tmp_path / "gmm.ckpt"
    run_cli("train-gmm", "--manifest", blob_dir / "manifest.csv", "--out", ckpt)
    extra, arrays = checks.read_checkpoint(ckpt)
    good = sample_dir(tmp_path, ckpt, 1, 400, 9)
    args = (400, DIMS, (0,))
    assert checks.check_sample_dir(extra, arrays, 1, 9, good, *args) == []

    def shift_voxel(name, data):
        data[4, 4, 4] = min(1.0, data[4, 4, 4] + 0.1)
        return data

    shifted = tmp_path / "shifted"
    write_vvol_copy(good, shifted, shift_voxel)
    assert any("voxel means" in f
               for f in checks.check_sample_dir(extra, arrays, 1, 9, shifted, *args))

    relabeled = tmp_path / "relabeled"
    shutil.copytree(good, relabeled)
    manifest = (relabeled / "manifest.csv").read_text().split("\n")
    manifest[5] = manifest[5].rsplit(",", 1)[0] + ",0"
    (relabeled / "manifest.csv").write_text("\n".join(manifest))
    assert any("manifest labels" in f
               for f in checks.check_sample_dir(extra, arrays, 1, 9, relabeled, *args))
    assert checks.check_sample_dir(extra, arrays, 1, 9, good, 399, DIMS, (0,))


@pytest.mark.parametrize("command,kind,block", [
    ("train-cvae", "cvae", {"latent_dim": 4, "batch_size": 10, "epochs": 1,
                            "enc_channels": [4, 8], "dec_channels": [8, 4]}),
    ("train-gan", "icwgan", {"z_dim": 4, "batch_size": 10, "epochs": 1, "critic_iters": 1,
                             "gen_channels": [8, 4], "disc_channels": [4, 8]}),
])
def test_decoded_sample_check(tmp_path, blob_dir, command, kind, block):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(block))
    ckpt = tmp_path / f"{kind}.ckpt"
    run_cli(command, "--manifest", blob_dir / "manifest.csv", "--config", cfg, "--out", ckpt)
    extra, arrays = checks.read_checkpoint(ckpt)
    good = sample_dir(tmp_path, ckpt, 1, 12, 21)
    rows = (0, 6, 11)
    assert checks.check_sample_dir(extra, arrays, 1, 21, good, 12, DIMS, rows) == []

    def nudge_first(name, data):
        if name.endswith("00000.vvol"):
            data[3, 3, 3] = data[3, 3, 3] + (0.01 if data[3, 3, 3] < 0.5 else -0.01)
        return data

    nudged = tmp_path / "nudged"
    write_vvol_copy(good, nudged, nudge_first)
    fails = checks.check_sample_dir(extra, arrays, 1, 21, nudged, 12, DIMS, rows)
    assert len(fails) == 1 and "sample 0" in fails[0]
    # the samples of another class are not this class's forward pass
    assert checks.check_sample_dir(extra, arrays, 0, 21, good, 12, DIMS, rows)


# -- tracing ------------------------------------------------------------------

def test_tracer_records_layers_and_restores_every_function(blob_dir):
    import volsynth

    originals = {}
    for _, target in tracing.TARGETS:
        mod, attr = target.split(":")
        owner = getattr(volsynth, mod)
        if "." in attr:
            cls, meth = attr.split(".")
            originals[target] = getattr(owner, cls).__dict__[meth]
        else:
            originals[target] = getattr(owner, attr)

    tracer = tracing.Tracer("volsynth")
    tracer.install()
    try:
        with tracer.span("bench.round") as root:
            ds = datasets.load_dataset(str(blob_dir / "manifest.csv"))
            cfg = classifiers.DNNConfig(channels=(4, 8), batch_size=10, epochs=2)
            model, _ = classifiers.train_dnn_classifier(ds.stack(np.float32), ds.labels, cfg)
            model.predict(ds.stack(np.float32))
    finally:
        tracer.restore()

    for target, original in originals.items():
        mod, attr = target.split(":")
        owner = getattr(volsynth, mod)
        if "." in attr:
            cls, meth = attr.split(".")
            assert getattr(owner, cls).__dict__[meth] is original, target
        else:
            assert getattr(owner, attr) is original, target
    assert volsynth.harness.load_dataset is volsynth.datasets.load_dataset

    metrics = tracing.layer_metrics(tracer.spans, [root], [], 0.0)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["autodiff.conv3d.calls"]["value"] == 2 * (4 + 1)   # 2 layers, 4 steps + predict
    assert metrics["autodiff.conv3d.gflop"]["value"] > 0
    assert metrics["autodiff.backward.calls"]["value"] == 4
    assert metrics["classifiers.dnn_step.fwd_ms"]["value"] > 0
    assert metrics["classifiers.dnn_step.bwd_ms"]["value"] > 0
    assert metrics["volumes.read_volume.ms"]["value"] > 0
    assert metrics["icwgan.train.s"]["value"] == 0.0


def test_run_refuses_a_tree_without_the_program(tmp_path):
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(bench, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_not_rewritten_names_files_a_call_left_alone(tmp_path):
    for name in ("a.vvol", "b.vvol"):
        (tmp_path / name).write_bytes(b"old")
    stamps = {}
    assert workloads.not_rewritten(stamps, tmp_path) == []   # first look: nothing known
    os.utime(tmp_path / "a.vvol", ns=(1, stamps[str(tmp_path / "a.vvol")] + 10 ** 9))
    assert workloads.not_rewritten(stamps, tmp_path) == [str(tmp_path / "b.vvol")]
    assert workloads.not_rewritten(stamps, tmp_path / "missing") == []
