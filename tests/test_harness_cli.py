"""Experiment harness: config validation, splits, leak guards, aggregation, CLI."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from volsynth import classifiers as clf
from volsynth import harness
from volsynth.cli import main as cli_main
from volsynth.datasets import REAL, SYNTHETIC, make_blob_dataset
from volsynth.harness import ExperimentConfig, aggregate


def small_config(**overrides):
    base = dict(
        dataset={"kind": "blob", "num_classes": 3, "per_class": 9,
                 "dims": [8, 8, 8], "seed": 4},
        regime="real",
        classifier="svm",
        split={"kind": "kfold", "k": 3, "min_class_size": 3},
        repeats=1,
        seed=5,
        models={"svm": {"epochs": 60}, "gmm": {"num_components": 1},
                "dnn": {"channels": [3, 4], "epochs": 2, "batch_size": 4}},
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestConfigValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(harness.ConfigError, match="mystery"):
            ExperimentConfig.from_dict({"dataset": {"kind": "blob"}, "mystery": 1})

    def test_synth_count_requires_synth_regime(self):
        with pytest.raises(harness.ConfigError):
            small_config(synth_per_class=5)

    def test_synth_regime_requires_generator(self):
        with pytest.raises(harness.ConfigError):
            small_config(regime="real_synth", synth_per_class=5)

    def test_noise_invariants(self):
        with pytest.raises(harness.ConfigError):
            small_config(regime="real_noise", noise_variance=0.0, noise_per_class=3)
        with pytest.raises(harness.ConfigError):
            small_config(noise_variance=0.01)

    def test_valid_synth_config(self):
        config = small_config(regime="real_synth", generator="gmm", synth_per_class=4)
        assert config.generator == "gmm"


class TestSplits:
    def test_kfold_cells_disjoint_and_stratified(self):
        ds = make_blob_dataset(3, 9, (8, 8, 8), seed=4)
        cells = harness._cells_for_split(ds, {"kind": "kfold", "k": 3,
                                              "min_class_size": 3}, rng_seed=0)
        assert len(cells) == 3
        for train, val, test in cells:
            assert not (set(train) & set(test))
            assert not (set(val) & set(test))
            assert not (set(train) & set(val))
            # every class appears in test with balanced counts
            labels = ds.labels[test]
            counts = [int((labels == c).sum()) for c in range(3)]
            assert max(counts) - min(counts) <= 1

    def test_fixed_split_counts(self):
        ds = make_blob_dataset(2, 12, (8, 8, 8), seed=1)
        cells = harness._cells_for_split(
            ds, {"kind": "fixed", "train_per_class": 6, "val_per_class": 2,
                 "test_per_class": 4}, rng_seed=0)
        train, val, test = cells[0]
        assert len(train) == 12 and len(val) == 4 and len(test) == 8

    def test_ratio_split_mode(self):
        ds = make_blob_dataset(1, 100, (8, 8, 8), seed=2)
        cells = harness._cells_for_split(ds, {"kind": "ratio"}, rng_seed=0)
        train, val, test = cells[0]
        assert (len(train), len(val), len(test)) == (70, 10, 20)


class TestAggregate:
    def make_report(self, accuracy):
        return clf.MetricsReport(accuracy=accuracy, macro_f1=accuracy,
                                 precision=accuracy, recall=accuracy,
                                 confusion=np.eye(2, dtype=int),
                                 per_class_f1=np.ones(2))

    def test_identical_runs_zero_variance(self):
        entries = {(f, r): self.make_report(0.75) for f in range(3) for r in range(2)}
        agg = aggregate(entries)
        assert agg["mean"]["accuracy"] == 0.75
        assert agg["variance"]["accuracy"] == 0.0

    def test_hand_computed_fold_variance(self):
        reports = [self.make_report(a) for a in (0.8, 0.9, 1.0)]
        agg = aggregate(reports)
        assert agg["mean"]["accuracy"] == pytest.approx(0.9, abs=1e-12)
        assert agg["variance"]["accuracy"] == pytest.approx(0.02 / 3, abs=1e-12)

    def test_single_run_aggregate_is_that_run(self):
        agg = aggregate([self.make_report(0.6)])
        assert agg["mean"]["accuracy"] == 0.6
        assert agg["variance"]["accuracy"] == 0.0

    def test_mean_is_arithmetic_mean_of_entries(self):
        entries = {(0, 0): self.make_report(0.5), (0, 1): self.make_report(0.7),
                   (1, 0): self.make_report(0.9), (1, 1): self.make_report(0.9)}
        agg = aggregate(entries)
        assert agg["mean"]["accuracy"] == pytest.approx((0.5 + 0.7 + 0.9 + 0.9) / 4,
                                                        abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate({})


class TestRunRegime:
    def test_real_regime_produces_full_grid(self):
        report = harness.run_regime(small_config(repeats=2))
        assert len(report.entries) == 6      # 3 folds x 2 repeats
        agg = report.aggregate()
        assert 0.0 <= agg["mean"]["accuracy"] <= 1.0

    def test_synthetic_never_reaches_test(self):
        config = small_config(regime="real_synth", generator="gmm", synth_per_class=3)
        dataset = harness.load_config_dataset(config.dataset)
        report = harness.run_regime(config, dataset=dataset)
        # the leak guard asserts inside run_regime; reaching here means it held
        assert len(report.entries) == 3
        assert all(p == REAL for p in dataset.provenance)

    @pytest.mark.parametrize("per_class", [100, 20, 4])
    def test_augment_counts(self, per_class):
        """Training set grows by synth_per_class volumes for every class."""
        config = small_config(regime="real_synth", generator="gmm",
                              synth_per_class=per_class)
        dataset = harness.load_config_dataset(config.dataset)
        mask = harness.compute_mask(dataset.volumes)
        trained = harness._train_generator("gmm", dataset, list(range(len(dataset))),
                                           config.models, 3, mask)
        aug = harness._augment(config, dataset, list(range(len(dataset))), trained,
                               synth_seed=1, noise_seed=2)
        assert len(aug) == len(dataset) + per_class * dataset.num_classes
        synth = [p for p in aug.provenance if p == SYNTHETIC]
        assert len(synth) == per_class * dataset.num_classes

    def test_noise_regime_counts(self):
        config = small_config(regime="real_noise", noise_variance=0.01,
                              noise_per_class=2)
        dataset = harness.load_config_dataset(config.dataset)
        aug = harness._augment(config, dataset, list(range(len(dataset))), None,
                               synth_seed=1, noise_seed=2)
        assert len(aug) == len(dataset) + 2 * dataset.num_classes

    @pytest.mark.parametrize("generator", ["cvae", "icwgan"])
    def test_neural_generators_wire_through_harness(self, generator):
        config = small_config(
            regime="real_synth", generator=generator, synth_per_class=2,
            repeats=1,
            split={"kind": "fixed", "train_per_class": 6, "val_per_class": 0,
                   "test_per_class": 3},
            models={
                "svm": {"epochs": 40},
                "cvae": {"latent_dim": 3, "enc_channels": [3, 4],
                         "dec_channels": [4, 3], "batch_size": 4, "epochs": 2},
                "icwgan": {"z_dim": 3, "gen_channels": [3, 2],
                           "disc_channels": [2, 3], "batch_size": 4,
                           "critic_iters": 2, "epochs": 2},
            })
        report = harness.run_regime(config)
        assert len(report.entries) == 1
        agg = report.aggregate()
        assert 0.0 <= agg["mean"]["accuracy"] <= 1.0

    def test_single_model_mode_trains_one_generator(self, monkeypatch):
        calls = []
        original = harness._train_generator

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "_train_generator", counting)
        config = small_config(regime="real_synth", generator="gmm",
                              synth_per_class=2, single_model=True)
        report = harness.run_regime(config)
        assert len(calls) == 1           # one fit reused across all 3 folds
        assert len(report.entries) == 3

    def test_leak_guards_raise_under_optimize(self):
        """The guards are raised errors, so ``python -O`` keeps them."""
        script = textwrap.dedent("""
            import sys
            from volsynth import harness
            from volsynth.datasets import SYNTHETIC, make_blob_dataset
            assert sys.flags.optimize == 1
            config = harness.ExperimentConfig.from_dict({
                "dataset": {"kind": "blob", "num_classes": 2, "per_class": 4,
                            "dims": [8, 8, 8], "seed": 0},
                "classifier": "svm", "repeats": 1})
            dataset = harness.load_config_dataset(config.dataset)
            harness._cells_for_split = lambda *args: [([0, 1, 4, 5], [2, 6], [2, 3, 7])]
            try:
                harness.run_regime(config, dataset=dataset)
            except harness.LeakError as exc:
                print(exc)
            leaky = dataset.extended([dataset.volumes[0]], [0], SYNTHETIC)
            try:
                harness._train_and_eval_classifier(config, leaky, leaky, [], [8], None, 0)
            except harness.LeakError as exc:
                print(exc)
        """)
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["val/test overlap in fold 0",
                                              "synthetic data leaked into test"]

    def test_run_report_roundtrips_through_json(self, tmp_path):
        report = harness.run_regime(small_config())
        path = tmp_path / "run.json"
        harness.write_run_json(report, path)
        stored = harness.load_run_json(path)
        # stored aggregates recompute exactly from stored entries
        accs = [row["accuracy"] for row in stored["entries"]]
        assert stored["aggregate"]["mean"]["accuracy"] == pytest.approx(
            float(np.mean(accs)), abs=0)


class TestCLI:
    def run_cli(self, *argv):
        return cli_main(list(argv))

    def test_synth_data_writes_fixture(self, tmp_path):
        out = tmp_path / "data"
        code = self.run_cli("synth-data", "--classes", "4", "--per-class", "30",
                            "--dims", "16,16,16", "--seed", "7", "--out", str(out))
        assert code == 0
        vvols = list(out.glob("*.vvol"))
        assert len(vvols) == 120
        assert (out / "manifest.csv").exists()
        assert (out / "classes.txt").exists()

    def test_convert_npy(self, tmp_path, rng):
        src = tmp_path / "vol.npy"
        np.save(src, rng.uniform(size=(4, 5, 6)).astype(np.float32))
        out = tmp_path / "vol.vvol"
        assert self.run_cli("convert", "--input", str(src), "--out", str(out)) == 0
        from volsynth.volumes import read_volume
        assert read_volume(out).dims == (4, 5, 6)

    def test_unknown_subcommand_exits_2(self, capsys):
        assert self.run_cli("frobnicate") == 2

    def test_missing_file_exits_1(self, tmp_path):
        code = self.run_cli("train-gmm", "--manifest", str(tmp_path / "nope.csv"),
                            "--out", str(tmp_path / "x.ckpt"))
        assert code == 1

    def test_augment_eval_and_report_deterministic(self, tmp_path):
        config = {
            "dataset": {"kind": "blob", "num_classes": 3, "per_class": 9,
                        "dims": [8, 8, 8], "seed": 4},
            "regime": ["real", "real_noise", "real_synth"],
            "generator": ["gmm"],
            "classifier": ["svm"],
            "synth_per_class": 3,
            "noise_per_class": 2,
            "noise_variance": 0.01,
            "split": {"kind": "kfold", "k": 3, "min_class_size": 3},
            "repeats": 1,
            "seed": 5,
            "models": {"svm": {"epochs": 60}, "gmm": {"num_components": 1}},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out1 = tmp_path / "runs1"
        out2 = tmp_path / "runs2"
        assert self.run_cli("augment-eval", "--config", str(cfg_path),
                            "--out", str(out1)) == 0
        assert self.run_cli("augment-eval", "--config", str(cfg_path),
                            "--out", str(out2)) == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        for name in names:
            with open(out1 / name, "rb") as fa, open(out2 / name, "rb") as fb:
                assert fa.read() == fb.read(), name

        header = open(out1 / "report.csv").readline().strip()
        assert header == "input,gen_model,classifier,accuracy,macro_f1,precision,recall"
        rows = open(out1 / "report.csv").read().strip().split("\n")
        assert len(rows) == 4      # header + Real + Real+noise + Real+Synth
        assert rows[1].startswith("Real,-,SVM,")
        assert rows[2].startswith("Real+noise,-,SVM,")
        assert rows[3].startswith("Real+Synth.,GMM,SVM,")

        variance = open(out1 / "variance.csv").read().strip().split("\n")
        assert variance[0] == header
        # run_real_noise_* sorts before run_real_none_*: report must not
        # take the file-name order
        tables = {n: (out1 / n).read_bytes() for n in ("report.csv", "variance.csv")}
        assert self.run_cli("report", "--runs", str(out1)) == 0
        for name, before in tables.items():
            assert (out1 / name).read_bytes() == before, name

    def test_entry_point_runs(self):
        result = subprocess.run([sys.executable, "-m", "volsynth.cli", "--help"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert "augment-eval" in result.stdout


class TestSampleCLI:
    def test_gmm_checkpoint_sample_round_trip(self, tmp_path):
        data = tmp_path / "data"
        assert cli_main(["synth-data", "--classes", "2", "--per-class", "8",
                         "--dims", "8,8,8", "--seed", "3", "--out", str(data)]) == 0
        ckpt = tmp_path / "gmm.ckpt"
        assert cli_main(["train-gmm", "--manifest", str(data / "manifest.csv"),
                         "--out", str(ckpt), "--seed", "1"]) == 0
        samples = tmp_path / "samples"
        assert cli_main(["sample", "--checkpoint", str(ckpt), "--class-index", "1",
                         "-n", "5", "--seed", "2", "--out", str(samples)]) == 0
        assert len(list(samples.glob("*.vvol"))) == 5

        # identical rerun overwrites with identical bytes
        before = {p.name: p.read_bytes() for p in samples.glob("*")}
        assert cli_main(["sample", "--checkpoint", str(ckpt), "--class-index", "1",
                         "-n", "5", "--seed", "2", "--out", str(samples)]) == 0
        after = {p.name: p.read_bytes() for p in samples.glob("*")}
        assert before == after

        # the samples form a dataset that --manifest commands read
        assert (samples / "classes.txt").read_text() == "class_0\nclass_1\n"
        assert cli_main(["train-gmm", "--manifest", str(samples / "manifest.csv"),
                         "--out", str(tmp_path / "again.ckpt")]) == 0
