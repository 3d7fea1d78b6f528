"""The benchmark's workloads: set-up, one timed round, and its checks.

Each workload builds its inputs from the seed in ``setup`` (repeated, so the
set-up time is a median and the repeats must agree byte for byte), runs a
fixed round of calls into volsynth's public functions in ``round``, and
checks the round's outputs with :mod:`checks`, which does not use the
program. Program calls go through module attributes (``vs.icwgan.sample_gan``)
so that a traced round sees them through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys

import numpy as np

import checks

# desk: the blob_benchmark protocol on one seed
DESK_CLASSES, DESK_DIMS = 4, (16, 16, 16)
DESK_TRAIN, DESK_TEST = 30, 100
# ICW-GAN epochs: the profile's 300 take about two minutes, too long for a
# run. Label conditioning appears between about 90 and 150 epochs depending
# on the seed: at 150, nearest-class-mean consistency over seeds 0-12 was
# 0.55-1.0, with one seed in four still between 0.55 and 0.65. 160 epochs
# and a bar of 0.4 leave margin (chance is 0.25; 0.4 is about five binomial
# standard deviations above it for 200 samples).
DESK_GAN_EPOCHS = 160
DESK_SAMPLES = 50
MIN_CONSISTENCY = 0.4
MIN_DNN_ACCURACY = 0.90        # acceptance criterion 7

# sweep: augment-eval over real / real_noise / real_synth(GMM) x SVM / DNN
SWEEP_PER_CLASS = 30
SWEEP_FOLDS, SWEEP_REPEATS = 3, 1
SWEEP_CELLS = 6

# desk's sampling from checkpoints: per-call counts large enough that
# inference memory shows in RSS
SAMPLE_COUNT = 1000
SAMPLE_KINDS = ("gmm", "cvae", "icwgan")
SAMPLE_CHECK_ROWS = (0, SAMPLE_COUNT // 2, SAMPLE_COUNT - 1)


@contextlib.contextmanager
def quiet():
    """Keep the CLI's own progress lines off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def cli(vs, *argv):
    with quiet():
        code = vs.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"volsynth {argv[0]} exited with {code}")


def _json_block(block):
    """A model block of ``blob_fixture_profiles()`` as JSON config values."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in block.items()}


def tree_digest(root):
    """sha256 over every file's relative path and bytes under ``root``."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Workload:
    """One workload; ``attempted`` is the number of operations in a round.

    A traced run measures the tracing overhead with an untraced round after
    the first traced one, unless ``overhead_round`` is false.
    """

    attempted = 0
    overhead_round = True

    def __init__(self, vs, seed, workdir):
        self.vs = vs
        self.seed = seed
        self.workdir = workdir

    def fingerprint(self, state):
        """Bytes that two set-ups from one seed must reproduce exactly."""
        raise NotImplementedError

    def failed_ops(self, out):
        """Operations of the round that failed without stopping it."""
        return 0


def _mtimes(directory):
    """Modification time (ns) of every file in ``directory``, by path."""
    if not os.path.isdir(directory):
        return {}
    return {e.path: e.stat().st_mtime_ns for e in os.scandir(directory)}


def not_rewritten(stamps, directory):
    """Files of ``directory`` whose modification time is still the one in
    ``stamps``; ``stamps`` then takes the directory's current times."""
    now = _mtimes(directory)
    stale = sorted(path for path, t in now.items() if stamps.get(path) == t)
    stamps.update(now)
    return stale


class Desk(Workload):
    """DNN, GMM + DNN, CVAE and ICW-GAN training, then sampling, on one seed.

    After training, the round saves the three generators as checkpoints and
    runs ``volsynth sample`` on each: one call per generator, for class
    (seed + k) % 4, of SAMPLE_COUNT volumes, into ``out/samples/<kind>-c<class>``,
    then reads every file back. Those directories stay between runs, so a
    call overwrites the same file names in place and no run deletes
    thousands of files (on a disk that discards freed blocks, mass deletes
    slow the file creation that follows). The check therefore requires every
    file in a call's directory to have been rewritten since the last look.

    A round takes over a minute, so a traced run has no untraced round: two
    rounds would bring it near the three-minute limit of a run. Its tracing
    overhead is estimated from the span count instead.
    """

    attempted = 19 + 3 * len(SAMPLE_KINDS)
    overhead_round = False

    def __init__(self, vs, seed, workdir):
        super().__init__(vs, seed, workdir)
        self.root = os.path.join(os.path.dirname(workdir), "samples")
        self.stamps = {}
        for kind, c, _ in self._calls():
            self.stamps.update(_mtimes(self._dir(kind, c)))

    def setup(self, out_dir):
        vs, seed = self.vs, self.seed
        per_class = DESK_TRAIN + DESK_TEST
        dataset = vs.datasets.make_blob_dataset(DESK_CLASSES, per_class, DESK_DIMS, seed=seed)
        rng = np.random.default_rng(seed)
        train, test = [], []
        for c in range(DESK_CLASSES):
            members = rng.permutation(dataset.class_indices(c))
            train.extend(int(i) for i in members[:DESK_TRAIN])
            test.extend(int(i) for i in members[DESK_TRAIN:per_class])
        train_ds, test_ds = dataset.subset(train), dataset.subset(test)
        return {
            "train": train_ds,
            "test": test_ds,
            "x_train": train_ds.stack(np.float32),
            "x_test": test_ds.stack(np.float32),
            "mask": vs.volumes.compute_mask(train_ds.volumes, strategy="nonconstant"),
        }

    def fingerprint(self, state):
        h = hashlib.sha256(state["x_train"].tobytes())
        h.update(state["x_test"].tobytes())
        h.update(state["mask"].bits.tobytes())
        return h.hexdigest()

    def round(self, state):
        vs, seed = self.vs, self.seed
        train, test = state["train"], state["test"]
        profiles = vs.harness.blob_fixture_profiles()
        out = {}
        dnn_cfg = vs.classifiers.DNNConfig(seed=seed, **profiles["dnn"])
        model, _ = vs.classifiers.train_dnn_classifier(
            state["x_train"], train.labels, dnn_cfg, num_classes=DESK_CLASSES)
        out["pred_real"] = model.predict(state["x_test"])

        gmm_cfg = vs.gmm.EMConfig(seed=seed, **profiles["gmm"])
        gmodel = vs.gmm.fit_class_gmms(train, state["mask"], gmm_cfg)
        out["gmm"] = {c: gmodel.sample_volumes(c, DESK_TRAIN, seed + 101 + c)
                      for c in range(DESK_CLASSES)}
        vols = [v for c in range(DESK_CLASSES) for v in out["gmm"][c]]
        labels = [c for c in range(DESK_CLASSES) for _ in out["gmm"][c]]
        aug = train.extended(vols, labels, vs.datasets.SYNTHETIC)
        model_aug, _ = vs.classifiers.train_dnn_classifier(
            aug.stack(np.float32), aug.labels, dnn_cfg, num_classes=DESK_CLASSES)
        out["pred_aug"] = model_aug.predict(state["x_test"])

        cvae_cfg = vs.cvae.CVAEConfig(seed=seed, **profiles["cvae"])
        cmodel, _ = vs.cvae.train_cvae(train, cvae_cfg)
        out["cvae"] = {c: vs.cvae.sample_cvae(cmodel, c, DESK_SAMPLES, seed + 300 + c)
                       for c in range(DESK_CLASSES)}

        gan_cfg = vs.icwgan.GANConfig(
            seed=seed, **dict(profiles["icwgan"], epochs=DESK_GAN_EPOCHS))
        gen, disc, log = vs.icwgan.train_icwgan(train, gan_cfg)
        out["gan_log"] = log.entries
        out["icwgan"] = {c: vs.icwgan.sample_gan(gen, c, DESK_SAMPLES, seed + 400 + c)
                         for c in range(DESK_CLASSES)}

        ckpts = out["ckpts"] = {kind: os.path.join(self.workdir, f"{kind}.ckpt")
                                for kind in SAMPLE_KINDS}
        vs.gmm.save_gmm(gmodel, ckpts["gmm"])
        vs.cvae.save_cvae(cmodel, ckpts["cvae"])
        vs.icwgan.save_gan(gen, disc, ckpts["icwgan"], train.dims, DESK_CLASSES, gan_cfg)
        for kind, c, sample_seed in self._calls():
            out_dir = self._dir(kind, c)
            cli(vs, "sample", "--checkpoint", ckpts[kind], "--class-index", c,
                "-n", SAMPLE_COUNT, "--seed", sample_seed, "--out", out_dir)
            with open(os.path.join(out_dir, "manifest.csv")) as fh:
                names = [line.split(",")[0] for line in fh if line.strip()]
            back = [vs.volumes.read_volume(os.path.join(out_dir, n)) for n in names]
            if len(back) != SAMPLE_COUNT:
                raise RuntimeError(f"{out_dir}: read back {len(back)} volumes")
        return out

    def _calls(self):
        """(kind, class index, sampling seed) of each ``volsynth sample`` call."""
        return [(kind, (self.seed + k) % 4, 7919 * self.seed + k)
                for k, kind in enumerate(SAMPLE_KINDS)]

    def _dir(self, kind, class_index):
        return os.path.join(self.root, f"{kind}-c{class_index}")

    def check(self, state, out):
        fails = check_desk(state["train"], state["test"].labels, out)
        for kind, c, seed in self._calls():
            out_dir = self._dir(kind, c)
            stale = not_rewritten(self.stamps, out_dir)
            if stale:
                fails.append(f"{kind} class {c}: {len(stale)} files not rewritten, "
                             f"first {stale[0]}")
            extra, arrays = checks.read_checkpoint(out["ckpts"][kind])
            fails += checks.check_sample_dir(extra, arrays, c, seed, out_dir,
                                             SAMPLE_COUNT, DESK_DIMS, SAMPLE_CHECK_ROWS)
        return fails


def check_desk(train, test_labels, out):
    fails = []
    real = checks.accuracy(out["pred_real"], test_labels)
    aug = checks.accuracy(out["pred_aug"], test_labels)
    if real < MIN_DNN_ACCURACY:
        fails.append(f"DNN real-data test accuracy {real:.4f} < {MIN_DNN_ACCURACY}")
    if aug < real - 0.02:
        fails.append(f"DNN real+GMM test accuracy {aug:.4f} < real {real:.4f} - 0.02")
    ncm = checks.NearestClassMean([v.data for v in train.volumes], train.labels)
    scores = {"dnn_real_accuracy": real, "dnn_gmm_accuracy": aug}
    for kind in ("gmm", "cvae", "icwgan"):
        samples = {c: [v.data for v in vols] for c, vols in out[kind].items()}
        for c, vols in samples.items():
            fails += checks.check_unit_range(f"{kind} class {c}", vols, train.dims)
        score = scores[f"{kind}_consistency"] = checks.label_consistency(ncm, samples)
        if score < MIN_CONSISTENCY:
            fails.append(f"{kind} label consistency {score:.3f} < {MIN_CONSISTENCY}")
    bad = [e for e in out["gan_log"] if not (np.isfinite(e[2]) and np.isfinite(e[3]))]
    if bad or not out["gan_log"]:
        fails.append(f"{len(bad)} non-finite ICW-GAN losses in {len(out['gan_log'])} steps")
    print("desk: " + ", ".join(f"{k} {v:.4f}" for k, v in scores.items()), file=sys.stderr)
    return fails


def _read_tables(runs):
    out = {}
    for name in ("report.csv", "variance.csv"):
        with open(os.path.join(runs, name), "rb") as fh:
            out[name] = fh.read()
    return out


class Sweep(Workload):
    """``volsynth augment-eval`` then ``volsynth report`` on a blob manifest.

    One round attempts SWEEP_CELLS cells and one report regeneration. The
    regeneration fails every time: ``report`` orders rows by run file name,
    ``augment-eval`` by cell, so the rebuilt tables differ in row order (the
    rows themselves are still checked).
    """

    attempted = SWEEP_CELLS + 1

    def setup(self, out_dir):
        profiles = self.vs.harness.blob_fixture_profiles()
        data = os.path.join(out_dir, "data")
        cli(self.vs, "synth-data", "--classes", 4, "--per-class", SWEEP_PER_CLASS,
            "--dims", "16,16,16", "--seed", self.seed, "--out", data)
        config = {
            "dataset": {"kind": "manifest", "path": os.path.join(data, "manifest.csv")},
            "regime": ["real", "real_noise", "real_synth"],
            "generator": ["gmm"],
            "classifier": ["svm", "dnn"],
            "synth_per_class": 30, "noise_per_class": 30, "noise_variance": 0.01,
            "split": {"kind": "kfold", "k": SWEEP_FOLDS},
            "repeats": SWEEP_REPEATS,
            "seed": self.seed,
            "models": {kind: _json_block(profiles[kind]) for kind in ("gmm", "svm", "dnn")},
        }
        path = os.path.join(out_dir, "experiment.json")
        with open(path, "w") as fh:
            json.dump(config, fh, indent=1)
        return {"dir": out_dir, "config": path, "data": data}

    def fingerprint(self, state):
        return tree_digest(state["data"])

    def round(self, state):
        runs = os.path.join(self.workdir, "runs")
        shutil.rmtree(runs, ignore_errors=True)
        cli(self.vs, "augment-eval", "--config", state["config"], "--out", runs)
        tables = _read_tables(runs)
        cli(self.vs, "report", "--runs", runs)
        return {"dir": runs, "tables": tables, "regenerated": _read_tables(runs)}

    def check(self, state, out):
        runs = {}
        for name in sorted(os.listdir(out["dir"])):
            if name.startswith("run_") and name.endswith(".json"):
                with open(os.path.join(out["dir"], name)) as fh:
                    runs[name] = json.load(fh)
        fails = []
        if len(runs) != SWEEP_CELLS:
            fails.append(f"{len(runs)} run files, expected {SWEEP_CELLS}")
        for tables in (out["tables"], out["regenerated"]):
            fails += checks.check_sweep(runs, tables["report.csv"].decode(),
                                        tables["variance.csv"].decode(),
                                        SWEEP_FOLDS, SWEEP_REPEATS)
        return fails

    def failed_ops(self, out):
        return int(out["tables"] != out["regenerated"])


WORKLOADS = {"desk": Desk, "sweep": Sweep}
