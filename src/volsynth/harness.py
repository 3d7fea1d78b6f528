"""Orchestrates the augmentation comparison.

For every (fold, repeat) cell: split the data, compute the mask from the
training split only, train the chosen generator on that training split,
synthesize (or noise-augment) extra training volumes, train the classifier,
select on validation, and evaluate on the real-only test split. Synthetic and
noisy volumes never reach validation or test.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import classifiers as clf
from . import cvae as cvae_mod
from . import gmm as gmm_mod
from . import icwgan as gan_mod
from . import nn
from .datasets import (NOISY, REAL, SYNTHETIC, load_dataset, make_blob_dataset,
                       split_by_class_size, stratified_kfold)
from .volumes import add_gaussian_noise, apply_mask, compute_mask

REGIMES = ("real", "real_noise", "real_synth")
GENERATOR_KINDS = ("gmm", "cvae", "icwgan")
CLASSIFIER_KINDS = ("svm", "dnn")

REGIME_LABELS = {"real": "Real", "real_noise": "Real+noise", "real_synth": "Real+Synth."}
GENERATOR_LABELS = {None: "-", "gmm": "GMM", "cvae": "CVAE", "icwgan": "ICW-GAN"}

REPORT_HEADER = "input,gen_model,classifier,accuracy,macro_f1,precision,recall"

METRIC_NAMES = ("accuracy", "macro_f1", "precision", "recall")


class ConfigError(ValueError):
    pass


class LeakError(RuntimeError):
    """Indices or non-real volumes crossed from training into validation or test."""


_KNOWN_KEYS = {
    "dataset", "regime", "generator", "classifier", "synth_per_class",
    "noise_per_class", "noise_variance", "split", "repeats", "seed",
    "mask_strategy", "single_model", "models", "output_dir",
}


@dataclass
class ExperimentConfig:
    dataset: dict
    regime: str = "real"
    generator: str | None = None
    classifier: str = "dnn"
    synth_per_class: int = 0
    noise_per_class: int = 0
    noise_variance: float = 0.0
    split: dict = field(default_factory=lambda: {"kind": "kfold", "k": 3})
    repeats: int = 3
    seed: int = 0
    mask_strategy: str = "nonconstant"
    single_model: bool = False
    models: dict = field(default_factory=dict)
    output_dir: str | None = None

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}; expected one of {REGIMES}")
        if self.classifier not in CLASSIFIER_KINDS:
            raise ConfigError(
                f"unknown classifier {self.classifier!r}; expected one of {CLASSIFIER_KINDS}")
        if self.regime == "real_synth":
            if self.generator not in GENERATOR_KINDS:
                raise ConfigError(
                    f"real_synth requires a generator from {GENERATOR_KINDS}")
            if self.synth_per_class <= 0:
                raise ConfigError("real_synth requires synth_per_class > 0")
        else:
            if self.synth_per_class != 0:
                raise ConfigError(f"synth_per_class must be 0 for regime {self.regime!r}")
            if self.generator is not None:
                raise ConfigError(f"generator must be absent for regime {self.regime!r}")
        if self.regime == "real_noise":
            if self.noise_variance <= 0:
                raise ConfigError("real_noise requires noise_variance > 0")
            if self.noise_per_class <= 0:
                raise ConfigError("real_noise requires noise_per_class > 0")
        else:
            if self.noise_variance != 0:
                raise ConfigError(f"noise_variance must be 0 for regime {self.regime!r}")
            if self.noise_per_class != 0:
                raise ConfigError(f"noise_per_class must be 0 for regime {self.regime!r}")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")

    @classmethod
    def from_dict(cls, raw):
        unknown = set(raw) - _KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "dataset" not in raw:
            raise ConfigError("config requires a 'dataset' block")
        return cls(**raw)


def load_config_dataset(spec):
    kind = spec.get("kind")
    if kind == "manifest":
        return load_dataset(spec["path"])
    if kind == "blob":
        return make_blob_dataset(
            num_classes=spec.get("num_classes", 4),
            per_class=spec.get("per_class", 30),
            dims=tuple(spec.get("dims", (16, 16, 16))),
            seed=spec.get("seed", 0))
    raise ConfigError(f"unknown dataset kind {kind!r} (expected 'manifest' or 'blob')")


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def _cells_for_split(dataset, split, rng_seed):
    """List of (train, val, test) index triples, one per fold."""
    kind = split.get("kind", "kfold")
    if kind == "ratio":
        result = split_by_class_size(dataset, rng_seed)
        return [(result.train, result.validation, result.test)]
    if kind == "fixed":
        need = ("train_per_class", "test_per_class")
        for key in need:
            if key not in split:
                raise ConfigError(f"fixed split requires {key!r}")
        n_train = split["train_per_class"]
        n_val = split.get("val_per_class", 0)
        n_test = split["test_per_class"]
        rng = np.random.default_rng(rng_seed)
        train, val, test = [], [], []
        for c in range(dataset.num_classes):
            members = dataset.class_indices(c)
            if members.size < n_train + n_val + n_test:
                raise ConfigError(
                    f"class {c} has {members.size} samples, fixed split needs "
                    f"{n_train + n_val + n_test}")
            order = rng.permutation(members)
            train.extend(int(i) for i in order[:n_train])
            val.extend(int(i) for i in order[n_train:n_train + n_val])
            test.extend(int(i) for i in order[n_train + n_val:n_train + n_val + n_test])
        return [(train, val, test)]
    if kind == "kfold":
        k = split.get("k", 3)
        min_size = split.get("min_class_size", 30)
        keep = [c for c in range(dataset.num_classes)
                if dataset.class_indices(c).size >= max(min_size, k)]
        kept_indices = [i for i in range(len(dataset)) if dataset.labels[i] in keep]
        sub = dataset.subset(kept_indices)
        folds = stratified_kfold(sub, k, rng_seed)
        back = np.asarray(kept_indices)
        cells = []
        for f in range(k):
            test = [int(back[i]) for i in folds[f]]
            trainval_local = [i for g in range(k) if g != f for i in folds[g]]
            rng = np.random.default_rng(rng_seed + f + 1)
            train, val = _carve_validation(dataset, back, trainval_local, rng)
            cells.append((train, val, test))
        return cells
    raise ConfigError(f"unknown split kind {kind!r}")


def _carve_validation(dataset, back, trainval_local, rng):
    """Per-class validation share mirroring the ratio rules (1/8 large, 1/4 small)."""
    trainval = np.asarray([int(back[i]) for i in trainval_local])
    train, val = [], []
    labels = dataset.labels[trainval]
    for c in np.unique(labels):
        members = trainval[labels == c]
        n_total = dataset.class_indices(c).size
        frac = 0.125 if n_total >= 100 else 0.25
        n_val = int(round(members.size * frac))
        order = rng.permutation(members)
        val.extend(int(i) for i in order[:n_val])
        train.extend(int(i) for i in order[n_val:])
    return train, val


# ---------------------------------------------------------------------------
# model config blocks
# ---------------------------------------------------------------------------

class GeneratorKind(NamedTuple):
    """How the harness and the CLI train, sample and load one generator kind."""

    fit: Callable      # (dataset, train indices, models block, seed, mask) -> model
    sample: Callable   # (model, class index, count, seed) -> [Volume]
    load: Callable     # (checkpoint path) -> model


# entries look functions up through their modules at call time, so a caller
# that replaces a module attribute (a tracer, a test) sees every call
GENERATORS = {
    "gmm": GeneratorKind(
        fit=lambda dataset, idx, models, seed, mask: gmm_mod.fit_class_gmms(
            dataset, mask, nn.model_config(gmm_mod.EMConfig, models.get("gmm", {}), seed=seed),
            indices=idx),
        sample=lambda model, c, count, seed: model.sample_volumes(c, count, seed),
        load=lambda path: gmm_mod.load_gmm(path)),
    "cvae": GeneratorKind(
        fit=lambda dataset, idx, models, seed, mask: cvae_mod.train_cvae(
            dataset.subset(idx),
            nn.model_config(cvae_mod.CVAEConfig, models.get("cvae", {}), seed=seed))[0],
        sample=lambda model, c, count, seed: cvae_mod.sample_cvae(model, c, count, seed),
        load=lambda path: cvae_mod.load_cvae(path)[0]),
    "icwgan": GeneratorKind(
        fit=lambda dataset, idx, models, seed, mask: gan_mod.train_icwgan(
            dataset.subset(idx),
            nn.model_config(gan_mod.GANConfig, models.get("icwgan", {}), seed=seed))[0],
        sample=lambda gen, c, count, seed: gan_mod.sample_gan(gen, c, count, seed),
        load=lambda path: gan_mod.load_gan(path)[0]),
}


# ---------------------------------------------------------------------------
# run report
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    regime: str
    generator: str | None
    classifier: str
    entries: dict = field(default_factory=dict)     # (fold, repeat) -> MetricsReport
    timings: dict = field(default_factory=dict)     # phase -> seconds (not serialized)

    def aggregate(self):
        return aggregate(self.entries)

    def to_dict(self):
        rows = []
        for (fold, repeat), rep in sorted(self.entries.items()):
            rows.append({
                "fold": fold, "repeat": repeat,
                "accuracy": rep.accuracy, "macro_f1": rep.macro_f1,
                "precision": rep.precision, "recall": rep.recall,
            })
        return {
            "regime": self.regime,
            "generator": self.generator,
            "classifier": self.classifier,
            "entries": rows,
            "aggregate": self.aggregate(),
        }


def aggregate(entries):
    """Means over all cells; population variance across fold means.

    ``entries`` is a {(fold, repeat): MetricsReport} mapping or a plain list
    of MetricsReport treated as one fold per entry.
    """
    if isinstance(entries, (list, tuple)):
        entries = {(i, 0): rep for i, rep in enumerate(entries)}
    if not entries:
        raise ValueError("aggregate requires at least one report")
    out = {"mean": {}, "variance": {}}
    folds = sorted({fold for fold, _ in entries})
    for i, name in enumerate(METRIC_NAMES):
        values = np.array([rep.as_row()[i] for rep in entries.values()])
        fold_means = np.array([
            np.mean([rep.as_row()[i] for (f, _), rep in entries.items() if f == fold])
            for fold in folds
        ])
        out["mean"][name] = float(values.mean())
        out["variance"][name] = float(((fold_means - fold_means.mean()) ** 2).mean())
    return out


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def _phase_seeds(base_seed, fold, repeat):
    ss = np.random.SeedSequence([int(base_seed), int(fold), int(repeat)])
    children = ss.spawn(4)
    return [int(c.generate_state(1)[0]) for c in children]


def _train_generator(kind, dataset, train_idx, cfg_models, seed, mask):
    """(kind, model) trained on ``train_idx`` only."""
    return kind, GENERATORS[kind].fit(dataset, train_idx, cfg_models, seed, mask)


def _augment(config, dataset, train_idx, trained_generator, synth_seed, noise_seed):
    """Training dataset plus synthetic or noisy volumes (train split only)."""
    train_ds = dataset.subset(train_idx)
    if config.regime == "real":
        return train_ds
    classes_present = sorted(set(int(c) for c in train_ds.labels))
    if config.regime == "real_synth":
        kind, model = trained_generator
        volumes, labels = [], []
        for i, c in enumerate(classes_present):
            volumes.extend(GENERATORS[kind].sample(model, c, config.synth_per_class,
                                                   synth_seed + i))
            labels.extend([c] * config.synth_per_class)
        return train_ds.extended(volumes, labels, SYNTHETIC)
    rng = np.random.default_rng(noise_seed)
    volumes, labels = [], []
    for c in classes_present:
        members = train_ds.class_indices(c)
        picks = rng.choice(members, size=config.noise_per_class, replace=True)
        for j, src in enumerate(picks):
            volumes.append(add_gaussian_noise(train_ds.volumes[int(src)],
                                              config.noise_variance,
                                              noise_seed + 7919 * j + int(src)))
            labels.append(c)
    return train_ds.extended(volumes, labels, NOISY)


def _train_and_eval_classifier(config, dataset, aug_train, val_idx, test_idx,
                               mask, clf_seed):
    num_classes = dataset.num_classes
    test_ds = dataset.subset(test_idx)
    if any(p != REAL for p in test_ds.provenance):
        raise LeakError("synthetic data leaked into test")
    if any(dataset.provenance[i] != REAL for i in val_idx):
        raise LeakError("synthetic data leaked into validation")
    if config.classifier == "svm":
        block = dict(config.models.get("svm", {}))
        features = np.asarray([apply_mask(v, mask) for v in aug_train.volumes])
        model = clf.train_svm(features, aug_train.labels,
                              reg_c=block.get("reg_c", 1.0),
                              epochs=block.get("epochs", 300),
                              seed=clf_seed, mask=mask)
        test_features = np.asarray([apply_mask(v, mask) for v in test_ds.volumes])
        preds = model.predict(test_features)
    else:
        dnn_cfg = nn.model_config(clf.DNNConfig, config.models.get("dnn", {}), seed=clf_seed)
        val_volumes = dataset.subset(val_idx).stack(np.float32) if val_idx else None
        val_labels = dataset.labels[list(val_idx)] if val_idx else None
        model, _ = clf.train_dnn_classifier(
            aug_train.stack(np.float32), aug_train.labels, dnn_cfg,
            num_classes=num_classes, val_volumes=val_volumes, val_labels=val_labels)
        preds = model.predict(test_ds.stack(np.float32))
    return clf.evaluate(preds, test_ds.labels, num_classes)


def run_regime(config, dataset=None, log=None):
    """Execute all (fold, repeat) cells for one regime/classifier pair."""
    if dataset is None:
        dataset = load_config_dataset(config.dataset)
    report = RunReport(regime=config.regime, generator=config.generator,
                       classifier=config.classifier)
    cells = _cells_for_split(dataset, config.split, config.seed)
    single_generator = None
    if config.single_model and config.regime == "real_synth":
        # paper-fidelity mode: one generator fit on the full dataset, reused
        # across folds; leaks fold information by design
        seeds = _phase_seeds(config.seed, 0, 0)
        mask_all = compute_mask(dataset.volumes, strategy=config.mask_strategy)
        single_generator = _train_generator(config.generator, dataset,
                                            list(range(len(dataset))),
                                            config.models, seeds[0], mask_all)
    for repeat in range(config.repeats):
        for fold, (train_idx, val_idx, test_idx) in enumerate(cells):
            t0 = time.time()
            for a, b, what in ((train_idx, val_idx, "train/val"),
                               (train_idx, test_idx, "train/test"),
                               (val_idx, test_idx, "val/test")):
                if set(a) & set(b):
                    raise LeakError(f"{what} overlap in fold {fold}")
            gen_seed, synth_seed, noise_seed, clf_seed = _phase_seeds(
                config.seed, fold, repeat)
            mask = compute_mask([dataset.volumes[i] for i in train_idx],
                                strategy=config.mask_strategy)
            trained_generator = single_generator
            if config.regime == "real_synth" and trained_generator is None:
                trained_generator = _train_generator(
                    config.generator, dataset, train_idx, config.models, gen_seed, mask)
            aug_train = _augment(config, dataset, train_idx, trained_generator,
                                 synth_seed, noise_seed)
            metrics = _train_and_eval_classifier(
                config, dataset, aug_train, val_idx, test_idx, mask, clf_seed)
            report.entries[(fold, repeat)] = metrics
            report.timings[(fold, repeat)] = time.time() - t0
            if log:
                log(f"fold {fold} repeat {repeat}: accuracy {metrics.accuracy:.4f} "
                    f"({report.timings[(fold, repeat)]:.1f}s)")
    return report


# ---------------------------------------------------------------------------
# table output
# ---------------------------------------------------------------------------

def write_run_json(report, path):
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_run_json(path):
    with open(path) as fh:
        return json.load(fh)


def _table_order(run):
    """Canonical row order: regime, then no generator before each kind, then classifier."""
    return (REGIMES.index(run["regime"]),
            ((None,) + GENERATOR_KINDS).index(run.get("generator")),
            CLASSIFIER_KINDS.index(run["classifier"]))


def rows_from_stored(runs, which="mean"):
    """The mean or variance table of stored runs (``RunReport.to_dict()`` form)."""
    rows = [REPORT_HEADER]
    for run in sorted(runs, key=_table_order):
        agg = run["aggregate"][which]
        rows.append(",".join([
            REGIME_LABELS[run["regime"]],
            GENERATOR_LABELS[run.get("generator")],
            run["classifier"].upper(),
            repr(agg["accuracy"]), repr(agg["macro_f1"]),
            repr(agg["precision"]), repr(agg["recall"]),
        ]))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# the desk-scale blob benchmark (fixed split, one seed per call)
# ---------------------------------------------------------------------------

BLOB_BENCH_DEFAULTS = dict(num_classes=4, dims=(16, 16, 16),
                           train_per_class=30, test_per_class=100)


def blob_fixture_profiles():
    """Model hyperparameter blocks sized for the 16^3 blob benchmark."""
    return {
        "gmm": {"num_components": 1, "max_iters": 50},
        "cvae": {
            "latent_dim": 32, "batch_size": 30, "learning_rate": 1e-3,
            "epochs": 40, "enc_channels": (6, 12, 24, 48),
            "dec_channels": (48, 24, 12, 6),
        },
        "icwgan": {
            "z_dim": 32, "batch_size": 30, "learning_rate": 5e-4,
            "epochs": 300, "gen_channels": (32, 16, 8, 4),
            "disc_channels": (4, 8, 16, 32), "critic_iters": 5,
        },
        "dnn": {
            "channels": (6, 12, 24, 48), "batch_size": 30,
            "learning_rate": 1e-3, "epochs": 25,
        },
        "svm": {"reg_c": 1.0, "epochs": 300},
    }


def blob_benchmark(seed, profiles=None, log=None, **overrides):
    """One seed of the desk-scale augmentation benchmark.

    Returns real / GMM-augmented DNN accuracies, CVAE and ICW-GAN oracle
    label-consistency, and the oracle's own real-test accuracy.
    """
    params = dict(BLOB_BENCH_DEFAULTS)
    params.update(overrides)
    profiles = profiles or blob_fixture_profiles()
    per_class = params["train_per_class"] + params["test_per_class"]
    dataset = make_blob_dataset(params["num_classes"], per_class, params["dims"],
                                seed=seed)
    [(train_idx, _, test_idx)] = _cells_for_split(
        dataset, {"kind": "fixed", "train_per_class": params["train_per_class"],
                  "test_per_class": params["test_per_class"]}, seed)
    train_ds = dataset.subset(train_idx)
    test_ds = dataset.subset(test_idx)
    mask = compute_mask(train_ds.volumes, strategy="nonconstant")
    results = {"seed": seed}

    def say(msg):
        if log:
            log(msg)

    dnn_cfg = clf.DNNConfig(seed=seed, **profiles["dnn"])

    def dnn_accuracy(train):
        model, _ = clf.train_dnn_classifier(train.stack(np.float32), train.labels,
                                            dnn_cfg, num_classes=dataset.num_classes)
        return float((model.predict(test_ds.stack(np.float32)) == test_ds.labels).mean())

    t0 = time.time()
    results["real_accuracy"] = dnn_accuracy(train_ds)
    say(f"[seed {seed}] DNN real accuracy {results['real_accuracy']:.4f} "
        f"({time.time() - t0:.0f}s)")

    t0 = time.time()
    gmodel = GENERATORS["gmm"].fit(dataset, train_idx, profiles, seed, mask)
    volumes, labels = [], []
    for c in range(dataset.num_classes):
        volumes.extend(gmodel.sample_volumes(c, params["train_per_class"], seed + 101 + c))
        labels.extend([c] * params["train_per_class"])
    results["gmm_aug_accuracy"] = dnn_accuracy(train_ds.extended(volumes, labels, SYNTHETIC))
    say(f"[seed {seed}] DNN real+GMM accuracy {results['gmm_aug_accuracy']:.4f} "
        f"({time.time() - t0:.0f}s)")

    # oracle: linear SVM on masked real training voxels
    features = np.asarray([apply_mask(v, mask) for v in train_ds.volumes])
    svm_block = profiles["svm"]
    oracle = clf.train_svm(features, train_ds.labels, reg_c=svm_block["reg_c"],
                           epochs=svm_block["epochs"], seed=seed, mask=mask)
    test_features = np.asarray([apply_mask(v, mask) for v in test_ds.volumes])
    results["oracle_accuracy"] = float(
        (oracle.predict(test_features) == test_ds.labels).mean())
    say(f"[seed {seed}] oracle SVM accuracy {results['oracle_accuracy']:.4f}")

    # share of 50 samples per class that the oracle labels as their class
    for kind, key, seed_offset in (("cvae", "cvae_consistency", 300),
                                   ("icwgan", "gan_consistency", 400)):
        t0 = time.time()
        generator = GENERATORS[kind]
        model = generator.fit(dataset, train_idx, profiles, seed, mask)
        hits = 0
        for c in range(dataset.num_classes):
            samples = generator.sample(model, c, 50, seed + seed_offset + c)
            feats = np.asarray([apply_mask(v, mask) for v in samples])
            hits += int((oracle.predict(feats) == c).sum())
        results[key] = hits / (50 * dataset.num_classes)
        say(f"[seed {seed}] {GENERATOR_LABELS[kind]} consistency {results[key]:.4f} "
            f"({time.time() - t0:.0f}s)")
    return results


def log_stderr(msg):
    print(msg, file=sys.stderr)
