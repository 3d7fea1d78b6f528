"""Orchestrates the augmentation comparison.

For every (fold, repeat) cell: split the data, compute the mask from the
training split only, train the chosen generator on that training split,
synthesize (or noise-augment) extra training volumes, train the classifier,
select on validation, and evaluate on the real-only test split. Synthetic and
noisy volumes never reach validation or test.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import pickle
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import classifiers as clf
from . import cvae as cvae_mod
from . import gmm as gmm_mod
from . import icwgan as gan_mod
from . import nn
from .datasets import (NOISY, REAL, SMALL_CLASS_MIN, SYNTHETIC, VolumeDataset, class_ratios,
                       load_dataset, make_blob_dataset, stratified_kfold)
from .nn import ConfigError
from .volumes import MASK_STRATEGIES, add_gaussian_noise, apply_mask, compute_mask

# the fields each regime uses, each with its unset value; a config sets its
# regime's fields and leaves every other regime's fields unset
REGIME_FIELDS = {"real": {},
                 "real_noise": {"noise_per_class": 0, "noise_variance": 0},
                 "real_synth": {"generator": None, "synth_per_class": 0}}
REGIMES = tuple(REGIME_FIELDS)
GENERATOR_KINDS = ("gmm", "cvae", "icwgan")
CLASSIFIER_KINDS = ("svm", "dnn")

REGIME_LABELS = {"real": "Real", "real_noise": "Real+noise", "real_synth": "Real+Synth."}
GENERATOR_LABELS = {None: "-", "gmm": "GMM", "cvae": "CVAE", "icwgan": "ICW-GAN"}

REPORT_HEADER = "input,gen_model,classifier,accuracy,macro_f1,precision,recall"

METRIC_NAMES = ("accuracy", "macro_f1", "precision", "recall")


class LeakError(RuntimeError):
    """Indices or non-real volumes crossed from training into validation or test."""


# the config class each ``models`` block builds
MODEL_CONFIGS = {"gmm": gmm_mod.EMConfig, "cvae": cvae_mod.CVAEConfig,
                 "icwgan": gan_mod.GANConfig, "svm": clf.SVMConfig, "dnn": clf.DNNConfig}
# the channels field of the strided conv tower each block builds over the data's dims
CONV_CHANNELS = {"dnn": "channels", "cvae": "enc_channels", "icwgan": "disc_channels"}

# {field: default} besides ``kind`` of each dataset and split kind (``nn.read_config``)
DATASET_FIELDS = {"manifest": {"path": str},
                  "blob": {"num_classes": 4, "per_class": 30, "dims": (16, 16, 16), "seed": 0}}
SPLIT_FIELDS = {"ratio": {},
                "fixed": {"train_per_class": int, "val_per_class": 0, "test_per_class": int},
                "kfold": {"k": 3, "min_class_size": SMALL_CLASS_MIN}}


def unused_regime_fields(regime):
    """{field: unset value} of every regime field that ``regime`` does not use."""
    return {name: unset for used in REGIME_FIELDS.values() for name, unset in used.items()
            if regime not in REGIMES or name not in REGIME_FIELDS[regime]}


def model_config(kind, models, seed):
    """``kind``'s config from its block in ``models`` (every field but ``seed``) and the
    caller's ``seed``: a unit's phase seed in a sweep, ``--seed`` in a ``train-*`` command."""
    if kind not in MODEL_CONFIGS:
        raise ConfigError(f"unknown models block {kind!r}; expected one of {tuple(MODEL_CONFIGS)}")
    cls, block = MODEL_CONFIGS[kind], models.get(kind, {})
    if isinstance(block, dict) and "seed" in block:
        raise ConfigError(f"{kind} blocks may not set seed: a model's seed comes from the "
                          f"sweep's seed, fold and repeat, or from --seed")
    return nn.model_config(cls, block, **({"seed": seed} if hasattr(cls, "seed") else {}))


def read_kind_block(name, block, kind_fields, default_kind=None):
    """A ``dataset`` or ``split`` block (a dict) with its kind's defaults filled in."""
    kind = block.get("kind", default_kind)
    if kind not in tuple(kind_fields):
        raise ConfigError(f"unknown {name} kind {kind!r}; expected one of {tuple(kind_fields)}")
    return nn.read_config(block, {"kind": kind, **kind_fields[kind]}, f"{kind} {name}")


@dataclass
class ExperimentConfig(nn.Config):
    dataset: dict
    regime: str = "real"
    generator: str | None = None
    classifier: str = "dnn"
    synth_per_class: int = 0
    noise_per_class: int = 0
    noise_variance: float = 0.0
    split: dict = field(default_factory=lambda: {"kind": "kfold"})
    repeats: int = 3
    seed: int = 0
    mask_strategy: str = "nonconstant"
    single_model: bool = False
    models: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, known in (("regime", REGIMES), ("classifier", CLASSIFIER_KINDS),
                            ("mask_strategy", MASK_STRATEGIES)):
            if getattr(self, name) not in known:
                raise ConfigError(f"unknown {name.replace('_', ' ')} {getattr(self, name)!r}; "
                                  f"expected one of {known}")
        super().__post_init__()
        for name, unset in unused_regime_fields(self.regime).items():
            if getattr(self, name) != unset:
                raise ConfigError(f"{name} must be {unset!r} for regime {self.regime!r}")
        for name in REGIME_FIELDS[self.regime]:
            if name == "generator" and self.generator not in GENERATOR_KINDS:
                raise ConfigError(f"{self.regime} requires a generator from {GENERATOR_KINDS}")
            if name != "generator" and not getattr(self, name) > 0:
                raise ConfigError(f"{self.regime} requires {name} > 0")
        read_kind_block("dataset", self.dataset, DATASET_FIELDS)
        read_kind_block("split", self.split, SPLIT_FIELDS, "kfold")
        for kind in self.models:
            model_config(kind, self.models, self.seed)

    from_dict = classmethod(nn.model_config)


def load_config_dataset(spec):
    spec = read_kind_block("dataset", spec, DATASET_FIELDS)
    if spec.pop("kind") == "manifest":
        return load_dataset(spec["path"])
    return make_blob_dataset(**spec)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def _cells_for_split(dataset, split, rng_seed):
    """List of (train, val, test) index triples, one per fold.

    ``split`` is an ExperimentConfig's, which its ``__post_init__`` has checked.
    ``ratio`` and ``fixed`` cut each class they keep from one permutation of its
    members. ``ratio`` splits classes of >= 100 samples 7:1:2 and of 30..99 3:1:2
    (``class_ratios``) and drops classes under 30; test and validation counts round
    to nearest and are cut first, and train takes the remainder. ``kfold`` drops
    classes under max(min_class_size, k) and folds the rest (``stratified_kfold``).
    """
    split = read_kind_block("split", split, SPLIT_FIELDS, "kfold")
    kind = split["kind"]
    sizes = [int(dataset.class_indices(c).size) for c in range(dataset.num_classes)]
    if kind == "fixed":
        counts = split["train_per_class"], split["val_per_class"], split["test_per_class"]
        keep = range(len(sizes))
    else:
        floor = SMALL_CLASS_MIN if kind == "ratio" else max(split["min_class_size"], split["k"])
        keep = [c for c, size in enumerate(sizes) if size >= floor]
        if not keep:
            raise ConfigError(f"{kind} split keeps no class: class sizes {sizes} are all below "
                              + (f"{floor}" if kind == "ratio" else
                                 f"max(min_class_size, k) = {floor}"))
    if kind == "kfold":
        k = split["k"]
        folds = stratified_kfold(dataset, k, rng_seed, keep)
        cells = []
        for f in range(k):
            trainval = [i for g in range(k) if g != f for i in folds[g]]
            rng = np.random.default_rng(rng_seed + f + 1)
            cells.append((*_carve_validation(dataset, trainval, rng), folds[f]))
        return cells
    rng = np.random.default_rng(rng_seed)
    parts = ([], [], [])    # train, val, test
    for c in keep:
        n = sizes[c]
        if kind == "fixed":
            if n < sum(counts):
                raise ConfigError(f"class {c} has {n} samples, fixed split needs {sum(counts)}")
            cuts = enumerate(counts)
        else:
            r_train, r_val, r_test = class_ratios(n)
            total = r_train + r_val + r_test
            n_test, n_val = round(n * r_test / total), round(n * r_val / total)
            cuts = ((2, n_test), (1, n_val), (0, n - n_test - n_val))
        order = rng.permutation(dataset.class_indices(c))
        start = 0
        for part, count in cuts:
            parts[part].extend(int(i) for i in order[start:start + count])
            start += count
    return [parts]


def _carve_validation(dataset, trainval, rng):
    """Per-class validation share of the class-size ratios: r_val / (r_train + r_val)."""
    trainval = np.asarray(trainval)
    train, val = [], []
    labels = dataset.labels[trainval]
    for c in np.unique(labels):
        members = trainval[labels == c]
        r_train, r_val, _ = class_ratios(dataset.class_indices(c).size)
        n_val = int(round(members.size * (r_val / (r_train + r_val))))
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
    load: Callable     # (checkpoint arrays, header's extra block) -> model


# entries look functions up through their modules at call time, so a caller
# that replaces a module attribute (a tracer, a test) sees every call made in
# its own process: unit calls only when units run in-process (one usable CPU
# or one unit), not those made in worker interpreters (``run_in_workers``)
GENERATORS = {
    "gmm": GeneratorKind(
        fit=lambda dataset, idx, models, seed, mask: gmm_mod.fit_class_gmms(
            dataset.subset(idx), mask, model_config("gmm", models, seed)),
        sample=lambda model, c, count, seed: model.sample_volumes(c, count, seed),
        load=lambda arrays, extra: gmm_mod.load_gmm(arrays, extra)),
    "cvae": GeneratorKind(
        fit=lambda dataset, idx, models, seed, mask: cvae_mod.train_cvae(
            dataset.subset(idx), model_config("cvae", models, seed))[0],
        sample=lambda model, c, count, seed: cvae_mod.sample_cvae(model, c, count, seed),
        load=lambda arrays, extra: cvae_mod.load_cvae(arrays, extra)),
    "icwgan": GeneratorKind(
        fit=lambda dataset, idx, models, seed, mask: gan_mod.train_icwgan(
            dataset.subset(idx), model_config("icwgan", models, seed))[0],
        sample=lambda gen, c, count, seed: gan_mod.sample_gan(gen, c, count, seed),
        load=lambda arrays, extra: gan_mod.load_gan(arrays, extra)),
}


def load_generator(path):
    """(kind, model) of a generator checkpoint: the one place such a file is read."""
    arrays, extra = nn.load_checkpoint(path)
    kind = extra.get("kind") if isinstance(extra, dict) else None
    if kind not in GENERATOR_KINDS:   # a tuple compares, so an unhashable kind is no error
        raise nn.CheckpointError(f"{path} is not a generator checkpoint")
    with nn.checkpoint_errors(path):
        return kind, GENERATORS[kind].load(arrays, extra)


# ---------------------------------------------------------------------------
# run report
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    regime: str
    generator: str | None
    classifier: str
    entries: dict = field(default_factory=dict)     # (fold, repeat) -> MetricsReport

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

    ``entries`` is a {(fold, repeat): MetricsReport} mapping.
    """
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


def _augment(config, dataset, train_idx, generator, synth_seed, noise_seed):
    """Training dataset plus synthetic or noisy volumes (train split only)."""
    train_ds = dataset.subset(train_idx)
    if config.regime == "real":
        return train_ds
    classes_present = sorted(set(int(c) for c in train_ds.labels))
    if config.regime == "real_synth":
        volumes, labels = [], []
        for i, c in enumerate(classes_present):
            volumes.extend(GENERATORS[config.generator].sample(
                generator, c, config.synth_per_class, synth_seed + i))
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


def fit_classifier(kind, models, train, mask, seed, val=None):
    """A ``kind`` classifier fit on ``train`` from its ``models`` block.

    The SVM learns from the voxels under ``mask`` and keeps that mask; the DNN
    keeps its best epoch on ``val`` when that is given, else its last.
    """
    cfg = model_config(kind, models, seed)
    if kind == "svm":
        features = np.asarray([apply_mask(v, mask) for v in train.volumes])
        return clf.train_svm(features, train.labels, cfg.reg_c, cfg.epochs, mask=mask)
    model, _ = clf.train_dnn_classifier(
        train.stack(np.float32), train.labels, cfg, num_classes=train.num_classes,
        val_volumes=None if val is None else val.stack(np.float32),
        val_labels=None if val is None else val.labels)
    return model


def apply_classifier(model, dataset):
    """A fitted classifier's class predictions for ``dataset``'s volumes."""
    if isinstance(model, clf.LinearSVMModel):
        return model.predict(np.asarray([apply_mask(v, model.mask) for v in dataset.volumes]))
    return model.predict(dataset.stack(np.float32))


def _train_and_eval_classifier(config, dataset, aug_train, val_idx, test_idx,
                               mask, clf_seed):
    test_ds = dataset.subset(test_idx)
    if any(p != REAL for p in test_ds.provenance):
        raise LeakError("synthetic data leaked into test")
    if any(dataset.provenance[i] != REAL for i in val_idx):
        raise LeakError("synthetic data leaked into validation")
    model = fit_classifier(config.classifier, config.models, aug_train, mask, clf_seed,
                           dataset.subset(val_idx) if val_idx else None)
    return clf.evaluate(apply_classifier(model, test_ds), test_ds.labels, dataset.num_classes)


class Unit(NamedTuple):
    """One (fold, repeat) of a regime/classifier pair, split and seeded."""

    config: ExperimentConfig
    fold: int
    repeat: int
    train: list
    val: list
    test: list
    seeds: list                 # generator, synthesis, noise, classifier
    generator: object | None    # single_model's shared model; else fit per unit


def plan_units(config, dataset):
    """Every (fold, repeat) unit of one regime/classifier pair, in run order.

    The folds' leak checks and single_model's shared generator fit happen
    here, before any unit runs.
    """
    cells = _cells_for_split(dataset, config.split, config.seed)
    for kind in (config.classifier, config.generator):
        if kind in CONV_CHANNELS:   # dims that collapse within the block's tower fail here
            block = model_config(kind, config.models, config.seed)
            nn.conv_schedule(dataset.dims, len(getattr(block, CONV_CHANNELS[kind])))
    for fold, (train_idx, val_idx, test_idx) in enumerate(cells):
        for a, b, what in ((train_idx, val_idx, "train/val"),
                           (train_idx, test_idx, "train/test"),
                           (val_idx, test_idx, "val/test")):
            if set(a) & set(b):
                raise LeakError(f"{what} overlap in fold {fold}")
    single_generator = None
    if config.single_model and config.regime == "real_synth":
        # paper-fidelity mode: one generator fit on the full dataset, reused
        # across folds; leaks fold information by design
        seeds = _phase_seeds(config.seed, 0, 0)
        mask_all = compute_mask(dataset.volumes, strategy=config.mask_strategy)
        single_generator = GENERATORS[config.generator].fit(
            dataset, range(len(dataset)), config.models, seeds[0], mask_all)
    return [Unit(config, fold, repeat, *cell, _phase_seeds(config.seed, fold, repeat),
                 single_generator)
            for repeat in range(config.repeats) for fold, cell in enumerate(cells)]


def run_unit(dataset, unit):
    """(metrics, seconds) of one unit: mask, generator fit, augmentation,
    classifier training and evaluation on the unit's test split."""
    t0 = time.time()
    config = unit.config
    gen_seed, synth_seed, noise_seed, clf_seed = unit.seeds
    mask = compute_mask([dataset.volumes[i] for i in unit.train],
                        strategy=config.mask_strategy)
    generator = unit.generator
    if config.regime == "real_synth" and generator is None:
        generator = GENERATORS[config.generator].fit(
            dataset, unit.train, config.models, gen_seed, mask)
    aug_train = _augment(config, dataset, unit.train, generator, synth_seed, noise_seed)
    metrics = _train_and_eval_classifier(
        config, dataset, aug_train, unit.val, unit.test, mask, clf_seed)
    return metrics, time.time() - t0


def run_plans(dataset, plans, log=None):
    """A RunReport for each ``plan_units`` list, with every unit of every
    plan on one set of worker interpreters (``run_in_workers``)."""
    units = [unit for plan in plans for unit in plan]

    def done(i, result):
        if log:
            u, (metrics, seconds) = units[i], result
            log(f"{u.config.regime} / {u.config.generator or '-'} / {u.config.classifier} "
                f"fold {u.fold} repeat {u.repeat}: accuracy {metrics.accuracy:.4f} "
                f"({seconds:.2f}s)")

    results = iter(run_in_workers(functools.partial(run_unit, dataset), units, done))
    reports = []
    for plan in plans:
        config = plan[0].config
        report = RunReport(regime=config.regime, generator=config.generator,
                           classifier=config.classifier)
        for unit in plan:
            report.entries[(unit.fold, unit.repeat)] = next(results)[0]
        reports.append(report)
    return reports


def run_regime(config, dataset=None, log=None):
    """Execute all (fold, repeat) units for one regime/classifier pair."""
    if dataset is None:
        dataset = load_config_dataset(config.dataset)
    [report] = run_plans(dataset, [plan_units(config, dataset)], log)
    return report


# ---------------------------------------------------------------------------
# worker interpreters
# ---------------------------------------------------------------------------

# A worker gets SIGKILL when the thread that started it ends
# (prctl(PR_SET_PDEATHSIG)), so it dies with a parent that is killed outright;
# if that parent (argv[1]) is already gone, it exits. It ignores SIGINT: an
# interrupt is the parent's to handle, and the parent kills its workers on
# the way out.
_WORKER_MAIN = """\
import ctypes, os, signal, sys
ctypes.CDLL(None).prctl(1, signal.SIGKILL)
if os.getppid() != int(sys.argv[1]):
    sys.exit(1)
signal.signal(signal.SIGINT, signal.SIG_IGN)
from volsynth.harness import serve_jobs
serve_jobs()
"""
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerTraceback(Exception):
    """The traceback, as text, of an exception a worker interpreter raised;
    the cause of that exception when ``run_in_workers`` raises it again."""


def usable_cpus():
    return len(os.sched_getaffinity(0))


def run_in_workers(fn, items, done=None):
    """``[fn(item) for item in items]``, on min(usable CPUs, items) worker
    interpreters with one BLAS thread each, or in this process when that is 1.

    ``fn`` and every item and result must pickle; ``fn`` goes to each worker
    once. ``done(i, result)`` is called in item order as results arrive. An
    exception raised by ``fn`` is raised here with its type and message.
    Workers are child interpreters, not ``multiprocessing`` processes, so no
    helper process (resource tracker, forkserver) starts; every worker is
    waited for before this returns or raises, and killed first if it raises.
    A worker also dies when the thread that called this ends, even by SIGKILL.
    """
    items = list(items)
    out = []
    n_workers = min(usable_cpus(), len(items))
    if n_workers <= 1:
        for i, item in enumerate(items):
            out.append(fn(item))
            if done:
                done(i, out[i])
        return out

    import select
    import subprocess

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, **dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    jobs = iter(enumerate(items))
    busy, arrived, workers = {}, {}, []     # busy: result fd -> (worker, item index)
    finished = False

    def feed(worker):
        """Send ``worker`` the next item, or close its job pipe when none is left."""
        job = next(jobs, None)
        if job is None:
            worker.stdin.close()
            return
        busy[worker.stdout.fileno()] = worker, job[0]
        pickle.dump(job[1], worker.stdin)
        worker.stdin.flush()

    try:
        for _ in range(n_workers):
            workers.append(subprocess.Popen([sys.executable, "-c", _WORKER_MAIN,
                                             str(os.getpid())],
                                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                            env=env))
        for worker in workers:
            pickle.dump(fn, worker.stdin)
            feed(worker)
        while busy:
            ready, _, _ = select.select(list(busy), [], [])
            for fd in ready:
                worker, i = busy.pop(fd)
                try:
                    ok, value = pickle.load(worker.stdout)
                except EOFError:
                    raise RuntimeError(f"worker {worker.pid} exited with code "
                                       f"{worker.wait()} before returning a result") from None
                if not ok:
                    exc, tb = value
                    raise exc from WorkerTraceback(tb)
                arrived[i] = value
                while len(out) in arrived:
                    out.append(arrived.pop(len(out)))
                    if done:
                        done(len(out) - 1, out[-1])
                feed(worker)
        finished = True
    finally:
        for worker in workers:
            if not finished:
                worker.kill()
            for pipe in (worker.stdin, worker.stdout):
                with contextlib.suppress(OSError):
                    pipe.close()
            worker.wait()
    return out


def serve_jobs():
    """A worker's loop: read ``fn``, then answer each pickled item on stdin
    with ``(True, fn(item))`` or ``(False, (exception, traceback text))`` on
    stdout, until stdin closes."""
    import traceback

    # results get the original stdout; prints (fd 1) go to stderr
    results = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    jobs = sys.stdin.buffer
    fn = pickle.load(jobs)
    while True:
        try:
            item = pickle.load(jobs)
        except EOFError:
            return
        try:
            reply = True, fn(item)
        except Exception as exc:
            reply = False, (exc, "".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__)))
        pickle.dump(reply, results)
        results.flush()


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


def blob_benchmark(seed, profiles=None, log=None, num_classes=4, dims=(16, 16, 16),
                   train_per_class=30, test_per_class=100):
    """One seed of the desk-scale augmentation benchmark.

    Returns real / GMM-augmented DNN accuracies (two sweep units on a fixed
    split), CVAE and ICW-GAN oracle label-consistency, and the oracle's own
    real-test accuracy.
    """
    models = profiles or blob_fixture_profiles()
    real = ExperimentConfig(
        dataset={"kind": "blob", "num_classes": num_classes,
                 "per_class": train_per_class + test_per_class, "dims": dims, "seed": seed},
        split={"kind": "fixed", "train_per_class": train_per_class,
               "test_per_class": test_per_class},
        seed=seed, models=models)
    synth = replace(real, regime="real_synth", generator="gmm",
                    synth_per_class=train_per_class)
    dataset = load_config_dataset(real.dataset)
    [cell] = _cells_for_split(dataset, real.split, seed)
    results = {"seed": seed}
    say = log or (lambda msg: None)
    # generator, synthesis, noise and classifier seeds
    seeds = [seed, seed + 101, 0, seed]
    for config, key, what in ((real, "real_accuracy", "DNN real"),
                              (synth, "gmm_aug_accuracy", "DNN real+GMM")):
        metrics, seconds = run_unit(dataset, Unit(config, 0, 0, *cell, seeds, None))
        results[key] = metrics.accuracy
        say(f"[seed {seed}] {what} accuracy {metrics.accuracy:.4f} ({seconds:.0f}s)")

    # oracle: linear SVM on masked real training voxels
    train_idx, _, test_idx = cell
    train_ds, test_ds = dataset.subset(train_idx), dataset.subset(test_idx)
    mask = compute_mask(train_ds.volumes, strategy=real.mask_strategy)
    oracle = fit_classifier("svm", models, train_ds, mask, seed)
    results["oracle_accuracy"] = float(
        (apply_classifier(oracle, test_ds) == test_ds.labels).mean())
    say(f"[seed {seed}] oracle SVM accuracy {results['oracle_accuracy']:.4f}")

    # share of 50 samples per class that the oracle labels as their class
    for kind, key, seed_offset in (("cvae", "cvae_consistency", 300),
                                   ("icwgan", "gan_consistency", 400)):
        t0 = time.time()
        model = GENERATORS[kind].fit(dataset, train_idx, models, seed, mask)
        hits = 0
        for c in range(dataset.num_classes):
            samples = GENERATORS[kind].sample(model, c, 50, seed + seed_offset + c)
            predictions = apply_classifier(oracle, VolumeDataset(samples, [c] * 50,
                                                                 dataset.class_table))
            hits += int((predictions == c).sum())
        results[key] = hits / (50 * dataset.num_classes)
        say(f"[seed {seed}] {GENERATOR_LABELS[kind]} consistency {results[key]:.4f} "
            f"({time.time() - t0:.0f}s)")
    return results


def log_stderr(msg):
    print(msg, file=sys.stderr)
