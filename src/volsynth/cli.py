"""Command-line interface.

Subcommands: synth-data, convert, train-gmm, train-cvae, train-gan, sample,
train-clf, augment-eval, report. All outputs are deterministic under fixed
seeds; timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import numpy as np

from . import cvae as cvae_mod
from . import gmm as gmm_mod
from . import harness
from . import icwgan as gan_mod
from . import nn
from .datasets import VolumeDataset, load_dataset, make_blob_dataset, save_dataset
from .volumes import MASK_STRATEGIES, Volume, compute_mask, write_volume


def _dims(text):
    parts = tuple(int(p) for p in text.split(","))
    if len(parts) != 3 or any(p < 1 for p in parts):
        raise argparse.ArgumentTypeError(f"dims must be three positive ints, got {text!r}")
    return parts


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _models_from_args(kind, args):
    """A ``models`` dict holding the ``--config`` JSON block (if any) as ``kind``'s."""
    return {kind: _load_json(args.config)} if args.config else {}


def cmd_synth_data(args):
    dataset = make_blob_dataset(args.classes, args.per_class, args.dims, args.seed)
    manifest = save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} volumes and {manifest}")
    return 0


def cmd_convert(args):
    if args.input.endswith(".npy"):
        data = np.load(args.input)
        if data.ndim != 3:
            print(f"error: {args.input} holds a {data.ndim}-d array, need 3-d",
                  file=sys.stderr)
            return 1
    else:
        if args.dims is None:
            print("error: raw input requires --dims", file=sys.stderr)
            return 1
        raw = np.fromfile(args.input, dtype="<f4")
        expected = int(np.prod(args.dims))
        if raw.size != expected:
            print(f"error: raw payload holds {raw.size} floats, dims need {expected}",
                  file=sys.stderr)
            return 1
        data = raw.reshape(args.dims)
    write_volume(Volume(data.astype(np.float32)), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_train_gmm(args):
    dataset = load_dataset(args.manifest)
    mask = compute_mask(dataset.volumes, strategy=args.mask_strategy)
    config = gmm_mod.EMConfig(num_components=args.components, seed=args.seed)
    model = gmm_mod.fit_class_gmms(dataset, mask, config)
    gmm_mod.save_gmm(model, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_train_cvae(args):
    dataset = load_dataset(args.manifest)
    config = harness.model_config("cvae", _models_from_args("cvae", args), args.seed)
    model, history = cvae_mod.train_cvae(dataset, config)
    cvae_mod.save_cvae(model, args.out)
    last = history.epochs[-1]
    print(f"wrote {args.out} (final loss {last.total:.4f})")
    return 0


def cmd_train_gan(args):
    dataset = load_dataset(args.manifest)
    config = harness.model_config("icwgan", _models_from_args("icwgan", args), args.seed)
    gen, disc, log = gan_mod.train_icwgan(dataset, config)
    gan_mod.save_gan(gen, disc, args.out, dataset.dims, dataset.num_classes, config)
    if args.log:
        log.write(args.log)
    print(f"wrote {args.out}")
    return 0


def cmd_sample(args):
    _, extra = nn.load_checkpoint(args.checkpoint)
    generator = harness.GENERATORS.get((extra or {}).get("kind"))
    if generator is None:
        print(f"error: {args.checkpoint} is not a generator checkpoint", file=sys.stderr)
        return 1
    model = generator.load(args.checkpoint)
    volumes = generator.sample(model, args.class_index, args.count, args.seed)
    class_table = [f"class_{c}" for c in range(model.num_classes)]
    samples = VolumeDataset(volumes, [args.class_index] * len(volumes), class_table)
    save_dataset(samples, args.out, prefix=f"sample_c{args.class_index}")
    print(f"wrote {len(volumes)} samples to {args.out}")
    return 0


def cmd_train_clf(args):
    dataset = load_dataset(args.manifest)
    mask = compute_mask(dataset.volumes, strategy=args.mask_strategy) \
        if args.kind == "svm" else None
    model = harness.fit_classifier(args.kind, _models_from_args(args.kind, args), dataset,
                                   mask, args.seed)
    if args.kind == "dnn":
        extra = {"kind": "dnn_classifier", "dims": list(dataset.dims),
                 "num_classes": dataset.num_classes,
                 "channels": list(model.config.channels), "dtype": model.config.dtype}
        nn.save_checkpoint(args.out, nn.state_arrays(model), precision=model.config.dtype,
                           extra=extra)
    else:
        arrays = {"weights": model.weights, "biases": model.biases,
                  "mask": mask.bits.astype(np.float64)}
        extra = {"kind": "svm_classifier", "mask_dims": list(mask.dims),
                 "reg_c": model.reg_c}
        nn.save_checkpoint(args.out, arrays, precision="float64", extra=extra)
    print(f"wrote {args.out}")
    return 0


def _cell_configs(raw, single_model):
    """An ExperimentConfig per (regime, generator, classifier) cell of a sweep
    document: its regime, generator and classifier may each list names (absent:
    all), and each cell resets the regime fields that its regime does not use."""
    doc = nn.read_config(raw, {
        **nn.config_fields(harness.ExperimentConfig), "regime": list(harness.REGIMES),
        "generator": list(harness.GENERATOR_KINDS),
        "classifier": list(harness.CLASSIFIER_KINDS), "output_dir": None}, "config")
    del doc["output_dir"]
    doc["single_model"] |= single_model
    configs = []
    for regime in doc["regime"]:
        unused = harness.unused_regime_fields(regime)
        for generator in [None] if "generator" in unused else doc["generator"]:
            for classifier in doc["classifier"]:
                configs.append(harness.ExperimentConfig(
                    **{**doc, **unused, "regime": regime, "generator": generator,
                       "classifier": classifier}))
    return configs


def cmd_augment_eval(args):
    raw = _load_json(args.config)
    # every cell is checked and every unit planned before --out is made
    configs = _cell_configs(raw, args.single_model)
    out_dir = args.out or raw.get("output_dir") or "runs"
    dataset = harness.load_config_dataset(raw["dataset"])
    plans = []
    for config in configs:
        print(f"running {config.regime} / {config.generator or '-'} / {config.classifier}",
              file=sys.stderr)
        plans.append(harness.plan_units(config, dataset))
    os.makedirs(out_dir, exist_ok=True)
    # the units of every cell share one set of worker interpreters
    runs = []
    for report in harness.run_plans(dataset, plans, log=harness.log_stderr):
        runs.append(report.to_dict())
        name = f"run_{report.regime}_{report.generator or 'none'}_{report.classifier}.json"
        harness.write_run_json(report, os.path.join(out_dir, name))
    _write_tables(runs, out_dir)
    print(f"wrote {len(runs)} runs to {out_dir}")
    return 0


def _write_tables(runs, out_dir):
    """report.csv and variance.csv of stored runs; returns both texts."""
    tables = []
    for which, name in (("mean", "report.csv"), ("variance", "variance.csv")):
        tables.append(harness.rows_from_stored(runs, which))
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(tables[-1])
    return tables


def cmd_report(args):
    paths = sorted(glob.glob(os.path.join(args.runs, "run_*.json")))
    if not paths:
        print(f"error: no run_*.json files under {args.runs}", file=sys.stderr)
        return 1
    mean_csv, var_csv = _write_tables([harness.load_run_json(p) for p in paths], args.runs)
    sys.stdout.write(mean_csv)
    sys.stdout.write("variance:\n")
    sys.stdout.write(var_csv)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="volsynth",
                                     description="Volumetric synthesis-based "
                                                 "data-augmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    blob = harness.DATASET_FIELDS["blob"]
    p = sub.add_parser("synth-data", help="generate the blob fixture dataset")
    p.add_argument("--classes", type=int, default=blob["num_classes"])
    p.add_argument("--per-class", type=int, default=blob["per_class"])
    p.add_argument("--dims", type=_dims, default=blob["dims"])
    p.add_argument("--seed", type=int, default=blob["seed"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth_data)

    p = sub.add_parser("convert", help="convert .npy or raw float32 to VVOL")
    p.add_argument("--input", required=True)
    p.add_argument("--dims", type=_dims, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("train-gmm", help="fit per-class mixtures")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--components", type=int, default=1)
    p.add_argument("--mask-strategy", default="nonconstant", choices=MASK_STRATEGIES)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_train_gmm)

    p = sub.add_parser("train-cvae", help="train the conditional VAE")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="JSON block of CVAE fields")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_train_cvae)

    p = sub.add_parser("train-gan", help="train the ICW-GAN")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="JSON block of GAN fields")
    p.add_argument("--log", default=None, help="write the per-step training log here")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_train_gan)

    p = sub.add_parser("sample", help="class-conditional samples from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--class-index", type=int, required=True)
    p.add_argument("--count", "-n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("train-clf", help="train a classifier on a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--kind", choices=["dnn", "svm"], default="dnn")
    p.add_argument("--config", default=None, help="JSON block of DNN or SVM fields")
    p.add_argument("--mask-strategy", default="nonconstant", choices=MASK_STRATEGIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train_clf)

    p = sub.add_parser("augment-eval", help="full augmentation sweep from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory (default from config)")
    p.add_argument("--single-model", action="store_true",
                   help="paper-fidelity mode: one generator trained on the full "
                        "dataset, reused across folds (leaks fold information)")
    p.set_defaults(fn=cmd_augment_eval)

    p = sub.add_parser("report", help="aggregate stored runs into tables")
    p.add_argument("--runs", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        # a KeyError's str() quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
