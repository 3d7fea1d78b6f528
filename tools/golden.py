"""Golden-output check: run one fixed-seed command set in two trees, list what differs.

    python3 tools/golden.py --against <rev> [--allow GLOB ...]

Run from the repository root. ``<rev>`` is exported with ``git archive`` into a
temporary directory; the working tree is the other side. Each side runs the
command set below in its own child process with ``OPENBLAS_NUM_THREADS=1``, so
GEMM results do not depend on thread scheduling. Every output file is compared
byte for byte between the sides; no hash is stored, so the check does not
depend on one machine's BLAS kernels.

The command set (all on 8^3 blob data unless noted):

- ``synth-data --classes 3 --per-class 10 --dims 8,8,8 --seed 3``, then on its
  manifest ``train-gmm --seed 1``, ``train-cvae --seed 2``, ``train-gan --seed 3``
  with and without ``--log``, ``train-clf --seed 4`` as ``dnn``, ``svm`` and
  ``svm --mask-strategy background_border``;
- ``sample --class-index 1 -n 230 --seed 9`` from each generator checkpoint;
- ``augment-eval`` over real, real_noise and real_synth x {gmm, cvae, icwgan}
  x {svm, dnn} (10 cells), then ``report`` over its runs;
- ``augment-eval --single-model`` over real and real_synth/gmm with the SVM, on
  a ``ratio`` split of 3 classes of 30, with no ``--out``: its runs go to the
  document's ``output_dir``, an absolute path (the document itself is removed
  afterwards, since that path differs between the sides);
- ``harness._cells_for_split`` of the default kfold split of a 2-class blob
  with 110 per class, as JSON (a class of 100+ samples: 1/8 validation share);
- each ``harness.GENERATORS`` kind fitted on the whole sweep dataset with the
  sweep's model blocks, seed 0 and its nonconstant mask: 4 class-1 samples each
  (the sweep's runs store only accuracies, which need not move with the models);
- ``harness.blob_benchmark(3, ...)`` with reduced blocks, as JSON; its CVAE
  and ICW-GAN train 50 epochs at rate 5e-3 in batches of 10, so that their
  oracle consistencies leave chance and the check sees the consistency path;
- a 3-epoch blob-profile ICW-GAN at 16^3: state, log and 4 x 30 samples;
- ``model_fields.json``: each ``harness.MODEL_CONFIGS`` class's field names and
  defaults, so a change to what a ``models`` block can set shows as a moved output.

Differing outputs are listed. Those matching an ``--allow`` glob (matched
against the path relative to the side's output directory) are expected moves;
any other difference, or a file present on one side only, exits 1.
"""

from __future__ import annotations

import argparse
import filecmp
import fnmatch
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (3, 4)-channel blocks, a few epochs: every model family runs in seconds
CVAE_BLOCK = {"latent_dim": 3, "enc_channels": [3, 4], "dec_channels": [4, 3],
              "batch_size": 5, "epochs": 3}
GAN_BLOCK = {"z_dim": 3, "gen_channels": [4, 3], "disc_channels": [3, 4],
             "batch_size": 5, "critic_iters": 2, "epochs": 3}
DNN_BLOCK = {"channels": [3, 4], "epochs": 3, "batch_size": 6}
SWEEP = {
    "dataset": {"kind": "blob", "num_classes": 3, "per_class": 8, "dims": [8, 8, 8],
                "seed": 0},
    "regime": ["real", "real_noise", "real_synth"],
    "generator": ["gmm", "cvae", "icwgan"],
    "classifier": ["svm", "dnn"],
    "synth_per_class": 4,
    "noise_per_class": 4,
    "noise_variance": 0.01,
    "split": {"kind": "kfold", "k": 2, "min_class_size": 2},
    "repeats": 1,
    "seed": 0,
    "models": {
        "gmm": {"num_components": 1},
        "cvae": {"latent_dim": 3, "enc_channels": [3, 4], "dec_channels": [4, 3],
                 "batch_size": 4, "epochs": 2},
        "icwgan": {"z_dim": 3, "gen_channels": [4, 3], "disc_channels": [3, 4],
                   "batch_size": 4, "critic_iters": 2, "epochs": 2},
        "dnn": {"channels": [3, 4], "epochs": 2, "batch_size": 6},
        "svm": {"epochs": 50},
    },
}


SINGLE_MODEL = {
    "dataset": {"kind": "blob", "num_classes": 3, "per_class": 30, "dims": [8, 8, 8],
                "seed": 1},
    "regime": ["real", "real_synth"],
    "generator": "gmm",
    "classifier": "svm",
    "synth_per_class": 4,
    "split": {"kind": "ratio"},
    "repeats": 1,
    "seed": 0,
    "models": {"gmm": {"num_components": 1}, "svm": {"epochs": 50}},
}


def run_command_set(out):
    """Run every command of the set with the imported volsynth, writing below ``out``."""
    import numpy as np

    from volsynth import cli, harness, icwgan, nn
    from volsynth.datasets import make_blob_dataset
    from volsynth.volumes import compute_mask

    def write_json(name, obj):
        path = os.path.join(out, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def volsynth(*argv):
        code = cli.main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"volsynth {' '.join(map(str, argv))} exited {code}")

    j = lambda *parts: os.path.join(out, *parts)  # noqa: E731
    manifest = j("data", "manifest.csv")
    volsynth("synth-data", "--classes", 3, "--per-class", 10, "--dims", "8,8,8",
             "--seed", 3, "--out", j("data"))
    volsynth("train-gmm", "--manifest", manifest, "--seed", 1, "--out", j("gmm.ckpt"))
    volsynth("train-cvae", "--manifest", manifest, "--seed", 2, "--out", j("cvae.ckpt"),
             "--config", write_json("cvae.json", CVAE_BLOCK))
    gan_cfg = write_json("gan.json", GAN_BLOCK)
    volsynth("train-gan", "--manifest", manifest, "--seed", 3, "--out", j("gan.ckpt"),
             "--config", gan_cfg, "--log", j("gan_log.csv"))
    volsynth("train-gan", "--manifest", manifest, "--seed", 3, "--out",
             j("gan_nolog.ckpt"), "--config", gan_cfg)
    volsynth("train-clf", "--manifest", manifest, "--seed", 4, "--kind", "dnn",
             "--out", j("dnn.ckpt"), "--config", write_json("dnn.json", DNN_BLOCK))
    volsynth("train-clf", "--manifest", manifest, "--seed", 4, "--kind", "svm",
             "--out", j("svm.ckpt"))
    volsynth("train-clf", "--manifest", manifest, "--seed", 4, "--kind", "svm",
             "--mask-strategy", "background_border", "--out", j("svm_border.ckpt"))
    for kind in ("gmm", "cvae", "gan"):
        volsynth("sample", "--checkpoint", j(f"{kind}.ckpt"), "--class-index", 1,
                 "-n", 230, "--seed", 9, "--out", j(f"samples_{kind}"))
    volsynth("augment-eval", "--config", write_json("sweep.json", SWEEP),
             "--out", j("runs"))
    os.rename(j("runs", "report.csv"), j("runs", "report_augment_eval.csv"))
    os.rename(j("runs", "variance.csv"), j("runs", "variance_augment_eval.csv"))
    volsynth("report", "--runs", j("runs"))
    single = write_json("single_model.json", {**SINGLE_MODEL, "output_dir": j("single_model")})
    volsynth("augment-eval", "--single-model", "--config", single)
    os.remove(single)
    write_json("kfold_cells.json", harness._cells_for_split(
        make_blob_dataset(2, 110, (8, 8, 8), seed=0), {"kind": "kfold"}, 0))

    dataset = harness.load_config_dataset(SWEEP["dataset"])
    everything = np.arange(len(dataset))
    for kind, generator in harness.GENERATORS.items():
        model = generator.fit(dataset, everything, SWEEP["models"], 0,
                              compute_mask(dataset.volumes))
        np.save(j(f"harness_{kind}_samples.npy"),
                np.stack([v.data for v in generator.sample(model, 1, 4, 0)]))

    profiles = harness.blob_fixture_profiles()
    # 50 epochs at a high rate: both consistencies move off chance (0.25)
    fast = dict(epochs=50, learning_rate=5e-3, batch_size=10)
    profiles["cvae"].update(enc_channels=(3, 4), dec_channels=(4, 3), **fast)
    profiles["icwgan"].update(gen_channels=(4, 3), disc_channels=(3, 4), **fast)
    profiles["dnn"].update(channels=(3, 4), epochs=2)
    profiles["svm"].update(epochs=50)
    write_json("blob_benchmark.json", harness.blob_benchmark(
        3, profiles=profiles, dims=(8, 8, 8), train_per_class=10, test_per_class=10))

    config = nn.model_config(icwgan.GANConfig, {**harness.blob_fixture_profiles()["icwgan"],
                                                "epochs": 3, "seed": 0})
    gen, disc, log = icwgan.train_icwgan(make_blob_dataset(4, 30, (16, 16, 16), seed=0),
                                         config)
    nn.save_checkpoint(j("gan16.ckpt"), nn.state_arrays(gen, disc), precision=config.dtype)
    log.write(j("gan16_log.csv"))
    samples = [v.data for c in range(4) for v in icwgan.sample_gan(gen, c, 30, seed=c)]
    np.save(j("gan16_samples.npy"), np.stack(samples))

    write_json("model_fields.json", {kind: {f.name: f.default for f in fields(cls)}
                                     for kind, cls in harness.MODEL_CONFIGS.items()})


def export_tree(rev, dest):
    """The committed files of ``rev`` in ``dest``/tree, without git metadata.

    An export leaves nothing registered in the repository, so a killed run
    leaves no stale worktree behind; removing ``dest`` removes it all.
    """
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    tree = os.path.join(dest, "tree")
    os.makedirs(tree)
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    return tree


def outputs(root):
    found = set()
    for dirpath, _, files in os.walk(root):
        found.update(os.path.relpath(os.path.join(dirpath, f), root) for f in files)
    return found


def compare(before, after, allow):
    """(moved, unexpected): differing paths matching ``allow`` and all others."""
    a, b = outputs(before), outputs(after)
    differ = sorted(p for p in a & b
                    if not filecmp.cmp(os.path.join(before, p), os.path.join(after, p),
                                       shallow=False))
    differ += sorted(f"{p} (only at the base)" for p in a - b)
    differ += sorted(f"{p} (only in the working tree)" for p in b - a)
    moved = [p for p in differ if any(fnmatch.fnmatch(p, g) for g in allow)]
    return moved, [p for p in differ if p not in moved], len(a | b)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--against", help="git revision to compare the working tree with")
    p.add_argument("--allow", action="append", default=[],
                   help="glob of outputs expected to differ (repeatable)")
    p.add_argument("--run-tree", help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.run_tree:
        # child mode: the command set against one tree's src
        sys.path.insert(0, os.path.join(args.run_tree, "src"))
        run_command_set(args.out)
        return 0
    if not args.against:
        p.error("--against is required")

    tmp = tempfile.mkdtemp(prefix="volsynth-golden-")
    try:
        trees = {"base": export_tree(args.against, tmp), "change": ROOT}
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        env.pop("PYTHONPATH", None)
        for side, tree in trees.items():
            out = os.path.join(tmp, f"out-{side}")
            os.makedirs(out)
            print(f"golden: running the command set at {side}", file=sys.stderr)
            subprocess.run([sys.executable, os.path.abspath(__file__), "--run-tree", tree,
                            "--out", out], env=env, check=True, stdout=subprocess.DEVNULL)
        moved, unexpected, total = compare(os.path.join(tmp, "out-base"),
                                           os.path.join(tmp, "out-change"), args.allow)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{total} outputs; {len(moved)} moved as allowed, {len(unexpected)} unexpected")
    groups = {}
    for path in moved:
        head, sep, _ = path.partition(os.sep)
        groups.setdefault(head + sep, []).append(path)
    for head, paths in groups.items():
        print(f"moved      {head}" + (f" ({len(paths)} files)" if head.endswith(os.sep) else ""))
    for path in unexpected:
        print(f"UNEXPECTED {path}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
