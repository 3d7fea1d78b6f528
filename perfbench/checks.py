"""Correctness checks computed apart from volsynth.

Nothing here imports the program: files are parsed by readers written from
the documented formats, models are re-run by a float64 forward pass written
from the layer definitions, and aggregates are recomputed from stored
entries. Every check returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

# ---------------------------------------------------------------------------
# file readers
# ---------------------------------------------------------------------------


def read_vvol(path):
    """VVOL: b"VVOL", version 1, three <u32 dims, then <f4 voxels row-major."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 17 or raw[:4] != b"VVOL" or raw[4] != 1:
        raise ValueError(f"{path}: bad VVOL header")
    dims = struct.unpack("<III", raw[5:17])
    payload = raw[17:]
    if len(payload) != 4 * dims[0] * dims[1] * dims[2]:
        raise ValueError(f"{path}: payload length does not match dims {dims}")
    return np.frombuffer(payload, dtype="<f4").reshape(dims)


def read_checkpoint(path):
    """One JSON header line, then each array's little-endian payload in order."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        dtype = np.dtype(header["precision"]).newbyteorder("<")
        arrays = {}
        for spec in header["params"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * dtype.itemsize)
            if len(raw) != count * dtype.itemsize:
                raise ValueError(f"{path}: truncated payload for {spec['name']}")
            arrays[spec["name"]] = np.frombuffer(raw, dtype=dtype).reshape(shape)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last array")
    return header.get("extra") or {}, arrays


def read_sample_dir(out_dir):
    """(names, labels, volumes) from a sample directory's manifest.csv."""
    names, labels, vols = [], [], []
    with open(os.path.join(out_dir, "manifest.csv")) as fh:
        for line in fh:
            if line.strip():
                name, label = line.strip().rsplit(",", 1)
                names.append(name)
                labels.append(int(label))
                vols.append(read_vvol(os.path.join(out_dir, name)))
    return names, labels, vols


# ---------------------------------------------------------------------------
# desk: nearest class mean, accuracy, value ranges
# ---------------------------------------------------------------------------


def _standardize(rows):
    rows = np.asarray(rows, dtype=np.float64).reshape(len(rows), -1)
    rows = rows - rows.mean(axis=1, keepdims=True)
    return rows / np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1e-12)


class NearestClassMean:
    """Nearest class mean under correlation distance.

    Each volume is centred and scaled to unit norm before the class means are
    taken and compared, so a global intensity offset that a generator has
    not yet matched does not decide the label; the blob layout does.
    """

    def __init__(self, volumes, labels):
        x = _standardize(volumes)
        labels = np.asarray(labels)
        self.classes = np.unique(labels)
        self.means = _standardize(np.stack([x[labels == c].mean(axis=0)
                                            for c in self.classes]))

    def predict(self, volumes):
        return self.classes[np.argmax(_standardize(volumes) @ self.means.T, axis=1)]


def label_consistency(ncm, samples_by_class):
    """Share of samples that the classifier labels as their conditioning class."""
    hits = total = 0
    for c, vols in samples_by_class.items():
        hits += int((ncm.predict(vols) == c).sum())
        total += len(vols)
    return hits / total


def accuracy(predictions, truths):
    predictions, truths = np.asarray(predictions), np.asarray(truths)
    if predictions.shape != truths.shape:
        raise ValueError(f"{predictions.shape} predictions for {truths.shape} truths")
    return float((predictions == truths).mean())


def check_unit_range(name, volumes, dims):
    fails = []
    for i, v in enumerate(volumes):
        v = np.asarray(v)
        if v.shape != tuple(dims):
            fails.append(f"{name}[{i}]: dims {v.shape}, expected {tuple(dims)}")
        elif not (np.all(np.isfinite(v)) and v.min() >= 0.0 and v.max() <= 1.0):
            fails.append(f"{name}[{i}]: voxels outside [0,1]")
        if len(fails) >= 3:
            break
    return fails


# ---------------------------------------------------------------------------
# sweep: report.csv / variance.csv from run_*.json
# ---------------------------------------------------------------------------

REPORT_HEADER = "input,gen_model,classifier,accuracy,macro_f1,precision,recall"
METRICS = ("accuracy", "macro_f1", "precision", "recall")
REGIME_LABELS = {"real": "Real", "real_noise": "Real+noise", "real_synth": "Real+Synth."}
GENERATOR_LABELS = {None: "-", "gmm": "GMM", "cvae": "CVAE", "icwgan": "ICW-GAN"}


def recompute_aggregate(entries):
    """Mean over entries and population variance of the per-fold means."""
    folds = sorted({e["fold"] for e in entries})
    mean, variance = {}, {}
    for m in METRICS:
        mean[m] = math.fsum(e[m] for e in entries) / len(entries)
        fold_means = []
        for f in folds:
            vals = [e[m] for e in entries if e["fold"] == f]
            fold_means.append(math.fsum(vals) / len(vals))
        centre = math.fsum(fold_means) / len(fold_means)
        variance[m] = math.fsum((x - centre) ** 2 for x in fold_means) / len(fold_means)
    return {"mean": mean, "variance": variance}


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def parse_table(text):
    """{(input, gen_model, classifier): (metric floats)} from a report table."""
    lines = text.split("\n")
    if lines[0] != REPORT_HEADER or lines[-1] != "":
        raise ValueError("table header or trailing newline is wrong")
    rows = {}
    for line in lines[1:-1]:
        parts = line.split(",")
        key = tuple(parts[:3])
        if key in rows or len(parts) != 7:
            raise ValueError(f"duplicate or malformed row {line!r}")
        rows[key] = tuple(float(p) for p in parts[3:])
    return rows


def check_sweep(runs, report_text, variance_text, folds, repeats):
    """runs: {file name: parsed run json}. Recompute both tables from entries."""
    fails = []
    expected = {"mean": {}, "variance": {}}
    for fname, run in sorted(runs.items()):
        entries = run["entries"]
        pairs = {(e["fold"], e["repeat"]) for e in entries}
        if len(entries) != folds * repeats or len(pairs) != len(entries):
            fails.append(f"{fname}: {len(entries)} entries, expected {folds * repeats} "
                         "distinct (fold, repeat) pairs")
            continue
        for e in entries:
            if not all(0.0 <= e[m] <= 1.0 for m in METRICS):
                fails.append(f"{fname}: metric outside [0,1] in fold {e['fold']}")
        agg = recompute_aggregate(entries)
        key = (REGIME_LABELS[run["regime"]], GENERATOR_LABELS[run.get("generator")],
               "SVM" if run["classifier"] == "svm" else "DNN")
        for which in ("mean", "variance"):
            stored = run["aggregate"][which]
            for m in METRICS:
                if not _close(stored[m], agg[which][m]):
                    fails.append(f"{fname}: stored {which} {m} {stored[m]!r} != "
                                 f"recomputed {agg[which][m]!r}")
            expected[which][key] = tuple(agg[which][m] for m in METRICS)
    for which, text in (("mean", report_text), ("variance", variance_text)):
        try:
            rows = parse_table(text)
        except (ValueError, IndexError) as exc:
            fails.append(f"{which} table unreadable: {exc}")
            continue
        if set(rows) != set(expected[which]):
            fails.append(f"{which} table rows {sorted(rows)} != runs {sorted(expected[which])}")
            continue
        for key, values in rows.items():
            if not all(_close(a, b) for a, b in zip(values, expected[which][key])):
                fails.append(f"{which} table row {key} {values} != recomputed "
                             f"{expected[which][key]}")
    return fails


# ---------------------------------------------------------------------------
# sample: GMM moments and an independent float64 forward pass
# ---------------------------------------------------------------------------

_erf = np.frompyfunc(math.erf, 1, 1)


def _phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _cdf(z):
    return 0.5 * (1.0 + _erf(z / math.sqrt(2.0)).astype(np.float64))


def clipped_normal_moments(mean, var):
    """E[Y], E[Y^2] for Y = clip(X, 0, 1), X ~ N(mean, var), elementwise."""
    s = np.sqrt(var)
    a, b = (0.0 - mean) / s, (1.0 - mean) / s
    pa, pb = _cdf(a), _cdf(b)
    fa, fb = _phi(a), _phi(b)
    inside = pb - pa
    above = 1.0 - pb
    m1 = mean * inside + s * (fa - fb) + above
    m2 = ((mean * mean + var) * inside + 2.0 * mean * s * (fa - fb)
          + var * (a * fa - b * fb) + above)
    return m1, m2


def check_gmm_samples(extra, arrays, class_index, volumes, z=6.0):
    """Per-voxel sample mean and variance against the checkpoint's mixture.

    Samples are drawn in masked-feature space and clamped to [0,1] when
    scattered back, so the reference is the clipped mixture's moments;
    masked-out voxels must be exactly 0. ``z`` is the allowed number of
    standard errors per voxel.
    """
    mask = arrays["mask"].reshape(extra["mask_dims"]) > 0.5
    w = arrays[f"class_{class_index}.weights"]
    mu = arrays[f"class_{class_index}.means"]
    var = arrays[f"class_{class_index}.variances"]
    m1 = m2 = 0.0
    for k in range(w.size):
        a, b = clipped_normal_moments(mu[k], var[k])
        m1 = m1 + w[k] * a
        m2 = m2 + w[k] * b
    ref_var = np.maximum(m2 - m1 * m1, 0.0)
    stack = np.stack([np.asarray(v, dtype=np.float64) for v in volumes])
    n = stack.shape[0]
    fails = []
    if np.any(stack[:, ~mask] != 0.0):
        fails.append(f"class {class_index}: nonzero voxels outside the mask")
    feats = stack[:, mask]
    mean = feats.mean(axis=0)
    centred = feats - mean
    svar = (centred ** 2).mean(axis=0)
    m4 = (centred ** 4).mean(axis=0)
    tol_mean = z * np.sqrt(ref_var / n) + 1e-6
    tol_var = z * np.sqrt(np.maximum(m4 - svar * svar, 0.0) / n) + 1e-6
    bad_mean = int((np.abs(mean - m1) > tol_mean).sum())
    bad_var = int((np.abs(svar - ref_var) > tol_var).sum())
    if bad_mean:
        fails.append(f"class {class_index}: {bad_mean} voxel means outside {z} SE")
    if bad_var:
        fails.append(f"class {class_index}: {bad_var} voxel variances outside {z} SE")
    return fails


# architecture constants of the transposed-conv towers (nn.ConvTranspose3d)
KERNEL, STRIDE, PAD, BN_EPS = 4, 2, 1, 1e-5


def _deconv_sizes(dims, layers):
    sizes = [tuple(dims)]
    for _ in range(layers):
        sizes.append(tuple(max(1, -(-s // 2)) for s in sizes[-1]))
    return sizes[::-1]


def conv_transpose3d(x, kernel, bias, target):
    """out[n,f,o*S+k-P] += x[n,c,o] * kernel[c,f,k], cropped to ``target``."""
    n, _, *spatial = x.shape
    f = kernel.shape[1]
    full = [(s - 1) * STRIDE + KERNEL for s in spatial]
    buf = np.zeros((n, f) + tuple(max(L, PAD + t) for L, t in zip(full, target)))
    for a in range(KERNEL):
        for b in range(KERNEL):
            for c in range(KERNEL):
                contrib = np.einsum("ncdhw,cf->nfdhw", x, kernel[:, :, a, b, c])
                buf[:, :, a:a + STRIDE * spatial[0]:STRIDE,
                    b:b + STRIDE * spatial[1]:STRIDE,
                    c:c + STRIDE * spatial[2]:STRIDE] += contrib
    out = buf[:, :, PAD:PAD + target[0], PAD:PAD + target[1], PAD:PAD + target[2]]
    return out + bias.reshape(1, -1, 1, 1, 1)


def _bn(h, arrays, prefix, i):
    g = arrays[f"{prefix}.bn{i}.gamma"].astype(np.float64).reshape(1, -1, 1, 1, 1)
    b = arrays[f"{prefix}.bn{i}.beta"].astype(np.float64).reshape(1, -1, 1, 1, 1)
    mean = arrays[f"{prefix}.bnstate{i}.mean"].astype(np.float64).reshape(1, -1, 1, 1, 1)
    var = arrays[f"{prefix}.bnstate{i}.var"].astype(np.float64).reshape(1, -1, 1, 1, 1)
    return g * (h - mean) / np.sqrt(var + BN_EPS) + b


def decode_float64(extra, arrays, z, class_index):
    """Generator (ICW-GAN) or decoder (CVAE) forward pass in float64.

    Dense([z; y]) seed volume, then transposed convs with inference-mode
    batchnorm + ReLU between and a sigmoid head. The ICW-GAN generator also
    concatenates a tanh label volume before every transposed conv.
    """
    kind = extra["kind"]
    prefix = "gen" if kind == "icwgan" else "dec"
    channels = extra["gen_channels"] if kind == "icwgan" else extra["dec_channels"]
    layers = len(channels)
    sizes = _deconv_sizes(extra["dims"], layers)
    a = {k: v.astype(np.float64) for k, v in arrays.items() if k.startswith(prefix)}
    n = z.shape[0]
    y = np.zeros((n, extra["num_classes"]))
    y[:, class_index] = 1.0
    h = np.concatenate([z, y], axis=1) @ a[f"{prefix}.input.weight"] + a[f"{prefix}.input.bias"]
    h = np.maximum(_bn(h.reshape((n, channels[0]) + sizes[0]), a, prefix, 0), 0.0)
    for i in range(layers):
        if kind == "icwgan":
            proj = np.tanh(y @ a[f"gen.proj{i}.weight"] + a[f"gen.proj{i}.bias"])
            h = np.concatenate([h, proj.reshape((n, 1) + sizes[i])], axis=1)
        h = conv_transpose3d(h, a[f"{prefix}.deconv{i}.kernel"],
                             a[f"{prefix}.deconv{i}.bias"], sizes[i + 1])
        if i < layers - 1:
            h = np.maximum(_bn(h, a, prefix, i + 1), 0.0)
    return 1.0 / (1.0 + np.exp(-h[:, 0]))


def sampled_latents(extra, seed, count):
    """The prior draws ``volsynth sample`` makes: default_rng(seed), float32."""
    dim = extra["z_dim"] if extra["kind"] == "icwgan" else extra["latent_dim"]
    z = np.random.default_rng(seed).standard_normal((count, dim))
    return z.astype(np.float32).astype(np.float64)


def check_decoded_samples(extra, arrays, class_index, seed, volumes, rows, atol=1e-4):
    """Program samples at ``rows`` against the float64 forward pass."""
    z = sampled_latents(extra, seed, len(volumes))[list(rows)]
    ref = decode_float64(extra, arrays, z, class_index)
    fails = []
    for r, expect in zip(rows, ref):
        err = float(np.max(np.abs(np.asarray(volumes[r], dtype=np.float64) - expect)))
        if err > atol:
            fails.append(f"{extra['kind']} class {class_index} sample {r}: "
                         f"max |error| {err:.3g} > {atol}")
    return fails


def check_sample_dir(extra, arrays, class_index, seed, out_dir, count, dims, rows):
    """One ``volsynth sample`` output directory against its checkpoint."""
    where = f"{extra['kind']} class {class_index}"
    names, labels, vols = read_sample_dir(out_dir)
    if len(vols) != count or len(set(names)) != count:
        return [f"{where}: {len(vols)} samples, expected {count}"]
    fails = []
    if any(label != class_index for label in labels):
        fails.append(f"{where}: manifest labels other than {class_index}")
    fails += check_unit_range(where, vols, dims)
    if extra["kind"] == "gmm":
        fails += check_gmm_samples(extra, arrays, class_index, vols)
    else:
        fails += check_decoded_samples(extra, arrays, class_index, seed, vols, rows)
    return fails
