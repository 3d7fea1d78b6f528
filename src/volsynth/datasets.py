"""Labeled volume datasets: encoding, manifests, splits, and the blob fixture."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .volumes import Volume, normalize_minmax, read_volume, write_volume

REAL = "real"
SYNTHETIC = "synthetic"
NOISY = "noisy"


def one_hot(class_indices, num_classes, dtype=np.float64):
    """[n, num_classes] one-hot matrix from integer class indices."""
    idx = np.asarray(class_indices, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= num_classes):
        raise ValueError(f"class index out of range for {num_classes} classes")
    out = np.zeros((idx.shape[0], num_classes), dtype=dtype)
    out[np.arange(idx.shape[0]), idx] = 1.0
    return out


class VolumeDataset:
    """Parallel lists of volumes and class indices plus per-item provenance."""

    def __init__(self, volumes, labels, class_table, provenance=None):
        self.volumes = list(volumes)
        self.labels = np.asarray(labels, dtype=int)
        self.class_table = list(class_table)
        if provenance is None:
            provenance = [REAL] * len(self.volumes)
        self.provenance = list(provenance)
        if not (len(self.volumes) == len(self.labels) == len(self.provenance)):
            raise ValueError("volumes, labels, and provenance must be parallel")
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() >= len(self.class_table)):
            raise ValueError("label index outside the class table")

    def __len__(self):
        return len(self.volumes)

    @property
    def num_classes(self):
        return len(self.class_table)

    @property
    def dims(self):
        return self.volumes[0].dims if self.volumes else None

    def subset(self, indices):
        indices = list(indices)
        return VolumeDataset(
            [self.volumes[i] for i in indices],
            self.labels[indices] if indices else np.zeros(0, dtype=int),
            self.class_table,
            [self.provenance[i] for i in indices],
        )

    def class_indices(self, class_index):
        return np.flatnonzero(self.labels == class_index)

    def extended(self, volumes, labels, provenance):
        return VolumeDataset(
            self.volumes + list(volumes),
            np.concatenate([self.labels, np.asarray(labels, dtype=int)]),
            self.class_table,
            self.provenance + [provenance] * len(volumes),
        )

    def stack(self, dtype=np.float64):
        """[n, 1, d, h, w] array for model input."""
        return np.stack([v.data for v in self.volumes])[:, None].astype(dtype)


# ---------------------------------------------------------------------------
# manifest I/O: one `path,class_index` record per line + classes file
# ---------------------------------------------------------------------------

def save_dataset(dataset, out_dir, prefix="vol"):
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for i, (vol, label) in enumerate(zip(dataset.volumes, dataset.labels)):
        name = f"{prefix}_{i:05d}.vvol"
        write_volume(vol, os.path.join(out_dir, name))
        records.append(f"{name},{label}")
    with open(os.path.join(out_dir, "manifest.csv"), "w") as fh:
        fh.write("\n".join(records) + "\n")
    with open(os.path.join(out_dir, "classes.txt"), "w") as fh:
        fh.write("\n".join(dataset.class_table) + "\n")
    return os.path.join(out_dir, "manifest.csv")


class ManifestError(ValueError):
    """A manifest record that cannot be loaded; the message names the file and line."""


def load_dataset(manifest_path):
    """Dataset from a manifest of ``path,class_index`` lines beside its classes.txt.

    A malformed line, a non-integer or out-of-table index, or a volume whose
    dims differ from the first volume's raises ManifestError; a missing volume
    file raises FileNotFoundError.
    """
    # the manifest is opened before classes.txt, so a missing manifest is the file named
    with open(manifest_path) as fh:
        base = os.path.dirname(os.path.abspath(manifest_path))
        classes_path = os.path.join(base, "classes.txt")
        with open(classes_path) as classes:
            class_table = [line.rstrip("\n") for line in classes if line.strip()]
        volumes, labels = [], []
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{manifest_path}, line {number}"
            path, comma, idx = line.rpartition(",")
            if not comma or not path:
                raise ManifestError(f"{where}: expected 'path,class_index', got {line!r}")
            try:
                label = int(idx)
            except ValueError:
                raise ManifestError(f"{where}: class index {idx!r} is not an integer") from None
            if not 0 <= label < len(class_table):
                raise ManifestError(f"{where}: class index {label} is outside the "
                                    f"{len(class_table)} classes of {classes_path}")
            volume = read_volume(os.path.join(base, path))
            if volumes and volume.dims != volumes[0].dims:
                raise ManifestError(f"{where}: volume {path} has dims {volume.dims}, "
                                    f"the first volume {volumes[0].dims}")
            volumes.append(volume)
            labels.append(label)
    return VolumeDataset(volumes, labels, class_table)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

@dataclass
class SplitResult:
    train: list = field(default_factory=list)
    validation: list = field(default_factory=list)
    test: list = field(default_factory=list)
    dropped_classes: list = field(default_factory=list)


LARGE_CLASS_MIN = 100
SMALL_CLASS_MIN = 30


def class_ratios(size):
    """(train, validation, test) ratios of a class of ``size`` samples."""
    return (7, 1, 2) if size >= LARGE_CLASS_MIN else (3, 1, 2)


def split_by_class_size(dataset, seed):
    """Per-class ratio split following the class-size rules (``class_ratios``).

    Classes with >= 100 samples split 7:1:2, classes with 30..99 split 3:1:2,
    classes under 30 samples are dropped. Test and validation counts round to
    nearest; train takes the remainder.
    """
    if len(dataset) == 0:
        raise ValueError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    result = SplitResult()
    for c in range(dataset.num_classes):
        members = dataset.class_indices(c)
        n = members.size
        if n == 0:
            continue
        if n < SMALL_CLASS_MIN:
            result.dropped_classes.append(c)
            continue
        r_train, r_val, r_test = class_ratios(n)
        total = r_train + r_val + r_test
        n_test = round(n * r_test / total)
        n_val = round(n * r_val / total)
        order = rng.permutation(members)
        result.test.extend(int(i) for i in order[:n_test])
        result.validation.extend(int(i) for i in order[n_test:n_test + n_val])
        result.train.extend(int(i) for i in order[n_test + n_val:])
    return result


class StratificationError(ValueError):
    pass


def stratified_kfold(dataset, k, seed):
    """k disjoint folds preserving per-class proportions (counts differ by <= 1)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    offset = 0
    for c in range(dataset.num_classes):
        members = dataset.class_indices(c)
        if members.size == 0:
            continue
        if members.size < k:
            raise StratificationError(
                f"class {dataset.class_table[c]!r} has {members.size} samples, fewer than k={k}")
        order = rng.permutation(members)
        for j, idx in enumerate(order):
            folds[(j + offset) % k].append(int(idx))
        # rotate which folds receive the remainder so sizes stay balanced
        offset = (offset + members.size) % k
    return [sorted(f) for f in folds]


# ---------------------------------------------------------------------------
# desk-scale synthetic fixture
# ---------------------------------------------------------------------------

BLOBS_PER_CLASS = 2


def make_blob_dataset(num_classes, per_class, dims, seed,
                      noise_std=0.06, amplitude_jitter=0.25, center_jitter=0.6):
    """Labeled volumes of smooth Gaussian activation blobs, one pattern per class.

    Each class owns fixed blob centers and widths; samples jitter amplitudes
    and centers slightly and add voxel noise, then min-max normalize.
    """
    if num_classes < 1 or per_class < 1 or len(dims) != 3 or any(d < 4 for d in dims):
        raise ValueError(f"need num_classes, per_class >= 1 and 3 dims >= 4, got "
                         f"{num_classes}, {per_class}, {list(dims)}")
    rng = np.random.default_rng(seed)
    axes = [np.arange(n, dtype=np.float64) for n in dims]
    margin = 0.2
    centers = rng.uniform(margin * np.asarray(dims), (1 - margin) * np.asarray(dims),
                          size=(num_classes, BLOBS_PER_CLASS, 3))
    widths = rng.uniform(0.09, 0.14, size=(num_classes, BLOBS_PER_CLASS)) * min(dims)

    volumes, labels = [], []
    for c in range(num_classes):
        for _ in range(per_class):
            vol = np.zeros(dims)
            for b in range(BLOBS_PER_CLASS):
                amp = 1.0 + rng.uniform(-amplitude_jitter, amplitude_jitter)
                ctr = centers[c, b] + rng.normal(0.0, center_jitter, size=3)
                # the per-axis squares, added in the order of a [d, h, w, 3] grid's
                # sum over its last axis: every voxel keeps its bits
                sq0, sq1, sq2 = [(axis - x) ** 2 for axis, x in zip(axes, ctr)]
                dist2 = (sq0[:, None, None] + sq1[None, :, None]) + sq2[None, None, :]
                vol += amp * np.exp(-dist2 / (2.0 * widths[c, b] ** 2))
            vol += rng.normal(0.0, noise_std, size=dims)
            volumes.append(normalize_minmax(Volume(vol)))
            labels.append(c)
    class_table = [f"class_{c}" for c in range(num_classes)]
    return VolumeDataset(volumes, labels, class_table)
