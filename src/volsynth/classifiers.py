"""Downstream classifiers and evaluation metrics.

A linear one-vs-rest SVM runs on masked voxel vectors; the 3D conv-net
classifier mirrors the critic tower (strided convs, leaky ReLU) but sees no
label information. Metrics: accuracy plus macro-averaged precision, recall,
and F1 from the confusion matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .datasets import one_hot


# ---------------------------------------------------------------------------
# linear SVM
# ---------------------------------------------------------------------------

@dataclass
class LinearSVMModel:
    weights: np.ndarray        # [num_classes, num_features]
    biases: np.ndarray         # [num_classes]
    reg_c: float
    mask: object = None        # Mask the features were extracted with

    def scores(self, features):
        return np.asarray(features) @ self.weights.T + self.biases

    def predict(self, features):
        # np.argmax resolves exact ties toward the lowest class index
        return np.argmax(self.scores(features), axis=1)


@dataclass
class SVMConfig(nn.Config):
    """The ``svm`` block: the settings of :func:`train_svm` and their defaults."""

    reg_c: float = 1.0
    epochs: int = 300


def train_svm(features, labels, reg_c=SVMConfig.reg_c, epochs=SVMConfig.epochs, mask=None):
    """One-vs-rest hinge loss with L2 regularization, full-batch subgradient.

    The step decays as 1/(lambda * t); full-batch updates from a zero start
    make the run deterministic, so it draws no random numbers.

    From the zero start every iterate lies in the span of the training rows,
    w = beta.T @ x (Shalev-Shwartz et al. 2011, "Pegasos", section 4), so the
    epochs update the dual coefficients ``beta`` [n, C] and read their margins
    from the n x n Gram matrix, never from the [n, D] features. The Gram
    matrix holds n * n floats against the features' n * D. Every caller trains
    on masked voxel vectors, with fewer volumes than voxels, so there is no
    switch to a primal loop for n > D: the result would be the same, only the
    Gram matrix larger than the features.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=int)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"features {x.shape} and labels {y.shape} are inconsistent")
    if x.shape[1] == 0:
        raise ValueError("SVM training needs at least one feature; the mask keeps no voxel")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("SVM training needs at least two classes")
    num_classes = int(y.max()) + 1
    n = x.shape[0]
    lam = 1.0 / (reg_c * n)
    targets = np.where(one_hot(y, num_classes) > 0, 1.0, -1.0)   # [n, C]

    gram = x @ x.T                                   # [n, n]
    beta = np.zeros((n, num_classes))
    b = np.zeros(num_classes)
    for t in range(1, epochs + 1):
        margins = targets * (gram @ beta + b)        # [n, C]
        viol = margins < 1.0
        coeff = np.where(viol, targets, 0.0)         # [n, C]
        eta = 1.0 / (lam * t)
        # w <- w - eta * (lam * w - coeff.T @ x / n), written on beta
        beta *= 1.0 - eta * lam
        beta += (eta / n) * coeff
        b += eta * coeff.mean(axis=0)
    return LinearSVMModel(weights=beta.T @ x, biases=b, reg_c=reg_c, mask=mask)


# ---------------------------------------------------------------------------
# 3D conv-net classifier
# ---------------------------------------------------------------------------

@dataclass
class DNNConfig(nn.Config):
    channels: tuple = (8, 16, 32, 64)
    batch_size: int = 50
    learning_rate: float = 1e-3
    epochs: int = 30
    seed: int = 0
    dtype: str = "float32"


class DNNClassifier(nn.Module):
    """Critic-shaped tower without label concatenation; dense head to logits."""

    def __init__(self, dims, num_classes, config, rng):
        self.num_classes = num_classes
        self.config = config
        self.tower = nn.ConvTower(dims, 1, config.channels, rng, "clf")
        self.head = nn.Dense(self.tower.out_features, num_classes, rng, "clf.head")
        self.cast(config.dtype)

    def forward(self, x):
        flat, _ = self.tower.forward(x if isinstance(x, Tensor) else Tensor(x))
        return self.head(flat)

    def predict(self, volumes_array):
        dtype = self.head.weight.data.dtype
        logits = nn.in_chunks(lambda x: self.forward(Tensor(x.astype(dtype))).data,
                              volumes_array)
        return np.argmax(logits, axis=1)


@dataclass
class DNNHistory:
    train_loss: list = field(default_factory=list)
    val_accuracy: list = field(default_factory=list)
    best_epoch: int = -1


def train_dnn_classifier(volumes, labels, config, num_classes=None,
                         val_volumes=None, val_labels=None):
    """Softmax cross-entropy with Adam; keeps the best-validation epoch.

    ``volumes`` is an [n,1,d,h,w] array; labels are integer class indices.
    Without validation data the final epoch's parameters are kept.
    """
    x_all = np.asarray(volumes)
    y_all = np.asarray(labels, dtype=int)
    if x_all.shape[0] == 0:
        raise ValueError("cannot train a classifier on an empty dataset")
    if x_all.shape[0] != y_all.shape[0]:
        raise ValueError(f"volumes {x_all.shape[0]} and labels {y_all.shape[0]} differ")
    if num_classes is None:
        num_classes = int(y_all.max()) + 1
    dtype = np.dtype(config.dtype).type
    rng = np.random.default_rng(config.seed)
    model = DNNClassifier(x_all.shape[2:], num_classes, config, rng)
    params = model.parameters()
    adam = nn.AdamState(config.learning_rate)

    x_all = x_all.astype(dtype)
    onehots = one_hot(y_all, num_classes, dtype=dtype)
    history = DNNHistory()
    best = (-np.inf, None, config.epochs - 1)   # (score, state, epoch)
    n = x_all.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total, batches = 0.0, 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            logits = model.forward(Tensor(x_all[idx]))
            loss = ad.softmax_cross_entropy(logits, onehots[idx])
            grads = ad.backward(loss, params)
            nn.adam_step(params, grads, adam)
            total += loss.item()
            batches += 1
        history.train_loss.append(total / max(batches, 1))
        if val_volumes is not None and len(val_volumes) > 0:
            preds = model.predict(np.asarray(val_volumes))
            acc = float((preds == np.asarray(val_labels)).mean())
            history.val_accuracy.append(acc)
            if acc > best[0]:
                best = (acc, nn.state_arrays(model), epoch)
    if best[1] is not None:
        nn.load_state(best[1], model)
    history.best_epoch = best[2]
    return model, history


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass
class MetricsReport:
    accuracy: float
    macro_f1: float
    precision: float
    recall: float
    confusion: np.ndarray      # [num_classes, num_classes], rows are truths
    per_class_f1: np.ndarray

    def as_row(self):
        return (self.accuracy, self.macro_f1, self.precision, self.recall)


def evaluate(predictions, truths, num_classes):
    """Confusion-matrix metrics; precision/recall/F1 are macro averages.

    Per-class ratios with empty denominators count as 0; classes absent from
    the truths still enter the macro averages (with a warning).
    """
    preds = np.asarray(predictions, dtype=int)
    truth = np.asarray(truths, dtype=int)
    if preds.shape != truth.shape:
        raise ValueError(f"predictions {preds.shape} and truths {truth.shape} differ")
    if preds.size == 0:
        raise ValueError("cannot evaluate an empty prediction set")
    if preds.max() >= num_classes or truth.max() >= num_classes \
            or preds.min() < 0 or truth.min() < 0:
        raise ValueError(f"class index outside [0, {num_classes})")

    confusion = np.zeros((num_classes, num_classes), dtype=int)
    np.add.at(confusion, (truth, preds), 1)

    truth_counts = confusion.sum(axis=1)
    pred_counts = confusion.sum(axis=0)
    diag = np.diag(confusion).astype(np.float64)
    absent = np.flatnonzero(truth_counts == 0)
    if absent.size:
        warnings.warn(
            f"classes {absent.tolist()} absent from truths contribute 0 to macro averages",
            stacklevel=2)

    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(pred_counts > 0, diag / pred_counts, 0.0)
        recall = np.where(truth_counts > 0, diag / truth_counts, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2.0 * precision * recall / denom, 0.0)

    return MetricsReport(
        accuracy=float(diag.sum() / preds.size),
        macro_f1=float(f1.mean()),
        precision=float(precision.mean()),
        recall=float(recall.mean()),
        confusion=confusion,
        per_class_f1=f1,
    )
