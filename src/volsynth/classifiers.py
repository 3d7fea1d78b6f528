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


def train_svm(features, labels, reg_c=1.0, epochs=300, seed=0, mask=None):
    """One-vs-rest hinge loss with L2 regularization, full-batch subgradient.

    The step decays as 1/(lambda * t); full-batch updates from a zero start
    make the run deterministic regardless of the seed.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=int)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"features {x.shape} and labels {y.shape} are inconsistent")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("SVM training needs at least two classes")
    num_classes = int(y.max()) + 1
    n, f = x.shape
    lam = 1.0 / (reg_c * n)
    targets = np.where(one_hot(y, num_classes) > 0, 1.0, -1.0)   # [n, C]

    w = np.zeros((num_classes, f))
    b = np.zeros(num_classes)
    for t in range(1, epochs + 1):
        margins = targets * (x @ w.T + b)            # [n, C]
        viol = margins < 1.0
        coeff = np.where(viol, targets, 0.0)         # [n, C]
        grad_w = lam * w - (coeff.T @ x) / n
        grad_b = -coeff.mean(axis=0)
        eta = 1.0 / (lam * t)
        w -= eta * grad_w
        b -= eta * grad_b
    return LinearSVMModel(weights=w, biases=b, reg_c=reg_c, mask=mask)


# ---------------------------------------------------------------------------
# 3D conv-net classifier
# ---------------------------------------------------------------------------

@dataclass
class DNNConfig:
    channels: tuple = (8, 16, 32, 64)
    batch_size: int = 50
    learning_rate: float = 1e-3
    epochs: int = 30
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    leaky_alpha: float = 0.2
    dtype: str = "float32"


class DNNClassifier(nn.Module):
    """Critic-shaped tower without label concatenation; dense head to logits."""

    def __init__(self, dims, num_classes, config, rng, dtype=np.float64, name="clf"):
        self.num_classes = num_classes
        self.tower = nn.ConvTower(dims, 1, config.channels, config.leaky_alpha, rng, name,
                                  dtype=dtype)
        self.head = nn.Dense(self.tower.out_features, num_classes, rng, f"{name}.head",
                             dtype=dtype)

    def forward(self, x):
        flat, _ = self.tower.forward(x if isinstance(x, Tensor) else Tensor(x))
        return self.head(flat)

    def predict(self, volumes_array):
        dtype = self.head.weight.data.dtype
        logits = self.forward(Tensor(volumes_array.astype(dtype)))
        return np.argmax(logits.data, axis=1)


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
    model = DNNClassifier(x_all.shape[2:], num_classes, config, rng, dtype=dtype)
    params = model.parameters()
    opt = nn.Adam(params, config.learning_rate, config.beta1, config.beta2)

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
            if idx.size == 0:
                continue
            logits = model.forward(Tensor(x_all[idx]))
            loss = ad.softmax_cross_entropy(logits, onehots[idx])
            grads = ad.backward(loss, params)
            opt.step(grads)
            total += loss.item()
            batches += 1
        history.train_loss.append(total / max(batches, 1))
        if val_volumes is not None and len(val_volumes) > 0:
            preds = model.predict(np.asarray(val_volumes))
            acc = float((preds == np.asarray(val_labels)).mean())
            history.val_accuracy.append(acc)
            if acc > best[0]:
                best = (acc, model.state_arrays(), epoch)
    if best[1] is not None:
        model.load_state(best[1])
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
