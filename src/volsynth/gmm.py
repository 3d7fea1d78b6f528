"""Per-class diagonal Gaussian mixtures fit by EM over masked voxel vectors.

Model per class: p(x) = sum_k pi_k N(x | mu_k, diag(var_k)).
E-step responsibilities are computed in log space (log-sum-exp); naive
probabilities underflow at masked-voxel dimensionality.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .volumes import Mask, apply_mask, scatter_mask

# EM stops once the mean log-likelihood gains less than EM_TOL in an iteration
EM_TOL = 1e-6
# the least variance any component keeps in any feature
VARIANCE_FLOOR = 1e-6


@dataclass
class EMConfig(nn.Config):
    num_components: int = 1
    max_iters: int = 100
    seed: int = 0


@dataclass
class MixtureParams:
    weights: np.ndarray      # [K], sums to 1
    means: np.ndarray        # [K, D]
    variances: np.ndarray    # [K, D], floored
    log_likelihoods: list    # mean log-likelihood after each EM iteration


def _log_gaussian_matrix(x, means, variances):
    """[n, K] matrix of log N(x_i | mu_k, diag(var_k))."""
    d = x.shape[1]
    log_det = np.log(variances).sum(axis=1)
    diff = x[:, None, :] - means[None, :, :]
    maha = ((diff * diff) / variances[None, :, :]).sum(axis=2)
    return -0.5 * (d * np.log(2.0 * np.pi) + log_det[None, :] + maha)


def _logsumexp(a, axis):
    amax = a.max(axis=axis, keepdims=True)
    return amax + np.log(np.exp(a - amax).sum(axis=axis, keepdims=True))


def _kmeanspp_centers(x, k, rng):
    """Seed means k-means++ style: spread proportionally to squared distance."""
    n = x.shape[0]
    centers = [x[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min(
            ((x[:, None, :] - np.asarray(centers)[None, :, :]) ** 2).sum(axis=2), axis=1)
        total = d2.sum()
        if total <= 0:
            centers.append(x[rng.integers(n)])
            continue
        centers.append(x[rng.choice(n, p=d2 / total)])
    return np.asarray(centers)


def em_fit(features, config):
    """Fit one mixture by EM until the mean log-likelihood gain drops below EM_TOL."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be [n, d], got shape {x.shape}")
    n, d = x.shape
    k = config.num_components
    if n < k:
        raise ValueError(f"need at least {k} samples to fit {k} components, got {n}")
    rng = np.random.default_rng(config.seed)

    weights = np.full(k, 1.0 / k)
    means = _kmeanspp_centers(x, k, rng)
    variances = np.maximum(x.var(axis=0, keepdims=True), VARIANCE_FLOOR) \
        * np.ones((k, d))

    history = []
    prev = -np.inf
    for _ in range(config.max_iters):
        log_prob = np.log(weights)[None, :] + _log_gaussian_matrix(x, means, variances)
        lse = _logsumexp(log_prob, axis=1)
        mean_ll = float(lse.mean())
        history.append(mean_ll)
        resp = np.exp(log_prob - lse)

        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        weights = nk / n
        means = (resp.T @ x) / nk[:, None]
        second = (resp.T @ (x * x)) / nk[:, None]
        variances = np.maximum(second - means * means, VARIANCE_FLOOR)

        if mean_ll - prev < EM_TOL and np.isfinite(prev):
            break
        prev = mean_ll

    return MixtureParams(weights=weights, means=means, variances=variances,
                         log_likelihoods=history)


class ClassGMM:
    """One mixture per class over masked voxel features."""

    def __init__(self, mask, config):
        self.mask = mask
        self.config = config
        self.per_class = {}

    @property
    def trained_classes(self):
        return sorted(self.per_class)

    @property
    def num_classes(self):
        """Length of a class table that every trained class indexes into."""
        return max(self.per_class) + 1

    def fit(self, features_by_class):
        for class_index, feats in sorted(features_by_class.items()):
            cfg = replace(self.config, seed=self.config.seed + class_index)
            self.per_class[class_index] = em_fit(feats, cfg)
        return self

    def _require(self, class_index):
        if class_index not in self.per_class:
            raise KeyError(
                f"class {class_index} is not trained; trained classes: {self.trained_classes}")
        return self.per_class[class_index]

    def log_likelihood(self, class_index, x):
        params = self._require(class_index)
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != params.means.shape[1]:
            raise ValueError(
                f"feature length {x.shape[1]} does not match model dim {params.means.shape[1]}")
        log_prob = np.log(params.weights)[None, :] + _log_gaussian_matrix(
            x, params.means, params.variances)
        out = _logsumexp(log_prob, axis=1).reshape(-1)
        return float(out[0]) if out.size == 1 else out

    def _feature_chunks(self, class_index, n, seed):
        """``n`` draws in nn.INFERENCE_CHUNK-row blocks, one generator for all.

        The components are drawn first, then the normal noise block by block,
        so the stream and the draws are those of one [n, D] draw.
        """
        if n < 1:
            raise ValueError(f"sample count must be >= 1, got {n}")
        params = self._require(class_index)
        rng = np.random.default_rng(seed)
        comps = rng.choice(params.weights.size, size=n, p=params.weights)
        for start in range(0, n, nn.INFERENCE_CHUNK):
            block = comps[start:start + nn.INFERENCE_CHUNK]
            yield params.means[block] + rng.standard_normal(
                (block.size, params.means.shape[1])) * np.sqrt(params.variances[block])

    def sample_features(self, class_index, n, seed):
        return np.concatenate(list(self._feature_chunks(class_index, n, seed)))

    def sample_volumes(self, class_index, n, seed):
        """Class-conditional volumes: draw features, scatter through the mask.

        Invalid voxels are zero; values clamp to [0,1] like noise augmentation.
        """
        return [scatter_mask(f, self.mask)
                for chunk in self._feature_chunks(class_index, n, seed) for f in chunk]


def fit_class_gmms(dataset, mask, config):
    """Train one mixture per class present in ``dataset``."""
    if mask.valid_count == 0:
        raise ValueError("GMM training needs at least one feature; the mask keeps no voxel")
    features_by_class = {}
    for volume, label in zip(dataset.volumes, dataset.labels):
        features_by_class.setdefault(int(label), []).append(apply_mask(volume, mask))
    model = ClassGMM(mask, config)
    model.fit({c: np.asarray(v) for c, v in features_by_class.items()})
    return model


def save_gmm(model, path):
    arrays = {"mask": model.mask.bits.astype(np.float64)}
    for c in model.trained_classes:
        p = model.per_class[c]
        arrays[f"class_{c}.weights"] = p.weights
        arrays[f"class_{c}.means"] = p.means
        arrays[f"class_{c}.variances"] = p.variances
    feature_dim = model.per_class[model.trained_classes[0]].means.shape[1] \
        if model.per_class else 0
    extra = {
        "kind": "gmm",
        "classes": model.trained_classes,
        "K": model.config.num_components,
        "feature_dim": feature_dim,
        "mask_dims": list(model.mask.dims),
    }
    nn.save_checkpoint(path, arrays, precision="float64", extra=extra)


def load_gmm(arrays, extra):
    """The mixtures of a checkpoint's arrays and header, once they fit together."""
    mask = Mask(arrays["mask"].reshape(extra["mask_dims"]) > 0.5)
    model = ClassGMM(mask, EMConfig(num_components=extra["K"]))
    k, d = extra["K"], extra["feature_dim"]
    if d != mask.valid_count:
        raise ValueError(f"feature_dim {d} but the mask keeps {mask.valid_count} voxels")
    for c in extra["classes"]:
        w, mu, var = (arrays[f"class_{c}.{n}"] for n in ("weights", "means", "variances"))
        if not (w.shape == (k,) and mu.shape == var.shape == (k, d) and np.all(w >= 0)
                and np.isclose(w.sum(), 1) and np.all(var > 0)):
            raise ValueError(f"class {c} needs {k} weights >= 0 that sum to 1, and "
                             f"{k} x {d} means and variances > 0")
        model.per_class[int(c)] = MixtureParams(w, mu, var, log_likelihoods=[])
    return model
