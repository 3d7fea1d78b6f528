"""Conditional VAE over labeled 3D volumes.

Encoder: strided conv stack with leaky ReLU (no normalization, so identical
inputs encode to identical rows in any mode), label volume concatenated at
the input, dense heads for the posterior mean and log-variance. Decoder:
dense([z;y]) seed volume, transposed conv stack with batchnorm + ReLU and a
sigmoid head, mirroring the adversarial generator's geometry.

Training minimizes the negative evidence lower bound: a Bernoulli
reconstruction term plus the closed-form KL between the diagonal-Gaussian
posterior and the standard normal prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .datasets import one_hot
from .volumes import Volume


@dataclass
class CVAEConfig:
    latent_dim: int = 128
    batch_size: int = 50
    learning_rate: float = 1e-4
    epochs: int = 20
    seed: int = 0
    enc_channels: tuple = (8, 16, 32, 64)
    dec_channels: tuple = (64, 32, 16, 8)
    beta1: float = 0.9
    beta2: float = 0.999
    leaky_alpha: float = 0.2
    reconstruction: str = "bernoulli"   # or "gaussian_mse"
    dtype: str = "float32"

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (decoder batchnorm)")
        if self.reconstruction not in ("bernoulli", "gaussian_mse"):
            raise ValueError(f"unknown reconstruction {self.reconstruction!r}")


@dataclass
class LossParts:
    reconstruction: float
    kl: float

    @property
    def total(self):
        return self.reconstruction + self.kl


class CVAE(nn.Module):
    def __init__(self, dims, num_classes, config, rng, dtype=np.float64):
        self.dims = tuple(dims)
        self.num_classes = num_classes
        self.config = config
        self.label_proj = nn.LabelProjection(num_classes, self.dims, rng, "enc.proj",
                                             dtype=dtype)
        # input channels: the volume and its label volume
        self.encoder = nn.ConvTower(dims, 2, config.enc_channels, config.leaky_alpha, rng,
                                    "enc", dtype=dtype)
        flat = self.encoder.out_features
        self.mu_head = nn.Dense(flat, config.latent_dim, rng, "enc.mu", dtype=dtype)
        self.logvar_head = nn.Dense(flat, config.latent_dim, rng, "enc.logvar", dtype=dtype)
        self.decoder = nn.DeconvTower(dims, config.latent_dim + num_classes,
                                      config.dec_channels, rng, "dec", dtype=dtype)

    def encode(self, x, y):
        x = x if isinstance(x, Tensor) else Tensor(x)
        y = nn.label_tensor(y, self.num_classes)
        if x.data.shape[0] != y.data.shape[0]:
            raise ad.DimensionError(
                f"batch sizes differ: volumes {x.data.shape[0]} vs labels {y.data.shape[0]}")
        flat, _ = self.encoder.forward(ad.concat_channels(x, self.label_proj(y)))
        return self.mu_head(flat), self.logvar_head(flat)

    def decode(self, z, y, training=False):
        z = z if isinstance(z, Tensor) else Tensor(z)
        y = nn.label_tensor(y, self.num_classes)
        if z.data.shape[1] != self.config.latent_dim:
            raise ad.DimensionError(
                f"latent dim {z.data.shape[1]} does not match configured "
                f"{self.config.latent_dim}")
        return self.decoder.forward(ad.concat([z, y], axis=1), training)


def reparameterize(mu, logvar, eps):
    """z = mu + exp(0.5*logvar) * eps with an external standard-normal draw."""
    if mu.data.shape != logvar.data.shape:
        raise ad.DimensionError(
            f"mu shape {mu.data.shape} does not match logvar {logvar.data.shape}")
    eps = eps if isinstance(eps, Tensor) else Tensor(np.asarray(eps, dtype=mu.data.dtype))
    return ad.add(mu, ad.mul(ad.texp(ad.mul(logvar, 0.5)), eps))


def kl_standard_normal(mu, logvar):
    """Closed-form KL(q || N(0,I)) summed over latents, averaged over the batch."""
    n = mu.data.shape[0]
    term = ad.add(ad.add(ad.texp(logvar), ad.power(mu, 2.0)), ad.neg(logvar))
    return ad.mul(ad.tsum(ad.add(term, -1.0)), 0.5 / n)


def elbo_loss(x, x_hat, mu, logvar, reconstruction="bernoulli"):
    """Negative ELBO pieces; total = reconstruction + kl, both batch-averaged."""
    if reconstruction == "bernoulli":
        rec = ad.bernoulli_reconstruction(x_hat, x)
    elif reconstruction == "gaussian_mse":
        rec = ad.mse_reconstruction(x_hat, x)
    else:
        raise ValueError(f"unknown reconstruction {reconstruction!r}")
    kl = kl_standard_normal(mu, logvar)
    total = ad.add(rec, kl)
    return total, LossParts(reconstruction=rec.item(), kl=kl.item())


@dataclass
class CVAEHistory:
    epochs: list = field(default_factory=list)   # per-epoch mean LossParts
    validation: list = field(default_factory=list)
    best_epoch: int = -1


def train_cvae(dataset, config, val_indices=None, train_indices=None):
    """Minimize the negative ELBO with Adam; keep the best-validation epoch.

    Without a validation set the final epoch's parameters are kept.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    if config.batch_size < 2:
        raise ValueError("batch_size must be >= 2 (decoder batchnorm)")
    dtype = np.dtype(config.dtype).type
    rng = np.random.default_rng(config.seed)
    model = CVAE(dataset.dims, dataset.num_classes, config, rng, dtype=dtype)
    params = model.parameters()
    opt = nn.Adam(params, config.learning_rate, config.beta1, config.beta2)

    if train_indices is None:
        train_indices = np.arange(len(dataset))
    else:
        train_indices = np.asarray(train_indices)
    volumes = dataset.stack(dtype=dtype)
    labels = one_hot(dataset.labels, dataset.num_classes, dtype=dtype)

    history = CVAEHistory()
    best = (np.inf, None, config.epochs - 1)   # (score, state, epoch)
    n = train_indices.size
    for epoch in range(config.epochs):
        order = train_indices[rng.permutation(n)]
        parts_sum = np.zeros(2)
        batches = 0
        for start in range(0, n - 1, config.batch_size):
            idx = order[start:start + config.batch_size]
            if idx.size < 2:
                continue
            x = Tensor(volumes[idx])
            y = Tensor(labels[idx])
            mu, logvar = model.encode(x, y)
            eps = Tensor(rng.standard_normal(mu.data.shape).astype(dtype))
            z = reparameterize(mu, logvar, eps)
            x_hat = model.decode(z, y, training=True)
            total, parts = elbo_loss(x, x_hat, mu, logvar, config.reconstruction)
            grads = ad.backward(total, params)
            opt.step(grads)
            parts_sum += (parts.reconstruction, parts.kl)
            batches += 1
        mean_parts = LossParts(*(parts_sum / max(batches, 1)))
        history.epochs.append(mean_parts)
        if val_indices is not None and len(val_indices) > 0:
            val_loss = evaluate_elbo(model, dataset, val_indices, config).total
            history.validation.append(val_loss)
            if val_loss < best[0]:
                best = (val_loss, model.state_arrays(), epoch)
    if best[1] is not None:
        model.load_state(best[1])
    history.best_epoch = best[2]
    return model, history


def evaluate_elbo(model, dataset, indices, config):
    """Deterministic loss on held-out volumes: eps = 0, inference-mode stats."""
    indices = np.asarray(indices)
    dtype = np.dtype(config.dtype).type
    volumes = dataset.stack(dtype=dtype)[indices]
    labels = one_hot(dataset.labels[indices], dataset.num_classes, dtype=dtype)
    x = Tensor(volumes)
    y = Tensor(labels)
    mu, logvar = model.encode(x, y)
    z = reparameterize(mu, logvar, Tensor(np.zeros(mu.data.shape, dtype=dtype)))
    x_hat = model.decode(z, y, training=False)
    _, parts = elbo_loss(x, x_hat, mu, logvar, config.reconstruction)
    return parts


def sample_cvae(model, class_index, count, seed):
    """Decode prior draws conditioned on one class (inference mode)."""
    z, y = nn.prior_draws(model.num_classes, model.config.latent_dim,
                          model.decoder.input_dense.weight.data.dtype, class_index, count, seed)
    out = model.decode(z, y, training=False)
    return [Volume(out.data[i, 0]) for i in range(count)]


# the config fields a checkpoint records: those that shape the model
CHECKPOINT_FIELDS = ("latent_dim", "enc_channels", "dec_channels", "leaky_alpha",
                     "reconstruction", "dtype")


def save_cvae(model, path):
    extra = {"kind": "cvae", "dims": list(model.dims), "num_classes": model.num_classes}
    extra.update((k, getattr(model.config, k)) for k in CHECKPOINT_FIELDS)
    nn.save_checkpoint(path, model.state_arrays(), precision=model.config.dtype, extra=extra)


def load_cvae(path):
    arrays, extra = nn.load_checkpoint(path)
    if not extra or extra.get("kind") != "cvae":
        raise nn.CheckpointError(f"{path} is not a CVAE checkpoint")
    config = nn.model_config(CVAEConfig, {k: extra[k] for k in CHECKPOINT_FIELDS})
    dtype = np.dtype(config.dtype).type
    model = CVAE(extra["dims"], extra["num_classes"], config,
                 np.random.default_rng(0), dtype=dtype)
    model.load_state(arrays)
    return model, config
