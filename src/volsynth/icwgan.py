"""Improved conditional Wasserstein GAN over labeled 3D volumes.

Generator: dense([z;y]) seed volume, then a stack of transposed convolutions
with batchnorm + ReLU in between and a sigmoid head. Discriminator mirrors it
with strided convolutions, leaky ReLU, and a linear score; no normalization,
so the gradient penalty stays well-posed. Both condition on labels at the
input and at every hidden layer via dense+tanh projections to single-channel
volumes.

Critic objective:
    E[D(G(z|y))] - E[D(x|y)] + lambda * E[(||grad_xhat D(xhat|y)||_2 - 1)^2]
with xhat = eps*x + (1-eps)*G(z), eps ~ U[0,1] per sample. The generator
minimizes -E[D(G(z|y))]. The penalty gradient is built as an explicit
second-pass graph: the backward sweep through the critic is composed from
transposed convolutions and constant activation masks, so the penalty itself
is differentiable with respect to the critic parameters.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .datasets import one_hot
from .volumes import Volume


@dataclass
class GANConfig:
    z_dim: int = 128
    lambda_gp: float = 10.0
    critic_iters: int = 5
    batch_size: int = 50
    learning_rate: float = 1e-4
    epochs: int = 10
    seed: int = 0
    gen_channels: tuple = (64, 32, 16, 8)
    disc_channels: tuple = (8, 16, 32, 64)
    beta1: float = 0.5
    beta2: float = 0.9
    leaky_alpha: float = 0.2
    checkpoint_every: int = 0      # generator steps between checkpoints; 0 disables
    dtype: str = "float32"

    def __post_init__(self):
        if self.lambda_gp < 0:
            raise ValueError("lambda_gp must be >= 0")
        if self.critic_iters < 1:
            raise ValueError("critic_iters must be >= 1")
        if self.z_dim < 1 or self.batch_size < 1:
            raise ValueError("z_dim and batch_size must be positive")


class Generator(nn.Module):
    def __init__(self, dims, num_classes, config, rng, dtype=np.float64, name="gen"):
        self.num_classes = num_classes
        self.z_dim = config.z_dim
        self.tower = nn.DeconvTower(dims, config.z_dim + num_classes, config.gen_channels,
                                    rng, name, label_channels=1, dtype=dtype)
        self.sizes = self.tower.sizes
        self.projections = [
            nn.LabelProjection(num_classes, self.sizes[i], rng, f"{name}.proj{i}",
                               dtype=dtype)
            for i in range(len(self.sizes) - 1)
        ]

    def project_label(self, y, layer):
        """Label volume for the given layer's spatial size; values in (-1,1)."""
        if not 0 <= layer < len(self.projections):
            raise KeyError(
                f"no label projection for layer {layer}; configured spatial sizes "
                f"{self.sizes[:-1]}")
        return self.projections[layer](nn.label_tensor(y, self.num_classes))

    def forward(self, z, y, training):
        z = z if isinstance(z, Tensor) else Tensor(z)
        y = nn.label_tensor(y, self.num_classes)
        if z.data.shape[1] != self.z_dim:
            raise ad.DimensionError(
                f"latent dim {z.data.shape[1]} does not match configured {self.z_dim}")
        return self.tower.forward(ad.concat([z, y], axis=1), training,
                                  [proj(y) for proj in self.projections])


class Discriminator(nn.Module):
    def __init__(self, dims, num_classes, config, rng, dtype=np.float64, name="disc"):
        self.num_classes = num_classes
        self.tower = nn.ConvTower(dims, 1, config.disc_channels, config.leaky_alpha, rng,
                                  name, label_channels=1, dtype=dtype)
        self.sizes = self.tower.sizes
        self.projections = [
            nn.LabelProjection(num_classes, self.sizes[i], rng, f"{name}.proj{i}",
                               dtype=dtype)
            for i in range(len(self.sizes) - 1)
        ]
        self.head = nn.Dense(self.tower.out_features, 1, rng, f"{name}.head", dtype=dtype)

    def forward(self, x, y):
        score, _ = self._forward_parts(x, y)
        return score

    def _forward_parts(self, x, y):
        x = x if isinstance(x, Tensor) else Tensor(x)
        y = nn.label_tensor(y, self.num_classes)
        flat, pres = self.tower.forward(x, [proj(y) for proj in self.projections])
        return self.head(flat), pres

    def score_and_input_grad(self, x, y):
        """Critic scores plus the per-sample gradient of the score w.r.t. x.

        The gradient is an explicit graph over the critic parameters: the
        backward sweep is composed from transposed convolutions and the
        (piecewise-constant) leaky-ReLU slope masks, so downstream losses can
        differentiate through it.
        """
        x = x if isinstance(x, Tensor) else Tensor(x)
        score, pres = self._forward_parts(x, y)
        n = x.data.shape[0]
        ones = Tensor(np.ones((n, 1), dtype=x.data.dtype))
        delta = ad.matmul(ones, ad.transpose2d(self.head.weight))
        delta = ad.reshape(delta, pres[-1].data.shape)
        for i in reversed(range(len(pres))):
            conv = self.tower.convs[i]
            dt = pres[i].data.dtype.type
            slope = np.where(pres[i].data > 0, dt(1.0), dt(self.tower.alpha))
            delta = ad.mul(delta, Tensor(slope))
            delta = ad.conv3d_transpose(delta, conv.kernel, None, stride=conv.stride,
                                        pad=conv.pad, output_dims=self.sizes[i])
            # drop the label channel: xhat never feeds the projections
            delta = ad.narrow(delta, 1, 0, conv.kernel.data.shape[1] - 1)
        return score, delta


def interpolate(x_real, x_fake, eps):
    """Per-sample convex combination eps*x_real + (1-eps)*x_fake."""
    xr = x_real.data if isinstance(x_real, Tensor) else np.asarray(x_real)
    xf = x_fake.data if isinstance(x_fake, Tensor) else np.asarray(x_fake)
    if xr.shape != xf.shape:
        raise ad.DimensionError(f"interpolate shapes differ: {xr.shape} vs {xf.shape}")
    eps = np.asarray(eps, dtype=xr.dtype).reshape(-1, *([1] * (xr.ndim - 1)))
    if np.any(eps < 0) or np.any(eps > 1):
        raise ValueError("interpolation draws must lie in [0,1]")
    return Tensor(eps * xr + (1.0 - eps) * xf)


def gradient_penalty(disc, x_hat, y):
    """Mean of (||grad_xhat D(xhat|y)||_2 - 1)^2 over the batch."""
    _, grad = disc.score_and_input_grad(x_hat, y)
    sq = ad.tsum(ad.mul(grad, grad), axis=(1, 2, 3, 4))
    norms = ad.tsqrt(sq)
    return ad.tmean(ad.power(norms - 1.0, 2.0))


def critic_loss(disc, gen, x_real, y, z, eps, lambda_gp, training=True):
    """Critic objective on one batch; fake samples reuse the real labels."""
    fake = gen.forward(z, y, training=training).detach()
    x_hat = interpolate(x_real, fake, eps)
    loss = ad.tmean(disc.forward(fake, y)) - ad.tmean(disc.forward(x_real, y))
    penalty = gradient_penalty(disc, x_hat, y)
    return ad.add(loss, ad.mul(penalty, lambda_gp)), penalty


def generator_loss(disc, gen, y, z, training=True):
    fake = gen.forward(z, y, training=training)
    return ad.neg(ad.tmean(disc.forward(fake, y)))


@dataclass
class GANTrainLog:
    entries: list = field(default_factory=list)  # (step, role, loss, penalty)

    def append(self, step, role, loss, penalty):
        self.entries.append((step, role, float(loss), float(penalty)))

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("step,role,loss,penalty_term\n")
            for step, role, loss, penalty in self.entries:
                fh.write(f"{step},{role},{loss!r},{penalty!r}\n")


def train_icwgan(dataset, config, out_dir=None):
    """Alternate critic_iters critic steps with one generator step."""
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if config.batch_size > n:
        raise ValueError(
            f"batch size {config.batch_size} exceeds dataset size {n}")
    dtype = np.dtype(config.dtype).type
    rng = np.random.default_rng(config.seed)
    dims = dataset.dims
    num_classes = dataset.num_classes
    gen = Generator(dims, num_classes, config, rng, dtype=dtype)
    disc = Discriminator(dims, num_classes, config, rng, dtype=dtype)
    gen_params = gen.parameters()
    disc_params = disc.parameters()
    opt_g = nn.Adam(gen_params, config.learning_rate, config.beta1, config.beta2)
    opt_d = nn.Adam(disc_params, config.learning_rate, config.beta1, config.beta2)

    volumes = dataset.stack(dtype=dtype)
    labels = one_hot(dataset.labels, num_classes, dtype=dtype)
    log = GANTrainLog()
    step = 0
    gen_steps = 0
    critic_since_gen = 0
    last_y = None
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n - config.batch_size + 1, config.batch_size):
            idx = order[start:start + config.batch_size]
            x_real = Tensor(volumes[idx])
            y = Tensor(labels[idx])
            z = Tensor(rng.standard_normal((idx.size, config.z_dim)).astype(dtype))
            eps = rng.uniform(0.0, 1.0, size=idx.size)
            loss, penalty = critic_loss(disc, gen, x_real, y, z, eps, config.lambda_gp)
            grads = ad.backward(loss, disc_params)
            opt_d.step(grads)
            step += 1
            log.append(step, "critic", loss.item(), penalty.item())
            critic_since_gen += 1
            last_y = y
            if critic_since_gen == config.critic_iters:
                z = Tensor(rng.standard_normal((last_y.data.shape[0], config.z_dim)).astype(dtype))
                gloss = generator_loss(disc, gen, last_y, z)
                grads = ad.backward(gloss, gen_params)
                opt_g.step(grads)
                step += 1
                gen_steps += 1
                log.append(step, "gen", gloss.item(), 0.0)
                critic_since_gen = 0
                if out_dir and config.checkpoint_every and gen_steps % config.checkpoint_every == 0:
                    save_gan(gen, disc, os.path.join(out_dir, f"gan_step{gen_steps:06d}.ckpt"),
                             dims, num_classes, config)
    return gen, disc, log


def sample_gan(gen, class_index, count, seed):
    """Class-conditional volumes from the frozen generator (inference mode)."""
    z, y = nn.prior_draws(gen.num_classes, gen.z_dim, gen.tower.input_dense.weight.data.dtype,
                          class_index, count, seed)
    out = gen.forward(z, y, training=False)
    return [Volume(out.data[i, 0]) for i in range(count)]


# the config fields a checkpoint records: those that shape the networks
CHECKPOINT_FIELDS = ("z_dim", "gen_channels", "disc_channels", "leaky_alpha", "dtype")


def save_gan(gen, disc, path, dims, num_classes, config):
    extra = {"kind": "icwgan", "dims": list(dims), "num_classes": num_classes}
    extra.update((k, getattr(config, k)) for k in CHECKPOINT_FIELDS)
    nn.save_checkpoint(path, nn.state_arrays(gen, disc), precision=config.dtype, extra=extra)


def load_gan(path):
    arrays, extra = nn.load_checkpoint(path)
    if not extra or extra.get("kind") != "icwgan":
        raise nn.CheckpointError(f"{path} is not an ICW-GAN checkpoint")
    config = nn.model_config(GANConfig, {k: extra[k] for k in CHECKPOINT_FIELDS})
    rng = np.random.default_rng(0)
    dtype = np.dtype(config.dtype).type
    gen = Generator(extra["dims"], extra["num_classes"], config, rng, dtype=dtype)
    disc = Discriminator(extra["dims"], extra["num_classes"], config, rng, dtype=dtype)
    nn.load_state(arrays, gen, disc)
    return gen, disc, config
