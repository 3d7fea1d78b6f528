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

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .datasets import one_hot

# Adam's (beta1, beta2) for the generator and the critic
ADAM_BETAS = (0.5, 0.9)
# the gradient penalty's weight lambda in the critic objective
LAMBDA_GP = 10.0


@dataclass
class GANConfig(nn.Config):
    z_dim: int = 128
    critic_iters: int = 5
    batch_size: int = 50
    learning_rate: float = 1e-4
    epochs: int = 10
    seed: int = 0
    gen_channels: tuple = (64, 32, 16, 8)
    disc_channels: tuple = (8, 16, 32, 64)
    dtype: str = "float32"


class Generator(nn.Module):
    def __init__(self, dims, num_classes, config, rng):
        self.num_classes = num_classes
        self.z_dim = config.z_dim
        self.tower = nn.DeconvTower(dims, config.z_dim + num_classes, config.gen_channels,
                                    rng, "gen", num_classes=num_classes)
        self.cast(config.dtype)

    def forward(self, z, y, training):
        z = z if isinstance(z, Tensor) else Tensor(z)
        y = nn.label_tensor(y, self.num_classes)
        if z.data.shape[1] != self.z_dim:
            raise ad.DimensionError(
                f"latent dim {z.data.shape[1]} does not match configured {self.z_dim}")
        return self.tower.forward(ad.concat([z, y], axis=1), training, y)


class Discriminator(nn.Module):
    def __init__(self, dims, num_classes, config, rng):
        self.num_classes = num_classes
        self.tower = nn.ConvTower(dims, 1, config.disc_channels, rng, "disc",
                                  num_classes=num_classes)
        self.head = nn.Dense(self.tower.out_features, 1, rng, "disc.head")
        self.cast(config.dtype)

    def forward(self, x, y):
        score, _ = self._forward_parts(x, self._label_terms(y))
        return score

    def _label_terms(self, y):
        return self.tower.label_terms(nn.label_tensor(y, self.num_classes))

    def _forward_parts(self, x, terms):
        x = x if isinstance(x, Tensor) else Tensor(x)
        flat, pres = self.tower.forward(x, terms)
        return self.head(flat), pres

    def critic_scores(self, fake, real, y, eps):
        """The critic objective's three passes: fake scores, real scores, and
        the input gradient at xhat = interpolate(real, fake, eps).

        The xhat pass reads only pre-activation values (for the slope masks),
        so it adds the fake pass's label terms as constants instead of
        building its own.
        """
        terms = self._label_terms(y)
        fake_score, _ = self._forward_parts(fake, terms)
        real_score, _ = self._forward_parts(real, self._label_terms(y))
        x_hat = interpolate(real, fake, eps)
        _, pres = self._forward_parts(x_hat, [t.detach() for t in terms])
        return fake_score, real_score, self._input_grad(x_hat, pres)

    def _input_grad(self, x, pres):
        """The score's gradient w.r.t. x, swept back through the slope masks of ``pres``."""
        ones = Tensor(np.ones((x.data.shape[0], 1), dtype=x.data.dtype))
        delta = ad.dense(ones, ad.reshape(self.head.weight, (1, -1)))
        delta = ad.reshape(delta, pres[-1].data.shape)
        for i in reversed(range(len(pres))):
            dt = pres[i].data.dtype.type
            slope = np.where(pres[i].data > 0, dt(1.0), dt(self.tower.alpha))
            delta = ad.mul(delta, Tensor(slope))
            # volume channels only: xhat never feeds the label projections
            delta = ad.conv3d_transpose(delta, self.tower.volume_kernel(i), None,
                                        stride=nn.STRIDE, pad=nn.PAD,
                                        output_dims=self.tower.sizes[i])
        return delta


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


def _unit_norm_penalty(grad):
    sq = ad.tsum(ad.mul(grad, grad), axis=(1, 2, 3, 4))
    norms = ad.tsqrt(sq)
    return ad.tmean(ad.power(norms - 1.0, 2.0))


def critic_loss(disc, gen, x_real, y, z, eps, lambda_gp, training=True):
    """Critic objective on one batch; fake samples reuse the real labels."""
    fake = gen.forward(z, y, training=training).detach()
    fake_score, real_score, grad = disc.critic_scores(fake, x_real, y, eps)
    loss = ad.tmean(fake_score) - ad.tmean(real_score)
    penalty = _unit_norm_penalty(grad)
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


def train_icwgan(dataset, config):
    """Alternate critic_iters critic steps with one generator step."""
    n = len(dataset)
    if config.batch_size > n:   # also an empty dataset
        raise ValueError(f"batch size {config.batch_size} exceeds dataset size {n}")
    dtype = np.dtype(config.dtype).type
    rng = np.random.default_rng(config.seed)
    dims = dataset.dims
    num_classes = dataset.num_classes
    gen = Generator(dims, num_classes, config, rng)
    disc = Discriminator(dims, num_classes, config, rng)
    gen_params = gen.parameters()
    disc_params = disc.parameters()
    gen_adam = nn.AdamState(config.learning_rate, *ADAM_BETAS)
    disc_adam = nn.AdamState(config.learning_rate, *ADAM_BETAS)

    volumes = dataset.stack(dtype=dtype)
    labels = one_hot(dataset.labels, num_classes, dtype=dtype)
    log = GANTrainLog()
    step = 0
    critic_since_gen = 0
    for _ in range(config.epochs):
        for idx in nn.batches(rng.permutation(n), config.batch_size, config.batch_size):
            x_real = Tensor(volumes[idx])
            y = Tensor(labels[idx])
            z = Tensor(rng.standard_normal((idx.size, config.z_dim)).astype(dtype))
            eps = rng.uniform(0.0, 1.0, size=idx.size)
            loss, penalty = critic_loss(disc, gen, x_real, y, z, eps, LAMBDA_GP)
            grads = ad.backward(loss, disc_params)
            nn.adam_step(disc_params, grads, disc_adam)
            step += 1
            log.append(step, "critic", loss.item(), penalty.item())
            critic_since_gen += 1
            if critic_since_gen == config.critic_iters:
                z = Tensor(rng.standard_normal((idx.size, config.z_dim)).astype(dtype))
                gloss = generator_loss(disc, gen, y, z)
                grads = ad.backward(gloss, gen_params)
                nn.adam_step(gen_params, grads, gen_adam)
                step += 1
                log.append(step, "gen", gloss.item(), 0.0)
                critic_since_gen = 0
    return gen, disc, log


def sample_gan(gen, class_index, count, seed):
    """Class-conditional volumes from the frozen generator (inference mode)."""
    return nn.sample_prior(lambda z, y: gen.forward(z, y, training=False), gen.num_classes,
                           gen.z_dim, gen.tower.input_dense.weight.data.dtype,
                           class_index, count, seed)


# the config fields a checkpoint records: those that shape the networks
CHECKPOINT_FIELDS = ("z_dim", "gen_channels", "disc_channels", "dtype")


def save_gan(gen, disc, path, dims, num_classes, config):
    nn.save_model(path, "icwgan", config, CHECKPOINT_FIELDS, dims, num_classes, gen, disc)


def load_gan(arrays, extra):
    """The generator of a checkpoint's arrays and header; the critic is restored beside
    it, so a checkpoint loads only if it holds both networks."""
    config = nn.model_config(GANConfig, {k: extra[k] for k in CHECKPOINT_FIELDS})
    rng = np.random.default_rng(0)
    gen = Generator(extra["dims"], extra["num_classes"], config, rng)
    disc = Discriminator(extra["dims"], extra["num_classes"], config, rng)
    nn.load_state(arrays, gen, disc)
    return gen
