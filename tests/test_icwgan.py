"""ICW-GAN: label projection, objectives, gradient penalty, training loop."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import grad_check

from volsynth import autodiff as ad
from volsynth import harness, icwgan, nn
from volsynth.autodiff import Tensor
from volsynth.datasets import VolumeDataset, make_blob_dataset, one_hot
from volsynth.volumes import Volume, normalize_minmax

TINY = dict(z_dim=5, gen_channels=(4, 3, 2), disc_channels=(2, 3, 4),
            batch_size=3, dtype="float64")


@pytest.fixture
def models(rng):
    config = icwgan.GANConfig(**TINY)
    gen = icwgan.Generator((8, 8, 8), 3, config, rng)
    disc = icwgan.Discriminator((8, 8, 8), 3, config, rng)
    return gen, disc, config


class LinearCritic:
    """Duck-typed critic D(x) = <w, x> for the exact penalty identities."""

    def __init__(self, w):
        self.w = Tensor(np.asarray(w, dtype=np.float64).reshape(-1, 1),
                        requires_grad=True)

    def forward(self, x, y):
        return ad.dense(ad.flatten(x), self.w)

    def critic_scores(self, fake, real, y, eps):
        x_hat = icwgan.interpolate(real, fake, eps)
        ones = Tensor(np.ones((x_hat.data.shape[0], 1)))
        grad = ad.reshape(ad.dense(ones, ad.reshape(self.w, (1, -1))), x_hat.data.shape)
        return self.forward(fake, y), self.forward(real, y), grad


def penalty_at(critic, x_hat, y):
    """The penalty ``critic_loss`` returns when its interpolation lands on ``x_hat``: eps = 1
    keeps the real volumes exactly, whatever the fixed fake ones are."""
    n = x_hat.data.shape[0]
    return icwgan.critic_loss(critic, FixedGenerator(np.zeros_like(x_hat.data)), x_hat, y,
                              None, np.ones(n), icwgan.LAMBDA_GP)[1]


class TestLabelProjection:
    def test_zero_weights_give_zero_volume(self, models):
        gen, _, _ = models
        for proj in gen.tower.projections:
            proj.weight.data = np.zeros_like(proj.weight.data)
            proj.bias.data = np.zeros_like(proj.bias.data)
            out = proj(nn.label_tensor(np.array([0, 1]), 3))
            assert np.array_equal(out.data, np.zeros_like(out.data))

    def test_shapes_per_configured_layer(self, models):
        gen, _, _ = models
        assert len(gen.tower.projections) == len(gen.tower.sizes) - 1
        for proj, spatial in zip(gen.tower.projections, gen.tower.sizes[:-1]):
            out = proj(nn.label_tensor(np.array([2]), 3))
            assert out.data.shape == (1, 1) + tuple(spatial)
            assert out.data.min() > -1.0 and out.data.max() < 1.0

    def test_projection_gradient_matches_fd(self, rng):
        proj = nn.LabelProjection(3, (2, 2, 2), rng, "proj")
        y = one_hot(np.array([0, 2]), 3)
        probe = rng.normal(size=(2, 1, 2, 2, 2))
        params = {"w": proj.weight, "b": proj.bias}
        report = grad_check(
            lambda p: ad.tsum(proj(Tensor(y)) * Tensor(probe)), params)
        assert report.passed, str(report)


class TestLabelContract:
    @pytest.mark.parametrize("rows", [
        [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
    ], ids=["soft", "two-hot"])
    def test_rows_that_are_not_one_hot_rejected(self, rows):
        with pytest.raises(nn.LabelError, match="one-hot"):
            nn.label_tensor(np.array(rows), 3)
        with pytest.raises(nn.LabelError, match="one-hot"):
            nn.label_tensor(Tensor(np.array(rows)), 3)


def concat_critic_parts(disc, x, y):
    """Score and pre-activations with each label volume concatenated as a channel.

    The reference formulation: every conv sees the whole batch's label volumes
    through its full kernel.
    """
    tower = disc.tower
    h, pres = x, []
    for conv, proj in zip(tower.convs, tower.projections):
        pres.append(ad.conv3d(ad.concat_channels(h, proj(y)), conv.kernel, conv.bias,
                              stride=nn.STRIDE, pad=nn.PAD))
        h = ad.leaky_relu(pres[-1], tower.alpha)
    return disc.head(ad.flatten(h)), pres


class ConcatCritic:
    """Duck-typed critic over ``disc``'s parameters in the concatenated formulation."""

    def __init__(self, disc):
        self.disc = disc

    def forward(self, x, y):
        return concat_critic_parts(self.disc, x, y)[0]

    def score_and_input_grad(self, x, y):
        disc, tower = self.disc, self.disc.tower
        score, pres = concat_critic_parts(disc, x, y)
        ones = Tensor(np.ones((x.data.shape[0], 1)))
        delta = ad.reshape(ad.dense(ones, ad.reshape(disc.head.weight, (1, -1))),
                           pres[-1].data.shape)
        for i in reversed(range(len(pres))):
            kernel = tower.convs[i].kernel
            slope = np.where(pres[i].data > 0, 1.0, tower.alpha)
            delta = ad.conv3d_transpose(ad.mul(delta, Tensor(slope)), kernel, None,
                                        stride=nn.STRIDE, pad=nn.PAD,
                                        output_dims=tower.sizes[i])
            delta = ad.narrow(delta, 1, 0, kernel.data.shape[1] - 1)
        return score, delta

    def critic_scores(self, fake, real, y, eps):
        _, grad = self.score_and_input_grad(icwgan.interpolate(real, fake, eps), y)
        return self.forward(fake, y), self.forward(real, y), grad


class FixedGenerator:
    """Duck-typed generator whose samples are fixed volumes."""

    def __init__(self, volumes):
        self.volumes = volumes

    def forward(self, z, y, training):
        return Tensor(self.volumes)


def assert_close(a, b, rel=1e-10, scale=None):
    """|a - b| <= rel * scale, where scale defaults to the largest magnitude of a and b."""
    if scale is None:
        scale = max(np.abs(a).max(), np.abs(b).max())
    assert np.abs(a - b).max() <= rel * scale


class TestPerClassLabelTerm:
    """The critic's label term per class equals the concatenated label channel."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_matches_concatenated_label_channels(self, num_classes, batch, seed):
        rng = np.random.default_rng(seed)
        config = icwgan.GANConfig(disc_channels=(2, 3), dtype="float64")
        disc = icwgan.Discriminator((8, 8, 8), num_classes, config, rng)
        for proj in disc.tower.projections:     # label volumes away from zero
            proj.weight.data = rng.normal(0.0, 1.0, size=proj.weight.data.shape)
        ref = ConcatCritic(disc)
        x = Tensor(rng.uniform(size=(batch, 1, 8, 8, 8)))
        fake = rng.uniform(size=(batch, 1, 8, 8, 8))
        y = Tensor(one_hot(rng.integers(0, num_classes, batch), num_classes))
        eps = rng.uniform(size=batch)

        assert_close(disc.forward(x, y).data, ref.forward(x, y).data)
        # fake scores, real scores and the input gradient at xhat
        for out, ref_out in zip(disc.critic_scores(Tensor(fake), x, y, eps),
                                ref.critic_scores(Tensor(fake), x, y, eps)):
            assert_close(out.data, ref_out.data)

        params = disc.parameters()
        losses = [icwgan.critic_loss(critic, FixedGenerator(fake), x, y, None, eps,
                                     icwgan.LAMBDA_GP)[0] for critic in (disc, ref)]
        assert_close(losses[0].data, losses[1].data)
        grads, ref_grads = (ad.backward(loss, params) for loss in losses)
        # a gradient whose terms cancel to 0 keeps only rounding residue, so
        # every parameter is held to the largest gradient's scale
        scale = max(np.abs(g).max() for g in ref_grads.values())
        for name in params:
            assert_close(grads[name], ref_grads[name], scale=scale)

    def test_no_batch_row_gradient_with_the_label_channel(self, monkeypatch):
        """The critic step builds no [batch, C+1, ...] tensor in any transposed conv.

        Label volumes are convolved once per class, the volume inputs of the
        fake and real passes get no input gradient, and the penalty graph's
        transposed convs use kernels narrowed to the volume channels.
        """
        cfg = icwgan.GANConfig(z_dim=3, gen_channels=(4, 3), disc_channels=(3, 4),
                               dtype="float64")
        rng = np.random.default_rng(0)
        gen = icwgan.Generator((8, 8, 8), 2, cfg, rng)
        disc = icwgan.Discriminator((8, 8, 8), 2, cfg, rng)
        batch = 3
        widened = {(batch, c + 1) + size
                   for c, size in zip((1,) + cfg.disc_channels, disc.tower.sizes)}
        shapes = []
        core = ad._transpose_core

        def recording(*args, **kwargs):
            out = core(*args, **kwargs)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(ad, "_transpose_core", recording)
        x = Tensor(rng.uniform(size=(batch, 1, 8, 8, 8)))
        y = Tensor(one_hot(np.array([0, 1, 1]), 2))
        z = Tensor(rng.normal(size=(batch, 3)))
        loss, _ = icwgan.critic_loss(disc, gen, x, y, z, rng.uniform(size=batch),
                                     icwgan.LAMBDA_GP)
        ad.backward(loss, disc.parameters())
        assert shapes
        assert not widened & set(shapes), shapes


class TestForwardShapes:
    def test_generator_output(self, models, rng):
        gen, _, _ = models
        out = gen.forward(Tensor(rng.normal(size=(3, 5))), np.array([0, 1, 2]),
                          training=True)
        assert out.data.shape == (3, 1, 8, 8, 8)
        assert out.data.min() > 0.0 and out.data.max() < 1.0

    def test_generator_inference_deterministic(self, models, rng):
        gen, _, _ = models
        z = Tensor(rng.normal(size=(2, 5)))
        y = np.array([0, 1])
        a = gen.forward(z, y, training=False)
        b = gen.forward(z, y, training=False)
        assert np.array_equal(a.data, b.data)

    def test_generator_handles_odd_dims(self, rng):
        config = icwgan.GANConfig(**TINY)
        gen = icwgan.Generator((9, 7, 5), 2, config, rng)
        out = gen.forward(Tensor(rng.normal(size=(2, 5))), np.array([0, 1]),
                          training=True)
        assert out.data.shape == (2, 1, 9, 7, 5)

    def test_discriminator_output(self, models, rng):
        _, disc, _ = models
        out = disc.forward(Tensor(rng.uniform(size=(4, 1, 8, 8, 8))),
                           np.array([0, 1, 2, 0]))
        assert out.data.shape == (4, 1)
        assert np.isfinite(out.data).all()

    def test_zero_discriminator_scores_zero(self, models, rng):
        _, disc, _ = models
        for p in disc.parameters().values():
            p.data = np.zeros_like(p.data)
        out = disc.forward(Tensor(rng.uniform(size=(2, 1, 8, 8, 8))), np.array([0, 1]))
        assert np.array_equal(out.data, np.zeros((2, 1)))

    def test_latent_dim_mismatch_rejected(self, models, rng):
        gen, _, _ = models
        with pytest.raises(ad.DimensionError):
            gen.forward(Tensor(rng.normal(size=(2, 9))), np.array([0, 1]), True)


class TestInterpolate:
    def test_endpoints(self, rng):
        xr = rng.uniform(size=(2, 1, 4, 4, 4))
        xf = rng.uniform(size=(2, 1, 4, 4, 4))
        assert np.array_equal(icwgan.interpolate(xr, xf, [1.0, 1.0]).data, xr)
        assert np.array_equal(icwgan.interpolate(xr, xf, [0.0, 0.0]).data, xf)

    def test_midpoint_exact(self, rng):
        xr = rng.uniform(size=(1, 1, 3, 3, 3))
        xf = rng.uniform(size=(1, 1, 3, 3, 3))
        mid = icwgan.interpolate(xr, xf, [0.5])
        assert np.abs(mid.data - 0.5 * (xr + xf)).max() == 0.0

    def test_convexity_envelope(self, rng):
        xr = rng.uniform(size=(3, 1, 4, 4, 4))
        xf = rng.uniform(size=(3, 1, 4, 4, 4))
        eps = rng.uniform(size=3)
        out = icwgan.interpolate(xr, xf, eps).data
        lo = np.minimum(xr, xf)
        hi = np.maximum(xr, xf)
        assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()

    def test_out_of_range_eps_rejected(self, rng):
        x = rng.uniform(size=(1, 1, 2, 2, 2))
        with pytest.raises(ValueError):
            icwgan.interpolate(x, x, [1.5])


class TestGradientPenalty:
    """The penalty ``critic_loss`` returns, and the input gradient behind it."""

    def test_unit_norm_linear_critic_zero_penalty(self, rng):
        w = rng.normal(size=64)
        w /= np.linalg.norm(w)
        critic = LinearCritic(w)
        x_hat = Tensor(rng.uniform(size=(3, 1, 4, 4, 4)))
        penalty = penalty_at(critic, x_hat, None)
        assert abs(penalty.item()) <= 1e-10

    def test_constant_gradient_critic_closed_form(self, rng):
        volume_elems = 4 * 4 * 4
        critic = LinearCritic(np.full(volume_elems, 2.0))
        x_hat = Tensor(rng.uniform(size=(2, 1, 4, 4, 4)))
        penalty = penalty_at(critic, x_hat, None)
        expected = (2.0 * np.sqrt(volume_elems) - 1.0) ** 2
        assert penalty.item() == pytest.approx(expected, abs=1e-12)

    def test_penalty_nonnegative(self, models, rng):
        _, disc, _ = models
        for _ in range(5):
            real, fake = rng.uniform(size=(2, 2, 1, 8, 8, 8))
            _, p = icwgan.critic_loss(disc, FixedGenerator(fake), Tensor(real), np.array([0, 1]),
                                      None, rng.uniform(size=2), icwgan.LAMBDA_GP)
            assert p.item() >= 0.0

    @pytest.mark.parametrize("eps", [[0.3, 0.7], [1.0, 1.0]], ids=["between", "at-real"])
    def test_input_gradient_matches_fd(self, models, rng, eps):
        """The gradient at xhat, strictly between the real and fake volumes and at the
        real ones, against central differences of the critic's score there."""
        _, disc, _ = models
        real, fake = rng.uniform(0.2, 0.8, size=(2, 2, 1, 8, 8, 8))
        y = np.array([0, 2])
        grad = disc.critic_scores(Tensor(fake), Tensor(real), y, eps)[2]
        x_hat = icwgan.interpolate(real, fake, eps).data
        step = 1e-5
        for idx in [(0, 0, 1, 2, 3), (1, 0, 4, 4, 4), (0, 0, 7, 0, 7)]:
            up = x_hat.copy()
            up[idx] += step
            down = x_hat.copy()
            down[idx] -= step
            n = idx[0]
            fd = (disc.forward(Tensor(up), y).data[n, 0]
                  - disc.forward(Tensor(down), y).data[n, 0]) / (2 * step)
            rel = abs(fd - grad.data[idx]) / max(abs(fd), abs(grad.data[idx]), 1e-6)
            assert rel <= 1e-4

    def test_penalty_parameter_gradient_matches_fd(self, models, rng):
        _, disc, _ = models
        real, fake = rng.uniform(0.2, 0.8, size=(2, 2, 1, 8, 8, 8))
        y = np.array([1, 2])
        eps = rng.uniform(size=2)
        params = disc.parameters()

        def penalty(p):
            return icwgan.critic_loss(disc, FixedGenerator(fake), Tensor(real), y, None, eps,
                                      icwgan.LAMBDA_GP)[1]

        grads = ad.backward(penalty(params), params)
        # biases and label projections reach the penalty only through the
        # piecewise-constant activation slopes, so their gradient is exactly
        # zero almost everywhere; finite differences at a kink would read a
        # phantom slope there, so only kernels and the head weight are probed
        zero_names = [n for n in params
                      if n.endswith("bias") or ".proj" in n]
        for name in zero_names:
            assert np.array_equal(grads[name], np.zeros_like(grads[name])), name
        checked = {n: p for n, p in params.items() if n not in zero_names}
        report = grad_check(penalty, checked, tolerance=1e-4, noise_floor=1e-6)
        assert report.passed, str(report)


class TestLosses:
    def test_zero_discriminator_critic_loss_equals_lambda(self, models, rng):
        gen, disc, _ = models
        for p in disc.parameters().values():
            p.data = np.zeros_like(p.data)
        x = Tensor(rng.uniform(size=(3, 1, 8, 8, 8)))
        y = Tensor(one_hot(np.array([0, 1, 2]), 3))
        z = Tensor(rng.normal(size=(3, 5)))
        loss, _ = icwgan.critic_loss(disc, gen, x, y, z, np.full(3, 0.5),
                                     icwgan.LAMBDA_GP)
        assert loss.item() == pytest.approx(icwgan.LAMBDA_GP, abs=1e-12)
        gloss = icwgan.generator_loss(disc, gen, y, z)
        assert gloss.item() == 0.0

    def test_constant_critic_lambda_zero_gives_zero(self, models, rng):
        gen, disc, _ = models
        for p in disc.parameters().values():
            p.data = np.zeros_like(p.data)
        disc.head.bias.data = np.array([3.7])
        x = Tensor(rng.uniform(size=(2, 1, 8, 8, 8)))
        y = Tensor(one_hot(np.array([0, 1]), 3))
        z = Tensor(rng.normal(size=(2, 5)))
        loss, _ = icwgan.critic_loss(disc, gen, x, y, z, np.full(2, 0.5), 0.0)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_loss_matches_term_by_term_assembly(self, models, rng):
        """The loss against scores of the critic's forward pass and a penalty on the
        concatenated-label reference's input gradient, summed in numpy."""
        gen, disc, _ = models
        x = Tensor(rng.uniform(size=(3, 1, 8, 8, 8)))
        y = Tensor(one_hot(np.array([0, 1, 2]), 3))
        z = Tensor(rng.normal(size=(3, 5)))
        eps = rng.uniform(size=3)
        loss, penalty = icwgan.critic_loss(disc, gen, x, y, z, eps, icwgan.LAMBDA_GP,
                                           training=False)
        fake = gen.forward(z, y, training=False)
        term_fake = disc.forward(fake, y).data.mean()
        term_real = disc.forward(x, y).data.mean()
        x_hat = icwgan.interpolate(x, fake, eps)
        _, grad = ConcatCritic(disc).score_and_input_grad(x_hat, y)
        norms = np.sqrt((grad.data ** 2).sum(axis=(1, 2, 3, 4)))
        term_pen = ((norms - 1.0) ** 2).mean()
        assembled = term_fake - term_real + icwgan.LAMBDA_GP * term_pen
        assert loss.item() == pytest.approx(assembled, abs=1e-10)
        assert penalty.item() == pytest.approx(term_pen, abs=1e-12)

    def test_full_critic_loss_gradient_checks(self):
        # dedicated stream: finite differences need activations clear of
        # relu/leaky kinks, verified for this construction
        local = np.random.default_rng(0)
        config = icwgan.GANConfig(z_dim=3, gen_channels=(3, 2, 2),
                                  disc_channels=(2, 2, 3), batch_size=2,
                                  dtype="float64")
        gen = icwgan.Generator((8, 8, 8), 2, config, local)
        disc = icwgan.Discriminator((8, 8, 8), 2, config, local)
        x = Tensor(local.uniform(0.2, 0.8, size=(2, 1, 8, 8, 8)))
        y = Tensor(one_hot(np.array([0, 1]), 2))
        z = Tensor(local.normal(size=(2, 3)))
        eps = local.uniform(size=2)
        params = disc.parameters()
        report = grad_check(
            lambda p: icwgan.critic_loss(disc, gen, x, y, z, eps,
                                         icwgan.LAMBDA_GP, training=False)[0],
            params, tolerance=1e-4, noise_floor=1e-6)
        assert report.passed, str(report)

    def test_generator_loss_gradient_checks(self):
        local = np.random.default_rng(0)
        config = icwgan.GANConfig(z_dim=3, gen_channels=(3, 2, 2),
                                  disc_channels=(2, 2, 3), batch_size=2,
                                  dtype="float64")
        gen = icwgan.Generator((8, 8, 8), 2, config, local)
        disc = icwgan.Discriminator((8, 8, 8), 2, config, local)
        y = Tensor(one_hot(np.array([0, 1]), 2))
        z = Tensor(local.normal(size=(2, 3)))
        params = gen.parameters()
        report = grad_check(
            lambda p: icwgan.generator_loss(disc, gen, y, z, training=False),
            params, tolerance=1e-4, noise_floor=1e-6)
        assert report.passed, str(report)


def small_gan_dataset(seed=0, n_per=6):
    return make_blob_dataset(2, n_per, (8, 8, 8), seed=seed)


class TestTraining:
    def config(self, epochs):
        return icwgan.GANConfig(z_dim=4, gen_channels=(3, 2), disc_channels=(2, 3),
                                batch_size=4, critic_iters=2, epochs=epochs, seed=5,
                                learning_rate=1e-3)

    def test_log_structure_critic_entries_per_gen(self):
        ds = small_gan_dataset()
        _, _, log = icwgan.train_icwgan(ds, self.config(epochs=2))
        roles = [e[1] for e in log.entries]
        while roles and roles[-1] == "critic":       # trailing partial cycle
            roles.pop()
        chunks = "".join("c" if r == "critic" else "g" for r in roles).split("g")
        for chunk in chunks[:-1]:
            assert chunk == "cc"

    def test_identical_seed_reproducible(self):
        ds = small_gan_dataset()
        cfg = self.config(epochs=2)
        _, _, log1 = icwgan.train_icwgan(ds, cfg)
        _, _, log2 = icwgan.train_icwgan(ds, cfg)
        assert log1.entries == log2.entries

    def test_batch_size_exceeding_dataset_rejected(self):
        ds = small_gan_dataset(n_per=2)
        cfg = icwgan.GANConfig(z_dim=4, gen_channels=(3, 2), disc_channels=(2, 3),
                               batch_size=50, epochs=1)
        with pytest.raises(ValueError, match="batch size"):
            icwgan.train_icwgan(ds, cfg)

    def test_single_mode_wasserstein_gap_shrinks(self, rng):
        """One class, identical volumes: the critic gap collapses with training.

        The trained critic is the yardstick: it scores real volumes against
        samples from the initial generator (the gap at initialization) and
        against samples from the trained generator. On a degenerate target
        the generator collapses onto the single mode, so the gap shrinks.
        """
        grid = np.stack(np.meshgrid(*[np.arange(8)] * 3, indexing="ij"),
                        axis=-1).astype(float)
        blob = np.exp(-((grid - np.array([3.0, 4.0, 2.5])) ** 2).sum(-1) / 8.0)
        template = normalize_minmax(Volume(blob)).data.astype(np.float32)
        volumes = [Volume(template.copy()) for _ in range(12)]
        ds = VolumeDataset(volumes, [0] * 12, ["only"])
        cfg = icwgan.GANConfig(z_dim=4, gen_channels=(8, 6), disc_channels=(6, 8),
                               batch_size=6, critic_iters=2, epochs=600, seed=3,
                               learning_rate=2e-3)
        gen0 = icwgan.Generator(ds.dims, 1, cfg, np.random.default_rng(cfg.seed))
        gen, disc, _ = icwgan.train_icwgan(ds, cfg)

        z = Tensor(np.random.default_rng(99).standard_normal((12, 4)).astype(np.float32))
        y = Tensor(one_hot(np.zeros(12, dtype=int), 1, dtype=np.float32))
        x = Tensor(ds.stack(np.float32))
        real_score = float(disc.forward(x, y).data.mean())

        def gap(g):
            fake = g.forward(z, y, training=False)
            return abs(real_score - float(disc.forward(fake, y).data.mean()))

        initial_gap = gap(gen0)
        final_gap = gap(gen)
        assert final_gap <= 0.25 * initial_gap, (initial_gap, final_gap)


@pytest.fixture(scope="module")
def trained():
    ds = small_gan_dataset()
    cfg = icwgan.GANConfig(z_dim=4, gen_channels=(3, 2), disc_channels=(2, 3),
                           batch_size=4, critic_iters=2, epochs=2, seed=1)
    gen, disc, _ = icwgan.train_icwgan(ds, cfg)
    return gen, disc, cfg, ds


class TestSampling:

    def test_count_contract(self, trained):
        gen = trained[0]
        out = icwgan.sample_gan(gen, 0, 100, seed=3)
        assert len(out) == 100
        assert all(v.dims == (8, 8, 8) for v in out)

    def test_outputs_in_unit_interval(self, trained):
        gen = trained[0]
        for v in icwgan.sample_gan(gen, 1, 5, seed=2):
            assert v.data.min() >= 0.0 and v.data.max() <= 1.0

    def test_seed_reproducibility(self, trained):
        gen = trained[0]
        a = icwgan.sample_gan(gen, 0, 4, seed=8)
        b = icwgan.sample_gan(gen, 0, 4, seed=8)
        for va, vb in zip(a, b):
            assert np.array_equal(va.data, vb.data)

    def test_prefix_stable_across_chunk_boundary(self, trained, monkeypatch):
        """The prior is drawn once, so chunking cannot shift latents between rows."""
        gen = trained[0]
        monkeypatch.setattr(nn, "INFERENCE_CHUNK", 2)
        a = icwgan.sample_gan(gen, 1, 7, seed=4)
        b = icwgan.sample_gan(gen, 1, 3, seed=4)
        for va, vb in zip(a[:3], b):
            assert np.array_equal(va.data, vb.data)

    def test_peak_memory_bounded_by_chunk(self):
        """400 volumes at 16^3 from a blob-profile generator stay under 40 MB.

        One forward over the whole batch keeps about 92 MB of activations and
        im2col buffers alive; the 400 output volumes themselves take 6.25 MB.
        """
        cfg = nn.model_config(icwgan.GANConfig, harness.blob_fixture_profiles()["icwgan"])
        gen = icwgan.Generator((16, 16, 16), 4, cfg, np.random.default_rng(0))
        tracemalloc.start()
        try:
            icwgan.sample_gan(gen, 0, 400, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20, peak

    def test_unknown_class_rejected(self, trained):
        gen = trained[0]
        with pytest.raises(KeyError):
            icwgan.sample_gan(gen, 9, 1, seed=0)

    def test_conditioning_changes_output(self, trained, rng):
        gen = trained[0]
        z = Tensor(rng.normal(size=(4, 4)).astype(np.float32))
        y0 = Tensor(one_hot(np.zeros(4, dtype=int), 2, dtype=np.float32))
        y1 = Tensor(one_hot(np.ones(4, dtype=int), 2, dtype=np.float32))
        a = gen.forward(z, y0, training=False)
        b = gen.forward(z, y1, training=False)
        assert np.linalg.norm(a.data - b.data) > 0.0

    def test_checkpoint_round_trip(self, trained, tmp_path):
        gen, disc, cfg, ds = trained
        path = tmp_path / "gan.ckpt"
        icwgan.save_gan(gen, disc, path, ds.dims, ds.num_classes, cfg)
        _, gen2 = harness.load_generator(path)
        a = icwgan.sample_gan(gen, 0, 3, seed=17)
        b = icwgan.sample_gan(gen2, 0, 3, seed=17)
        for va, vb in zip(a, b):
            assert np.array_equal(va.data, vb.data)

    def test_oracle_label_consistency(self, blob_bench_results):
        mean = np.mean([r["gan_consistency"] for r in blob_bench_results])
        assert mean >= 0.60


class TestCheckpointLayout:
    def test_state_names_and_order_of_two_layer_gan(self):
        """Checkpoint names are read by name; old files must keep loading."""
        cfg = icwgan.GANConfig(z_dim=3, gen_channels=(4, 3), disc_channels=(3, 4))
        rng = np.random.default_rng(0)
        gen = icwgan.Generator((8, 8, 8), 2, cfg, rng)
        disc = icwgan.Discriminator((8, 8, 8), 2, cfg, rng)
        arrays = nn.state_arrays(gen, disc)
        assert list(arrays) == [
            "gen.input.weight", "gen.input.bias", "gen.bn0.gamma", "gen.bn0.beta",
            "gen.deconv0.kernel", "gen.deconv0.bias", "gen.deconv1.kernel",
            "gen.deconv1.bias", "gen.bn1.gamma", "gen.bn1.beta",
            "gen.proj0.weight", "gen.proj0.bias", "gen.proj1.weight", "gen.proj1.bias",
            "disc.conv0.kernel", "disc.conv0.bias", "disc.conv1.kernel", "disc.conv1.bias",
            "disc.proj0.weight", "disc.proj0.bias", "disc.proj1.weight", "disc.proj1.bias",
            "disc.head.weight", "disc.head.bias",
            "gen.bnstate0.mean", "gen.bnstate0.var", "gen.bnstate1.mean", "gen.bnstate1.var",
        ]
        # every conv input carries one label-volume channel at its own size
        assert arrays["gen.deconv0.kernel"].shape == (5, 3, 4, 4, 4)
        assert arrays["gen.proj0.weight"].shape == (2, 2 * 2 * 2)
        assert arrays["disc.conv1.kernel"].shape == (4, 4, 4, 4, 4)
        assert arrays["disc.proj1.weight"].shape == (2, 4 * 4 * 4)
