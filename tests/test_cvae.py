"""CVAE: encoding, reparameterization, the ELBO, training behavior, sampling."""

import numpy as np
import pytest

from volsynth import autodiff as ad
from volsynth import cvae
from volsynth.autodiff import Tensor
from volsynth.datasets import VolumeDataset, make_blob_dataset
from volsynth.volumes import Volume

TINY = dict(latent_dim=4, enc_channels=(3, 4), dec_channels=(4, 3),
            batch_size=4, epochs=3, seed=0, dtype="float64")


@pytest.fixture
def tiny_model(rng):
    config = cvae.CVAEConfig(**TINY)
    return cvae.CVAE((8, 8, 8), 3, config, rng), config


class TestEncode:
    def test_output_shapes(self, tiny_model, rng):
        model, _ = tiny_model
        x = Tensor(rng.uniform(0.1, 0.9, size=(5, 1, 8, 8, 8)))
        mu, logvar = model.encode(x, np.array([0, 1, 2, 0, 1]))
        assert mu.data.shape == (5, 4)
        assert logvar.data.shape == (5, 4)

    def test_identical_inputs_encode_identically(self, tiny_model, rng):
        model, _ = tiny_model
        row = rng.uniform(size=(1, 1, 8, 8, 8))
        x = Tensor(np.concatenate([row, row]))
        mu, logvar = model.encode(x, np.array([1, 1]))
        assert np.array_equal(mu.data[0], mu.data[1])
        assert np.array_equal(logvar.data[0], logvar.data[1])

    def test_batch_size_mismatch_rejected(self, tiny_model, rng):
        model, _ = tiny_model
        with pytest.raises(ad.DimensionError):
            model.encode(Tensor(rng.uniform(size=(2, 1, 8, 8, 8))), np.array([0]))


class TestReparameterize:
    def test_zero_eps_returns_mu(self, rng):
        mu = Tensor(rng.normal(size=(3, 4)))
        logvar = Tensor(rng.normal(size=(3, 4)))
        z = cvae.reparameterize(mu, logvar, np.zeros((3, 4)))
        assert np.allclose(z.data, mu.data)

    def test_zero_logvar_adds_eps_directly(self, rng):
        mu = Tensor(rng.normal(size=(2, 3)))
        eps = rng.normal(size=(2, 3))
        z = cvae.reparameterize(mu, Tensor(np.zeros((2, 3))), eps)
        assert np.allclose(z.data, mu.data + eps)

    def test_moments_match_over_many_draws(self, rng):
        n = 100_000
        mu_val, logvar_val = 0.7, -0.4
        mu = Tensor(np.full((n, 1), mu_val))
        logvar = Tensor(np.full((n, 1), logvar_val))
        z = cvae.reparameterize(mu, logvar, rng.standard_normal((n, 1))).data
        var = np.exp(logvar_val)
        se_mean = np.sqrt(var / n)
        assert abs(z.mean() - mu_val) <= 3 * se_mean
        # variance of the sample variance ~ 2 var^2 / (n-1)
        se_var = var * np.sqrt(2.0 / (n - 1))
        assert abs(z.var() - var) <= 3 * se_var

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ad.DimensionError):
            cvae.reparameterize(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))),
                                np.zeros((2, 3)))


class TestElbo:
    def test_kl_zero_at_prior(self):
        kl = cvae.kl_standard_normal(Tensor(np.zeros((3, 7))), Tensor(np.zeros((3, 7))))
        assert kl.item() == 0.0

    def test_kl_closed_form_unit_mean(self):
        kl = cvae.kl_standard_normal(Tensor(np.ones((1, 1))), Tensor(np.zeros((1, 1))))
        assert kl.item() == pytest.approx(0.5, abs=1e-12)

    def test_kl_nonnegative_everywhere(self, rng):
        for _ in range(50):
            mu = Tensor(rng.normal(scale=3.0, size=(4, 6)))
            logvar = Tensor(rng.normal(scale=2.0, size=(4, 6)))
            assert cvae.kl_standard_normal(mu, logvar).item() >= 0.0

    def test_kl_matches_monte_carlo(self, rng):
        mu_val, logvar_val = 0.8, 0.6
        closed = cvae.kl_standard_normal(
            Tensor(np.full((1, 1), mu_val)), Tensor(np.full((1, 1), logvar_val))).item()
        n = 100_000
        sigma = np.exp(0.5 * logvar_val)
        z = mu_val + sigma * rng.standard_normal(n)
        log_q = -0.5 * (np.log(2 * np.pi) + logvar_val + (z - mu_val) ** 2 / sigma ** 2)
        log_p = -0.5 * (np.log(2 * np.pi) + z ** 2)
        samples = log_q - log_p
        se = samples.std(ddof=1) / np.sqrt(n)
        assert abs(closed - samples.mean()) <= 3 * se

    def test_reconstruction_zero_at_perfect_match(self, rng):
        x = rng.uniform(0.05, 0.95, size=(2, 1, 4, 4, 4))
        total, parts = cvae.elbo_loss(x, Tensor(x.copy()),
                                      Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert parts.reconstruction == pytest.approx(0.0, abs=1e-9)
        assert parts.kl == 0.0
        assert parts.total == parts.reconstruction + parts.kl

    def test_reconstruction_nonnegative(self, rng):
        x = rng.uniform(size=(2, 1, 3, 3, 3))
        x_hat = Tensor(rng.uniform(0.01, 0.99, size=(2, 1, 3, 3, 3)))
        _, parts = cvae.elbo_loss(x, x_hat, Tensor(np.zeros((2, 2))),
                                  Tensor(np.zeros((2, 2))))
        assert parts.reconstruction >= 0.0

    def test_targets_outside_unit_interval_rejected(self, rng):
        bad = rng.uniform(size=(1, 1, 2, 2, 2)) + 1.0
        with pytest.raises(ad.GraphError):
            cvae.elbo_loss(bad, Tensor(np.full((1, 1, 2, 2, 2), 0.5)),
                           Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))))


class TestDecode:
    def test_output_shape_and_range(self, tiny_model, rng):
        model, _ = tiny_model
        out = model.decode(Tensor(rng.normal(size=(3, 4))), np.array([0, 1, 2]))
        assert out.data.shape == (3, 1, 8, 8, 8)
        assert out.data.min() > 0.0 and out.data.max() < 1.0

    def test_deterministic_in_inference_mode(self, tiny_model, rng):
        model, _ = tiny_model
        z = Tensor(rng.normal(size=(2, 4)))
        y = np.array([0, 2])
        a = model.decode(z, y, training=False)
        b = model.decode(z, y, training=False)
        assert np.array_equal(a.data, b.data)

    def test_zero_parameters_give_half(self, tiny_model, rng):
        model, _ = tiny_model
        for p in model.parameters().values():
            p.data = np.zeros_like(p.data)
        out = model.decode(Tensor(rng.normal(size=(2, 4))), np.array([0, 1]))
        assert np.allclose(out.data, 0.5)

    def test_latent_dim_checked(self, tiny_model, rng):
        model, _ = tiny_model
        with pytest.raises(ad.DimensionError):
            model.decode(Tensor(rng.normal(size=(2, 9))), np.array([0, 1]))


class TestTraining:
    def test_constant_fixture_loss_drops_90_percent(self, constant_volume_training):
        _, history = constant_volume_training
        assert len(history.epochs) == 50
        first = history.epochs[0].total
        last = history.epochs[-1].total
        assert last <= 0.10 * first, (first, last)

    def test_loss_history_length_matches_epochs(self):
        ds = make_blob_dataset(2, 6, (8, 8, 8), seed=2)
        config = cvae.CVAEConfig(latent_dim=3, enc_channels=(3, 4), dec_channels=(4, 3),
                                 batch_size=4, epochs=4, seed=0)
        _, history = cvae.train_cvae(ds, config)
        assert len(history.epochs) == 4

    def test_identical_seed_reproduces_history(self):
        ds = make_blob_dataset(2, 6, (8, 8, 8), seed=2)
        config = cvae.CVAEConfig(latent_dim=3, enc_channels=(3, 4), dec_channels=(4, 3),
                                 batch_size=4, epochs=3, seed=9)
        _, h1 = cvae.train_cvae(ds, config)
        _, h2 = cvae.train_cvae(ds, config)
        assert [p.total for p in h1.epochs] == [p.total for p in h2.epochs]

    def test_moving_average_of_loss_decreases(self, constant_volume_training):
        _, history = constant_volume_training
        totals = np.array([p.total for p in history.epochs])
        smoothed = np.convolve(totals, np.ones(5) / 5, mode="valid")
        assert smoothed[-1] < smoothed[0]

    def test_validation_selects_best_epoch(self):
        ds = make_blob_dataset(2, 8, (8, 8, 8), seed=3)
        config = cvae.CVAEConfig(latent_dim=3, enc_channels=(3, 4), dec_channels=(4, 3),
                                 batch_size=4, epochs=4, seed=1)
        _, history = cvae.train_cvae(ds, config, val_indices=np.arange(4),
                                     train_indices=np.arange(4, 16))
        assert len(history.validation) == 4
        assert history.best_epoch == int(np.argmin(history.validation))

    def test_best_epoch_restores_its_batchnorm_statistics(self):
        """The returned model scores exactly its best epoch's validation loss."""
        ds = make_blob_dataset(2, 8, (8, 8, 8), seed=3)
        config = cvae.CVAEConfig(latent_dim=3, enc_channels=(3, 4), dec_channels=(4, 3),
                                 batch_size=4, epochs=8, seed=0, learning_rate=5e-2)
        val = np.arange(4)
        model, history = cvae.train_cvae(ds, config, val_indices=val,
                                         train_indices=np.arange(4, 16))
        assert history.best_epoch < config.epochs - 1
        restored = cvae.evaluate_elbo(model, ds, val, config).total
        assert restored == history.validation[history.best_epoch]

    def test_batch_below_two_rejected(self):
        with pytest.raises(ValueError):
            cvae.CVAEConfig(batch_size=1)

    def test_empty_dataset_rejected(self):
        ds = VolumeDataset([], [], ["a"])
        with pytest.raises(ValueError):
            cvae.train_cvae(ds, cvae.CVAEConfig(**TINY))


class TestSampling:
    def test_count_and_dims(self, constant_volume_training):
        model, _ = constant_volume_training
        out = cvae.sample_cvae(model, 0, 5, seed=3)
        assert len(out) == 5
        assert all(v.dims == (8, 8, 8) for v in out)
        assert all(0.0 <= v.data.min() and v.data.max() <= 1.0 for v in out)

    def test_seed_reproducibility(self, constant_volume_training):
        model, _ = constant_volume_training
        a = cvae.sample_cvae(model, 0, 3, seed=11)
        b = cvae.sample_cvae(model, 0, 3, seed=11)
        for va, vb in zip(a, b):
            assert np.array_equal(va.data, vb.data)

    def test_unknown_class_rejected(self, constant_volume_training):
        model, _ = constant_volume_training
        with pytest.raises(KeyError):
            cvae.sample_cvae(model, 5, 1, seed=0)

    def test_oracle_label_consistency(self, blob_bench_results):
        mean = np.mean([r["cvae_consistency"] for r in blob_bench_results])
        assert mean >= 0.60


class TestCheckpoint:
    def test_round_trip_preserves_samples(self, tmp_path, constant_volume_training):
        model, _ = constant_volume_training
        path = tmp_path / "cvae.ckpt"
        cvae.save_cvae(model, path)
        back, _ = cvae.load_cvae(path)
        a = cvae.sample_cvae(model, 0, 2, seed=5)
        b = cvae.sample_cvae(back, 0, 2, seed=5)
        for va, vb in zip(a, b):
            assert np.array_equal(va.data, vb.data)


class TestFullGraphGradient:
    def test_encode_reparameterize_decode_loss_gradcheck(self, rng):
        from volsynth import nn
        config = cvae.CVAEConfig(latent_dim=2, enc_channels=(2, 3), dec_channels=(3, 2),
                                 batch_size=2, dtype="float64")
        model = cvae.CVAE((8, 8, 8), 2, config, rng)
        x = rng.uniform(0.2, 0.8, size=(2, 1, 8, 8, 8))
        y = np.array([0, 1])
        eps = rng.standard_normal((2, 2))
        params = model.parameters()

        def build(p):
            mu, logvar = model.encode(Tensor(x), y)
            z = cvae.reparameterize(mu, logvar, eps)
            x_hat = model.decode(z, y, training=True)
            total, _ = cvae.elbo_loss(x, x_hat, mu, logvar)
            return total

        # absolute floor 1e-6: finite differences near relu kinks leave
        # ~1e-9 dust on tiny-gradient coordinates of composite graphs
        report = nn.grad_check(build, params, tolerance=1e-4, noise_floor=1e-6)
        assert report.passed, str(report)
