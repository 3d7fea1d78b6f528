"""EM fitting, likelihood evaluation, and class-conditional sampling."""

import numpy as np
import pytest

from volsynth import gmm as gm
from volsynth.gmm import ClassGMM, EMConfig, em_fit
from volsynth.volumes import Mask


class TestEMFit:
    def test_k1_closed_form_recovery(self, rng):
        x = rng.normal(size=(40, 6))
        params = em_fit(x, EMConfig(num_components=1, seed=0))
        assert np.abs(params.means[0] - x.mean(axis=0)).max() <= 1e-12
        assert np.abs(params.variances[0] - x.var(axis=0)).max() <= 1e-12
        assert params.weights[0] == pytest.approx(1.0, abs=1e-15)

    def test_log_likelihood_monotone(self, rng):
        for trial in range(20):
            r = np.random.default_rng(trial)
            x = r.normal(size=(30, 4)) + r.integers(0, 3, size=(30, 1))
            params = em_fit(x, EMConfig(num_components=2, max_iters=30, seed=trial))
            ll = np.array(params.log_likelihoods)
            assert (np.diff(ll) >= -1e-9).all(), f"trial {trial}: {ll}"

    def test_two_separated_clusters_recovered(self, rng):
        sigma = 0.5
        a = rng.normal(loc=0.0, scale=sigma, size=(1000, 3))
        b = rng.normal(loc=10.0 * sigma, scale=sigma, size=(1000, 3))
        x = np.concatenate([a, b])
        params = em_fit(x, EMConfig(num_components=2, max_iters=100, seed=1))
        order = np.argsort(params.means[:, 0])
        mu_a, mu_b = params.means[order]
        assert np.abs(mu_a - 0.0).max() <= 0.1 * sigma
        assert np.abs(mu_b - 10.0 * sigma).max() <= 0.1 * sigma
        assert abs(params.weights[0] - 0.5) <= 0.05

    def test_responsibilities_are_simplex(self, rng):
        # responsibilities come from exp(log_prob - logsumexp); checked via weights
        x = rng.normal(size=(25, 3))
        params = em_fit(x, EMConfig(num_components=3, seed=2))
        assert params.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert (params.variances >= 1e-6).all()

    def test_fewer_samples_than_components_rejected(self, rng):
        with pytest.raises(ValueError):
            em_fit(rng.normal(size=(2, 3)), EMConfig(num_components=5))


class TestLogLikelihood:
    def make_model(self, params_by_class, dims=(2, 2, 2)):
        model = ClassGMM(Mask(np.ones(dims, dtype=bool)), EMConfig())
        for c, (w, m, v) in params_by_class.items():
            model.per_class[c] = gm.MixtureParams(
                weights=np.asarray(w, dtype=float),
                means=np.asarray(m, dtype=float),
                variances=np.asarray(v, dtype=float),
                log_likelihoods=[])
        return model

    def test_standard_normal_value(self):
        model = self.make_model({0: ([1.0], [[0.0]], [[1.0]])}, dims=(1, 1, 1))
        ll = model.log_likelihood(0, [0.0])
        assert ll == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_mixture_collapse_matches_k1(self):
        single = self.make_model({0: ([1.0], [[0.3]], [[0.8]])}, dims=(1, 1, 1))
        double = self.make_model(
            {0: ([0.5, 0.5], [[0.3], [0.3]], [[0.8], [0.8]])}, dims=(1, 1, 1))
        x = [0.1]
        assert double.log_likelihood(0, x) == pytest.approx(
            single.log_likelihood(0, x), abs=1e-12)

    def test_matches_direct_sum_oracle(self, rng):
        k, d = 3, 5
        w = rng.dirichlet(np.ones(k))
        means = rng.normal(size=(k, d))
        variances = rng.uniform(0.5, 2.0, size=(k, d))
        model = self.make_model({1: (w, means, variances)}, dims=(5, 1, 1))
        for _ in range(10):
            x = rng.normal(size=d)
            direct = 0.0
            for j in range(k):
                gauss = np.prod(np.exp(-0.5 * (x - means[j]) ** 2 / variances[j])
                                / np.sqrt(2 * np.pi * variances[j]))
                direct += w[j] * gauss
            assert model.log_likelihood(1, x) == pytest.approx(np.log(direct), rel=1e-9)

    def test_unknown_class_lists_trained(self):
        model = self.make_model({0: ([1.0], [[0.0]], [[1.0]])}, dims=(1, 1, 1))
        with pytest.raises(KeyError, match=r"\[0\]"):
            model.log_likelihood(3, [0.0])

    def test_feature_length_checked(self):
        model = self.make_model({0: ([1.0], [[0.0]], [[1.0]])}, dims=(1, 1, 1))
        with pytest.raises(ValueError):
            model.log_likelihood(0, [0.0, 1.0])


class TestSampling:
    def make_constant_model(self, mu_value, var_value, dims=(4, 4, 4)):
        mask = Mask(np.ones(dims, dtype=bool))
        d = int(np.prod(dims))
        model = ClassGMM(mask, EMConfig())
        model.per_class[0] = gm.MixtureParams(
            weights=np.array([1.0]),
            means=np.full((1, d), mu_value),
            variances=np.full((1, d), var_value),
            log_likelihoods=[])
        return model

    def test_sample_mean_near_mu(self):
        floor = 1e-6
        model = self.make_constant_model(0.5, floor, dims=(2, 2, 2))
        feats = model.sample_features(0, 1000, seed=0)
        se = np.sqrt(floor / 1000)
        assert np.abs(feats.mean(axis=0) - 0.5).max() <= 3 * se

    def test_zero_count_rejected(self):
        model = self.make_constant_model(0.5, 1e-6)
        with pytest.raises(ValueError):
            model.sample_features(0, 0, seed=0)

    def test_samples_respect_mask_support(self, rng):
        dims = (4, 4, 4)
        bits = rng.uniform(size=dims) > 0.5
        mask = Mask(bits)
        d = mask.valid_count
        model = ClassGMM(mask, EMConfig())
        model.per_class[2] = gm.MixtureParams(
            weights=np.array([1.0]), means=np.full((1, d), 0.5),
            variances=np.full((1, d), 0.01), log_likelihoods=[])
        vols = model.sample_volumes(2, 5, seed=4)
        for v in vols:
            assert np.array_equal(v.data[~bits], np.zeros((~bits).sum()))
            assert v.data.min() >= 0.0 and v.data.max() <= 1.0

    def test_untrained_class_error_lists_classes(self):
        model = self.make_constant_model(0.5, 1e-6)
        with pytest.raises(KeyError, match=r"trained classes: \[0\]"):
            model.sample_volumes(7, 1, seed=0)

    def test_sampling_deterministic(self):
        model = self.make_constant_model(0.5, 0.01)
        a = model.sample_features(0, 10, seed=42)
        b = model.sample_features(0, 10, seed=42)
        assert np.array_equal(a, b)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        from volsynth.datasets import make_blob_dataset
        from volsynth.volumes import compute_mask
        ds = make_blob_dataset(2, 8, (6, 6, 6), seed=1)
        mask = compute_mask(ds.volumes)
        model = gm.fit_class_gmms(ds, mask, EMConfig(num_components=1, seed=0))
        path = tmp_path / "gmm.ckpt"
        gm.save_gmm(model, path)
        back = gm.load_gmm(path)
        assert back.trained_classes == model.trained_classes
        for c in model.trained_classes:
            assert np.array_equal(back.per_class[c].means, model.per_class[c].means)
            assert np.array_equal(back.per_class[c].variances,
                                  model.per_class[c].variances)
        assert np.array_equal(back.mask.bits, mask.bits)
        a = model.sample_volumes(0, 3, seed=5)
        b = back.sample_volumes(0, 3, seed=5)
        for va, vb in zip(a, b):
            assert np.array_equal(va.data, vb.data)

    def test_trailing_bytes_rejected(self, tmp_path):
        from volsynth import nn
        from volsynth.datasets import make_blob_dataset
        from volsynth.volumes import compute_mask
        ds = make_blob_dataset(2, 4, (6, 6, 6), seed=1)
        model = gm.fit_class_gmms(ds, compute_mask(ds.volumes), EMConfig(seed=0))
        path = tmp_path / "gmm.ckpt"
        gm.save_gmm(model, path)
        with open(path, "ab") as fh:
            fh.write(b"22 bytes of stray data")
        with pytest.raises(nn.CheckpointError, match="after the last array"):
            gm.load_gmm(path)
