"""SVM, the conv-net classifier, and the metrics suite."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsynth import classifiers as clf
from volsynth import harness, nn
from volsynth.datasets import make_blob_dataset, one_hot
from volsynth.volumes import Mask, compute_mask


def primal_svm(x, y, reg_c, epochs):
    """Reference: the subgradient loop on the [n, D] features and weights."""
    n, f = x.shape
    num_classes = int(y.max()) + 1
    lam = 1.0 / (reg_c * n)
    targets = np.where(one_hot(y, num_classes) > 0, 1.0, -1.0)
    w = np.zeros((num_classes, f))
    b = np.zeros(num_classes)
    for t in range(1, epochs + 1):
        margins = targets * (x @ w.T + b)
        coeff = np.where(margins < 1.0, targets, 0.0)
        grad_w = lam * w - (coeff.T @ x) / n
        grad_b = -coeff.mean(axis=0)
        eta = 1.0 / (lam * t)
        w -= eta * grad_w
        b -= eta * grad_b
    return w, b


class TestSVM:
    # features come from a seeded normal, not arbitrary floats: a margin tied
    # at exactly 1.0 would let the two forms' last bits take different branches
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 40), dim=st.integers(1, 60),
           num_classes=st.integers(2, 4), epochs=st.integers(1, 80))
    def test_gram_form_matches_primal_loop(self, seed, n, dim, num_classes, epochs):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, dim))
        y = rng.permutation(np.arange(n) % num_classes)
        held_out = rng.normal(size=(20, dim))
        w, b = primal_svm(x, y, 1.0, epochs)
        model = clf.train_svm(x, y, epochs=epochs)
        assert np.allclose(model.weights, w, rtol=1e-9)
        assert np.allclose(model.biases, b, rtol=1e-9)
        assert np.array_equal(model.predict(held_out),
                              np.argmax(held_out @ w.T + b, axis=1))

    def test_separable_clusters_reach_perfect_training_accuracy(self, rng):
        a = rng.normal(loc=(-2.0, 0.0), scale=0.3, size=(30, 2))
        b = rng.normal(loc=(2.0, 0.0), scale=0.3, size=(30, 2))
        x = np.concatenate([a, b])
        y = np.array([0] * 30 + [1] * 30)
        model = clf.train_svm(x, y, reg_c=1.0, epochs=200)
        assert (model.predict(x) == y).mean() == 1.0

    def test_exact_tie_goes_to_lowest_class_index(self):
        model = clf.LinearSVMModel(weights=np.zeros((3, 2)), biases=np.zeros(3),
                                   reg_c=1.0)
        preds = model.predict(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert np.array_equal(preds, [0, 0])

    def test_weight_vector_length_matches_mask(self, rng):
        mask = Mask(rng.uniform(size=(4, 4, 4)) > 0.5)
        x = rng.normal(size=(20, mask.valid_count))
        y = rng.integers(0, 2, size=20)
        y[:2] = [0, 1]
        model = clf.train_svm(x, y, mask=mask)
        assert model.weights.shape[1] == mask.valid_count
        assert model.mask is mask

    def test_single_class_rejected(self, rng):
        with pytest.raises(ValueError):
            clf.train_svm(rng.normal(size=(10, 3)), np.zeros(10, dtype=int))

    def test_deterministic(self, rng):
        x = rng.normal(size=(40, 5))
        y = rng.integers(0, 3, size=40)
        y[:3] = [0, 1, 2]
        m1 = clf.train_svm(x, y, epochs=100)
        m2 = clf.train_svm(x, y, epochs=100)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.biases, m2.biases)


class TestDNN:
    def test_quick_fixture_learns(self):
        ds = make_blob_dataset(2, 10, (8, 8, 8), seed=4)
        config = clf.DNNConfig(channels=(4, 8), batch_size=5, epochs=15,
                               learning_rate=2e-3, seed=0)
        model, history = clf.train_dnn_classifier(
            ds.stack(np.float32), ds.labels, config, num_classes=2)
        preds = model.predict(ds.stack(np.float32))
        assert (preds == ds.labels).mean() >= 0.9
        assert len(history.train_loss) == 15

    def test_blob_benchmark_accuracy(self, blob_bench_results):
        mean = np.mean([r["real_accuracy"] for r in blob_bench_results])
        assert mean >= 0.90

    def test_cross_entropy_positive_unless_perfect(self, rng):
        from volsynth import autodiff as ad
        from volsynth.autodiff import Tensor
        logits = Tensor(rng.normal(size=(4, 3)))
        onehot = np.zeros((4, 3))
        onehot[np.arange(4), [0, 1, 2, 0]] = 1.0
        assert ad.softmax_cross_entropy(logits, onehot).item() > 0.0

    def test_identical_seed_identical_history(self):
        ds = make_blob_dataset(2, 6, (8, 8, 8), seed=1)
        config = clf.DNNConfig(channels=(3, 4), batch_size=4, epochs=3, seed=7)
        _, h1 = clf.train_dnn_classifier(ds.stack(np.float32), ds.labels, config,
                                         num_classes=2)
        _, h2 = clf.train_dnn_classifier(ds.stack(np.float32), ds.labels, config,
                                         num_classes=2)
        assert h1.train_loss == h2.train_loss

    def test_validation_selection(self):
        ds = make_blob_dataset(2, 8, (8, 8, 8), seed=2)
        config = clf.DNNConfig(channels=(3, 4), batch_size=4, epochs=4, seed=3)
        stacked = ds.stack(np.float32)
        model, history = clf.train_dnn_classifier(
            stacked[:12], ds.labels[:12], config, num_classes=2,
            val_volumes=stacked[12:], val_labels=ds.labels[12:])
        assert len(history.val_accuracy) == 4
        assert history.best_epoch == int(np.argmax(history.val_accuracy))

    def test_empty_dataset_rejected(self):
        config = clf.DNNConfig()
        with pytest.raises(ValueError):
            clf.train_dnn_classifier(np.zeros((0, 1, 8, 8, 8)), [], config)


class TestClassifierFiles:
    """A classifier file holds the model that wrote it: rebuilt from the file's arrays
    and header alone, it scores held-out volumes exactly as the fitted model does."""

    MODELS = {"svm": {"epochs": 50}, "dnn": {"channels": [3, 4], "epochs": 2, "batch_size": 4}}

    @staticmethod
    def rebuilt(kind, arrays, extra):
        if kind == "dnn":
            config = nn.model_config(clf.DNNConfig, {k: extra[k] for k in ("channels", "dtype")})
            model = clf.DNNClassifier(extra["dims"], extra["num_classes"], config,
                                      np.random.default_rng(0))
            nn.load_state(arrays, model)
            return model
        mask = Mask(arrays["mask"].reshape(extra["mask_dims"]) > 0.5)
        return clf.LinearSVMModel(arrays["weights"], arrays["biases"], extra["reg_c"], mask)

    @staticmethod
    def scores(kind, model, dataset):
        if kind == "dnn":
            return model.forward(dataset.stack(np.float32)).data
        return model.scores(dataset.stack()[:, 0, model.mask.bits])

    @pytest.mark.parametrize("kind", harness.CLASSIFIER_KINDS)
    def test_a_classifier_file_holds_the_model_that_wrote_it(self, kind, tmp_path):
        dataset = make_blob_dataset(3, 8, (8, 8, 8), seed=2)
        train, held_out = dataset.subset(range(0, 24, 2)), dataset.subset(range(1, 24, 2))
        table = harness.CLASSIFIERS[kind]
        model = table.fit(train, self.MODELS, 7, compute_mask(train.volumes), None)
        path = tmp_path / f"{kind}.ckpt"
        table.save(model, path)
        loaded = self.rebuilt(kind, *nn.load_checkpoint(path))
        assert table.predict(loaded, held_out).tobytes() == table.predict(model, held_out).tobytes()
        assert (self.scores(kind, loaded, held_out).tobytes()
                == self.scores(kind, model, held_out).tobytes())
        # the same seed fits the same model again
        again = table.fit(train, self.MODELS, 7, compute_mask(train.volumes), None)
        assert table.predict(again, held_out).tobytes() == table.predict(loaded, held_out).tobytes()


class TestEvaluate:
    def test_perfect_predictions(self):
        report = clf.evaluate([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0

    def test_hand_verified_confusion_matrix_constants(self):
        """Confusion rows (truth-major): [[2,1,0],[0,2,0],[1,0,4]].

        Hand computation: precisions (2/3, 2/3, 1), recalls (2/3, 1, 4/5),
        F1s (2/3, 4/5, 8/9) -> macro F1 = 106/135, macro P = 7/9,
        macro R = 37/45, accuracy = 8/10.
        """
        truths = [0, 0, 0, 1, 1, 2, 2, 2, 2, 2]
        preds = [0, 0, 1, 1, 1, 2, 2, 2, 2, 0]
        report = clf.evaluate(preds, truths, 3)
        assert np.array_equal(report.confusion,
                              [[2, 1, 0], [0, 2, 0], [1, 0, 4]])
        assert report.accuracy == pytest.approx(0.8, abs=1e-12)
        assert report.macro_f1 == pytest.approx(106 / 135, abs=1e-12)
        assert report.precision == pytest.approx(7 / 9, abs=1e-12)
        assert report.recall == pytest.approx(37 / 45, abs=1e-12)

    def test_degenerate_single_prediction(self):
        report = clf.evaluate([0, 0, 0, 0], [0, 0, 1, 1], 2)
        assert report.recall == pytest.approx(0.5)
        assert report.macro_f1 < 0.5

    def test_permutation_invariance(self, rng):
        preds = rng.integers(0, 3, size=50)
        truths = rng.integers(0, 3, size=50)
        base = clf.evaluate(preds, truths, 3)
        order = rng.permutation(50)
        shuffled = clf.evaluate(preds[order], truths[order], 3)
        assert base.as_row() == shuffled.as_row()
        assert np.array_equal(base.confusion, shuffled.confusion)

    def test_class_relabeling_permutes_per_class_metrics(self, rng):
        preds = rng.integers(0, 3, size=60)
        truths = rng.integers(0, 3, size=60)
        base = clf.evaluate(preds, truths, 3)
        perm = np.array([2, 0, 1])
        relabeled = clf.evaluate(perm[preds], perm[truths], 3)
        assert relabeled.accuracy == pytest.approx(base.accuracy)
        assert relabeled.macro_f1 == pytest.approx(base.macro_f1)
        assert np.allclose(np.sort(relabeled.per_class_f1), np.sort(base.per_class_f1))

    def test_all_metrics_within_unit_interval(self, rng):
        for seed in range(10):
            r = np.random.default_rng(seed)
            preds = r.integers(0, 4, size=30)
            truths = r.integers(0, 4, size=30)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = clf.evaluate(preds, truths, 4)
            for value in report.as_row():
                assert 0.0 <= value <= 1.0

    def test_absent_class_warns_and_counts_zero(self):
        with pytest.warns(UserWarning, match="absent"):
            report = clf.evaluate([0, 1], [0, 1], 3)
        assert report.macro_f1 == pytest.approx(2 / 3)

    def test_confusion_row_sums_are_truth_counts(self, rng):
        preds = rng.integers(0, 3, size=40)
        truths = rng.integers(0, 3, size=40)
        report = clf.evaluate(preds, truths, 3)
        for c in range(3):
            assert report.confusion[c].sum() == (truths == c).sum()
        assert report.accuracy == np.trace(report.confusion) / 40

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            clf.evaluate([0, 3], [0, 1], 3)
