"""Label encoding, manifests, class-size splits, stratified folds, blob fixture."""

import numpy as np
import pytest

from volsynth import datasets as dsm
from volsynth.datasets import (LabelVector, VolumeDataset, make_blob_dataset, one_hot,
                               split_by_class_size, stratified_kfold)
from volsynth.volumes import Volume


def toy_dataset(counts, dims=(3, 3, 3), seed=0):
    rng = np.random.default_rng(seed)
    volumes, labels = [], []
    for c, n in enumerate(counts):
        for _ in range(n):
            volumes.append(Volume(rng.uniform(size=dims).astype(np.float32)))
            labels.append(c)
    return VolumeDataset(volumes, labels, [f"c{c}" for c in range(len(counts))])


class TestLabels:
    def test_one_hot_is_exactly_one_bit(self):
        lv = LabelVector(2, 5)
        bits = lv.bits
        assert bits.sum() == 1.0 and bits[2] == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LabelVector(5, 5)

    def test_one_hot_matrix(self):
        m = one_hot([0, 2, 1], 3)
        assert np.array_equal(m, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float))


class TestManifest:
    def test_save_load_round_trip(self, tmp_path):
        ds = toy_dataset([3, 2])
        manifest = dsm.save_dataset(ds, tmp_path / "data")
        back = dsm.load_dataset(manifest)
        assert len(back) == 5
        assert back.class_table == ["c0", "c1"]
        assert np.array_equal(back.labels, ds.labels)
        for a, b in zip(back.volumes, ds.volumes):
            assert np.array_equal(a.data, b.data)


class TestSplitByClassSize:
    def test_hundred_splits_70_10_20(self):
        ds = toy_dataset([100])
        result = split_by_class_size(ds, seed=0)
        assert (len(result.train), len(result.validation), len(result.test)) == (70, 10, 20)

    def test_sixty_splits_30_10_20(self):
        ds = toy_dataset([60])
        result = split_by_class_size(ds, seed=0)
        assert (len(result.train), len(result.validation), len(result.test)) == (30, 10, 20)

    def test_29_samples_dropped(self):
        ds = toy_dataset([29, 40])
        result = split_by_class_size(ds, seed=0)
        assert result.dropped_classes == [0]
        total = len(result.train) + len(result.validation) + len(result.test)
        assert total == 40

    def test_partition_covers_everything_once(self):
        ds = toy_dataset([120, 45, 10])
        result = split_by_class_size(ds, seed=3)
        kept = result.train + result.validation + result.test
        assert len(kept) == len(set(kept))
        dropped = [i for i in range(len(ds)) if ds.labels[i] in result.dropped_classes]
        assert sorted(kept + dropped) == list(range(len(ds)))

    def test_deterministic_under_seed(self):
        ds = toy_dataset([50, 50])
        a = split_by_class_size(ds, seed=5)
        b = split_by_class_size(ds, seed=5)
        assert a.train == b.train and a.test == b.test


class TestStratifiedKFold:
    def test_exact_stratification_nine_samples(self):
        ds = toy_dataset([3, 3, 3])
        folds = stratified_kfold(ds, 3, seed=0)
        for fold in folds:
            labels = ds.labels[fold]
            assert sorted(labels.tolist()) == [0, 1, 2]

    def test_pigeonhole_counts(self):
        ds = toy_dataset([10])
        folds = stratified_kfold(ds, 3, seed=1)
        counts = sorted(len(f) for f in folds)
        assert counts == [3, 3, 4]

    def test_per_class_counts_differ_by_at_most_one(self):
        ds = toy_dataset([10, 7, 23])
        folds = stratified_kfold(ds, 3, seed=2)
        for c in range(3):
            per_fold = [int((ds.labels[f] == c).sum()) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_folds_partition_indices(self):
        ds = toy_dataset([9, 12])
        folds = stratified_kfold(ds, 3, seed=4)
        merged = sorted(i for f in folds for i in f)
        assert merged == list(range(len(ds)))

    def test_seed_determinism_and_variation(self):
        ds = toy_dataset([12, 12])
        a = stratified_kfold(ds, 3, seed=7)
        b = stratified_kfold(ds, 3, seed=7)
        c = stratified_kfold(ds, 3, seed=8)
        assert a == b
        assert a != c
        profile = lambda folds: sorted(
            tuple(int((ds.labels[f] == cls).sum()) for cls in range(2)) for f in folds)
        assert profile(a) == profile(c)

    def test_small_class_raises_with_name(self):
        ds = toy_dataset([2, 9])
        with pytest.raises(dsm.StratificationError, match="c0"):
            stratified_kfold(ds, 3, seed=0)


class TestBlobFixture:
    def test_counts(self):
        ds = make_blob_dataset(4, 30, (16, 16, 16), seed=7)
        assert len(ds) == 120
        for c in range(4):
            assert ds.class_indices(c).size == 30

    def test_bit_identical_under_same_seed(self):
        a = make_blob_dataset(2, 3, (8, 8, 8), seed=11)
        b = make_blob_dataset(2, 3, (8, 8, 8), seed=11)
        for va, vb in zip(a.volumes, b.volumes):
            assert np.array_equal(va.data, vb.data)

    def test_volumes_normalized(self):
        ds = make_blob_dataset(2, 4, (8, 8, 8), seed=3)
        for v in ds.volumes:
            assert v.data.min() >= 0.0 and v.data.max() <= 1.0

    def test_class_separation_dominates_within_class_spread(self):
        """Pairwise distance of class means >> within-class spread of that distance."""
        ds = make_blob_dataset(4, 30, (16, 16, 16), seed=0)
        stacks = [np.stack([v.data for v in ds.subset(ds.class_indices(c)).volumes])
                  for c in range(4)]
        means = [s.mean(axis=0) for s in stacks]
        for a in range(4):
            for b in range(a + 1, 4):
                between = np.linalg.norm(means[a] - means[b])
                dists = [np.linalg.norm(s - means[a]) for s in stacks[a]]
                within = np.std([np.linalg.norm(s - means[b]) for s in stacks[a]])
                assert between > 10.0 * within, (a, b, between, within)


class TestVolumeDataset:
    def test_parallel_lists_enforced(self):
        with pytest.raises(ValueError):
            VolumeDataset([Volume(np.zeros((2, 2, 2)))], [0, 1], ["a", "b"])

    def test_label_outside_table_rejected(self):
        with pytest.raises(ValueError):
            VolumeDataset([Volume(np.zeros((2, 2, 2)))], [3], ["a", "b"])

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match="outside the class table"):
            VolumeDataset([Volume(np.zeros((2, 2, 2)))], [-1], ["a", "b"])

    def test_subset_and_extended_provenance(self):
        ds = toy_dataset([2, 2])
        sub = ds.subset([0, 2])
        assert np.array_equal(sub.labels, [0, 1])
        aug = sub.extended([Volume(np.zeros((3, 3, 3)))], [1], dsm.SYNTHETIC)
        assert aug.provenance == [dsm.REAL, dsm.REAL, dsm.SYNTHETIC]
