"""Label encoding, manifests, class-size splits, stratified folds, blob fixture."""

import re
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsynth import datasets as dsm
from volsynth import harness
from volsynth.datasets import (ManifestError, VolumeDataset, make_blob_dataset, one_hot,
                               stratified_kfold)
from volsynth.volumes import Volume, normalize_minmax, write_volume


def toy_dataset(counts, dims=(3, 3, 3), seed=0):
    rng = np.random.default_rng(seed)
    volumes, labels = [], []
    for c, n in enumerate(counts):
        for _ in range(n):
            volumes.append(Volume(rng.uniform(size=dims).astype(np.float32)))
            labels.append(c)
    return VolumeDataset(volumes, labels, [f"c{c}" for c in range(len(counts))])


class TestLabels:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            one_hot([5], 5)
        with pytest.raises(ValueError):
            one_hot([-1], 5)

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


def load_with_record(record, position, blank_lines, odd_volume=None):
    """Load a saved 3-volume manifest with ``record`` inserted before line
    ``position`` (blank lines first); returns the error, the manifest path and
    the record's line number.

    ``odd_volume``, if given, is written as ``odd.vvol`` beside the manifest.
    """
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(dsm.save_dataset(toy_dataset([2, 1], dims=(2, 2, 2)), tmp))
        if odd_volume is not None:
            write_volume(odd_volume, Path(tmp) / "odd.vvol")
        lines = manifest.read_text().splitlines()
        lines[position:position] = [""] * blank_lines + [record]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError) as err:
            dsm.load_dataset(str(manifest))
        return str(err.value), str(manifest), position + blank_lines + 1


def names_line(message, manifest, line):
    return manifest in message and re.search(rf"\bline {line}\b", message)


NO_COMMA = st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                 blacklist_characters=","), min_size=1).filter(str.strip)


class TestManifestErrors:
    """Each bad record raises ManifestError naming the manifest and its line."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(NO_COMMA, st.integers(0, 1).map(lambda k: f",{k}")),
           st.integers(0, 3), st.integers(0, 2))
    def test_record_that_is_not_path_comma_index(self, record, position, blanks):
        message, manifest, line = load_with_record(record, position, blanks)
        assert names_line(message, manifest, line)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.floats().map(repr),
                     st.text(string.ascii_letters + ". -", max_size=5)),
           st.integers(0, 3), st.integers(0, 2))
    def test_index_that_is_not_an_integer(self, index, position, blanks):
        message, manifest, line = load_with_record(f"vol_00000.vvol,{index}", position,
                                                   blanks)
        assert names_line(message, manifest, line)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.integers(max_value=-1), st.integers(min_value=2)),
           st.integers(0, 3), st.integers(0, 2))
    def test_index_outside_the_class_table(self, index, position, blanks):
        message, manifest, line = load_with_record(f"vol_00000.vvol,{index}", position,
                                                   blanks)
        assert names_line(message, manifest, line)
        assert "classes.txt" in message

    @settings(max_examples=30, deadline=None)
    @given(st.tuples(*[st.integers(1, 3)] * 3).filter(lambda d: d != (2, 2, 2)),
           st.integers(1, 3), st.integers(0, 2))
    def test_volume_dims_that_differ_from_the_first(self, dims, position, blanks):
        odd = Volume(np.zeros(dims, dtype=np.float32))
        message, manifest, line = load_with_record("odd.vvol,0", position, blanks,
                                                   odd_volume=odd)
        assert names_line(message, manifest, line)
        assert "odd.vvol" in message

    def test_missing_volume_file_names_its_path(self, tmp_path):
        manifest = Path(dsm.save_dataset(toy_dataset([1, 1]), tmp_path))
        (tmp_path / "vol_00001.vvol").unlink()
        with pytest.raises(FileNotFoundError, match="vol_00001.vvol"):
            dsm.load_dataset(str(manifest))


def ratio_split(ds, seed):
    """train, validation, test and dropped classes of ``ds``'s ratio split; a
    dropped class is one with no index in any part."""
    [(train, val, test)] = harness._cells_for_split(ds, {"kind": "ratio"}, seed)
    kept = set(ds.labels[train + val + test].tolist())
    return train, val, test, [c for c in range(ds.num_classes) if c not in kept]


class TestSplitByClassSize:
    def test_hundred_splits_70_10_20(self):
        train, val, test, _ = ratio_split(toy_dataset([100]), seed=0)
        assert (len(train), len(val), len(test)) == (70, 10, 20)

    def test_sixty_splits_30_10_20(self):
        train, val, test, _ = ratio_split(toy_dataset([60]), seed=0)
        assert (len(train), len(val), len(test)) == (30, 10, 20)

    def test_29_samples_dropped(self):
        train, val, test, dropped = ratio_split(toy_dataset([29, 40]), seed=0)
        assert dropped == [0]
        assert len(train) + len(val) + len(test) == 40

    def test_partition_covers_everything_once(self):
        ds = toy_dataset([120, 45, 10])
        train, val, test, dropped_classes = ratio_split(ds, seed=3)
        kept = train + val + test
        assert len(kept) == len(set(kept))
        dropped = [i for i in range(len(ds)) if ds.labels[i] in dropped_classes]
        assert sorted(kept + dropped) == list(range(len(ds)))

    def test_deterministic_under_seed(self):
        ds = toy_dataset([50, 50])
        assert ratio_split(ds, seed=5) == ratio_split(ds, seed=5)


class TestStratifiedKFold:
    def test_exact_stratification_nine_samples(self):
        ds = toy_dataset([3, 3, 3])
        folds = stratified_kfold(ds, 3, seed=0, classes=range(ds.num_classes))
        for fold in folds:
            labels = ds.labels[fold]
            assert sorted(labels.tolist()) == [0, 1, 2]

    def test_pigeonhole_counts(self):
        ds = toy_dataset([10])
        folds = stratified_kfold(ds, 3, seed=1, classes=range(ds.num_classes))
        counts = sorted(len(f) for f in folds)
        assert counts == [3, 3, 4]

    def test_per_class_counts_differ_by_at_most_one(self):
        ds = toy_dataset([10, 7, 23])
        folds = stratified_kfold(ds, 3, seed=2, classes=range(ds.num_classes))
        for c in range(3):
            per_fold = [int((ds.labels[f] == c).sum()) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_folds_partition_indices(self):
        ds = toy_dataset([9, 12])
        folds = stratified_kfold(ds, 3, seed=4, classes=range(ds.num_classes))
        merged = sorted(i for f in folds for i in f)
        assert merged == list(range(len(ds)))

    def test_seed_determinism_and_variation(self):
        ds = toy_dataset([12, 12])
        a = stratified_kfold(ds, 3, seed=7, classes=range(ds.num_classes))
        b = stratified_kfold(ds, 3, seed=7, classes=range(ds.num_classes))
        c = stratified_kfold(ds, 3, seed=8, classes=range(ds.num_classes))
        assert a == b
        assert a != c
        profile = lambda folds: sorted(
            tuple(int((ds.labels[f] == cls).sum()) for cls in range(2)) for f in folds)
        assert profile(a) == profile(c)

    def test_small_class_raises_with_name(self):
        ds = toy_dataset([2, 9])
        with pytest.raises(dsm.StratificationError, match="c0"):
            stratified_kfold(ds, 3, seed=0, classes=range(ds.num_classes))


def grid_blob_dataset(num_classes, per_class, dims, seed,
                      noise_std=0.06, amplitude_jitter=0.25, center_jitter=0.6):
    """``make_blob_dataset`` written with a [d, h, w, 3] coordinate grid whose
    squared distances to a blob centre are summed over the last axis."""
    rng = np.random.default_rng(seed)
    d, h, w = dims
    grid = np.stack(np.meshgrid(
        np.arange(d), np.arange(h), np.arange(w), indexing="ij"), axis=-1).astype(np.float64)
    margin = 0.2
    centers = rng.uniform(
        [margin * d, margin * h, margin * w],
        [(1 - margin) * d, (1 - margin) * h, (1 - margin) * w],
        size=(num_classes, dsm.BLOBS_PER_CLASS, 3))
    widths = rng.uniform(0.09, 0.14, size=(num_classes, dsm.BLOBS_PER_CLASS)) * min(dims)
    volumes, labels = [], []
    for c in range(num_classes):
        for _ in range(per_class):
            vol = np.zeros(dims)
            for b in range(dsm.BLOBS_PER_CLASS):
                amp = 1.0 + rng.uniform(-amplitude_jitter, amplitude_jitter)
                ctr = centers[c, b] + rng.normal(0.0, center_jitter, size=3)
                dist2 = ((grid - ctr) ** 2).sum(axis=-1)
                vol += amp * np.exp(-dist2 / (2.0 * widths[c, b] ** 2))
            vol += rng.normal(0.0, noise_std, size=dims)
            volumes.append(normalize_minmax(Volume(vol)))
            labels.append(c)
    return volumes, labels


class TestBlobFixture:
    @settings(max_examples=40, deadline=None)
    @given(dims=st.tuples(*[st.integers(4, 20)] * 3), num_classes=st.integers(1, 4),
           per_class=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           noise_std=st.floats(0.0, 0.5), amplitude_jitter=st.floats(0.0, 0.5),
           center_jitter=st.floats(0.0, 3.0))
    def test_equals_the_grid_formula_byte_for_byte(self, dims, num_classes, per_class, seed,
                                                   noise_std, amplitude_jitter,
                                                   center_jitter):
        knobs = dict(noise_std=noise_std, amplitude_jitter=amplitude_jitter,
                     center_jitter=center_jitter)
        ds = make_blob_dataset(num_classes, per_class, dims, seed, **knobs)
        volumes, labels = grid_blob_dataset(num_classes, per_class, dims, seed, **knobs)
        assert ds.labels.tolist() == labels
        for got, want in zip(ds.volumes, volumes, strict=True):
            assert got.data.dtype == want.data.dtype
            assert got.data.tobytes() == want.data.tobytes()

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
