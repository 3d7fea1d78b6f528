"""Experiment harness: config validation, splits, leak guards, aggregation, CLI."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volsynth import classifiers as clf
from volsynth import cli, cvae, harness, nn
from volsynth.cli import main as cli_main
from volsynth.datasets import REAL, SYNTHETIC, VolumeDataset, make_blob_dataset, \
    save_dataset
from volsynth.harness import ExperimentConfig, aggregate
from volsynth.volumes import Volume, apply_mask


def small_config(**overrides):
    base = dict(
        dataset={"kind": "blob", "num_classes": 3, "per_class": 9,
                 "dims": [8, 8, 8], "seed": 4},
        regime="real",
        classifier="svm",
        split={"kind": "kfold", "k": 3, "min_class_size": 3},
        repeats=1,
        seed=5,
        models={"svm": {"epochs": 60}, "gmm": {"num_components": 1},
                "dnn": {"channels": [3, 4], "epochs": 2, "batch_size": 4}},
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestConfigValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(harness.ConfigError, match="mystery"):
            ExperimentConfig.from_dict({"dataset": {"kind": "blob"}, "mystery": 1})

    def test_synth_count_requires_synth_regime(self):
        with pytest.raises(harness.ConfigError):
            small_config(synth_per_class=5)

    def test_synth_regime_requires_generator(self):
        with pytest.raises(harness.ConfigError):
            small_config(regime="real_synth", synth_per_class=5)

    def test_noise_invariants(self):
        with pytest.raises(harness.ConfigError):
            small_config(regime="real_noise", noise_variance=0.0, noise_per_class=3)
        with pytest.raises(harness.ConfigError):
            small_config(noise_variance=0.01)

    def test_valid_synth_config(self):
        config = small_config(regime="real_synth", generator="gmm", synth_per_class=4)
        assert config.generator == "gmm"

    # a set value for every regime field
    REGIME_FIELD_VALUES = {"generator": "gmm", "synth_per_class": 4, "noise_per_class": 3,
                           "noise_variance": 0.01}

    @pytest.mark.parametrize("regime", ["real", "real_noise", "real_synth"])
    @pytest.mark.parametrize("name", sorted(REGIME_FIELD_VALUES))
    def test_regime_sets_its_fields_and_leaves_the_others_unset(self, regime, name):
        """Per (regime, field) pair: a used field left at its unset value, or an
        unused one set, raises a ConfigError that names the field."""
        table = harness.REGIME_FIELDS
        assert {f for used in table.values() for f in used} == set(self.REGIME_FIELD_VALUES)
        used = table[regime]
        valid = {f: self.REGIME_FIELD_VALUES[f] for f in used}
        assert small_config(regime=regime, **valid).regime == regime
        change = {name: used[name] if name in used else self.REGIME_FIELD_VALUES[name]}
        with pytest.raises(harness.ConfigError, match=name):
            small_config(regime=regime, **{**valid, **change})

    # JSON values by kind, and the kinds that may stand for a default of each type
    JSON_VALUES = {"null": st.none(), "bool": st.booleans(), "int": st.integers(-3, 3),
                   "float": st.floats(-2, 2, allow_nan=False), "str": st.text(max_size=3),
                   "list": st.lists(st.integers(0, 3), max_size=2),
                   "names": st.lists(st.text(max_size=2), min_size=1, max_size=2),
                   "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)}
    FITS = {bool: {"bool"}, int: {"int"}, float: {"int", "float"}, str: {"str"},
            tuple: {"list"}, dict: {"object"}, type(None): {"null", "str"},
            list: {"null", "str", "list", "names"}}

    @staticmethod
    def every_field():
        """(block path, block, field, default) of each field of each block a sweep
        document holds: the document, each dataset and split kind, each models block."""
        doc_fields = {**nn.config_fields(ExperimentConfig), "regime": ["real"],
                      "generator": ["gmm"], "classifier": ["svm"], "output_dir": None}
        out = [((), {}, name, default) for name, default in doc_fields.items()]
        for key, table in (("dataset", harness.DATASET_FIELDS), ("split", harness.SPLIT_FIELDS)):
            for kind, spec in table.items():
                block = {"kind": kind, **{name: {int: 2, str: "m.csv"}[default]
                                          for name, default in spec.items()
                                          if isinstance(default, type)}}
                out += [((key,), block, name, default)
                        for name, default in {"kind": kind, **spec}.items()]
        for kind, cls in harness.MODEL_CONFIGS.items():
            out += [(("models", kind), {}, name, default)
                    for name, default in nn.config_fields(cls).items()]
        return out

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_wrong_typed_value_in_any_field_of_any_block_names_the_field(self, data):
        """Any JSON value whose type may not stand for a field's default, in any
        field of any block of a sweep document, raises ConfigError naming the
        field before any cell is built."""
        path, block, name, default = data.draw(st.sampled_from(self.every_field()))
        kind = default if isinstance(default, type) else type(default)
        value = data.draw(st.sampled_from(sorted(set(self.JSON_VALUES) - self.FITS[kind]))
                          .flatmap(self.JSON_VALUES.get))
        doc = {"dataset": {"kind": "blob"}, "regime": "real", "classifier": "svm"}
        target = doc
        for key in path:
            target = target.setdefault(key, {})
        target.update(block, **{name: value})
        with pytest.raises(harness.ConfigError) as info:
            cli._cell_configs(doc, False)
        assert name in str(info.value)

    def test_readme_example_document_passes_the_reader(self):
        """The JSON example under README's "Experiment config" is a valid sweep."""
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        section = readme[readme.index("### Experiment config"):]
        start = section.index("```json\n") + len("```json\n")
        example = section[start:section.index("\n```", start)]
        configs = cli._cell_configs(json.loads(example), False)
        assert len(configs) == 2 + 2 + 3 * 2


# the least value of each ranged field of a models block or a split, as README states them;
# a field that must be above 0 maps to 0, which it may not take
LEAST_VALUES = {"epochs": 1, "batch_size": 1, "max_iters": 1, "num_components": 1,
                "critic_iters": 1, "latent_dim": 1, "z_dim": 1, "k": 2,
                "train_per_class": 1, "val_per_class": 0, "test_per_class": 1, "seed": 0,
                "learning_rate": 0, "reg_c": 0}
ABOVE_ZERO = ("learning_rate", "reg_c")
# (models config class or split kind, field) of every field with a value rule
RANGED_FIELDS = [(cls, name) for cls in harness.MODEL_CONFIGS.values()
                 for name, default in nn.config_fields(cls).items()
                 if name in LEAST_VALUES or name == "dtype" or isinstance(default, tuple)]
RANGED_FIELDS += [("kfold", "k")] + [("fixed", name) for name in harness.SPLIT_FIELDS["fixed"]]


def builds(where, name, value):
    """Callables that make the config or block holding ``value`` in field ``name``: a
    models config class built directly and through ``nn.model_config``, or a split kind
    read through ``harness.read_kind_block``."""
    if isinstance(where, str):
        counts = {"train_per_class": 1, "test_per_class": 1} if where == "fixed" else {}
        block = {"kind": where, **counts, name: value}
        return [lambda: harness.read_kind_block("split", block, harness.SPLIT_FIELDS)]
    block = {name: list(value) if isinstance(value, tuple) else value}
    return [lambda: where(**{name: value}), lambda: nn.model_config(where, block)]


class TestValueRules:
    @pytest.mark.parametrize("where, name", RANGED_FIELDS,
                             ids=[f"{getattr(w, '__name__', w)}.{n}" for w, n in RANGED_FIELDS])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_a_ranged_field_takes_its_least_value_and_rejects_one_below(self, where, name,
                                                                         data):
        """The least allowed value of a ranged field builds; a value below it, an empty
        width list, one with an entry below 1 or a dtype that is no float raises
        ConfigError naming the field, in every way the config or block is built."""
        if name == "dtype":
            allowed = st.sampled_from(["float32", "float64"])
            below = st.text(max_size=8).filter(lambda s: s not in ("float32", "float64"))
        elif name not in LEAST_VALUES:
            allowed = st.just((1,)) | st.lists(st.integers(1, 9), min_size=1, max_size=3)
            below = st.just(()) | st.lists(st.integers(-2, 9), min_size=1, max_size=3).filter(
                lambda widths: min(widths) < 1)
            allowed, below = allowed.map(tuple), below.map(tuple)
        elif name in ABOVE_ZERO:
            allowed = st.floats(0, 1, exclude_min=True) | st.sampled_from([1, 5e-324])
            below = st.floats(-1e3, 0) | st.integers(-1000, 0)
        else:
            # the CVAE decoder's batchnorm needs two rows
            least = 2 if (where, name) == (cvae.CVAEConfig, "batch_size") else LEAST_VALUES[name]
            allowed = st.just(least)
            below = st.integers(least - 1000, least - 1)
        value = data.draw(allowed, label="allowed")
        for build in builds(where, name, value):
            config = build()
            assert (config[name] if isinstance(config, dict) else getattr(config, name)) == value
        value = data.draw(below, label="below")
        for build in builds(where, name, value):
            with pytest.raises(nn.ConfigError, match=name):
                build()


# The split code that ``_cells_for_split`` replaced, kept as the reference of the
# property below: ``datasets.split_by_class_size``, the ``fixed`` loop and the
# ``kfold`` split, which folded a ``subset`` copy and mapped its indices back. Each
# is copied verbatim, with the class-size constants written out and the bookkeeping
# that no cell reads (dropped classes, the k and class-size checks) left out.

def reference_split_by_class_size(dataset, seed):
    if len(dataset) == 0:
        raise ValueError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    train, validation, test = [], [], []
    for c in range(dataset.num_classes):
        members = dataset.class_indices(c)
        n = members.size
        if n == 0:
            continue
        if n < 30:
            continue
        r_train, r_val, r_test = (7, 1, 2) if n >= 100 else (3, 1, 2)
        total = r_train + r_val + r_test
        n_test = round(n * r_test / total)
        n_val = round(n * r_val / total)
        order = rng.permutation(members)
        test.extend(int(i) for i in order[:n_test])
        validation.extend(int(i) for i in order[n_test:n_test + n_val])
        train.extend(int(i) for i in order[n_test + n_val:])
    return train, validation, test


def reference_stratified_kfold(dataset, k, seed):
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    offset = 0
    for c in range(dataset.num_classes):
        members = dataset.class_indices(c)
        if members.size == 0:
            continue
        order = rng.permutation(members)
        for j, idx in enumerate(order):
            folds[(j + offset) % k].append(int(idx))
        offset = (offset + members.size) % k
    return [sorted(f) for f in folds]


def reference_carve_validation(dataset, back, trainval_local, rng):
    trainval = np.asarray([int(back[i]) for i in trainval_local])
    train, val = [], []
    labels = dataset.labels[trainval]
    for c in np.unique(labels):
        members = trainval[labels == c]
        r_train, r_val, _ = (7, 1, 2) if dataset.class_indices(c).size >= 100 else (3, 1, 2)
        n_val = int(round(members.size * (r_val / (r_train + r_val))))
        order = rng.permutation(members)
        val.extend(int(i) for i in order[:n_val])
        train.extend(int(i) for i in order[n_val:])
    return train, val


def reference_cells(dataset, split, rng_seed):
    kind = split["kind"]
    if kind == "ratio":
        return [reference_split_by_class_size(dataset, rng_seed)]
    if kind == "fixed":
        n_train = split["train_per_class"]
        n_val = split["val_per_class"]
        n_test = split["test_per_class"]
        rng = np.random.default_rng(rng_seed)
        train, val, test = [], [], []
        for c in range(dataset.num_classes):
            members = dataset.class_indices(c)
            if members.size < n_train + n_val + n_test:
                raise harness.ConfigError(
                    f"class {c} has {members.size} samples, fixed split needs "
                    f"{n_train + n_val + n_test}")
            order = rng.permutation(members)
            train.extend(int(i) for i in order[:n_train])
            val.extend(int(i) for i in order[n_train:n_train + n_val])
            test.extend(int(i) for i in order[n_train + n_val:n_train + n_val + n_test])
        return [(train, val, test)]
    k, min_size = split["k"], split["min_class_size"]
    sizes = [int(dataset.class_indices(c).size) for c in range(dataset.num_classes)]
    keep = [c for c, size in enumerate(sizes) if size >= max(min_size, k)]
    if not keep:
        raise harness.ConfigError(f"kfold split keeps no class: class sizes {sizes} are all "
                                  f"below max(min_class_size, k) = {max(min_size, k)}")
    kept_indices = [i for i in range(len(dataset)) if dataset.labels[i] in keep]
    sub = dataset.subset(kept_indices)
    folds = reference_stratified_kfold(sub, k, rng_seed)
    back = np.asarray(kept_indices)
    cells = []
    for f in range(k):
        test = [int(back[i]) for i in folds[f]]
        trainval_local = [i for g in range(k) if g != f for i in folds[g]]
        rng = np.random.default_rng(rng_seed + f + 1)
        train, val = reference_carve_validation(dataset, back, trainval_local, rng)
        cells.append((train, val, test))
    return cells


SPLIT_BLOCKS = st.one_of(
    st.just({"kind": "ratio"}),
    st.fixed_dictionaries({"kind": st.just("fixed"), "train_per_class": st.integers(1, 40),
                           "val_per_class": st.integers(0, 10),
                           "test_per_class": st.integers(1, 40)}),
    st.fixed_dictionaries({"kind": st.just("kfold"), "k": st.integers(2, 6),
                           "min_class_size": st.integers(0, 60)}))


class TestSplits:
    def test_kfold_cells_disjoint_and_stratified(self):
        ds = make_blob_dataset(3, 9, (8, 8, 8), seed=4)
        cells = harness._cells_for_split(ds, {"kind": "kfold", "k": 3,
                                              "min_class_size": 3}, rng_seed=0)
        assert len(cells) == 3
        for train, val, test in cells:
            assert not (set(train) & set(test))
            assert not (set(val) & set(test))
            assert not (set(train) & set(val))
            # every class appears in test with balanced counts
            labels = ds.labels[test]
            counts = [int((labels == c).sum()) for c in range(3)]
            assert max(counts) - min(counts) <= 1

    def test_fixed_split_counts(self):
        ds = make_blob_dataset(2, 12, (8, 8, 8), seed=1)
        cells = harness._cells_for_split(
            ds, {"kind": "fixed", "train_per_class": 6, "val_per_class": 2,
                 "test_per_class": 4}, rng_seed=0)
        train, val, test = cells[0]
        assert len(train) == 12 and len(val) == 4 and len(test) == 8

    def test_ratio_split_mode(self):
        ds = make_blob_dataset(1, 100, (8, 8, 8), seed=2)
        cells = harness._cells_for_split(ds, {"kind": "ratio"}, rng_seed=0)
        train, val, test = cells[0]
        assert (len(train), len(val), len(test)) == (70, 10, 20)

    def test_kfold_validation_share_follows_the_class_size_ratios(self):
        """Default kfold drops a class under 30 samples and carves validation as
        1/8 (7:1 of 7:1:2) of a 100+ class's train+validation members, 1/4 (3:1
        of 3:1:2) of a 30..99 class's."""
        blob = make_blob_dataset(3, 110, (4, 4, 4), seed=6)
        sizes = (110, 50, 20)
        ds = blob.subset([int(i) for c, n in enumerate(sizes) for i in blob.class_indices(c)[:n]])
        cells = harness._cells_for_split(ds, {"kind": "kfold"}, rng_seed=2)
        assert len(cells) == 3
        for train, val, test in cells:
            assert 2 not in ds.labels[train + val + test]
            for c, divisor in ((0, 8), (1, 4)):
                n_val = int((ds.labels[val] == c).sum())
                members = n_val + int((ds.labels[train] == c).sum())
                assert n_val == round(members / divisor) > 0

    @given(sizes=st.lists(st.integers(0, 159), min_size=1, max_size=4),
           order_seed=st.integers(0, 2 ** 32 - 1), split=SPLIT_BLOCKS,
           rng_seed=st.integers(0, 2 ** 32 - 1))
    @example(sizes=[29, 0], order_seed=0, split={"kind": "ratio"}, rng_seed=0)
    @example(sizes=[100, 35, 0], order_seed=1, split={"kind": "ratio"}, rng_seed=3)
    @example(sizes=[110, 50, 20], order_seed=2,
             split={"kind": "kfold", "k": 3, "min_class_size": 30}, rng_seed=2)
    @settings(max_examples=400, deadline=None)
    def test_cells_match_the_reference_and_parts_are_disjoint(self, sizes, order_seed,
                                                              split, rng_seed):
        """Every kind's cells hold the reference's index lists in its order, with
        train, validation and test disjoint. The one intended difference: a ratio
        split that keeps no class is a ConfigError, not three empty parts."""
        # class members interleaved in a drawn order, so a class's indices are not a run
        labels = np.random.default_rng(order_seed).permutation(
            np.repeat(np.arange(len(sizes)), sizes))
        volume = Volume(np.zeros((1, 1, 1), dtype=np.float32))
        ds = VolumeDataset([volume] * len(labels), labels,
                           [f"c{c}" for c in range(len(sizes))])
        try:
            expected = reference_cells(ds, split, rng_seed)
        except ValueError as exc:
            expected = exc
        if split["kind"] == "ratio" and (isinstance(expected, Exception)
                                         or not any(expected[0])):
            # the reference refused only an empty dataset, and kept no class silently
            expected = harness.ConfigError(
                f"ratio split keeps no class: class sizes {sizes} are all below 30")
        if isinstance(expected, Exception):
            with pytest.raises(harness.ConfigError) as caught:
                harness._cells_for_split(ds, split, rng_seed)
            assert str(caught.value) == str(expected)
            return
        cells = harness._cells_for_split(ds, split, rng_seed)
        assert [tuple(cell) for cell in cells] == expected
        for cell in cells:
            train, val, test = map(set, cell)
            assert sum(map(len, cell)) == len(train | val | test)


class TestAggregate:
    def make_report(self, accuracy):
        return clf.MetricsReport(accuracy=accuracy, macro_f1=accuracy,
                                 precision=accuracy, recall=accuracy,
                                 confusion=np.eye(2, dtype=int),
                                 per_class_f1=np.ones(2))

    def test_identical_runs_zero_variance(self):
        entries = {(f, r): self.make_report(0.75) for f in range(3) for r in range(2)}
        agg = aggregate(entries)
        assert agg["mean"]["accuracy"] == 0.75
        assert agg["variance"]["accuracy"] == 0.0

    def test_hand_computed_fold_variance(self):
        reports = {(i, 0): self.make_report(a) for i, a in enumerate((0.8, 0.9, 1.0))}
        agg = aggregate(reports)
        assert agg["mean"]["accuracy"] == pytest.approx(0.9, abs=1e-12)
        assert agg["variance"]["accuracy"] == pytest.approx(0.02 / 3, abs=1e-12)

    def test_single_run_aggregate_is_that_run(self):
        agg = aggregate({(0, 0): self.make_report(0.6)})
        assert agg["mean"]["accuracy"] == 0.6
        assert agg["variance"]["accuracy"] == 0.0

    def test_mean_is_arithmetic_mean_of_entries(self):
        entries = {(0, 0): self.make_report(0.5), (0, 1): self.make_report(0.7),
                   (1, 0): self.make_report(0.9), (1, 1): self.make_report(0.9)}
        agg = aggregate(entries)
        assert agg["mean"]["accuracy"] == pytest.approx((0.5 + 0.7 + 0.9 + 0.9) / 4,
                                                        abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate({})


class TestRunRegime:
    def test_real_regime_produces_full_grid(self):
        report = harness.run_regime(small_config(repeats=2))
        assert len(report.entries) == 6      # 3 folds x 2 repeats
        agg = report.aggregate()
        assert 0.0 <= agg["mean"]["accuracy"] <= 1.0

    def test_synthetic_never_reaches_test(self):
        config = small_config(regime="real_synth", generator="gmm", synth_per_class=3)
        dataset = harness.load_config_dataset(config.dataset)
        report = harness.run_regime(config, dataset=dataset)
        # the leak guard asserts inside run_regime; reaching here means it held
        assert len(report.entries) == 3
        assert all(p == REAL for p in dataset.provenance)

    @pytest.mark.parametrize("per_class", [100, 20, 4])
    def test_augment_counts(self, per_class):
        """Training set grows by synth_per_class volumes for every class."""
        config = small_config(regime="real_synth", generator="gmm",
                              synth_per_class=per_class)
        dataset = harness.load_config_dataset(config.dataset)
        mask = harness.compute_mask(dataset.volumes)
        trained = harness.GENERATORS["gmm"].fit(dataset, list(range(len(dataset))),
                                                config.models, 3, mask)
        aug = harness._augment(config, dataset, list(range(len(dataset))), trained,
                               synth_seed=1, noise_seed=2)
        assert len(aug) == len(dataset) + per_class * dataset.num_classes
        synth = [p for p in aug.provenance if p == SYNTHETIC]
        assert len(synth) == per_class * dataset.num_classes

    def test_noise_regime_counts(self):
        config = small_config(regime="real_noise", noise_variance=0.01,
                              noise_per_class=2)
        dataset = harness.load_config_dataset(config.dataset)
        aug = harness._augment(config, dataset, list(range(len(dataset))), None,
                               synth_seed=1, noise_seed=2)
        assert len(aug) == len(dataset) + 2 * dataset.num_classes

    @pytest.mark.parametrize("generator", ["cvae", "icwgan"])
    def test_neural_generators_wire_through_harness(self, generator):
        config = small_config(
            regime="real_synth", generator=generator, synth_per_class=2,
            repeats=1,
            split={"kind": "fixed", "train_per_class": 6, "val_per_class": 0,
                   "test_per_class": 3},
            models={
                "svm": {"epochs": 40},
                "cvae": {"latent_dim": 3, "enc_channels": [3, 4],
                         "dec_channels": [4, 3], "batch_size": 4, "epochs": 2},
                "icwgan": {"z_dim": 3, "gen_channels": [3, 2],
                           "disc_channels": [2, 3], "batch_size": 4,
                           "critic_iters": 2, "epochs": 2},
            })
        report = harness.run_regime(config)
        assert len(report.entries) == 1
        agg = report.aggregate()
        assert 0.0 <= agg["mean"]["accuracy"] <= 1.0

    def test_single_model_mode_trains_one_generator(self, monkeypatch):
        calls = []
        original = harness.GENERATORS["gmm"]

        def counting(*args, **kwargs):
            calls.append(1)
            return original.fit(*args, **kwargs)

        monkeypatch.setitem(harness.GENERATORS, "gmm", original._replace(fit=counting))
        config = small_config(regime="real_synth", generator="gmm",
                              synth_per_class=2, single_model=True)
        report = harness.run_regime(config)
        assert len(calls) == 1           # one fit reused across all 3 folds
        assert len(report.entries) == 3

    def test_leak_guards_raise_under_optimize(self):
        """The guards are raised errors, so ``python -O`` keeps them."""
        script = textwrap.dedent("""
            import sys
            from volsynth import harness
            from volsynth.datasets import SYNTHETIC, make_blob_dataset
            assert sys.flags.optimize == 1
            config = harness.ExperimentConfig.from_dict({
                "dataset": {"kind": "blob", "num_classes": 2, "per_class": 4,
                            "dims": [8, 8, 8], "seed": 0},
                "classifier": "svm", "repeats": 1})
            dataset = harness.load_config_dataset(config.dataset)
            harness._cells_for_split = lambda *args: [([0, 1, 4, 5], [2, 6], [2, 3, 7])]
            try:
                harness.run_regime(config, dataset=dataset)
            except harness.LeakError as exc:
                print(exc)
            leaky = dataset.extended([dataset.volumes[0]], [0], SYNTHETIC)
            try:
                harness.run_unit(leaky, harness.Unit(config, 0, 0, [0], [], [8], [0] * 4, None))
            except harness.LeakError as exc:
                print(exc)
        """)
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["val/test overlap in fold 0",
                                              "synthetic data leaked into test"]

    def test_run_report_roundtrips_through_json(self, tmp_path):
        report = harness.run_regime(small_config())
        path = tmp_path / "run.json"
        harness.write_run_json(report, path)
        stored = harness.load_run_json(path)
        # stored aggregates recompute exactly from stored entries
        accs = [row["accuracy"] for row in stored["entries"]]
        assert stored["aggregate"]["mean"]["accuracy"] == pytest.approx(
            float(np.mean(accs)), abs=0)


def model_state(kind, model):
    """A fitted generator's parameters as {name: bytes}."""
    if kind == "gmm":
        return {f"{c}.{name}": getattr(p, name).tobytes() for c, p in model.per_class.items()
                for name in ("weights", "means", "variances")}
    return {name: array.tobytes() for name, array in nn.state_arrays(model).items()}


class TestGeneratorFit:
    MODELS = {"gmm": {"num_components": 2},
              "cvae": {"latent_dim": 3, "enc_channels": [3, 4], "dec_channels": [4, 3],
                       "batch_size": 4, "epochs": 2},
              "icwgan": {"z_dim": 3, "gen_channels": [3, 2], "disc_channels": [2, 3],
                         "batch_size": 4, "critic_iters": 2, "epochs": 2}}

    @pytest.mark.parametrize("kind", sorted(harness.GENERATORS))
    def test_a_fit_reads_only_its_training_volumes(self, kind, rng):
        """Every volume outside ``idx`` replaced by another in-range volume: the
        fitted parameters keep their bytes."""
        dataset = make_blob_dataset(2, 6, (8, 8, 8), seed=2)
        idx = [0, 2, 3, 5, 7, 8, 10, 11]
        mask = harness.compute_mask([dataset.volumes[i] for i in idx])
        volumes = [v if i in idx else Volume(rng.uniform(0.0, 1.0, v.dims))
                   for i, v in enumerate(dataset.volumes)]
        changed = VolumeDataset(volumes, dataset.labels, dataset.class_table)
        assert all(not np.array_equal(a.data, b.data) for i, (a, b)
                   in enumerate(zip(dataset.volumes, volumes)) if i not in idx)
        fit = harness.GENERATORS[kind].fit
        states = [model_state(kind, fit(ds, idx, self.MODELS, 3, mask))
                  for ds in (dataset, changed)]
        assert states[0] and states[0] == states[1]


class TestClassifierTable:
    def test_every_models_block_is_one_generator_or_one_classifier(self):
        assert not set(harness.GENERATORS) & set(harness.CLASSIFIERS)
        assert set(harness.MODEL_CONFIGS) == set(harness.GENERATORS) | set(harness.CLASSIFIERS)

    def test_classifier_kinds_are_the_tables_in_report_order(self):
        # report.csv lists a cell's SVM row before its DNN row
        assert harness.CLASSIFIER_KINDS == tuple(harness.CLASSIFIERS) == ("svm", "dnn")

    def test_train_clf_offers_every_classifier_kind(self):
        subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
        [kind] = [a for a in subparsers.choices["train-clf"]._actions if a.dest == "kind"]
        assert tuple(kind.choices) == harness.CLASSIFIER_KINDS


class TestBlobBenchmark:
    def test_unknown_override_raises_type_error(self):
        with pytest.raises(TypeError, match="train_per_clas"):
            harness.blob_benchmark(0, train_per_clas=10)

    @pytest.mark.parametrize("shift", [0, 1])
    def test_consistency_is_the_oracle_share_of_a_stub_generators_samples(
            self, monkeypatch, shift):
        """A stub generator whose class-c samples are the real training volumes
        of class c + shift: the consistency must be the share that a linear SVM
        on the same masked features gives class c."""
        fitted = []

        def fit(dataset, idx, models, seed, mask):
            fitted.append(dataset.subset(idx))
            return fitted[-1]

        def sample(train, c, count, seed):
            members = train.class_indices((c + shift) % train.num_classes)
            return [train.volumes[i] for i in np.resize(members, count)]

        stub = harness.GeneratorKind(fit=fit, sample=sample, load=None)
        monkeypatch.setattr(harness, "GENERATORS", dict.fromkeys(harness.GENERATOR_KINDS, stub))
        profiles = {"gmm": {}, "cvae": {}, "icwgan": {},
                    "dnn": {"channels": (3, 4), "epochs": 1, "batch_size": 10},
                    "svm": {"reg_c": 1.0, "epochs": 3}}
        result = harness.blob_benchmark(5, profiles=profiles, num_classes=3, dims=(8, 8, 8),
                                        train_per_class=8, test_per_class=4)

        train = fitted[-1]
        mask = harness.compute_mask(train.volumes, strategy="nonconstant")
        features = lambda vols: np.asarray([apply_mask(v, mask) for v in vols])  # noqa: E731
        oracle = clf.train_svm(features(train.volumes), train.labels, reg_c=1.0, epochs=3)
        hits = sum(int((oracle.predict(features(sample(train, c, 50, 0))) == c).sum())
                   for c in range(3))
        assert result["cvae_consistency"] == result["gan_consistency"] == hits / 150


ABSENT = object()   # a sweep document key left out


def one_or_many(values):
    """A sweep document's regime, generator or classifier value: absent, null,
    one name, or a list of names."""
    return st.one_of(st.just(ABSENT), st.none(), st.sampled_from(values),
                     st.lists(st.sampled_from(values), max_size=3))


def as_list(value, default):
    """The names a drawn ``one_or_many`` value stands for."""
    if value is ABSENT:
        return default
    return [value] if value is None or isinstance(value, str) else value


class TestCLI:
    def run_cli(self, *argv):
        return cli_main(list(argv))

    def test_synth_data_writes_fixture(self, tmp_path):
        out = tmp_path / "data"
        code = self.run_cli("synth-data", "--classes", "4", "--per-class", "30",
                            "--dims", "16,16,16", "--seed", "7", "--out", str(out))
        assert code == 0
        vvols = list(out.glob("*.vvol"))
        assert len(vvols) == 120
        assert (out / "manifest.csv").exists()
        assert (out / "classes.txt").exists()

    def test_convert_npy(self, tmp_path, rng):
        src = tmp_path / "vol.npy"
        np.save(src, rng.uniform(size=(4, 5, 6)).astype(np.float32))
        out = tmp_path / "vol.vvol"
        assert self.run_cli("convert", "--input", str(src), "--out", str(out)) == 0
        from volsynth.volumes import read_volume
        assert read_volume(out).dims == (4, 5, 6)

    def test_unknown_subcommand_exits_2(self, capsys):
        assert self.run_cli("frobnicate") == 2

    def test_missing_file_exits_1(self, tmp_path):
        code = self.run_cli("train-gmm", "--manifest", str(tmp_path / "nope.csv"),
                            "--out", str(tmp_path / "x.ckpt"))
        assert code == 1

    def test_unknown_model_config_field_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert self.run_cli("synth-data", "--classes", "2", "--per-class", "3",
                            "--dims", "4,4,4", "--out", str(data)) == 0
        cfg = tmp_path / "gan.json"
        cfg.write_text(json.dumps({"z_dim": 3, "bogus": 1}))
        code = self.run_cli("train-gan", "--manifest", str(data / "manifest.csv"),
                            "--config", str(cfg), "--out", str(tmp_path / "gan.ckpt"))
        assert code == 1
        assert "unknown GANConfig fields: ['bogus']" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config, message", [
        ("train-cvae", {"epochs": "2"}, "error: epochs must be an integer, got '2'"),
        ("train-gan", [1], "error: GANConfig must be a JSON object, got [1]"),
        ("augment-eval", [1], "error: config must be a JSON object, got [1]"),
        ("train-cvae", {"epochs": 0}, "error: epochs must be >= 1, got 0"),
        ("train-cvae", {"enc_channels": []},
         "error: enc_channels must be a non-empty list of integers >= 1, got []"),
        ("train-gan", {"dtype": "int8"},
         "error: dtype must be in ('float32', 'float64'), got 'int8'"),
        ("train-gan", {"learning_rate": -0.01}, "error: learning_rate must be > 0, got -0.01"),
        # a model's seed is --seed, never the block's
        ("train-cvae", {"seed": 5}, "error: cvae blocks may not set seed"),
        ("train-gan", {"seed": 5}, "error: icwgan blocks may not set seed"),
        ("train-clf", {"seed": 5}, "error: dnn blocks may not set seed"),
    ])
    def test_a_config_that_is_no_object_or_holds_a_wrong_type_exits_1(
            self, tmp_path, capsys, command, config, message):
        data = tmp_path / "data"
        assert self.run_cli("synth-data", "--classes", "2", "--per-class", "3",
                            "--dims", "4,4,4", "--out", str(data)) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        manifest = [] if command == "augment-eval" else ["--manifest", str(data / "manifest.csv")]
        assert self.run_cli(command, *manifest, "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_train_cvae_with_one_config_draws_its_model_from_the_seed_flag(self, tmp_path):
        """The same --config block and two --seed values give two different checkpoints."""
        data = tmp_path / "data"
        assert self.run_cli("synth-data", "--classes", "2", "--per-class", "4",
                            "--dims", "8,8,8", "--out", str(data)) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_BLOCKS["cvae"]))
        written = []
        for seed in ("1", "2"):
            out = tmp_path / f"cvae{seed}.ckpt"
            assert self.run_cli("train-cvae", "--manifest", str(data / "manifest.csv"),
                                "--config", str(cfg), "--seed", seed, "--out", str(out)) == 0
            written.append(out.read_bytes())
        assert written[0] != written[1]

    def test_train_cvae_on_one_volume_exits_1_without_a_checkpoint(self, tmp_path, capsys):
        """One volume makes no batch of two, so no step could be taken."""
        data = tmp_path / "data"
        assert self.run_cli("synth-data", "--classes", "1", "--per-class", "1",
                            "--dims", "8,8,8", "--out", str(data)) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_BLOCKS["cvae"]))
        out = tmp_path / "cvae.ckpt"
        capsys.readouterr()
        assert self.run_cli("train-cvae", "--manifest", str(data / "manifest.csv"),
                            "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CVAE training needs at least 2 volumes")
        assert not out.exists()

    def test_train_gmm_whose_mask_keeps_no_voxel_exits_1_without_a_checkpoint(
            self, tmp_path, capsys):
        """One volume varies in no voxel, so the nonconstant mask keeps none."""
        data = tmp_path / "data"
        assert self.run_cli("synth-data", "--classes", "1", "--per-class", "1",
                            "--dims", "8,8,8", "--out", str(data)) == 0
        out = tmp_path / "gmm.ckpt"
        capsys.readouterr()
        assert self.run_cli("train-gmm", "--manifest", str(data / "manifest.csv"),
                            "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: GMM training needs at least one feature; the mask keeps no voxel\n")
        assert not out.exists()

    def test_train_svm_whose_mask_keeps_no_voxel_exits_1_without_a_checkpoint(
            self, tmp_path, capsys):
        """Two classes of one identical volume vary in no voxel."""
        volume = make_blob_dataset(1, 1, (8, 8, 8), seed=0).volumes[0]
        data = tmp_path / "data"
        save_dataset(VolumeDataset([volume.copy() for _ in range(4)], [0, 0, 1, 1],
                                   ["a", "b"]), str(data))
        out = tmp_path / "svm.ckpt"
        capsys.readouterr()
        assert self.run_cli("train-clf", "--kind", "svm", "--manifest",
                            str(data / "manifest.csv"), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: SVM training needs at least one feature; the mask keeps no voxel\n")
        assert not out.exists()

    def test_augment_eval_and_report_deterministic(self, tmp_path):
        config = {
            "dataset": {"kind": "blob", "num_classes": 3, "per_class": 9,
                        "dims": [8, 8, 8], "seed": 4},
            "regime": ["real", "real_noise", "real_synth"],
            "generator": ["gmm"],
            "classifier": ["svm"],
            "synth_per_class": 3,
            "noise_per_class": 2,
            "noise_variance": 0.01,
            "split": {"kind": "kfold", "k": 3, "min_class_size": 3},
            "repeats": 1,
            "seed": 5,
            "models": {"svm": {"epochs": 60}, "gmm": {"num_components": 1}},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out1 = tmp_path / "runs1"
        out2 = tmp_path / "runs2"
        assert self.run_cli("augment-eval", "--config", str(cfg_path),
                            "--out", str(out1)) == 0
        assert self.run_cli("augment-eval", "--config", str(cfg_path),
                            "--out", str(out2)) == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        for name in names:
            with open(out1 / name, "rb") as fa, open(out2 / name, "rb") as fb:
                assert fa.read() == fb.read(), name

        header = open(out1 / "report.csv").readline().strip()
        assert header == "input,gen_model,classifier,accuracy,macro_f1,precision,recall"
        rows = open(out1 / "report.csv").read().strip().split("\n")
        assert len(rows) == 4      # header + Real + Real+noise + Real+Synth
        assert rows[1].startswith("Real,-,SVM,")
        assert rows[2].startswith("Real+noise,-,SVM,")
        assert rows[3].startswith("Real+Synth.,GMM,SVM,")

        variance = open(out1 / "variance.csv").read().strip().split("\n")
        assert variance[0] == header
        # run_real_noise_* sorts before run_real_none_*: report must not
        # take the file-name order
        tables = {n: (out1 / n).read_bytes() for n in ("report.csv", "variance.csv")}
        assert self.run_cli("report", "--runs", str(out1)) == 0
        for name, before in tables.items():
            assert (out1 / name).read_bytes() == before, name

    @pytest.mark.parametrize("command", ["train-clf", "augment-eval"])
    def test_a_config_file_that_is_not_json_exits_1_naming_it(self, tmp_path, capsys,
                                                               command):
        data = tmp_path / "data"
        assert self.run_cli("synth-data", "--classes", "2", "--per-class", "3",
                            "--dims", "4,4,4", "--out", str(data)) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{epochs: 2}")
        out = tmp_path / "out"
        manifest = [] if command == "augment-eval" else ["--manifest", str(data / "manifest.csv")]
        capsys.readouterr()
        assert self.run_cli(command, *manifest, "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg} is not valid JSON: Expecting property name enclosed in double "
            f"quotes: line 1 column 2 (char 1)\n")
        assert not out.exists()

    STORED_RUN = {"regime": "real", "generator": None, "classifier": "svm", "entries": [],
                  "aggregate": {"mean": dict.fromkeys(harness.METRIC_NAMES, 0.5),
                                "variance": dict.fromkeys(harness.METRIC_NAMES, 0.0)}}

    @pytest.mark.parametrize("text, message", [
        ("{regime: 1}", "is not valid JSON: Expecting property name"),
        (json.dumps({k: v for k, v in STORED_RUN.items() if k != "aggregate"}),
         "is not a stored run: aggregate must be a JSON object, got None"),
        (json.dumps(dict(STORED_RUN, regime="weird")),
         "is not a stored run: regime must be one of ('real', 'real_noise', 'real_synth'), "
         "got 'weird'"),
        (json.dumps([STORED_RUN]),
         "is not a stored run: a run is a JSON object with a 'regime' field"),
        (json.dumps(dict(STORED_RUN, aggregate={"mean": STORED_RUN["aggregate"]["mean"]})),
         "is not a stored run: aggregate requires 'variance'"),
    ], ids=["not-json", "no-aggregate", "unknown-regime", "json-list", "mean-only"])
    def test_report_on_a_malformed_run_exits_1_and_writes_neither_table(
            self, tmp_path, capsys, text, message):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "run_a.json").write_text(json.dumps(self.STORED_RUN))
        bad = runs / "run_b.json"
        bad.write_text(text)
        assert self.run_cli("report", "--runs", str(runs)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} {message}") and "Traceback" not in err
        assert sorted(os.listdir(runs)) == ["run_a.json", "run_b.json"]

    @pytest.mark.parametrize("change, message", [
        ({"models": {"icwgan": {"bogus": 1}}}, "unknown GANConfig fields: ['bogus']"),
        ({"models": {"svm": {"C": 2.0}}}, "unknown SVMConfig fields: ['C']"),
        ({"models": {"gan": {"epochs": 1}}}, "unknown models block 'gan'"),
        ({"generator": ["gmm", "gan"]}, "real_synth requires a generator"),
        ({"models": {"cvae": {"reconstruction": "gaussian_mse"}}},
         "unknown CVAEConfig fields: ['reconstruction']"),
        ({"models": {"dnn": {"leaky_alpha": 0.1}}}, "unknown DNNConfig fields: ['leaky_alpha']"),
        ({"models": {"gmm": {"tol": 1e-4}}}, "unknown EMConfig fields: ['tol']"),
        ({"models": {"svm": {"epochs": "20"}}}, "error: epochs must be an integer, got '20'"),
        ({"models": {"dnn": {"channels": 4}}},
         "error: channels must be a list of integers, got 4"),
        ({"models": {"svm": 3}}, "error: SVMConfig must be a JSON object, got 3"),
    ])
    def test_augment_eval_checks_every_cell_before_training(self, tmp_path, capsys,
                                                            change, message):
        config = {
            "dataset": {"kind": "blob", "num_classes": 2, "per_class": 6,
                        "dims": [8, 8, 8], "seed": 4},
            "regime": ["real", "real_synth"],
            "generator": ["gmm", "icwgan"],
            "classifier": "svm",
            "synth_per_class": 2,
            "split": {"kind": "kfold", "k": 2, "min_class_size": 2},
            "repeats": 1,
            "models": {"svm": {"epochs": 20}, "gmm": {"num_components": 1},
                       "icwgan": TINY_BLOCKS["icwgan"]},
        }
        config.update(change, models={**config["models"], **change.get("models", {})})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        out.mkdir()
        assert self.run_cli("augment-eval", "--config", str(cfg_path), "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("change, message", [
        ({"split": {"kind": "kfold", "folds": 5}}, "unknown kfold split fields: ['folds']"),
        ({"split": {"kind": "fixed", "train_per_class": 2, "test_per_class": 2,
                    "val_per_clas": 1}}, "unknown fixed split fields: ['val_per_clas']"),
        ({"split": {"kind": "loo"}}, "unknown split kind 'loo'"),
        ({"dataset": {"kind": "blob", "num_classes": 2, "per_class": 6, "per_clas": 99}},
         "unknown blob dataset fields: ['per_clas']"),
        ({"dataset": {"kind": "manifest", "path": "m.csv", "seed": 1}},
         "unknown manifest dataset fields: ['seed']"),
        ({"dataset": {"kind": "npy"}}, "unknown dataset kind 'npy'"),
    ])
    def test_augment_eval_rejects_unknown_split_and_dataset_fields(self, tmp_path, capsys,
                                                                  change, message):
        self.test_augment_eval_checks_every_cell_before_training(tmp_path, capsys,
                                                                 change, message)

    @pytest.mark.parametrize("split, message", [
        ({"kind": "fixed", "train_per_class": 3}, "fixed split requires 'test_per_class'"),
        ({"kind": "kfold", "k": 0}, "k must be >= 2, got 0"),
    ])
    def test_augment_eval_rejects_incomplete_split_before_making_out(self, tmp_path, capsys,
                                                                     split, message):
        config = {"dataset": {"kind": "blob", "num_classes": 2, "per_class": 6,
                              "dims": [8, 8, 8], "seed": 4},
                  "classifier": "svm", "split": split, "repeats": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        assert self.run_cli("augment-eval", "--config", str(cfg_path), "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"repeats": "2"}, "repeats must be an integer, got '2'"),
        ({"repeats": 1.5}, "repeats must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"regime": "real_synth", "generator": "gmm", "synth_per_class": "4"},
         "synth_per_class must be an integer, got '4'"),
        ({"regime": "real_noise", "noise_per_class": "2", "noise_variance": 0.01},
         "noise_per_class must be an integer, got '2'"),
        ({"regime": "real_noise", "noise_per_class": 2, "noise_variance": "0.01"},
         "noise_variance must be a number, got '0.01'"),
        ({"split": {"kind": "kfold", "k": "3"}}, "k must be an integer, got '3'"),
        ({"split": {"kind": "kfold", "min_class_size": 2.0}},
         "min_class_size must be an integer, got 2.0"),
        ({"split": {"kind": "fixed", "train_per_class": "3", "test_per_class": 2}},
         "train_per_class must be an integer, got '3'"),
        ({"split": {"kind": "fixed", "train_per_class": 3, "val_per_class": None,
                    "test_per_class": 2}}, "val_per_class must be an integer, got None"),
        ({"split": {"kind": "fixed", "train_per_class": 3, "test_per_class": [2]}},
         "test_per_class must be an integer, got [2]"),
        ({"dataset": {"kind": "blob", "num_classes": 2, "per_class": "6"}},
         "per_class must be an integer, got '6'"),
        ({"single_model": "false"}, "error: single_model must be true or false, got 'false'"),
        ({"dataset": "blob"}, "error: dataset must be a JSON object, got 'blob'"),
        ({"split": 3}, "error: split must be a JSON object, got 3"),
        ({"output_dir": 5}, "error: output_dir must be a string or null, got 5"),
        # errors found while loading the data and planning the units
        ({"regime": "real", "dataset": {"kind": "manifest", "path": "no/such/manifest.csv"}},
         "error: [Errno 2] No such file or directory: 'no/such/manifest.csv'"),
        ({"regime": "real", "dataset": {"kind": "blob", "dims": [2, 2, 2]}},
         "error: need num_classes, per_class >= 1 and 3 dims >= 4, got 4, 30, [2, 2, 2]"),
        ({"regime": "real", "dataset": {"kind": "blob", "dims": [8, 8]}},
         "error: need num_classes, per_class >= 1 and 3 dims >= 4, got 4, 30, [8, 8]"),
        ({"regime": "real", "split": {"kind": "fixed", "train_per_class": 5, "test_per_class": 5}},
         "error: class 0 has 6 samples, fixed split needs 10"),
        ({"regime": "real", "split": {"kind": "kfold", "k": 2}},
         "error: kfold split keeps no class: class sizes [6, 6] are all below "
         "max(min_class_size, k) = 30"),
        ({"regime": "real", "split": {"kind": "kfold", "k": 50, "min_class_size": 2}},
         "error: kfold split keeps no class: class sizes [6, 6] are all below "
         "max(min_class_size, k) = 50"),
        ({"regime": "real", "classifier": "dnn",
          "split": {"kind": "kfold", "k": 2, "min_class_size": 2}},
         "error: dims (8, 8, 8) collapse below 1 within 4 conv layers"),
        ({"regime": "real_synth", "generator": "cvae", "synth_per_class": 2,
          "split": {"kind": "kfold", "k": 2, "min_class_size": 2}},
         "error: dims (8, 8, 8) collapse below 1 within 4 conv layers"),
        ({"regime": "real_synth", "generator": "icwgan", "synth_per_class": 2,
          "split": {"kind": "kfold", "k": 2, "min_class_size": 2}},
         "error: dims (8, 8, 8) collapse below 1 within 4 conv layers"),
        # range checks of the model blocks, which every cell builds
        ({"models": {"dnn": {"batch_size": 0}}},
         "error: batch_size must be >= 1, got 0"),
        ({"models": {"dnn": {"epochs": 0}}},
         "error: epochs must be >= 1, got 0"),
        ({"models": {"dnn": {"channels": []}}},
         "error: channels must be a non-empty list of integers >= 1, got []"),
        ({"models": {"dnn": {"channels": [4, 0]}}},
         "error: channels must be a non-empty list of integers >= 1, got [4, 0]"),
        ({"models": {"dnn": {"dtype": "int8"}}},
         "error: dtype must be in ('float32', 'float64'), got 'int8'"),
        ({"models": {"svm": {"reg_c": 0}}},
         "error: reg_c must be > 0, got 0"),
        ({"models": {"svm": {"epochs": 0}}},
         "error: epochs must be >= 1, got 0"),
        ({"regime": "real_synth", "generator": "gmm", "synth_per_class": 2,
          "split": {"kind": "kfold", "k": 2, "min_class_size": 2},
          "models": {"gmm": {"max_iters": 0}}}, "error: max_iters must be >= 1, got 0"),
        ({"regime": "real_synth", "generator": "gmm", "synth_per_class": 2,
          "split": {"kind": "kfold", "k": 2, "min_class_size": 2},
          "models": {"gmm": {"seed": -1}}}, "error: gmm blocks may not set seed"),
        ({"regime": "real", "split": {"kind": "fixed", "train_per_class": 3,
                                      "test_per_class": 0}},
         "error: test_per_class must be >= 1, got 0"),
        ({"regime": "real", "split": {"kind": "fixed", "train_per_class": 2,
                                      "val_per_class": -1, "test_per_class": 2}},
         "error: val_per_class must be >= 0, got -1"),
        # a unit's model seeds come from the document's seed, its fold and its repeat
        *[({"regime": "real_synth", "generator": kind, "synth_per_class": 2,
            "models": {kind: {"seed": 3}}}, f"error: {kind} blocks may not set seed")
          for kind in ("gmm", "cvae", "icwgan")],
        ({"classifier": "dnn", "models": {"dnn": {"seed": 3}}},
         "error: dnn blocks may not set seed"),
        # every class is under the ratio split's 30 samples
        ({"regime": "real", "split": {"kind": "ratio"}},
         "error: ratio split keeps no class: class sizes [6, 6] are all below 30"),
        # a repeated cell would run twice but write one run file
        ({"regime": ["real", "real_noise", "real"]},
         "error: regime may not repeat a name, got ['real', 'real_noise', 'real']"),
        ({"regime": "real_synth", "generator": ["gmm", "gmm"], "synth_per_class": 2},
         "error: generator may not repeat a name, got ['gmm', 'gmm']"),
        ({"classifier": ["svm", "svm"]},
         "error: classifier may not repeat a name, got ['svm', 'svm']"),
    ])
    def test_augment_eval_rejects_a_count_that_is_no_integer_before_making_out(
            self, tmp_path, capsys, change, message):
        config = {"dataset": {"kind": "blob", "num_classes": 2, "per_class": 6,
                              "dims": [8, 8, 8], "seed": 4},
                  "classifier": "svm", "split": {"kind": "kfold", "k": 2}, "repeats": 1,
                  **change}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        assert self.run_cli("augment-eval", "--config", str(cfg_path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_augment_eval_whose_unit_fails_exits_1_without_making_out(self, tmp_path,
                                                                      capsys):
        """Two classes of nine identical volumes plan, but their mask keeps no voxel,
        so the first SVM unit fails; no run was written, so no --out is made."""
        volume = make_blob_dataset(1, 1, (8, 8, 8), seed=0).volumes[0]
        data = tmp_path / "data"
        save_dataset(VolumeDataset([volume.copy() for _ in range(18)], [0] * 9 + [1] * 9,
                                   ["a", "b"]), str(data))
        config = {"dataset": {"kind": "manifest", "path": str(data / "manifest.csv")},
                  "regime": "real", "classifier": "svm", "repeats": 1,
                  "split": {"kind": "kfold", "k": 3, "min_class_size": 3}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        assert self.run_cli("augment-eval", "--config", str(cfg_path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "error: SVM training needs at least one feature; the mask keeps no voxel" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_augment_eval_rejects_unknown_mask_strategy_before_making_out(self, tmp_path,
                                                                          capsys):
        config = {"dataset": {"kind": "blob", "num_classes": 2, "per_class": 6,
                              "dims": [8, 8, 8], "seed": 4},
                  "classifier": "svm", "mask_strategy": "bogus", "repeats": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        assert self.run_cli("augment-eval", "--config", str(cfg_path), "--out", str(out)) == 1
        assert "unknown mask strategy 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_augment_eval_whose_out_is_a_file_exits_1_before_any_unit_runs(self, tmp_path,
                                                                           capsys, below):
        """--out names a file, or a path under one; the sweep's two units would plan
        and run, so the refusal comes before them."""
        config = {"dataset": {"kind": "blob", "num_classes": 2, "per_class": 6,
                              "dims": [8, 8, 8], "seed": 4},
                  "regime": "real", "classifier": "svm", "repeats": 1,
                  "split": {"kind": "kfold", "k": 2, "min_class_size": 2}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        out = str(taken / below)
        assert self.run_cli("augment-eval", "--config", str(cfg_path), "--out", out) == 1
        err = capsys.readouterr().err
        assert f"error: cannot make output directory {out}: {taken} is not a directory" in err
        assert "accuracy" not in err and "Traceback" not in err
        assert taken.read_text() == "not a directory"

    @given(regime=one_or_many(["real", "real_noise", "real_synth"]),
           generator=one_or_many(["gmm", "cvae", "icwgan"]),
           classifier=one_or_many(["svm", "dnn"]), single_model=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_augment_eval_cells_are_the_cross_product(self, regime, generator, classifier,
                                                      single_model):
        """The sweep's cells are regime x generator x classifier, with generators
        for real_synth only; each cell keeps the document's values for its own
        regime's fields, leaves the others unset, and gets --single-model; a list
        that repeats a name is refused, naming its field."""
        doc = {"dataset": {"kind": "blob"}, "synth_per_class": 4, "noise_per_class": 3,
               "noise_variance": 0.01}
        drawn = {"regime": regime, "generator": generator, "classifier": classifier}
        doc.update({key: value for key, value in drawn.items() if value is not ABSENT})
        generators = as_list(generator, ["gmm", "cvae", "icwgan"])
        cells = [(r, g, c) for r in as_list(regime, ["real", "real_noise", "real_synth"])
                 for g in (generators if r == "real_synth" else [None])
                 for c in as_list(classifier, ["svm", "dnn"])]
        flag = ["--single-model"] if single_model else []
        args = cli.build_parser().parse_args(["augment-eval", "--config", "doc.json", *flag])
        repeated = [key for key, value in drawn.items()
                    if isinstance(value, list) and len(set(value)) < len(value)]
        if repeated:
            with pytest.raises(harness.ConfigError, match="may not repeat a name") as err:
                cli._cell_configs(doc, args.single_model)
            assert str(err.value).split()[0] in repeated
            return
        bad = [(r, g, c) for r, g, c in cells
               if r is None or c is None or (r == "real_synth" and g is None)]
        if bad:
            r, g, c = bad[0]
            message = ("unknown regime None" if r is None else
                       "unknown classifier None" if c is None else
                       "real_synth requires a generator")
            with pytest.raises(harness.ConfigError, match=message):
                cli._cell_configs(doc, args.single_model)
            return
        configs = cli._cell_configs(doc, args.single_model)
        assert [(cfg.regime, cfg.generator, cfg.classifier) for cfg in configs] == cells
        uses = {"real": (), "real_noise": ("noise_per_class", "noise_variance"),
                "real_synth": ("synth_per_class",)}
        for cfg in configs:
            for name in ("synth_per_class", "noise_per_class", "noise_variance"):
                assert getattr(cfg, name) == (doc[name] if name in uses[cfg.regime] else 0)
            assert cfg.single_model is single_model

    @pytest.mark.parametrize("kind, block", [
        ("dnn", {"channels": [3, 4], "epochs": 2, "batch_size": 4}),
        ("svm", None),
    ])
    def test_train_clf_is_deterministic_and_records_its_kind(self, tmp_path, kind, block):
        data = tmp_path / "data"
        assert self.run_cli("synth-data", "--classes", "2", "--per-class", "4",
                            "--dims", "8,8,8", "--out", str(data)) == 0
        argv = ["train-clf", "--manifest", str(data / "manifest.csv"), "--kind", kind]
        if block is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(block))
            argv += ["--config", str(tmp_path / "cfg.json")]
        paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
        for path in paths:
            assert self.run_cli(*argv, "--out", str(path)) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        _, extra = nn.load_checkpoint(paths[0])
        assert extra["kind"] == f"{kind}_classifier"

    def test_train_clf_svm_reads_config(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert self.run_cli("synth-data", "--classes", "2", "--per-class", "4",
                            "--dims", "8,8,8", "--out", str(data)) == 0

        def train(name, block=None):
            argv = ["train-clf", "--manifest", str(data / "manifest.csv"), "--kind", "svm",
                    "--out", str(tmp_path / f"{name}.ckpt")]
            if block is not None:
                (tmp_path / f"{name}.json").write_text(json.dumps(block))
                argv += ["--config", str(tmp_path / f"{name}.json")]
            return self.run_cli(*argv)

        assert train("plain") == 0
        assert train("defaults", {"reg_c": 1.0, "epochs": 300}) == 0
        assert train("short", {"reg_c": 0.5, "epochs": 5}) == 0
        plain = (tmp_path / "plain.ckpt").read_bytes()
        assert (tmp_path / "defaults.ckpt").read_bytes() == plain
        arrays, extra = nn.load_checkpoint(tmp_path / "short.ckpt")
        assert extra["reg_c"] == 0.5
        assert not np.array_equal(arrays["weights"],
                                  nn.load_checkpoint(tmp_path / "plain.ckpt")[0]["weights"])
        assert train("bad", {"C": 1.0}) == 1
        assert "unknown SVMConfig fields: ['C']" in capsys.readouterr().err

    def test_train_gan_log_has_critic_iters_critic_rows_per_gen_row(self, tmp_path):
        data = tmp_path / "data"
        assert self.run_cli("synth-data", "--classes", "2", "--per-class", "4",
                            "--dims", "8,8,8", "--out", str(data)) == 0
        # 8 volumes in batches of 2: 4 critic steps per epoch, 8 in all
        block = dict(TINY_BLOCKS["icwgan"], batch_size=2, critic_iters=3, epochs=2)
        (tmp_path / "gan.json").write_text(json.dumps(block))
        log = tmp_path / "gan.log"
        assert self.run_cli("train-gan", "--manifest", str(data / "manifest.csv"),
                            "--config", str(tmp_path / "gan.json"),
                            "--out", str(tmp_path / "gan.ckpt"), "--log", str(log)) == 0
        lines = log.read_text().splitlines()
        assert lines[0] == "step,role,loss,penalty_term"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
        assert [r[1] for r in rows] == (["critic"] * 3 + ["gen"]) * 2 + ["critic"] * 2
        assert all(np.isfinite(float(r[2])) and np.isfinite(float(r[3])) for r in rows)
        assert all(float(r[3]) == 0.0 for r in rows if r[1] == "gen")

    def test_entry_point_runs(self):
        src = os.path.dirname(os.path.dirname(harness.__file__))
        result = subprocess.run([sys.executable, "-m", "volsynth.cli", "--help"],
                                env=dict(os.environ, PYTHONPATH=src),
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert "augment-eval" in result.stdout


TINY_BLOCKS = {
    "gmm": None,
    "cvae": {"latent_dim": 3, "enc_channels": [3, 4], "dec_channels": [4, 3],
             "batch_size": 4, "epochs": 1},
    "icwgan": {"z_dim": 3, "gen_channels": [4, 3], "disc_channels": [3, 4],
               "batch_size": 4, "critic_iters": 2, "epochs": 1},
}


def train_tiny(kind, tmp_path, classes=2):
    """The path of a ``kind`` checkpoint that its ``train-*`` command wrote from
    TINY_BLOCKS, trained on a blob dataset of 4 volumes per class at 8^3."""
    data = tmp_path / "data"
    assert cli_main(["synth-data", "--classes", str(classes), "--per-class", "4",
                     "--dims", "8,8,8", "--out", str(data)]) == 0
    path = tmp_path / "model.ckpt"
    argv = ["--manifest", str(data / "manifest.csv"), "--out", str(path)]
    if TINY_BLOCKS[kind] is None:
        assert cli_main(["train-gmm"] + argv) == 0
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_BLOCKS[kind]))
        command = "train-gan" if kind == "icwgan" else "train-cvae"
        assert cli_main([command, "--config", str(cfg)] + argv) == 0
    return path


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("kind", sorted(TINY_BLOCKS))
    def test_header_bit_flip_or_truncation_loads_or_raises_checkpoint_error(
            self, kind, tmp_path):
        path = train_tiny(kind, tmp_path)
        good = path.read_bytes()
        load = harness.load_generator

        def flipped(bit):
            blob = bytearray(good)
            blob[bit // 8] ^= 1 << (bit % 8)
            return bytes(blob)

        @settings(max_examples=200, deadline=None)
        @given(st.one_of(st.integers(0, (good.index(b"\n") + 1) * 8 - 1).map(flipped),
                         st.integers(0, len(good) - 1).map(lambda n: good[:n])))
        def check(blob):
            path.write_bytes(blob)
            try:
                load(path)
            except nn.CheckpointError:
                pass

        # "float32" -> "floap32" in every dtype name: the precision and, for
        # the neural models, the extra block's dtype
        start = good.find(b'"float')
        while start != -1:
            check = example(flipped((start + 5) * 8 + 2))(check)
            start = good.find(b'"float', start + 1)
        check()


# the header keys that checkpoints written before the leaky slope, the CVAE's
# reconstruction loss and the EM variance floor became constants still carry
OLDER_HEADER_KEYS = {"gmm": {"variance_floor": 1e-6},
                     "cvae": {"leaky_alpha": 0.2, "reconstruction": "bernoulli"},
                     "icwgan": {"leaky_alpha": 0.2}}


class TestOlderCheckpoints:
    @pytest.mark.parametrize("kind", sorted(TINY_BLOCKS))
    def test_a_header_with_the_removed_keys_loads_and_samples_the_same_bytes(
            self, kind, tmp_path):
        path = train_tiny(kind, tmp_path)
        header, newline, payload = path.read_bytes().partition(b"\n")
        doc = json.loads(header)
        assert not set(OLDER_HEADER_KEYS[kind]) & set(doc["extra"])
        doc["extra"].update(OLDER_HEADER_KEYS[kind])
        older = tmp_path / "older.ckpt"
        older.write_bytes(json.dumps(doc, sort_keys=True).encode("utf-8") + newline + payload)
        generator = harness.GENERATORS[kind]
        draws = [np.stack([v.data for v in generator.sample(harness.load_generator(p)[1],
                                                            1, 5, 3)])
                 for p in (path, older)]
        assert draws[0].tobytes() == draws[1].tobytes()


class TestOutOfRangeHeader:
    @pytest.mark.parametrize("kind, change", [
        ("cvae", {"enc_channels": []}), ("cvae", {"dtype": "int8"}),
        ("icwgan", {"disc_channels": [3, 0]}), ("icwgan", {"dtype": "int8"}),
    ])
    def test_a_header_value_out_of_range_is_a_malformed_checkpoint(self, kind, change,
                                                                   tmp_path, capsys):
        """A header rewritten to hold a value its config rejects fails to load with
        CheckpointError, and ``sample`` exits 1 before making ``--out``."""
        data = tmp_path / "data"
        assert cli_main(["synth-data", "--classes", "2", "--per-class", "4",
                         "--dims", "8,8,8", "--out", str(data)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_BLOCKS[kind]))
        path = tmp_path / "model.ckpt"
        command = "train-gan" if kind == "icwgan" else "train-cvae"
        assert cli_main([command, "--config", str(cfg), "--manifest",
                         str(data / "manifest.csv"), "--out", str(path)]) == 0
        header, newline, payload = path.read_bytes().partition(b"\n")
        doc = json.loads(header)
        doc["extra"].update(change)
        path.write_bytes(json.dumps(doc, sort_keys=True).encode("utf-8") + newline + payload)
        [name] = change
        with pytest.raises(nn.CheckpointError, match=f"malformed checkpoint .*{name}"):
            harness.load_generator(path)
        capsys.readouterr()
        out = tmp_path / "samples"
        assert cli_main(["sample", "--checkpoint", str(path), "--class-index", "0",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed checkpoint") and name in err
        assert not out.exists()


class TestMissingParameter:
    def test_a_checkpoint_missing_a_parameter_names_it_without_quotes(self, tmp_path,
                                                                      capsys):
        """``sample`` from an ICW-GAN checkpoint without its critic's head bias exits 1
        and names the parameter; the KeyError's message keeps no quotes of its own."""
        path = train_tiny("icwgan", tmp_path)
        arrays, extra = nn.load_checkpoint(path)
        del arrays["disc.head.bias"]
        nn.save_checkpoint(path, arrays, precision=extra["dtype"], extra=extra)
        capsys.readouterr()
        out = tmp_path / "samples"
        assert cli_main(["sample", "--checkpoint", str(path), "--class-index", "0",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: malformed checkpoint {path}: checkpoint "
                                           f"is missing parameter 'disc.head.bias'\n")
        assert not out.exists()


class TestMalformedGMMCheckpoint:
    @pytest.mark.parametrize("header, change, message", [
        ({"feature_dim": 511}, {}, "feature_dim 511 but the mask keeps 512 voxels"),
        ({}, {"mask": lambda m: 0 * m}, "feature_dim 512 but the mask keeps 0 voxels"),
        ({"K": 3}, {}, "class 0 needs 3 weights"),
        ({}, {"class_1.means": lambda m: m[:, :-1]},
         "class 1 needs 2 weights >= 0 that sum to 1, and 2 x 512 means and variances > 0"),
        ({}, {"class_0.weights": lambda w: np.array([1.5, -0.5])}, "class 0 needs"),
        ({}, {"class_1.weights": lambda w: 0.5 * w}, "class 1 needs"),
        ({}, {"class_0.variances": lambda v: -v}, "class 0 needs"),
    ])
    def test_a_payload_that_does_not_fit_its_header_is_a_malformed_checkpoint(
            self, header, change, message, tmp_path, capsys):
        """A GMM checkpoint whose feature width, array shapes, weights or variances
        break the mixture fails to load with CheckpointError, and ``sample`` exits 1
        before making ``--out``."""
        data = tmp_path / "data"
        assert cli_main(["synth-data", "--classes", "2", "--per-class", "4",
                         "--dims", "8,8,8", "--out", str(data)]) == 0
        path = tmp_path / "gmm.ckpt"
        assert cli_main(["train-gmm", "--manifest", str(data / "manifest.csv"),
                         "--components", "2", "--out", str(path)]) == 0
        arrays, extra = nn.load_checkpoint(path)
        assert extra["feature_dim"] == 512 and extra["K"] == 2
        extra.update(header)
        arrays.update({name: rewrite(arrays[name]) for name, rewrite in change.items()})
        nn.save_checkpoint(path, arrays, extra=extra)
        with pytest.raises(nn.CheckpointError, match="malformed checkpoint"):
            harness.load_generator(path)
        capsys.readouterr()
        out = tmp_path / "samples"
        assert cli_main(["sample", "--checkpoint", str(path), "--class-index", "0",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed checkpoint {path}") and message in err
        assert not out.exists()


class TestCheckpointRoundTrip:
    def test_save_load_returns_the_arrays_cast_and_the_extra_block(self, tmp_path):
        path = tmp_path / "round.ckpt"
        shapes = st.lists(st.integers(0, 3), max_size=3).map(tuple)
        json_values = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                                st.text(max_size=6), st.lists(st.integers(), max_size=3))

        @settings(max_examples=100, deadline=None)
        @given(st.dictionaries(st.text(min_size=1, max_size=8), shapes, max_size=4),
               st.sampled_from(["float32", "float64"]),
               st.none() | st.dictionaries(st.text(max_size=6), json_values, max_size=3),
               st.integers(0, 2 ** 32 - 1))
        def check(specs, precision, extra, seed):
            rng = np.random.default_rng(seed)
            arrays = {name: rng.normal(size=shape) for name, shape in specs.items()}
            nn.save_checkpoint(path, arrays, precision=precision, extra=extra)
            back, back_extra = nn.load_checkpoint(path)
            assert list(back) == list(arrays)
            for name, arr in arrays.items():
                assert back[name].shape == arr.shape and back[name].dtype == precision
                assert back[name].tobytes() == arr.astype(precision).tobytes()
            assert back_extra == (extra or None)

        check()


class TestSampleCLI:
    def test_gmm_checkpoint_sample_round_trip(self, tmp_path):
        data = tmp_path / "data"
        assert cli_main(["synth-data", "--classes", "2", "--per-class", "8",
                         "--dims", "8,8,8", "--seed", "3", "--out", str(data)]) == 0
        ckpt = tmp_path / "gmm.ckpt"
        assert cli_main(["train-gmm", "--manifest", str(data / "manifest.csv"),
                         "--out", str(ckpt), "--seed", "1"]) == 0
        samples = tmp_path / "samples"
        assert cli_main(["sample", "--checkpoint", str(ckpt), "--class-index", "1",
                         "-n", "5", "--seed", "2", "--out", str(samples)]) == 0
        assert len(list(samples.glob("*.vvol"))) == 5

        # identical rerun overwrites with identical bytes
        before = {p.name: p.read_bytes() for p in samples.glob("*")}
        assert cli_main(["sample", "--checkpoint", str(ckpt), "--class-index", "1",
                         "-n", "5", "--seed", "2", "--out", str(samples)]) == 0
        after = {p.name: p.read_bytes() for p in samples.glob("*")}
        assert before == after

        # the samples form a dataset that --manifest commands read
        assert (samples / "classes.txt").read_text() == "class_0\nclass_1\n"
        assert cli_main(["train-gmm", "--manifest", str(samples / "manifest.csv"),
                         "--out", str(tmp_path / "again.ckpt")]) == 0

    @pytest.mark.parametrize("kind, message", [
        ("gmm", "class 3 is not trained; trained classes: [0]"),
        ("cvae", "unknown class 3; model covers 0..0"),
        ("icwgan", "unknown class 3; model covers 0..0"),
    ], ids=["gmm", "cvae", "icwgan"])
    def test_a_class_the_model_does_not_cover_exits_1_with_an_unquoted_error(
            self, kind, message, tmp_path, capsys):
        """The generators raise KeyError for a class they do not cover; ``sample``
        prints its message as it is, without the quotes of a KeyError's str()."""
        ckpt = train_tiny(kind, tmp_path, classes=1)
        capsys.readouterr()
        out = tmp_path / "samples"
        assert cli_main(["sample", "--checkpoint", str(ckpt), "--class-index", "3",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @staticmethod
    def sample_fails(path, tmp_path, capsys):
        """``sample``'s stderr from ``path``, once it has exited 1 without making ``--out``."""
        capsys.readouterr()
        out = tmp_path / "samples"
        assert cli_main(["sample", "--checkpoint", str(path), "--class-index", "0",
                         "--out", str(out)]) == 1
        assert not out.exists()
        return capsys.readouterr().err

    @staticmethod
    def rewrite_header(path, edit):
        header, newline, payload = path.read_bytes().partition(b"\n")
        doc = json.loads(header)
        edit(doc)
        path.write_bytes(json.dumps(doc, sort_keys=True).encode("utf-8") + newline + payload)

    def test_a_size_claim_beyond_the_file_is_a_truncated_payload(self, tmp_path, capsys):
        """A header that claims a 2^40-voxel mask is refused before any read: the file
        does not hold the bytes, so nothing of that size is allocated."""
        path = train_tiny("gmm", tmp_path)

        def claim(doc):
            [mask] = [spec for spec in doc["params"] if spec["name"] == "mask"]
            mask["shape"] = [2 ** 40]

        self.rewrite_header(path, claim)
        with pytest.raises(nn.CheckpointError,
                           match="truncated checkpoint payload for parameter 'mask'"):
            harness.load_generator(path)
        assert self.sample_fails(path, tmp_path, capsys) == (
            "error: truncated checkpoint payload for parameter 'mask'\n")

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(extra="gmm"),
        lambda doc: doc["extra"].update(kind=["gmm"]),
    ], ids=["extra_is_a_string", "kind_is_a_list"])
    def test_a_header_of_the_wrong_type_is_not_a_generator_checkpoint(self, edit, tmp_path,
                                                                      capsys):
        path = train_tiny("gmm", tmp_path)
        self.rewrite_header(path, edit)
        with pytest.raises(nn.CheckpointError, match="is not a generator checkpoint"):
            harness.load_generator(path)
        assert self.sample_fails(path, tmp_path, capsys) == (
            f"error: {path} is not a generator checkpoint\n")

    @pytest.mark.parametrize("kind, block", [
        ("dnn", {"channels": [3, 4], "epochs": 1, "batch_size": 4}),
        ("svm", None),
    ])
    def test_a_classifier_checkpoint_is_not_a_generator_checkpoint(self, kind, block,
                                                                   tmp_path, capsys):
        data = tmp_path / "data"
        assert cli_main(["synth-data", "--classes", "2", "--per-class", "4",
                         "--dims", "8,8,8", "--out", str(data)]) == 0
        path = tmp_path / "clf.ckpt"
        argv = ["train-clf", "--manifest", str(data / "manifest.csv"), "--kind", kind,
                "--out", str(path)]
        if block is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(block))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert cli_main(argv) == 0
        assert self.sample_fails(path, tmp_path, capsys) == (
            f"error: {path} is not a generator checkpoint\n")

    @pytest.mark.parametrize("kind", sorted(TINY_BLOCKS))
    def test_one_sample_call_reads_its_checkpoint_once(self, kind, tmp_path, monkeypatch):
        path = train_tiny(kind, tmp_path)
        reads = []
        load_checkpoint = nn.load_checkpoint

        def counted(*args):
            reads.append(args)
            return load_checkpoint(*args)

        monkeypatch.setattr(nn, "load_checkpoint", counted)
        assert cli_main(["sample", "--checkpoint", str(path), "--class-index", "1",
                         "-n", "2", "--out", str(tmp_path / "samples")]) == 0
        assert reads == [(str(path),)]
