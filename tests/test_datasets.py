"""Tests for synthetic dataset generation and the on-disk formats."""

from dataclasses import replace

import numpy as np
import pytest

from evidkit.base_rates import CIWTable
from evidkit.datasets import (
    TRAIN_FILENAME,
    VAL_FILENAME,
    DatasetSplit,
    GenConfig,
    SampleTable,
    generate_dataset,
    load_ciw_config,
    load_dataset,
    load_validation,
    random_ciw_table,
    samples_to_arrays,
    save_ciw_config,
    save_dataset,
)
from evidkit.errors import ConfigError, DataFormatError

SMALL = GenConfig(k_known=3, k_unknown=1, dim=4, n_train=60, n_val=30, seed=5)


def _table(ids, x, labels, unknown):
    """A SampleTable from nested lists: labels are rows of 0/1 over all classes."""
    return SampleTable(ids, np.array(x, dtype=float), np.array(labels, dtype=bool), unknown)


class TestSampleValidation:
    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            _table(("",), [[0.0]], [[0]], [False])

    def test_non_finite_feature_rejected(self):
        with pytest.raises(ValueError, match="'s': non-finite"):
            _table(("s",), [[float("inf")]], [[0]], [False])


class TestSplitValidation:
    def _mk(self, **kwargs):
        defaults = dict(
            train=_table(("t0",), [[0.0, 0.0]], [[1, 0, 0]], [False]),
            validation=_table(("v0",), [[0.0, 0.0]], [[0, 0, 1]], [True]),
            known_classes=("a", "b"),
            unknown_classes=("u",),
            dim=2,
        )
        defaults.update(kwargs)
        return DatasetSplit(**defaults)

    def test_valid_split_builds(self):
        split = self._mk()
        assert split.classes == ("a", "b", "u")
        assert split.k_known == 2

    def test_unsafe_class_name_rejected(self):
        with pytest.raises(ValueError):
            self._mk(known_classes=("a", "b c"))

    def test_overlapping_class_lists_rejected(self):
        with pytest.raises(ValueError):
            self._mk(unknown_classes=("a",))

    def test_wrong_feature_dim_rejected(self):
        with pytest.raises(ValueError):
            self._mk(train=_table(("t0",), [[0.0]], [[1, 0, 0]], [False]))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            self._mk(train=_table(("t0",), [[0.0, 0.0]], [[0, 0, 0, 1]], [False]))

    def test_flag_must_match_labels(self):
        with pytest.raises(ValueError):
            self._mk(validation=_table(("v0",), [[0.0, 0.0]], [[0, 0, 1]], [False]))
        with pytest.raises(ValueError):
            self._mk(validation=_table(("v0",), [[0.0, 0.0]], [[1, 0, 0]], [True]))

    def test_train_must_not_contain_unknown(self):
        with pytest.raises(ValueError):
            self._mk(train=_table(("t0",), [[0.0, 0.0]], [[0, 0, 1]], [True]))


class TestGenConfig:
    def test_defaults_build(self):
        cfg = GenConfig()
        assert cfg.k_known == 6 and cfg.k_unknown == 2 and cfg.seed == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_known": 0},
            {"k_unknown": -1},
            {"k_known": 1, "k_unknown": 1},
            {"k_known": 3, "k_unknown": 4},   # only 3 distinct pairs
            {"dim": 4},                        # below k_known
            {"n_train": 0},
            {"separation": 0.0},
            {"noise": -1.0},
            {"unknown_scale": 0.0},
            {"cooccurrence": 1.5},
            {"normal_rate": -0.1},
            {"unknown_rate": 2.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GenConfig(**kwargs)


class TestGeneration:
    def test_shape_and_counts(self):
        split = generate_dataset(SMALL)
        assert len(split.train) == 60
        assert len(split.validation) == 30
        assert split.dim == 4
        assert split.known_classes == ("known_01", "known_02", "known_03")
        assert split.unknown_classes == ("unknown_01",)

    def test_train_is_free_of_unknowns(self):
        split = generate_dataset(GenConfig())
        assert not split.train.unknown.any()
        assert split.validation.unknown.any()

    def test_same_seed_is_identical(self):
        assert generate_dataset(SMALL) == generate_dataset(SMALL)

    def test_different_seed_differs(self):
        other = GenConfig(k_known=3, k_unknown=1, dim=4, n_train=60, n_val=30, seed=6)
        assert generate_dataset(SMALL) != generate_dataset(other)

    def test_zero_noise_collapses_samples_onto_prototypes(self):
        cfg = GenConfig(k_known=3, k_unknown=0, dim=4, n_train=80, n_val=10,
                        noise=0.0, cooccurrence=0.0, normal_rate=0.2, seed=3)
        rows = generate_dataset(cfg).train
        # every sample sits exactly on its class prototype (or the origin)
        for labels in np.unique(rows.labels, axis=0):
            same_labels = (rows.labels == labels).all(axis=1)
            assert len(np.unique(rows.x[same_labels], axis=0)) == 1

    def test_unknowns_only_when_requested(self):
        cfg = GenConfig(k_known=3, k_unknown=0, dim=4, n_train=20, n_val=20, seed=1)
        split = generate_dataset(cfg)
        assert not split.validation.unknown.any()
        assert split.unknown_classes == ()

    def test_clusters_are_linearly_separable(self):
        """With separation 6x noise, a mean-difference direction splits every
        pair of single-label clusters with a strict margin, and every cluster
        away from the label-free samples at the origin."""
        split = generate_dataset(GenConfig())
        rows = split.train
        n_labels = rows.labels.sum(axis=1)
        arrays = {k: rows.x[(n_labels == 1) & rows.labels[:, k]] for k in range(split.k_known)}
        arrays[None] = rows.x[n_labels == 0]
        keys = list(arrays)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                direction = arrays[a].mean(axis=0) - arrays[b].mean(axis=0)
                proj_a = arrays[a] @ direction
                proj_b = arrays[b] @ direction
                assert proj_a.min() > proj_b.max()

    def test_cooccurring_samples_exist_and_sit_between_prototypes(self):
        split = generate_dataset(GenConfig())
        assert (split.train.labels.sum(axis=1) == 2).any()  # default co-occurrence rate is 0.2


class TestDatasetFiles:
    def test_round_trip_identity(self, tmp_path):
        split = generate_dataset(SMALL)
        save_dataset(split, tmp_path / "d")
        assert load_dataset(tmp_path / "d") == split

    def test_save_is_byte_deterministic(self, tmp_path):
        split = generate_dataset(SMALL)
        save_dataset(split, tmp_path / "a")
        save_dataset(split, tmp_path / "b")
        for name in (TRAIN_FILENAME, VAL_FILENAME):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_empty_split_round_trips(self, tmp_path):
        empty = _table((), np.zeros((0, 3)), np.zeros((0, 2)), [])
        split = DatasetSplit(train=empty, validation=empty, known_classes=("a", "b"),
                             unknown_classes=(), dim=3)
        save_dataset(split, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert loaded.train == empty and loaded.validation == empty
        assert loaded.known_classes == ("a", "b")

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(DataFormatError, match="missing"):
            load_dataset(tmp_path / "nowhere")

    def _saved(self, tmp_path):
        save_dataset(generate_dataset(SMALL), tmp_path / "d")
        return tmp_path / "d"

    def _corrupt(self, directory, lineno, new_line):
        path = directory / VAL_FILENAME
        lines = path.read_text().splitlines()
        lines[lineno - 1] = new_line
        path.write_text("\n".join(lines) + "\n")

    def test_malformed_header(self, tmp_path):
        d = self._saved(tmp_path)
        self._corrupt(d, 1, "#wrong v1 D=4 K=3 classes=a,b,c")
        with pytest.raises(DataFormatError, match="line 1"):
            load_dataset(d)

    def test_unsupported_version(self, tmp_path):
        d = self._saved(tmp_path)
        header = (d / VAL_FILENAME).read_text().splitlines()[0]
        self._corrupt(d, 1, header.replace(" v1 ", " v2 "))
        with pytest.raises(DataFormatError, match="version"):
            load_dataset(d)

    def test_field_count_error_names_line(self, tmp_path):
        d = self._saved(tmp_path)
        self._corrupt(d, 5, "only-an-id")
        with pytest.raises(DataFormatError, match="line 5"):
            load_dataset(d)

    def test_bad_feature_value_names_line(self, tmp_path):
        d = self._saved(tmp_path)
        lines = (d / VAL_FILENAME).read_text().splitlines()
        fields = lines[3].split("\t")
        fields[1] = "1.0,oops,3.0,4.0"
        self._corrupt(d, 4, "\t".join(fields))
        with pytest.raises(DataFormatError, match="line 4"):
            load_dataset(d)

    def test_label_out_of_range_rejected(self, tmp_path):
        d = self._saved(tmp_path)
        lines = (d / VAL_FILENAME).read_text().splitlines()
        fields = lines[2].split("\t")
        fields[2], fields[3] = "9", "1"
        self._corrupt(d, 3, "\t".join(fields))
        with pytest.raises(DataFormatError, match="line 3"):
            load_dataset(d)

    def test_flag_label_mismatch_rejected(self, tmp_path):
        d = self._saved(tmp_path)
        lines = (d / VAL_FILENAME).read_text().splitlines()
        fields = lines[2].split("\t")
        fields[2], fields[3] = "0", "1"  # known label marked unknown
        self._corrupt(d, 3, "\t".join(fields))
        with pytest.raises(DataFormatError, match="line 3"):
            load_dataset(d)

    def test_unknown_sample_in_train_rejected(self, tmp_path):
        d = self._saved(tmp_path)
        val_record = next(
            line for line in (d / VAL_FILENAME).read_text().splitlines()[1:]
            if line.endswith("\t1")
        )
        train = d / TRAIN_FILENAME
        train.write_text(train.read_text() + val_record + "\n")
        with pytest.raises(DataFormatError, match="train"):
            load_dataset(d)

    def test_header_disagreement_rejected(self, tmp_path):
        d = self._saved(tmp_path)
        val = d / VAL_FILENAME
        text = val.read_text().replace("classes=known_01", "classes=other_01", 1)
        val.write_text(text)
        with pytest.raises(DataFormatError, match="disagree"):
            load_dataset(d)

    @pytest.mark.parametrize("n_val", [30, 0])
    def test_validation_loader_matches_load_dataset(self, tmp_path, n_val):
        split = generate_dataset(SMALL)
        save_dataset(replace(split, validation=split.validation[:n_val]), tmp_path / "d")
        full = load_dataset(tmp_path / "d")
        known_classes, rows = load_validation(tmp_path / "d")
        assert known_classes == full.known_classes
        assert rows.ids == full.validation.ids and len(rows) == n_val
        for name in ("x", "labels", "unknown"):
            ours, theirs = getattr(rows, name), getattr(full.validation, name)
            assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
            assert ours.tobytes() == theirs.tobytes()


class TestCiwFiles:
    def test_two_line_config_in_order(self, tmp_path):
        path = tmp_path / "ciw.tsv"
        path.write_text("crack\t0.9\nroot\t0.25\n")
        table = load_ciw_config(path)
        assert table.entries == (("crack", 0.9), ("root", 0.25))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ciw.tsv"
        path.write_text("\ncrack\t0.9\n\n")
        assert load_ciw_config(path).names == ("crack",)

    def test_duplicate_class_rejected(self, tmp_path):
        path = tmp_path / "ciw.tsv"
        path.write_text("crack\t0.9\ncrack\t0.1\n")
        with pytest.raises(DataFormatError, match="line 2: duplicate class name 'crack'"):
            load_ciw_config(path)

    def test_non_numeric_weight_rejected(self, tmp_path):
        path = tmp_path / "ciw.tsv"
        path.write_text("crack\thigh\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_ciw_config(path)

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "ciw.tsv"
        path.write_text("crack 0.9\n")
        with pytest.raises(DataFormatError):
            load_ciw_config(path)

    @pytest.mark.parametrize("text, line, problem", [
        ("crack\t0.9\nroot\t1e400\n", 2, "non-finite weight '1e400'"),
        ("crack\tnan\n", 1, "non-finite weight 'nan'"),
        ("\tcrack\t0.9\n", 1, "expected `class_name<TAB>weight`"),
        ("crack\t0.9\n\ncrack\t0.1\n", 3, "duplicate class name 'crack'"),
    ])
    def test_error_names_the_path_and_line(self, tmp_path, text, line, problem):
        path = tmp_path / "ciw.tsv"
        path.write_text(text)
        with pytest.raises(DataFormatError) as exc_info:
            load_ciw_config(path)
        assert str(exc_info.value) == f"{path}: line {line}: {problem}"

    def test_weights_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(8)
        table = CIWTable.from_pairs(
            (f"c{i}", float(w)) for i, w in enumerate(rng.uniform(0, 1, size=20))
        )
        path = tmp_path / "ciw.tsv"
        save_ciw_config(table, path)
        assert load_ciw_config(path) == table

    def test_random_table_is_seeded_and_bounded(self):
        names = ["a", "b", "c"]
        t1 = random_ciw_table(names, seed=4)
        t2 = random_ciw_table(names, seed=4)
        assert t1 == t2
        assert all(0.1 <= w <= 1.0 for w in t1.weights)


class TestArrays:
    def test_multi_hot_covers_known_classes_only(self):
        split = generate_dataset(SMALL)
        rows = split.validation
        ids, x, y, flags = samples_to_arrays(rows, split.k_known, split.dim)
        assert x.shape == (30, 4) and y.shape == (30, 3)
        for i in range(len(rows)):
            assert ids[i] == rows.ids[i]
            assert flags[i] == rows.unknown[i]
            expected = np.zeros(3)
            for l in np.flatnonzero(rows.labels[i]):
                if l < 3:
                    expected[l] = 1.0
            np.testing.assert_array_equal(y[i], expected)
        # unknown samples carry no known label bit in this dataset
        assert not y[flags].any()

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            samples_to_arrays(_table(("s",), [[1.0, 2.0]], [[0, 0]], [False]), 2, 3)
