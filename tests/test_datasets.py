"""Tests for synthetic dataset generation and the on-disk formats."""

import gc
import hashlib
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evidkit import datasets, fileio
from evidkit.base_rates import CIWTable
from evidkit.datasets import (
    CACHE_SUFFIX,
    TRAIN_FILENAME,
    VAL_FILENAME,
    DatasetSplit,
    GenConfig,
    SampleTable,
    generate_dataset,
    load_ciw_config,
    load_dataset,
    load_training,
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


def _drop_caches(directory) -> None:
    """Delete the caches save_dataset wrote, so that a load parses the records."""
    for name in (TRAIN_FILENAME, VAL_FILENAME):
        (Path(directory) / (name + CACHE_SUFFIX)).unlink()


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
        _drop_caches(tmp_path / "d")
        assert load_dataset(tmp_path / "d") == split

    def test_save_is_byte_deterministic(self, tmp_path):
        split = generate_dataset(SMALL)
        save_dataset(split, tmp_path / "a")
        save_dataset(split, tmp_path / "b")
        for name in (TRAIN_FILENAME, VAL_FILENAME, TRAIN_FILENAME + CACHE_SUFFIX,
                     VAL_FILENAME + CACHE_SUFFIX):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_empty_split_round_trips(self, tmp_path):
        empty = _table((), np.zeros((0, 3)), np.zeros((0, 2)), [])
        split = DatasetSplit(train=empty, validation=empty, known_classes=("a", "b"),
                             unknown_classes=(), dim=3)
        save_dataset(split, tmp_path / "d")
        _drop_caches(tmp_path / "d")
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

    def test_zero_known_classes_rejected(self, tmp_path):
        d = self._saved(tmp_path)
        header = (d / VAL_FILENAME).read_text().splitlines()[0]
        self._corrupt(d, 1, header.replace(" K=3 ", " K=0 "))
        with pytest.raises(DataFormatError, match="line 1: K must be >= 1$"):
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
        _drop_caches(tmp_path / "d")
        full = load_dataset(tmp_path / "d")
        known_classes, rows = load_validation(tmp_path / "d")
        assert known_classes == full.known_classes
        assert rows.ids == full.validation.ids and len(rows) == n_val
        for name in ("x", "labels", "unknown"):
            ours, theirs = getattr(rows, name), getattr(full.validation, name)
            assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
            assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("n_train", [60, 0])
    def test_training_loader_matches_load_dataset(self, tmp_path, n_train):
        split = generate_dataset(SMALL)
        save_dataset(replace(split, train=split.train[:n_train]), tmp_path / "d")
        _drop_caches(tmp_path / "d")
        full = load_dataset(tmp_path / "d")
        known_classes, rows = load_training(tmp_path / "d")
        assert known_classes == full.known_classes
        assert rows.ids == full.train.ids and len(rows) == n_train
        for name in ("x", "labels", "unknown"):
            ours, theirs = getattr(rows, name), getattr(full.train, name)
            assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
            assert ours.tobytes() == theirs.tobytes()

    def test_one_split_loaders_report_a_header_disagreement_alike(self, tmp_path):
        # a renamed class leaves val.edlset's records valid, so both loaders reach the check
        d = self._saved(tmp_path)
        val = d / VAL_FILENAME
        val.write_text(val.read_text().replace("classes=known_01", "classes=other_01", 1))
        messages = []
        for load in (load_training, load_validation):
            with pytest.raises(DataFormatError) as err:
                load(d)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0] == f"{val}: line 1: train and validation headers disagree"


class TestCaches:
    """save_dataset writes a cache beside each split file, which the loaders
    read in place of the records while its digest matches; the results are
    those of the parse, and so is every error."""

    @pytest.mark.parametrize("n, dim, prefix", [
        (0, 3, "row"), (7, 1, "row"), (30, 4, "\u00e9t\u00e9-\u65e5\u672c\u00a0"),
    ], ids=["no-rows", "one-feature", "non-ascii-ids"])
    def test_loaders_return_the_parsed_rows(self, tmp_path, monkeypatch, n, dim, prefix):
        rng = np.random.default_rng(n)
        labels = np.zeros((n, 3), dtype=bool)
        labels[:, :2] = rng.random((n, 2)) < 0.5
        val_labels = labels.copy()
        val_labels[::3, 2] = True
        ids = tuple(f"{prefix}{i}" for i in range(n))
        split = DatasetSplit(
            SampleTable(ids, rng.standard_normal((n, dim)), labels, np.zeros(n, dtype=bool)),
            SampleTable(ids[::-1], rng.standard_normal((n, dim)), val_labels,
                        val_labels[:, 2].copy()),
            ("a", "b"), ("u",), dim)
        save_dataset(split, tmp_path)
        loaders = (load_dataset, load_training, load_validation)

        def no_parse(*args):
            raise AssertionError("the records were parsed")

        with monkeypatch.context() as patch:
            patch.setattr(datasets, "_parse_records", no_parse)
            cached = [load(tmp_path) for load in loaders]
        _drop_caches(tmp_path)
        parsed = [load(tmp_path) for load in loaders]
        assert cached == parsed and parsed[0] == split
        tables = [cached[0].train, cached[0].validation, cached[1][1], cached[2][1]]
        expected = [parsed[0].train, parsed[0].validation, parsed[1][1], parsed[2][1]]
        for ours, theirs in zip(tables, expected):
            for name in ("x", "labels", "unknown"):
                a, b = getattr(ours, name), getattr(theirs, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def _random_split(n_train, n_val, dim, seed=0):
    """Train and validation rows of ``dim`` full-precision features, over 6
    known and 2 unknown classes as the generator's default, with mixed label rows."""
    rng = np.random.default_rng(seed)
    known, unknown = ("k1", "k2", "k3", "k4", "k5", "k6"), ("u1", "u2")

    def table(prefix, n, with_unknown):
        labels = np.zeros((n, 8), dtype=bool)
        labels[:, :6] = rng.random((n, 6)) < 0.2
        if with_unknown:
            labels[rng.random(n) < 0.25, 6 + rng.integers(2)] = True
        ids = tuple(f"{prefix}-{i:06d}" for i in range(n))
        return SampleTable(ids, rng.standard_normal((n, dim)), labels,
                           labels[:, 6:].any(axis=1))

    return DatasetSplit(table("tr", n_train, False), table("va", n_val, True),
                        known, unknown, dim)


def _one_join_bytes(rows, split):
    """A split file as the whole-file writer made it: one "\n".join of every line."""
    header = f"#edlset v1 D={split.dim} K={split.k_known} classes={','.join(split.classes)}"
    records = [
        f"{i}\t{','.join(map(repr, x))}\t{','.join(map(str, np.flatnonzero(labels)))}"
        f"\t{int(flag)}"
        for i, x, labels, flag in zip(rows.ids, rows.x.tolist(), rows.labels, rows.unknown)
    ]
    return ("\n".join([header] + records) + "\n").encode("utf-8")


def _transient_peak(fn):
    """(the traced peak of ``fn()`` beyond what it leaves allocated, its result)."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current, result


class TestBlockedFiles:
    """The writer works in blocks of 4096 rows and the loader in the reader's
    blocks of lines; neither holds a whole file's text."""

    @pytest.fixture(scope="class")
    def big(self):
        return _random_split(8193, 8193, dim=8)

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
    def test_bytes_match_one_join_and_round_trip(self, tmp_path, monkeypatch, big, n):
        split = replace(big, train=big.train[:n], validation=big.validation[:n])
        save_dataset(split, tmp_path)
        for name, rows in ((TRAIN_FILENAME, split.train), (VAL_FILENAME, split.validation)):
            assert (tmp_path / name).read_bytes() == _one_join_bytes(rows, split)
        assert load_dataset(tmp_path) == split
        _drop_caches(tmp_path)
        assert load_dataset(tmp_path) == split
        # blocks that end mid-line and hold a few records each
        monkeypatch.setattr(fileio, "_READ_CHUNK_BYTES", 1000)
        assert load_dataset(tmp_path) == split

    def test_memory_beyond_the_result_does_not_grow_with_rows(self, tmp_path):
        # 60k more train rows are 5.6 MB more text, which a whole-file write or
        # read holds several times over (24 and 18 MB more at 80k). The blocked
        # ones hold one block's strings, about 1 MiB of text, at either size (a
        # 20k-row file is two blocks); what a load adds per row is its id list
        # and (labels, flag) codes, 16 bytes, or 1 MB over 60k rows. Four
        # features a row keep the traced calls short.
        transient = {}
        for n in (20_000, 80_000):
            split = _random_split(n, 1, dim=4)
            save = _transient_peak(lambda: save_dataset(split, tmp_path / str(n)))[0]
            load, loaded = _transient_peak(lambda: load_dataset(tmp_path / str(n)))
            assert loaded == split
            transient[n] = np.array([save, load])
        growth = transient[80_000] - transient[20_000]
        assert (growth < 1.5 * 2**20).all(), (transient, growth)

    def test_rejecting_a_bad_second_line_does_not_grow_with_rows(self, tmp_path):
        # the rest of the file is decoded before the error is raised, one block
        # at a time; a second, whole-file read to name the line would hold every
        # line's string, about 7 MB more at 80k rows than at 20k
        peak = {}
        for n in (20_000, 80_000):
            save_dataset(_random_split(n, 1, dim=4), tmp_path / str(n))
            path = tmp_path / str(n) / TRAIN_FILENAME
            lines = path.read_text().splitlines()
            lines[1] = lines[1][:-1] + "2"  # the unknown flag, the last rule checked
            path.write_text("\n".join(lines) + "\n")

            def reject():
                with pytest.raises(DataFormatError, match="line 2: unknown flag must be"):
                    load_dataset(tmp_path / str(n))

            peak[n] = _transient_peak(reject)[0]
        assert peak[80_000] - peak[20_000] < 2**20, peak

    def test_a_bad_byte_in_a_later_block_wins_over_a_bad_record(self, tmp_path, monkeypatch):
        save_dataset(generate_dataset(SMALL), tmp_path)
        path = tmp_path / VAL_FILENAME
        lines = path.read_bytes().splitlines()
        lines[1] = b"only-an-id"
        lines[-1] += b"\xff"
        path.write_bytes(b"\n".join(lines) + b"\n")
        monkeypatch.setattr(fileio, "_READ_CHUNK_BYTES", 200)
        assert len(next(fileio.read_line_blocks(path))) < len(lines) - 1
        with pytest.raises(DataFormatError, match=f"line {len(lines)}: not UTF-8 text"):
            load_dataset(tmp_path)

# the field tab and every line break of str.splitlines: the readers split at each
SPLITTING = ["\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
             "\u2028", "\u2029"]
# surrogate code points, which UTF-8 cannot encode
SURROGATES = ["\ud800", "\udbff", "\udc00", "\udfff"]


class TestWritersRejectWhatReadersReject:
    @pytest.mark.parametrize("char", SPLITTING + SURROGATES,
                             ids=[hex(ord(c)) for c in SPLITTING + SURROGATES])
    def test_sample_id(self, tmp_path, char):
        split = generate_dataset(SMALL)
        bad = f"v{char}0"
        ids = split.validation.ids
        split = replace(split, validation=replace(split.validation, ids=(*ids[:3], bad,
                                                                          *ids[4:])))
        with pytest.raises(ValueError, match=f"sample id {re.escape(repr(bad))} "):
            save_dataset(split, tmp_path / "d")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("char", SPLITTING + SURROGATES + [""],
                             ids=[hex(ord(c)) for c in SPLITTING + SURROGATES] + ["empty"])
    def test_class_name(self, tmp_path, char):
        bad = f"ro{char}ot" if char else ""
        table = CIWTable.from_pairs([("crack", 0.5), (bad, 0.25), ("b\tc", 0.75)])
        path = tmp_path / "ciw.tsv"
        with pytest.raises(ValueError, match=f"class name {re.escape(repr(bad))} "):
            save_ciw_config(table, path)
        assert not path.exists()


class TestCiwFiles:
    def test_two_line_config_in_order(self, tmp_path):
        path = tmp_path / "ciw.tsv"
        path.write_text("crack\t0.9\nroot\t0.25\n")
        table = load_ciw_config(path)
        assert table.entries == (("crack", 0.9), ("root", 0.25))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ciw.tsv"
        path.write_text("\ncrack\t0.9\n\n")
        assert load_ciw_config(path).entries == (("crack", 0.9),)

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


# SHA-256 of the four files `generate --seed 3` writes at the CLI defaults,
# recorded with the one-process writer: at 12000 + 6000 rows the second
# process's half starts inside train, at 3000 + 9000 inside validation
TWO_PROCESS_DIGESTS = {
    (12000, 6000): {
        TRAIN_FILENAME: "1011d745f1c45dd083bda94ccde3e3ce0440f9a5cfe6ab483517e699e3a9418a",
        TRAIN_FILENAME + CACHE_SUFFIX:
            "6ccc73cc4a2c2ea5d66d2eb8fefa1e99be9199902878501bcc0cd7b4c6c54126",
        VAL_FILENAME: "63ba4231ece608844b78538b81902c5be128148379e2e0a655e73e593a17ac8a",
        VAL_FILENAME + CACHE_SUFFIX:
            "12f0f932d561ac408661cc66314043ef9f7362d1212654eb8d4ad37f0a2343b3",
    },
    (3000, 9000): {
        TRAIN_FILENAME: "41975e6caf1b7a3ff6d8aa30c12426b52e419d8884ba68f10aec30116a93964d",
        TRAIN_FILENAME + CACHE_SUFFIX:
            "1109998fea4b4e2c5ff869e2456962c57ee577a7b3e3939d58928236b73d4f5f",
        VAL_FILENAME: "bde38a2f35c357441052f5fe85d88ee837d95c7e6b9bb864628a2a00fd4e593c",
        VAL_FILENAME + CACHE_SUFFIX:
            "8f1f5e412c0186ab3742f0d938f707136fec401e88b85ce352ffdf665e0db080",
    },
}
SIZES = list(TWO_PROCESS_DIGESTS)
SIZE_IDS = [f"{n_train}+{n_val}" for n_train, n_val in SIZES]
SPLIT_FILES = list(TWO_PROCESS_DIGESTS[SIZES[0]])


@pytest.fixture(scope="module")
def seed3_splits():
    return {size: generate_dataset(GenConfig(n_train=size[0], n_val=size[1], seed=3))
            for size in SIZES}


def _digests(directory) -> dict:
    return {name: hashlib.sha256((Path(directory) / name).read_bytes()).hexdigest()
            for name in SPLIT_FILES}


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTwoProcessSave:
    """A large save formats the second half of its rows in a second
    interpreter; the bytes are those of the one-process writer, and a
    failure on either side leaves no process, no temporary file and no
    changed target behind."""

    @pytest.fixture
    def spawned(self, monkeypatch):
        """The processes a save starts; the host is taken to have two CPUs."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        procs, real = [], subprocess.Popen

        def spy(*args, **kwargs):
            procs.append(real(*args, **kwargs))
            return procs[-1]

        monkeypatch.setattr(subprocess, "Popen", spy)
        return procs

    @pytest.fixture
    def no_spawn(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a second process was started")

        monkeypatch.setattr(subprocess, "Popen", refuse)

    @staticmethod
    def _replace_child(monkeypatch, tmp_path, code: str) -> list:
        """Run the script ``code`` in place of records.py in the processes a
        save starts, which are returned."""
        script = tmp_path / "child.py"
        script.write_text(code)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        procs, real = [], subprocess.Popen

        def spy(args, **kwargs):
            procs.append(real([*args[:3], str(script), *args[4:]], **kwargs))
            return procs[-1]

        monkeypatch.setattr(subprocess, "Popen", spy)
        return procs

    @pytest.mark.parametrize("size", SIZES, ids=SIZE_IDS)
    def test_bytes_are_the_one_process_bytes(self, tmp_path, spawned, seed3_splits, size):
        save_dataset(seed3_splits[size], tmp_path)
        assert len(spawned) == 1 and spawned[0].args[1:3] == ["-I", "-S"]
        assert spawned[0].returncode == 0
        assert _digests(tmp_path) == TWO_PROCESS_DIGESTS[size]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(SPLIT_FILES)
        _no_child_left()

    @pytest.mark.parametrize("size", SIZES, ids=SIZE_IDS)
    def test_copies_in_blocks_shorter_than_a_record(self, tmp_path, monkeypatch, spawned,
                                                    seed3_splits, size):
        # each read holds at most one record end, so the copy of a split's
        # share ends mid-read, with the next split's first bytes after it
        monkeypatch.setattr(datasets, "_CACHE_BLOCK_BYTES", 100)
        save_dataset(seed3_splits[size], tmp_path)
        assert len(spawned) == 1
        assert _digests(tmp_path) == TWO_PROCESS_DIGESTS[size]

    @pytest.mark.parametrize("when", ["after-reading", "at-start"])
    @pytest.mark.parametrize("size", SIZES, ids=SIZE_IDS)
    def test_a_failing_child_changes_no_file(self, tmp_path, capsys, monkeypatch,
                                             seed3_splits, size, when):
        from evidkit.cli import main

        read = "sys.stdin.buffer.read()\n" if when == "after-reading" else ""
        procs = self._replace_child(monkeypatch, tmp_path, f"import sys\n{read}"
                                    "sys.stderr.write('x' * 600 + 'records: disk full\\n')\n"
                                    "sys.exit(7)\n")
        out = tmp_path / "data"
        out.mkdir()
        for name in SPLIT_FILES:
            (out / name).write_bytes(b"previous " + name.encode())
        capsys.readouterr()
        assert main(["generate", "--seed", "3", "--train-samples", str(size[0]),
                     "--val-samples", str(size[1]), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: the record-formatting process exited with status 7: ")
        assert err.rstrip().endswith("x" * 100 + "records: disk full")
        assert len(procs) == 1 and procs[0].returncode == 7
        assert sorted(p.name for p in out.iterdir()) == sorted(SPLIT_FILES)
        for name in SPLIT_FILES:
            assert (out / name).read_bytes() == b"previous " + name.encode()
        _no_child_left()

    def test_a_failing_parent_kills_the_child(self, tmp_path, monkeypatch, seed3_splits):
        procs = self._replace_child(monkeypatch, tmp_path,
                                    "import sys, time\nsys.stdin.buffer.read()\ntime.sleep(60)\n")

        def refuse(path, binary=False):
            raise OSError(f"cannot write {path}")

        monkeypatch.setattr(datasets, "atomic_open", refuse)
        out = tmp_path / "data"
        with pytest.raises(OSError, match="cannot write"):
            save_dataset(seed3_splits[SIZES[0]], out)
        assert len(procs) == 1 and procs[0].returncode == -signal.SIGKILL
        assert list(out.iterdir()) == []
        _no_child_left()

    @pytest.mark.parametrize("host", ["one-cpu", "one-cpu-no-affinity", "no-executable"])
    def test_no_child_without_a_second_cpu_or_an_interpreter(
            self, tmp_path, monkeypatch, no_spawn, seed3_splits, host):
        if host == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        elif host == "one-cpu-no-affinity":
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            monkeypatch.setattr(sys, "executable", "")
        save_dataset(seed3_splits[SIZES[0]], tmp_path)
        assert _digests(tmp_path) == TWO_PROCESS_DIGESTS[SIZES[0]]

    def test_no_child_below_the_floor(self, tmp_path, monkeypatch):
        # the CLI default, 2000 + 600 rows of 8 features, stays in one process
        split = generate_dataset(GenConfig())
        assert (len(split.train) + len(split.validation)) * split.dim < \
            datasets._TWO_PROCESS_MIN_VALUES
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with monkeypatch.context() as patch:
            patch.setattr(datasets, "_TWO_PROCESS_MIN_VALUES", 0)
            save_dataset(split, tmp_path / "two")
        with monkeypatch.context() as patch:
            patch.setattr(subprocess, "Popen", lambda *a, **k: pytest.fail("a process started"))
            save_dataset(split, tmp_path / "one")
        assert _digests(tmp_path / "one") == _digests(tmp_path / "two")
