"""Tests of the array-backed SampleTable and of the bulk dataset paths.

The reference functions below are the per-row generator, writer, parser
and stacker that the array paths replaced. They stay here as oracles:
the array paths must draw, write, read and stack exactly what they did.
Their rows are plain `_Row` tuples.
"""

import math
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidkit import fileio
from evidkit.datasets import (
    CACHE_SUFFIX,
    DATASET_MAGIC,
    DATASET_VERSION,
    TRAIN_FILENAME,
    VAL_FILENAME,
    DatasetSplit,
    GenConfig,
    SampleTable,
    _known_prototypes,
    _parse_header,
    _unknown_prototypes,
    generate_dataset,
    load_dataset,
    samples_to_arrays,
    save_dataset,
)
from evidkit.errors import DataFormatError
from evidkit.fileio import read_line_blocks

SMALL = GenConfig(k_known=3, k_unknown=1, dim=4, n_train=60, n_val=30, seed=5)


# -- reference: the per-row implementations ------------------------------

class _Row(NamedTuple):
    id: str
    features: tuple[float, ...]
    labels: tuple[int, ...]
    is_unknown: bool

def _ref_ball_noise(rng, dim, scale):
    direction = rng.standard_normal(dim)
    norm = float(np.linalg.norm(direction))
    while norm == 0.0:
        direction = rng.standard_normal(dim)
        norm = float(np.linalg.norm(direction))
    radius = 2.0 * scale * rng.random() ** (1.0 / dim)
    return (radius / norm) * direction


def _ref_draw_known_labels(rng, cfg):
    k = int(rng.integers(cfg.k_known))
    if cfg.k_known > 1 and rng.random() < cfg.cooccurrence:
        j = int(rng.integers(cfg.k_known - 1))
        if j >= k:
            j += 1
        return tuple(sorted((k, j)))
    return (k,)


def _ref_make_sample(sample_id, labels, is_unknown, center, rng, cfg):
    features = center + _ref_ball_noise(rng, cfg.dim, cfg.noise)
    return _Row(sample_id, tuple(float(v) for v in features), labels, is_unknown)


def _ref_generate(cfg):
    """(train rows, validation rows, class names) as drawn row by row."""
    rng = np.random.default_rng(cfg.seed)
    known_protos = _known_prototypes(rng, cfg)
    unknown_protos = _unknown_prototypes(rng, cfg, known_protos)
    origin = np.zeros(cfg.dim)
    train = []
    for i in range(cfg.n_train):
        if rng.random() < cfg.normal_rate:
            train.append(_ref_make_sample(f"tr-{i:05d}", (), False, origin, rng, cfg))
        else:
            labels = _ref_draw_known_labels(rng, cfg)
            center = known_protos[list(labels)].mean(axis=0)
            train.append(_ref_make_sample(f"tr-{i:05d}", labels, False, center, rng, cfg))
    validation = []
    for i in range(cfg.n_val):
        sample_id = f"va-{i:05d}"
        if cfg.k_unknown > 0 and rng.random() < cfg.unknown_rate:
            m = int(rng.integers(cfg.k_unknown))
            validation.append(_ref_make_sample(
                sample_id, (cfg.k_known + m,), True, unknown_protos[m], rng, cfg))
        elif rng.random() < cfg.normal_rate:
            validation.append(_ref_make_sample(sample_id, (), False, origin, rng, cfg))
        else:
            labels = _ref_draw_known_labels(rng, cfg)
            center = known_protos[list(labels)].mean(axis=0)
            validation.append(_ref_make_sample(sample_id, labels, False, center, rng, cfg))
    classes = tuple(f"known_{i + 1:02d}" for i in range(cfg.k_known)) + tuple(
        f"unknown_{i + 1:02d}" for i in range(cfg.k_unknown))
    return tuple(train), tuple(validation), classes


def _ref_file_text(samples, dim, k_known, classes):
    def record(s):
        features = ",".join(repr(v) for v in s.features)
        labels = ",".join(str(l) for l in s.labels)
        return f"{s.id}\t{features}\t{labels}\t{'1' if s.is_unknown else '0'}"

    header = f"{DATASET_MAGIC} {DATASET_VERSION} D={dim} K={k_known} classes={','.join(classes)}"
    return "\n".join([header] + [record(s) for s in samples]) + "\n"


def _ref_parse_record(line, lineno, dim, k_known, k_total, path):
    fields = line.split("\t")
    if len(fields) != 4:
        raise DataFormatError(
            f"expected 4 tab-separated fields, got {len(fields)}", path=path, line=lineno)
    sample_id, feat_field, label_field, flag_field = fields
    if not sample_id:
        raise DataFormatError("empty sample id", path=path, line=lineno)
    try:
        features = tuple(float(v) for v in feat_field.split(","))
    except ValueError as exc:
        raise DataFormatError(f"bad feature value: {exc}", path=path, line=lineno) from exc
    if len(features) != dim:
        raise DataFormatError(f"expected {dim} features, got {len(features)}",
                              path=path, line=lineno)
    if label_field:
        try:
            labels = tuple(int(v) for v in label_field.split(","))
        except ValueError as exc:
            raise DataFormatError(f"bad label index: {exc}", path=path, line=lineno) from exc
    else:
        labels = ()
    if len(set(labels)) != len(labels):
        raise DataFormatError("duplicate label index", path=path, line=lineno)
    labels = tuple(sorted(labels))
    if labels and (labels[0] < 0 or labels[-1] >= k_total):
        raise DataFormatError("label index out of range", path=path, line=lineno)
    if flag_field not in ("0", "1"):
        raise DataFormatError(f"unknown flag must be 0 or 1, got {flag_field!r}",
                              path=path, line=lineno)
    is_unknown = flag_field == "1"
    if is_unknown != any(l >= k_known for l in labels):
        raise DataFormatError("unknown flag does not match labels", path=path, line=lineno)
    return _Row(sample_id, features, labels, is_unknown)


def _ref_load_split_file(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    dim, k_known, classes = _parse_header(lines[0], path)
    return tuple(_ref_parse_record(line, lineno, dim, k_known, len(classes), path)
                 for lineno, line in enumerate(lines[1:], start=2))


def _ref_samples_to_arrays(samples, k_known, dim):
    n = len(samples)
    ids = [s.id for s in samples]
    x = np.zeros((n, dim), dtype=np.float64)
    y = np.zeros((n, k_known), dtype=np.float64)
    flags = np.zeros(n, dtype=bool)
    for i, s in enumerate(samples):
        x[i] = s.features
        for l in s.labels:
            if l < k_known:
                y[i, l] = 1.0
        flags[i] = s.is_unknown
    return ids, x, y, flags


def _ref_table(samples, k_total, dim):
    """The reference rows stacked into a table whose labels span k_total classes."""
    ids, x, y, flags = _ref_samples_to_arrays(samples, k_total, dim)
    return SampleTable(tuple(ids), x, y.astype(bool), flags)


def _assert_same_arrays(got, expected):
    assert got[0] == expected[0]
    for a, b in zip(got[1:], expected[1:]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# -- equivalence with the per-row implementations --------------------------

RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def gen_configs(draw):
    k_known = draw(st.integers(1, 6))
    n_pairs = k_known * (k_known - 1) // 2
    return GenConfig(
        k_known=k_known,
        k_unknown=draw(st.integers(0, min(3, n_pairs))),
        dim=draw(st.integers(k_known, 10)),
        n_train=draw(st.integers(1, 120)),
        n_val=draw(st.integers(1, 80)),
        separation=draw(st.sampled_from([0.5, 6.0])),
        cooccurrence=draw(RATES),
        noise=draw(st.one_of(st.just(0.0), st.floats(0.01, 3.0))),
        normal_rate=draw(RATES),
        unknown_rate=draw(RATES),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(cfg=gen_configs())
def test_generate_save_load_and_arrays_match_the_per_row_code(cfg):
    ref_train, ref_val, classes = _ref_generate(cfg)
    k_total = len(classes)
    split = generate_dataset(cfg)
    assert split.train == _ref_table(ref_train, k_total, cfg.dim)
    assert split.validation == _ref_table(ref_val, k_total, cfg.dim)
    assert split.classes == classes
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(split, tmp)
        for name, ref_rows in ((TRAIN_FILENAME, ref_train), (VAL_FILENAME, ref_val)):
            written = (Path(tmp) / name).read_text(encoding="utf-8")
            assert written == _ref_file_text(ref_rows, cfg.dim, cfg.k_known, classes)
        assert load_dataset(tmp) == split
        # without the caches the records are parsed
        for name in (TRAIN_FILENAME, VAL_FILENAME):
            (Path(tmp) / (name + CACHE_SUFFIX)).unlink()
        loaded = load_dataset(tmp)
        assert loaded == split
        for name, rows in ((TRAIN_FILENAME, loaded.train), (VAL_FILENAME, loaded.validation)):
            parsed = _ref_load_split_file(Path(tmp) / name)
            assert rows == _ref_table(parsed, k_total, cfg.dim)
    for rows, ref_rows in ((loaded.train, ref_train), (loaded.validation, ref_val)):
        expected = _ref_samples_to_arrays(ref_rows, cfg.k_known, cfg.dim)
        _assert_same_arrays(samples_to_arrays(rows, cfg.k_known, cfg.dim), expected)
        # the one-row tables of iteration, stacked again
        _assert_same_arrays(samples_to_arrays(list(rows), cfg.k_known, cfg.dim), expected)


def _saved(tmp_path):
    save_dataset(generate_dataset(SMALL), tmp_path / "d")
    return tmp_path / "d"


def _replace_lines(path, replacements):
    lines = path.read_text().splitlines()
    for lineno, text in replacements.items():
        lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n")


BAD_RECORDS = {
    "fields": lambda f: "only-an-id",
    "id": lambda f: "\t".join(["", *f[1:]]),
    "feature": lambda f: "\t".join([f[0], "1.0,oops,3.0,4.0", *f[2:]]),
    "count": lambda f: "\t".join([f[0], "1.0,2.0", *f[2:]]),
    "nan": lambda f: "\t".join([f[0], "1.0,nan,3.0,4.0", *f[2:]]),
    "label": lambda f: "\t".join([*f[:2], "x", f[3]]),
    "duplicate": lambda f: "\t".join([*f[:2], "0,0", "0"]),
    "range": lambda f: "\t".join([*f[:2], "9", "1"]),
    "flag": lambda f: "\t".join([*f[:3], "2"]),
    "mismatch": lambda f: "\t".join([*f[:2], "0", "1"]),
}


KINDS = sorted(BAD_RECORDS)
PAIRS = list(zip(KINDS, KINDS[1:] + KINDS[:1]))
# the reader's chunk size, and whether lines 4 and 9 then share a block: at
# the default the file is one block; at 1000 bytes both lines are in the
# first of several blocks, and at 64 bytes they are in different blocks
CHUNKS = {None: True, 1000: True, 64: False}


# every kind of bad record once before and once after another kind
@pytest.mark.parametrize(
    "first,second,chunk", [(a, b, c) for c in CHUNKS for a, b in PAIRS],
    ids=[f"{a}-{b}" + (f"-chunk{c}" if c else "") for c in CHUNKS for a, b in PAIRS])
def test_first_of_two_bad_lines_is_named(tmp_path, monkeypatch, first, second, chunk):
    d = _saved(tmp_path)
    path = d / VAL_FILENAME
    fields = [line.split("\t") for line in path.read_text().splitlines()]
    _replace_lines(path, {4: BAD_RECORDS[first](fields[3]), 9: BAD_RECORDS[second](fields[8])})
    if chunk:
        monkeypatch.setattr(fileio, "_READ_CHUNK_BYTES", chunk)
    block_of_line = [i for i, block in enumerate(read_line_blocks(path)) for _ in block]
    assert (block_of_line[3] == block_of_line[8]) == CHUNKS[chunk]
    with pytest.raises(DataFormatError, match="line 4: ") as err:
        load_dataset(d)
    if first != "nan":  # the per-row parser let NaN through
        with pytest.raises(DataFormatError) as ref_err:
            _ref_load_split_file(path)
        assert str(err.value) == str(ref_err.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_non_finite_feature_names_the_line(tmp_path, value):
    d = _saved(tmp_path)
    path = d / TRAIN_FILENAME
    fields = path.read_text().splitlines()[6].split("\t")
    features = fields[1].split(",")
    features[2] = value
    _replace_lines(path, {7: "\t".join([fields[0], ",".join(features), *fields[2:]])})
    with pytest.raises(DataFormatError, match="line 7: non-finite feature"):
        load_dataset(d)


def test_short_and_long_rows_do_not_even_out(tmp_path):
    """One row a feature short and a later one a feature long hold the
    right total; the short one must still be named."""
    d = _saved(tmp_path)
    path = d / TRAIN_FILENAME
    fields = [line.split("\t") for line in path.read_text().splitlines()]
    short, long = fields[3], fields[8]
    short[1] = short[1].rsplit(",", 1)[0]
    long[1] = long[1] + ",1.5"
    _replace_lines(path, {4: "\t".join(short), 9: "\t".join(long)})
    with pytest.raises(DataFormatError, match="line 4: expected 4 features, got 3"):
        load_dataset(d)


def test_huge_declared_dim_is_a_format_error(tmp_path):
    d = _saved(tmp_path)
    for name in (TRAIN_FILENAME, VAL_FILENAME):
        path = d / name
        path.write_text(path.read_text().replace(" D=4 ", f" D={10**12} ", 1))
    with pytest.raises(DataFormatError, match=f"line 2: expected {10**12} features, got 4"):
        load_dataset(d)


def test_unknown_sample_in_train_names_the_line(tmp_path):
    d = _saved(tmp_path)
    val_record = next(line for line in (d / VAL_FILENAME).read_text().splitlines()[1:]
                      if line.endswith("\t1"))
    _replace_lines(d / TRAIN_FILENAME, {3: val_record})
    with pytest.raises(DataFormatError, match="line 3: train split must not contain unknown"):
        load_dataset(d)


# -- the table contract ---------------------------------------------------

class TestSampleTable:
    def test_int_index_returns_the_reference_sample(self):
        ref_train, ref_val, classes = _ref_generate(SMALL)
        split = generate_dataset(SMALL)
        for i in (0, 7, -1):
            row = split.train[i]
            assert isinstance(row, SampleTable) and len(row) == 1
            assert row == _ref_table([ref_train[i]], len(classes), SMALL.dim)
            assert split.validation[np.int64(i)] == _ref_table([ref_val[i]], len(classes),
                                                               SMALL.dim)
        for i in (len(split.train), -len(split.train) - 1):
            with pytest.raises(IndexError):
                split.train[i]

    def test_iteration_yields_the_reference_samples(self):
        ref_train, _, classes = _ref_generate(SMALL)
        assert list(generate_dataset(SMALL).train) == [
            _ref_table([row], len(classes), SMALL.dim) for row in ref_train]

    def test_mask_slice_and_index_array_return_tables(self):
        _, ref_val, classes = _ref_generate(SMALL)

        def ref(rows):
            return _ref_table(rows, len(classes), SMALL.dim)

        rows = generate_dataset(SMALL).validation
        mask = rows.unknown
        known = rows[~mask]
        assert isinstance(known, SampleTable)
        assert known == ref([s for s in ref_val if not s.is_unknown])
        assert isinstance(rows[2:5], SampleTable) and rows[2:5] == ref(ref_val[2:5])
        picked = rows[np.array([4, 0, 4])]
        assert isinstance(picked, SampleTable)
        assert picked == ref([ref_val[4], ref_val[0], ref_val[4]])
        with pytest.raises(IndexError):
            rows[np.ones(3, dtype=bool)]

    @pytest.mark.parametrize("key", [[], (), np.array([], dtype=np.int64), np.array([])],
                             ids=["list", "tuple", "int64", "float64"])
    def test_empty_index_array_selects_no_row(self, key):
        rows = generate_dataset(SMALL).validation
        picked = rows[key]
        assert picked == rows[:0]
        assert picked.x.shape == (0, SMALL.dim) and picked.labels.shape == (0, 4)

    def test_mask_must_cover_every_row(self):
        rows = generate_dataset(SMALL).validation
        for mask in (np.array([], dtype=bool), np.ones(3, dtype=bool),
                     np.ones((len(rows), 1), dtype=bool)):
            with pytest.raises(IndexError, match="does not fit the table's 30 rows"):
                rows[mask]
        assert rows[:0][np.array([], dtype=bool)] == rows[:0]

    def test_one_row_tables_stack_like_an_index_array(self):
        """A list of one-row tables, as a caller gathers rows one by one,
        gives the arrays of the index-array selection, bit for bit."""
        split = generate_dataset(SMALL)
        rows, k, dim = split.validation, split.k_known, split.dim
        picked = [np.int64(3), -1, 0, np.int64(-30), 29, 3, np.int64(12)]
        _assert_same_arrays(samples_to_arrays([rows[i] for i in picked], k, dim),
                            samples_to_arrays(rows[picked], k, dim))
        ids, x, y, flags = samples_to_arrays([], k, dim)
        assert ids == [] and x.shape == (0, dim) and y.shape == (0, k) and flags.shape == (0,)
        _assert_same_arrays((ids, x, y, flags), samples_to_arrays(rows[:0], k, dim))
        with pytest.raises(IndexError):
            rows[len(rows)]

    def test_arrays_are_read_only(self):
        rows = generate_dataset(SMALL).train
        for array in (rows.x, rows.labels, rows.unknown, rows[~rows.unknown].x, rows[1:3].x):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            rows.x[0, 0] = 1.0

    def test_layout(self):
        split = generate_dataset(SMALL)
        rows = split.validation
        assert rows.x.shape == (30, 4) and rows.x.dtype == np.float64
        assert rows.labels.shape == (30, 4) and rows.labels.dtype == bool
        assert rows.unknown.shape == (30,) and rows.unknown.dtype == bool
        assert isinstance(rows.ids, tuple) and rows.ids[0] == "va-00000"
        np.testing.assert_array_equal(rows.unknown, rows.labels[:, split.k_known:].any(axis=1))

    def test_empty_split_has_empty_arrays(self, tmp_path):
        empty = SampleTable((), np.zeros((0, 3)), np.zeros((0, 1), dtype=bool),
                            np.zeros(0, dtype=bool))
        split = DatasetSplit(train=empty, validation=empty, known_classes=("a",),
                             unknown_classes=(), dim=3)
        assert len(split.train) == 0 and split.validation == empty
        assert split.train.x.shape == (0, 3) and split.train.labels.shape == (0, 1)
        save_dataset(split, tmp_path / "d")
        assert load_dataset(tmp_path / "d") == split

    def test_tables_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(generate_dataset(SMALL).train)

    def test_split_names_the_first_bad_sample(self):
        table = SampleTable(("v0", "v1", "v2"), np.zeros((3, 2)),
                            np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=bool),
                            np.array([False, False, True]))
        with pytest.raises(ValueError, match="validation sample 'v1': unknown flag"):
            DatasetSplit(train=table[:1], validation=table, known_classes=("a", "b"),
                         unknown_classes=("u",), dim=2)

    @pytest.mark.parametrize("train", [
        SampleTable(("t0",), np.zeros((1, 1)), [[True, False, False]], [False]),
        SampleTable(("t0",), np.zeros((1, 2)), [[True, False]], [False]),
        SampleTable(("t0",), np.zeros((1, 2)), [[True, False, False, False]], [False]),
        [("t0", (0.0, 0.0), (0,), False)],
    ], ids=["feature-short", "label-short", "label-over", "row-tuples"])
    def test_split_takes_only_tables_of_its_width(self, train):
        empty = SampleTable((), np.zeros((0, 2)), np.zeros((0, 3), dtype=bool),
                            np.zeros(0, dtype=bool))
        with pytest.raises(ValueError,
                           match="train must be a SampleTable with 2 feature and 3 label columns"):
            DatasetSplit(train=train, validation=empty, known_classes=("a", "b"),
                         unknown_classes=("u",), dim=2)

    def test_table_checks_its_rows(self):
        with pytest.raises(ValueError, match="non-finite"):
            SampleTable(("a", "b"), np.array([[0.0], [math.inf]]),
                        np.zeros((2, 1), dtype=bool), np.zeros(2, dtype=bool))
        with pytest.raises(ValueError, match="non-empty"):
            SampleTable(("",), np.zeros((1, 1)), np.zeros((1, 1), dtype=bool),
                        np.zeros(1, dtype=bool))
        with pytest.raises(ValueError, match="row count"):
            SampleTable(("a",), np.zeros((2, 1)), np.zeros((2, 1), dtype=bool),
                        np.zeros(2, dtype=bool))
