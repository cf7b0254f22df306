"""Synthetic multi-label datasets with held-out unknown classes, plus file I/O.

Geometry of the generator: each known class owns a prototype vector of
length separation * noise; prototypes are mutually orthogonal directions
obtained by orthonormalizing a seeded Gaussian matrix (QR), which needs
dim >= k_known. A sample's features are the mean of its label-class
prototypes plus isotropic noise drawn uniformly from the ball of radius
2 * noise, so every point lies within 2 sigma of its cluster center and
clusters whose centers are at least 4 sigma apart are linearly separable
by construction. At separation 6 the closest pair of distinct known
clusters (singles, pairwise co-occurrence mixtures, and the label-free
cluster at the origin) is 6 / sqrt(2) =~ 4.24 sigma apart.

Unknown classes are placed on the ray through the midpoint of a random
pair of known prototypes, scaled by unknown_scale; the default 2.0 puts
them at the sum of the pair, clear of every known cluster, and only the
validation split contains them.

Dataset files are line-oriented text. Header:

    #edlset v1 D=<d> K=<k> classes=<c1,c2,...>

where K is the number of known classes and the class list is known
classes first, unknowns after. Records are tab-separated: id,
comma-separated features (repr precision, so round trips are bit-exact),
comma-separated label indices (empty allowed), unknown flag 0/1.

In memory a split is a SampleTable: one frozen row table of arrays, not a
tuple of per-row objects. It holds `ids` (a tuple of N str), `x` (an
(N, D) float64 feature matrix), `labels` (an (N, C) bool matrix over all
C classes, known first, then unknown) and `unknown` (an (N,) bool flag
array); the arrays are read-only. Every row selection is a table: an int
index gives the one-row table at that position, and slices, bool masks
and index arrays give the rows they select.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations, compress, repeat
from pathlib import Path

import numpy as np

from .base_rates import CIWTable
from .errors import ConfigError, DataFormatError
from .fileio import read_first_line, read_lines, write_text

DATASET_MAGIC = "#edlset"
DATASET_VERSION = "v1"
TRAIN_FILENAME = "train.edlset"
VAL_FILENAME = "val.edlset"

# hard cap on the noise norm, in units of the noise scale
NOISE_RADIUS = 2.0

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# records parsed per block when loading; bounds the temporary strings
_PARSE_BLOCK_ROWS = 4096


def _frozen(values, dtype, ndim: int, name: str) -> np.ndarray:
    array = np.asarray(values, dtype=dtype)
    if array.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {array.shape}")
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class SampleTable(Sequence):
    """The rows of one split as arrays: ids, features, label matrix, unknown flags.

    ids is a tuple of N non-empty str; x an (N, D) float64 matrix of finite
    features; labels an (N, C) bool matrix over all classes, known first;
    unknown an (N,) bool array. The table takes the arrays over without
    copying and makes them read-only.

    Every selection returns a table: an int index (negative allowed) the
    one-row table at that position, a slice, a bool mask or an index array
    the rows it selects. A table equals another table with the same arrays.
    """

    ids: tuple[str, ...]
    x: np.ndarray
    labels: np.ndarray
    unknown: np.ndarray

    def __post_init__(self):
        ids = tuple(self.ids)
        x = _frozen(self.x, np.float64, 2, "x")
        labels = _frozen(self.labels, bool, 2, "labels")
        unknown = _frozen(self.unknown, bool, 1, "unknown")
        if not len(ids) == len(x) == len(labels) == len(unknown):
            raise ValueError(
                f"ids, x, labels and unknown disagree on the row count: "
                f"{len(ids)}, {len(x)}, {len(labels)}, {len(unknown)}"
            )
        if not all(ids):
            raise ValueError("sample id must be non-empty")
        finite = np.isfinite(x).all(axis=1)
        if not finite.all():
            raise ValueError(f"sample {ids[int(finite.argmin())]!r}: non-finite feature")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "unknown", unknown)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            i = range(len(self.ids))[key]  # raises IndexError when out of range
            key = slice(i, i + 1)
        elif not isinstance(key, slice):
            key = np.asarray(key)
        x = self.x[key]  # numpy checks the mask length and the index range
        if isinstance(key, slice):
            ids = self.ids[key]
        elif key.dtype == bool:
            ids = tuple(compress(self.ids, key.tolist()))
        else:
            ids = tuple(map(self.ids.__getitem__, key.tolist()))
        return SampleTable(ids, x, self.labels[key], self.unknown[key])

    def __eq__(self, other):
        if not isinstance(other, SampleTable):
            return NotImplemented
        return (
            self.ids == other.ids
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.unknown, other.unknown)
        )

    __hash__ = None


@dataclass(frozen=True)
class DatasetSplit:
    """A full dataset: train and validation rows plus the class lists.

    train and validation are SampleTables with `dim` feature columns and
    one label column per class, known first.
    """

    train: SampleTable
    validation: SampleTable
    known_classes: tuple[str, ...]
    unknown_classes: tuple[str, ...]
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        for name in self.classes:
            if not _NAME_RE.match(name):
                raise ValueError(f"class name {name!r} is not file-format safe")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("known and unknown class lists must be disjoint")
        for where in ("train", "validation"):
            rows = getattr(self, where)
            if not (isinstance(rows, SampleTable) and rows.x.shape[1] == self.dim
                    and rows.labels.shape[1] == len(self.classes)):
                raise ValueError(f"{where} must be a SampleTable with {self.dim} feature "
                                 f"and {len(self.classes)} label columns")
            mismatch = rows.unknown != rows.labels[:, self.k_known:].any(axis=1)
            if mismatch.any():
                raise ValueError(f"{where} sample {rows.ids[int(mismatch.argmax())]!r}: "
                                 "unknown flag does not match labels")
        if self.train.unknown.any():
            raise ValueError("train split must not contain unknown samples")

    @property
    def classes(self) -> tuple[str, ...]:
        return self.known_classes + self.unknown_classes

    @property
    def k_known(self) -> int:
        return len(self.known_classes)


@dataclass(frozen=True)
class GenConfig:
    k_known: int = 6
    k_unknown: int = 2
    dim: int = 8
    n_train: int = 2000
    n_val: int = 600
    separation: float = 6.0
    cooccurrence: float = 0.2
    noise: float = 1.0
    normal_rate: float = 0.25
    unknown_rate: float = 0.25
    unknown_scale: float = 2.0
    seed: int = 7

    def __post_init__(self):
        if self.k_unknown < 0:
            raise ConfigError(f"k_unknown must be >= 0, got {self.k_unknown}")
        if self.k_unknown > 0 and self.k_unknown >= self.k_known + self.k_unknown:
            raise ConfigError(
                f"k_unknown={self.k_unknown} must be less than the total class count "
                f"{self.k_known + self.k_unknown} (at least one class must stay known)"
            )
        if self.k_known < 1:
            raise ConfigError(f"k_known must be >= 1, got {self.k_known}")
        if self.k_unknown > 0 and self.k_known < 2:
            raise ConfigError("unknown prototypes need at least 2 known classes to pair")
        n_pairs = self.k_known * (self.k_known - 1) // 2
        if self.k_unknown > n_pairs:
            raise ConfigError(
                f"k_unknown={self.k_unknown} exceeds the {n_pairs} distinct known-class pairs"
            )
        if self.dim < self.k_known:
            raise ConfigError(
                f"dim must be >= k_known ({self.k_known}) so prototypes can be orthogonal"
            )
        if self.n_train < 1 or self.n_val < 1:
            raise ConfigError("samples per split must be >= 1")
        if not (self.separation > 0 and math.isfinite(self.separation)):
            raise ConfigError(f"separation must be > 0, got {self.separation}")
        if not (self.noise >= 0 and math.isfinite(self.noise)):
            raise ConfigError(f"noise must be >= 0, got {self.noise}")
        if not (self.unknown_scale > 0 and math.isfinite(self.unknown_scale)):
            raise ConfigError(f"unknown_scale must be > 0, got {self.unknown_scale}")
        for field_name in ("cooccurrence", "normal_rate", "unknown_rate"):
            v = getattr(self, field_name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{field_name} must be in [0, 1], got {v}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _ball_noise(rng: np.random.Generator, dim: int, scale: float) -> tuple[np.ndarray, float]:
    """Isotropic noise, uniform in the ball of radius NOISE_RADIUS * scale.

    Returns (direction, factor); the noise is factor * direction.
    math.sqrt(d.dot(d)) is the Euclidean norm as np.linalg.norm computes it.
    """
    direction = rng.standard_normal(dim)
    norm = math.sqrt(direction.dot(direction))
    while norm == 0.0:
        direction = rng.standard_normal(dim)
        norm = math.sqrt(direction.dot(direction))
    radius = NOISE_RADIUS * scale * rng.random() ** (1.0 / dim)
    return direction, radius / norm


def _known_prototypes(rng: np.random.Generator, cfg: GenConfig) -> np.ndarray:
    gaussian = rng.standard_normal((cfg.dim, cfg.k_known))
    q, _ = np.linalg.qr(gaussian)
    return (cfg.separation * cfg.noise) * q.T


def _unknown_prototypes(rng, cfg, known_protos):
    pairs = list(combinations(range(cfg.k_known), 2))
    picked = rng.choice(len(pairs), size=cfg.k_unknown, replace=False)
    protos = []
    for p in picked:
        a, b = pairs[int(p)]
        protos.append(cfg.unknown_scale * 0.5 * (known_protos[a] + known_protos[b]))
    return np.array(protos) if protos else np.zeros((0, cfg.dim))


def _draw_known_labels(rng, cfg) -> tuple[int, ...]:
    k = int(rng.integers(cfg.k_known))
    if cfg.k_known > 1 and rng.random() < cfg.cooccurrence:
        j = int(rng.integers(cfg.k_known - 1))
        if j >= k:
            j += 1
        return tuple(sorted((k, j)))
    return (k,)


@np.errstate(over="ignore", invalid="ignore")
def generate_dataset(cfg: GenConfig) -> DatasetSplit:
    """Deterministic synthetic dataset; same config -> identical samples.

    Draws are made row by row in a fixed order (label draws, then the noise
    direction, then its radius), and the features are assembled afterwards
    as centre + factor * direction in one array operation. A geometry too
    large for float64 (noise, separation and unknown_scale multiply) is a
    ConfigError, raised before anything is written; so is a size that
    cannot be allocated.
    """
    try:
        return _generate_split(cfg)
    except MemoryError:
        raise ConfigError(
            f"a dataset of dim {cfg.dim} with {cfg.n_train} train and {cfg.n_val} "
            "validation rows does not fit in memory; lower dim, n_train or n_val"
        ) from None


def _generate_split(cfg: GenConfig) -> DatasetSplit:
    rng = np.random.default_rng(cfg.seed)
    known_protos = _known_prototypes(rng, cfg)
    unknown_protos = _unknown_prototypes(rng, cfg, known_protos)

    codes = {}  # label tuple -> row of the centre and label tables, by first use
    row_codes, directions, factors = [], [], []

    def draw_row(labels):
        row_codes.append(codes.setdefault(labels, len(codes)))
        direction, factor = _ball_noise(rng, cfg.dim, cfg.noise)
        directions.append(direction)
        factors.append(factor)

    for _ in range(cfg.n_train):
        if rng.random() < cfg.normal_rate:
            draw_row(())
        else:
            draw_row(_draw_known_labels(rng, cfg))
    for _ in range(cfg.n_val):
        if cfg.k_unknown > 0 and rng.random() < cfg.unknown_rate:
            draw_row((cfg.k_known + int(rng.integers(cfg.k_unknown)),))
        elif rng.random() < cfg.normal_rate:
            draw_row(())
        else:
            draw_row(_draw_known_labels(rng, cfg))

    k_total = cfg.k_known + cfg.k_unknown
    centres = np.zeros((len(codes), cfg.dim))
    code_labels = np.zeros((len(codes), k_total), dtype=bool)
    for labels, code in codes.items():
        code_labels[code, list(labels)] = True
        if labels and labels[0] >= cfg.k_known:
            centres[code] = unknown_protos[labels[0] - cfg.k_known]
        elif labels:
            centres[code] = known_protos[list(labels)].mean(axis=0)
    row_codes = np.array(row_codes, dtype=np.intp)
    x = centres[row_codes] + np.array(factors)[:, None] * np.array(directions)
    if not np.isfinite(x).all():
        raise ConfigError("generated features overflow float64; "
                          "lower noise, separation or unknown_scale")
    labels = code_labels[row_codes]
    unknown = labels[:, cfg.k_known:].any(axis=1)

    n = cfg.n_train
    train = SampleTable(tuple(f"tr-{i:05d}" for i in range(n)), x[:n], labels[:n], unknown[:n])
    validation = SampleTable(tuple(f"va-{i:05d}" for i in range(cfg.n_val)),
                             x[n:], labels[n:], unknown[n:])

    known_names = tuple(f"known_{i + 1:02d}" for i in range(cfg.k_known))
    unknown_names = tuple(f"unknown_{i + 1:02d}" for i in range(cfg.k_unknown))
    return DatasetSplit(
        train=train,
        validation=validation,
        known_classes=known_names,
        unknown_classes=unknown_names,
        dim=cfg.dim,
    )


def _write_split_file(path: Path, rows: SampleTable, split: DatasetSplit) -> None:
    header = (
        f"{DATASET_MAGIC} {DATASET_VERSION} D={split.dim} K={split.k_known} "
        f"classes={','.join(split.classes)}"
    )
    # the label and flag fields, formatted once per distinct (labels, flag) row
    flagged = np.column_stack((rows.labels, rows.unknown))
    keys = flagged.view(np.dtype((np.void, flagged.shape[1]))).ravel().tolist()
    tails = {}
    for i, key in enumerate(keys):
        if key not in tails:
            indices = ",".join(map(str, np.flatnonzero(rows.labels[i]).tolist()))
            tails[key] = f"{indices}\t{'1' if rows.unknown[i] else '0'}"
    lines = [header] + [
        f"{sample_id}\t{','.join(map(repr, features))}\t{tails[key]}"
        for sample_id, features, key in zip(rows.ids, rows.x.tolist(), keys)
    ]
    write_text(path, "\n".join(lines) + "\n")


def save_dataset(split: DatasetSplit, path) -> None:
    """Write a dataset directory containing train.edlset and val.edlset."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    _write_split_file(directory / TRAIN_FILENAME, split.train, split)
    _write_split_file(directory / VAL_FILENAME, split.validation, split)


_HEADER_RE = re.compile(
    rf"^{DATASET_MAGIC} (?P<version>\S+) D=(?P<dim>\d+) K=(?P<k>\d+) classes=(?P<classes>\S+)$"
)


def _parse_header(line: str, path):
    m = _HEADER_RE.match(line)
    if not m:
        raise DataFormatError("malformed dataset header", path=path, line=1)
    if m.group("version") != DATASET_VERSION:
        raise DataFormatError(
            f"unsupported dataset version {m.group('version')!r} "
            f"(expected {DATASET_VERSION})",
            path=path, line=1,
        )
    dim = int(m.group("dim"))
    k_known = int(m.group("k"))
    classes = tuple(m.group("classes").split(","))
    if dim < 1:
        raise DataFormatError("D must be >= 1", path=path, line=1)
    if any(not _NAME_RE.match(c) for c in classes):
        raise DataFormatError("empty or malformed class name", path=path, line=1)
    if len(set(classes)) != len(classes):
        raise DataFormatError("duplicate class name", path=path, line=1)
    if k_known > len(classes):
        raise DataFormatError("K exceeds the number of classes", path=path, line=1)
    return dim, k_known, classes


def _parse_labels(label_field: str, flag_field: str, k_known: int, k_total: int,
                  forbid_unknown: bool, path, lineno) -> tuple[tuple[int, ...], bool]:
    """The sorted label indices and the unknown flag of one record."""
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
        raise DataFormatError(
            f"unknown flag must be 0 or 1, got {flag_field!r}", path=path, line=lineno
        )
    is_unknown = flag_field == "1"
    if is_unknown != any(l >= k_known for l in labels):
        raise DataFormatError("unknown flag does not match labels", path=path, line=lineno)
    if forbid_unknown and is_unknown:
        raise DataFormatError(
            "train split must not contain unknown samples", path=path, line=lineno
        )
    return labels, is_unknown


def _check_record(line: str, lineno: int, dim: int, k_known: int, k_total: int,
                  forbid_unknown: bool, path) -> None:
    """Raise DataFormatError naming `lineno` if the record breaks a rule.

    This is the one statement of the record rules; the bulk parser in
    _parse_records accepts exactly the files in which every record passes.
    """
    fields = line.split("\t")
    if len(fields) != 4:
        raise DataFormatError(
            f"expected 4 tab-separated fields, got {len(fields)}", path=path, line=lineno
        )
    sample_id, feat_field, label_field, flag_field = fields
    if not sample_id:
        raise DataFormatError("empty sample id", path=path, line=lineno)
    try:
        features = [float(v) for v in feat_field.split(",")]
    except ValueError as exc:
        raise DataFormatError(f"bad feature value: {exc}", path=path, line=lineno) from exc
    if len(features) != dim:
        raise DataFormatError(
            f"expected {dim} features, got {len(features)}", path=path, line=lineno
        )
    if not all(map(math.isfinite, features)):
        raise DataFormatError("non-finite feature", path=path, line=lineno)
    _parse_labels(label_field, flag_field, k_known, k_total, forbid_unknown, path, lineno)


def _parse_records(records, dim: int, k_known: int, k_total: int,
                   forbid_unknown: bool) -> SampleTable | None:
    """All records as one table, or None if any record breaks a rule.

    Each rule of _check_record is applied to many rows at once: per block
    of rows, one split of the joined lines on tabs and one float() pass
    over the joined feature fields; the label rules run once per distinct
    (labels, flag) pair. Blocks bound the temporary strings held at once.
    """
    # a line with 3 tabs splits into the 4 fields of a record
    if set(map(str.count, records, repeat("\t"))) - {3}:
        return None
    n = len(records)
    blocks, ids, label_fields, flag_fields = [], [], [], []
    for start in range(0, n, _PARSE_BLOCK_ROWS):
        fields = "\t".join(records[start:start + _PARSE_BLOCK_ROWS]).split("\t")
        feat_fields = fields[1::4]
        # a field with dim - 1 commas holds dim features
        if set(map(str.count, feat_fields, repeat(","))) - {dim - 1}:
            return None
        try:
            values = np.fromiter(map(float, ",".join(feat_fields).split(",")),
                                 dtype=np.float64, count=len(feat_fields) * dim)
        except ValueError:
            return None
        blocks.append(values.reshape(len(feat_fields), dim))
        ids += fields[0::4]
        label_fields += fields[2::4]
        flag_fields += fields[3::4]
    x = np.concatenate(blocks) if blocks else np.zeros((0, dim))
    if not (all(ids) and np.isfinite(x).all()):
        return None
    pairs = list(zip(label_fields, flag_fields))
    distinct = {pair: code for code, pair in enumerate(dict.fromkeys(pairs))}
    code_labels = np.zeros((len(distinct), k_total), dtype=bool)
    code_unknown = np.zeros(len(distinct), dtype=bool)
    for (label_field, flag_field), code in distinct.items():
        try:
            labels, is_unknown = _parse_labels(
                label_field, flag_field, k_known, k_total, forbid_unknown, None, None)
        except DataFormatError:
            return None
        code_labels[code, list(labels)] = True
        code_unknown[code] = is_unknown
    codes = np.fromiter(map(distinct.__getitem__, pairs), dtype=np.intp, count=n)
    return SampleTable(tuple(ids), x, code_labels[codes], code_unknown[codes])


def _read_split_header(path: Path):
    """D, K and the class list from the first line of a split file, read alone."""
    if not path.is_file():
        raise DataFormatError("missing dataset file", path=path)
    line = read_first_line(path)
    if line is None:
        raise DataFormatError("empty dataset file", path=path, line=1)
    return _parse_header(line, path)


def _load_split_file(path: Path, forbid_unknown: bool):
    dim, k_known, classes = _read_split_header(path)
    records = read_lines(path)[1:]
    rows = _parse_records(records, dim, k_known, len(classes), forbid_unknown)
    if rows is None:
        # some record breaks a rule: name the first such line
        for lineno, line in enumerate(records, start=2):
            _check_record(line, lineno, dim, k_known, len(classes), forbid_unknown, path)
        raise AssertionError(f"{path}: the bulk parser rejected records the checker accepts")
    return dim, k_known, classes, rows


def _check_headers_agree(train_header, val_header, directory: Path) -> None:
    if train_header != val_header:
        raise DataFormatError(
            "train and validation headers disagree", path=directory / VAL_FILENAME, line=1
        )


def load_dataset(path) -> DatasetSplit:
    """Read a dataset directory written by save_dataset."""
    directory = Path(path)
    train_meta = _load_split_file(directory / TRAIN_FILENAME, forbid_unknown=True)
    val_meta = _load_split_file(directory / VAL_FILENAME, forbid_unknown=False)
    _check_headers_agree(train_meta[:3], val_meta[:3], directory)
    dim, k_known, classes = train_meta[:3]
    return DatasetSplit(
        train=train_meta[3],
        validation=val_meta[3],
        known_classes=classes[:k_known],
        unknown_classes=classes[k_known:],
        dim=dim,
    )


def load_validation(path) -> tuple[tuple[str, ...], SampleTable]:
    """The known classes and the validation rows of a dataset directory.

    Reads all of val.edlset but only the header line of train.edlset,
    which must agree with the validation header on D, K and the class
    list; the train records are neither read nor checked. The rows are
    those of ``load_dataset(path).validation``, with D feature columns.
    """
    directory = Path(path)
    train_header = _read_split_header(directory / TRAIN_FILENAME)
    dim, k_known, classes, rows = _load_split_file(directory / VAL_FILENAME,
                                                   forbid_unknown=False)
    _check_headers_agree(train_header, (dim, k_known, classes), directory)
    return classes[:k_known], rows


def load_ciw_config(path) -> CIWTable:
    """Parse a class-importance-weight file: one `name<TAB>weight` per line.

    Whatever is wrong with the file, a DataFormatError names it and the line.
    """
    weights = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0]:
            raise DataFormatError("expected `class_name<TAB>weight`", path=path, line=lineno)
        name, text = fields
        try:
            weight = float(text)
        except ValueError:
            raise DataFormatError(f"non-numeric weight {text!r}", path=path, line=lineno) from None
        if not math.isfinite(weight):
            raise DataFormatError(f"non-finite weight {text!r}", path=path, line=lineno)
        if name in weights:
            raise DataFormatError(f"duplicate class name {name!r}", path=path, line=lineno)
        weights[name] = weight
    return CIWTable.from_pairs(weights.items())


def save_ciw_config(table: CIWTable, path) -> None:
    lines = [f"{name}\t{repr(weight)}" for name, weight in table.entries]
    write_text(path, "\n".join(lines) + "\n")


def random_ciw_table(class_names, seed: int) -> CIWTable:
    """Seeded uniform weights in [0.1, 1.0], one per class name."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, size=len(tuple(class_names)))
    return CIWTable.from_pairs(zip(class_names, (float(w) for w in weights)))


def samples_to_arrays(rows, k_known: int, dim: int):
    """Split rows into (ids, features (N,D), known multi-hot (N,K), unknown flags).

    `rows` is a SampleTable, or a sequence of SampleTables stacked in order;
    the arrays returned are fresh copies.
    """
    tables = [rows] if isinstance(rows, SampleTable) else list(rows)
    for t in tables:
        if t.x.shape[1] != dim or t.labels.shape[1] < k_known:
            raise ValueError(f"rows of {t.x.shape[1]} features and {t.labels.shape[1]} "
                             f"label columns do not fit dim={dim}, k_known={k_known}")
    ids = [i for t in tables for i in t.ids]
    # the empty leading blocks give the shapes when there are no tables
    x = np.concatenate([np.empty((0, dim))] + [t.x for t in tables])
    y = np.concatenate([np.empty((0, k_known), dtype=bool)]
                       + [t.labels[:, :k_known] for t in tables], dtype=np.float64)
    unknown = np.concatenate([np.empty(0, dtype=bool)] + [t.unknown for t in tables])
    return ids, x, y, unknown
