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

Split files are written and read in blocks, so neither side holds a
whole file's text: ``save_dataset`` formats and writes
``_WRITE_BLOCK_ROWS`` (4096) records at a time, and the loader parses
the blocks of lines that ``fileio.read_line_blocks`` yields (about 1 MiB
of text each) as they arrive, growing the feature matrix in place.

A save of at least ``_TWO_PROCESS_MIN_VALUES`` feature values, by a
process that may use two CPUs and knows its interpreter
(``sys.executable``), formats in two processes. The rows, train then
validation, are cut at their midpoint. A second interpreter runs
``records.py``, which imports neither numpy nor this package, and
formats the second half into an unnamed temporary file in the target
directory. It is sent the features as float64 bytes straight from the
arrays and the ids and label fields a block at a time. Meanwhile this
process formats the first half. Both run ``records.format_records``, so
the bytes are those of a one-process save, and each process holds one
block's strings at a time. This process alone writes the four files.
It copies the second process's records into them 1 MiB at a time,
hashing them as it goes. A second process that exits non-zero is an
OSError that ends with its stderr. On any failure the second process is
killed and reaped. ``EDL_NUM_THREADS`` sets BLAS threads only and does
not govern this; ``taskset -c 0`` keeps a save on one CPU. Either way no
file is replaced before all four are written, so a save that fails
leaves the directory as it was.

The record rules are stated once, in ``_Records._add``, which checks a
whole block of records at a time. A block that breaks a rule is parsed
again by the same code one line at a time, and the first bad line is
named in the error. A file is read once on every path, a rejected one
included: before that error is raised, the rest of the file is decoded,
so a byte that is not UTF-8 anywhere in it is the error reported.

Beside each split file ``save_dataset`` writes its cache, named after it
with ``CACHE_SUFFIX`` (``train.edlset.cache``). Its first line is the hex
SHA-256 of the split file's bytes followed by the cache's payload; the
payload is x, labels and unknown as .npy blocks (``np.lib.format``), then
the ids joined by newlines, in UTF-8. The loaders still read and check a
split file's header line. They take the rows from the cache only when the
digest, recomputed _CACHE_BLOCK_BYTES (1 MiB) at a time, matches and the
arrays fit the header and the record rules; in every other case they
parse the records. So errors come from the text alone, and a missing,
stale or damaged cache changes no result. No loader writes a file.

In memory a split is a SampleTable: one frozen row table of arrays, not a
tuple of per-row objects. It holds `ids` (a tuple of N str), `x` (an
(N, D) float64 feature matrix), `labels` (an (N, C) bool matrix over all
C classes, known first, then unknown) and `unknown` (an (N,) bool flag
array); the arrays are read-only. Every row selection is a table: an int
index gives the one-row table at that position, and slices, bool masks
and index arrays give the rows they select.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, combinations, compress, repeat
from pathlib import Path

import numpy as np

from . import records
from .base_rates import CIWTable
from .errors import ConfigError, DataFormatError
from .fileio import atomic_open, read_first_line, read_line_blocks, read_lines, write_text

DATASET_MAGIC = "#edlset"
DATASET_VERSION = "v1"
TRAIN_FILENAME = "train.edlset"
VAL_FILENAME = "val.edlset"
# the cache of a split file is named after it with this suffix
CACHE_SUFFIX = ".cache"

# hard cap on the noise norm, in units of the noise scale
NOISE_RADIUS = 2.0

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# records formatted per block when saving; bounds the temporary strings
_WRITE_BLOCK_ROWS = 4096

# feature values a save must hold before a second process formats half of
# its records; below it the process's start costs more than it saves
_TWO_PROCESS_MIN_VALUES = 50_000

# bytes hashed or read per block when a cache is checked and read, or
# copied from the second process's records
_CACHE_BLOCK_BYTES = 1 << 20

# what a written id or name may not hold: the field tab and the str.splitlines
# line breaks, where the readers split a file, and the surrogate code points,
# which UTF-8 cannot encode
_UNWRITABLE_RE = re.compile("[\t\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029\ud800-\udfff]")


def _check_writable(values, what: str) -> None:
    """Raise ValueError naming the first of ``values`` that is empty or holds a
    tab or a line break, which the file's reader would reject, or a surrogate
    code point, which the UTF-8 writer would fail on. One regex pass over the
    joined values of each block of _WRITE_BLOCK_ROWS, when every one is fine."""
    for start in range(0, len(values), _WRITE_BLOCK_ROWS):
        block = values[start:start + _WRITE_BLOCK_ROWS]
        if not all(block) or _UNWRITABLE_RE.search("".join(block)):
            bad = next(v for v in block if not v or _UNWRITABLE_RE.search(v))
            raise ValueError(f"{what} {bad!r} is empty or holds a tab, a line break or a "
                             "surrogate; the file could not be written as UTF-8 and read back")


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
    the rows it selects. An empty index array selects no row; a bool mask
    that is not one entry per row raises IndexError. A table equals another
    table with the same arrays.
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
            # numpy takes an empty mask as an empty index array, for any length
            if key.dtype == bool and key.shape != (len(self.ids),):
                raise IndexError(f"a bool mask of shape {key.shape} does not fit the "
                                 f"table's {len(self.ids)} rows")
            if key.size == 0 and key.dtype != bool:
                key = key.astype(np.intp)  # np.asarray([]) is float64, which numpy rejects
        x = self.x[key]  # numpy checks the index range
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
        if self.k_known < 1:
            raise ConfigError(f"k_known must be >= 1, got {self.k_known}")
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

    # the loop runs once per row, so it calls the generator's bound methods
    # directly and makes no call of its own
    random, integers, standard_normal = rng.random, rng.integers, rng.standard_normal
    k_known, k_unknown, dim, n_train = cfg.k_known, cfg.k_unknown, cfg.dim, cfg.n_train
    normal_rate, unknown_rate, cooccurrence = cfg.normal_rate, cfg.unknown_rate, cfg.cooccurrence
    max_radius, root = NOISE_RADIUS * cfg.noise, 1.0 / dim
    codes = {}  # label tuple -> row of the centre and label tables, by first use
    row_codes, directions, factors = [], [], []
    for i in range(n_train + cfg.n_val):
        # a validation row is unknown with probability unknown_rate; any other
        # row is label-free with probability normal_rate, else carries one
        # known label, or with probability cooccurrence a second one
        if i >= n_train and k_unknown > 0 and random() < unknown_rate:
            labels = (k_known + int(integers(k_unknown)),)
        elif random() < normal_rate:
            labels = ()
        else:
            k = int(integers(k_known))
            if k_known > 1 and random() < cooccurrence:
                j = int(integers(k_known - 1))
                labels = (k, j + 1) if j >= k else (j, k)
            else:
                labels = (k,)
        row_codes.append(codes.setdefault(labels, len(codes)))
        # noise uniform in the ball of radius NOISE_RADIUS * noise: a Gaussian
        # direction, redrawn while zero, scaled to a radius drawn after it;
        # math.sqrt(d.dot(d)) is the Euclidean norm as np.linalg.norm computes it
        direction = standard_normal(dim)
        norm = math.sqrt(direction.dot(direction))
        while norm == 0.0:
            direction = standard_normal(dim)
            norm = math.sqrt(direction.dot(direction))
        directions.append(direction)
        factors.append(max_radius * random() ** root / norm)

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


def _write_hashed(fh, digest, data) -> None:
    """Write the bytes-like ``data`` to ``fh`` and add it to ``digest``."""
    fh.write(data)
    digest.update(data)


def _tail_fields(rows: SampleTable, block: slice, tails: dict) -> list[str]:
    """The label and flag fields of the rows in ``block``, each the
    comma-separated label indices, a tab and the unknown flag. ``tails``
    keeps them, formatted once per distinct (labels, flag) row; a row's key
    is the bytes of its label row and flag as bools."""
    flagged = np.column_stack((rows.labels[block], rows.unknown[block]))
    keys = flagged.view(np.dtype((np.void, flagged.shape[1]))).ravel().tolist()
    for key in dict.fromkeys(keys).keys() - tails.keys():
        indices = np.flatnonzero(np.frombuffer(key[:-1], dtype=bool)).tolist()
        tails[key] = f"{','.join(map(str, indices))}\t{key[-1]}"
    return list(map(tails.__getitem__, keys))


def _blocks(start: int, stop: int):
    return (slice(i, min(i + _WRITE_BLOCK_ROWS, stop))
            for i in range(start, stop, _WRITE_BLOCK_ROWS))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _in_two_processes(n_values: int) -> bool:
    """Whether a save of ``n_values`` feature values starts a second process."""
    return n_values >= _TWO_PROCESS_MIN_VALUES and bool(sys.executable) and _usable_cpus() >= 2


class _RecordProcess:
    """A second interpreter that formats the records of the rows it is sent
    (``records.main``) into an unnamed temporary file in the target
    directory. As a context manager it kills and reaps the process if it
    is still running, and closes the file, which removes it."""

    def __init__(self, directory: Path, dim: int):
        # imported here, so that importing the package does not pay for them
        import subprocess
        import tempfile

        # where the OS has no unnamed files, a "."-prefixed one, unlinked at once
        self.out = tempfile.TemporaryFile(dir=directory, prefix=".", suffix=".tmp")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-I", "-S", records.__file__, str(dim)],
                stdin=subprocess.PIPE, stdout=self.out, stderr=subprocess.PIPE)
        except BaseException:
            self.out.close()
            raise
        self.done = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stderr, self.out):
            with contextlib.suppress(OSError):
                stream.close()

    def send(self, shares, tails: dict) -> None:
        """Send the rows of each (table, first row) of ``shares``, a block of
        _WRITE_BLOCK_ROWS at a time: the features straight from the table's
        memory, then the ids and the label and flag fields; then close the
        process's input."""
        write = self.proc.stdin.write
        try:
            for rows, start in shares:
                x = np.ascontiguousarray(rows.x)
                for block in _blocks(start, len(rows)):
                    text = "\n".join(chain(rows.ids[block], _tail_fields(rows, block, tails)))
                    text = text.encode("utf-8")
                    write(records.BLOCK_HEADER.pack(block.stop - block.start, len(text)))
                    write(memoryview(x[block]))
                    write(text)
            self.proc.stdin.close()
        except BrokenPipeError:
            self.wait()  # names the process's failure, when it failed
            raise

    def wait(self) -> None:
        """Let the process read to the end of its input and format it; an
        OSError with the end of its stderr when it exits non-zero."""
        if self.done:
            return
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        err = self.proc.stderr.read()
        if self.proc.wait():
            tail = err.decode("utf-8", "replace").strip()[-500:]
            raise OSError(f"the record-formatting process exited with status "
                          f"{self.proc.returncode}: {tail}")
        self.out.seek(0)
        self.done = True

    def copy(self, fh, digest, lines: int) -> None:
        """Write the next ``lines`` records the process wrote to ``fh`` and add
        them to ``digest``, _CACHE_BLOCK_BYTES at a time."""
        self.wait()
        while lines:
            data = self.out.read(_CACHE_BLOCK_BYTES)
            if not data:
                raise OSError("the record-formatting process wrote too few records")
            n = data.count(b"\n")
            if n >= lines:  # the rest belongs to the next split file
                rest = data.split(b"\n", lines)[-1]
                self.out.seek(-len(rest), os.SEEK_CUR)
                data, n = data[:len(data) - len(rest)], lines
            _write_hashed(fh, digest, data)
            lines -= n

    def check_end(self) -> None:
        if self.out.read(1):
            raise OSError("the record-formatting process wrote too many records")


def _write_split_file(fh, rows: SampleTable, split: DatasetSplit, own: int, tails: dict,
                      child: _RecordProcess | None):
    """Write the header line, then the records of the first ``own`` rows in
    blocks of _WRITE_BLOCK_ROWS rows, with one tolist of the block's features
    and one write of its lines, then those ``child`` formatted for the rest.
    Returns the SHA-256 hash object of the bytes written."""
    header = (
        f"{DATASET_MAGIC} {DATASET_VERSION} D={split.dim} K={split.k_known} "
        f"classes={','.join(split.classes)}"
    )
    digest = hashlib.sha256()
    _write_hashed(fh, digest, f"{header}\n".encode("utf-8"))
    for block in _blocks(0, own):
        _write_hashed(fh, digest, records.format_records(
            rows.ids[block], rows.x[block].tolist(), _tail_fields(rows, block, tails)))
    if own < len(rows):
        child.copy(fh, digest, len(rows) - own)
    return digest


def _cache_path(path: Path) -> Path:
    return path.with_name(path.name + CACHE_SUFFIX)


def _write_split_cache(fh, rows: SampleTable, digest) -> None:
    """Write to ``fh`` the cache of a split file whose bytes ``digest`` has
    hashed: the hex digest of those bytes and of the payload, on a line of
    its own, then the payload. The payload is x, labels and unknown as .npy
    blocks, then the ids joined by newlines, in UTF-8. Each part is written
    from the table's own memory or one block of ids at a time."""
    fh.write(b"0" * 64 + b"\n")  # the hex digest's place, filled in last
    for array in (rows.x, rows.labels, rows.unknown):
        array = np.ascontiguousarray(array)
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, np.lib.format.header_data_from_array_1_0(array))
        _write_hashed(fh, digest, header.getvalue())
        _write_hashed(fh, digest, memoryview(array))
    for start in range(0, len(rows), _WRITE_BLOCK_ROWS):
        ids = "\n".join(rows.ids[start:start + _WRITE_BLOCK_ROWS])
        _write_hashed(fh, digest, ("\n" + ids if start else ids).encode("utf-8"))
    fh.seek(0)
    fh.write(digest.hexdigest().encode("ascii"))


def save_dataset(split: DatasetSplit, path) -> None:
    """Write a dataset directory containing train.edlset and val.edlset,
    each followed by its cache (train.edlset.cache, val.edlset.cache).

    No file is replaced before all four are written; then they replace
    their targets in that order. With at least _TWO_PROCESS_MIN_VALUES
    feature values, a known interpreter and two usable CPUs, the second
    half of the rows (train, then validation) is formatted by a second
    process (``records``); the bytes are the same. A sample id with a tab,
    a line break or a surrogate code point is a ValueError, raised before
    anything is written.
    """
    for rows in (split.train, split.validation):
        _check_writable(rows.ids, "sample id")
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    splits = ((directory / TRAIN_FILENAME, split.train),
              (directory / VAL_FILENAME, split.validation))
    n_rows = len(split.train) + len(split.validation)
    tails = {}
    with contextlib.ExitStack() as stack:
        # the first ``own`` rows of train, then validation, are formatted here
        own, child = n_rows, None
        if _in_two_processes(n_rows * split.dim):
            own -= n_rows // 2
            child = stack.enter_context(_RecordProcess(directory, split.dim))
            child.send([(split.train, min(own, len(split.train))),
                        (split.validation, max(own - len(split.train), 0))], tails)
        # entered last to first, so that they replace their targets first to last
        paths = [p for path, _ in splits for p in (path, _cache_path(path))]
        files = [stack.enter_context(atomic_open(p, binary=True)) for p in reversed(paths)]
        files.reverse()
        for (_, rows), fh, cache in zip(splits, files[0::2], files[1::2]):
            mine = min(own, len(rows))
            digest = _write_split_file(fh, rows, split, mine, tails, child)
            _write_split_cache(cache, rows, digest)
            own -= mine
        if child is not None:
            child.check_end()


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
    if k_known < 1:
        raise DataFormatError("K must be >= 1", path=path, line=1)
    if any(not _NAME_RE.match(c) for c in classes):
        raise DataFormatError("empty or malformed class name", path=path, line=1)
    if len(set(classes)) != len(classes):
        raise DataFormatError("duplicate class name", path=path, line=1)
    if k_known > len(classes):
        raise DataFormatError("K exceeds the number of classes", path=path, line=1)
    return dim, k_known, classes


def _parse_labels(label_field: str, flag_field: str, k_known: int, k_total: int,
                  forbid_unknown: bool) -> tuple[tuple[int, ...], bool]:
    """The sorted label indices and the unknown flag of one record, or a
    DataFormatError, with no location, for the first label rule it breaks."""
    if label_field:
        try:
            labels = tuple(int(v) for v in label_field.split(","))
        except ValueError as exc:
            raise DataFormatError(f"bad label index: {exc}") from exc
    else:
        labels = ()
    if len(set(labels)) != len(labels):
        raise DataFormatError("duplicate label index")
    labels = tuple(sorted(labels))
    if labels and (labels[0] < 0 or labels[-1] >= k_total):
        raise DataFormatError("label index out of range")
    if flag_field not in ("0", "1"):
        raise DataFormatError(f"unknown flag must be 0 or 1, got {flag_field!r}")
    is_unknown = flag_field == "1"
    if is_unknown != any(l >= k_known for l in labels):
        raise DataFormatError("unknown flag does not match labels")
    if forbid_unknown and is_unknown:
        raise DataFormatError("train split must not contain unknown samples")
    return labels, is_unknown


class _Records:
    """The records of one split file, parsed a block of lines at a time.

    ``_add`` is the one statement of the record rules. It checks a block in
    the order a record is read: 4 tab-separated fields, a non-empty id,
    float features, ``dim`` of them, all finite, and then the label rules,
    once per (label field, flag field) pair not seen before. A block that
    breaks a rule adds no row and raises a DataFormatError with no
    location; for a block of one line, its message is that of the line's
    first broken rule. The feature matrix and the pair codes grow in place
    by each block's rows, so no field string outlives its block and no
    second copy of the features is made.
    """

    def __init__(self, dim: int, k_known: int, k_total: int, forbid_unknown: bool):
        self.dim, self.k_known, self.k_total = dim, k_known, k_total
        self.forbid_unknown = forbid_unknown
        self.ids = []
        self.x = np.empty((0, dim))
        self.codes = np.empty(0, dtype=np.intp)
        self.pair_codes = {}  # (label field, flag field) -> code, by first use
        self.pair_labels = []  # the (labels, is_unknown) of each code

    def add(self, lines: list[str]) -> tuple[int, str] | None:
        """Add the records of ``lines`` and return None, or return the index of
        the first line that breaks a rule and the rule's message, with the
        lines before it added. A block that breaks a rule is added again one
        line at a time, by the same code, to find that line."""
        try:
            self._add(lines)
            return None
        except DataFormatError:
            pass  # its traceback, which holds the block's fields, is let go here
        for i, line in enumerate(lines):
            try:
                self._add([line])
            except DataFormatError as exc:
                return i, str(exc)
        return None

    def _add(self, lines: list[str]) -> None:
        # a line with 3 tabs splits into the 4 fields of a record
        tabs = set(map(str.count, lines, repeat("\t"))) - {3}
        if tabs:
            raise DataFormatError(f"expected 4 tab-separated fields, got {tabs.pop() + 1}")
        fields = "\t".join(lines).split("\t")
        ids = fields[0::4]
        if not all(ids):
            raise DataFormatError("empty sample id")
        feat_fields = fields[1::4]
        # split 1024 fields at a time, so the block's value strings are never all held
        values_text = chain.from_iterable(",".join(feat_fields[i:i + 1024]).split(",")
                                          for i in range(0, len(feat_fields), 1024))
        try:
            values = np.fromiter(map(float, values_text), dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(f"bad feature value: {exc}") from exc
        # a field with dim - 1 commas holds dim features
        commas = set(map(str.count, feat_fields, repeat(","))) - {self.dim - 1}
        if commas:
            raise DataFormatError(f"expected {self.dim} features, got {commas.pop() + 1}")
        if not np.isfinite(values).all():
            raise DataFormatError("non-finite feature")
        pairs = list(zip(fields[2::4], fields[3::4]))
        for pair in dict.fromkeys(pairs):
            if pair not in self.pair_codes:
                self.pair_labels.append(_parse_labels(*pair, self.k_known, self.k_total,
                                                      self.forbid_unknown))
                self.pair_codes[pair] = len(self.pair_codes)
        n, m = len(self.ids), len(ids)
        # resize reallocates, so the arrays grow without a copy held beside them
        self.x.resize((n + m, self.dim), refcheck=False)
        self.x[n:] = values.reshape(m, self.dim)
        self.codes.resize(n + m, refcheck=False)
        self.codes[n:] = np.fromiter(map(self.pair_codes.__getitem__, pairs),
                                     dtype=np.intp, count=m)
        self.ids += ids

    def table(self) -> SampleTable:
        code_labels = np.zeros((len(self.pair_labels), self.k_total), dtype=bool)
        for code, (labels, _) in enumerate(self.pair_labels):
            code_labels[code, list(labels)] = True
        code_unknown = np.array([is_unknown for _, is_unknown in self.pair_labels], dtype=bool)
        return SampleTable(tuple(self.ids), self.x, code_labels[self.codes],
                           code_unknown[self.codes])


def _read_split_header(path: Path):
    """D, K and the class list from the first line of a split file, read alone."""
    if not path.is_file():
        raise DataFormatError("missing dataset file", path=path)
    line = read_first_line(path)
    if line is None:
        raise DataFormatError("empty dataset file", path=path, line=1)
    return _parse_header(line, path)


def _read_ids(fh) -> list[str]:
    """The newline-joined UTF-8 ids from the position of ``fh`` to its end,
    decoded _CACHE_BLOCK_BYTES at a time."""
    ids, rest = [], b""
    while block := fh.read(_CACHE_BLOCK_BYTES):
        head, newline, rest = (rest + block).rpartition(b"\n")
        if newline:
            ids += head.decode("utf-8").split("\n")
    if ids or rest:
        ids.append(rest.decode("utf-8"))
    return ids


def _read_cache(path: Path, dim: int, k_known: int, k_total: int,
                forbid_unknown: bool) -> SampleTable | None:
    """The rows stored in the cache of the split file at ``path``, or None.

    None when the cache is missing or unreadable, when its first line is not
    the digest of the split file's bytes and its own payload, recomputed
    here _CACHE_BLOCK_BYTES at a time, or when its arrays break a rule the
    parser enforces: D features and one label column per class, finite
    features, non-empty ids, unknown flags that match the labels, and no
    unknown row where ``forbid_unknown``.
    """
    try:
        with open(_cache_path(path), "rb") as fh:
            stored = fh.readline(_CACHE_BLOCK_BYTES)
            digest = hashlib.sha256()
            with open(path, "rb") as text:
                while block := text.read(_CACHE_BLOCK_BYTES):
                    digest.update(block)
            payload = fh.tell()
            while block := fh.read(_CACHE_BLOCK_BYTES):
                digest.update(block)
            if stored != digest.hexdigest().encode("ascii") + b"\n":
                return None
            fh.seek(payload)
            x, labels, unknown = (np.lib.format.read_array(fh) for _ in range(3))
            ids = _read_ids(fh)
    except (OSError, ValueError):  # ValueError covers a bad .npy block or id byte
        return None
    n = len(ids)
    if ((x.dtype, x.shape) != (np.float64, (n, dim))
            or (labels.dtype, labels.shape) != (bool, (n, k_total))
            or (unknown.dtype, unknown.shape) != (bool, (n,))
            or (unknown != labels[:, k_known:].any(axis=1)).any()
            or (forbid_unknown and unknown.any())):
        return None
    try:
        return SampleTable(ids, x, labels, unknown)
    except ValueError:  # an empty id or a non-finite feature
        return None


def _parse_records(path: Path, dim: int, k_known: int, k_total: int,
                   forbid_unknown: bool) -> SampleTable:
    records = _Records(dim, k_known, k_total, forbid_unknown)
    blocks = read_line_blocks(path, skip=1)
    for lines in blocks:
        lineno = len(records.ids) + 2
        bad = records.add(lines)
        del lines  # before the next block is read
        if bad is not None:
            for _ in blocks:  # a byte that is not UTF-8, anywhere in the file, wins
                pass
            raise DataFormatError(bad[1], path=path, line=lineno + bad[0])
    return records.table()


def _load_split_file(path: Path, forbid_unknown: bool):
    """D, K, the class list and the rows of a split file: the rows of its
    cache when that holds them, else those its records parse to."""
    dim, k_known, classes = _read_split_header(path)
    rows = _read_cache(path, dim, k_known, len(classes), forbid_unknown)
    if rows is None:
        rows = _parse_records(path, dim, k_known, len(classes), forbid_unknown)
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


def _load_one_split(path, records_file: str) -> tuple[tuple[str, ...], SampleTable]:
    """The known classes and the rows of the split file ``records_file``; of
    the other split file only the header line is read, which must agree.
    train.edlset is read first, records or header."""
    directory = Path(path)
    headers, rows = [], None
    for name, forbid_unknown in ((TRAIN_FILENAME, True), (VAL_FILENAME, False)):
        if name == records_file:
            *header, rows = _load_split_file(directory / name, forbid_unknown)
        else:
            header = _read_split_header(directory / name)
        headers.append(tuple(header))
    _check_headers_agree(*headers, directory)
    _, k_known, classes = headers[0]
    return classes[:k_known], rows


def load_training(path) -> tuple[tuple[str, ...], SampleTable]:
    """The known classes and the train rows of a dataset directory.

    Reads all of train.edlset but only the header line of val.edlset,
    which must agree with the train header on D, K and the class list;
    the validation records are neither read nor checked. The rows are
    those of ``load_dataset(path).train``, with D feature columns.
    """
    return _load_one_split(path, TRAIN_FILENAME)


def load_validation(path) -> tuple[tuple[str, ...], SampleTable]:
    """The known classes and the validation rows of a dataset directory.

    Reads all of val.edlset but only the header line of train.edlset,
    which must agree with the validation header on D, K and the class
    list; the train records are neither read nor checked. The rows are
    those of ``load_dataset(path).validation``, with D feature columns.
    """
    return _load_one_split(path, VAL_FILENAME)


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
    """Write one `name<TAB>weight` line per class; a class name that is empty
    or holds a tab, a line break or a surrogate code point is a ValueError,
    raised before writing."""
    _check_writable([name for name, _ in table.entries], "class name")
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
