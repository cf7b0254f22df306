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
whole file's text: a save formats ``_WRITE_BLOCK_ROWS`` (4096) records at
a time, and the loader parses the blocks of lines that
``fileio.read_line_blocks`` yields (about 1 MiB of text each) as they
arrive, adding each record's features to one growing float64 array.

One loop writes every dataset directory. It takes the rows a block at a
time, train's then validation's: from a finished split for
``save_dataset``, and for ``generate_and_save_dataset`` as each block is
drawn, so the records are formatted while later rows are still drawn. A
save of at least ``_TWO_PROCESS_MIN_VALUES`` feature values, by a
process that may use two CPUs and knows its interpreter
(``sys.executable``), starts a second interpreter that runs
``records.py``, which imports neither numpy nor this package. A block
goes to that process while it has at most one block it has not
acknowledged (it writes one byte on a pipe for each block it has
formatted), so the shares follow the two processes' progress; any other
block is formatted here. Each process formats into an unnamed temporary
file of its own in the target directory. The second one is sent the
features as float64 bytes straight from the arrays and the ids and label
fields. Both run ``records.format_records``, so the bytes are those of a
one-process save, and each process holds one block's strings at a time.
Once every block is formatted, this process alone writes the four files:
each split file in block order, copied from the two temporary files
1 MiB at a time and hashed as it goes, then its cache. A second process
that exits non-zero is an OSError that ends with its stderr. On any
failure the second process is killed and reaped. ``EDL_NUM_THREADS``
sets BLAS threads only and does not govern this; ``taskset -c 0`` keeps
a save, ``generate``'s too, on one CPU. Either way no file is replaced
before all four are written, so a save that fails leaves the directory
as it was.

The record rules are stated once, in ``_parse_records``, which checks
each record on its own line, in the order its fields are read, and names
the first line that breaks a rule in the error. A file is read once on
every path, a rejected one included: before that error is raised, the
rest of the file is decoded, so a byte that is not UTF-8 anywhere in it
is the error reported.

Beside each split file ``save_dataset`` writes its cache, named after it
with ``CACHE_SUFFIX`` (``train.edlset.cache``). Its first line is the hex
SHA-256 of the split file's bytes followed by the cache's payload; the
payload is x, labels and unknown as .npy blocks (``np.lib.format``), then
the ids joined by newlines, in UTF-8. The rows come from the cache only
when the digest, recomputed _CACHE_BLOCK_BYTES (1 MiB) at a time, matches
and the arrays fit the header and the record rules; in every other case
the records are parsed. So errors come from the text alone, and a
missing, stale or damaged cache changes no result. No loader writes a file.

One loop reads a dataset directory, for ``load_dataset`` and for the
one-split loaders ``load_training`` and ``load_validation`` alike. It reads
train.edlset, then val.edlset: of each, the header line, then, when that
split's rows are wanted, the rows, from the cache before the parse. That
the two headers agree is checked last. A loader reports the first of
these that fails: train header, train rows (when read), val header, val
rows (when read), agreement.

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
import tempfile
from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, compress, islice
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

# feature values a save must hold before a second process formats a share
# of its records; below it the process's start costs more than it saves
_TWO_PROCESS_MIN_VALUES = 50_000

# the size asked for the second process's input pipe, the most an
# unprivileged Linux process may set by default
_PIPE_BYTES = 1 << 20

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
    one label column per class, known first. There is at least one known
    class, as the file header requires.
    """

    train: SampleTable
    validation: SampleTable
    known_classes: tuple[str, ...]
    unknown_classes: tuple[str, ...]
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not self.known_classes:
            raise ValueError("known_classes must hold at least one class")
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


def _pair(k: int, index: int) -> tuple[int, int]:
    """The pair at ``index`` of ``list(combinations(range(k), 2))``, found
    without the list."""
    # the pairs whose first element is above a number t(t+1)/2, with
    # t = k - 2 - a; the first element of the pair at ``index`` is set by the
    # largest t whose count does not pass the number of pairs after it
    after = k * (k - 1) // 2 - 1 - index
    t = (math.isqrt(8 * after + 1) - 1) // 2
    return k - 2 - t, k - 1 - (after - t * (t + 1) // 2)


def _unknown_prototypes(rng, cfg, known_protos):
    k = cfg.k_known
    picked = rng.choice(k * (k - 1) // 2, size=cfg.k_unknown, replace=False)
    protos = []
    for p in picked:
        a, b = _pair(k, int(p))
        protos.append(cfg.unknown_scale * 0.5 * (known_protos[a] + known_protos[b]))
    return np.array(protos) if protos else np.zeros((0, cfg.dim))


def generate_dataset(cfg: GenConfig) -> DatasetSplit:
    """Deterministic synthetic dataset; same config -> identical samples.

    Draws are made row by row in a fixed order (label draws, then the noise
    direction, then its radius), in blocks of _WRITE_BLOCK_ROWS rows, train's
    then validation's. One (n_train + n_val, dim) float64 array is allocated
    before anything is drawn, and each row's direction is copied into it;
    once a block is drawn its features are assembled in place, scaled by
    each row's factor and shifted by its centre, the same bits as
    centre + factor * direction. A geometry too large for float64 (noise,
    separation and unknown_scale multiply) is a ConfigError, raised at the
    first block it reaches; so is a size that cannot be allocated, or that
    numpy cannot address, found before anything is drawn.
    """
    blocks = _generate_split(cfg)
    while True:
        try:
            next(blocks)
        except StopIteration as end:
            return end.value


def _generate_split(cfg: GenConfig):
    """Draw the rows of ``cfg`` a block of _WRITE_BLOCK_ROWS at a time, train's
    then validation's, no block across both. Yield (0 for train or 1 for
    validation, the block's rows) as soon as each block is drawn, and return
    the DatasetSplit of them all."""
    n_train, n_rows = cfg.n_train, cfg.n_train + cfg.n_val
    k_known, k_unknown, dim = cfg.k_known, cfg.k_unknown, cfg.dim
    # label sets that can be drawn: none, one or two known, one unknown
    n_sets = min(n_rows, 1 + k_known + k_known * (k_known - 1) // 2 + k_unknown)
    try:
        # the features of every row, allocated before anything is drawn: each
        # row's noise direction is copied in as it is drawn, and a block's rows
        # become their features in place once all of them are
        try:
            x = np.empty((n_rows, dim))
        except ValueError:  # more bytes than an address can count
            raise MemoryError from None
        labels = np.empty((n_rows, k_known + k_unknown), dtype=bool)
        unknown = np.empty(n_rows, dtype=bool)
        # the centre and label row of each label set, by first use
        centres = np.zeros((n_sets, dim))
        code_labels = np.zeros((n_sets, k_known + k_unknown), dtype=bool)
        rng = np.random.default_rng(cfg.seed)
        with np.errstate(over="ignore", invalid="ignore"):
            known_protos = _known_prototypes(rng, cfg)
            unknown_protos = _unknown_prototypes(rng, cfg, known_protos)
    except MemoryError:
        raise ConfigError(
            f"a dataset of dim {cfg.dim} with {cfg.n_train} train and {cfg.n_val} "
            "validation rows does not fit in memory; lower dim, n_train or n_val"
        ) from None

    # the loop runs once per row, so it calls the generator's bound methods
    # directly and makes no call of its own
    random, integers, standard_normal = rng.random, rng.integers, rng.standard_normal
    normal_rate, unknown_rate, cooccurrence = cfg.normal_rate, cfg.unknown_rate, cfg.cooccurrence
    max_radius, root = NOISE_RADIUS * cfg.noise, 1.0 / dim
    codes = {}  # label tuple -> row of the centre and label tables, by first use
    ids = ([], [])
    for which, (start, stop, prefix) in enumerate(((0, n_train, "tr"), (n_train, n_rows, "va"))):
        unknowns = which == 1 and k_unknown > 0
        for block in _blocks(start, stop):
            n_codes, row_codes, factors = len(codes), [], []
            for i in range(block.start, block.stop):
                # a validation row is unknown with probability unknown_rate; any
                # other row is label-free with probability normal_rate, else
                # carries one known label, or with probability cooccurrence a
                # second one
                if unknowns and random() < unknown_rate:
                    row_labels = (k_known + int(integers(k_unknown)),)
                elif random() < normal_rate:
                    row_labels = ()
                else:
                    k = int(integers(k_known))
                    if k_known > 1 and random() < cooccurrence:
                        j = int(integers(k_known - 1))
                        row_labels = (k, j + 1) if j >= k else (j, k)
                    else:
                        row_labels = (k,)
                row_codes.append(codes.setdefault(row_labels, len(codes)))
                # noise uniform in the ball of radius NOISE_RADIUS * noise: a
                # Gaussian direction, redrawn while zero, scaled to a radius drawn
                # after it; math.sqrt(d.dot(d)) is the Euclidean norm as
                # np.linalg.norm computes it
                direction = standard_normal(dim)
                norm = math.sqrt(direction.dot(direction))
                while norm == 0.0:
                    direction = standard_normal(dim)
                    norm = math.sqrt(direction.dot(direction))
                x[i] = direction
                factors.append(max_radius * random() ** root / norm)

            row_codes = np.array(row_codes, dtype=np.intp)
            features = x[block]
            with np.errstate(over="ignore", invalid="ignore"):
                for code, row_labels in enumerate(islice(codes, n_codes, None), n_codes):
                    code_labels[code, list(row_labels)] = True
                    if row_labels and row_labels[0] >= k_known:
                        centres[code] = unknown_protos[row_labels[0] - k_known]
                    elif row_labels:
                        centres[code] = known_protos[list(row_labels)].mean(axis=0)
                # direction * factor + centre, the same bits as centre + factor * direction
                features *= np.array(factors)[:, None]
                features += centres[row_codes]
            if not np.isfinite(features).all():
                raise ConfigError("generated features overflow float64; "
                                  "lower noise, separation or unknown_scale")
            labels[block] = code_labels[row_codes]
            unknown[block] = labels[block, k_known:].any(axis=1)
            block_ids = tuple(f"{prefix}-{i - start:05d}" for i in range(block.start, block.stop))
            ids[which].extend(block_ids)
            yield which, SampleTable(block_ids, features, labels[block], unknown[block])

    train = SampleTable(tuple(ids[0]), x[:n_train], labels[:n_train], unknown[:n_train])
    validation = SampleTable(tuple(ids[1]), x[n_train:], labels[n_train:], unknown[n_train:])
    return DatasetSplit(
        train=train,
        validation=validation,
        known_classes=tuple(f"known_{i + 1:02d}" for i in range(k_known)),
        unknown_classes=tuple(f"unknown_{i + 1:02d}" for i in range(k_unknown)),
        dim=dim,
    )


def _write_hashed(fh, digest, data) -> None:
    """Write the bytes-like ``data`` to ``fh`` and add it to ``digest``."""
    fh.write(data)
    digest.update(data)


def _tail_fields(rows: SampleTable) -> list[str]:
    """The label and flag fields of ``rows``, each the comma-separated label
    indices, a tab and the unknown flag, formatted once per distinct
    (labels, flag) row; a row's key is the bytes of its label row and flag
    as bools, which needs each row contiguous."""
    flagged = np.ascontiguousarray(np.column_stack((rows.labels, rows.unknown)))
    keys = flagged.view(np.dtype((np.void, flagged.shape[1]))).ravel().tolist()
    tails = {}
    for key in set(keys):
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


def _unnamed_file(directory: Path):
    """A temporary file in ``directory`` to write and read bytes, with no
    name; where the OS has no unnamed files, a "."-prefixed one, unlinked at
    once. Closing it removes it."""
    return tempfile.TemporaryFile(dir=directory, prefix=".", suffix=".tmp")


class _RecordProcess:
    """A second interpreter that formats the records of the blocks it is sent
    (``records.main``) into an unnamed temporary file in the target
    directory, and acknowledges each block it has formatted with one byte on
    a pipe. As a context manager it kills and reaps the process if it is
    still running, and closes the file, which removes it, and the pipes."""

    def __init__(self, directory: Path, dim: int):
        # imported here, so that importing the package does not pay for it
        import subprocess

        self.out = _unnamed_file(directory)
        ack_read, ack_write = os.pipe()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-I", "-S", records.__file__, str(dim), str(ack_write)],
                stdin=subprocess.PIPE, stdout=self.out, stderr=subprocess.PIPE,
                pass_fds=(ack_write,))
        except BaseException:
            os.close(ack_read)
            self.out.close()
            raise
        finally:
            # the process holds the only write end left, so its exit ends the pipe
            os.close(ack_write)
        self.acks = os.fdopen(ack_read, "rb", buffering=0)
        # a pipe that holds a whole block of 8 features takes it in one write;
        # through a 64 KiB pipe each refill waits until the process's reading
        # thread gets the interpreter lock, up to 5 ms. Linux only
        with contextlib.suppress(ImportError, AttributeError, OSError):
            import fcntl

            fcntl.fcntl(self.proc.stdin, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        os.set_blocking(ack_read, False)
        self.sent = self.acked = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stderr, self.acks, self.out):
            with contextlib.suppress(OSError):
                stream.close()

    def ready(self) -> bool:
        """Whether the process has at most one block it has not acknowledged;
        the acknowledgements that have arrived are read without waiting."""
        while self.sent - self.acked > 1 and (acks := self.acks.read(self.sent - self.acked)):
            self.acked += len(acks)
        return self.sent - self.acked <= 1

    def send(self, rows: SampleTable, tails) -> None:
        """Send the block ``rows``: its features straight from the table's
        memory, then its ids and its label and flag fields ``tails``."""
        text = "\n".join(chain(rows.ids, tails)).encode("utf-8")
        stdin = self.proc.stdin
        try:
            stdin.write(records.BLOCK_HEADER.pack(len(rows), len(text)))
            stdin.write(memoryview(np.ascontiguousarray(rows.x)))
            stdin.write(text)
            stdin.flush()
        except BrokenPipeError:
            self.wait()  # names the process's failure, when it failed
            raise
        self.sent += 1

    def wait(self) -> None:
        """Close the process's input and let it format what it was sent; an
        OSError with the end of its stderr when it exits non-zero."""
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        err = self.proc.stderr.read()
        if self.proc.wait():
            tail = err.decode("utf-8", "replace").strip()[-500:]
            raise OSError(f"the record-formatting process exited with status "
                          f"{self.proc.returncode}: {tail}")
        self.out.seek(0)

    def check_end(self) -> None:
        if self.out.read(1):
            raise OSError("the record-formatting process wrote too many records")


def _copy_records(source, fh, digest, lines: int) -> None:
    """Write the next ``lines`` records of the file ``source`` to ``fh`` and
    add them to ``digest``, _CACHE_BLOCK_BYTES at a time."""
    while lines:
        data = source.read(_CACHE_BLOCK_BYTES)
        if not data:
            raise OSError("the record-formatting process wrote too few records")
        n = data.count(b"\n")
        if n >= lines:  # the rest belongs to a later run of records
            rest = data.split(b"\n", lines)[-1]
            source.seek(-len(rest), os.SEEK_CUR)
            data, n = data[:len(data) - len(rest)], lines
        _write_hashed(fh, digest, data)
        lines -= n


def _write_split_file(fh, split: DatasetSplit, runs):
    """Write the header line, then the records of each (file, row count) of
    ``runs`` in turn, copied from that file. Returns the SHA-256 hash object
    of the bytes written."""
    header = (
        f"{DATASET_MAGIC} {DATASET_VERSION} D={split.dim} K={split.k_known} "
        f"classes={','.join(split.classes)}"
    )
    digest = hashlib.sha256()
    _write_hashed(fh, digest, f"{header}\n".encode("utf-8"))
    for source, lines in runs:
        _copy_records(source, fh, digest, lines)
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


def _save_blocks(directory: Path, dim: int, n_rows: int, blocks) -> DatasetSplit:
    """Write a dataset directory from the generator ``blocks``, and return
    the DatasetSplit it returns.

    ``blocks`` yields (0 for train or 1 for validation, rows) for each block
    of at most _WRITE_BLOCK_ROWS rows, train's first, in order, and returns
    the DatasetSplit of the ``n_rows`` rows of ``dim`` features they make
    up. Each block is formatted as it is taken: by the second process, when
    the save starts one and that process has at most one block it has not
    acknowledged, else here, into an unnamed temporary file. Then each split
    file is written in block order from the two, and its cache after it.
    """
    directory.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as stack:
        own = stack.enter_context(_unnamed_file(directory))
        child = None
        if _in_two_processes(n_rows * dim):
            child = stack.enter_context(_RecordProcess(directory, dim))
        runs = []  # [split, file, rows] of each run of blocks formatted into one file
        while True:
            try:
                which, rows = next(blocks)
            except StopIteration as end:
                split = end.value
                break
            tails = _tail_fields(rows)
            if child is not None and child.ready():
                child.send(rows, tails)
                out = child.out
            else:
                own.write(records.format_records(rows.ids, rows.x.tolist(), tails))
                out = own
            if runs and runs[-1][:2] == [which, out]:
                runs[-1][2] += len(rows)
            else:
                runs.append([which, out, len(rows)])
        # entered last to first, so that they replace their targets first to last
        paths = [p for name in (TRAIN_FILENAME, VAL_FILENAME)
                 for p in (directory / name, _cache_path(directory / name))]
        files = [stack.enter_context(atomic_open(p, binary=True)) for p in reversed(paths)]
        files.reverse()
        if child is not None:
            child.wait()
        own.seek(0)
        for which, rows in enumerate((split.train, split.validation)):
            digest = _write_split_file(files[2 * which], split,
                                       [(out, n) for w, out, n in runs if w == which])
            _write_split_cache(files[2 * which + 1], rows, digest)
        if child is not None:
            child.check_end()
    return split


def save_dataset(split: DatasetSplit, path) -> None:
    """Write a dataset directory containing train.edlset and val.edlset,
    each followed by its cache (train.edlset.cache, val.edlset.cache).

    No file is replaced before all four are written; then they replace
    their targets in that order. With at least _TWO_PROCESS_MIN_VALUES
    feature values, a known interpreter and two usable CPUs, a second
    process (``records``) formats the blocks of rows it is handed while
    this one formats the others; the bytes are the same. A sample id with a
    tab, a line break or a surrogate code point is a ValueError, raised
    before anything is written.
    """
    for rows in (split.train, split.validation):
        _check_writable(rows.ids, "sample id")
    _save_blocks(Path(path), split.dim, len(split.train) + len(split.validation),
                 _split_blocks(split))


def _split_blocks(split: DatasetSplit):
    """Yield (0 for train or 1 for validation, rows) for each block of
    _WRITE_BLOCK_ROWS rows of ``split``, train's first; return ``split``."""
    for which, rows in enumerate((split.train, split.validation)):
        for block in _blocks(0, len(rows)):
            yield which, rows[block]
    return split


def generate_and_save_dataset(cfg: GenConfig, path) -> DatasetSplit:
    """``generate_dataset(cfg)``, saved to ``path`` in the files of
    ``save_dataset(generate_dataset(cfg), path)``; each block of rows is
    formatted as soon as it is drawn, so a second process formats while
    this one draws. A ConfigError of the draw leaves no directory that this
    call made, and no file replaced.
    """
    directory = Path(path)
    made = [p for p in (directory, *directory.parents) if not p.exists()]
    try:
        return _save_blocks(directory, cfg.dim, cfg.n_train + cfg.n_val, _generate_split(cfg))
    except ConfigError:
        for p in made:  # deepest first; one that is not empty stays
            with contextlib.suppress(OSError):
                p.rmdir()
        raise


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


def _read_npy(fh, end: int) -> np.ndarray:
    """The .npy block at the position of ``fh``; a ValueError, before any
    array is allocated, when its header declares more data than the
    ``end - fh.tell()`` bytes left before byte ``end``."""
    start = fh.tell()
    np.lib.format.read_magic(fh)
    shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
    if math.prod(shape) * dtype.itemsize > end - fh.tell():
        raise ValueError("the .npy block declares more data than the cache holds")
    fh.seek(start)
    return np.lib.format.read_array(fh)


def _read_cache(path: Path, dim: int, k_known: int, k_total: int,
                forbid_unknown: bool) -> SampleTable | None:
    """The rows stored in the cache of the split file at ``path``, or None.

    None when the cache is missing or unreadable, when its first line is not
    the digest of the split file's bytes and its own payload, recomputed
    here _CACHE_BLOCK_BYTES at a time, when an array's header declares more
    data than the cache holds, or when its arrays break a rule the
    parser enforces: D features and one label column per class, finite
    features, non-empty ids, unknown flags that match the labels, and no
    unknown row where ``forbid_unknown``.
    """
    try:
        with open(_cache_path(path), "rb") as fh, open(path, "rb") as text:
            stored = fh.readline(65)  # the hex digest and its newline
            payload = fh.tell()
            digest = hashlib.sha256()
            for source in (text, fh):  # the split file's bytes, then the payload
                while block := source.read(_CACHE_BLOCK_BYTES):
                    digest.update(block)
            if stored != digest.hexdigest().encode("ascii") + b"\n":
                return None
            end = fh.tell()
            fh.seek(payload)
            x, labels, unknown = (_read_npy(fh, end) for _ in range(3))
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
    """The rows of the records of the split file at ``path``, checked one line
    at a time in the order a record is read: 4 tab-separated fields, a
    non-empty id, float features, ``dim`` of them, all finite, and then the
    label rules, once per (label field, flag field) pair not seen before.

    The first line that breaks a rule is named in a DataFormatError, raised
    once the rest of the file is decoded. Each line's features go into one
    growing float64 array as the line is read, so neither the file's text
    nor its values are ever all held as Python objects.
    """
    ids, x, codes = [], array("d"), array("q")
    pair_codes, pair_labels = {}, []  # (label field, flag field) -> code; its (labels, flag)
    blocks = read_line_blocks(path, skip=1)
    for lines in blocks:
        try:
            for line in lines:
                fields = line.split("\t")
                if len(fields) != 4:
                    raise DataFormatError(f"expected 4 tab-separated fields, got {len(fields)}")
                sample_id, feature_field, label_field, flag_field = fields
                if not sample_id:
                    raise DataFormatError("empty sample id")
                try:
                    values = list(map(float, feature_field.split(",")))
                except ValueError as exc:
                    raise DataFormatError(f"bad feature value: {exc}") from None
                if len(values) != dim:
                    raise DataFormatError(f"expected {dim} features, got {len(values)}")
                if not all(map(math.isfinite, values)):
                    raise DataFormatError("non-finite feature")
                pair = label_field, flag_field
                code = pair_codes.get(pair)
                if code is None:
                    pair_labels.append(_parse_labels(label_field, flag_field, k_known, k_total,
                                                     forbid_unknown))
                    code = pair_codes[pair] = len(pair_codes)
                ids.append(sample_id)
                x.extend(values)
                codes.append(code)
        except DataFormatError as exc:
            del lines  # the block is let go before the rest of the file is read
            # a byte that is not UTF-8, anywhere in the file, wins; each block is
            # dropped as soon as it is decoded
            deque(blocks, maxlen=0)
            raise DataFormatError(str(exc), path=path, line=len(ids) + 2) from None
        del lines  # before the next block is read
    code_labels = np.zeros((len(pair_labels), k_total), dtype=bool)
    for code, (labels, _) in enumerate(pair_labels):
        code_labels[code, list(labels)] = True
    code_unknown = np.array([is_unknown for _, is_unknown in pair_labels], dtype=bool)
    codes = np.frombuffer(codes, dtype=np.int64)
    return SampleTable(tuple(ids), np.frombuffer(x).reshape(len(ids), dim),
                       code_labels[codes], code_unknown[codes])


def _load(path, wanted: str | None = None):
    """D, K and the class list of a dataset directory, and the list of the
    rows of the split file named ``wanted``, or of both when it is None,
    train first; the module docstring gives the order of reads and errors."""
    directory = Path(path)
    headers, tables = [], []
    for name, forbid_unknown in ((TRAIN_FILENAME, True), (VAL_FILENAME, False)):
        file = directory / name
        headers.append(_read_split_header(file))
        if wanted in (None, name):
            dim, k_known, classes = headers[-1]
            rows = _read_cache(file, dim, k_known, len(classes), forbid_unknown)
            if rows is None:
                rows = _parse_records(file, dim, k_known, len(classes), forbid_unknown)
            tables.append(rows)
    if headers[0] != headers[1]:
        raise DataFormatError(
            "train and validation headers disagree", path=directory / VAL_FILENAME, line=1
        )
    return headers[0], tables


def load_dataset(path) -> DatasetSplit:
    """Read a dataset directory written by save_dataset."""
    (dim, k_known, classes), (train, validation) = _load(path)
    return DatasetSplit(
        train=train,
        validation=validation,
        known_classes=classes[:k_known],
        unknown_classes=classes[k_known:],
        dim=dim,
    )


def load_training(path) -> tuple[tuple[str, ...], SampleTable]:
    """The known classes and the train rows of a dataset directory.

    Reads all of train.edlset but only the header line of val.edlset,
    which must agree with the train header on D, K and the class list;
    the validation records are neither read nor checked. The rows are
    those of ``load_dataset(path).train``, with D feature columns.
    """
    (_, k_known, classes), (rows,) = _load(path, TRAIN_FILENAME)
    return classes[:k_known], rows


def load_validation(path) -> tuple[tuple[str, ...], SampleTable]:
    """The known classes and the validation rows of a dataset directory.

    Reads all of val.edlset but only the header line of train.edlset,
    which must agree with the validation header on D, K and the class
    list; the train records are neither read nor checked. The rows are
    those of ``load_dataset(path).validation``, with D feature columns.
    """
    (_, k_known, classes), (rows,) = _load(path, VAL_FILENAME)
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
    """Write one `name<TAB>weight` line per class; a class name that is empty
    or holds a tab, a line break or a surrogate code point is a ValueError,
    raised before writing."""
    _check_writable([name for name, _ in table.entries], "class name")
    lines = [f"{name}\t{repr(weight)}" for name, weight in table.entries]
    write_text(path, "\n".join(lines) + "\n")


def random_ciw_table(class_names, seed: int) -> CIWTable:
    """Seeded uniform weights in [0.1, 1.0], one per class name."""
    class_names = tuple(class_names)  # read twice below; an iterator is read once
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, size=len(class_names))
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
