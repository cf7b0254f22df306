"""Reading the package's text files, and atomically writing its files.

Every file evidkit writes (datasets and their caches, CIW tables,
checkpoints, logs, reports, score tables) goes through ``atomic_open``:
the data goes to a new temporary file in the target's directory, which
then replaces the target with ``os.replace``. A run that fails or is
killed mid-write therefore leaves the target with either its old bytes
or the complete new ones, never a truncated file, and removes its
temporary file on any failure it survives to see. The data is not fsynced, so this guards
against interrupted processes, not against power loss.

Every text file evidkit reads goes through ``read_line_blocks``, which
reads it in blocks of about 1 MiB (``_READ_CHUNK_BYTES``) and yields each
block's lines, or through ``read_first_line`` where only a file's first
line is needed; ``read_lines`` is the concatenation of the blocks. A
block ends just after a newline byte, so it splits no ``\r\n`` pair and
no UTF-8 character, and its lines are the ones ``str.splitlines`` finds
in the whole text. All of them turn bytes that are not UTF-8 into the
same DataFormatError, naming the file, the line of the first bad byte
and its offset in the file.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from itertools import chain
from pathlib import Path

from .errors import DataFormatError

# bytes read per block, before the block is completed up to its next newline
_READ_CHUNK_BYTES = 1 << 20


def _decode(data: bytes, path, offset: int = 0) -> str:
    """``data``, read from the file at ``path`` starting at byte ``offset``,
    decoded as UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        # only an error needs the line, so only an error counts the lines before data
        with open(path, "rb") as fh:
            while prefix := fh.read(min(offset - fh.tell(), _READ_CHUNK_BYTES)):
                line += prefix.count(b"\n")
        raise DataFormatError(
            f"not UTF-8 text: byte {exc.object[exc.start]:#04x} at offset {offset + exc.start}",
            path=path, line=line,
        ) from None


def read_line_blocks(path, skip: int = 0):
    """Yield the lines of ``read_lines(path)[skip:]`` as non-empty lists, each
    from about ``_READ_CHUNK_BYTES`` of the file.

    A block is cut just after a newline byte (or at the end of the file), so
    the lines of the blocks are those of the whole text. A byte that is not
    UTF-8 raises when its block is reached, after the blocks before it were
    yielded.
    """
    offset = 0
    with open(path, "rb") as fh:
        # a file smaller than a block is read with one read of its own size
        size = min(os.fstat(fh.fileno()).st_size, _READ_CHUNK_BYTES) or _READ_CHUNK_BYTES
        while data := fh.read(size):
            if not data.endswith(b"\n"):
                data += fh.readline()
            lines = _decode(data, path, offset).splitlines()
            offset += len(data)
            del data  # the caller works on the lines alone
            if skip:
                lines, skip = lines[skip:], max(skip - len(lines), 0)
            if lines:
                yield lines
            del lines  # and they are let go before the next block is read


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, without their line ends."""
    return list(chain.from_iterable(read_line_blocks(path)))


def read_first_line(path) -> str | None:
    """``read_lines(path)[0]``, or None for an empty file, reading no further
    than the first newline byte."""
    with open(path, "rb") as fh:
        data = fh.readline()
    # splitlines ends a line at the same places read_lines does; a UTF-8
    # sequence never holds a newline byte, so the cut splits no character
    lines = _decode(data, path).splitlines()
    return lines[0] if lines else None


@contextlib.contextmanager
def atomic_open(path, binary: bool = False):
    """Open ``path`` to write UTF-8 text with no newline translation, or bytes.

    Yields a text file, or with ``binary`` a seekable binary file, on a
    fresh temporary file beside ``path``, created with the mode a plain
    ``open`` gives. When the block ends normally the temporary file
    replaces ``path``; when it raises, or the replace fails, the temporary
    file is removed and ``path`` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """Replace ``path`` atomically with ``text`` as UTF-8, newlines kept as given."""
    with atomic_open(path) as fh:
        fh.write(text)
