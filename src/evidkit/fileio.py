"""Reading and atomically writing the package's text files.

Every file evidkit writes (datasets, CIW tables, checkpoints, logs,
reports, score tables) goes through ``atomic_open``: the text goes to a
new temporary file in the target's directory, which then replaces the
target with ``os.replace``. A run that fails or is killed mid-write
therefore leaves the target with either its old bytes or the complete
new ones, never a truncated file, and removes its temporary file on
any failure it survives to see. The data is not fsynced, so this guards
against interrupted processes, not against power loss.

Every text file evidkit reads goes through ``read_lines``, or through
``read_first_line`` where only a file's first line is needed. Both turn
bytes that are not UTF-8 into the same DataFormatError, naming the file
and the line of the first bad byte.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from pathlib import Path

from .errors import DataFormatError


def _decode(data: bytes, path) -> str:
    """``data``, read from the start of the file at ``path``, decoded as UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(
            f"not UTF-8 text: byte {exc.object[exc.start]:#04x} at offset {exc.start}",
            path=path, line=line,
        ) from None


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, without their line ends."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _decode(data, path).splitlines()


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
def atomic_open(path):
    """Open ``path`` to write UTF-8 text with no newline translation.

    Yields a text file on a fresh temporary file beside ``path``, created
    with the mode a plain ``open`` gives. When the block ends normally
    the temporary file replaces ``path``; when it raises, or the replace
    fails, the temporary file is removed and ``path`` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
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
