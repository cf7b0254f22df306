"""Tests for the shared text reader and the atomic writer."""

import os
import stat

import pytest

from evidkit import fileio
from evidkit.errors import DataFormatError
from evidkit.fileio import (
    atomic_open,
    read_first_line,
    read_line_blocks,
    read_lines,
    write_text,
)


def test_written_file_has_the_mode_of_a_plain_open(tmp_path):
    with open(tmp_path / "plain", "w") as fh:
        fh.write("x")
    write_text(tmp_path / "atomic", "x")
    plain = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
    assert stat.S_IMODE(os.stat(tmp_path / "atomic").st_mode) == plain


def test_failure_inside_the_block_keeps_the_old_file(tmp_path):
    target = tmp_path / "f"
    target.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(target) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


def test_non_utf8_byte_names_its_line(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"one\ntwo\nth\xe9ree\nfour\n")
    with pytest.raises(DataFormatError, match=r"line 3: not UTF-8 text: byte 0xe9") as info:
        read_lines(path)
    assert info.value.path == path and info.value.line == 3


def test_lines_split_as_text_mode_does(tmp_path):
    path = tmp_path / "f"
    data = "a\r\nb\rc\n\nd e"
    path.write_bytes(data.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        assert read_lines(path) == fh.read().splitlines()


@pytest.mark.parametrize("data", [
    b"", b"\n", b"one", b"one\ntwo\n", b"one\r\ntwo", b"one\rtwo\n",
    "one\u2028two\nthree".encode("utf-8"), "\u00e9t\u00e9\n".encode("utf-8"),
])
def test_first_line_is_the_first_of_read_lines(tmp_path, data):
    path = tmp_path / "f"
    path.write_bytes(data)
    assert read_first_line(path) == (read_lines(path) or [None])[0]


def test_first_line_ignores_what_follows_it(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"header\nr\xe9st\n")
    assert read_first_line(path) == "header"


def test_first_line_reports_a_bad_byte_as_read_lines_does(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"he\xe9der\r\xffrest\n\xff\n")
    with pytest.raises(DataFormatError) as whole:
        read_lines(path)
    with pytest.raises(DataFormatError) as first:
        read_first_line(path)
    assert str(first.value) == str(whole.value)
    assert (first.value.path, first.value.line) == (path, 1)


# -- the block reader ----------------------------------------------------------


def _whole_file_lines(path):
    """The lines of the file, decoded and split in one piece."""
    return path.read_bytes().decode("utf-8").splitlines()


BLOCK_CASES = {
    "crlf": b"one\r\ntwo\r\nthree\r\nfour\r\n",
    "lone_cr": b"a\rb\r\rc\nd\re\n",
    "line_separators": "a\u2028b\x85c\u2029d\ne\x85\n".encode("utf-8"),
    "multi_byte": "\u00e9t\u00e9\n\u20ac\u20ac\u20ac\n\U0001d11e\U0001d11e\nz".encode("utf-8"),
    "long_line": b"x" * 150 + b"\nshort\n" + b"y" * 70,
    "no_trailing_newline": b"one\ntwo\nthree",
    "empty": b"",
    "header_only": b"#edlset v1 D=2 K=1 classes=a\n",
    "blank_lines": b"\n\n\none\n\n",
}


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_blocks_hold_the_lines_of_the_whole_file(tmp_path, monkeypatch, name, chunk):
    path = tmp_path / "f"
    path.write_bytes(BLOCK_CASES[name])
    monkeypatch.setattr(fileio, "_READ_CHUNK_BYTES", chunk)
    for skip in (0, 1, 2, 5):
        blocks = list(read_line_blocks(path, skip=skip))
        assert all(blocks)
        assert [line for block in blocks for line in block] == _whole_file_lines(path)[skip:]
    assert read_lines(path) == _whole_file_lines(path)


def test_a_block_is_about_one_chunk_of_text(tmp_path, monkeypatch):
    path = tmp_path / "f"
    path.write_bytes(b"".join(b"%05d\n" % i for i in range(1000)))
    monkeypatch.setattr(fileio, "_READ_CHUNK_BYTES", 64)
    blocks = list(read_line_blocks(path))
    # 64 bytes end inside the 11th six-byte line, which the block completes
    assert [len(b) for b in blocks] == [11] * 90 + [10]


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
def test_a_bad_byte_in_a_later_block_raises_as_read_lines(tmp_path, monkeypatch, chunk):
    path = tmp_path / "f"
    data = b"good\r\n" * 30 + "\u00e9\n".encode("utf-8") + b"ba\xffd\nrest\xfe\n"
    path.write_bytes(data)
    with pytest.raises(DataFormatError) as whole:
        read_lines(path)
    assert data.index(b"\xff") == 185
    assert whole.value.line == 32 and str(whole.value).endswith("byte 0xff at offset 185")
    monkeypatch.setattr(fileio, "_READ_CHUNK_BYTES", chunk)
    seen = []
    with pytest.raises(DataFormatError) as blocked:
        for block in read_line_blocks(path, skip=1):
            seen += block
    assert str(blocked.value) == str(whole.value)
    assert (blocked.value.line, blocked.value.path) == (whole.value.line, path)
    # the blocks before the bad byte's block were yielded, and hold the lines before it
    assert seen == data[:185].decode("utf-8").splitlines()[1:len(seen) + 1]
