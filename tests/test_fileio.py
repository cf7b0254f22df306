"""Tests for the shared text reader and the atomic writer."""

import os
import stat

import pytest

from evidkit.errors import DataFormatError
from evidkit.fileio import atomic_open, read_first_line, read_lines, write_text


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
