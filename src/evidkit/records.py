"""The ``.edlset`` record formatter, and the process that runs it beside a save.

``format_records`` is the one statement of how a record is written. A
large ``datasets.save_dataset`` also runs this file as a script in a
second interpreter (``python -I -S records.py <dim>``), which formats the
second half of the rows while the saving process formats the first. That
process imports nothing but the standard library: neither numpy nor the
evidkit package is loaded, so it starts in about 10 ms.

Its standard input is a sequence of blocks, each a ``BLOCK_HEADER``
(the block's row count and its text's byte count), the rows' features as
native float64 bytes, row after row, then the text: the rows' ids, then
their label-and-flag fields, all joined by newlines, in UTF-8. The
process reads every block before it formats any, so the saving process
never waits on a full pipe, and writes the records to its standard
output, one block's strings at a time.
"""

import struct
import sys

# row count and text byte count of one block of the child's input
BLOCK_HEADER = struct.Struct("=QQ")


def format_records(ids, features, tails) -> bytes:
    """The UTF-8 records of rows: each row's id, its features in repr
    precision joined by commas, and its ``tail`` (the comma-separated label
    indices, a tab and the unknown flag), tab-separated, one line each.
    ``features`` holds one sequence of floats per row."""
    return "".join([
        f"{sample_id}\t{','.join(map(repr, values))}\t{tail}\n"
        for sample_id, values, tail in zip(ids, features, tails)
    ]).encode("utf-8")


def main() -> None:
    dim = int(sys.argv[1])
    read = sys.stdin.buffer.read
    blocks = []
    while header := read(BLOCK_HEADER.size):
        rows, size = BLOCK_HEADER.unpack(header)
        blocks.append((rows, read(rows * dim * 8), read(size)))
    blocks.reverse()
    while blocks:
        rows, features, text = blocks.pop()
        fields = text.decode("utf-8").split("\n")
        # a truncated block fails the cast, so the process exits non-zero
        values = memoryview(features).cast("d", (rows, dim)).tolist()
        sys.stdout.buffer.write(format_records(fields[:rows], values, fields[rows:]))


if __name__ == "__main__":
    main()
