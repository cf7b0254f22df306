"""The ``.edlset`` record formatter, and the process that runs it beside a save.

``format_records`` is the one statement of how a record is written. A
large ``datasets`` save also runs this file as a script in a second
interpreter (``python -I -S records.py <dim> <ack fd>``), which formats
the blocks of rows the saving process hands it while that process draws
or formats others. That process imports nothing but the standard
library: neither numpy nor the evidkit package is loaded, so it starts
in about 15 ms.

Its standard input is a sequence of blocks, each a ``BLOCK_HEADER``
(the block's row count and its text's byte count), the rows' features as
native float64 bytes, row after row, then the text: the rows' ids, then
their label-and-flag fields, all joined by newlines, in UTF-8. A thread
reads the blocks as they arrive, so the saving process never waits on a
full pipe, and the main thread formats them in turn, one block's strings
at a time. It writes each block's records to its standard output, then
one byte to the file descriptor ``<ack fd>``, by which the saving
process knows how many blocks it has formatted.
"""

import os
import queue
import struct
import sys
import threading

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


def _read_blocks(dim: int, put) -> None:
    """``put`` each block of standard input as (rows, features, text), then
    None at the end of the input, or of what could be read of it."""
    read = sys.stdin.buffer.read
    try:
        while header := read(BLOCK_HEADER.size):
            rows, size = BLOCK_HEADER.unpack(header)
            put((rows, read(rows * dim * 8), read(size)))
    finally:
        put(None)


def main() -> None:
    dim, ack = int(sys.argv[1]), int(sys.argv[2])
    blocks = queue.SimpleQueue()
    threading.Thread(target=_read_blocks, args=(dim, blocks.put), daemon=True).start()
    write = sys.stdout.buffer.write
    while (block := blocks.get()) is not None:
        rows, features, text = block
        fields = text.decode("utf-8").split("\n")
        # a truncated block fails the cast, so the process exits non-zero
        values = memoryview(features).cast("d", (rows, dim)).tolist()
        write(format_records(fields[:rows], values, fields[rows:]))
        os.write(ack, b"\n")


if __name__ == "__main__":
    main()
