"""The row grammar of a scene CSV (`label,b0,...,b{B-1}` lines), in the
standard library alone, so that a worker process running it starts
without numpy.

`data.save_csv` and `data.load_csv` run these functions on the first half
of a large scene's rows, and `serve`, in one worker process, on the
second half.
"""

import math
import sys
from array import array

from .errors import ParseError


def format_rows(labels, rows):
    """The line of each label and row of floats (a row of no bands is its
    label alone); repr makes the round trip exact."""
    for label, row in zip(labels, rows):
        yield ",".join((str(label), *map(repr, row))) + "\n"


def text_lines(f, lineno, limit):
    """The lines of binary file `f` that start within its next `limit`
    bytes, as UTF-8 text; the first is line `lineno`. Each is split at its
    newline byte alone, so a carriage return stays part of it."""
    pos = 0
    for lineno, raw in enumerate(f, start=lineno):
        if pos >= limit:
            return
        pos += len(raw)
        try:
            yield raw.removesuffix(b"\n").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc


def parse_rows(lines, lineno, bands, classes, spectra, labels):
    """Append each line's label to `labels` (array "q") and its values to
    `spectra` (array "d"); the first line is line `lineno`. A malformed
    line raises ParseError naming it."""
    for lineno, line in enumerate(lines, start=lineno):
        parts = line.split(",")
        if len(parts) != bands + 1:
            raise ParseError(
                f"line {lineno}: expected {bands + 1} fields, got {len(parts)}"
            )
        try:
            label = int(parts[0])
            values = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if not 0 <= label < classes:
            raise ParseError(f"line {lineno}: label {label} out of range [0, {classes})")
        if not all(map(math.isfinite, values)):
            raise ParseError(f"line {lineno}: non-finite band value")
        labels.append(label)
        spectra.fromlist(values)


def _first_line_at(f, start):
    """Move `f` to the first line that starts at or past byte `start` (at
    least 1) and return its line number."""
    lineno, left = 1, start - 1
    while left > 0 and (chunk := f.read(min(left, 1 << 16))):
        lineno += chunk.count(b"\n")
        left -= len(chunk)
    return lineno + f.readline().endswith(b"\n")


def serve():
    """A worker process's entry point; its arguments are in sys.argv.

    `format BANDS ROWS`: read ROWS int64 labels, then ROWS * BANDS float64
    values, from stdin, and write their lines to stdout once all are
    formatted, so the worker never waits on a reader that is busy with
    its own half.

    `parse PATH START BANDS CLASSES`: parse the lines of PATH that start at
    or past byte START and reply on stdout with an int64 row count, then
    the labels as int64 and the values as float64. A malformed line gets
    the negated byte length of its ParseError text instead, then the text.
    """
    mode, *args = sys.argv[1:]
    out = sys.stdout.buffer
    if mode == "format":
        bands, rows = map(int, args)
        labels, values = array("q"), array("d")
        labels.fromfile(sys.stdin.buffer, rows)
        values.fromfile(sys.stdin.buffer, rows * bands)
        lines = list(format_rows(labels, (values[i * bands:(i + 1) * bands]
                                          for i in range(rows))))
        out.writelines(line.encode() for line in lines)
        return
    path, start, bands, classes = args[0], *map(int, args[1:])
    labels, spectra = array("q"), array("d")
    with open(path, "rb") as f:
        lineno = _first_line_at(f, start)
        try:
            parse_rows(text_lines(f, lineno, math.inf), lineno,
                       bands, classes, spectra, labels)
        except ParseError as exc:
            text = str(exc).encode()
            out.write(array("q", [-len(text)]).tobytes() + text)
            return
    out.write(array("q", [len(labels)]).tobytes())
    out.write(labels)
    out.write(spectra)
