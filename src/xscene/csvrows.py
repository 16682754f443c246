"""The row grammar of a scene CSV (`label,b0,...,b{B-1}` lines), one line
at a time, in the standard library alone.

`data.save_csv` and `data.load_csv` work a block of rows at a time through
orjson; these functions are each block's reference and its fallback, for
the rows whose text orjson would write or read differently.
"""

import math

from .errors import ParseError


def format_rows(labels, rows):
    """The line of each label and row of floats (a row of no bands is its
    label alone); repr makes the round trip exact."""
    for label, row in zip(labels, rows):
        yield ",".join((str(label), *map(repr, row))) + "\n"


def text_lines(lines, lineno):
    """Each raw line (bytes, split at its newline byte alone, so a carriage
    return stays part of it) as UTF-8 text; the first is line `lineno`."""
    for lineno, raw in enumerate(lines, start=lineno):
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
