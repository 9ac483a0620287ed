"""Loading, validation, derivation, and per-cell aggregation of survey data.

Input is CSV with a header row, in one of two schemas:

* ``xya``: columns ``x, year, age`` with the state variable already derived;
* ``derived``: columns ``weight, height, birth_year, exam_date`` from which
  BMI, age, and the decimal examination year are computed.

The header is read by the csv module.  The rest of the file is read in
blocks of `BLOCK_ROWS` lines, each line one record, by two readers:

* a *plain* line holds only the characters ``0-9 . e E + -`` and commas,
  as many fields as the header and none of them empty, and no CR or LF
  but its own terminator.  The csv module would split it at its commas,
  and numpy's text loader reads each such field with the same
  ``PyOS_string_to_double`` as `float()`, so one `numpy.loadtxt` call
  converts a block's plain lines.  If it rejects one (``1e``, ``1.2.3``),
  the block's plain lines take the record reader too;
* every other line is read by the record reader: the csv module, then a
  `float()` of each needed field.

A quoted field can span lines, so from the first block that holds a quote
character the rest of the file is read by the record reader alone, in
blocks of `BLOCK_ROWS` records.  Either way validation, derivation and the
frame test run as array masks over the block.  Accepted rows are appended
to column arrays grown in place, so memory beyond those columns is
O(block), not O(rows).

Dirty rows never abort a run; they are counted per reason and reported.
Each row is counted under the first reason that applies, in this order:

1. ``unparsable``: a needed field is missing or is not a number, or the
   CSV record itself cannot be read (a field over the csv module's size
   limit, say);
2. ``non-finite``: a needed field is nan or infinite;
3. ``invalid-derivation``: a non-positive weight or height, a height whose
   square overflows or underflows to zero, an examination date not after
   the birth year, or an age too large for a float;
4. ``non-finite``: a derived value that overflows (BMI of a tiny height);
5. ``out-of-frame``: the point lies outside the frame or its lattice.

Rows are numbered by CSV record, the header being row 1.  Blank and
whitespace-only records are skipped: they keep their number but are not
counted.  The accepted rows come back as `MeasurementColumns`, the one
measurement form: columns located once, carrying their frame; `aggregate`
summarizes them per cell as `CellColumns`, which carry it too.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from itertools import chain, compress, islice
from typing import Iterator

import numpy as np

from .errors import ConfigError, MalformedFile, UnknownSchema
from .grid import Frame

SCHEMA_XYA = "xya"
SCHEMA_DERIVED = "derived"
SCHEMAS = (SCHEMA_XYA, SCHEMA_DERIVED)

_COLUMNS = {
    SCHEMA_XYA: ("x", "year", "age"),
    SCHEMA_DERIVED: ("weight", "height", "birth_year", "exam_date"),
}

REASON_UNPARSABLE = "unparsable"
REASON_NON_FINITE = "non-finite"
REASON_OUT_OF_FRAME = "out-of-frame"
REASON_INVALID_DERIVATION = "invalid-derivation"

_MAX_REJECT_DETAILS = 20

# Lines (records, once a quote has been seen) converted and validated together.
BLOCK_ROWS = 4096
# Strings per numpy conversion: a dirty field costs a Python loop over this many.
_CHUNK = 256


@dataclass(frozen=True)
class MeasurementColumns:
    """Measurements as columns, with the cell (i, j) of each row in `frame`: the
    one measurement form, located once by what makes the rows."""

    frame: Frame
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)
    i: np.ndarray = field(repr=False)
    j: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class CellColumns:
    """Per-cell summaries as columns, one row per occupied cell (i, j) of
    `frame` in (i, j) order: mean x, mean y, count, corrected sum of squares."""

    frame: Frame
    i: np.ndarray = field(repr=False)
    j: np.ndarray = field(repr=False)
    x_bar: np.ndarray = field(repr=False)
    y_bar: np.ndarray = field(repr=False)
    n: np.ndarray = field(repr=False)
    css: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.n)


@dataclass
class ValidationReport:
    n_rows: int = 0
    n_accepted: int = 0
    reasons: dict[str, int] = field(default_factory=dict)
    details: list[tuple[int, str]] = field(default_factory=list)

    @property
    def n_rejected(self) -> int:
        return self.n_rows - self.n_accepted

    def reject(self, rows: np.ndarray, reasons: np.ndarray) -> None:
        """Count rejected rows, given in file order with their reasons."""
        for kind, count in zip(*np.unique(reasons, return_counts=True)):
            self.reasons[kind] = self.reasons.get(kind, 0) + int(count)
        room = _MAX_REJECT_DETAILS - len(self.details)
        self.details.extend(zip(rows[:room].tolist(), reasons[:room].tolist()))

    def as_dict(self) -> dict:
        return {
            "rows": self.n_rows,
            "accepted": self.n_accepted,
            "rejected": self.n_rejected,
            "reasons": dict(sorted(self.reasons.items())),
            "first_rejects": [{"row": r, "reason": why} for r, why in self.details],
        }


# Reject reasons by code, codes in the order the masks are tested.
_REASONS = np.array(
    [None, REASON_UNPARSABLE, REASON_NON_FINITE, REASON_INVALID_DERIVATION, REASON_OUT_OF_FRAME],
    dtype=object,
)


# Stands in for a record the csv reader cannot read: one field, so too
# short for either schema (unparsable), and not blank (counted).
_UNREADABLE = ["<unreadable record>"]


def _records(source) -> Iterator[list[str]]:
    """The csv records of a text stream, with `_UNREADABLE` for each it cannot read.

    The csv reader pulls no line past the record it returns, and after an
    error it drops the rest of the physical line it failed on and resumes at
    the next one.  So the lines pulled since the last record returned are
    exactly the failing record's lines.  If the quote characters on them are
    odd in number, the failed line ended inside a quoted field: the lines up
    to the one that makes the count even are skipped too, so no text inside
    the quote is read as records.
    """
    pulled: list[str] = []  # the lines of the record being read

    def kept():
        for line in source:
            pulled.append(line)
            yield line

    lines = kept()
    reader = csv.reader(lines)
    while True:
        pulled.clear()
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error:
            yield _UNREADABLE
            odd = "".join(pulled).count('"') % 2
            while odd and (line := next(lines, None)) is not None:
                odd ^= line.count('"') % 2


def _floats(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """`float()` of each string, and the mask of strings it cannot read (nan there).

    Strings are converted by numpy `_CHUNK` at a time; only a chunk that
    holds a string float() rejects is converted string by string.
    """
    values = np.empty(len(strings))
    bad = np.zeros(len(strings), dtype=bool)
    for lo in range(0, len(strings), _CHUNK):
        chunk = strings[lo:lo + _CHUNK]
        try:
            values[lo:lo + len(chunk)] = np.array(chunk, dtype=float)
        except ValueError:
            for k, s in enumerate(chunk, start=lo):
                try:
                    values[k] = float(s)
                except ValueError:
                    values[k], bad[k] = math.nan, True
    return values, bad


def _derive(fields: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """BMI, decimal year, age, and the mask of rows with no valid derivation,
    from the four derived-schema columns (a row each), by the IEEE operations of the scalar
    reference derivations in `tests/ingest_reference.py`: one product for the
    square, and the age as floor(exam) - trunc(birth), which rounds the exact
    integer difference once, as float() of it does."""
    weight, height, birth_year, exam_date = fields
    with np.errstate(all="ignore"):
        square = height * height
        x = weight / square
        birth = np.trunc(birth_year)
        a = np.floor(exam_date) - birth
    invalid = (
        (weight <= 0) | (height <= 0) | (square == 0) | np.isinf(square)
        | (exam_date <= birth) | np.isinf(a)
    )
    return x, exam_date, a, invalid


# Byte classes of the plain-line test, by ASCII code; any other character
# is encoded as "?", so one byte stands for each character of a line.
_NUMBER, _COMMA, _NEWLINE, _OTHER = range(4)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[np.frombuffer(b"0123456789.eE+-", np.uint8)] = _NUMBER
_BYTE_CLASS[ord(",")] = _COMMA
_BYTE_CLASS[[ord("\r"), ord("\n")]] = _NEWLINE


def _plain(lines: list[str], text: str, n_fields: int) -> np.ndarray:
    """The mask of the plain lines among `lines`, whose concatenation is `text`.

    A plain line's bytes are number characters and `n_fields` - 1 commas,
    it starts with a number character and has one after every comma, its
    only CR and LF bytes are its terminator ("\\n", "\\r\\n", "\\r" or
    none), and it is no longer than the csv module's field size limit.
    """
    codes = np.frombuffer(text.encode("ascii", "replace"), np.uint8)
    kind = _BYTE_CLASS.take(codes)
    lengths = np.fromiter(map(len, lines), np.intp, len(lines))
    ends = np.cumsum(lengths)
    starts = ends - lengths  # increasing: no line is empty

    def per_line(mask: np.ndarray) -> np.ndarray:
        # 32-bit sums, which numpy reduces into faster than 64-bit ones
        return np.add.reduceat(mask, starts, dtype=np.int32)

    comma = kind == _COMMA
    # a comma not followed by a number character ends an empty field
    empty = comma & np.append(kind[1:] != _NUMBER, True)
    bad = (kind >= _NEWLINE) | empty
    last, before = codes[ends - 1], codes[np.maximum(ends - 2, 0)]
    terminator = (kind[ends - 1] == _NEWLINE).astype(np.intp)
    terminator += (last == ord("\n")) & (before == ord("\r")) & (lengths > 1)
    return (
        (per_line(bad) == terminator) & (per_line(comma) == n_fields - 1)
        & (kind[starts] == _NUMBER) & (lengths <= csv.field_size_limit())
    )


def _parse_records(records: list, positions: list[int]) -> tuple[np.ndarray, ...]:
    """The needed fields of csv records, a row per position (nan where a
    record cannot be read), and the masks of unparsable and counted records."""
    width = max(positions) + 1
    short = np.fromiter(map(len, records), int, len(records)) < width
    padded = records
    if short.any():
        padded = [r if len(r) >= width else ["nan"] * width for r in records]
    fields, bad = zip(*(_floats([r[p] for r in padded]) for p in positions))
    unparsable = np.logical_or.reduce(bad) | short

    # Blank records fail to parse; skip them uncounted.
    counted = np.ones(len(records), dtype=bool)
    for k in np.flatnonzero(unparsable):
        counted[k] = bool("".join(records[k]).strip())
    return np.array(fields), unparsable, counted


def _parse_lines(
    lines: list[str], text: str, n_fields: int, positions: list[int]
) -> tuple[np.ndarray, ...]:
    """`_parse_records` of unquoted lines, each one record: plain lines by
    `numpy.loadtxt`, the others by the record reader."""
    plain = _plain(lines, text, n_fields)
    fields = np.empty((len(positions), len(lines)))
    unparsable = np.zeros(len(lines), dtype=bool)
    counted = np.ones(len(lines), dtype=bool)
    if plain.any():
        try:
            fields[:, plain] = np.loadtxt(
                list(compress(lines, plain.tolist())), delimiter=",", comments=None,
                usecols=positions, ndmin=2,
            ).T
        except ValueError:
            plain[:] = False
    other = ~plain
    if other.any():
        records = list(_records(compress(lines, other.tolist())))
        fields[:, other], unparsable[other], counted[other] = _parse_records(records, positions)
    return fields, unparsable, counted


def _blocks(lines: Iterator[str], n_fields: int, positions: list[int]) -> Iterator[tuple]:
    """`_parse_lines` of each block of lines, in file order, up to the first
    block that holds a quote; from that block on, `_parse_records` of each
    block of records, since a quoted field can span lines."""
    while block := list(islice(lines, BLOCK_ROWS)):
        text = "".join(block)
        if '"' in text:
            records = _records(chain(block, lines))
            while chunk := list(islice(records, BLOCK_ROWS)):
                yield _parse_records(chunk, positions)
            return
        yield _parse_lines(block, text, n_fields, positions)


def _take_block(
    fields: np.ndarray, unparsable: np.ndarray, counted: np.ndarray, first_row: int,
    schema: str, frame: Frame, report: ValidationReport,
) -> tuple[np.ndarray, ...]:
    """Validate one block of parsed rows; the accepted rows' x, y, a, i and j."""
    finite = np.isfinite(fields).all(axis=0)
    if schema == SCHEMA_XYA:
        x, y, a = fields
        invalid = np.zeros(len(counted), dtype=bool)
    else:
        x, y, a, invalid = _derive(fields)
    i, j, inside = frame.cells(y, a)
    code = np.select(
        [unparsable, ~finite, invalid, ~(np.isfinite(x) & np.isfinite(a)), ~inside],
        [1, 2, 3, 2, 4],
        0,
    )
    rejected = np.flatnonzero(counted & (code > 0))
    report.n_rows += int(counted.sum())
    if rejected.size:
        report.reject(first_row + rejected, _REASONS[code[rejected]])
    keep = code == 0
    report.n_accepted += int(keep.sum())
    return x[keep], y[keep], a[keep], i[keep], j[keep]


def _read(source, schema: str, frame: Frame) -> tuple[MeasurementColumns, ValidationReport]:
    lines = iter(source)
    header = next(_records(lines), None)
    if header is _UNREADABLE:
        raise MalformedFile("cannot read CSV header")
    report = ValidationReport()
    columns = [np.empty(0), np.empty(0), np.empty(0), np.empty(0, int), np.empty(0, int)]
    if header is None:
        return MeasurementColumns(frame, *columns), report
    names = [h.strip().lower() for h in header]
    missing = [c for c in _COLUMNS[schema] if c not in names]
    if missing:
        raise MalformedFile(
            f"schema {schema!r} needs columns {_COLUMNS[schema]}, missing {missing}"
        )
    positions = [names.index(c) for c in _COLUMNS[schema]]

    first_row = 2
    for fields, unparsable, counted in _blocks(lines, len(names), positions):
        kept = _take_block(fields, unparsable, counted, first_row, schema, frame, report)
        first_row += len(counted)
        # grown in place (realloc), so no copy of the whole column is made
        n = len(columns[0])
        for column, new in zip(columns, kept):
            column.resize(n + len(new), refcheck=False)
            column[n:] = new
    return MeasurementColumns(frame, *columns), report


def load_measurements(
    source, schema: str, frame: Frame
) -> tuple[MeasurementColumns, ValidationReport]:
    """Parse a CSV source, keeping in-frame rows and reporting the rest.

    `source` is a path or an open text stream; a path is read as a stream
    opened with ``newline=""``, so CR, LF and CRLF all end a line.  Column
    lookup is case-insensitive; extra columns are ignored.  Plain lines,
    which hold only numbers, one per header field, are converted by numpy's
    text loader and every other record by the csv module and `float()`; the
    values are the same either way (see the module docstring).  The
    accepted rows come back as columns in file order, each with its cell in
    `frame`.  A path that cannot be opened or read raises ConfigError;
    bytes that are not UTF-8 raise MalformedFile.  A path's leading
    byte-order mark is skipped.
    """
    if schema not in SCHEMAS:
        raise UnknownSchema(f"schema must be one of {SCHEMAS}, got {schema!r}")
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source, "r", encoding="utf-8-sig", newline="") as handle:
                return load_measurements(handle, schema, frame)
        except OSError as exc:
            raise ConfigError(f"cannot read input file {source}: {exc}") from exc
    try:
        return _read(source, schema, frame)
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"input is not valid UTF-8: {exc}") from exc


def aggregate(columns: MeasurementColumns) -> CellColumns:
    """Summarize measurements per parallelogram cell of their frame, ordered by (i, j).

    A stable sort on the cell key keeps each cell's members in input order,
    and the sums use numpy's pairwise accumulation over them, so the result
    is deterministic and permutation-invariant up to that summation (means
    first, then the corrected sum of squares).
    """
    width = columns.frame.j_span + 1
    key = columns.i * width + columns.j
    order = np.argsort(key, kind="stable")
    x, y, key = columns.x[order], columns.y[order], key[order]
    bounds = np.append(np.flatnonzero(np.diff(key, prepend=-1)), len(key))
    x_bar, y_bar, css = np.empty((3, len(bounds) - 1))
    # one cell at a time: np.add.reduceat sums in another order than np.mean
    for k, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        xs = x[lo:hi]
        x_bar[k] = np.mean(xs)
        y_bar[k] = np.mean(y[lo:hi])
        css[k] = np.sum((xs - x_bar[k]) ** 2)
    i, j = np.divmod(key[bounds[:-1]], width)
    return CellColumns(columns.frame, i, j, x_bar, y_bar, np.diff(bounds), css)
