"""Loading, validation, derivation, and per-cell aggregation of survey data.

Input is CSV with a header row, in one of two schemas:

* ``xya``: columns ``x, year, age`` with the state variable already derived;
* ``derived``: columns ``weight, height, birth_year, exam_date`` from which
  BMI, age, and the decimal examination year are computed.

The file is read in blocks of `BLOCK_ROWS` records.  The needed columns of
a block are converted by numpy, and validation, derivation and the frame
test run as array masks over the block.  Accepted rows are appended to
column arrays grown in place, so memory beyond those columns is O(block),
not O(rows).

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
counted.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InvalidDates, MalformedFile, NonPositiveInput, UnknownSchema
from .grid import CellIndex, Frame

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

# CSV records converted and validated together.
BLOCK_ROWS = 4096
# Strings per numpy conversion: a dirty field costs a Python loop over this many.
_CHUNK = 256


class Measurement(NamedTuple):
    """One survey record: state value x at decimal year y and age a."""

    x: float
    y: float
    a: float


@dataclass(frozen=True)
class MeasurementColumns:
    """Measurements as columns, with the cell (i, j) of each row in `frame`."""

    frame: Frame
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)
    i: np.ndarray = field(repr=False)
    j: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.x)

    def rows(self) -> list[Measurement]:
        """Row view: one `Measurement` per row, in order."""
        return list(map(Measurement, self.x.tolist(), self.y.tolist(), self.a.tolist()))


def as_columns(
    measurements: MeasurementColumns | Sequence[Measurement], frame: Frame
) -> MeasurementColumns:
    """`measurements` as columns located in `frame`.

    Columns already located in `frame` pass through unchanged; anything else
    is located here.  Raises OutOfFrame for the first measurement outside the
    frame.
    """
    if isinstance(measurements, MeasurementColumns):
        if measurements.frame == frame:
            return measurements
        x, y, a = measurements.x, measurements.y, measurements.a
    else:
        flat = np.fromiter(chain.from_iterable(measurements), float, count=3 * len(measurements))
        x, y, a = flat.reshape(-1, 3).T
    i, j = frame.locate_many(y, a)
    return MeasurementColumns(frame, x, y, a, i, j)


@dataclass(frozen=True)
class AggregatedCell:
    """Per-cell summary: mean x, mean y, count, corrected sum of squares."""

    cell: CellIndex
    x_bar: float
    y_bar: float
    n: int
    css: float


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
        kinds, first, counts = np.unique(reasons, return_index=True, return_counts=True)
        for k in np.argsort(first):
            self.reasons[kinds[k]] = self.reasons.get(kinds[k], 0) + int(counts[k])
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


def derive_bmi(weight: float, height: float) -> float:
    """Body mass index from weight in kg and height in m.

    The height is squared by one correctly rounded product, as in
    `load_measurements`.  A square that overflows or underflows to zero
    raises ArithmeticError.
    """
    if weight <= 0 or height <= 0:
        raise NonPositiveInput(f"weight={weight}, height={height}")
    square = height * height
    if math.isinf(square):
        raise OverflowError(f"height={height} squared overflows")
    return weight / square


def derive_age_year(birth_year: int, exam_date: float) -> tuple[int, float]:
    """Age in full years (examination year minus birth year) and decimal year."""
    if exam_date <= birth_year:
        raise InvalidDates(f"exam_date={exam_date} not after birth_year={birth_year}")
    return math.floor(exam_date) - birth_year, exam_date


# Reject reasons by code, codes in the order the masks are tested.
_REASONS = np.array(
    [None, REASON_UNPARSABLE, REASON_NON_FINITE, REASON_INVALID_DERIVATION, REASON_OUT_OF_FRAME],
    dtype=object,
)


# Stands in for a record the csv reader cannot read: one field, so too
# short for either schema (unparsable), and not blank (counted).
_UNREADABLE = ["<unreadable record>"]
# Physical lines read from the source at a time.
_LINE_CHUNK = 1024


def _records(source) -> Iterator[list[str]]:
    """The csv records of a text stream, with `_UNREADABLE` for each it cannot read.

    The csv reader drops the rest of the physical line it failed on and
    resumes at the next one.  If the quote characters on the lines read so
    far are odd in number, that line ended inside a quoted field: the lines
    up to the one that makes the count even are skipped too, so no text
    inside the quote is read as records.  The count is kept per chunk of
    lines, not per line.
    """
    chunk: list[str] = []
    before = quotes = 0  # lines handed out before `chunk`, and the quotes on them

    def chunks():
        nonlocal chunk, before, quotes
        while new := list(islice(source, _LINE_CHUNK)):
            before, quotes = before + len(chunk), quotes + "".join(chunk).count('"')
            chunk = new
            yield new

    lines = chain.from_iterable(chunks())
    reader = csv.reader(lines)
    skipped = 0  # lines read past the csv reader
    while True:
        try:
            yield from reader
            return
        except csv.Error:
            yield _UNREADABLE
        read = reader.line_num + skipped - before
        odd = (quotes + "".join(chunk[:read]).count('"')) % 2
        while odd and (line := next(lines, None)) is not None:
            skipped += 1
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


def _derive(fields: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """BMI, decimal year, age, and the mask of rows `derive_bmi` or
    `derive_age_year` rejects, from the four derived-schema columns.

    The same IEEE operations as the scalar derivations: one product for the
    square, and the age as floor(exam) - trunc(birth), which rounds the
    exact integer difference once, as float() of it does.
    """
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


def _take_block(
    block: list, first_row: int, positions: list[int], schema: str, frame: Frame,
    report: ValidationReport,
) -> tuple[np.ndarray, ...]:
    """Validate one block of records; the accepted rows' x, y, a, i and j."""
    width = max(positions) + 1
    short = np.fromiter(map(len, block), int, len(block)) < width
    padded = block
    if short.any():
        padded = [r if len(r) >= width else ["nan"] * width for r in block]
    fields, bad = zip(*(_floats([r[p] for r in padded]) for p in positions))
    unparsable = np.logical_or.reduce(bad) | short

    # Blank records fail to parse; skip them uncounted.
    counted = np.ones(len(block), dtype=bool)
    for k in np.flatnonzero(unparsable):
        counted[k] = bool("".join(block[k]).strip())

    finite = np.logical_and.reduce([np.isfinite(f) for f in fields])
    if schema == SCHEMA_XYA:
        x, y, a = fields
        invalid = np.zeros(len(block), dtype=bool)
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
    records = _records(source)
    header = next(records, None)
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
    while block := list(islice(records, BLOCK_ROWS)):
        kept = _take_block(block, first_row, positions, schema, frame, report)
        first_row += len(block)
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

    `source` is a path or an open text stream.  Column lookup is
    case-insensitive; extra columns are ignored.  The accepted rows come
    back as columns in file order, each with its cell in `frame`.  A path
    that cannot be opened or read raises ConfigError; bytes that are not
    UTF-8 raise MalformedFile.  A path's leading byte-order mark is skipped.
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


def aggregate(
    measurements: MeasurementColumns | Sequence[Measurement], frame: Frame
) -> list[AggregatedCell]:
    """Summarize measurements per parallelogram cell, ordered by (i, j).

    A stable sort on the cell key keeps each cell's members in input order,
    and the sums use numpy's pairwise accumulation over them, so the result
    is deterministic and permutation-invariant up to that summation (means
    first, then the corrected sum of squares).
    """
    m = as_columns(measurements, frame)
    key = m.i * (frame.j_span + 1) + m.j
    order = np.argsort(key, kind="stable")
    x, y, key = m.x[order], m.y[order], key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    cells = []
    for lo, hi in zip(starts, starts[1:] + [len(key)]):
        xs = x[lo:hi]
        x_bar = float(np.mean(xs))
        cells.append(
            AggregatedCell(
                cell=CellIndex(*divmod(int(key[lo]), frame.j_span + 1)),
                x_bar=x_bar,
                y_bar=float(np.mean(y[lo:hi])),
                n=hi - lo,
                css=float(np.sum((xs - x_bar) ** 2)),
            )
        )
    return cells
