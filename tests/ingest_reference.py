"""Per-row reference implementations of ingest, for the tests to hold the
columnar `ctrend.ingest` against.

A `Measurement` is one row (x, y, a).  `locate` is the scalar reference of
`Frame.cells`, and `derive_bmi` and `derive_age_year` derive one
derived-schema record, the scalar reference of `ctrend.ingest._derive`.
`load_rows` parses, derives and locates one record at a time with them;
`aggregate_buckets` groups measurements in a dict keyed by `locate`'s cell,
`cell_columns` turns cell rows written by hand into `CellColumns`, and
`cell_bits` holds cell columns to compare bit for bit.  `columns` turns rows written by hand into the one measurement form of
`ctrend`, `rows` is the row view of such columns, and `measurements_to_csv`
writes measurements back as ``xya`` CSV text.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Iterable, NamedTuple

import numpy as np

from ctrend.errors import MalformedFile, OutOfFrame
from ctrend.grid import CellIndex, Frame, _absolute_cell
from ctrend.ingest import (
    REASON_INVALID_DERIVATION,
    REASON_NON_FINITE,
    REASON_OUT_OF_FRAME,
    REASON_UNPARSABLE,
    SCHEMA_XYA,
    CellColumns,
    MeasurementColumns,
    ValidationReport,
    _COLUMNS,
)

MAX_REJECT_DETAILS = 20


class Measurement(NamedTuple):
    """One survey record: state value x at decimal year y and age a."""

    x: float
    y: float
    a: float


def locate(frame: Frame, y: float, a: float) -> CellIndex:
    """Relative cell of `frame` containing (y, a).

    Integer boundary membership is exact: an age equal to j + t lands in
    cell j (right boundary included).  Points inside the rectangle whose
    cell falls outside the lattice (possible only in sliver corners of
    frames with non-integer age bounds) are rejected as out of frame.
    """
    if not frame.contains(y, a):
        raise OutOfFrame(f"point (y={y}, a={a}) outside frame")
    i_abs, j_abs, _ = _absolute_cell(y, a)
    i = i_abs - frame.i_min
    j = j_abs - frame.j_min
    if not (0 <= i <= frame.i_span and 0 <= j <= frame.j_span):
        raise OutOfFrame(
            f"point (y={y}, a={a}) falls in cell ({i_abs}, {j_abs}) "
            f"outside the frame lattice"
        )
    return CellIndex(i, j)


def columns(measurements: Iterable[Measurement], frame: Frame) -> MeasurementColumns:
    """Measurement rows, every one inside `frame`, as columns located there
    by `Frame.cells`."""
    x, y, a = np.array(list(measurements), dtype=float).reshape(-1, 3).T
    i, j, inside = frame.cells(y, a)
    assert inside.all(), f"rows {np.flatnonzero(~inside).tolist()} lie outside the frame"
    return MeasurementColumns(frame, x, y, a, i, j)


def derive_bmi(weight: float, height: float) -> float:
    """Body mass index from weight in kg and height in m.

    The height is squared by one correctly rounded product, as in
    `load_measurements`.  A non-positive weight or height raises ValueError;
    a square that overflows or underflows to zero raises ArithmeticError.
    """
    if weight <= 0 or height <= 0:
        raise ValueError(f"weight={weight}, height={height}")
    square = height * height
    if math.isinf(square):
        raise OverflowError(f"height={height} squared overflows")
    return weight / square


def derive_age_year(birth_year: int, exam_date: float) -> tuple[int, float]:
    """Age in full years (examination year minus birth year) and decimal year.

    An examination date not after the birth year raises ValueError.
    """
    if exam_date <= birth_year:
        raise ValueError(f"exam_date={exam_date} not after birth_year={birth_year}")
    return math.floor(exam_date) - birth_year, exam_date


def rows(columns: MeasurementColumns) -> list[Measurement]:
    """Row view of measurement columns: one `Measurement` per row, in order."""
    return list(map(Measurement, columns.x.tolist(), columns.y.tolist(), columns.a.tolist()))


def _reject(report: ValidationReport, row: int, reason: str) -> None:
    report.reasons[reason] = report.reasons.get(reason, 0) + 1
    if len(report.details) < MAX_REJECT_DETAILS:
        report.details.append((row, reason))


def _measurement(fields: list[float], schema: str) -> Measurement:
    if schema == SCHEMA_XYA:
        return Measurement(*fields)
    weight, height, birth_year, exam_date = fields
    x = derive_bmi(weight, height)
    a, y = derive_age_year(int(birth_year), exam_date)
    return Measurement(x, y, float(a))


def load_rows(source, schema: str, frame) -> tuple[list[Measurement], ValidationReport]:
    """Accepted measurements in file order and the validation report.

    After a record the csv reader cannot read, lines are skipped while the
    count of quote characters from the start of that record is odd: the
    failed line ended inside a quoted field, and the field runs on to the
    line that makes the count even.
    """
    quotes = 0  # on the lines read since the last whole record

    def counted():
        nonlocal quotes
        for line in source:
            quotes += line.count('"')
            yield line

    lines = counted()
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        return [], ValidationReport()
    except csv.Error as exc:
        raise MalformedFile(f"cannot read CSV header: {exc}") from exc
    names = [h.strip().lower() for h in header]
    missing = [c for c in _COLUMNS[schema] if c not in names]
    if missing:
        raise MalformedFile(f"missing {missing}")
    positions = [names.index(c) for c in _COLUMNS[schema]]

    report = ValidationReport()
    accepted: list[Measurement] = []
    row_number = 1
    while True:
        row_number += 1
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error:
            report.n_rows += 1
            _reject(report, row_number, REASON_UNPARSABLE)
            while quotes % 2 and next(lines, None) is not None:
                pass
            quotes = 0
            continue
        quotes = 0
        if not row or all(not f.strip() for f in row):
            continue
        report.n_rows += 1
        try:
            fields = [float(row[p]) for p in positions]
        except (IndexError, ValueError):
            _reject(report, row_number, REASON_UNPARSABLE)
            continue
        if not all(math.isfinite(v) for v in fields):
            _reject(report, row_number, REASON_NON_FINITE)
            continue
        try:
            m = _measurement(fields, schema)
        except (ValueError, ArithmeticError):
            _reject(report, row_number, REASON_INVALID_DERIVATION)
            continue
        if not all(math.isfinite(v) for v in m):
            _reject(report, row_number, REASON_NON_FINITE)
            continue
        try:
            locate(frame, m.y, m.a)
        except OutOfFrame:
            _reject(report, row_number, REASON_OUT_OF_FRAME)
            continue
        accepted.append(m)
        report.n_accepted += 1
    return accepted, report


def aggregate_buckets(measurements, frame) -> CellColumns:
    """Per-cell summaries from dict buckets of members in input order."""
    buckets: dict = {}
    for m in measurements:
        buckets.setdefault(locate(frame, m.y, m.a), []).append(m)
    cells = []
    for cell in sorted(buckets):
        members = buckets[cell]
        xs = np.array([m.x for m in members], dtype=float)
        ys = np.array([m.y for m in members], dtype=float)
        x_bar = float(np.mean(xs))
        cells.append(
            (*cell, x_bar, float(np.mean(ys)), len(members), float(np.sum((xs - x_bar) ** 2)))
        )
    return cell_columns(frame, cells)


def cell_columns(frame: Frame, cells) -> CellColumns:
    """Cell rows (i, j, x_bar, y_bar, n, css), written by hand, as columns."""
    i, j, x_bar, y_bar, n, css = np.array(cells, dtype=float).reshape(-1, 6).T
    return CellColumns(frame, i.astype(int), j.astype(int), x_bar, y_bar, n.astype(int), css)


def cell_bits(cells: CellColumns) -> dict[str, tuple]:
    """Each column of `cells` as its dtype and bytes, to compare bit for bit."""
    return {
        name: (column.dtype.str, column.tobytes())
        for name in ("i", "j", "x_bar", "y_bar", "n", "css")
        for column in [getattr(cells, name)]
    }


def measurements_to_csv(measurements: Iterable[Measurement]) -> str:
    """Render measurements in the ``xya`` schema (repr-exact floats)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["x", "year", "age"])
    for m in measurements:
        writer.writerow([repr(m.x), repr(m.y), repr(m.a)])
    return out.getvalue()
