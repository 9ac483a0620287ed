"""Loading, validation, derivation, and per-cell aggregation of survey data.

Input is CSV with a header row, in one of two schemas:

* ``xya``: columns ``x, year, age`` with the state variable already derived;
* ``derived``: columns ``weight, height, birth_year, exam_date`` from which
  BMI, age, and the decimal examination year are computed.

Dirty rows never abort a run; they are counted per reason and reported.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InvalidDates, MalformedFile, NonPositiveInput, OutOfFrame, UnknownSchema
from .grid import CellIndex, Frame

SCHEMA_XYA = "xya"
SCHEMA_DERIVED = "derived"
SCHEMAS = (SCHEMA_XYA, SCHEMA_DERIVED)

_COLUMNS = {
    SCHEMA_XYA: ("x", "year", "age"),
    SCHEMA_DERIVED: ("weight", "height", "birth_year", "exam_date"),
}

# Rejection reasons, reported in this order.
REASON_UNPARSABLE = "unparsable"
REASON_NON_FINITE = "non-finite"
REASON_OUT_OF_FRAME = "out-of-frame"
REASON_INVALID_DERIVATION = "invalid-derivation"

_MAX_REJECT_DETAILS = 20


class Measurement(NamedTuple):
    """One survey record: state value x at decimal year y and age a."""

    x: float
    y: float
    a: float


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

    def reject(self, row: int, reason: str) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if len(self.details) < _MAX_REJECT_DETAILS:
            self.details.append((row, reason))

    def as_dict(self) -> dict:
        return {
            "rows": self.n_rows,
            "accepted": self.n_accepted,
            "rejected": self.n_rejected,
            "reasons": dict(sorted(self.reasons.items())),
            "first_rejects": [{"row": r, "reason": why} for r, why in self.details],
        }


def derive_bmi(weight: float, height: float) -> float:
    """Body mass index from weight in kg and height in m."""
    if weight <= 0 or height <= 0:
        raise NonPositiveInput(f"weight={weight}, height={height}")
    return weight / height**2


def derive_age_year(birth_year: int, exam_date: float) -> tuple[int, float]:
    """Age in full years (examination year minus birth year) and decimal year."""
    if exam_date <= birth_year:
        raise InvalidDates(f"exam_date={exam_date} not after birth_year={birth_year}")
    return math.floor(exam_date) - birth_year, exam_date


def _measurement(fields: list[float], schema: str) -> Measurement:
    """Measurement from the schema's fields, already parsed and finite."""
    if schema == SCHEMA_XYA:
        return Measurement(*fields)
    weight, height, birth_year, exam_date = fields
    x = derive_bmi(weight, height)
    a, y = derive_age_year(int(birth_year), exam_date)
    return Measurement(x, y, float(a))


def load_measurements(
    source, schema: str, frame: Frame
) -> tuple[list[Measurement], ValidationReport]:
    """Parse a CSV source, keeping in-frame rows and reporting the rest.

    `source` is a path or an open text stream.  Column lookup is
    case-insensitive; extra columns are ignored.
    """
    if schema not in SCHEMAS:
        raise UnknownSchema(f"schema must be one of {SCHEMAS}, got {schema!r}")
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return load_measurements(handle, schema, frame)

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        return [], ValidationReport()
    except csv.Error as exc:
        raise MalformedFile(f"cannot read CSV header: {exc}") from exc
    names = [h.strip().lower() for h in header]
    missing = [c for c in _COLUMNS[schema] if c not in names]
    if missing:
        raise MalformedFile(
            f"schema {schema!r} needs columns {_COLUMNS[schema]}, missing {missing}"
        )
    positions = [names.index(c) for c in _COLUMNS[schema]]

    report = ValidationReport()
    accepted: list[Measurement] = []
    for row_number, row in enumerate(reader, start=2):
        if not row or all(not f.strip() for f in row):
            continue
        report.n_rows += 1
        try:
            fields = [float(row[p]) for p in positions]
        except (IndexError, ValueError):
            report.reject(row_number, REASON_UNPARSABLE)
            continue
        if not all(math.isfinite(v) for v in fields):
            report.reject(row_number, REASON_NON_FINITE)
            continue
        try:
            m = _measurement(fields, schema)
        except (NonPositiveInput, InvalidDates, ArithmeticError):
            # ArithmeticError: a height whose square overflows or underflows
            report.reject(row_number, REASON_INVALID_DERIVATION)
            continue
        if not all(math.isfinite(v) for v in m):
            report.reject(row_number, REASON_NON_FINITE)
            continue
        try:
            frame.locate(m.y, m.a)
        except OutOfFrame:
            report.reject(row_number, REASON_OUT_OF_FRAME)
            continue
        accepted.append(m)
        report.n_accepted += 1
    return accepted, report


def aggregate(measurements: Iterable[Measurement], frame: Frame) -> list[AggregatedCell]:
    """Summarize measurements per parallelogram cell, ordered by (i, j).

    Sums use numpy's pairwise accumulation over the per-cell member list in
    input order, so the result is deterministic and permutation-invariant up
    to that summation (means first, then the corrected sum of squares).
    """
    buckets: dict[CellIndex, list[Measurement]] = {}
    for m in measurements:
        cell = frame.locate(m.y, m.a)
        buckets.setdefault(cell, []).append(m)
    cells = []
    for cell in sorted(buckets):
        members = buckets[cell]
        xs = np.array([m.x for m in members], dtype=float)
        ys = np.array([m.y for m in members], dtype=float)
        x_bar = float(np.mean(xs))
        cells.append(
            AggregatedCell(
                cell=cell,
                x_bar=x_bar,
                y_bar=float(np.mean(ys)),
                n=len(members),
                css=float(np.sum((xs - x_bar) ** 2)),
            )
        )
    return cells


def measurements_to_csv(measurements: Iterable[Measurement]) -> str:
    """Render measurements in the ``xya`` schema (repr-exact floats)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["x", "year", "age"])
    for m in measurements:
        writer.writerow([repr(m.x), repr(m.y), repr(m.a)])
    return out.getvalue()
