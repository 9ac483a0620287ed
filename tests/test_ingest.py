import csv
import io
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrend import ingest
from ctrend.errors import InvalidDates, MalformedFile, NonPositiveInput, OutOfFrame, UnknownSchema
from ctrend.grid import Frame
from ctrend.ingest import (
    Measurement,
    aggregate,
    as_columns,
    derive_age_year,
    derive_bmi,
    load_measurements,
)
from ctrend.synth import TrueModel, generate, smooth_boundary, smooth_trend, survey_plan
from ingest_reference import aggregate_buckets, load_rows, measurements_to_csv


class TestDeriveBmi:
    def test_basic(self):
        assert derive_bmi(80.0, 2.0) == 20.0

    def test_unit_height(self):
        assert derive_bmi(73.5, 1.0) == 73.5

    def test_hand_value(self):
        assert derive_bmi(70.0, 1.75) == pytest.approx(22.857142857142858, rel=1e-12)

    @pytest.mark.parametrize("weight,height", [(0.0, 1.7), (-5.0, 1.7), (70.0, 0.0), (70.0, -1.0)])
    def test_non_positive_rejected(self, weight, height):
        with pytest.raises(NonPositiveInput):
            derive_bmi(weight, height)


class TestDeriveAgeYear:
    def test_basic(self):
        assert derive_age_year(1950, 1982.25) == (32, 1982.25)

    def test_newborn(self):
        assert derive_age_year(1982, 1982.1) == (0, 1982.1)

    def test_oldest_study_age(self):
        assert derive_age_year(1918, 1982.3) == (64, 1982.3)

    def test_invalid_dates(self):
        with pytest.raises(InvalidDates):
            derive_age_year(1990, 1990.0)
        with pytest.raises(InvalidDates):
            derive_age_year(1990, 1985.5)


@pytest.fixture
def frame():
    return Frame.from_bounds(1982.0, 1992.0, 25.0, 64.0)


class TestLoadMeasurements:
    def test_xya_valid(self, frame):
        text = "x,year,age\n24.5,1982.25,40\n22.0,1987.1,30\n26.25,1992.0,64\n"
        ms, report = load_measurements(io.StringIO(text), "xya", frame)
        assert len(ms) == 3
        assert report.n_rejected == 0
        assert ms.rows()[0] == Measurement(24.5, 1982.25, 40.0)

    def test_out_of_frame_age_rejected(self, frame):
        text = "x,year,age\n24.5,1982.25,70\n"
        ms, report = load_measurements(io.StringIO(text), "xya", frame)
        assert ms.rows() == []
        assert report.reasons == {"out-of-frame": 1}

    def test_derived_mode(self, frame):
        text = "weight,height,birth_year,exam_date\n80,2.0,1950,1982.25\n"
        ms, report = load_measurements(io.StringIO(text), "derived", frame)
        assert ms.rows() == [Measurement(20.0, 1982.25, 32.0)]
        assert report.n_accepted == 1

    def test_unparsable_and_nonfinite(self, frame):
        text = "x,year,age\nabc,1982.25,40\nnan,1982.25,40\n24.0,1982.25,40\n"
        ms, report = load_measurements(io.StringIO(text), "xya", frame)
        assert len(ms) == 1
        assert report.reasons == {"non-finite": 1, "unparsable": 1}
        assert report.details == [(2, "unparsable"), (3, "non-finite")]

    def test_invalid_derivation_reported(self, frame):
        text = "weight,height,birth_year,exam_date\n-80,2.0,1950,1982.25\n80,2.0,1990,1982.25\n"
        ms, report = load_measurements(io.StringIO(text), "derived", frame)
        assert ms.rows() == []
        assert report.reasons == {"invalid-derivation": 2}

    @pytest.mark.parametrize(
        "row", ["80,1.8,inf,1982.3", "80,1.8,1950,inf", "80,inf,1950,1982.3", "-inf,1.8,1950,inf"]
    )
    def test_derived_non_finite_field_rejected(self, frame, row):
        # checked before derivation: inf years overflowed int()/floor(), and
        # an inf height derived a BMI of 0
        text = f"weight,height,birth_year,exam_date\n{row}\n80,2.0,1950,1982.25\n"
        ms, report = load_measurements(io.StringIO(text), "derived", frame)
        assert ms.rows() == [Measurement(20.0, 1982.25, 32.0)]
        assert report.details == [(2, "non-finite")]

    @pytest.mark.parametrize("height", ["1e200", "1e-200"])
    def test_derived_height_square_out_of_range(self, frame, height):
        text = f"weight,height,birth_year,exam_date\n80,{height},1950,1982.25\n"
        ms, report = load_measurements(io.StringIO(text), "derived", frame)
        assert ms.rows() == []
        assert report.reasons == {"invalid-derivation": 1}

    @pytest.mark.parametrize(
        "row",
        [
            "80,1e-160,1950,1982.3",  # the square is subnormal: BMI overflows to inf
            "1e-300,1e-160,1950,1982.3",  # ... and with a tiny weight stays finite
            "80,1e-150,1950,1982.3",
            "80,1e200,1950,1982.3",
            "80,1e-200,1950,1982.3",
            "80,1.8,-1e308,1e308",  # the age overflows a float
            "80,1.8,1949.9,1982.3",  # a fractional birth year truncates
            "80,1.8,-0.5,0.5",
        ],
    )
    def test_derivation_edges_match_row_reference(self, row):
        frame = Frame.from_bounds(-5.0, 1992.0, 0.0, 1e30)
        text = f"weight,height,birth_year,exam_date\n{row}\n"
        ms, report = load_measurements(io.StringIO(text), "derived", frame)
        rows, ref = load_rows(io.StringIO(text), "derived", frame)
        assert report.as_dict() == ref.as_dict()
        assert ms.rows() == rows

    def test_unknown_schema(self, frame):
        with pytest.raises(UnknownSchema):
            load_measurements(io.StringIO("x,year,age\n"), "bogus", frame)

    def test_missing_columns(self, frame):
        with pytest.raises(MalformedFile):
            load_measurements(io.StringIO("x,year\n1,2\n"), "xya", frame)

    def test_empty_file(self, frame):
        ms, report = load_measurements(io.StringIO(""), "xya", frame)
        assert ms.rows() == [] and report.n_rows == 0

    def test_header_case_and_extra_columns(self, frame):
        text = "ID,X,Year,AGE\n7,24.5,1982.25,40\n"
        ms, _ = load_measurements(io.StringIO(text), "xya", frame)
        assert ms.rows() == [Measurement(24.5, 1982.25, 40.0)]

    def test_path_roundtrip(self, frame, tmp_path):
        src = tmp_path / "data.csv"
        ms_in = [Measurement(24.5, 1982.25, 40.0), Measurement(26.0, 1991.5, 55.0)]
        src.write_text(measurements_to_csv(ms_in), encoding="utf-8")
        ms, report = load_measurements(src, "xya", frame)
        assert ms.rows() == ms_in and report.n_accepted == 2

    def test_byte_order_mark_skipped(self, frame, tmp_path):
        text = "x,year,age\n24.5,1982.25,40\nabc,1982.25,40\n26.0,1991.5,55\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        (ms, report), (want, want_report) = (
            load_measurements(path, "xya", frame) for path in (marked, plain)
        )
        assert ms.rows() == want.rows() and len(ms) == 2
        assert report.as_dict() == want_report.as_dict()


class TestAggregate:
    def test_two_point_cell(self, frame):
        ms = [Measurement(20.0, 1984.25, 40.0), Measurement(22.0, 1984.25, 40.0)]
        (cell,) = aggregate(ms, frame)
        assert cell.x_bar == 21.0
        assert cell.n == 2
        assert cell.css == 2.0
        assert cell.y_bar == 1984.25

    def test_singleton_cells(self, frame):
        ms = [Measurement(20.0 + k, 1984.25, 30.0 + k) for k in range(5)]
        cells = aggregate(ms, frame)
        assert len(cells) == 5
        assert all(c.n == 1 and c.css == 0.0 for c in cells)

    def test_study_shape_cell_count(self, paper_frame, paper_layout):
        # three survey waves over forty ages: 120 aggregated cells, 40 per wave
        model = TrueModel(
            paper_frame, smooth_boundary(paper_layout), smooth_trend(paper_layout), 0.5
        )
        ms = generate(model, survey_plan(paper_frame, (0, 5, 10), (0.1, 0.2), 2), seed=3)
        cells = aggregate(ms, paper_frame)
        assert len(cells) == 120
        for wave in (0, 5, 10):
            assert sum(1 for c in cells if c.cell.i == wave) == 40

    def test_counts_and_mass_conservation(self, frame):
        rng = np.random.default_rng(8)
        ms = [
            Measurement(rng.normal(24, 3), rng.uniform(1982, 1992), rng.uniform(25, 64))
            for _ in range(500)
        ]
        cells = aggregate(ms, frame)
        assert sum(c.n for c in cells) == 500
        total = sum(m.x for m in ms)
        assert sum(c.n * c.x_bar for c in cells) == pytest.approx(total, rel=1e-10)

    def test_anova_identity(self, frame):
        rng = np.random.default_rng(13)
        ms = [
            Measurement(rng.normal(24, 3), rng.uniform(1982, 1992), rng.uniform(25, 64))
            for _ in range(800)
        ]
        cells = aggregate(ms, frame)
        xs = np.array([m.x for m in ms])
        grand = xs.mean()
        total_css = float(np.sum((xs - grand) ** 2))
        within = sum(c.css for c in cells)
        between = sum(c.n * (c.x_bar - grand) ** 2 for c in cells)
        assert within + between == pytest.approx(total_css, rel=1e-9)

    def test_permutation_invariance(self, frame):
        rng = np.random.default_rng(21)
        ms = [
            Measurement(rng.normal(24, 3), rng.uniform(1982, 1992), rng.uniform(25, 64))
            for _ in range(300)
        ]
        cells_a = aggregate(ms, frame)
        cells_b = aggregate(list(reversed(ms)), frame)
        assert [c.cell for c in cells_a] == [c.cell for c in cells_b]
        assert [c.n for c in cells_a] == [c.n for c in cells_b]
        for ca, cb in zip(cells_a, cells_b):
            assert ca.x_bar == pytest.approx(cb.x_bar, rel=1e-12)
            assert ca.css == pytest.approx(cb.css, rel=1e-9, abs=1e-12)

    def test_cells_sorted(self, frame):
        ms = [
            Measurement(20.0, 1990.5, 50.0),
            Measurement(20.0, 1983.5, 30.0),
            Measurement(20.0, 1983.5, 60.0),
        ]
        cells = aggregate(ms, frame)
        assert [tuple(c.cell) for c in cells] == sorted(tuple(c.cell) for c in cells)


class TestCsvRecordErrors:
    """A record the csv module cannot read counts as unparsable; reading goes on."""

    LONG = "9" * (csv.field_size_limit() + 1)

    def text(self, long_at, n_rows=6):
        rows = ["80,2.0,1950,1982.25"] * n_rows
        rows[long_at] = f"80,{self.LONG},1950,1982.25"
        return "weight,height,birth_year,exam_date\n" + "\n".join(rows) + "\n"

    def test_oversized_field_mid_block(self, frame):
        ms, report = load_measurements(io.StringIO(self.text(2)), "derived", frame)
        assert len(ms) == 5
        assert report.as_dict()["reasons"] == {"unparsable": 1}
        assert report.details == [(4, "unparsable")]

    @pytest.mark.parametrize("long_at", [2, 3])
    def test_oversized_field_at_block_boundary(self, frame, monkeypatch, long_at):
        # blocks of 3 records: the long one ends the first block or starts the second
        monkeypatch.setattr(ingest, "BLOCK_ROWS", 3)
        text = self.text(long_at)
        ms, report = load_measurements(io.StringIO(text), "derived", frame)
        rows, ref = load_rows(io.StringIO(text), "derived", frame)
        assert len(ms) == 5 and ms.rows() == rows
        assert report.details == [(long_at + 2, "unparsable")]
        assert report.as_dict() == ref.as_dict()

    @pytest.mark.parametrize("line_chunk", [1, 2, 1024])
    @pytest.mark.parametrize(
        "after,accepted,details",
        [
            ("22.0,1986.5,35,ok", [Measurement(22.0, 1986.5, 35.0)], [(2, "unparsable")]),
            ("22.0,1999.5,35,ok", [], [(2, "unparsable"), (3, "out-of-frame")]),
        ],
        ids=["accepted", "rejected"],
    )
    def test_oversized_quoted_field_over_lines(
        self, frame, monkeypatch, line_chunk, after, accepted, details
    ):
        # the quoted note runs on to a line that reads as a good row on its own
        monkeypatch.setattr(ingest, "_LINE_CHUNK", line_chunk)
        text = (
            f'x,year,age,note\n21.0,1984.5,40,"{self.LONG}\n'
            f'20.0,1985.5,30,inner line"\n{after}\n'
        )
        ms, report = load_measurements(io.StringIO(text), "xya", frame)
        rows, ref = load_rows(io.StringIO(text), "xya", frame)
        assert ms.rows() == rows == accepted
        assert (report.n_rows, report.details) == (2, details)
        assert report.as_dict() == ref.as_dict()


# Field spellings that exercise every parse and reject path.
SPECIAL_FIELDS = [
    "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e200", "1e-200", "1e-160", "1e-150",
    "1e308", "-1e308", "0", "-0", "-1", "1_0", "1__0", " 12.5 ", "\t40\t", "", "  ", "abc",
    "0x10", "1,5", "1982", "1992.5", "25.5", "64",  # the property's frame bounds
]


def field_strategy(lo, hi):
    number = st.floats(lo, hi, allow_nan=False)
    return st.one_of(
        number.map(repr),
        number.map(lambda v: f"{v:.2f}"),
        st.integers(int(lo), int(hi)).map(str),
        st.sampled_from(SPECIAL_FIELDS),
    )


FIELD_RANGES = {
    "xya": [(-50.0, 80.0), (1979.0, 1995.0), (20.0, 70.0)],
    "derived": [(-10.0, 200.0), (-0.5, 2.5), (1900.0, 1995.0), (1979.0, 1995.0)],
}


@st.composite
def dirty_csv(draw, schema):
    """CSV text in `schema` with dirty rows, odd headers and quoting."""
    names = list(ingest._COLUMNS[schema])
    extra = draw(st.booleans())
    header = [draw(st.sampled_from([n, n.upper(), n.title(), f" {n} "])) for n in names]
    if extra:
        header.insert(draw(st.integers(0, len(header))), "note")
    position = {name: k for k, name in enumerate(h.strip().lower() for h in header)}
    fields = [field_strategy(lo, hi) for lo, hi in FIELD_RANGES[schema]]

    @st.composite
    def row(draw):
        kind = draw(st.sampled_from(["good"] * 6 + ["blank", "spaces", "short", "long"]))
        if kind == "blank":
            return []
        if kind == "spaces":
            return [" " * draw(st.integers(0, 3)) for _ in header]
        values = [draw(f) for f in fields]
        out = [""] * len(header)
        for name, value in zip(names, values):
            out[position[name]] = value
        if extra:
            out[position["note"]] = draw(st.sampled_from(["", "a,b", 'say "hi"', "x"]))
        if kind == "short":
            return out[: draw(st.integers(1, len(out) - 1))]
        if kind == "long":
            return out + ["surplus"]
        return out

    n_rows = draw(st.integers(0, 60))
    rows = draw(st.lists(row(), min_size=n_rows, max_size=n_rows))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    out = io.StringIO()
    writer = csv.writer(out, quoting=quoting, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("schema", ["xya", "derived"])
@settings(max_examples=80)
@given(data=st.data(), block=st.integers(1, 9))
def test_columnar_parser_matches_row_reference(schema, data, block):
    # non-integer age bounds leave sliver corners in the frame
    frame = Frame.from_bounds(1982.0, 1992.5, 25.5, 64.0)
    text = data.draw(dirty_csv(schema))
    with patch.object(ingest, "BLOCK_ROWS", block):
        ms, report = load_measurements(io.StringIO(text), schema, frame)
    rows, ref = load_rows(io.StringIO(text), schema, frame)
    assert report.as_dict() == ref.as_dict()
    assert report.reasons == ref.reasons
    assert bits(ms.x) == bits([m.x for m in rows])
    assert bits(ms.y) == bits([m.y for m in rows])
    assert bits(ms.a) == bits([m.a for m in rows])
    cells = [tuple(frame.locate(m.y, m.a)) for m in rows]
    assert list(zip(ms.i.tolist(), ms.j.tolist())) == cells


def test_dirty_strategy_reaches_every_reject_path():
    """The property's inputs cover each reason, and more than 20 rejects."""
    frame = Frame.from_bounds(1982.0, 1992.5, 25.5, 64.0)
    seen, most = set(), 0

    @settings(max_examples=40)
    @given(data=st.data())
    def collect(data):
        nonlocal most
        for schema in ("xya", "derived"):
            _, report = load_measurements(io.StringIO(data.draw(dirty_csv(schema))), schema, frame)
            seen.update(report.reasons)
            most = max(most, report.n_rejected)

    collect()
    assert seen == {"unparsable", "non-finite", "invalid-derivation", "out-of-frame"}
    assert most > 20


def in_frame(frame, m):
    try:
        frame.locate(m[1], m[2])
    except OutOfFrame:
        return False
    return True


def cell_summary(cells):
    return [(tuple(c.cell), c.x_bar.hex(), c.y_bar.hex(), c.n, c.css.hex()) for c in cells]


@settings(max_examples=100)
@given(
    y0=st.integers(1970, 2000), y_frac=st.sampled_from([0.0, 0.3, 0.9]),
    a0=st.integers(20, 50), a_frac=st.sampled_from([0.0, 0.25, 0.5]),
    spans=st.tuples(st.integers(1, 6), st.integers(2, 7)),
    seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300),
)
def test_aggregate_matches_dict_buckets(y0, y_frac, a0, a_frac, spans, seed, n):
    frame = Frame.from_bounds(y0 + y_frac, y0 + spans[0] + 0.99, a0 + a_frac, a0 + spans[1] + 0.75)
    rng = np.random.default_rng(seed)
    # coarse years and ages repeat points and hit cell edges exactly
    y = np.round(rng.uniform(frame.y_min, frame.y_max, n), rng.integers(0, 3))
    a = np.round(rng.uniform(frame.a_min, frame.a_max, n), rng.integers(0, 2))
    x = rng.normal(24.0, 3.0, n)
    ms = [Measurement(*v) for v in zip(x.tolist(), y.tolist(), a.tolist()) if in_frame(frame, v)]
    want = cell_summary(aggregate_buckets(ms, frame))
    assert cell_summary(aggregate(ms, frame)) == want
    assert cell_summary(aggregate(as_columns(ms, frame), frame)) == want


@pytest.mark.parametrize("n_small,n_large", [(50_000, 200_000)])
def test_ingest_memory_bounded(tmp_path, n_small, n_large):
    """Transient traced memory of a load does not grow with the row count."""
    frame = Frame.from_bounds(1982.0, 1992.99, 25.0, 64.0)

    def transient(n):
        rng = np.random.default_rng(n)
        exam = rng.uniform(1982.0, 1992.9, n)
        height = rng.uniform(1.5, 2.0, n)
        weight = rng.uniform(20.0, 30.0, n) * height * height
        birth = np.floor(exam) - rng.integers(26, 63, n)
        path = tmp_path / f"rows{n}.csv"
        np.savetxt(
            path, np.column_stack([weight, height, birth, exam]),
            fmt=["%.2f", "%.3f", "%d", "%.6f"], delimiter=",",
            header="weight,height,birth_year,exam_date", comments="",
        )
        tracemalloc.start()
        try:
            ms, report = load_measurements(path, "derived", frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_accepted == n
        return peak - sum(getattr(ms, c).nbytes for c in "xyaij")

    small, large = transient(n_small), transient(n_large)
    assert large <= 1.25 * small, (small, large)
