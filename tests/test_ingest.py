import io

import numpy as np
import pytest

from ctrend.errors import InvalidDates, MalformedFile, NonPositiveInput, UnknownSchema
from ctrend.grid import Frame
from ctrend.ingest import (
    Measurement,
    aggregate,
    derive_age_year,
    derive_bmi,
    load_measurements,
    measurements_to_csv,
)
from ctrend.synth import TrueModel, generate, smooth_boundary, smooth_trend, survey_plan


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
        assert ms[0] == Measurement(24.5, 1982.25, 40.0)

    def test_out_of_frame_age_rejected(self, frame):
        text = "x,year,age\n24.5,1982.25,70\n"
        ms, report = load_measurements(io.StringIO(text), "xya", frame)
        assert ms == []
        assert report.reasons == {"out-of-frame": 1}

    def test_derived_mode(self, frame):
        text = "weight,height,birth_year,exam_date\n80,2.0,1950,1982.25\n"
        ms, report = load_measurements(io.StringIO(text), "derived", frame)
        assert ms == [Measurement(20.0, 1982.25, 32.0)]
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
        assert ms == []
        assert report.reasons == {"invalid-derivation": 2}

    @pytest.mark.parametrize(
        "row", ["80,1.8,inf,1982.3", "80,1.8,1950,inf", "80,inf,1950,1982.3", "-inf,1.8,1950,inf"]
    )
    def test_derived_non_finite_field_rejected(self, frame, row):
        # checked before derivation: inf years overflowed int()/floor(), and
        # an inf height derived a BMI of 0
        text = f"weight,height,birth_year,exam_date\n{row}\n80,2.0,1950,1982.25\n"
        ms, report = load_measurements(io.StringIO(text), "derived", frame)
        assert ms == [Measurement(20.0, 1982.25, 32.0)]
        assert report.details == [(2, "non-finite")]

    @pytest.mark.parametrize("height", ["1e200", "1e-200"])
    def test_derived_height_square_out_of_range(self, frame, height):
        text = f"weight,height,birth_year,exam_date\n80,{height},1950,1982.25\n"
        ms, report = load_measurements(io.StringIO(text), "derived", frame)
        assert ms == []
        assert report.reasons == {"invalid-derivation": 1}

    def test_unknown_schema(self, frame):
        with pytest.raises(UnknownSchema):
            load_measurements(io.StringIO("x,year,age\n"), "bogus", frame)

    def test_missing_columns(self, frame):
        with pytest.raises(MalformedFile):
            load_measurements(io.StringIO("x,year\n1,2\n"), "xya", frame)

    def test_empty_file(self, frame):
        ms, report = load_measurements(io.StringIO(""), "xya", frame)
        assert ms == [] and report.n_rows == 0

    def test_header_case_and_extra_columns(self, frame):
        text = "ID,X,Year,AGE\n7,24.5,1982.25,40\n"
        ms, _ = load_measurements(io.StringIO(text), "xya", frame)
        assert ms == [Measurement(24.5, 1982.25, 40.0)]

    def test_path_roundtrip(self, frame, tmp_path):
        src = tmp_path / "data.csv"
        ms_in = [Measurement(24.5, 1982.25, 40.0), Measurement(26.0, 1991.5, 55.0)]
        src.write_text(measurements_to_csv(ms_in), encoding="utf-8")
        ms, report = load_measurements(src, "xya", frame)
        assert ms == ms_in and report.n_accepted == 2


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
