import numpy as np
import pytest

from ctrend.design import (
    build_system_aggregated,
    build_u2uc,
    build_v2u,
)
from ctrend.errors import InvalidClusterSize, OutOfFrame
from ctrend.grid import CellIndex, Frame, ParameterLayout
from ctrend.ingest import aggregate
from ctrend.synth import TrueModel, generate, survey_plan
from ingest_reference import Measurement, cell_columns, columns, locate
from zref import (
    boundary_points,
    build_b0_aggregated,
    build_b0_raw,
    build_z2v,
    observation_row,
    penalties_z,
    smooth_boundary,
    smooth_trend,
    trend_index,
    year_fraction,
)


def level_surface_by_recurrence(layout, z):
    """Independent construction of the level surface from a parameter vector.

    Fills the boundary directly, then marches the dynamic recursion
    v(i+1, j+1) = v(i, j) + u(i, j) cell by cell; no path expansion involved.
    """
    ni, nj = layout.level_shape
    v = np.full((ni, nj), np.nan)
    for (bi, bj) in boundary_points(layout):
        v[bi, bj] = z[layout.boundary_index(bi, bj)]
    u = z[layout.n_boundary:].reshape(layout.trend_shape)
    for i in range(1, ni):
        for j in range(1, nj):
            v[i, j] = v[i - 1, j - 1] + u[i - 1, j - 1]
    return v


def direct_level_smoothness(v):
    """Second-difference sum straight off the level surface."""
    age = v[:, :-2] - 2.0 * v[:, 1:-1] + v[:, 2:]
    year = v[:-2, :] - 2.0 * v[1:-1, :] + v[2:, :]
    return float(np.sum(age**2) + np.sum(year**2))


def direct_trend_smoothness(u):
    age = u[:, :-2] - 2.0 * u[:, 1:-1] + u[:, 2:]
    year = u[:-2, :] - 2.0 * u[1:-1, :] + u[2:, :]
    return float(np.sum(age**2) + np.sum(year**2))


@pytest.fixture(scope="module")
def frame():
    return Frame.from_bounds(1982.0, 1992.9, 25.0, 64.0)


@pytest.fixture(scope="module")
def layout(frame):
    return ParameterLayout.from_frame(frame)


class TestObservationRow:
    def test_interior_cell(self, frame, layout):
        # relative cell (2, 5), year fraction 0.3
        row = observation_row(layout, frame, 1984.3, 30.0)
        assert locate(frame, 1984.3, 30.0) == CellIndex(2, 5)
        expected = {
            layout.boundary_index(0, 3): 1.0,
            trend_index(layout, 1, 4): 1.0,
            trend_index(layout, 0, 3): 1.0,
            trend_index(layout, 2, 5): year_fraction(1984.3),
        }
        assert row.coeffs == expected
        assert row.coeffs[trend_index(layout, 2, 5)] == pytest.approx(0.3, rel=1e-12)

    def test_origin_cell_zero_fraction(self, frame, layout):
        row = observation_row(layout, frame, 1982.0, 25.0)
        assert row.coeffs == {layout.boundary_index(0, 0): 1.0}

    def test_first_row_top_age(self, frame, layout):
        # relative cell (0, J), fraction 0.5
        row = observation_row(layout, frame, 1982.5, 64.0)
        assert locate(frame, 1982.5, 64.0) == CellIndex(0, 39)
        expected = {
            layout.boundary_index(0, 39): 1.0,
            trend_index(layout, 0, 39): 0.5,
        }
        assert row.coeffs == pytest.approx(expected)

    def test_coefficient_sums(self, frame, layout):
        rng = np.random.default_rng(3)
        for _ in range(300):
            y = rng.uniform(frame.y_min, frame.y_max)
            a = rng.uniform(frame.a_min, frame.a_max)
            cell = locate(frame, y, a)
            t = year_fraction(y)
            row = observation_row(layout, frame, y, a)
            d = row.coeffs
            u_sum = sum(v for k, v in d.items() if k >= layout.n_boundary)
            v_coeffs = [v for k, v in d.items() if k < layout.n_boundary]
            assert v_coeffs == [1.0]
            assert u_sum == pytest.approx(min(cell.i, cell.j) + t, rel=1e-12, abs=1e-12)


class TestDataRows:
    def test_raw_row_per_measurement(self, frame, layout):
        ms = [Measurement(24.0, 1984.3, 30.0), Measurement(25.0, 1990.1, 60.0)]
        rows = build_b0_raw(layout, frame, ms)
        assert len(rows) == 2
        assert [r.rhs for r in rows] == [24.0, 25.0]

    def test_raw_empty(self, frame, layout):
        assert build_b0_raw(layout, frame, []) == []

    def test_aggregated_single_cell(self, frame, layout):
        cells = cell_columns(frame, [(2, 5, 24.0, 1984.5, 5, 3.25)])
        rows, weights, css_total = build_b0_aggregated(layout, cells)
        assert len(rows) == 1 and rows[0].rhs == 24.0
        assert weights.tolist() == [5.0]
        assert css_total == 3.25

    def test_aggregated_css_adds(self, frame, layout):
        cells = cell_columns(frame, [(2, 5, 24.0, 1984.5, 5, 3.25), (3, 6, 25.0, 1985.5, 4, 1.5)])
        _, _, css_total = build_b0_aggregated(layout, cells)
        assert css_total == 4.75

    def test_aggregated_mean_year_outside_its_cell_rejected(self, frame, layout):
        # cell i = 3 spans the years [1985, 1986)
        cells = cell_columns(frame, [(2, 5, 24.0, 1984.5, 5, 0.0), (3, 6, 25.0, 1986.0, 4, 0.0)])
        for build in (lambda: build_system_aggregated(cells), lambda: build_b0_aggregated(layout, cells)):
            with pytest.raises(OutOfFrame, match=r"^cell \(3, 6\) mean year 1986.0 outside"):
                build()

    def test_aggregated_matches_collapsed_raw(self, frame, layout):
        # all member years equal: the cell row equals each raw row
        ms = [Measurement(23.0, 1984.5, 30.0), Measurement(25.0, 1984.5, 30.0)]
        raw = build_b0_raw(layout, frame, ms)
        rows, weights, _ = build_b0_aggregated(layout, aggregate(columns(ms, frame)))
        assert rows[0].coeffs == raw[0].coeffs == raw[1].coeffs
        assert rows[0].rhs == 24.0 and weights.tolist() == [2.0]

    def test_study_shape_aggregated_row_count(self, frame, layout):
        model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 0.5)
        ms = generate(model, survey_plan(frame, (0, 5, 10), (0.1, 0.2), 2), seed=3)
        rows, weights, _ = build_b0_aggregated(layout, aggregate(ms))
        assert len(rows) == 120
        assert weights.sum() == len(ms)


def nonzeros(row):
    """Nonzero coefficients of one dense row, as {column: value}."""
    nz = np.flatnonzero(row)
    return dict(zip(nz.tolist(), row[nz].tolist()))


class TestPenaltyRows:
    """The fit's penalty operators pulled back to parameters (`penalties_z`)."""

    def test_counts_study_scale(self, layout):
        b1, b2 = penalties_z(layout)
        assert b1.shape[0] == 12 * 39 + 41 * 10  # 878
        assert b2.shape[0] == 11 * 38 + 40 * 9   # 778

    def test_counts_formula(self):
        for i_span, j_span in ((1, 1), (2, 3), (5, 4)):
            layout = ParameterLayout(i_span, j_span)
            n1 = (i_span + 2) * j_span + (j_span + 2) * i_span
            n2 = (i_span + 1) * (j_span - 1) + (j_span + 1) * (i_span - 1)
            b1, b2 = penalties_z(layout)
            assert b1.shape == (n1, layout.dim)
            assert b2.shape == (n2, layout.dim)

    def test_unit_spans_have_no_trend_rows(self):
        assert penalties_z(ParameterLayout(1, 1))[1].shape[0] == 0

    def test_boundary_level_row(self, layout):
        # age-direction stencil at (0, 1): pure boundary points
        b1, _ = penalties_z(layout)
        expected = {
            layout.boundary_index(0, 0): 1.0,
            layout.boundary_index(0, 1): -2.0,
            layout.boundary_index(0, 2): 1.0,
        }
        assert nonzeros(b1[0]) == expected

    def test_expanded_level_row(self, layout):
        # age-direction stencil at (1, 1): hand expansion via the cohort path
        #   v(1,0) = b(1,0); v(1,1) = b(0,0) + u(0,0); v(1,2) = b(0,1) + u(0,1)
        b1, _ = penalties_z(layout)
        row = b1[1 * layout.j_span + 0]     # i=1 block, center j=1
        expected = {
            layout.boundary_index(1, 0): 1.0,
            layout.boundary_index(0, 0): -2.0,
            trend_index(layout, 0, 0): -2.0,
            layout.boundary_index(0, 1): 1.0,
            trend_index(layout, 0, 1): 1.0,
        }
        assert nonzeros(row) == expected

    def test_trend_row_stencil(self, layout):
        _, b2 = penalties_z(layout)
        expected = {
            trend_index(layout, 0, 0): 1.0,
            trend_index(layout, 0, 1): -2.0,
            trend_index(layout, 0, 2): 1.0,
        }
        assert nonzeros(b2[0]) == expected

    def test_penalty_matches_direct_evaluation(self):
        # the operators and the surface-level formulas must compute the same sums
        layout = ParameterLayout(4, 6)
        b1, b2 = penalties_z(layout)
        a_z2v = build_z2v(layout)
        rng = np.random.default_rng(17)
        for _ in range(25):
            z = rng.normal(size=layout.dim)
            s1_rows = float(np.sum((b1 @ z) ** 2))
            s1_direct = direct_level_smoothness((a_z2v @ z).reshape(layout.level_shape))
            assert s1_rows == pytest.approx(s1_direct, rel=1e-10)
            s2_rows = float(np.sum((b2 @ z) ** 2))
            s2_direct = direct_trend_smoothness(
                z[layout.n_boundary:].reshape(layout.trend_shape)
            )
            assert s2_rows == pytest.approx(s2_direct, rel=1e-10)

    def test_every_parameter_penalized(self):
        layout = ParameterLayout(3, 4)
        b1, b2 = penalties_z(layout)
        touched = np.flatnonzero(np.any(b1 != 0.0, axis=0) | np.any(b2 != 0.0, axis=0))
        assert touched.tolist() == list(range(layout.dim))


class TestReconstructionMaps:
    def test_z2v_matches_recurrence(self):
        layout = ParameterLayout(3, 5)
        a = build_z2v(layout)
        rng = np.random.default_rng(4)
        for _ in range(10):
            z = rng.normal(size=layout.dim)
            expected = level_surface_by_recurrence(layout, z)
            assert np.allclose(a @ z, expected.ravel(), rtol=1e-12, atol=1e-12)

    def test_z2v_boundary_rows_are_units(self, layout):
        a = build_z2v(layout)
        ncols = layout.level_shape[1]
        for bi, bj in boundary_points(layout):
            row = a[bi * ncols + bj]
            assert np.count_nonzero(row) == 1
            assert row[layout.boundary_index(bi, bj)] == 1.0

    def test_z2v_nonzeros_per_row(self, layout):
        a = build_z2v(layout)
        ncols = layout.level_shape[1]
        for i in range(layout.level_shape[0]):
            for j in range(ncols):
                assert np.count_nonzero(a[i * ncols + j]) == min(i, j) + 1

    def test_z2v_zero_trend_constant_diagonals(self):
        layout = ParameterLayout(3, 4)
        z = np.zeros(layout.dim)
        z[: layout.n_boundary] = np.arange(1.0, layout.n_boundary + 1)
        v = (build_z2v(layout) @ z).reshape(layout.level_shape)
        ni, nj = layout.level_shape
        for i in range(1, ni):
            for j in range(1, nj):
                assert v[i, j] == v[i - 1, j - 1]

    def test_z2u_selects_trend_block(self, layout):
        a = build_v2u(layout) @ build_z2v(layout)
        assert a.shape == (layout.n_trend, layout.dim)
        assert np.all(a.sum(axis=1) == 1.0)
        assert np.all((a == 0.0) | (a == 1.0))
        assert np.linalg.matrix_rank(a) == layout.n_trend
        # composition with the trend index is the identity on the block
        for i in (0, 2, layout.i_span):
            for j in (0, 3, layout.j_span):
                flat = i * (layout.j_span + 1) + j
                assert a[flat, trend_index(layout, i, j)] == 1.0


class TestClusterMap:
    def test_identity_at_unit_sizes(self, layout):
        a = build_u2uc(layout, 1, 1)
        assert np.array_equal(a, np.eye(layout.n_trend))

    def test_study_clustering(self, layout):
        a = build_u2uc(layout, 5, 5)
        assert a.shape == (3 * 8, layout.n_trend)
        # first cluster averages cells (0..4, 0..4) with weight 1/25
        first = a[0].reshape(layout.trend_shape)
        assert np.all(first[:5, :5] == 1.0 / 25.0)
        assert np.count_nonzero(first) == 25
        # last year band holds the single remainder row i = 10
        last_band = a[2 * 8].reshape(layout.trend_shape)
        assert np.all(last_band[10, :5] == 1.0 / 5.0)
        assert np.count_nonzero(last_band) == 5

    def test_rows_sum_to_one(self, layout):
        for da, dy in ((5, 5), (3, 4), (40, 11)):
            a = build_u2uc(layout, da, dy)
            assert np.allclose(a.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_invalid_sizes(self, layout):
        with pytest.raises(InvalidClusterSize):
            build_u2uc(layout, 0, 1)
        with pytest.raises(InvalidClusterSize):
            build_u2uc(layout, 41, 1)
        with pytest.raises(InvalidClusterSize):
            build_u2uc(layout, 1, 12)


class TestLinearSystem:
    def test_counts_and_weights(self, frame, layout):
        model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 0.5)
        ms = generate(model, survey_plan(frame, (0, 5, 10), (0.1, 0.2), 2), seed=3)
        system = build_system_aggregated(aggregate(ms))
        assert system.n_obs == len(ms)
        assert system.data.shape[0] == 120
        assert system.penalty_v.shape[0] == 878
        assert system.penalty_u.shape[0] == 778
        assert system.css_total > 0.0
