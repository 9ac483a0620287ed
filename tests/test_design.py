import numpy as np
import pytest

from ctrend.design import (
    LinearSystem,
    SparseRow,
    build_b0_aggregated,
    build_b0_raw,
    build_penalty_u,
    build_penalty_v,
    build_system_aggregated,
    build_u2uc,
    build_z2u,
    build_z2v,
    observation_row,
    rows_to_matrix,
)
from ctrend.errors import InvalidClusterSize
from ctrend.grid import CellIndex, Frame, ParameterLayout
from ctrend.ingest import AggregatedCell, Measurement, aggregate
from ctrend.synth import TrueModel, generate, smooth_boundary, smooth_trend, survey_plan


def level_surface_by_recurrence(layout, z):
    """Independent construction of the level surface from a parameter vector.

    Fills the boundary directly, then marches the dynamic recursion
    v(i+1, j+1) = v(i, j) + u(i, j) cell by cell; no path expansion involved.
    """
    ni, nj = layout.level_shape
    v = np.full((ni, nj), np.nan)
    for (bi, bj) in layout.boundary_points():
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


class TestSparseRow:
    def test_orders_and_drops_zeros(self):
        row = SparseRow(indices=(1, 4), values=(2.0, -1.0), rhs=3.0)
        assert row.as_dict() == {1: 2.0, 4: -1.0}

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            SparseRow(indices=(4, 1), values=(1.0, 1.0))


class TestObservationRow:
    def test_interior_cell(self, frame, layout):
        # relative cell (2, 5), year fraction 0.3
        row = observation_row(layout, frame, 1984.3, 30.0)
        assert frame.locate(1984.3, 30.0) == CellIndex(2, 5)
        expected = {
            layout.boundary_index(0, 3): 1.0,
            layout.trend_index(1, 4): 1.0,
            layout.trend_index(0, 3): 1.0,
            layout.trend_index(2, 5): frame.year_fraction(1984.3),
        }
        assert row.as_dict() == expected
        assert row.as_dict()[layout.trend_index(2, 5)] == pytest.approx(0.3, rel=1e-12)

    def test_origin_cell_zero_fraction(self, frame, layout):
        row = observation_row(layout, frame, 1982.0, 25.0)
        assert row.as_dict() == {layout.boundary_index(0, 0): 1.0}

    def test_first_row_top_age(self, frame, layout):
        # relative cell (0, J), fraction 0.5
        row = observation_row(layout, frame, 1982.5, 64.0)
        assert frame.locate(1982.5, 64.0) == CellIndex(0, 39)
        expected = {
            layout.boundary_index(0, 39): 1.0,
            layout.trend_index(0, 39): 0.5,
        }
        assert row.as_dict() == pytest.approx(expected)

    def test_coefficient_sums(self, frame, layout):
        rng = np.random.default_rng(3)
        for _ in range(300):
            y = rng.uniform(frame.y_min, frame.y_max)
            a = rng.uniform(frame.a_min, frame.a_max)
            cell = frame.locate(y, a)
            t = frame.year_fraction(y)
            row = observation_row(layout, frame, y, a)
            d = dict(zip(row.indices, row.values))
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
        cell = AggregatedCell(CellIndex(2, 5), x_bar=24.0, y_bar=1984.5, n=5, css=3.25)
        rows, weights, css_total = build_b0_aggregated(layout, frame, [cell])
        assert len(rows) == 1 and rows[0].rhs == 24.0
        assert weights.tolist() == [5.0]
        assert css_total == 3.25

    def test_aggregated_css_adds(self, frame, layout):
        cells = [
            AggregatedCell(CellIndex(2, 5), 24.0, 1984.5, 5, 3.25),
            AggregatedCell(CellIndex(3, 6), 25.0, 1985.5, 4, 1.5),
        ]
        _, _, css_total = build_b0_aggregated(layout, frame, cells)
        assert css_total == 4.75

    def test_aggregated_matches_collapsed_raw(self, frame, layout):
        # all member years equal: the cell row equals each raw row
        ms = [Measurement(23.0, 1984.5, 30.0), Measurement(25.0, 1984.5, 30.0)]
        raw = build_b0_raw(layout, frame, ms)
        rows, weights, _ = build_b0_aggregated(layout, frame, aggregate(ms, frame))
        assert rows[0].indices == raw[0].indices == raw[1].indices
        assert rows[0].values == raw[0].values
        assert rows[0].rhs == 24.0 and weights.tolist() == [2.0]

    def test_study_shape_aggregated_row_count(self, frame, layout):
        model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 0.5)
        ms = generate(model, survey_plan(frame, (0, 5, 10), (0.1, 0.2), 2), seed=3)
        rows, weights, _ = build_b0_aggregated(layout, frame, aggregate(ms, frame))
        assert len(rows) == 120
        assert weights.sum() == len(ms)


class TestPenaltyRows:
    def test_counts_study_scale(self, layout):
        assert len(build_penalty_v(layout)) == 12 * 39 + 41 * 10  # 878
        assert len(build_penalty_u(layout)) == 11 * 38 + 40 * 9   # 778

    def test_counts_formula(self):
        for i_span, j_span in ((1, 1), (2, 3), (5, 4)):
            layout = ParameterLayout(i_span, j_span)
            n1 = (i_span + 2) * j_span + (j_span + 2) * i_span
            n2 = (i_span + 1) * (j_span - 1) + (j_span + 1) * (i_span - 1)
            assert len(build_penalty_v(layout)) == n1
            assert len(build_penalty_u(layout)) == n2

    def test_unit_spans_have_no_trend_rows(self):
        assert build_penalty_u(ParameterLayout(1, 1)) == []

    def test_boundary_level_row(self, layout):
        # age-direction stencil at (0, 1): pure boundary points
        rows = build_penalty_v(layout)
        expected = {
            layout.boundary_index(0, 0): 1.0,
            layout.boundary_index(0, 1): -2.0,
            layout.boundary_index(0, 2): 1.0,
        }
        assert rows[0].as_dict() == expected

    def test_expanded_level_row(self, layout):
        # age-direction stencil at (1, 1): hand expansion via the cohort path
        #   v(1,0) = b(1,0); v(1,1) = b(0,0) + u(0,0); v(1,2) = b(0,1) + u(0,1)
        rows = build_penalty_v(layout)
        row = rows[1 * layout.j_span + 0]     # i=1 block, center j=1
        expected = {
            layout.boundary_index(1, 0): 1.0,
            layout.boundary_index(0, 0): -2.0,
            layout.trend_index(0, 0): -2.0,
            layout.boundary_index(0, 1): 1.0,
            layout.trend_index(0, 1): 1.0,
        }
        assert row.as_dict() == expected

    def test_trend_row_stencil(self, layout):
        rows = build_penalty_u(layout)
        expected = {
            layout.trend_index(0, 0): 1.0,
            layout.trend_index(0, 1): -2.0,
            layout.trend_index(0, 2): 1.0,
        }
        assert rows[0].as_dict() == expected

    def test_all_rows_zero_rhs(self, layout):
        assert all(r.rhs == 0.0 for r in build_penalty_v(layout))
        assert all(r.rhs == 0.0 for r in build_penalty_u(layout))

    def test_penalty_matches_direct_evaluation(self):
        # the rows and the surface-level formulas must compute the same sums
        layout = ParameterLayout(4, 6)
        b1 = rows_to_matrix(build_penalty_v(layout), layout.dim)
        b2 = rows_to_matrix(build_penalty_u(layout), layout.dim)
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
        touched = set()
        for row in build_penalty_v(layout) + build_penalty_u(layout):
            touched.update(row.indices)
        assert touched == set(range(layout.dim))


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
        for bi, bj in layout.boundary_points():
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
        a = build_z2u(layout)
        assert a.shape == (layout.n_trend, layout.dim)
        assert np.all(a.sum(axis=1) == 1.0)
        assert np.all((a == 0.0) | (a == 1.0))
        assert np.linalg.matrix_rank(a) == layout.n_trend
        # composition with the trend index is the identity on the block
        for i in (0, 2, layout.i_span):
            for j in (0, 3, layout.j_span):
                flat = i * (layout.j_span + 1) + j
                assert a[flat, layout.trend_index(i, j)] == 1.0


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
        system = build_system_aggregated(frame, aggregate(ms, frame))
        assert system.n_obs == len(ms)
        assert system.data.shape[0] == 120
        assert system.penalty_v.shape[0] == 878
        assert system.penalty_u.shape[0] == 778
        assert system.css_total > 0.0
