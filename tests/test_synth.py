import numpy as np
import pytest

from ctrend.errors import PlanOutOfFrame, SpecMismatch
from ctrend.grid import CellIndex, Frame, ParameterLayout
from ctrend.ingest import aggregate
from ctrend.synth import (
    SamplingPlan,
    TrueModel,
    full_coverage_plan,
    generate,
    smooth_boundary,
    smooth_trend,
    survey_plan,
    true_level,
)


@pytest.fixture(scope="module")
def frame():
    return Frame.from_bounds(2000.0, 2004.9, 10.0, 16.0)


@pytest.fixture(scope="module")
def layout(frame):
    return ParameterLayout.from_frame(frame)


class TestTrueLevel:
    def test_zero_trend_is_boundary_constant(self, frame, layout):
        v0 = np.arange(1.0, layout.n_boundary + 1)
        model = TrueModel(frame, v0, np.zeros(layout.trend_shape))
        for i in range(layout.i_span + 1):
            for j in range(layout.j_span + 1):
                d = min(i, j)
                expected = v0[layout.boundary_index(i - d, j - d)]
                assert true_level(model, CellIndex(i, j), 0.0) == expected
                assert true_level(model, CellIndex(i, j), 0.7) == expected

    def test_constant_trend_grows_linearly(self, frame, layout):
        g = 0.4
        v0 = np.full(layout.n_boundary, 10.0)
        model = TrueModel(frame, v0, np.full(layout.trend_shape, g))
        # along a cohort the level grows by g per year
        assert true_level(model, CellIndex(3, 3), 0.0) == pytest.approx(10.0 + 3 * g)
        assert true_level(model, CellIndex(3, 3), 0.5) == pytest.approx(10.0 + 3.5 * g)
        assert true_level(model, CellIndex(2, 4), 0.25) == pytest.approx(10.0 + 2.25 * g)

    def test_single_cell_hand_value(self, frame, layout):
        v0 = np.zeros(layout.n_boundary)
        v0[layout.boundary_index(0, 0)] = 20.0
        u = np.zeros(layout.trend_shape)
        u[0, 0] = 0.5
        u[1, 1] = 0.3
        model = TrueModel(frame, v0, u)
        assert true_level(model, CellIndex(1, 1), 0.5) == pytest.approx(20.65)

    def test_rejects_outside_cells(self, frame, layout):
        model = TrueModel(frame, np.zeros(layout.n_boundary), np.zeros(layout.trend_shape))
        with pytest.raises(PlanOutOfFrame):
            true_level(model, CellIndex(99, 0), 0.0)
        with pytest.raises(PlanOutOfFrame):
            true_level(model, CellIndex(0, 0), 1.0)


class TestTrueModel:
    def test_shape_validation(self, frame, layout):
        with pytest.raises(SpecMismatch):
            TrueModel(frame, np.zeros(layout.n_boundary - 1), np.zeros(layout.trend_shape))
        with pytest.raises(SpecMismatch):
            TrueModel(frame, np.zeros(layout.n_boundary), np.zeros((2, 2)))
        with pytest.raises(SpecMismatch):
            TrueModel(
                frame, np.zeros(layout.n_boundary), np.zeros(layout.trend_shape), -1.0
            )

    @pytest.mark.parametrize(
        "v0_entry,u_entry,noise_sd",
        [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, np.nan), (0.0, 0.0, np.inf)],
        ids=["nan-v0", "infinite-u", "nan-noise", "infinite-noise"],
    )
    def test_non_finite_values_rejected(self, frame, layout, v0_entry, u_entry, noise_sd):
        v0 = np.zeros(layout.n_boundary)
        u = np.zeros(layout.trend_shape)
        v0[1], u[1, 1] = v0_entry, u_entry
        with pytest.raises(SpecMismatch):
            TrueModel(frame, v0, u, noise_sd)


class TestGenerate:
    def test_noise_free_values_exact(self, frame, layout):
        model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 0.0)
        plan = SamplingPlan.from_cells([(1, 2, [0.25]), (0, 5, [0.0, 0.5])])
        ms = generate(model, plan, seed=1)
        assert ms[0].x == true_level(model, CellIndex(1, 2), 0.25)
        assert ms[1].x == true_level(model, CellIndex(0, 5), 0.0)
        assert ms[0].y == frame.i_min + 1 + 0.25
        assert ms[0].a == frame.j_min + 2

    def test_same_seed_same_dataset(self, frame, layout):
        model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 1.0)
        plan = full_coverage_plan(frame, (0.25, 0.75))
        assert generate(model, plan, seed=9) == generate(model, plan, seed=9)
        assert generate(model, plan, seed=9) != generate(model, plan, seed=10)

    def test_plan_validation(self, frame, layout):
        model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 0.0)
        with pytest.raises(PlanOutOfFrame):
            generate(model, SamplingPlan.from_cells([(99, 0, [0.1])]), seed=1)
        # top-row cells only admit fractions within the frame's headroom
        with pytest.raises(PlanOutOfFrame):
            generate(
                model,
                SamplingPlan.from_cells([(frame.i_span, 0, [0.95])]),
                seed=1,
            )

    @pytest.mark.parametrize(
        "bounds,fractions,per_fraction",
        [
            ((2000.0, 2004.9, 10.0, 16.0), (0.25, 0.75), 1),
            ((2000.0, 2006.9, 30.0, 40.0), (0.3,), 2),
            ((1982.0, 1992.9, 25.0, 64.0), (0.0, 0.1, 0.5), 3),
            ((2000.0, 2004.9, 10.0, 16.0), (), 1),
        ],
    )
    def test_full_coverage_is_a_survey_in_every_year(self, bounds, fractions, per_fraction):
        frame = Frame.from_bounds(*bounds)
        every_cell = tuple(
            (i, j, float(t))
            for i in range(frame.i_span + 1)
            for j in range(frame.j_span + 1)
            for t in fractions
            for _ in range(per_fraction)
        )
        every_year = tuple(range(frame.i_span + 1))
        full = full_coverage_plan(frame, fractions, per_fraction)
        assert full.entries == survey_plan(frame, every_year, fractions, per_fraction).entries
        assert full.entries == every_cell

    def test_survey_plan_cell_coverage(self, frame, layout):
        model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 0.5)
        ms = generate(model, survey_plan(frame, (0, 2, 4), (0.1, 0.2)), seed=4)
        cells = aggregate(ms, frame)
        assert len(cells) == 3 * (frame.j_span + 1)
        assert all(c.n == 2 for c in cells)

    def test_roundtrip_recovery(self, frame, layout):
        from ctrend.design import build_system_raw
        from ctrend.solver import solve

        model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 0.0)
        ms = generate(model, full_coverage_plan(frame, (0.25, 0.75)), seed=2)
        fit = solve(build_system_raw(frame, ms), 0.0, 0.0)
        err = np.max(np.abs(fit.z_hat - model.z_true)) / np.max(np.abs(model.z_true))
        assert err <= 1e-8

    def test_cell_mean_converges_to_true_level(self, frame, layout):
        model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 1.0)
        n = 10_000
        plan = SamplingPlan.from_cells([(2, 3, [0.25] * n)])
        ms = generate(model, plan, seed=6)
        (cell,) = aggregate(ms, frame)
        target = true_level(model, CellIndex(2, 3), 0.25)
        assert abs(cell.x_bar - target) <= 4.0 / np.sqrt(n)
