import math

import numpy as np
import pytest

from ctrend.errors import IndexOutOfRange, TargetUnreachable
from ctrend.grid import ParameterLayout
from ctrend.solver import solve
from ctrend.tuner import (
    SmoothnessTargets,
    default_selected_point_u,
    default_selected_point_v,
    fstat,
    smoothness_field,
    smoothness_vector,
    tune,
)


def pair_cov(matrix):
    """Covariance of a 1 x 2 surface from an explicit 2 x 2 matrix."""
    return np.asarray(matrix, dtype=float)


class TestSmoothnessField:
    def test_half_correlated_pair(self):
        field = smoothness_field(pair_cov([[2.0, 1.0], [1.0, 2.0]]), (1, 2))
        assert field.age.shape == (1, 1)
        assert field.age[0, 0] == pytest.approx(0.75, rel=1e-12)
        assert field.year.size == 0

    def test_perfect_correlation_gives_zero(self):
        field = smoothness_field(pair_cov([[1.0, -1.0], [-1.0, 1.0]]), (1, 2))
        assert field.age[0, 0] == 0.0

    def test_independent_gives_one(self):
        field = smoothness_field(pair_cov([[1.0, 0.0], [0.0, 1.0]]), (1, 2))
        assert field.age[0, 0] == 1.0

    def test_zero_variance_flagged_as_one(self):
        field = smoothness_field(pair_cov([[0.0, 0.0], [0.0, 1.0]]), (1, 2))
        assert field.age[0, 0] == 1.0
        assert field.zero_variance_age[0, 0]
        assert field.any_zero_variance

    def test_block_shapes_and_vector_order(self):
        rng = np.random.default_rng(0)
        half = rng.normal(size=(12, 12))
        cov = half @ half.T + 12 * np.eye(12)
        field = smoothness_field(cov, (3, 4))
        assert field.age.shape == (3, 3)
        assert field.year.shape == (2, 4)
        vec = smoothness_vector(cov, (3, 4))
        assert vec.shape == (9 + 8,)
        assert np.array_equal(vec, np.concatenate([field.age.ravel(), field.year.ravel()]))

    def test_indicators_within_unit_interval(self, small_noisy_fit):
        fit = small_noisy_fit
        vec = smoothness_vector(fit.unit_cov_v, fit.layout.level_shape)
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)


@pytest.fixture(scope="module")
def field():
    cov = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    cov[0, 1] = cov[1, 0] = 0.5
    return smoothness_field(cov, (2, 3))


class TestFstat:

    def test_order_statistics(self, field):
        values = field.vector
        assert fstat(field, "min") == values.min()
        assert fstat(field, "mean") == pytest.approx(values.mean())
        assert fstat(field, "median") == pytest.approx(np.median(values))

    def test_selected_point_indexes_age_block(self, field):
        assert fstat(field, "selected-point", (0, 1)) == field.age[0, 1]

    def test_selected_point_out_of_range(self, field):
        with pytest.raises(IndexOutOfRange):
            fstat(field, "selected-point", (0, 2))
        with pytest.raises(IndexOutOfRange):
            fstat(field, "selected-point", None)

    def test_unknown_kind(self, field):
        with pytest.raises(IndexOutOfRange):
            fstat(field, "max")

    def test_default_points_study_scale(self):
        layout = ParameterLayout(10, 39)
        assert default_selected_point_v(layout) == (1, 1)
        # central probe of the 11 x 40 trend surface
        assert default_selected_point_u(layout) == (5, 20)

    def test_default_point_clamped_on_narrow_grids(self):
        layout = ParameterLayout(2, 1)
        i, j = default_selected_point_u(layout)
        nrows, ncols = layout.trend_shape
        assert 0 <= i < nrows and 0 <= j < ncols - 1


class TestTargets:
    def test_validation(self):
        with pytest.raises(IndexOutOfRange):
            SmoothnessTargets(f_smv=0.0)
        with pytest.raises(IndexOutOfRange):
            SmoothnessTargets(f_smu=1.0)
        with pytest.raises(IndexOutOfRange):
            SmoothnessTargets(delta=0.0)
        with pytest.raises(IndexOutOfRange):
            SmoothnessTargets(fstat_kind="maximum")


class TestTune:
    def test_converges_on_small_noisy_data(self, small_frame, small_layout):
        from ctrend.design import build_system_raw
        from ctrend.synth import TrueModel, full_coverage_plan, generate, smooth_boundary, smooth_trend

        model = TrueModel(
            small_frame, smooth_boundary(small_layout), smooth_trend(small_layout), 0.6
        )
        meas = generate(
            model, full_coverage_plan(small_frame, (0.2, 0.5, 0.8), per_fraction=2), seed=31
        )
        system = build_system_raw(small_frame, meas)
        # on this small grid the statistics floor above 0.2 in the strong
        # smoothing limit, so aim mid-range (study-scale grids reach 0.2)
        targets = SmoothnessTargets(f_smv=0.5, f_smu=0.5, delta=0.05)
        fit, report = tune(system, targets)
        assert report.converged
        assert report.iterations <= 200
        err = max(
            abs(math.log(report.stat_v) - math.log(0.5)),
            abs(math.log(report.stat_u) - math.log(0.5)),
        )
        assert err <= 0.05

        # idempotence: re-solving at the returned lambdas reproduces the stats
        refit = solve(system, report.lambda1, report.lambda2)
        field_v = smoothness_field(refit.unit_cov_v, refit.layout.level_shape)
        point_v = default_selected_point_v(refit.layout)
        assert fstat(field_v, "selected-point", point_v) == pytest.approx(
            report.stat_v, rel=1e-9
        )
        field_u = smoothness_field(refit.unit_cov_u, refit.layout.trend_shape)
        point_u = default_selected_point_u(refit.layout)
        assert fstat(field_u, "selected-point", point_u) == pytest.approx(
            report.stat_u, rel=1e-9
        )

    def test_monotone_response(self, small_noisefree_system):
        stats = []
        for lam in (1e-2, 1.0, 1e2, 1e4, 1e6):
            fit = solve(small_noisefree_system, lam, 10.0)
            field = smoothness_field(fit.unit_cov_v, fit.layout.level_shape)
            stats.append(fstat(field, "selected-point", default_selected_point_v(fit.layout)))
        assert all(a >= b - 1e-9 for a, b in zip(stats, stats[1:]))

    def test_infinite_delta_returns_midpoint_solve(self, small_noisefree_system):
        targets = SmoothnessTargets(delta=math.inf)
        fit, report = tune(small_noisefree_system, targets)
        assert fit.lambda1 == fit.lambda2 == 10.0
        assert report.iterations == 1
        assert report.converged

    def test_target_unreachable_reported(self, small_noisefree_system):
        # indicators never reach 0.999 even with vanishing smoothing
        targets = SmoothnessTargets(f_smv=0.999, f_smu=0.2, delta=0.0001)
        with pytest.raises(TargetUnreachable):
            tune(small_noisefree_system, targets)
