import math

import numpy as np
import pytest

from ctrend import tuner
from ctrend.design import build_system_aggregated, build_system_raw
from ctrend.errors import IndexOutOfRange, NoConvergence, TargetUnreachable
from ctrend.grid import Frame, ParameterLayout
from ctrend.ingest import aggregate
from ctrend.solver import solve
from ctrend.synth import TrueModel, generate, smooth_boundary, smooth_trend, survey_plan
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

    def test_target_unreachable_from_above(self, small_noisefree_system):
        # the level statistic stays above 0.05 even under the strongest penalty
        with pytest.raises(TargetUnreachable) as caught:
            tune(small_noisefree_system, SmoothnessTargets(f_smv=0.05))
        assert caught.value.fit.lambda1 == 1e10


def joint_log_error(report, targets):
    return max(
        abs(math.log(report.stat_v) - math.log(targets.f_smv)),
        abs(math.log(report.stat_u) - math.log(targets.f_smu)),
    )


@pytest.fixture(scope="module")
def two_wave_system():
    """Two survey waves six years apart, one year fraction, one draw per age."""
    frame = Frame.from_bounds(2000.0, 2006.9, 30.0, 40.0)
    layout = ParameterLayout.from_frame(frame)
    model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 0.5)
    return build_system_raw(frame, generate(model, survey_plan(frame, (0, 6), (0.3,), 1), seed=1))


class TestWarmStartedSearch:
    def test_sparse_design_converges_in_few_solves(self, two_wave_system):
        # strongly coupled weights: alternating bisection ran out of budget here
        targets = SmoothnessTargets(f_smv=0.2, f_smu=0.2, delta=0.05)
        _, report = tune(two_wave_system, targets)
        assert report.converged
        assert report.iterations <= 12
        assert joint_log_error(report, targets) <= 0.05

    def test_trend_end_reached_once_is_not_unreachable(self, two_wave_system):
        # the lambda2 search stops at 1e-8 in one sweep; once lambda1 moves,
        # the trend statistic at that end is within delta of its target
        targets = SmoothnessTargets(f_smv=0.05, f_smu=0.3, delta=0.05)
        _, report = tune(two_wave_system, targets)
        assert report.converged
        assert joint_log_error(report, targets) <= 0.05

    def test_no_convergence_reports_the_best_of_all_solves(self, two_wave_system, monkeypatch):
        # unreachable accuracy: the tune runs out of sweeps, and its best
        # solve falls inside a search, not at the end of a sweep
        calls, fits = [], []

        def recorded(*args):
            calls.append(args)
            fits.append(solve(*args))
            return fits[-1]

        monkeypatch.setattr(tuner, "solve", recorded)
        targets = SmoothnessTargets(delta=1e-6)
        with pytest.raises(NoConvergence) as caught:
            tune(two_wave_system, targets)
        layout = two_wave_system.layout
        points = default_selected_point_v(layout), default_selected_point_u(layout)

        def error(fit):
            stats = (
                fstat(smoothness_field(cov, shape), "selected-point", point)
                for cov, shape, point in zip(
                    (fit.unit_cov_v_band, fit.unit_cov_u_band),
                    (layout.level_shape, layout.trend_shape),
                    points,
                )
            )
            return max(abs(math.log(f) - math.log(0.2)) for f in stats)

        best = min(fits, key=error)
        report = caught.value.report
        assert report.iterations == len(calls) > len(fits)  # some solves were singular
        assert caught.value.fit is best
        assert (report.lambda1, report.lambda2) == (best.lambda1, best.lambda2)
        assert joint_log_error(report, targets) == pytest.approx(error(best), rel=1e-9)

    def test_study_survey_design_converges_in_few_solves(self):
        frame = Frame.from_bounds(1982.0, 1992.99, 25.0, 64.0)
        layout = ParameterLayout.from_frame(frame)
        model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), noise_sd=3.5)
        plan = survey_plan(frame, (0, 5, 10), (0.05, 0.1, 0.15, 0.2, 0.25, 0.3), per_fraction=5)
        system = build_system_aggregated(frame, aggregate(generate(model, plan, seed=42), frame))
        targets = SmoothnessTargets(f_smv=0.2, f_smu=0.2, delta=0.05)
        _, report = tune(system, targets)
        assert report.converged
        assert report.iterations <= 12
        assert joint_log_error(report, targets) <= 0.05


class TestProbeCost:
    def test_selected_point_probes_skip_the_band(self, small_noisefree_system, band_calls):
        _, report = tune(small_noisefree_system, SmoothnessTargets(f_smv=0.5, f_smu=0.5))
        assert report.converged and report.iterations > 1
        assert band_calls == []

    def test_whole_field_statistics_read_the_band(self, small_noisefree_system, band_calls):
        targets = SmoothnessTargets(f_smv=0.5, f_smu=0.5, fstat_kind="mean")
        _, report = tune(small_noisefree_system, targets)
        assert report.converged
        assert 1 <= len(band_calls) <= report.iterations

    # small layout: level age pairs form a 6 x 7 grid, trend age pairs 5 x 6
    @pytest.mark.parametrize(
        "points",
        [
            {"selected_point_v": (6, 0)},
            {"selected_point_v": (0, 7)},
            {"selected_point_v": (-1, 0)},
            {"selected_point_u": (5, 0)},
            {"selected_point_u": (0, 6)},
            {"selected_point_u": (0, -1)},
        ],
    )
    def test_bad_point_raises_before_any_solve(self, small_noisefree_system, monkeypatch, points):
        solves = []
        monkeypatch.setattr(tuner, "solve", lambda *args: solves.append(args))
        with pytest.raises(IndexOutOfRange, match="outside age-block grid"):
            tune(small_noisefree_system, SmoothnessTargets(**points))
        assert solves == []
