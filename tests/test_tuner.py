import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctrend import tuner
from ctrend.design import build_system_aggregated, build_system_raw
from ctrend.errors import IndexOutOfRange, NoConvergence, SingularSystem, TargetUnreachable
from ctrend.grid import Frame, ParameterLayout
from ctrend.ingest import aggregate
from ctrend.solver import solve
from ctrend.synth import TrueModel, generate, survey_plan
from ctrend.tuner import (
    LOG10_HI,
    LOG10_LO,
    LOG10_STEP,
    SmoothnessTargets,
    _newton_step,
    default_selected_point_u,
    default_selected_point_v,
    fstat,
    smoothness_field,
    tune,
)
from zref import smooth_boundary, smooth_trend, unit_cov_v


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

    def test_block_shapes_and_vector_order(self):
        rng = np.random.default_rng(0)
        half = rng.normal(size=(12, 12))
        cov = half @ half.T + 12 * np.eye(12)
        field = smoothness_field(cov, (3, 4))
        assert field.age.shape == (3, 3)
        assert field.year.shape == (2, 4)
        vec = field.vector
        assert vec.shape == (9 + 8,)
        assert np.array_equal(vec, np.concatenate([field.age.ravel(), field.year.ravel()]))

    def test_indicators_within_unit_interval(self, small_noisy_fit):
        fit = small_noisy_fit
        vec = smoothness_field(unit_cov_v(fit), fit.layout.level_shape).vector
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
        from ctrend.synth import TrueModel, full_coverage_plan, generate

        model = TrueModel(
            small_frame, smooth_boundary(small_layout), smooth_trend(small_layout), 0.6
        )
        meas = generate(
            model, full_coverage_plan(small_frame, (0.2, 0.5, 0.8), per_fraction=2), seed=31
        )
        system = build_system_raw(meas)
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
        field_v = smoothness_field(unit_cov_v(refit), refit.layout.level_shape)
        point_v = default_selected_point_v(refit.layout)
        assert fstat(field_v, "selected-point", point_v) == pytest.approx(
            report.stat_v, rel=1e-9
        )
        field_u = smoothness_field(refit.unit_cov_u_band, refit.layout.trend_shape)
        point_u = default_selected_point_u(refit.layout)
        assert fstat(field_u, "selected-point", point_u) == pytest.approx(
            report.stat_u, rel=1e-9
        )

    def test_monotone_response(self, small_noisefree_system):
        stats = []
        for lam in (1e-2, 1.0, 1e2, 1e4, 1e6):
            fit = solve(small_noisefree_system, lam, 10.0)
            field = smoothness_field(unit_cov_v(fit), fit.layout.level_shape)
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
    return build_system_raw(generate(model, survey_plan(frame, (0, 6), (0.3,), 1), seed=1))


@pytest.fixture(scope="module")
def study_system():
    """Criterion 5's survey design: three waves five years apart, aggregated."""
    frame = Frame.from_bounds(1982.0, 1992.99, 25.0, 64.0)
    layout = ParameterLayout.from_frame(frame)
    model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), noise_sd=3.5)
    plan = survey_plan(frame, (0, 5, 10), (0.05, 0.1, 0.15, 0.2, 0.25, 0.3), per_fraction=5)
    return build_system_aggregated(aggregate(generate(model, plan, seed=42)))


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
        # a budget of six solves: the trend target of 0.05 lies past the
        # lambda2 at which the normal matrix turns singular, so some probes
        # fail and the best solve is not the last one
        calls, fits = [], []

        def recorded(*args):
            calls.append(args)
            fits.append(solve(*args))
            return fits[-1]

        monkeypatch.setattr(tuner, "solve", recorded)
        monkeypatch.setattr(tuner, "MAX_SOLVES", 6)
        targets = SmoothnessTargets(f_smu=0.05, delta=1e-6)
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
            return max(abs(math.log(f / t)) for f, t in zip(stats, (targets.f_smv, targets.f_smu)))

        best = min(fits, key=error)
        report = caught.value.report
        assert report.iterations == len(calls) > len(fits)  # some solves were singular
        assert caught.value.fit is best
        assert (report.lambda1, report.lambda2) == (best.lambda1, best.lambda2)
        assert joint_log_error(report, targets) == pytest.approx(error(best), rel=1e-9)


class TestNewtonIteration:
    def test_median_statistic_converges(self, two_wave_system):
        targets = SmoothnessTargets(0.2, 0.2, 0.05, "median")
        _, report = tune(two_wave_system, targets)
        assert report.converged
        assert joint_log_error(report, targets) <= 0.05

    def test_tight_delta_converges(self, two_wave_system):
        # the level statistic at the default point falls as lambda1 falls
        # below the root: it is not monotone in its own weight
        targets = SmoothnessTargets(delta=1e-6)
        _, report = tune(two_wave_system, targets)
        assert report.converged
        assert joint_log_error(report, targets) <= 1e-6

    def test_flat_trend_side_costs_few_solves(self, two_wave_system):
        _, report = tune(two_wave_system, SmoothnessTargets(f_smv=0.05, f_smu=0.3))
        assert report.converged and report.iterations <= 8

    @pytest.mark.parametrize(
        "f_smv,f_smu,kind,solves",
        [
            (0.2, 0.2, "selected-point", 6),
            (0.2, 0.2, "median", 10),
            (0.2, 0.2, "mean", 12),
            # the pair the median reads changes on the way to this root
            (0.1, 0.3, "median", 12),
        ],
    )
    def test_study_survey_design_in_few_solves(self, study_system, f_smv, f_smu, kind, solves):
        _, report = tune(study_system, SmoothnessTargets(f_smv, f_smu, 0.05, kind))
        assert report.converged and report.iterations <= solves

    @pytest.mark.parametrize(
        "f_smv,f_smu,kind",
        [
            # Newton steps on the local slopes from (1, 1) end short of these:
            # they lead lambda1 toward 1e-8, where neither statistic depends on it
            (0.3, 0.1, "selected-point"),
            (0.3, 0.05, "selected-point"),
            (0.05, 0.05, "median"),
            (0.5, 0.2, "median"),
            (0.5, 0.3, "median"),
            (0.05, 0.05, "mean"),
        ],
    )
    def test_study_targets_off_the_local_slope_converge(self, study_system, f_smv, f_smu, kind):
        targets = SmoothnessTargets(f_smv, f_smu, 0.05, kind)
        _, report = tune(study_system, targets)
        assert report.converged
        assert joint_log_error(report, targets) <= 0.05

    def test_singular_edge_holds_like_a_bound(self, two_wave_system):
        # the trend statistic stays near 0.134 up to the lambda2 past which
        # the normal matrix is singular
        with pytest.raises(TargetUnreachable, match="^trend smoothness stays above target 0.05"):
            tune(two_wave_system, SmoothnessTargets(f_smv=0.2, f_smu=0.05))

    def test_singular_trial_ends_the_range_of_the_furthest_moved_weight(self, two_wave_system):
        # a trial step of (-0.055, +2) decades is singular by lambda2 alone:
        # lambda1's range stays whole, so the stop names the trend weight only
        with pytest.raises(TargetUnreachable) as caught:
            tune(two_wave_system, SmoothnessTargets(f_smv=0.1, f_smu=0.05))
        assert str(caught.value) == "trend smoothness stays above target 0.05 at lambda=1e9"

    @pytest.mark.parametrize(
        "f_smv,f_smu,solves_below",
        # solves taken when each line search sought the singular edge anew
        [(0.1, 0.05, 29), (0.1, 0.1, 35), (0.2, 0.1, 27)],
    )
    def test_trend_plateau_up_to_the_singular_edge_is_unreachable(
        self, two_wave_system, f_smv, f_smu, solves_below
    ):
        # the trend statistic stops falling from about lambda2 = 1e5 on, and
        # the normal matrix turns singular near lambda2 = 1e9
        with pytest.raises(TargetUnreachable, match="trend smoothness stays above target") as caught:
            tune(two_wave_system, SmoothnessTargets(f_smv, f_smu))
        assert caught.value.report.iterations < solves_below

    def test_singular_edge_is_found_once(self, two_wave_system, monkeypatch):
        singular = []

        def counted(*args):
            try:
                return solve(*args)
            except SingularSystem:
                singular.append(args)
                raise

        monkeypatch.setattr(tuner, "solve", counted)
        with pytest.raises(TargetUnreachable, match="trend smoothness stays above target 0.1"):
            tune(two_wave_system, SmoothnessTargets(f_smv=0.2, f_smu=0.1))
        assert len(singular) <= 2

    def test_budget_spent_at_a_bound_is_no_convergence(self, small_noisefree_system, monkeypatch):
        # the fifth solve puts lambda1 at 1e10, where the level statistic is
        # still above 0.05, but the trend statistic is then far from 0.2
        monkeypatch.setattr(tuner, "MAX_SOLVES", 5)
        with pytest.raises(NoConvergence, match="out of budget") as caught:
            tune(small_noisefree_system, SmoothnessTargets(f_smv=0.05))
        assert caught.value.report.iterations == 5

    def test_unreachable_target_names_the_held_weight(self, small_noisefree_system):
        with pytest.raises(TargetUnreachable, match="level smoothness stays above") as caught:
            tune(small_noisefree_system, SmoothnessTargets(f_smv=0.05))
        report = caught.value.report
        assert not report.converged
        assert (report.lambda1, report.lambda2) == (caught.value.fit.lambda1, caught.value.fit.lambda2)


def own_step(lg, error, jacobian, box):
    """Each weight on its own statistic, by the slope -jacobian[k, k] raised
    to reach the target within LOG10_STEP; a weight at an end of its range
    whose step points past it stays."""
    slope = np.maximum(-np.diag(jacobian), np.abs(error) / LOG10_STEP)
    step = np.divide(error, slope, out=np.zeros(2), where=slope > 0)
    held = [k for k in (0, 1) if step[k] != 0 and lg[k] == box[k, int(step[k] > 0)]]
    free = [k for k in (0, 1) if k not in held]
    return np.where(np.isin([0, 1], free), step, 0.0), free


@st.composite
def step_problems(draw):
    """(lg, error, jacobian, box) with each lg inside its range or at one of its ends."""
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    ends = st.lists(st.floats(LOG10_LO, LOG10_HI), min_size=2, max_size=2, unique=True)
    box = np.array([sorted(draw(ends)) for _ in range(2)])
    lg = np.array([draw(st.sampled_from(list(end)) | st.floats(*end)) for end in box])
    error = np.array([draw(finite) for _ in range(2)])
    jacobian = np.array([draw(st.just(0.0) | finite) for _ in range(4)]).reshape(2, 2)
    return lg, error, jacobian, box


class TestNewtonStep:
    @settings(max_examples=300)
    @given(step_problems())
    def test_floored_diagonal_gives_each_weight_its_own_step(self, problem):
        lg, error, jacobian, box = problem
        slope = np.maximum(-np.diag(jacobian), np.abs(error) / LOG10_STEP)
        # past a ratio of 1e12 lstsq's rcond cutoff zeroes the smaller slope
        assume(slope.min() == 0 or slope.max() <= 1e12 * slope.min())
        diagonal = np.diag(np.minimum(np.diag(jacobian), -np.abs(error) / LOG10_STEP))
        step, free = _newton_step(lg, error, diagonal, box)
        expected, expected_free = own_step(lg, error, jacobian, box)
        assert free == expected_free
        np.testing.assert_allclose(step, expected, rtol=1e-12, atol=0)
        # lstsq's rounding: at error (0, 1e-9) the floored step reads 2.0000000000000004
        assert np.all(np.abs(step) <= LOG10_STEP * (1 + 1e-12))


class TestProbeCost:
    def test_fits_live_for_one_iteration(self, two_wave_system, monkeypatch):
        # beyond the current and the best probe, only the trials of the
        # iteration in progress keep their fits
        refs, live = [], []

        def tracked(*args):
            fit = solve(*args)
            refs.append(weakref.ref(fit))
            live.append(sum(ref() is not None for ref in refs))
            return fit

        monkeypatch.setattr(tuner, "solve", tracked)
        with pytest.raises((NoConvergence, TargetUnreachable)):
            tune(two_wave_system, SmoothnessTargets(0.3, 0.5, 0.05, "min"))
        bound = 2 * (tuner.HALVINGS + 1) + 2
        assert len(refs) > bound
        assert max(live) <= bound

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
