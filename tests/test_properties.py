"""Property-based checks of the level-surface algebra, the solver, the tuner and
the adjacent-cluster comparisons."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpocon

from ctrend.design import (
    _level_system,
    band_order,
    bandwidth,
    build_system_aggregated,
    build_system_raw,
    build_v2u,
    second_differences,
)
from ctrend.errors import NoConvergence, SingularSystem, TargetUnreachable
from ctrend.grid import Frame, ParameterLayout
from ctrend.inference import (
    _DEGENERATE_REL_TOL,
    AGE_ADJACENT,
    YEAR_ADJACENT,
    ClusterGrid,
    compare_adjacent,
)
from ctrend.ingest import aggregate
from ctrend.solver import check_uniqueness, solve
from ctrend.tuner import SmoothnessTargets, _Evaluator, _read_pairs, smoothness_field, tune
from ctrend.synth import (
    SamplingPlan,
    TrueModel,
    full_coverage_plan,
    generate,
    survey_plan,
)
from ingest_reference import Measurement, columns, locate, rows as measurement_rows
from solver_reference import normal_equations
from zref import build_v2z, build_z2v, smooth_boundary, smooth_trend, unit_cov_v

spans = st.integers(min_value=1, max_value=12)


@settings(deadline=None, max_examples=40)
@given(spans, spans)
def test_v2z_inverts_z2v(i_span, j_span):
    layout = ParameterLayout(i_span, j_span)
    product = build_v2z(layout) @ build_z2v(layout)
    assert np.array_equal(product, np.eye(layout.dim))


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_second_differences_match_direct_sums(nrows, ncols, seed):
    v = np.random.default_rng(seed).normal(size=(nrows, ncols))
    age = v[:, :-2] - 2.0 * v[:, 1:-1] + v[:, 2:]
    year = v[:-2, :] - 2.0 * v[1:-1, :] + v[2:, :]
    want = np.concatenate([age.ravel(), year.T.ravel()])
    got = second_differences(nrows, ncols) @ v.ravel()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=20)
@given(st.randoms(use_true_random=False))
def test_solve_invariant_to_measurement_order(small_frame, small_layout, rnd):
    model = TrueModel(small_frame, smooth_boundary(small_layout), smooth_trend(small_layout), 0.6)
    plan = full_coverage_plan(small_frame, (0.2, 0.5, 0.8), per_fraction=2)
    measurements = measurement_rows(generate(model, plan, seed=21))
    base = solve(build_system_raw(columns(measurements, small_frame)), 1.0, 1.0)
    rnd.shuffle(measurements)
    fit = solve(build_system_raw(columns(measurements, small_frame)), 1.0, 1.0)
    assert np.max(np.abs(fit.v_hat - base.v_hat)) <= 1e-10
    assert np.max(np.abs(unit_cov_v(fit) - unit_cov_v(base))) <= 1e-10


lattice_spans = st.integers(min_value=1, max_value=8)
weights = st.floats(min_value=-2.0, max_value=3.0).map(lambda e: 10.0**e)


def full_coverage_fit(i_span, j_span, lambda1, lambda2):
    """A fit on a frame of the given spans with every cell sampled twice."""
    frame = Frame.from_bounds(2000.0, 2000.9 + i_span, 30.0, 30.0 + j_span)
    layout = ParameterLayout.from_frame(frame)
    assert (layout.i_span, layout.j_span) == (i_span, j_span)
    model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 0.5)
    system = build_system_raw(generate(model, full_coverage_plan(frame, (0.25, 0.7)), seed=4))
    return system, solve(system, lambda1, lambda2)


def equilibrated_dense(system, fit):
    """The dense normal matrix the fit factored: levels in factorization
    order, Jacobi-equilibrated, with a unit pivot on each silent level."""
    band = fit.unit_cov_v_band
    m = normal_equations(system, fit.lambda1, fit.lambda2)[0].toarray()
    dense = m[np.ix_(band.order, band.order)] * np.outer(band.scale, band.scale)
    return dense + np.diag(band.scale == 0)


@settings(max_examples=30)
@given(lattice_spans, lattice_spans, st.one_of(st.just(0.0), weights), weights)
@example(1, 1, 0.0, 1.0)
@example(1, 1, 1.0, 1.0)
@example(2, 7, 1.0, 10.0)
@example(7, 2, 0.0, 10.0)
def test_selected_inverse_matches_dense_inverse(i_span, j_span, lambda1, lambda2):
    system, fit = full_coverage_fit(i_span, j_span, lambda1, lambda2)
    band = fit.unit_cov_v_band
    assert fit.n_silent == (2 if lambda1 == 0.0 else 0)
    # the lattice is ordered along its shorter axis
    order = band_order(fit.layout)
    nrows, ncols = fit.layout.level_shape
    assert order[1] - order[0] == (ncols if nrows < ncols else 1)
    want = np.linalg.inv(equilibrated_dense(system, fit))
    n = len(band.order)
    assert bandwidth(fit.layout) == 3 * min(nrows, ncols) + 1
    assert len(band.band) == min(bandwidth(fit.layout), n - 1) + 1
    for d in range(min(len(band.band), n)):
        err = np.max(np.abs(band.band[d, : n - d] - np.diag(want, -d)))
        assert err <= 1e-10 * np.max(np.abs(want)), (d, err)


@settings(max_examples=30)
@given(lattice_spans, lattice_spans, st.one_of(st.just(0.0), weights), weights)
@example(1, 1, 0.0, 1.0)
@example(8, 8, 1e3, 1e-2)
def test_condition_matches_lapack_estimate(i_span, j_span, lambda1, lambda2):
    system, fit = full_coverage_fit(i_span, j_span, lambda1, lambda2)
    dense = equilibrated_dense(system, fit)
    rcond, info = dpocon(cho_factor(dense, lower=True)[0], np.linalg.norm(dense, 1), uplo=b"L")
    assert info == 0
    assert abs(fit.condition * rcond - 1.0) <= 1e-6


@settings(max_examples=20)
@given(lattice_spans, lattice_spans, st.one_of(st.just(0.0), weights), weights)
@example(1, 1, 0.0, 1.0)
def test_band_accessors_match_dense_smoothness(i_span, j_span, lambda1, lambda2):
    _, fit = full_coverage_fit(i_span, j_span, lambda1, lambda2)
    layout = fit.layout
    for band, dense, shape in (
        (fit.unit_cov_v_band, unit_cov_v(fit), layout.level_shape),
        (fit.unit_cov_u_band, fit.trend_unit_cov(np.eye(layout.n_trend)), layout.trend_shape),
    ):
        got, want = smoothness_field(band, shape), smoothness_field(dense, shape)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


@settings(max_examples=8)
@given(st.integers(0, 2**32 - 1), st.floats(min_value=0.1, max_value=5.0))
def test_tuned_lambdas_depend_on_design_only(small_frame, small_layout, seed, noise_sd):
    # The indicators read only the unit covariance, which the measured values
    # do not enter; redrawing them on the same design must not move the tuner.
    plan = full_coverage_plan(small_frame, (0.2, 0.5, 0.8), per_fraction=2)
    targets = SmoothnessTargets(f_smv=0.5, f_smu=0.5, delta=0.05)

    def tuned(boundary_base, sd, draw_seed):
        boundary = smooth_boundary(small_layout, base=boundary_base)
        model = TrueModel(small_frame, boundary, smooth_trend(small_layout), sd)
        system = build_system_raw(generate(model, plan, seed=draw_seed))
        return tune(system, targets)[1]

    base = tuned(24.0, 0.6, 31)
    report = tuned(20.0, noise_sd, seed)
    assert (report.lambda1, report.lambda2, report.iterations) == (
        base.lambda1, base.lambda2, base.iterations
    )


def dense_level_cov(system, fit):
    """The fit's unit level covariance from a dense inverse of its equilibrated
    normal matrix; silent levels zero."""
    band = fit.unit_cov_v_band
    cov = np.zeros((fit.layout.dim, fit.layout.dim))
    inverse = np.linalg.inv(equilibrated_dense(system, fit))
    cov[np.ix_(band.order, band.order)] = inverse * np.outer(band.scale, band.scale)
    return cov


def frame_of(i_span, j_span):
    return Frame.from_bounds(2000.0, 2000.9 + i_span, 30.0, 30.0 + j_span)


@settings(max_examples=30)
@given(
    lattice_spans,
    lattice_spans,
    st.one_of(st.just(0.0), weights),
    st.one_of(st.just(0.0), weights),
    st.integers(0, 2**32 - 1),
)
@example(1, 1, 0.0, 0.0, 0)
@example(8, 3, 1e3, 1e-2, 1)
def test_gram_band_sum_matches_normal_matrix(i_span, j_span, lambda1, lambda2, seed):
    # A random count-weighted design: a few cells, each sampled 1-4 times.
    frame = frame_of(i_span, j_span)
    layout = ParameterLayout.from_frame(frame)
    rng = np.random.default_rng(seed)
    cells = [(i, j) for i in range(i_span + 1) for j in range(j_span + 1) if rng.random() < 0.6]
    entries = [(i, j, 0.1 + 0.8 * rng.random()) for i, j in cells for _ in range(rng.integers(1, 5))]
    model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 0.5)
    measurements = generate(model, SamplingPlan(tuple(entries) or ((0, 0, 0.5),)), seed=3)
    system = build_system_aggregated(aggregate(measurements))

    got = system.gram_data + lambda1 * system.gram_v + lambda2 * system.gram_u
    m, rhs = normal_equations(system, lambda1, lambda2)
    order = band_order(layout)
    m = m.toarray()[np.ix_(order, order)]
    n = layout.dim
    assert got.shape == (min(bandwidth(layout), n - 1) + 1, n)
    assert not np.any(np.tril(m, -len(got)))
    tol = 1e-14 * np.max(np.abs(m))
    for d in range(len(got)):
        assert np.max(np.abs(got[d, : n - d] - np.diag(m, -d))) <= tol, d
        assert not np.any(got[d, n - d:])
    assert np.array_equal(system.normal_rhs, rhs)


@settings(max_examples=30)
@given(lattice_spans, lattice_spans, st.integers(0, 2**32 - 1))
@example(1, 1, 0)
@example(1, 6, 1)
@example(6, 1, 2)
def test_system_operators_match_level_surface_formulas(i_span, j_span, seed):
    # The operators `solve` factors, applied to a random level surface v.
    frame = frame_of(i_span, j_span)
    layout = ParameterLayout.from_frame(frame)
    rng = np.random.default_rng(seed)
    n = 2 * layout.n_trend
    i, j = rng.integers(i_span + 1, size=n), rng.integers(j_span + 1, size=n)
    t = np.where(rng.random(n) < 0.2, 0.0, 0.9 * rng.random(n))
    measurements = [
        Measurement(0.0, float(frame.i_min + ik + tk), float(frame.j_min + jk))
        for ik, jk, tk in zip(i, j, t)
    ]
    system = build_system_raw(columns(measurements, frame))
    v = rng.normal(size=layout.level_shape)

    cells = [locate(frame, m.y, m.a) for m in measurements]
    fraction = np.array([m.y - np.floor(m.y) for m in measurements])
    lo = np.array([v[c.i, c.j] for c in cells])
    hi = np.array([v[c.i + 1, c.j + 1] for c in cells])
    np.testing.assert_allclose(system.data @ v.ravel(), (1.0 - fraction) * lo + fraction * hi,
                               rtol=0, atol=1e-12)

    for surface, operator in ((v, system.penalty_v), (v[1:, 1:] - v[:-1, :-1], system.penalty_u)):
        age = surface[:, :-2] - 2.0 * surface[:, 1:-1] + surface[:, 2:]
        year = surface[:-2, :] - 2.0 * surface[1:-1, :] + surface[2:, :]
        want = np.concatenate([age.ravel(), year.T.ravel()])
        np.testing.assert_allclose(operator @ v.ravel(), want, rtol=0, atol=1e-12)


fractions = st.floats(min_value=0.0, max_value=1.0)


def grid_point(fi, fj, nrows, ncols):
    """A start (i, j) of an age pair on an nrows x ncols surface."""
    return min(int(fi * nrows), nrows - 1), min(int(fj * (ncols - 1)), ncols - 2)


@settings(max_examples=30)
@given(
    lattice_spans,
    lattice_spans,
    st.one_of(st.just(0.0), weights),
    weights,
    fractions,
    fractions,
    fractions,
    fractions,
)
@example(3, 4, 0.0, 1.0, 0.0, 1.0, 0.5, 0.5)  # level pair holds the silent corner v(0, J+1)
@example(4, 3, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0)  # level pair next to the silent corner v(I+1, 0)
@example(1, 1, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
def test_whitened_selected_point_matches_band_route(
    i_span, j_span, lambda1, lambda2, fvi, fvj, fui, fuj
):
    system, _ = full_coverage_fit(i_span, j_span, lambda1, lambda2)
    layout = system.layout
    point_v = grid_point(fvi, fvj, *layout.level_shape)
    point_u = grid_point(fui, fuj, *layout.trend_shape)
    targets = SmoothnessTargets(selected_point_v=point_v, selected_point_u=point_u)
    probe = _Evaluator(system, targets)((np.log10(lambda1) if lambda1 else -np.inf, np.log10(lambda2)))
    fit = probe.fit
    # point (i, j) starts the age pair at field position i * (ncols - 1) + j
    want_v, want_u = (
        smoothness_field(band, shape)[i * (shape[1] - 1) + j]
        for band, shape, (i, j) in (
            (fit.unit_cov_v_band, layout.level_shape, point_v),
            (fit.unit_cov_u_band, layout.trend_shape, point_u),
        )
    )
    assert abs(probe.stat_v - want_v) <= 1e-12 * want_v
    assert abs(probe.stat_u - want_u) <= 1e-12 * want_u


def read_pairs(probe, kind):
    """The field-vector positions of the pairs each statistic of `probe` reads."""
    fit, layout = probe.fit, probe.fit.layout
    bands = ((fit.unit_cov_v_band, layout.level_shape), (fit.unit_cov_u_band, layout.trend_shape))
    return [set(_read_pairs(smoothness_field(band, shape), kind)) for band, shape in bands]


def jacobian_and_central_differences(evaluate, lg, h=1e-4):
    """The Jacobian of the probe at `lg`, whether the steps of h keep the pairs
    its statistics read, and the central differences of its error."""
    probe = evaluate(tuple(lg))
    steps = [[evaluate(tuple(lg + sign * h * unit)) for sign in (1, -1)] for unit in np.eye(2)]
    kind = evaluate.targets.fstat_kind
    kept = kind == "selected-point" or all(
        read_pairs(q, kind) == read_pairs(probe, kind) for pair in steps for q in pair
    )
    central = np.column_stack([(up.error - down.error) / (2 * h) for up, down in steps])
    return probe.jacobian, kept, central


@settings(max_examples=30)
@given(
    lattice_spans,
    lattice_spans,
    st.one_of(st.just(0.0), weights),
    weights,
    fractions,
    fractions,
    fractions,
    fractions,
    st.sampled_from(["selected-point", "median", "min"]),
)
# the level pair holds the silent corner: pinned to 1
@example(3, 4, 0.0, 1.0, 0.0, 1.0, 0.5, 0.5, "selected-point")
@example(8, 8, 1e3, 1e-2, 0.5, 0.5, 0.5, 0.5, "selected-point")
@example(8, 8, 1e3, 1e-2, 0.5, 0.5, 0.5, 0.5, "median")
@example(8, 8, 1e3, 1e-2, 0.5, 0.5, 0.5, 0.5, "min")
def test_selected_point_jacobian_matches_central_differences(
    i_span, j_span, lambda1, lambda2, fvi, fvj, fui, fuj, kind
):
    # `median` and `min` differentiate the pairs they read, so they match
    # wherever the steps leave those pairs in place; they read no point
    system, _ = full_coverage_fit(i_span, j_span, lambda1, lambda2)
    layout = system.layout
    points = {}
    if kind == "selected-point":
        points = dict(selected_point_v=grid_point(fvi, fvj, *layout.level_shape),
                      selected_point_u=grid_point(fui, fuj, *layout.trend_shape))
    targets = SmoothnessTargets(fstat_kind=kind, **points)
    lg = np.array([np.log10(lambda1) if lambda1 else -np.inf, np.log10(lambda2)])
    jacobian, kept, central = jacobian_and_central_differences(_Evaluator(system, targets), lg)
    assume(kept)
    # relative to the largest entry: a pinned indicator's row is exactly zero
    assert np.max(np.abs(jacobian - central)) <= 1e-6 * np.max(np.abs(central))
    if lambda1 == 0.0:
        assert np.all(jacobian[:, 0] == 0.0)


@pytest.mark.parametrize("kind", ["median", "min"])
@pytest.mark.parametrize("lg", [(0.0, 0.0), (1.0, 1.0), (3.0, 2.0)])
def test_whole_field_jacobian_matches_central_differences_on_a_survey(kind, lg):
    # Full coverage is symmetric, so the median's two middle pairs there are
    # twins with one slope; on two survey waves each has its own.
    frame = Frame.from_bounds(2000.0, 2006.9, 30.0, 40.0)
    layout = ParameterLayout.from_frame(frame)
    model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 0.5)
    system = build_system_raw(generate(model, survey_plan(frame, (0, 6), (0.3,), 1), seed=1))
    evaluate = _Evaluator(system, SmoothnessTargets(fstat_kind=kind))
    jacobian, kept, central = jacobian_and_central_differences(evaluate, np.array(lg))
    assert kept
    assert np.max(np.abs(jacobian - central)) <= 1e-6 * np.max(np.abs(central))


def test_doubling_every_raw_row_doubles_the_tuned_lambdas():
    # Criterion 5's design in raw mode.  With every row twice the normal
    # matrix at (2 lambda1, 2 lambda2) is twice the one at (lambda1, lambda2),
    # so every correlation, and the root the tuner converges to, doubles.
    frame = Frame.from_bounds(1982.0, 1992.99, 25.0, 64.0)
    layout = ParameterLayout.from_frame(frame)
    model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), noise_sd=3.5)
    plan = survey_plan(frame, (0, 5, 10), (0.05, 0.1, 0.15, 0.2, 0.25, 0.3), per_fraction=5)
    measurements = measurement_rows(generate(model, plan, seed=42))
    targets = SmoothnessTargets(f_smv=0.2, f_smu=0.2, delta=0.05)
    (once, report), (twice, doubled) = (
        tune(build_system_raw(columns(measurements * copies, frame)), targets) for copies in (1, 2)
    )
    assert abs(doubled.lambda1 / (2 * report.lambda1) - 1) <= 1e-6
    assert abs(doubled.lambda2 / (2 * report.lambda2) - 1) <= 1e-6
    assert np.max(np.abs(twice.v_hat - once.v_hat)) <= 1e-9 * np.max(np.abs(once.v_hat))


@pytest.mark.parametrize("aggregated", [False, True], ids=["raw", "aggregated"])
def test_translating_frame_and_data_changes_no_bit(aggregated):
    # Criterion 5's design, and the same frame and rows shifted by 3 years and
    # 7 ages.  The years stay in one binade, [1024, 2048), so y + 3 and the
    # year fraction y - floor(y) are exact; the generated ages are whole.  So
    # every row lands in the same relative cell at the same fraction, and the
    # system, the tune and the fit agree to the bit.
    frame = Frame.from_bounds(1982.0, 1992.99, 25.0, 64.0)
    layout = ParameterLayout.from_frame(frame)
    model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), noise_sd=3.5)
    plan = survey_plan(frame, (0, 5, 10), (0.05, 0.1, 0.15, 0.2, 0.25, 0.3), per_fraction=5)
    measurements = generate(model, plan, seed=42)
    shifted_frame = Frame.from_bounds(
        frame.y_min + 3, frame.y_max + 3, frame.a_min + 7, frame.a_max + 7
    )
    shifted = columns(
        [Measurement(m.x, m.y + 3, m.a + 7) for m in measurement_rows(measurements)], shifted_frame
    )
    targets = SmoothnessTargets(f_smv=0.2, f_smu=0.2, delta=0.05)

    def tuned(data):
        if aggregated:
            return tune(build_system_aggregated(aggregate(data)), targets)
        return tune(build_system_raw(data), targets)

    (fit, report), (moved, moved_report) = tuned(measurements), tuned(shifted)
    assert (moved_report.lambda1, moved_report.lambda2) == (report.lambda1, report.lambda2)
    assert np.array_equal(moved.v_hat, fit.v_hat)
    assert moved.sigma2_hat == fit.sigma2_hat


@settings(max_examples=20)
@given(
    lattice_spans,
    lattice_spans,
    st.one_of(st.just(0.0), weights),
    weights,
    st.integers(0, 2**32 - 1),
)
@example(1, 1, 0.0, 1.0, 0)
@example(5, 3, 0.0, 1e3, 1)
def test_trend_unit_cov_matches_dense_inverse(i_span, j_span, lambda1, lambda2, seed):
    system, fit = full_coverage_fit(i_span, j_span, lambda1, lambda2)
    assert fit.n_silent == (2 if lambda1 == 0.0 else 0)
    v2u = build_v2u(fit.layout).toarray()
    want_u = v2u @ dense_level_cov(system, fit) @ v2u.T
    a = np.random.default_rng(seed).normal(size=(3, fit.layout.n_trend))
    want = a @ want_u @ a.T
    np.testing.assert_allclose(fit.trend_unit_cov(a), want, rtol=0, atol=1e-10 * np.max(np.abs(want)))
    np.testing.assert_allclose(
        fit.trend_unit_cov(np.eye(fit.layout.n_trend)), want_u, rtol=0, atol=1e-10 * np.max(np.abs(want_u))
    )


@settings(max_examples=20)
@given(lattice_spans, lattice_spans, st.one_of(st.just(0.0), weights), weights)
@example(1, 1, 0.0, 1.0)
@example(6, 2, 1e-2, 1e-2)
def test_edf_matches_dense_trace(i_span, j_span, lambda1, lambda2):
    system, fit = full_coverage_fit(i_span, j_span, lambda1, lambda2)
    weighted = system.data.T.multiply(system.weights)
    g0 = (weighted @ system.data).toarray()
    want = np.trace(dense_level_cov(system, fit) @ g0)
    assert abs(fit.edf - want) <= 1e-10 * want
    assert 0.0 < fit.edf <= (fit.layout.dim - fit.n_silent) * (1.0 + 1e-12)


@settings(max_examples=20)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
@example(1, 1, 2)  # 8 measurements for 9 levels
def test_raw_and_aggregated_fits_agree_when_member_years_equal(i_span, j_span, seed):
    # One year fraction per cell, 1-4 members each: aggregation loses nothing.
    frame = frame_of(i_span, j_span)
    layout = ParameterLayout.from_frame(frame)
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(i_span + 1):
        for j in range(j_span + 1):
            entries += [(i, j, 0.9 * float(rng.random()))] * int(rng.integers(1, 5))
    model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 0.8)
    measurements = generate(model, SamplingPlan(tuple(entries)), seed=seed)
    raw = solve(build_system_raw(measurements), 1.0, 1.0)
    agg = solve(build_system_aggregated(aggregate(measurements)), 1.0, 1.0)
    assert raw.n_obs == agg.n_obs
    assert np.max(np.abs(raw.v_hat - agg.v_hat)) <= 1e-10
    if raw.dof < 1:  # as few measurements as levels: neither mode estimates sigma2
        assert raw.sigma2_hat is None and agg.sigma2_hat is None
        return
    assert abs(raw.sigma2_hat - agg.sigma2_hat) <= 1e-10
    assert np.max(np.abs(raw.level_stderr() - agg.level_stderr())) <= 1e-10
    assert np.max(np.abs(raw.trend_stderr() - agg.trend_stderr())) <= 1e-10


@settings(max_examples=30)
@given(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False))
def test_aggregate_invariant_to_row_order(i_span, j_span, rnd):
    frame = frame_of(i_span, j_span)
    layout = ParameterLayout.from_frame(frame)
    plan = full_coverage_plan(frame, (0.1, 0.45, 0.8), per_fraction=3)
    model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 2.0)
    measurements = measurement_rows(generate(model, plan, seed=rnd.randrange(2**32)))
    base = aggregate(columns(measurements, frame))
    rnd.shuffle(measurements)
    cells = aggregate(columns(measurements, frame))
    for name in ("i", "j", "n"):
        assert np.array_equal(getattr(cells, name), getattr(base, name))
    # Only the order of numpy's pairwise sums moves: a few ulps per value.
    scale = max(abs(m.x) for m in measurements)
    assert np.all(np.abs(cells.x_bar - base.x_bar) <= 1e-13 * scale)
    assert np.all(np.abs(cells.y_bar - base.y_bar) <= 1e-13 * base.y_bar)
    assert np.all(np.abs(cells.css - base.css) <= 1e-12 * cells.n * scale**2)


@st.composite
def grid_point_sets(draw):
    """4 to 9 distinct points on an integer grid of up to 6 x 6."""
    width = draw(st.integers(1, 6))
    height = draw(st.integers(-(-4 // width), 6))
    point = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    return draw(st.lists(point, min_size=4, max_size=min(9, width * height), unique=True))


def on_one_line(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) == (q[1] - p[1]) * (r[0] - p[0])


@settings(max_examples=300)
@given(grid_point_sets())
def test_general_position_matches_quadruple_search(points):
    # Integer coordinates keep every cross product exact, so the collinearity
    # tolerance plays no part.
    _, why = check_uniqueness(points)
    free_quadruple = any(
        not any(on_one_line(*triple) for triple in combinations(quad, 3))
        for quad in combinations(points, 4)
    )
    collinear_reasons = ("all points collinear", "all but at most one point share a line")
    assert (why in collinear_reasons) == (not free_quadruple)
    one_line = all(on_one_line(points[0], points[1], r) for r in points)
    assert (why == "all points collinear") == one_line


def comparison_reference(grid, a, b, direction):
    """One pair by the documented formula: F = diff^2 / var_diff, its upper
    tail p, or untestable where var_diff <= tol (c_aa + c_bb), the sum
    floored at the least normal float, with F and p NaN.  diff * diff is the
    correctly rounded square; float ** 2 goes through pow and can be an ulp
    off.  The row holds the flat cluster indices, as `ComparisonColumns`."""
    ka, kb = np.ravel_multi_index(a, grid.shape), np.ravel_multi_index(b, grid.shape)
    diff = float(grid.means[a] - grid.means[b])
    c_aa, c_bb, c_ab = (float(grid.cov[i, j]) for i, j in ((ka, ka), (kb, kb), (ka, kb)))
    var_diff = c_aa - 2.0 * c_ab + c_bb
    if var_diff <= _DEGENERATE_REL_TOL * max(c_aa + c_bb, np.finfo(float).tiny):
        return ka, kb, direction, diff, np.nan, np.nan, False
    f_value = diff * diff / var_diff
    return ka, kb, direction, diff, f_value, float(special.fdtrc(1, grid.dof, f_value)), True


@st.composite
def cluster_grids(draw):
    """A grid of at least two clusters with a random PSD covariance H H^T, in
    which some clusters copy the row of H of their age or year predecessor,
    plus eps times noise.  The difference variance of such a pair is near
    eps^2 / 2 of c_aa + c_bb, on either side of the untestable bound; at
    eps = 0 the covariance rows and columns are copied too, so it is 0."""
    nrows, ncols = draw(st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(lambda s: s[0] * s[1] >= 2))
    n = nrows * ncols
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half = rng.normal(size=(n, draw(st.integers(1, n + 2)))) * 10.0 ** draw(st.floats(-6, 6))
    means = rng.normal(size=n) * 10.0 ** draw(st.floats(-6, 6))
    exact = []
    for k in draw(st.lists(st.integers(1, n - 1), max_size=n, unique=True)):
        source = draw(st.sampled_from([k - 1, k - ncols] if k >= ncols else [k - 1]))
        eps = draw(st.just(0.0) | st.floats(-7, -3).map(lambda e: 10.0**e))
        half[k] = half[source] + eps * np.abs(half).max() * rng.normal(size=half.shape[1])
        means[k] = draw(st.sampled_from([means[k], means[source]]))
        if eps == 0.0:
            exact.append((k, source))
    cov = half @ half.T
    for k, source in exact:
        cov[k], cov[:, k] = cov[source], cov[:, source]
    return ClusterGrid(
        means=means.reshape(nrows, ncols),
        cov=cov,
        dof=draw(st.integers(1, 200_000)),
        year_bands=tuple((p, p) for p in range(nrows)),
        age_bands=tuple((q, q) for q in range(ncols)),
    )


@settings(deadline=None, max_examples=200)
@given(cluster_grids())
def test_compare_adjacent_matches_the_per_pair_formula(grid):
    nrows, ncols = grid.shape
    want = []
    for p in range(nrows):
        for q in range(ncols):
            if q + 1 < ncols:
                want.append(comparison_reference(grid, (p, q), (p, q + 1), AGE_ADJACENT))
            if p + 1 < nrows:
                want.append(comparison_reference(grid, (p, q), (p + 1, q), YEAR_ADJACENT))
    got = compare_adjacent(grid)
    names = ("a", "b", "direction", "diff", "f_value", "p_value", "testable")
    for name, column in zip(names, zip(*want), strict=True):
        nan = name in ("f_value", "p_value")
        assert np.array_equal(getattr(got, name), np.array(column), equal_nan=nan), name


def transposed_systems(i_span, j_span, seed, n):
    """`_level_system` on (i, j, t, x, w) drawn from `seed`, and on the same
    data with the lattice transposed, (i, j) -> (j, i) at the same t and x."""
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, i_span + 1, n), rng.integers(0, j_span + 1, n)
    t, x, w = rng.random(n), rng.normal(25.0, 3.0, n), rng.integers(1, 50, n).astype(float)
    css = float(rng.exponential(5.0))
    return [
        _level_system(layout, rows, cols, t, x, w, css)
        for layout, rows, cols in ((ParameterLayout(i_span, j_span), i, j), (ParameterLayout(j_span, i_span), j, i))
    ]


def transposed_fits(i_span, j_span, seed, n, lambdas):
    """Fits of both `transposed_systems`; None where `solve` finds the system singular."""
    fits = []
    for system in transposed_systems(i_span, j_span, seed, n):
        try:
            fits.append(solve(system, *lambdas))
        except SingularSystem:
            fits.append(None)
    return fits


transposable = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 40),
    lambdas=st.tuples(st.floats(-3.0, 5.0), st.floats(-3.0, 5.0)).map(lambda lg: (10.0 ** lg[0], 10.0 ** lg[1])),
)


@settings(deadline=None, max_examples=40)
@given(i_span=lattice_spans, j_span=lattice_spans, **transposable)
def test_transposed_lattice_fits_bit_for_bit(i_span, j_span, seed, n, lambdas):
    """With I != J, `band_order` walks the shorter axis of either lattice, so
    both systems factor the same band in the same order."""
    assume(i_span != j_span)
    fit, swapped = transposed_fits(i_span, j_span, seed, n, lambdas)
    assert (fit is None) == (swapped is None)
    assume(fit is not None)
    assert np.array_equal(fit.v_hat.T, swapped.v_hat)
    assert np.array_equal(fit.u_hat.T, swapped.u_hat)
    for stderr, swapped_stderr in (
        (fit.level_stderr(), swapped.level_stderr()),
        (fit.trend_stderr(), swapped.trend_stderr()),
    ):
        assert (stderr is None and swapped_stderr is None) or np.array_equal(stderr.T, swapped_stderr)
    assert (fit.sigma2_hat, fit.edf, fit.condition, fit.s0) == (
        swapped.sigma2_hat, swapped.edf, swapped.condition, swapped.s0
    )


def tune_end(system, targets):
    """How a tune ends: the outcome's name and its report (None when singular
    at the start)."""
    try:
        return "converged", tune(system, targets)[1]
    except (TargetUnreachable, NoConvergence) as exc:
        return type(exc).__name__, exc.report
    except SingularSystem:
        return "SingularSystem", None


@settings(deadline=None, max_examples=15)
@given(i_span=st.integers(2, 8), j_span=st.integers(2, 8), seed=transposable["seed"])
def test_transposed_lattice_tunes_alike(i_span, j_span, seed):
    """Transposing the lattice swaps the age and year pairs of each field, so
    every whole-field statistic reads the same indicators, in another order.
    With I != J the fits agree bit for bit (above), but `mean` sums the field
    in another order and `median` and `min` may break ties between equal
    indicators differently, so the lambdas agree within rounding and each tune
    ends the same way in the same number of solves."""
    assume(i_span != j_span)
    systems = transposed_systems(i_span, j_span, seed, 300)
    for kind in ("mean", "median", "min"):
        targets = SmoothnessTargets(0.3, 0.3, 0.05, kind)
        (end, report), (swapped_end, swapped) = (tune_end(system, targets) for system in systems)
        assert end == swapped_end, kind
        if report is None:
            continue
        assert report.iterations == swapped.iterations, kind
        for name in ("lambda1", "lambda2"):
            assert abs(getattr(swapped, name) / getattr(report, name) - 1) <= 1e-10, (kind, name)


@settings(deadline=None, max_examples=40)
@given(span=lattice_spans, **transposable)
def test_square_lattice_transposed_within_rounding(span, seed, n, lambdas):
    """With I = J, `band_order` walks both lattices row by row, which is
    column by column on the other, so the two systems eliminate the levels in
    different orders and their bits differ.

    The bound.  Both systems hold the same equilibrated entries, permuted:
    the Gram diagonals, and so the Jacobi scales, agree level by level.  A
    banded Cholesky solve of lower bandwidth w is backward stable (Higham
    2002, Thm 10.3): (M + dM) y = b with |dM| <= gamma_(w+1) |L| |L^T|,
    gamma_k = k u / (1 - k u) and u = eps / 2 the unit roundoff.  So each
    solve lies within about (w + 1) u cond max|v| of the exact v, cond being
    the fit's `condition`, and the two lie within twice that of each other:
    max|dv| <= (w + 1) eps cond max|v|.  The worst ratio of max|dv| to
    eps cond max|v| measured over 15 square cases was about 1.
    """
    fit, swapped = transposed_fits(span, span, seed, n, lambdas)
    assume(fit is not None and swapped is not None)
    bound = (bandwidth(fit.layout) + 1) * np.finfo(float).eps * fit.condition * np.max(np.abs(fit.v_hat))
    assert np.max(np.abs(fit.v_hat.T - swapped.v_hat)) <= bound


def turned_fits(i_span, j_span, seed, n, lambdas):
    """Fits of `_level_system` on (i, j, t, x, w) drawn from `seed`, with t in
    (0, 1), and on the same data turned by 180 degrees, (i, j, t) ->
    (I - i, J - j, 1 - t) at the same x and w; None where `solve` finds the
    system singular."""
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, i_span + 1, n), rng.integers(0, j_span + 1, n)
    t = rng.integers(1, 2**53, n) / 2.0**53
    x, w = rng.normal(25.0, 3.0, n), rng.integers(1, 50, n).astype(float)
    css = float(rng.exponential(5.0))
    layout = ParameterLayout(i_span, j_span)
    fits = []
    for rows, cols, fraction in ((i, j, t), (i_span - i, j_span - j, 1.0 - t)):
        try:
            fits.append(solve(_level_system(layout, rows, cols, fraction, x, w, css), *lambdas))
        except SingularSystem:
            fits.append(None)
    return fits


@settings(deadline=None, max_examples=40)
@given(i_span=lattice_spans, j_span=lattice_spans, **transposable)
def test_turned_lattice_within_rounding(i_span, j_span, seed, n, lambdas):
    """Turned by 180 degrees, a row at fraction t in cell (i, j) reads
    t v'(I-i, J-j) + (1-t) v'(I-i+1, J-j+1), so v'(p, q) = v(I+1-p, J+1-q)
    fits the same data under the same penalties, whose stencils are
    symmetric: v-hat turns, and u-hat, a difference along the diagonal,
    turns and changes sign.

    The bound.  In exact arithmetic the turned system is the original one
    with its levels in reverse order.  Two roundings part them, with u =
    eps / 2 the unit roundoff and cond the fit's `condition`:
    - the turn computes 1 - t, and `_level_system` then 1 - (1 - t).  One
      coefficient of each data row moves, by at most u times the row's
      other one, so each row's term in the normal matrix and right-hand
      side moves by at most 2u relative.  To first order that moves the
      exact solution by at most 2u cond max|v|;
    - `band_order` eliminates the reversed levels in the reverse order.  As
      in the I = J transposition above, each banded Cholesky solve of lower
      bandwidth w is backward stable (Higham 2002, Thm 10.3) and lies within
      (w + 1) u cond max|v| of its exact solution.
    So max|dv| <= (w + 2) eps cond max|v|, and each trend, the difference of
    two levels, is within twice that.  The trends' scale is max|v| too: over
    600 cases up to span 12 the worst ratio of max|dv| to eps cond max|v|
    was 1.35, and of max|du| to eps cond max|v| 1.36, but to eps cond max|u|
    it was 13.7.
    """
    fit, turned = turned_fits(i_span, j_span, seed, n, lambdas)
    assume(fit is not None and turned is not None)
    bound = (bandwidth(fit.layout) + 2) * np.finfo(float).eps * fit.condition * np.max(np.abs(fit.v_hat))
    assert np.max(np.abs(turned.v_hat - fit.v_hat[::-1, ::-1])) <= bound
    assert np.max(np.abs(turned.u_hat + fit.u_hat[::-1, ::-1])) <= 2.0 * bound
