"""Property-based checks of the level-surface algebra, the solver and the tuner."""

from itertools import combinations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpocon

from ctrend.design import (
    band_order,
    bandwidth,
    build_system_aggregated,
    build_system_raw,
    build_v2u,
    build_v2z,
    build_z2v,
    second_differences,
)
from ctrend.grid import Frame, ParameterLayout
from ctrend.ingest import Measurement, aggregate
from ctrend.solver import check_uniqueness, solve
from ctrend.tuner import SmoothnessTargets, _Evaluator, fstat, smoothness_field, tune
from ctrend.synth import (
    SamplingPlan,
    TrueModel,
    full_coverage_plan,
    generate,
    smooth_boundary,
    smooth_trend,
)
from solver_reference import normal_equations

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
    measurements = generate(model, plan, seed=21)
    base = solve(build_system_raw(small_frame, measurements), 1.0, 1.0)
    rnd.shuffle(measurements)
    fit = solve(build_system_raw(small_frame, measurements), 1.0, 1.0)
    assert np.max(np.abs(fit.v_hat - base.v_hat)) <= 1e-10
    assert np.max(np.abs(fit.unit_cov_v - base.unit_cov_v)) <= 1e-10


lattice_spans = st.integers(min_value=1, max_value=8)
weights = st.floats(min_value=-2.0, max_value=3.0).map(lambda e: 10.0**e)


def full_coverage_fit(i_span, j_span, lambda1, lambda2):
    """A fit on a frame of the given spans with every cell sampled twice."""
    frame = Frame.from_bounds(2000.0, 2000.9 + i_span, 30.0, 30.0 + j_span)
    layout = ParameterLayout.from_frame(frame)
    assert (layout.i_span, layout.j_span) == (i_span, j_span)
    model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 0.5)
    system = build_system_raw(frame, generate(model, full_coverage_plan(frame, (0.25, 0.7)), seed=4))
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
        (fit.unit_cov_v_band, fit.unit_cov_v, layout.level_shape),
        (fit.unit_cov_u_band, fit.unit_cov_u, layout.trend_shape),
    ):
        got, want = smoothness_field(band, shape), smoothness_field(dense, shape)
        np.testing.assert_allclose(got.vector, want.vector, rtol=1e-9, atol=1e-12)
        assert np.array_equal(got.zero_variance_age, want.zero_variance_age)
        assert np.array_equal(got.zero_variance_year, want.zero_variance_year)


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
        system = build_system_raw(small_frame, generate(model, plan, seed=draw_seed))
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
    system = build_system_aggregated(frame, aggregate(measurements, frame))

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
    system = build_system_raw(frame, measurements)
    v = rng.normal(size=layout.level_shape)

    cells = [frame.locate(m.y, m.a) for m in measurements]
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
    want_v = fstat(
        smoothness_field(fit.unit_cov_v_band, layout.level_shape), "selected-point", point_v
    )
    want_u = fstat(
        smoothness_field(fit.unit_cov_u_band, layout.trend_shape), "selected-point", point_u
    )
    assert abs(probe.stat_v - want_v) <= 1e-12 * want_v
    assert abs(probe.stat_u - want_u) <= 1e-12 * want_u


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
    np.testing.assert_allclose(fit.unit_cov_u, want_u, rtol=0, atol=1e-10 * np.max(np.abs(want_u)))


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
    raw = solve(build_system_raw(frame, measurements), 1.0, 1.0)
    agg = solve(build_system_aggregated(frame, aggregate(measurements, frame)), 1.0, 1.0)
    assert raw.n_obs == agg.n_obs
    assert np.max(np.abs(raw.v_hat - agg.v_hat)) <= 1e-10
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
    measurements = generate(model, plan, seed=rnd.randrange(2**32))
    base = aggregate(measurements, frame)
    rnd.shuffle(measurements)
    cells = aggregate(measurements, frame)
    assert [(c.cell, c.n) for c in cells] == [(c.cell, c.n) for c in base]
    # Only the order of numpy's pairwise sums moves: a few ulps per value.
    scale = max(abs(m.x) for m in measurements)
    for got, want in zip(cells, base):
        assert abs(got.x_bar - want.x_bar) <= 1e-13 * scale
        assert abs(got.y_bar - want.y_bar) <= 1e-13 * want.y_bar
        assert abs(got.css - want.css) <= 1e-12 * got.n * scale**2


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
