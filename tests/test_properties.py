"""Property-based checks of the level-surface algebra and the solver."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrend.design import build_system_raw, build_v2z, build_z2v, second_differences
from ctrend.grid import ParameterLayout
from ctrend.solver import solve
from ctrend.synth import TrueModel, full_coverage_plan, generate, smooth_boundary, smooth_trend

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
