"""The level-surface solve against a dense solve in parameter coordinates.

The oracle builds the z-coordinate normal equations from the reference
builders (`build_b0_*`, `build_penalty_*`, `rows_to_matrix`) and solves
them densely; `solve` works on the level surface v.  The two are related by
the bijection `build_z2v`, so every estimate and covariance must agree.
"""

import numpy as np
import pytest
from scipy import linalg

from ctrend.design import (
    build_b0_aggregated,
    build_b0_raw,
    build_penalty_u,
    build_penalty_v,
    build_system_aggregated,
    build_system_raw,
    build_z2u,
    build_z2v,
    rows_to_matrix,
)
from ctrend.ingest import aggregate
from ctrend.solver import solve
from ctrend.synth import TrueModel, generate, smooth_boundary, smooth_trend, survey_plan

RTOL = 1e-9


def dense_z_fit(frame, layout, measurements, mode, lambda1, lambda2):
    if mode == "raw":
        rows = build_b0_raw(layout, frame, measurements)
        w, css = np.ones(len(rows)), 0.0
    else:
        rows, w, css = build_b0_aggregated(layout, frame, aggregate(measurements, frame))
    b0 = rows_to_matrix(rows, layout.dim)
    x = np.array([r.rhs for r in rows])
    b1 = rows_to_matrix(build_penalty_v(layout), layout.dim)
    b2 = rows_to_matrix(build_penalty_u(layout), layout.dim)
    m = b0.T @ (w[:, None] * b0) + lambda1 * b1.T @ b1 + lambda2 * b2.T @ b2
    factor = linalg.cho_factor(m)
    z = linalg.cho_solve(factor, b0.T @ (w * x))
    cov_z = linalg.cho_solve(factor, np.eye(layout.dim))
    z2v, z2u = build_z2v(layout), build_z2u(layout)
    s0 = float(np.sum(w * (b0 @ z - x) ** 2))
    dof = int(round(w.sum())) - layout.dim
    return {
        "z_hat": z,
        "unit_cov_z": cov_z,
        "v_hat": (z2v @ z).reshape(layout.level_shape),
        "unit_cov_v": z2v @ cov_z @ z2v.T,
        "unit_cov_u": z2u @ cov_z @ z2u.T,
        "s0": s0,
        "s1": float(np.sum((b1 @ z) ** 2)),
        "s2": float(np.sum((b2 @ z) ** 2)),
        "sigma2_hat": (s0 + css) / dof,
    }


@pytest.fixture(scope="module")
def survey(paper_frame, paper_layout):
    model = TrueModel(paper_frame, smooth_boundary(paper_layout), smooth_trend(paper_layout), 0.5)
    return generate(model, survey_plan(paper_frame, (0, 5, 10), (0.1, 0.2), 4), seed=3)


@pytest.mark.parametrize("mode", ["raw", "aggregated"])
@pytest.mark.parametrize("lambdas", [(1e-3, 1e-3), (1.0, 1.0), (1e4, 10.0)])
def test_level_surface_solve_matches_dense_z_oracle(paper_frame, paper_layout, survey, mode, lambdas):
    if mode == "raw":
        system = build_system_raw(paper_frame, survey)
    else:
        system = build_system_aggregated(paper_frame, aggregate(survey, paper_frame))
    fit = solve(system, *lambdas)
    want = dense_z_fit(paper_frame, paper_layout, survey, mode, *lambdas)
    for name, expected in want.items():
        got = getattr(fit, name)
        err = np.max(np.abs(got - expected))
        assert err <= RTOL * np.max(np.abs(expected)), (name, err)
