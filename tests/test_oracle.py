"""The level-surface solve against a dense solve in parameter coordinates.

The oracle builds the z-coordinate normal equations from the observation
rows of `zref` (`build_b0_*`, stacked by `dense`) and the fit's penalty
operators pulled back to z (`penalties_z`), and solves them densely;
`solve` works on the level surface v.  The two are related by
the bijection `zref.build_z2v`, so every estimate and covariance must agree.
"""

import numpy as np
import pytest
from scipy import linalg

from ctrend.design import build_system_aggregated, build_system_raw, build_v2u
from ctrend.grid import Frame, ParameterLayout
from ctrend.ingest import aggregate
from ctrend.solver import solve
from ctrend.synth import TrueModel, generate, survey_plan
from ingest_reference import rows as measurement_rows
from zref import (
    build_b0_aggregated,
    build_b0_raw,
    build_z2v,
    dense,
    penalties_z,
    smooth_boundary,
    smooth_trend,
    unit_cov_v,
    unit_cov_z,
    z_hat,
)

RTOL = 1e-9


def dense_z_fit(frame, layout, measurements, mode, lambda1, lambda2):
    if mode == "raw":
        rows = build_b0_raw(layout, frame, measurement_rows(measurements))
        w, css = np.ones(len(rows)), 0.0
    else:
        rows, w, css = build_b0_aggregated(layout, aggregate(measurements))
    b0 = dense(rows, layout.dim)
    x = np.array([r.rhs for r in rows])
    b1, b2 = penalties_z(layout)
    m = b0.T @ (w[:, None] * b0) + lambda1 * b1.T @ b1 + lambda2 * b2.T @ b2
    # parameters that no row reaches (with lambda1 = 0, the two corner
    # boundary levels) are zero with zero covariance
    keep = np.flatnonzero(np.diag(m) > 0.0)
    factor = linalg.cho_factor(m[np.ix_(keep, keep)])
    z = np.zeros(layout.dim)
    z[keep] = linalg.cho_solve(factor, (b0.T @ (w * x))[keep])
    cov_z = np.zeros((layout.dim, layout.dim))
    cov_z[np.ix_(keep, keep)] = linalg.cho_solve(factor, np.eye(len(keep)))
    z2v = build_z2v(layout)
    z2u = build_v2u(layout) @ z2v
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


MODES = ["raw", "aggregated"]
LAMBDAS = [(1e-3, 1e-3), (1.0, 1.0), (1e4, 10.0), (0.0, 1.0)]


def check_against_oracle(frame, layout, measurements, mode, lambdas):
    if mode == "raw":
        system = build_system_raw(measurements)
    else:
        system = build_system_aggregated(aggregate(measurements))
    fit = solve(system, *lambdas)
    assert fit.n_silent == (2 if lambdas[0] == 0.0 else 0)
    want = dense_z_fit(frame, layout, measurements, mode, *lambdas)
    views = {
        "z_hat": z_hat,
        "unit_cov_z": unit_cov_z,
        "unit_cov_v": unit_cov_v,
        "unit_cov_u": lambda fit: fit.trend_unit_cov(np.eye(layout.n_trend)),
    }
    for name, expected in want.items():
        got = views[name](fit) if name in views else getattr(fit, name)
        err = np.max(np.abs(got - expected))
        assert err <= RTOL * np.max(np.abs(expected)), (name, err)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("lambdas", LAMBDAS)
def test_level_surface_solve_matches_dense_z_oracle(paper_frame, paper_layout, survey, mode, lambdas):
    check_against_oracle(paper_frame, paper_layout, survey, mode, lambdas)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("lambdas", LAMBDAS)
def test_row_major_lattice_matches_dense_z_oracle(mode, lambdas):
    # more year rows than age columns: the solver orders the lattice row-major
    frame = Frame.from_bounds(1980.0, 1992.9, 40.0, 45.0)
    layout = ParameterLayout.from_frame(frame)
    assert layout.level_shape == (14, 7)
    model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 0.5)
    measurements = generate(model, survey_plan(frame, (0, 4, 8, 12), (0.1, 0.2), 4), seed=3)
    check_against_oracle(frame, layout, measurements, mode, lambdas)
