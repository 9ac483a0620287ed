import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate, special

from ctrend.errors import InsufficientDof, InvalidClusterSize
from ctrend.inference import (
    AGE_ADJACENT,
    YEAR_ADJACENT,
    ClusterGrid,
    cluster_means,
    compare_adjacent,
)


def f_density(x, d1, d2):
    if x <= 0:
        return 0.0
    log_pdf = (
        (d1 / 2) * math.log(d1)
        + (d2 / 2) * math.log(d2)
        + (d1 / 2 - 1) * math.log(x)
        - ((d1 + d2) / 2) * math.log(d2 + d1 * x)
        - special.betaln(d1 / 2, d2 / 2)
    )
    return math.exp(log_pdf)


def only_comparison(grid):
    """The one comparison of a two-cluster grid, each column's value."""
    comparisons = compare_adjacent(grid)
    assert len(comparisons) == 1
    return SimpleNamespace(**{f.name: getattr(comparisons, f.name).item() for f in fields(comparisons)})


def make_grid(means, cov, dof=60):
    means = np.asarray(means, dtype=float)
    return ClusterGrid(
        means=means,
        cov=np.asarray(cov, dtype=float),
        dof=dof,
        year_bands=tuple((p, p) for p in range(means.shape[0])),
        age_bands=tuple((q, q) for q in range(means.shape[1])),
    )


class TestCompareAdjacent:
    def test_equal_means_null_case(self):
        grid = make_grid([[1.0, 1.0]], 0.5 * np.eye(2))
        comp = only_comparison(grid)
        assert comp.direction == AGE_ADJACENT
        assert comp.f_value == 0.0
        assert comp.p_value == 1.0
        assert comp.testable

    def test_hand_f_value(self):
        grid = make_grid([[3.0, 1.0]], np.eye(2))
        comp = only_comparison(grid)
        assert comp.diff == 2.0
        assert comp.f_value == pytest.approx(2.0, rel=1e-14)

    def test_frozen_p_value(self):
        # independent quadrature oracle gave 0.16246748977119 for F=2, dof=60
        grid = make_grid([[3.0, 1.0]], np.eye(2), dof=60)
        comp = only_comparison(grid)
        assert comp.p_value == pytest.approx(0.16246748977119374, rel=1e-9)

    def test_far_tail_p_value_is_not_cancelled(self):
        # F = 100 at dof = 3000: 1 - F_cdf rounds to 0, the upper tail is 3.5e-23
        grid = make_grid([[10.0, 0.0]], 0.5 * np.eye(2), dof=3000)
        comp = only_comparison(grid)
        assert comp.f_value == 100.0
        tail, _ = integrate.quad(f_density, 100.0, math.inf, args=(1, 3000), limit=400)
        assert comp.p_value > 0.0
        assert comp.p_value == pytest.approx(tail, rel=1e-4)

    def test_small_f_p_value_at_large_dof(self):
        # near p = 1 the complement of the CDF loses nothing; the upper tail
        # must agree with it (betainc(dof/2, 1/2, dof/(dof + F)) is 4.5e-11 off)
        grid = make_grid([[0.1, 0.0]], 0.5 * np.eye(2), dof=109508)
        comp = only_comparison(grid)
        want = 1.0 - special.fdtr(1, 109508, comp.f_value)
        assert comp.p_value == pytest.approx(want, rel=1e-13)

    def test_directions_and_report_shape(self):
        grid = make_grid(np.arange(6.0).reshape(2, 3), np.eye(6))
        comps = compare_adjacent(grid)
        # 2 age-adjacent per row x 2 rows + 3 year-adjacent
        assert len(comps) == 7
        assert np.count_nonzero(comps.direction == AGE_ADJACENT) == 4
        assert np.count_nonzero(comps.direction == YEAR_ADJACENT) == 3

    def test_swap_symmetry(self):
        rng = np.random.default_rng(5)
        half = rng.normal(size=(6, 6))
        cov = half @ half.T + 6 * np.eye(6)
        means = rng.normal(size=(2, 3))
        grid = make_grid(means, cov)
        comps = compare_adjacent(grid)
        ka, kb = comps.a, comps.b
        # recompute with the pair swapped
        diff = means.ravel()[kb] - means.ravel()[ka]
        var = cov[kb, kb] - 2 * cov[kb, ka] + cov[ka, ka]
        assert comps.f_value == pytest.approx(diff**2 / var, rel=1e-12)

    def test_degenerate_variance_flagged_not_dropped(self):
        cov = np.ones((2, 2))  # perfectly correlated: zero difference variance
        grid = make_grid([[1.0, 2.0]], cov)
        comp = only_comparison(grid)
        assert not comp.testable
        assert math.isnan(comp.f_value) and math.isnan(comp.p_value)
        assert comp.diff == -1.0

    def test_nan_variance_stays_testable(self):
        cov = np.eye(2)
        cov[0, 0] = np.nan
        comp = only_comparison(make_grid([[1.0, 0.0]], cov))
        assert comp.testable
        assert math.isnan(comp.f_value) and math.isnan(comp.p_value)

    def test_p_monotone_in_f(self):
        ps = []
        for diff in (0.5, 1.0, 2.0, 4.0):
            grid = make_grid([[diff, 0.0]], np.eye(2))
            comp = only_comparison(grid)
            ps.append(comp.p_value)
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_single_cluster_rejected(self):
        grid = make_grid([[1.0]], np.eye(1))
        with pytest.raises(InvalidClusterSize):
            compare_adjacent(grid)

    def test_dof_required(self):
        grid = make_grid([[1.0, 2.0]], np.eye(2), dof=0)
        with pytest.raises(InsufficientDof):
            compare_adjacent(grid)


class TestClusterMeans:
    def test_identity_clusters(self, small_noisy_fit):
        fit = small_noisy_fit
        grid = cluster_means(fit, 1, 1)
        assert np.array_equal(grid.means, fit.u_hat)
        cov_u = fit.sigma2_hat * fit.trend_unit_cov(np.eye(fit.layout.n_trend))
        assert np.allclose(grid.cov, cov_u, rtol=0, atol=0)
        assert grid.dof == fit.dof

    def test_cluster_shape_and_bands(self, small_noisy_fit):
        # trend surface is 5 x 7; clusters of 2 x 3 -> 3 x 3 bands
        grid = cluster_means(small_noisy_fit, 3, 2)
        assert grid.shape == (3, 3)
        assert grid.year_bands == ((0, 1), (2, 3), (4, 4))
        assert grid.age_bands == ((0, 2), (3, 5), (6, 6))

    def test_means_are_cell_averages(self, small_noisy_fit):
        fit = small_noisy_fit
        grid = cluster_means(fit, 3, 2)
        assert grid.means[0, 0] == pytest.approx(fit.u_hat[0:2, 0:3].mean(), rel=1e-12)
        assert grid.means[2, 2] == pytest.approx(fit.u_hat[4:5, 6:7].mean(), rel=1e-12)

    def test_constant_trend_constant_clusters(self, small_noisy_fit):
        fit = small_noisy_fit
        grid = cluster_means(fit, 2, 2)
        # averaging a constant field reproduces the constant
        shifted = fit.u_hat - fit.u_hat + 3.25
        from ctrend.design import build_u2uc

        a = build_u2uc(fit.layout, 2, 2)
        assert np.allclose(a @ shifted.ravel(), 3.25, rtol=0, atol=1e-12)

    def test_difference_variances_nonnegative(self, small_noisy_fit):
        grid = cluster_means(small_noisy_fit, 2, 2)
        comps = compare_adjacent(grid)
        ka, kb = comps.a, comps.b
        var = grid.cov[ka, ka] - 2 * grid.cov[ka, kb] + grid.cov[kb, kb]
        assert np.all(var >= -1e-10 * (grid.cov[ka, ka] + grid.cov[kb, kb]))

    def test_requires_variance_estimate(self, small_frame):
        from ctrend.design import build_system_raw
        from ctrend.solver import solve
        from ingest_reference import Measurement, columns

        pts = [(2000.2, 11.0), (2003.4, 12.0), (2001.7, 15.0), (2002.9, 10.5)]
        ms = [Measurement(20.0, y, a) for y, a in pts]
        fit = solve(build_system_raw(columns(ms, small_frame)), 1.0, 1.0)
        with pytest.raises(InsufficientDof):
            cluster_means(fit, 2, 2)
