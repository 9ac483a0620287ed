import dataclasses
import math
from itertools import permutations
import subprocess
import sys

import numpy as np
import pytest

from ctrend.design import build_system_raw, build_v2z
from ctrend.errors import SingularSystem
from ctrend.grid import Frame
from ctrend.ingest import Measurement, aggregate
from ctrend.design import build_system_aggregated
from ctrend.solver import COLLINEARITY_TOL, _collinear, check_uniqueness, solve
from ctrend.synth import TrueModel, full_coverage_plan, generate, smooth_boundary, smooth_trend
from solver_reference import normal_equations, normal_residual


class TestSolve:
    def test_exact_recovery_no_penalty(self, small_frame, small_model, small_noisefree_system):
        fit = solve(small_noisefree_system, 0.0, 0.0)
        z_true = small_model.z_true
        err = np.max(np.abs(fit.z_hat - z_true)) / np.max(np.abs(z_true))
        assert err <= 1e-8
        # only the two extreme boundary corners are outside every data row
        assert fit.n_silent == 2

    def test_constant_data_gives_flat_surfaces(self, small_frame):
        ms = []
        for i in range(small_frame.i_span + 1):
            for j in range(small_frame.j_span + 1):
                for t in (0.25, 0.75):
                    ms.append(
                        Measurement(7.5, small_frame.i_min + i + t, small_frame.j_min + j)
                    )
        system = build_system_raw(small_frame, ms)
        fit = solve(system, 1.0, 1.0)
        assert np.allclose(fit.v_hat, 7.5, rtol=0, atol=1e-8)
        assert np.allclose(fit.u_hat, 0.0, rtol=0, atol=1e-8)
        assert fit.s0 <= 1e-16 and fit.s1 <= 1e-16 and fit.s2 <= 1e-16
        assert np.max(fit.level_stderr()) <= 1e-8

    def test_four_points_with_penalties_unique(self, small_frame):
        pts = [(2000.2, 11.0), (2003.4, 12.0), (2001.7, 15.0), (2002.9, 10.5)]
        ok, _ = check_uniqueness(pts)
        assert ok
        ms = [Measurement(20.0 + k, y, a) for k, (y, a) in enumerate(pts)]
        system = build_system_raw(small_frame, ms)
        fit = solve(system, 1.0, 1.0)
        assert fit.condition < 1e12
        assert fit.sigma2_hat is None and fit.cov_z is None  # 4 obs < dim

    def test_singular_without_penalties(self, small_frame):
        ms = [Measurement(20.0, 2000.25, 12.0), Measurement(21.0, 2002.25, 13.0)]
        system = build_system_raw(small_frame, ms)
        with pytest.raises(SingularSystem):
            solve(system, 0.0, 0.0)

    @pytest.mark.parametrize(
        "dropped,n_silent",
        [(((1, 1), (2, 2)), None), (((0, 3), (1, 4), (2, 5), (3, 6)), 7)],
    )
    def test_unreached_levels_without_penalties(self, small_frame, dropped, n_silent):
        # v(2,2) unreached on an observed diagonal is undetermined; a cohort
        # diagonal without any data drops out whole, as its parameters do
        ms = []
        for i in range(small_frame.i_span + 1):
            for j in range(small_frame.j_span + 1):
                if (i, j) not in dropped:
                    for t in (0.25, 0.75):
                        y, a = small_frame.i_min + i + t, small_frame.j_min + j
                        ms.append(Measurement(7.5 + i - j, y, a))
        system = build_system_raw(small_frame, ms)
        if n_silent is None:
            with pytest.raises(SingularSystem):
                solve(system, 0.0, 0.0)
        else:
            assert solve(system, 0.0, 0.0).n_silent == n_silent

    @pytest.mark.parametrize(
        "lambdas",
        [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf), (-np.inf, 1.0), (1.0, -np.inf)],
    )
    def test_non_finite_weights_rejected(self, small_noisefree_system, lambdas):
        with pytest.raises(ValueError, match="finite and non-negative"):
            solve(small_noisefree_system, *lambdas)

    def test_parameters_formed_once_on_first_read(self, small_noisefree_system, v2z_calls):
        fit = solve(small_noisefree_system, 2.0, 3.0)
        assert v2z_calls == []
        first, second = fit.z_hat, fit.z_hat
        assert len(v2z_calls) == 1 and second is first
        want = build_v2z(fit.layout) @ fit.v_hat.ravel()
        assert np.array_equal(first, want)

    def test_normal_equation_residual(self, small_noisefree_system):
        fit = solve(small_noisefree_system, 2.0, 3.0)
        residual = normal_residual(small_noisefree_system, fit)
        _, rhs = normal_equations(small_noisefree_system, 2.0, 3.0)
        assert residual <= 1e-8 * np.linalg.norm(rhs)

    def test_penalty_monotonicity(self, small_noisefree_system):
        s1_values = [
            solve(small_noisefree_system, lam, 1.0).s1 for lam in (0.01, 1.0, 100.0, 1e4)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(s1_values, s1_values[1:]))
        s2_values = [
            solve(small_noisefree_system, 1.0, lam).s2 for lam in (0.01, 1.0, 100.0, 1e4)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(s2_values, s2_values[1:]))

    def test_level_penalty_limit_is_bilinear(self, small_frame, small_layout):
        model = TrueModel(
            small_frame, smooth_boundary(small_layout), smooth_trend(small_layout), 0.5
        )
        ms = generate(model, full_coverage_plan(small_frame, (0.2, 0.5, 0.8), per_fraction=4), seed=2)
        system = build_system_raw(small_frame, ms)
        fit = solve(system, 1e8, 1.0)
        assert fit.s1 <= 1e-6
        ni, nj = small_layout.level_shape
        ii, jj = np.meshgrid(np.arange(ni), np.arange(nj), indexing="ij")
        design = np.column_stack(
            [np.ones(ni * nj), ii.ravel(), jj.ravel(), (ii * jj).ravel()]
        )
        beta, *_ = np.linalg.lstsq(design, fit.v_hat.ravel(), rcond=None)
        resid = np.max(np.abs(fit.v_hat.ravel() - design @ beta))
        assert resid <= 1e-4 * np.ptp(fit.v_hat)

    def test_dof_and_sigma2(self, small_noisy_fit, small_layout):
        fit = small_noisy_fit
        assert fit.dof == fit.n_obs - small_layout.dim
        assert fit.sigma2_hat == pytest.approx(fit.s0 / fit.dof, rel=1e-12)
        # noise_sd = 0.6: the variance estimate should be in the vicinity
        assert 0.2 < fit.sigma2_hat < 0.7


class TestCovariances:
    def test_cov_symmetry(self, small_noisy_fit):
        cov = small_noisy_fit.cov_z
        assert np.max(np.abs(cov - cov.T)) <= 1e-12 * np.max(np.abs(cov))

    def test_cov_positive_semidefinite(self, small_noisy_fit):
        eigs = np.linalg.eigvalsh(small_noisy_fit.cov_z)
        assert eigs.min() >= -1e-8 * np.trace(small_noisy_fit.cov_z)

    def test_surface_cov_propagation(self, small_noisy_fit, small_layout):
        from ctrend.design import build_z2u, build_z2v

        fit = small_noisy_fit
        a_v = build_z2v(small_layout)
        recomputed = a_v @ fit.cov_z @ a_v.T
        assert np.allclose(fit.sigma2_hat * fit.unit_cov_v, recomputed, rtol=1e-10, atol=1e-14)
        a_u = build_z2u(small_layout)
        recomputed_u = a_u @ fit.cov_z @ a_u.T
        cov_u = fit.sigma2_hat * fit.trend_unit_cov(np.eye(small_layout.n_trend))
        assert np.allclose(cov_u, recomputed_u, rtol=1e-10, atol=1e-14)

    def test_level_variance_rowwise_oracle(self, small_noisy_fit, small_layout):
        from ctrend.design import build_z2v

        fit = small_noisy_fit
        a_v = build_z2v(small_layout)
        diag = np.diag(fit.sigma2_hat * fit.unit_cov_v)
        for k in range(0, a_v.shape[0], 7):
            quad = a_v[k] @ fit.cov_z @ a_v[k]
            assert diag[k] == pytest.approx(quad, rel=1e-10, abs=1e-15)

    def test_stderr_shapes_and_ci(self, small_noisy_fit, small_layout):
        fit = small_noisy_fit
        se_v = fit.level_stderr()
        se_u = fit.trend_stderr()
        assert se_v.shape == small_layout.level_shape
        assert se_u.shape == small_layout.trend_shape
        half = fit.ci_halfwidth(se_v)
        assert np.all(half >= 1.959 * se_v)  # t quantile exceeds the normal one

    def test_trend_zero_gives_diagonal_constant_levels(self, small_frame):
        ms = []
        for i in range(small_frame.i_span + 1):
            for j in range(small_frame.j_span + 1):
                for t in (0.25, 0.75):
                    ms.append(
                        Measurement(
                            5.0 + 0.5 * min(i, j) * 0,  # constant per diagonal entry
                            small_frame.i_min + i + t,
                            small_frame.j_min + j,
                        )
                    )
        fit = solve(build_system_raw(small_frame, ms), 1.0, 1.0)
        v = fit.v_hat
        assert np.allclose(v[1:, 1:], v[:-1, :-1], atol=1e-8)


class TestConfidenceQuantile:
    @pytest.mark.parametrize("dof", [1, 2, 7, 60, 1000, 5000, 108000])
    def test_equals_scipy_stats_t_quantile(self, small_noisy_fit, dof):
        from scipy import stats

        fit = dataclasses.replace(small_noisy_fit, dof=dof)
        assert fit.ci_halfwidth(np.ones(1))[0] == stats.t.ppf(0.975, dof)

    @pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize"])
    def test_cli_import_skips_scipy_stats(self, module):
        probe = f"import sys, ctrend.cli; print({module!r} in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert out.stdout.strip() == "False", out.stderr


class TestAggregationEquivalence:
    def test_identical_outputs_when_years_align(self):
        frame = Frame.from_bounds(1990.0, 1996.9, 20.0, 30.0)
        rng = np.random.Generator(np.random.Philox(11))
        ms = []
        for i in range(frame.i_span + 1):
            for j in range(frame.j_span + 1):
                t = 0.5 if (i + j) % 2 == 0 else 0.25          # dyadic fractions
                y = frame.i_min + i + t
                a = float(frame.j_min + j)
                base = 20.0 + (i % 3) * 0.5 + (j % 4) * 0.25   # dyadic values
                for k in range(4):
                    ms.append(Measurement(base + 0.25 * k + 0.125 * rng.integers(0, 8), y, a))
        sys_raw = build_system_raw(frame, ms)
        sys_agg = build_system_aggregated(frame, aggregate(ms, frame))
        assert sys_raw.n_obs == sys_agg.n_obs
        fr = solve(sys_raw, 1.0, 1.0)
        fa = solve(sys_agg, 1.0, 1.0)
        assert np.max(np.abs(fr.z_hat - fa.z_hat)) <= 1e-10
        assert abs(fr.sigma2_hat - fa.sigma2_hat) <= 1e-10
        assert np.max(np.abs(fr.cov_z - fa.cov_z)) <= 1e-10


class TestCheckUniqueness:
    def test_unit_square(self):
        ok, _ = check_uniqueness([(0, 0), (0, 1), (1, 0), (1, 1)])
        assert ok

    def test_collinear_reads_the_smallest_height_against_the_spread(self):
        # (1 + 2e-10, 1) lies 2e-10 / sqrt(2) from the line through (0, 0) and
        # (1, 1), and 2e-10 from the line through (1, 1) and (1, 5); whichever
        # two points define the line, that height decides
        r = (1 + 2e-10, 1.0)
        for p, q, height in (((0.0, 0.0), (1.0, 1.0), 2e-10 / math.sqrt(2)),
                             ((1.0, 1.0), (1.0, 5.0), 2e-10)):
            for factor, collinear in ((0.9, False), (1.1, True)):
                spread = factor * height / COLLINEARITY_TOL
                for triple in permutations((p, q, r)):
                    assert _collinear(*triple, spread) is collinear

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_near_collinear_verdict_does_not_depend_on_the_units(self, scale):
        # (0.5, 0.5 + 5e-10) lies 3.5e-10 from the line through (0, 0) and (1, 1)
        points = [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5 + 5e-10), (0.0, 1.0)]
        ok, why = check_uniqueness([(scale * y, scale * a) for y, a in points])
        assert not ok and why == "all but at most one point share a line"

    def test_three_collinear_among_four(self):
        ok, _ = check_uniqueness([(0, 0), (1, 1), (2, 2), (0, 1)])
        assert not ok

    def test_fewer_than_four(self):
        ok, why = check_uniqueness([(0, 0), (1, 0), (0, 1)])
        assert not ok and "3" in why

    def test_all_collinear(self):
        ok, why = check_uniqueness([(k, 2 * k) for k in range(6)])
        assert not ok and "collinear" in why

    def test_duplicates_ignored(self):
        ok, _ = check_uniqueness([(0, 0), (0, 0), (0, 1), (1, 0), (1, 1)])
        assert ok

    def test_triangle_line_fallback_true(self):
        # every point on the triangle's lines, valid 2+2 pick exists
        pts = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3)]
        ok, _ = check_uniqueness(pts)
        assert ok

    def test_all_but_one_on_line(self):
        pts = [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1)]
        ok, _ = check_uniqueness(pts)
        assert not ok

    def test_two_lines_two_each_besides_vertex(self):
        # both triangle lines carry two non-vertex points: a 2+2 pick works
        pts = [(0.0, 1.0), (0.0, 2.0), (1.0, 1.0), (2.0, 2.0), (0.0, 0.0)]
        ok, _ = check_uniqueness(pts)
        assert ok

    def test_three_on_line_plus_one(self):
        ok, _ = check_uniqueness([(0, 0), (1, 0), (2, 0), (1, 1)])
        assert not ok

    def test_point_near_two_lines_counts_on_one(self):
        # (1 + 2e-10, 1) is within the collinearity tolerance of the line
        # through (0, 0) and (1, 1) and of the line through (1, 1) and (1, 5),
        # so three of the four points share a line.
        pts = [(0, 0), (1, 1), (1, 5), (1 + 2e-10, 1)]
        assert check_uniqueness(pts) == (False, "all but at most one point share a line")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_point(self, bad, axis):
        pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
        pts[3] = (bad, 1) if axis == 0 else (1, bad)
        assert check_uniqueness(pts) == (False, "non-finite point")

    # Sets in general position in (y, a) whose observations cannot pin the
    # four bilinear surfaces the penalties leave free.
    RANK_DEFICIENT = {
        "three_in_one_cell": [(2001.2, 32.5), (2001.5, 32.9), (2001.8, 33.1), (2004.3, 37.0)],
        "two_cells_on_one_cohort_diagonal": [
            (2001.2, 33.5), (2001.7, 33.9), (2003.3, 35.6), (2003.6, 36.2)
        ],
    }

    @pytest.mark.parametrize("name", sorted(RANK_DEFICIENT))
    def test_rank_deficient_on_penalty_null_space(self, name):
        pts = self.RANK_DEFICIENT[name]
        ok, why = check_uniqueness(pts)
        assert not ok and "rank deficient" in why
        frame = Frame.from_bounds(2000.0, 2006.9, 30.0, 40.0)
        ms = [Measurement(20.0 + k, y, a) for k, (y, a) in enumerate(pts)]
        with pytest.raises(SingularSystem):
            solve(build_system_raw(frame, ms), 1.0, 1.0)

    def test_integer_shift_keeps_acceptance(self):
        # Whole-year and whole-age shifts leave the null-space rank unchanged;
        # the far shift fails a rank test on unshifted absolute cell indices.
        pts = [(2000.2, 11.0), (2003.4, 12.0), (2001.7, 15.0), (2002.9, 10.5)]
        assert check_uniqueness(pts)[0]
        for dy, da in ((1, 0), (0, 1), (-1500, 37), (25, -8), (8000, 60)):
            shifted = [(y + dy, a + da) for y, a in pts]
            ok, why = check_uniqueness(shifted)
            assert ok, (dy, da, why)
