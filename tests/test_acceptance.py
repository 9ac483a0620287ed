"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not configurable.
"""

import csv
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate, special

from ctrend.design import (
    build_penalty_u,
    build_penalty_v,
    build_system_aggregated,
    build_system_raw,
    build_z2u,
    build_z2v,
    rows_to_matrix,
)
from ctrend.grid import Frame, ParameterLayout
from ctrend.ingest import aggregate
from ctrend.inference import YEAR_ADJACENT, cluster_means, compare_adjacent, f_cdf
from ctrend.solver import check_uniqueness, solve
from ctrend.synth import (
    SamplingPlan,
    TrueModel,
    full_coverage_plan,
    generate,
    smooth_boundary,
    smooth_trend,
    survey_plan,
)
from ctrend.tuner import SmoothnessTargets, tune


def report(name):
    print(f"[PASS] {name}")


def study_frame():
    """Span (10, 39) with fractional year headroom so every cell admits
    two distinct year fractions; 492 parameters."""
    return Frame.from_bounds(1982.0, 1992.9, 25.0, 64.0)


def test_criterion_1_exact_recovery():
    frame = study_frame()
    layout = ParameterLayout.from_frame(frame)
    assert layout.dim == 492 and (layout.i_span, layout.j_span) == (10, 39)
    model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), noise_sd=0.0)
    measurements = generate(model, full_coverage_plan(frame, (0.25, 0.75)), seed=7)
    start = time.perf_counter()
    system = build_system_raw(frame, measurements)
    fit = solve(system, 0.0, 0.0)
    elapsed = time.perf_counter() - start
    err = np.max(np.abs(fit.z_hat - model.z_true)) / np.max(np.abs(model.z_true))
    assert err <= 1e-8, f"recovery error {err:.3e}"
    assert elapsed < 5.0, f"solve took {elapsed:.2f}s"
    report(f"criterion 1: exact recovery at zero smoothing (err {err:.1e}, {elapsed:.2f}s)")


def test_criterion_2_aggregated_equals_raw():
    from ctrend.ingest import Measurement

    frame = Frame.from_bounds(1990.0, 1996.9, 20.0, 30.0)
    rng = np.random.Generator(np.random.Philox(11))
    measurements = []
    for i in range(frame.i_span + 1):
        for j in range(frame.j_span + 1):
            t = 0.5 if (i + j) % 2 == 0 else 0.25
            y = frame.i_min + i + t
            a = float(frame.j_min + j)
            base = 20.0 + (i % 3) * 0.5 + (j % 4) * 0.25
            for k in range(4):
                measurements.append(
                    Measurement(base + 0.25 * k + 0.125 * rng.integers(0, 8), y, a)
                )
    fit_raw = solve(build_system_raw(frame, measurements), 1.0, 1.0)
    fit_agg = solve(
        build_system_aggregated(frame, aggregate(measurements, frame)), 1.0, 1.0
    )
    dz = np.max(np.abs(fit_raw.z_hat - fit_agg.z_hat))
    ds = abs(fit_raw.sigma2_hat - fit_agg.sigma2_hat)
    dc = np.max(np.abs(fit_raw.cov_z - fit_agg.cov_z))
    assert dz <= 1e-10 and ds <= 1e-10 and dc <= 1e-10, (dz, ds, dc)
    report(f"criterion 2: aggregated == raw when cell years align (max diff {max(dz, ds, dc):.1e})")


def test_criterion_3_four_point_uniqueness():
    frame = Frame.from_bounds(2000.0, 2006.9, 30.0, 40.0)
    layout = ParameterLayout.from_frame(frame)
    from ctrend.ingest import Measurement

    rng = np.random.default_rng(2024)
    worst = 0.0
    produced = 0
    while produced < 1000:
        ys = rng.uniform(frame.y_min, frame.y_max, size=4)
        aa = rng.uniform(frame.a_min, frame.a_max, size=4)
        points = list(zip(ys, aa))
        ok, _ = check_uniqueness(points)
        if not ok:
            continue
        produced += 1
        ms = [Measurement(20.0 + k, y, a) for k, (y, a) in enumerate(points)]
        fit = solve(build_system_raw(frame, ms), 1.0, 1.0)
        worst = max(worst, fit.condition)
        assert fit.condition < 1e12
    # three collinear points among only four: never sufficient
    for trial in range(200):
        y0, a0 = rng.uniform(2001, 2005), rng.uniform(31, 39)
        dy, da = rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)
        pts = [(y0 + k * dy, a0 + k * da) for k in range(3)]
        pts.append((rng.uniform(2001, 2005), rng.uniform(31, 39)))
        ok, _ = check_uniqueness(pts)
        assert not ok
    report(f"criterion 3: 1000 general-position quadruples solvable (worst cond {worst:.2e})")


def test_criterion_4_strong_level_smoothing_limit():
    frame = Frame.from_bounds(2000.0, 2006.9, 30.0, 40.0)
    layout = ParameterLayout.from_frame(frame)
    model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), noise_sd=0.8)
    measurements = generate(
        model, full_coverage_plan(frame, (0.1, 0.3, 0.5, 0.7), per_fraction=16), seed=3
    )
    fit = solve(build_system_raw(frame, measurements), 1e10, 1.0)
    assert fit.s1 <= 1e-6, f"s1 = {fit.s1:.3e}"
    ni, nj = layout.level_shape
    ii, jj = np.meshgrid(np.arange(ni), np.arange(nj), indexing="ij")
    design = np.column_stack([np.ones(ni * nj), ii.ravel(), jj.ravel(), (ii * jj).ravel()])
    beta, *_ = np.linalg.lstsq(design, fit.v_hat.ravel(), rcond=None)
    resid = np.max(np.abs(fit.v_hat.ravel() - design @ beta))
    ratio = resid / np.ptp(fit.v_hat)
    assert ratio <= 1e-4, f"bilinear residual ratio {ratio:.3e}"
    report(
        f"criterion 4: level surface collapses to bilinear at lambda1=1e10 "
        f"(s1 {fit.s1:.1e}, residual ratio {ratio:.1e})"
    )


def test_criterion_5_tuner_hits_study_targets():
    frame = Frame.from_bounds(1982.0, 1992.99, 25.0, 64.0)
    layout = ParameterLayout.from_frame(frame)
    model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), noise_sd=3.5)
    plan = survey_plan(frame, (0, 5, 10), (0.05, 0.1, 0.15, 0.2, 0.25, 0.3), per_fraction=5)
    cells = aggregate(generate(model, plan, seed=42), frame)
    assert len(cells) == 120
    system = build_system_aggregated(frame, cells)
    targets = SmoothnessTargets(f_smv=0.2, f_smu=0.2, delta=0.05)
    fit, rep = tune(system, targets)
    assert rep.converged and rep.iterations <= 200
    err = max(
        abs(math.log(rep.stat_v) - math.log(0.2)),
        abs(math.log(rep.stat_u) - math.log(0.2)),
    )
    assert err <= 0.05
    report(
        f"criterion 5: tuner converged in {rep.iterations} solves "
        f"(stats {rep.stat_v:.3f}/{rep.stat_u:.3f}, lambdas {rep.lambda1:.3g}/{rep.lambda2:.3g})"
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


def test_criterion_6_inference_oracles(small_noisy_fit):
    # F statistics recomputed independently from (means, cov)
    grid = cluster_means(small_noisy_fit, 2, 2)
    comparisons = compare_adjacent(grid)
    checked = 0
    for comp in comparisons:
        if not comp.testable:
            continue
        ka, kb = grid.flat(*comp.cluster_a), grid.flat(*comp.cluster_b)
        diff = grid.means.ravel()[ka] - grid.means.ravel()[kb]
        f_ref = diff**2 / (grid.cov[ka, ka] - 2 * grid.cov[ka, kb] + grid.cov[kb, kb])
        assert comp.f_value == pytest.approx(f_ref, rel=1e-12)
        checked += 1
    assert checked >= 10
    # CDF against numeric integration of the density, 20 points per dof
    xs = np.linspace(0.05, 12.0, 20)
    for d2 in (1, 10, 60, 1000):
        for x in xs:
            oracle, _ = integrate.quad(f_density, 0.0, float(x), args=(1, d2), limit=400)
            assert abs(f_cdf(float(x), 1, d2) - oracle) <= 1e-8
    # null comparison is exactly one
    assert 1.0 - f_cdf(0.0, 1, 60) == 1.0
    report("criterion 6: comparison statistics match independent oracles")


def test_criterion_7_step_decrease_detected():
    frame = Frame.from_bounds(2000.0, 2010.9, 20.0, 32.0)
    layout = ParameterLayout.from_frame(frame)
    ni, nj = layout.trend_shape
    u_base = np.full((ni, nj), 0.15)
    v0 = smooth_boundary(layout)
    plan = full_coverage_plan(frame, (0.2, 0.7), per_fraction=2)
    lam = 0.1

    def fit_once(u_field, seed):
        model = TrueModel(frame, v0, u_field, noise_sd=1.0)
        system = build_system_aggregated(frame, aggregate(generate(model, plan, seed), frame))
        fit = solve(system, lam, lam)
        grid = cluster_means(fit, 5, 5)
        comp = next(
            c
            for c in compare_adjacent(grid)
            if c.direction == YEAR_ADJACENT and c.cluster_a == (0, 1) and c.cluster_b == (1, 1)
        )
        return grid, comp

    # pilot run without the step fixes the effect scale: three times the
    # summed standard errors of the compared cluster means
    grid, _ = fit_once(u_base, seed=123)
    ka, kb = grid.flat(0, 1), grid.flat(1, 1)
    effect = 3.0 * (math.sqrt(grid.cov[ka, ka]) + math.sqrt(grid.cov[kb, kb]))
    u_step = u_base.copy()
    u_step[5:, 5:10] -= effect   # trend drops in later years for middle ages

    hits = 0
    for seed in range(100):
        _, comp = fit_once(u_step, seed=1000 + seed)
        if comp.testable and comp.p_value < 0.05:
            hits += 1
    assert hits >= 95, f"step detected in only {hits}/100 runs"
    report(f"criterion 7: year-band trend drop detected in {hits}/100 seeded runs")


def test_criterion_8_penalty_construction_cross_check():
    layout = ParameterLayout(10, 39)
    b1 = rows_to_matrix(build_penalty_v(layout), layout.dim)
    b2 = rows_to_matrix(build_penalty_u(layout), layout.dim)
    a_z2v = build_z2v(layout)
    a_z2u = build_z2u(layout)
    rng = np.random.default_rng(88)
    for _ in range(100):
        z = rng.normal(size=layout.dim)
        v = (a_z2v @ z).reshape(layout.level_shape)
        s1_direct = float(
            np.sum((v[:, :-2] - 2 * v[:, 1:-1] + v[:, 2:]) ** 2)
            + np.sum((v[:-2, :] - 2 * v[1:-1, :] + v[2:, :]) ** 2)
        )
        s1_rows = float(np.sum((b1 @ z) ** 2))
        assert s1_rows == pytest.approx(s1_direct, rel=1e-10)
        u = (a_z2u @ z).reshape(layout.trend_shape)
        s2_direct = float(
            np.sum((u[:, :-2] - 2 * u[:, 1:-1] + u[:, 2:]) ** 2)
            + np.sum((u[:-2, :] - 2 * u[1:-1, :] + u[2:, :]) ** 2)
        )
        s2_rows = float(np.sum((b2 @ z) ** 2))
        assert s2_rows == pytest.approx(s2_direct, rel=1e-10)
    report("criterion 8: penalty rows equal direct second-difference sums (100 draws)")


def test_criterion_9_cli_determinism_and_schema(tmp_path):
    frame = Frame.from_bounds(2000.0, 2004.9, 10.0, 16.0)
    layout = ParameterLayout.from_frame(frame)
    model_file = tmp_path / "model.json"
    model_file.write_text(
        json.dumps(
            {
                "v0": smooth_boundary(layout).tolist(),
                "u": smooth_trend(layout).tolist(),
                "noise_sd": 0.5,
                "plan": {"kind": "full", "fractions": [0.25, 0.75], "per_fraction": 2},
            }
        ),
        encoding="utf-8",
    )
    flags = ["--y-min", "2000.0", "--y-max", "2004.9", "--a-min", "10.0", "--a-max", "16.0"]

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "ctrend", *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    run("simulate", *flags, "--model", str(model_file), "--out", str(tmp_path), "--seed", "17")
    outs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out in outs:
        run(
            "analyze", *flags,
            "--input", str(tmp_path / "dataset.csv"),
            "--mode", "aggregated",
            "--f-smv", "0.5", "--f-smu", "0.5", "--delta", "0.1",
            "--cluster-age", "2", "--cluster-year", "2",
            "--out", str(out),
        )
    artifacts = ["levels.csv", "ctrends.csv", "clusters.csv", "comparisons.csv", "run.json"]
    for name in artifacts:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    with open(outs[0] / "levels.csv", newline="", encoding="utf-8") as handle:
        n_levels = sum(1 for _ in csv.DictReader(handle))
    with open(outs[0] / "ctrends.csv", newline="", encoding="utf-8") as handle:
        n_trends = sum(1 for _ in csv.DictReader(handle))
    ni, nj = layout.level_shape
    assert n_levels == ni * nj == (layout.i_span + 2) * (layout.j_span + 2)
    assert n_trends == (layout.i_span + 1) * (layout.j_span + 1)
    report("criterion 9: analyze artifacts byte-identical across runs, row counts exact")
