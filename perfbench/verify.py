"""Check `ctrend analyze` artifacts against a fit rebuilt without ctrend.

The reference works in level-surface coordinates: the (I+2) x (J+2)
lattice values v, row-major.  That is enough because the program's
parameter vector maps one-to-one onto v, so both minimize the same
objective over the same space, and M_v^-1 is the unit covariance of v.

* An observation at year fraction t in cell (i, j) reads
  (1-t) v(i,j) + t v(i+1,j+1); rows are located by this module's own
  floor/ceil arithmetic on the slanted lattice.
* The level penalty is the second differences of v along ages and along
  years; the trend penalty is the same on u(i,j) = v(i+1,j+1) - v(i,j).
* Aggregated mode fits one row per cell at the cell's mean year, weighted by
  its count, and adds the pooled within-cell corrected sum of squares to
  the residual sum of squares in sigma2 = (S0 + CSS) / (n_obs - dim).

Tolerances are relative to the largest magnitude in the compared column.
They sit at least ten times above the largest disagreement seen on correct
output (12-digit CSV rounding, a different parameterization and
factorization) and well below the smallest perturbation the self-test must
catch.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import linalg, sparse, stats

from workloads import Inputs, Spec

RTOL_ESTIMATE = 1e-9
RTOL_STDERR = 1e-8
RTOL_SIGMA2 = 1e-9
RTOL_STAT = 1e-6
RTOL_F = 1e-7
ATOL_P = 1e-12
RTOL_P = 1e-7
UNTESTABLE_REL_VAR = 1e-6


def _second_differences(n: int) -> sparse.csr_matrix:
    return sparse.diags([1.0, -2.0, 1.0], [0, 1, 2], shape=(n - 2, n), format="csr")


def surface_penalty(nrows: int, ncols: int) -> sparse.csr_matrix:
    """Second differences of a row-major surface: along ages, then along years."""
    blocks = []
    if ncols > 2:
        blocks.append(sparse.kron(sparse.identity(nrows), _second_differences(ncols)))
    if nrows > 2:
        blocks.append(sparse.kron(_second_differences(nrows), sparse.identity(ncols)))
    return sparse.vstack(blocks, format="csr")


def diagonal_pairs(I: int, J: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat level indices of v(i+1,j+1) and v(i,j) for every trend cell (i, j)."""
    ii, jj = np.meshgrid(np.arange(I + 1), np.arange(J + 1), indexing="ij")
    lo = (ii * (J + 2) + jj).ravel()
    return lo + J + 3, lo


def locate(spec: Spec, y: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relative cell (i, j) and year fraction t of every row."""
    i_min, j_min, I, J = spec.lattice
    floor_y = np.floor(y)
    t = y - floor_y
    i = floor_y.astype(int) - i_min
    j = np.ceil(a - t).astype(int) - j_min
    if not ((0 <= i) & (i <= I) & (0 <= j) & (j <= J)).all():
        raise ValueError("generated row outside the lattice")
    return i, j, t


class Reference:
    """The penalized fit of `inputs` at (lambda1, lambda2), built from the rows alone."""

    def __init__(self, inputs: Inputs, lambda1: float, lambda2: float):
        spec = inputs.spec
        self.i_min, self.j_min, I, J = spec.lattice
        self.shape_v, self.shape_u = (I + 2, J + 2), (I + 1, J + 1)
        nv = (I + 2) * (J + 2)
        i, j, t = locate(spec, inputs.y, inputs.a)
        x, css = inputs.x, 0.0
        w = np.ones(len(x))
        if spec.mode == "aggregated":
            _, first, cell_of = np.unique(i * (J + 1) + j, return_index=True,
                                          return_inverse=True)
            n = np.bincount(cell_of).astype(float)
            x_bar = np.bincount(cell_of, x) / n
            y_bar = np.bincount(cell_of, inputs.y) / n
            css = float(np.sum((x - x_bar[cell_of]) ** 2))
            i, j = i[first], j[first]
            t = y_bar - (self.i_min + i)
            x, w = x_bar, n
        lo = i * (J + 2) + j
        rows = np.arange(len(x))
        b = sparse.csr_matrix(
            (np.r_[1.0 - t, t], (np.r_[rows, rows], np.r_[lo, lo + J + 3])), shape=(len(x), nv)
        )
        hi_u, lo_u = diagonal_pairs(I, J)
        to_u = sparse.csr_matrix(
            (np.r_[np.ones(hi_u.size), -np.ones(lo_u.size)],
             (np.r_[np.arange(hi_u.size), np.arange(lo_u.size)], np.r_[hi_u, lo_u])),
            shape=(hi_u.size, nv),
        )
        d_v = surface_penalty(*self.shape_v)
        d_u = surface_penalty(*self.shape_u) @ to_u
        m = (b.T @ sparse.diags(w) @ b + lambda1 * (d_v.T @ d_v)
             + lambda2 * (d_u.T @ d_u)).toarray()
        factor = linalg.cho_factor(m, lower=True)
        self.v = linalg.cho_solve(factor, b.T @ (w * x))
        self.cov_v = c = linalg.cho_solve(factor, np.eye(nv))
        self.cov_u = (c[np.ix_(hi_u, hi_u)] - c[np.ix_(hi_u, lo_u)]
                      - c[np.ix_(lo_u, hi_u)] + c[np.ix_(lo_u, lo_u)])
        self.n_obs = int(round(w.sum()))
        self.dof = self.n_obs - nv
        self.s0 = float(np.sum(w * (b @ self.v - x) ** 2))
        self.sigma2 = (self.s0 + css) / self.dof
        self.n_cells = len(np.unique(i * (J + 1) + j))


def one_minus_r2(cov: np.ndarray, ncols: int, point: tuple[int, int]) -> float:
    """1 - r^2 of the age-adjacent pair ((i,j), (i,j+1)) of a row-major surface."""
    k = point[0] * ncols + point[1]
    return 1.0 - cov[k, k + 1] ** 2 / (cov[k, k] * cov[k + 1, k + 1])


def bands(extent: int, size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + size, extent) - 1) for lo in range(0, extent, size)]


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _column(header: list[str], rows: list[list[str]], name: str) -> np.ndarray:
    k = header.index(name)
    return np.array([float(r[k]) if r[k] else math.nan for r in rows])


class _Checks:
    def __init__(self):
        self.failures: list[str] = []

    def require(self, name: str, ok: bool, detail: str = "") -> bool:
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def agree(self, name: str, got, want, rtol: float, atol: float = 0.0) -> bool:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape:
            return self.require(name, False, f"shape {got.shape} != {want.shape}")
        err = np.abs(got - want)
        limit = atol + rtol * float(np.max(np.abs(want), initial=0.0))
        worst = float(np.max(err, initial=0.0)) if not np.isnan(err).any() else math.inf
        return self.require(name, worst <= limit, f"max |diff| {worst:.3e} > {limit:.3e}")


def _surface(checks: _Checks, name: str, path: Path, ref: Reference, shape, est_want,
             cov: np.ndarray) -> np.ndarray:
    """Check a surface CSV's grid, stderr and CI; return its estimates."""
    header, rows = _read_csv(path)
    years, ages = np.meshgrid(ref.i_min + np.arange(shape[0]), ref.j_min + np.arange(shape[1]),
                              indexing="ij")
    checks.agree(f"{name}.grid", np.c_[_column(header, rows, "year"), _column(header, rows, "age")],
                 np.c_[years.ravel(), ages.ravel()], 0.0)
    est = _column(header, rows, "estimate")
    if est_want is not None:
        checks.agree(f"{name}.estimate", est, est_want, RTOL_ESTIMATE)
    se_want = np.sqrt(ref.sigma2 * np.diag(cov))
    checks.agree(f"{name}.stderr", _column(header, rows, "stderr"), se_want, RTOL_STDERR)
    half = stats.t.ppf(0.975, ref.dof) * se_want
    checks.agree(f"{name}.ci", np.c_[_column(header, rows, "ci_lo"), _column(header, rows, "ci_hi")],
                 np.c_[est - half, est + half], RTOL_ESTIMATE)
    return est.reshape(shape)


def verify(inputs: Inputs, out_dir: Path) -> list[str]:
    """Failed checks of one run's artifacts, as 'check: detail'; empty when right."""
    spec = inputs.spec
    checks = _Checks()
    out = Path(out_dir)
    run = json.loads((out / "run.json").read_text(encoding="utf-8"))
    _, _, I, J = spec.lattice

    validation = run["validation"]
    checks.require("run.validation", validation["reasons"] == inputs.rejects
                   and validation["rows"] == inputs.n_rows
                   and validation["accepted"] == len(inputs.x),
                   f"got {validation['reasons']}, {validation['accepted']}/{validation['rows']}")
    checks.require("run.frame", (run["frame"]["i_span"], run["frame"]["j_span"]) == (I, J))
    if spec.lambdas is not None:
        checks.require("run.lambdas", (run["lambda1"], run["lambda2"]) == spec.lambdas
                       and run["tuner"] == "skipped", f"{run['lambda1']}, {run['lambda2']}")
    else:
        checks.require("run.tuner", run["tuner"] == "converged" and run["converged"] is True)

    ref = Reference(inputs, run["lambda1"], run["lambda2"])
    checks.require("run.counts", (run["n_obs"], run["dof"], run["n_cells"])
                   == (ref.n_obs, ref.dof, ref.n_cells),
                   f"{run['n_obs']}, {run['dof']}, {run['n_cells']}")
    checks.agree("run.sigma2", run["sigma2"], ref.sigma2, RTOL_SIGMA2)

    levels = _surface(checks, "levels", out / "levels.csv", ref, ref.shape_v, ref.v, ref.cov_v)
    trends = _surface(checks, "ctrends", out / "ctrends.csv", ref, ref.shape_u, None, ref.cov_u)
    checks.agree("ctrends.estimate", trends, levels[1:, 1:] - levels[:-1, :-1],
                 0.0, RTOL_ESTIMATE * float(np.max(np.abs(levels))))

    if spec.lambdas is None:
        f_smv, f_smu, delta = spec.targets
        point_v, point_u = spec.selected_points()
        stat_v = one_minus_r2(ref.cov_v, ref.shape_v[1], point_v)
        stat_u = one_minus_r2(ref.cov_u, ref.shape_u[1], point_u)
        for name, stat, target in (("v", stat_v, f_smv), ("u", stat_u, f_smu)):
            checks.require(f"smoothness.{name}", abs(math.log(stat / target)) <= delta,
                           f"1 - r^2 = {stat:.6f}, target {target} +- {delta} (log scale)")
        smooth = run["smoothness"]
        checks.agree("run.smoothness", [smooth["stat_v"], smooth["stat_u"]], [stat_v, stat_u],
                     RTOL_STAT)

    _clusters(checks, spec, out, ref, trends)
    return checks.failures


def _clusters(checks: _Checks, spec: Spec, out: Path, ref: Reference, trends: np.ndarray) -> None:
    year_bands = bands(ref.shape_u[0], spec.cluster_year)
    age_bands = bands(ref.shape_u[1], spec.cluster_age)
    averaging = np.zeros((len(year_bands) * len(age_bands), trends.size))
    expected_grid, block_means = [], []
    for p, (ylo, yhi) in enumerate(year_bands):
        for q, (alo, ahi) in enumerate(age_bands):
            block = np.zeros(ref.shape_u)
            block[ylo:yhi + 1, alo:ahi + 1] = 1.0 / ((yhi - ylo + 1) * (ahi - alo + 1))
            averaging[p * len(age_bands) + q] = block.ravel()
            expected_grid.append([ref.i_min + ylo, ref.i_min + yhi, ref.j_min + alo,
                                  ref.j_min + ahi, (yhi - ylo + 1) * (ahi - alo + 1)])
            block_means.append(trends[ylo:yhi + 1, alo:ahi + 1].mean())
    cov = averaging @ ref.cov_u @ averaging.T

    header, rows = _read_csv(out / "clusters.csv")
    grid = np.c_[tuple(_column(header, rows, c)
                       for c in ("year_lo", "year_hi", "age_lo", "age_hi", "n_cells"))]
    checks.agree("clusters.grid", grid, np.array(expected_grid, dtype=float), 0.0)
    means = _column(header, rows, "estimate")
    checks.agree("clusters.estimate", means, block_means, RTOL_ESTIMATE)
    checks.agree("clusters.stderr", _column(header, rows, "stderr"),
                 np.sqrt(ref.sigma2 * np.diag(cov)), RTOL_STDERR)

    nq = len(age_bands)
    expected = []
    for p in range(len(year_bands)):
        for q in range(nq):
            if q + 1 < nq:
                expected.append(["age-adjacent", p, q, p, q + 1])
            if p + 1 < len(year_bands):
                expected.append(["year-adjacent", p, q, p + 1, q])
    header, rows = _read_csv(out / "comparisons.csv")
    got = [[r[0]] + [int(v) for v in r[1:5]] for r in rows]
    if not checks.require("comparisons.grid", got == expected, "pairs differ"):
        return
    ka = np.array([e[1] * nq + e[2] for e in expected])
    kb = np.array([e[3] * nq + e[4] for e in expected])
    var_diff = cov[ka, ka] - 2.0 * cov[ka, kb] + cov[kb, kb]
    rel_var = var_diff / (cov[ka, ka] + cov[kb, kb])
    testable = np.array([r[header.index("testable")] == "true" for r in rows])
    checks.require("comparisons.testable", bool(np.all(rel_var[~testable] <= UNTESTABLE_REL_VAR)),
                   "a comparison with clearly positive variance is flagged untestable")
    diff = _column(header, rows, "diff")
    checks.agree("comparisons.diff", diff, means[ka] - means[kb], 0.0,
                 RTOL_ESTIMATE * float(np.max(np.abs(means))))
    f_got = _column(header, rows, "f_value")[testable]
    f_want = (diff**2 / (ref.sigma2 * var_diff))[testable]
    checks.agree("comparisons.f", f_got / f_want, np.ones(f_want.size), RTOL_F)
    p_got = _column(header, rows, "p_value")[testable]
    p_want = stats.f.sf(f_got, 1, ref.dof)
    err = np.abs(p_got - p_want)
    worst = float(np.max(err - RTOL_P * p_want, initial=0.0)) if not np.isnan(err).any() else math.inf
    checks.require("comparisons.p", worst <= ATOL_P, f"p-value off by {worst:.3e} beyond tolerance")
