"""Cluster-level trend means and adjacent-pair comparison tests.

Trend estimates are averaged over rectangular year x age clusters; each
cluster is compared against its age-adjacent (next older band) and
year-adjacent (next calendar band) neighbors with the linear-hypothesis
F statistic

    F = (m_a - m_b)^2 / (c_aa - 2 c_ab + c_bb),    p = 1 - F_cdf(F, 1, dof).

Comparisons whose difference variance degenerates are kept in the output,
flagged untestable, so the report shape depends only on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .design import build_u2uc, cluster_bands
from .errors import InsufficientDof, InvalidClusterSize, InvalidDof
from .solver import FitResult

_DEGENERATE_REL_TOL = 1e-10

AGE_ADJACENT = "age-adjacent"
YEAR_ADJACENT = "year-adjacent"


def f_cdf(x: float, d1: int, d2: int) -> float:
    """F-distribution CDF via the regularized incomplete beta function."""
    if d1 < 1 or d2 < 1:
        raise InvalidDof(f"degrees of freedom must be positive, got ({d1}, {d2})")
    if x < 0:
        raise InvalidDof(f"F statistic must be >= 0, got {x}")
    if x == 0:
        return 0.0
    return float(special.betainc(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2)))


@dataclass(frozen=True)
class ClusterGrid:
    """Cluster means of the trend surface with their covariance."""

    delta_a: int
    delta_y: int
    means: np.ndarray          # year bands x age bands
    cov: np.ndarray            # over row-major flattened clusters
    dof: int
    year_bands: tuple[tuple[int, int], ...]   # relative [lo, hi] cell ranges
    age_bands: tuple[tuple[int, int], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return self.means.shape

    def flat(self, p: int, q: int) -> int:
        return p * self.means.shape[1] + q


@dataclass(frozen=True)
class ComparisonResult:
    cluster_a: tuple[int, int]
    cluster_b: tuple[int, int]
    direction: str
    diff: float
    f_value: float | None
    p_value: float | None
    testable: bool


def cluster_means(fit: FitResult, delta_a: int, delta_y: int) -> ClusterGrid:
    """Average the fitted trend field over delta_y x delta_a clusters.

    The covariance of the cluster means is sigma2 * A U A^T, with A the
    averaging map (`build_u2uc`) and U the unit trend covariance; it is W^T W
    from one forward solve with a column per cluster
    (`FitResult.trend_unit_cov`, `BandedInverse.quadratic`), without the
    dense trend covariance.  Silent levels enter with zero covariance.
    """
    if delta_a < 1 or delta_y < 1:
        raise InvalidClusterSize(f"cluster sizes must be >= 1, got ({delta_a}, {delta_y})")
    if fit.sigma2_hat is None:
        raise InsufficientDof(
            "cluster inference needs an error-variance estimate "
            f"(n_obs={fit.n_obs}, dim={fit.layout.dim})"
        )
    a = build_u2uc(fit.layout, delta_a, delta_y)
    nrows, ncols = fit.layout.trend_shape
    year_bands = tuple((b.start, b.stop - 1) for b in cluster_bands(nrows, delta_y))
    age_bands = tuple((b.start, b.stop - 1) for b in cluster_bands(ncols, delta_a))
    means = (a @ fit.u_hat.ravel()).reshape(len(year_bands), len(age_bands))
    cov = fit.sigma2_hat * fit.trend_unit_cov(a)
    return ClusterGrid(
        delta_a=delta_a,
        delta_y=delta_y,
        means=means,
        cov=cov,
        dof=fit.dof,
        year_bands=year_bands,
        age_bands=age_bands,
    )


def _compare(grid: ClusterGrid, a: tuple[int, int], b: tuple[int, int], direction: str) -> ComparisonResult:
    ka, kb = grid.flat(*a), grid.flat(*b)
    diff = float(grid.means[a] - grid.means[b])
    c_aa = float(grid.cov[ka, ka])
    c_bb = float(grid.cov[kb, kb])
    var_diff = c_aa - 2.0 * float(grid.cov[ka, kb]) + c_bb
    if var_diff <= _DEGENERATE_REL_TOL * max(c_aa + c_bb, np.finfo(float).tiny):
        return ComparisonResult(a, b, direction, diff, None, None, testable=False)
    f_value = diff**2 / var_diff
    p_value = 1.0 - f_cdf(f_value, 1, grid.dof)
    return ComparisonResult(a, b, direction, diff, f_value, p_value, testable=True)


def compare_adjacent(grid: ClusterGrid) -> list[ComparisonResult]:
    """All age-adjacent and year-adjacent cluster comparisons, row-major."""
    if grid.means.size < 2:
        raise InvalidClusterSize("need at least two clusters to compare")
    if grid.dof < 1:
        raise InsufficientDof(f"comparison tests need dof >= 1, got {grid.dof}")
    out = []
    np_, nq = grid.shape
    for p in range(np_):
        for q in range(nq):
            if q + 1 < nq:
                out.append(_compare(grid, (p, q), (p, q + 1), AGE_ADJACENT))
            if p + 1 < np_:
                out.append(_compare(grid, (p, q), (p + 1, q), YEAR_ADJACENT))
    return out
