"""Cluster-level trend means and adjacent-pair comparison tests.

Trend estimates are averaged over rectangular year x age clusters; each
cluster is compared against its age-adjacent (next older band) and
year-adjacent (next calendar band) neighbors with the linear-hypothesis
F statistic

    F = (m_a - m_b)^2 / (c_aa - 2 c_ab + c_bb),    p = P(F(1, dof) > F),

with the upper tail taken directly by one `scipy.special.fdtrc` call per
grid, not as 1 - F_cdf, which cancels to 0 for large F.

The comparisons come back as columns, `ComparisonColumns`.  A pair whose
difference variance degenerates is kept, flagged untestable with F and p
NaN, so the columns' length depends only on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .design import build_u2uc, cluster_bands
from .errors import InsufficientDof, InvalidClusterSize
from .solver import FitResult

_DEGENERATE_REL_TOL = 1e-10

AGE_ADJACENT = "age-adjacent"
YEAR_ADJACENT = "year-adjacent"


@dataclass(frozen=True)
class ClusterGrid:
    """Cluster means of the trend surface with their covariance."""

    means: np.ndarray          # year bands x age bands
    cov: np.ndarray            # over row-major flattened clusters
    dof: int
    year_bands: tuple[tuple[int, int], ...]   # relative [lo, hi] cell ranges
    age_bands: tuple[tuple[int, int], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return self.means.shape


@dataclass(frozen=True)
class ComparisonColumns:
    """Adjacent-pair tests as columns, a row per pair of clusters `a` and `b` (flat
    row-major indices of the grid); F and p are NaN where a pair is untestable."""

    a: np.ndarray
    b: np.ndarray
    direction: np.ndarray
    diff: np.ndarray
    f_value: np.ndarray
    p_value: np.ndarray
    testable: np.ndarray

    def __len__(self) -> int:
        return len(self.a)


def cluster_means(fit: FitResult, delta_a: int, delta_y: int) -> ClusterGrid:
    """Average the fitted trend field over delta_y x delta_a clusters.

    The covariance of the cluster means is sigma2 * A U A^T, with A the
    averaging map (`build_u2uc`) and U the unit trend covariance; it is W^T W
    from one forward solve with a column per cluster
    (`FitResult.trend_unit_cov`, `BandedInverse.quadratic`), without the
    dense trend covariance.  Silent levels enter with zero covariance.
    """
    a = build_u2uc(fit.layout, delta_a, delta_y)
    if fit.sigma2_hat is None:
        raise InsufficientDof(
            "cluster inference needs an error-variance estimate "
            f"(n_obs={fit.n_obs}, dim={fit.layout.dim})"
        )
    nrows, ncols = fit.layout.trend_shape
    year_bands = tuple((b.start, b.stop - 1) for b in cluster_bands(nrows, delta_y))
    age_bands = tuple((b.start, b.stop - 1) for b in cluster_bands(ncols, delta_a))
    means = (a @ fit.u_hat.ravel()).reshape(len(year_bands), len(age_bands))
    cov = fit.sigma2_hat * fit.trend_unit_cov(a)
    return ClusterGrid(
        means=means,
        cov=cov,
        dof=fit.dof,
        year_bands=year_bands,
        age_bands=age_bands,
    )


def compare_adjacent(grid: ClusterGrid) -> ComparisonColumns:
    """All age- and year-adjacent cluster comparisons, row-major with each
    cluster's age neighbor first, their upper tails from one `fdtrc` call.

    A pair is untestable when its difference variance is at most
    _DEGENERATE_REL_TOL (c_aa + c_bb), the sum floored at the least normal
    float; a NaN variance stays testable, with F and p NaN.
    """
    if grid.means.size < 2:
        raise InvalidClusterSize("need at least two clusters to compare")
    if grid.dof < 1:
        raise InsufficientDof(f"comparison tests need dof >= 1, got {grid.dof}")
    np_, nq = grid.shape
    p, q = np.divmod(np.arange(grid.means.size), nq)
    a, side = np.nonzero(np.column_stack([q + 1 < nq, p + 1 < np_]))  # side 0: age, 1: year
    b = a + np.where(side, nq, 1)
    means, cov = grid.means.ravel(), grid.cov
    diff = means[a] - means[b]
    c_aa, c_bb = cov[a, a], cov[b, b]
    var_diff = c_aa - 2.0 * cov[a, b] + c_bb
    testable = ~(var_diff <= _DEGENERATE_REL_TOL * np.maximum(c_aa + c_bb, np.finfo(float).tiny))
    f_value, p_value = np.full((2, len(a)), np.nan)
    f_value[testable] = np.square(diff[testable]) / var_diff[testable]
    p_value[testable] = special.fdtrc(1, grid.dof, f_value[testable])
    direction = np.array([AGE_ADJACENT, YEAR_ADJACENT])[side]
    return ComparisonColumns(a, b, direction, diff, f_value, p_value, testable)
