"""Penalized weighted least squares on the level surface.

For fixed regularization weights (lambda1, lambda2) the estimate minimizes

    S(v) = S0(v) + lambda1*S1(v) + lambda2*S2(v)

over the level surface v, where S0 is the (count-weighted) data misfit and
S1, S2 the second-difference penalties on v and on the trend surface
u(i,j) = v(i+1,j+1) - v(i,j).  Each term couples only lattice points at most
three steps apart on one axis and one on the other, so the normal matrix is
banded once the lattice is ordered along its shorter axis (`band_order`):
lower bandwidth 3*min(I+2, J+2) + 1 (Rue & Held 2005, ch. 2).  A solve sums
the system's Gram bands elementwise and factors the Jacobi-equilibrated sum
by banded Cholesky, L L^T; the condition number is the matrix 1-norm times
LAPACK's Hager-Higham estimate of the inverse's 1-norm.

Covariances follow the classical weighted-least-squares formulas with
sigma2 = (S0 + pooled within-cell CSS) / (n_obs - dim).  No fit forms the
dense inverse.  The covariance of a few linear maps of v (the tuner's
selected pairs, cluster means) is W^T W from one forward solve with L
(`BandedInverse.quadratic`).  The inverse inside the band, which holds every
variance and every covariance of lattice-adjacent levels and trends, comes
from the Takahashi recurrence (Takahashi, Fagan & Chin 1973) on first
access only, for standard errors and whole-field statistics (Rue & Martino
2007).

Cohort diagonals of levels whose normal-matrix columns are all exactly zero
(possible only with lambda1 = 0: the two extreme corners v(I+1,0) and
v(0,J+1), and with both lambdas zero any diagonal without data) are silent:
a unit pivot decouples each of their levels in the factor, and a zero scale
makes it solve to zero with zero variance; `FitResult.n_silent` counts them.
An unreached level on any other diagonal makes the system singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import linalg, special

from .design import LinearSystem, band_order, build_v2u, diagonal_pairs
from .errors import SingularSystem
from .grid import ParameterLayout, _absolute_cell

CONDITION_LIMIT = 1e12


def _selected_inverse(factor: np.ndarray) -> np.ndarray:
    """Band of (L L^T)^-1 from the banded Cholesky factor L.

    Both in LAPACK lower band storage, entry [d, k] holding row k+d of
    column k.  Takahashi recurrence from the last column back, with m over
    k < m <= k+b:

        S[i, k] = -(sum_m L[m, k] S[m, i]) / L[k, k],   k < i <= k+b
        S[k, k] = (1 / L[k, k] - sum_m L[m, k] S[m, k]) / L[k, k]

    Every S[m, i] it reads lies in the band, so the cost is O(n b^2).
    """
    b1, n = factor.shape
    b = b1 - 1
    band = np.empty_like(factor)
    # The window S[k..k+b, k..k+b] sits at buf[p:p+b1, p:p+b1] and moves up
    # the diagonal of a small buffer; at the top-left corner it is copied
    # back to the bottom-right one.  Entries past the end of the matrix stay
    # zero.
    size = 5 * b1
    buf = np.zeros((size, size))
    p = size - b1
    for k in range(n - 1, -1, -1):
        if p == 0:
            buf[-b1:, -b1:] = buf[:b1, :b1]
            p = size - b1
        pivot = factor[0, k]
        below = factor[1:, k]
        col = (buf[p:p + b, p:p + b] @ below) / -pivot
        p -= 1
        buf[p + 1:p + b1, p] = col
        buf[p, p + 1:p + b1] = col
        buf[p, p] = (1.0 / pivot - below @ col) / pivot
        band[:, k] = buf[p:p + b1, p]
    return band


def _inverse_norm_1(solve: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    """Estimate of ||A^-1||_1 for a symmetric A, from solves with A.

    A port of LAPACK's dlacn2 (Hager 1984, Higham 1988), the estimator that
    `dpocon` runs: at most five sign-vector iterations, then the
    alternating-sign test vector.  Deterministic: no random starting
    vectors.
    """
    x = solve(np.full(n, 1.0 / n))
    if n == 1:
        return float(abs(x[0]))
    est = float(np.sum(np.abs(x)))
    sign = np.where(x >= 0.0, 1.0, -1.0)
    j = int(np.argmax(np.abs(solve(sign))))
    for _ in range(4):  # iterations 2 to 5
        unit = np.zeros(n)
        unit[j] = 1.0
        x = solve(unit)
        est_old, est = est, float(np.sum(np.abs(x)))
        new_sign = np.where(x >= 0.0, 1.0, -1.0)
        if np.array_equal(new_sign, sign) or est <= est_old:
            break
        sign = new_sign
        x = solve(sign)
        j_last, j = j, int(np.argmax(np.abs(x)))
        if x[j_last] == abs(x[j]):
            break
    ramp = 1.0 + np.arange(n) / (n - 1)
    ramp[1::2] *= -1.0
    return max(est, 2.0 * float(np.sum(np.abs(solve(ramp)))) / (3 * n))


class BandedInverse:
    """The inverse weighted normal matrix on the level surface, inside its band.

    Indexed like the dense dim x dim matrix over flat row-major level
    indices, `cov[k1, k2]` with integer arrays, for any pair of levels no
    more than the bandwidth apart in `band_order`.  It keeps the banded
    Cholesky factor L L^T of the equilibrated normal matrix D M D, so `solve`
    applies the inverse and `quadratic` forms R^T M^-1 R without forming it;
    the band is computed on first access.  D is zero on silent levels, which
    therefore solve and read zero.
    """

    def __init__(self, factor: np.ndarray, order: np.ndarray, scale: np.ndarray):
        self.factor = factor
        self.order = order
        self.scale = scale
        self.shape = (len(order), len(order))
        self._position = np.argsort(order)

    @cached_property
    def band(self) -> np.ndarray:
        return _selected_inverse(self.factor)

    def __getitem__(self, key: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        p1, p2 = (self._position[np.asarray(k)] for k in key)
        offset = np.abs(p1 - p2)
        if np.any(offset >= len(self.band)):
            raise IndexError("covariance entry outside the band of the normal matrix")
        return self.band[offset, np.minimum(p1, p2)] * self.scale[p1] * self.scale[p2]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The inverse applied to `rhs` (a vector or one column per right-hand side)."""
        scale = self.scale if rhs.ndim == 1 else self.scale[:, None]
        out = scale * linalg.cho_solve_banded(
            (self.factor, True), scale * rhs[self.order], check_finite=False
        )
        return out[self._position]

    def quadratic(self, rhs: np.ndarray) -> np.ndarray:
        """rhs^T M^-1 rhs for a dim x m `rhs`, as W^T W with W = L^-1 D rhs[order]."""
        w, info = linalg.lapack.dtbtrs(self.factor, self.scale[:, None] * rhs[self.order], uplo="L")
        assert info == 0, f"dtbtrs info {info}"
        return w.T @ w


class TrendBand:
    """Trend-surface covariance over `diagonal_pairs`, read off a `BandedInverse`.

    With u = v(hi) - v(lo), cov[k1, k2] combines four level entries; every
    pair of adjacent trend cells keeps them inside the band.
    """

    def __init__(self, level: BandedInverse, hi: np.ndarray, lo: np.ndarray):
        self.level = level
        self.hi = hi
        self.lo = lo
        self.shape = (len(hi), len(hi))

    def __getitem__(self, key: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        k1, k2 = key
        h1, l1, h2, l2 = self.hi[k1], self.lo[k1], self.hi[k2], self.lo[k2]
        v = self.level
        return v[h1, h2] - v[h1, l2] - v[l1, h2] + v[l1, l2]


@dataclass
class FitResult:
    """Point estimate, covariances, and reconstructed surfaces for one solve.

    `unit_cov_v_band` is the inverse weighted normal matrix on the level
    surface (covariance per unit error variance) inside its band, and
    `unit_cov_u_band` its image on the trend surface; the standard errors,
    `edf` and the tuner's whole-field statistics read only these.  Silent
    levels read zero in every covariance.  `gram_data` is the system's data
    Gram band.
    """

    lambda1: float
    lambda2: float
    sigma2_hat: float | None
    dof: int
    n_obs: int
    s0: float
    s1: float
    s2: float
    condition: float
    n_silent: int
    v_hat: np.ndarray
    u_hat: np.ndarray
    unit_cov_v_band: BandedInverse
    layout: ParameterLayout
    gram_data: np.ndarray = field(repr=False)

    @property
    def unit_cov_u_band(self) -> TrendBand:
        return TrendBand(self.unit_cov_v_band, *diagonal_pairs(self.layout))

    def trend_unit_cov(self, a: np.ndarray) -> np.ndarray:
        """a U a^T, U the unit covariance of the flattened trend surface, for a
        linear map `a`: one `quadratic` solve with a column per row of `a`."""
        return self.unit_cov_v_band.quadratic(build_v2u(self.layout).T @ a.T)

    @cached_property
    def edf(self) -> float:
        """Effective degrees of freedom trace(M^-1 G0), G0 the data Gram: the sum
        of G0 * M^-1 over G0's nonzeros, which all lie in the band."""
        d, k = np.nonzero(self.gram_data)
        inverse = self.unit_cov_v_band
        cov = inverse.band[d, k] * inverse.scale[k + d] * inverse.scale[k]
        return float(np.sum(np.where(d > 0, 2.0, 1.0) * self.gram_data[d, k] * cov))

    def _stderr(
        self, unit_cov: BandedInverse | TrendBand, shape: tuple[int, int]
    ) -> np.ndarray | None:
        if self.sigma2_hat is None:
            return None
        k = np.arange(unit_cov.shape[0])
        var = np.maximum(self.sigma2_hat * unit_cov[k, k], 0.0)
        return np.sqrt(var).reshape(shape)

    def level_stderr(self) -> np.ndarray | None:
        return self._stderr(self.unit_cov_v_band, self.layout.level_shape)

    def trend_stderr(self) -> np.ndarray | None:
        return self._stderr(self.unit_cov_u_band, self.layout.trend_shape)

    def ci_halfwidth(self, stderr: np.ndarray, level: float = 0.95) -> np.ndarray:
        """Two-sided confidence half-width using the t distribution."""
        q = float(special.stdtrit(self.dof, 0.5 + level / 2.0))
        return q * stderr


def _equilibrated(band: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, float]:
    """D M D with D = diag(scale), in lower band storage like M's, and its 1-norm,
    each column summed from top to bottom of the symmetric matrix."""
    b, n = len(band) - 1, len(scale)
    band = band * sliding_window_view(np.concatenate([scale, np.zeros(b)]), n) * scale
    size = np.abs(band)
    col = np.zeros(n)
    for d in range(b, 0, -1):
        col[d:] += size[d, : n - d]
    return band, float(np.max(sum(size, col)))


def solve(system: LinearSystem, lambda1: float, lambda2: float) -> FitResult:
    """Fit the penalized system at fixed regularization weights."""
    if not (0 <= lambda1 < np.inf and 0 <= lambda2 < np.inf):
        raise ValueError("regularization weights must be finite and non-negative")
    if system.data.shape[0] == 0:
        raise SingularSystem("no data rows")

    layout = system.layout
    with np.errstate(over="ignore", invalid="ignore"):
        band = system.gram_data + lambda1 * system.gram_v + lambda2 * system.gram_u
    if not np.isfinite(band).all():
        raise SingularSystem("normal matrix overflows at these regularization weights")
    order = band_order(layout)
    reached = band[0] > 0.0
    # An unreached level is silent only together with its whole cohort
    # diagonal, as its parameters drop out of z; elsewhere it is undetermined.
    cohort = np.subtract(*np.indices(layout.level_shape)).ravel()[order]
    cohort -= cohort.min()
    silent = np.bincount(cohort, weights=reached)[cohort] == 0
    if not reached[~silent].all():
        raise SingularSystem("a level on an observed cohort diagonal is reached by no data")
    n_silent = int(np.sum(silent))
    band[0, silent] = 1.0  # its row and column are zero: a unit pivot decouples it
    # Symmetric Jacobi equilibration: with lambdas spanning many decades the
    # normal matrix is strongly graded, and the raw condition number reflects
    # block scale disparity rather than actual ill-posedness.  The condition
    # check applies to the equilibrated matrix.
    scale = 1.0 / np.sqrt(band[0])
    band, anorm = _equilibrated(band, scale)
    try:
        factor = linalg.cholesky_banded(band, lower=True)
    except linalg.LinAlgError as exc:
        raise SingularSystem(f"normal matrix not positive definite: {exc}") from exc
    condition = anorm * _inverse_norm_1(
        lambda x: linalg.cho_solve_banded((factor, True), x, check_finite=False), layout.dim
    )
    if not np.isfinite(condition):
        raise SingularSystem("condition estimate failed")
    if condition > CONDITION_LIMIT:
        raise SingularSystem(
            f"normal matrix condition {condition:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )

    scale[silent] = 0.0
    inverse = BandedInverse(factor, order, scale)
    v = inverse.solve(system.normal_rhs)
    hi, lo = diagonal_pairs(layout)

    resid = system.data @ v - system.rhs
    s0 = float(np.sum(system.weights * resid**2))
    s1 = float(np.sum((system.penalty_v @ v) ** 2))
    s2 = float(np.sum((system.penalty_u @ v) ** 2))

    n_obs = system.n_obs
    dof = n_obs - layout.dim
    sigma2 = (s0 + system.css_total) / dof if dof >= 1 else None

    return FitResult(
        lambda1=lambda1,
        lambda2=lambda2,
        sigma2_hat=sigma2,
        dof=dof,
        n_obs=n_obs,
        s0=s0,
        s1=s1,
        s2=s2,
        condition=condition,
        n_silent=n_silent,
        v_hat=v.reshape(layout.level_shape),
        u_hat=(v[hi] - v[lo]).reshape(layout.trend_shape),
        unit_cov_v_band=inverse,
        layout=layout,
        gram_data=system.gram_data,
    )


COLLINEARITY_TOL = 1e-9
# Relative smallest singular value of the null-space matrix at or below which
# a point set is rank deficient; measured: <= 1.3e-17 for singular sets,
# >= 1.8e-5 for every other set criterion 3 (seed 2024) accepts.
RANK_TOL = 1e-10


def _collinear(p, q, r, spread: float) -> bool:
    """Whether pqr's smallest height, |cross| / longest side, is <= COLLINEARITY_TOL * spread."""
    cross = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return abs(cross) <= COLLINEARITY_TOL * spread * max(map(math.dist, (p, p, q), (q, r, r)))


def _general_position(distinct: list[tuple[float, float]]) -> tuple[bool, str]:
    """Whether four of the n >= 4 distinct points have no three on a line.

    They do exactly when no line holds n - 1 of the points.  If the fullest
    line L holds at most n - 2, two points p and q lie off it; the line pq
    meets L at most once, so two points of L lie off pq, and those two with
    p and q have no three on a line.  If no three points are collinear at
    all, any four will do.  A line holding n - 1 points passes through two
    of any three points, so the three lines through pairs of the first two
    points and the first point c off their line are enough.
    """
    spread = float(np.max(np.ptp(distinct, axis=0)))
    a, b = distinct[:2]
    c = next((p for p in distinct if not _collinear(a, b, p, spread)), None)
    if c is None:
        return False, "all points collinear"
    lines = ((a, b), (a, c), (b, c))
    fullest = max(sum(_collinear(p, q, r, spread) for r in distinct) for p, q in lines)
    if fullest >= len(distinct) - 1:
        return False, "all but at most one point share a line"
    return True, "found 4 points in general position"


def _null_space_rows(points: list[tuple[float, float]]) -> np.ndarray:
    """Observation functionals of `points` on the bilinear penalty null space.

    Row [1, Y, A, Y*A + t(1-t)] with Y = i + t, A = j + t for a point at year
    fraction t in absolute cell (i, j).  Cell indices are shifted by the
    smallest i and j among the points: an integer shift adds multiples of
    the first three columns to the last, so the rank is unchanged while the
    entries stay of the order of the point spread.
    """
    cells = np.array([_absolute_cell(y, a) for y, a in points])
    t = cells[:, 2]
    yy = cells[:, 0] - cells[:, 0].min() + t
    aa = cells[:, 1] - cells[:, 1].min() + t
    return np.column_stack([np.ones(len(t)), yy, aa, yy * aa + t * (1.0 - t)])


def check_uniqueness(points: list[tuple[float, float]]) -> tuple[bool, str]:
    """Whether the point set guarantees a unique penalized solution.

    With positive regularization weights the combined second-difference
    penalties vanish exactly on the bilinear level surfaces
    v = c0 + c1*i + c2*j + c3*i*j, so the solution is unique iff the
    observations pin those four coefficients.  An observation at year
    fraction t in cell (i, j) evaluates (1-t)*v(i,j) + t*v(i+1,j+1), which on
    that null space is [1, Y, A, Y*A + t(1-t)] . c with Y = i+t, A = j+t.
    It depends on the cell and t only, not on the age inside the cell.

    True when both conditions hold:

    * no line in the (y, a) plane holds n - 1 of the n distinct points, so
      four of them have no three on a line (`_general_position`);
    * the n x 4 null-space matrix has full rank: its smallest singular value
      relative to its largest exceeds `RANK_TOL`.

    General position in (y, a) alone is not enough.  Inside one cell the
    four columns are affine in t, so points sharing a cell give rank <= 2;
    points on one cohort diagonal (cells (i+k, j+k)) give rank <= 3.

    With positive weights the rank test alone is necessary and sufficient
    for a positive definite normal matrix.  General position is a deliberate,
    stricter sufficient condition (criterion 3 pins it): it also rejects
    identifiable same-age sets, e.g. sigma_min/sigma_max = 1.4e-2 at age 35.
    """
    distinct = sorted(set((float(y), float(a)) for y, a in points))
    if not np.isfinite(distinct).all():
        return False, "non-finite point"
    if len(distinct) < 4:
        return False, f"only {len(distinct)} distinct points"

    ok, why = _general_position(distinct)
    if not ok:
        return False, why
    sv = np.linalg.svd(_null_space_rows(distinct), compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0]:
        return False, (
            f"rank deficient on the penalty null space "
            f"(relative singular value {sv[-1] / sv[0]:.1e})"
        )
    return True, why
