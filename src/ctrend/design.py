"""Assembly of the linear systems solved by the estimator.

The estimator works on the level surface v, the row-major (I+2) x (J+2)
lattice, which has exactly `layout.dim` entries.  The dynamic model
v(i+1, j+1) = v(i, j) + u(i, j) makes a measurement at year fraction t in
cell (i, j) read (1-t)*v(i,j) + t*v(i+1,j+1), so the data operator of a
`LinearSystem` has two nonzeros per row.  Both penalties are (+1, -2, +1)
second-difference stencils, and `second_differences` is their one
construction: on v itself, and on the trend surface u = `build_v2u` @ v.
Penalty operators are stored unscaled; the regularization weights live in
the solver, so the same system serves every lambda probe, which sums the
three terms' Grams, built once (`lower_band`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import sparse

from .errors import InvalidClusterSize, OutOfFrame
from .grid import ParameterLayout
from .ingest import CellColumns, MeasurementColumns


def second_differences(nrows: int, ncols: int) -> sparse.csr_matrix:
    """Unscaled second differences of a row-major nrows x ncols surface.

    Age direction first: rows i in [0, nrows-1], centers j in [1, ncols-2];
    then year direction: columns j in [0, ncols-1], centers i in
    [1, nrows-2].  Both sizes must be at least 2; a size of 2 leaves its
    block empty.
    """

    def stencil(n: int) -> sparse.spmatrix:
        return sparse.diags([1.0, -2.0, 1.0], [0, 1, 2], shape=(n - 2, n))

    age = sparse.kron(sparse.identity(nrows), stencil(ncols))
    year = sparse.kron(stencil(nrows), sparse.identity(ncols)).tocsr()
    column_major = (np.arange(nrows - 2) * ncols + np.arange(ncols)[:, None]).ravel()
    return sparse.vstack([age, year[column_major]], format="csr")


def diagonal_pairs(layout: ParameterLayout) -> tuple[np.ndarray, np.ndarray]:
    """Flat level indices of v(i+1, j+1) and v(i, j) for every trend cell (i, j),
    in row-major trend order."""
    ncols = layout.level_shape[1]
    i, j = np.divmod(np.arange(layout.n_trend), layout.j_span + 1)
    lo = i * ncols + j
    return lo + ncols + 1, lo


def band_order(layout: ParameterLayout) -> np.ndarray:
    """Flat row-major level indices in factorization order.

    The lattice is traversed along its shorter axis (column-major when it
    has fewer rows than columns), which keeps the lower bandwidth of the
    normal matrix at `bandwidth(layout)`.
    """
    nrows, ncols = layout.level_shape
    flat = np.arange(layout.dim).reshape(nrows, ncols)
    return (flat.T if nrows < ncols else flat).ravel()


def bandwidth(layout: ParameterLayout) -> int:
    """Lower bandwidth of the normal matrix in `band_order`, 3 * min(I+2, J+2) + 1.

    The trend penalty couples v(i, j) with v(i+3, j+1) and v(i+1, j+3); the
    band also holds every pair of adjacent levels and the four level pairs
    of any two adjacent trends, whatever terms the fit has.
    """
    return 3 * min(layout.level_shape) + 1


def lower_band(m: sparse.spmatrix, layout: ParameterLayout) -> np.ndarray:
    """LAPACK lower band storage of a symmetric dim x dim matrix in `band_order`:
    [d, k] holds row k+d of column k, for min(bandwidth, dim - 1) subdiagonals."""
    position = np.argsort(band_order(layout))
    coo = sparse.coo_matrix(m)
    coo.sum_duplicates()
    row, col = position[coo.row], position[coo.col]
    lower = row >= col
    band = np.zeros((min(bandwidth(layout), layout.dim - 1) + 1, layout.dim))
    band[row[lower] - col[lower], col[lower]] = coo.data[lower]
    return band


def build_v2u(layout: ParameterLayout) -> sparse.csr_matrix:
    """Trend surface from the flattened level surface: u(i,j) = v(i+1,j+1) - v(i,j)."""
    hi, lo = diagonal_pairs(layout)
    rows = np.arange(layout.n_trend)
    return sparse.csr_matrix(
        (np.repeat([1.0, -1.0], layout.n_trend), (np.tile(rows, 2), np.concatenate([hi, lo]))),
        shape=(layout.n_trend, layout.dim),
    )


def cluster_bands(extent: int, size: int) -> list[range]:
    """Consecutive index bands of width `size`; the last keeps the remainder."""
    return [range(lo, min(lo + size, extent)) for lo in range(0, extent, size)]


def build_u2uc(layout: ParameterLayout, delta_a: int, delta_y: int) -> np.ndarray:
    """Equal-weight cluster averaging map over the trend surface.

    Clusters are delta_y x delta_a rectangles anchored at (0, 0); ragged
    edges form their own smaller clusters.  Output rows follow the cluster
    grid row-major (year bands outer, age bands inner); every row sums to 1.
    """
    nrows, ncols = layout.trend_shape
    if not (1 <= delta_y <= nrows and 1 <= delta_a <= ncols):
        raise InvalidClusterSize(
            f"cluster sizes must satisfy 1 <= delta_y <= {nrows}, "
            f"1 <= delta_a <= {ncols}, got ({delta_y}, {delta_a})"
        )
    i, j = np.divmod(np.arange(layout.n_trend), ncols)
    cluster = (i // delta_y) * -(-ncols // delta_a) + j // delta_a
    size = np.bincount(cluster)
    a = np.zeros((len(size), layout.n_trend))
    a[cluster, np.arange(layout.n_trend)] = 1.0 / size[cluster]
    return a


@dataclass(frozen=True)
class LinearSystem:
    """Level-surface system: weighted data operator plus both penalty operators.

    `data` has one row per measurement (raw) or per cell (aggregated), with
    (1-t) on v(i,j) and t on v(i+1,j+1); `rhs` holds the observed values or
    cell means and `weights` the counts behind them.  Construction derives the
    `lower_band` Grams D^T W D, P_v^T P_v, P_u^T P_u and `normal_rhs` D^T W rhs.
    """

    layout: ParameterLayout
    data: sparse.csr_matrix = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    penalty_v: sparse.csr_matrix = field(repr=False)
    penalty_u: sparse.csr_matrix = field(repr=False)
    css_total: float = 0.0
    gram_data: np.ndarray = field(init=False, repr=False)
    gram_v: np.ndarray = field(init=False, repr=False)
    gram_u: np.ndarray = field(init=False, repr=False)
    normal_rhs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        weighted = self.data.T @ sparse.diags(self.weights)
        set_derived = partial(object.__setattr__, self)
        set_derived("gram_data", lower_band(weighted @ self.data, self.layout))
        set_derived("gram_v", lower_band(self.penalty_v.T @ self.penalty_v, self.layout))
        set_derived("gram_u", lower_band(self.penalty_u.T @ self.penalty_u, self.layout))
        set_derived("normal_rhs", weighted @ self.rhs)

    @property
    def n_obs(self) -> int:
        """Underlying measurement count: row count raw, summed counts aggregated."""
        return int(round(float(np.sum(self.weights))))


def _level_system(
    layout: ParameterLayout,
    i: np.ndarray,
    j: np.ndarray,
    t: np.ndarray,
    x: np.ndarray,
    weights: np.ndarray,
    css_total: float,
) -> LinearSystem:
    ncols = layout.level_shape[1]
    lo = i * ncols + j
    rows = np.arange(len(t))
    data = sparse.csr_matrix(
        (np.concatenate([1.0 - t, t]), (np.tile(rows, 2), np.concatenate([lo, lo + ncols + 1]))),
        shape=(len(t), layout.dim),
    )
    return LinearSystem(
        layout=layout,
        data=data,
        rhs=x,
        weights=weights,
        penalty_v=second_differences(*layout.level_shape),
        penalty_u=(second_differences(*layout.trend_shape) @ build_v2u(layout)).tocsr(),
        css_total=css_total,
    )


def build_system_raw(columns: MeasurementColumns) -> LinearSystem:
    """One data row per measurement, in the cell it was located in, at its own
    year fraction and unit weight."""
    layout = ParameterLayout.from_frame(columns.frame)
    t = columns.y - np.floor(columns.y)
    return _level_system(layout, columns.i, columns.j, t, columns.x, np.ones(len(t)), 0.0)


def build_system_aggregated(cells: CellColumns) -> LinearSystem:
    """Cell-level system at each cell's mean year, weighted by member counts.

    Aggregated and raw modes coincide exactly whenever all member years
    within a cell are equal.
    """
    frame = cells.frame
    i_abs = cells.i + frame.i_min
    outside = np.flatnonzero((cells.y_bar < i_abs) | (cells.y_bar >= i_abs + 1))
    if outside.size:
        k = outside[0]
        raise OutOfFrame(f"cell ({cells.i[k]}, {cells.j[k]}) mean year {cells.y_bar[k]} "
                         "outside its year interval")
    css_total = float(sum(cells.css.tolist()))  # left to right, cell by cell
    return _level_system(ParameterLayout.from_frame(frame), cells.i, cells.j, cells.y_bar - i_abs,
                         cells.x_bar, cells.n.astype(float), css_total)
