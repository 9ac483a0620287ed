"""Assembly of the linear systems solved by the estimator.

The estimator works on the level surface v, the row-major (I+2) x (J+2)
lattice, which has exactly `layout.dim` entries.  The dynamic model
v(i+1, j+1) = v(i, j) + u(i, j) makes a measurement at year fraction t in
cell (i, j) read (1-t)*v(i,j) + t*v(i+1,j+1), so the data operator of a
`LinearSystem` has two nonzeros per row.  Both penalties are (+1, -2, +1)
second-difference stencils (`second_differences`): on v itself, and on the
trend surface u = `build_v2u` @ v.  Penalty operators are stored unscaled;
the regularization weights live in the solver, so the same system serves
every lambda probe.

The parameter vector z of `ParameterLayout` (boundary levels plus the trend
field) is a linear bijection of v: `build_z2v` maps z to v, `build_v2z`
maps back.  The z-coordinate builders (`observation_row`, `build_b0_*`,
`build_penalty_*`, `build_z2v`, `build_z2u`, `rows_to_matrix`) are kept as
reference code that the tests hold the level-surface system against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import InvalidClusterSize, OutOfFrame
from .grid import CellIndex, Frame, ParameterLayout, cohort_path
from .ingest import AggregatedCell, Measurement


@dataclass(frozen=True)
class SparseRow:
    """One row of a design or penalty matrix, with strictly increasing indices."""

    indices: tuple[int, ...]
    values: tuple[float, ...]
    rhs: float = 0.0

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values length mismatch")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("indices must be strictly increasing")

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self.indices, self.values))

    def dot(self, z: np.ndarray) -> float:
        return float(np.dot(np.asarray(self.values), z[list(self.indices)]))


def _row_from_coeffs(coeffs: dict[int, float], rhs: float = 0.0) -> SparseRow:
    items = sorted((k, v) for k, v in coeffs.items() if v != 0.0)
    return SparseRow(
        indices=tuple(k for k, _ in items),
        values=tuple(v for _, v in items),
        rhs=rhs,
    )


def _level_coeffs(layout: ParameterLayout, i: int, j: int) -> dict[int, float]:
    """Parameter coefficients of the level at lattice point (i, j).

    Valid on the whole level domain: the boundary entry point contributes 1,
    each trailing cohort cell contributes 1 on its trend parameter.
    """
    boundary, interior = cohort_path(CellIndex(i, j))
    coeffs = {layout.boundary_index(*boundary): 1.0}
    for cell in interior:
        coeffs[layout.trend_index(*cell)] = coeffs.get(layout.trend_index(*cell), 0.0) + 1.0
    return coeffs


def cell_observation_coeffs(
    layout: ParameterLayout, cell: CellIndex, t: float
) -> dict[int, float]:
    """Observation functional for a point in `cell` at year fraction `t`."""
    coeffs = _level_coeffs(layout, cell.i, cell.j)
    if t != 0.0:
        k = layout.trend_index(cell.i, cell.j)
        # Cohort-path cells (i-m, j-m) with m >= 1 never include the current
        # cell, so the year-fraction coefficient lands on a fresh index.
        assert k not in coeffs, "year-fraction coefficient collided with path"
        coeffs[k] = t
    return coeffs


def observation_row(layout: ParameterLayout, frame: Frame, y: float, a: float) -> SparseRow:
    """Design row for a measurement at (y, a); the right-hand side stays 0."""
    cell = frame.locate(y, a)
    t = frame.year_fraction(y)
    return _row_from_coeffs(cell_observation_coeffs(layout, cell, t))


def build_b0_raw(
    layout: ParameterLayout, frame: Frame, measurements: list[Measurement]
) -> list[SparseRow]:
    """One data row per measurement, right-hand side the observed value."""
    rows = []
    for m in measurements:
        cell = frame.locate(m.y, m.a)
        t = frame.year_fraction(m.y)
        rows.append(_row_from_coeffs(cell_observation_coeffs(layout, cell, t), rhs=m.x))
    return rows


def build_b0_aggregated(
    layout: ParameterLayout, frame: Frame, cells: list[AggregatedCell]
) -> tuple[list[SparseRow], np.ndarray, float]:
    """Cell-level data rows, their count weights, and the pooled within-cell
    corrected sum of squares.

    Each row is built at the cell's mean year, so aggregated and raw modes
    coincide exactly whenever all member years within a cell are equal.
    """
    rows = []
    weights = np.empty(len(cells), dtype=float)
    css_total = 0.0
    for pos, c in enumerate(cells):
        i_abs = c.cell.i + frame.i_min
        if not (i_abs <= c.y_bar < i_abs + 1):
            raise OutOfFrame(
                f"cell {c.cell} mean year {c.y_bar} outside its year interval"
            )
        t = c.y_bar - i_abs
        rows.append(_row_from_coeffs(cell_observation_coeffs(layout, c.cell, t), rhs=c.x_bar))
        weights[pos] = float(c.n)
        css_total += c.css
    return rows, weights, css_total


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


def _penalty_rows(operator: sparse.spmatrix, to_surface: np.ndarray) -> list[SparseRow]:
    rows = []
    for r in np.asarray(operator @ to_surface):
        nz = np.flatnonzero(r)
        rows.append(SparseRow(tuple(nz.tolist()), tuple(r[nz].tolist())))
    return rows


def build_penalty_v(layout: ParameterLayout) -> list[SparseRow]:
    """Second-difference rows of the level surface, expanded onto parameters.

    Age direction runs over rows i in [0, I+1], centers j in [1, J]; year
    direction over columns j in [0, J+1], centers i in [1, I].  Row count is
    (I+2)*J + (J+2)*I.
    """
    return _penalty_rows(second_differences(*layout.level_shape), build_z2v(layout))


def build_penalty_u(layout: ParameterLayout) -> list[SparseRow]:
    """Second-difference rows of the trend surface, directly on parameters.

    Age direction: i in [0, I], centers j in [1, J-1]; year direction:
    j in [0, J], centers i in [1, I-1].  Either sum may be empty.
    """
    return _penalty_rows(second_differences(*layout.trend_shape), build_z2u(layout))


def build_z2v(layout: ParameterLayout) -> np.ndarray:
    """Map from parameters to the flattened level surface (row-major)."""
    nrows, ncols = layout.level_shape
    a = np.zeros((nrows * ncols, layout.dim))
    for i in range(nrows):
        for j in range(ncols):
            for k, v in _level_coeffs(layout, i, j).items():
                a[i * ncols + j, k] = v
    return a


def build_z2u(layout: ParameterLayout) -> np.ndarray:
    """Selector of the trend block, in row-major trend order."""
    a = np.zeros((layout.n_trend, layout.dim))
    for k in range(layout.n_trend):
        a[k, layout.n_boundary + k] = 1.0
    return a


def diagonal_pairs(layout: ParameterLayout) -> tuple[np.ndarray, np.ndarray]:
    """Flat level indices of v(i+1, j+1) and v(i, j) for every trend cell (i, j),
    in row-major trend order."""
    ncols = layout.level_shape[1]
    i, j = np.divmod(np.arange(layout.n_trend), layout.j_span + 1)
    lo = i * ncols + j
    return lo + ncols + 1, lo


def build_v2u(layout: ParameterLayout) -> sparse.csr_matrix:
    """Trend surface from the flattened level surface: u(i,j) = v(i+1,j+1) - v(i,j)."""
    hi, lo = diagonal_pairs(layout)
    rows = np.arange(layout.n_trend)
    return sparse.csr_matrix(
        (np.repeat([1.0, -1.0], layout.n_trend), (np.tile(rows, 2), np.concatenate([hi, lo]))),
        shape=(layout.n_trend, layout.dim),
    )


def build_v2z(layout: ParameterLayout) -> sparse.csr_matrix:
    """Parameters from the flattened level surface; the inverse of `build_z2v`."""
    ncols = layout.level_shape[1]
    boundary = [i * ncols + j for i, j in layout.boundary_points()]
    select = sparse.csr_matrix(
        (np.ones(layout.n_boundary), (np.arange(layout.n_boundary), boundary)),
        shape=(layout.n_boundary, layout.dim),
    )
    return sparse.vstack([select, build_v2u(layout)], format="csr")


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
    year_bands = cluster_bands(nrows, delta_y)
    age_bands = cluster_bands(ncols, delta_a)
    a = np.zeros((len(year_bands) * len(age_bands), layout.n_trend))
    for p, band_i in enumerate(year_bands):
        for q, band_j in enumerate(age_bands):
            w = 1.0 / (len(band_i) * len(band_j))
            row = p * len(age_bands) + q
            for i in band_i:
                for j in band_j:
                    a[row, i * ncols + j] = w
    return a


def rows_to_matrix(rows: list[SparseRow], dim: int) -> np.ndarray:
    """Dense matrix view of sparse rows (dimensions here are modest)."""
    b = np.zeros((len(rows), dim))
    for r, row in enumerate(rows):
        b[r, list(row.indices)] = row.values
    return b


@dataclass(frozen=True)
class LinearSystem:
    """Level-surface system: weighted data operator plus both penalty operators.

    `data` has one row per measurement (raw) or per cell (aggregated), with
    (1-t) on v(i,j) and t on v(i+1,j+1); `rhs` holds the observed values or
    cell means and `weights` the counts behind them.
    """

    layout: ParameterLayout
    data: sparse.csr_matrix = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    penalty_v: sparse.csr_matrix = field(repr=False)
    penalty_u: sparse.csr_matrix = field(repr=False)
    css_total: float = 0.0

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


def build_system_raw(frame: Frame, measurements: list[Measurement]) -> LinearSystem:
    layout = ParameterLayout.from_frame(frame)
    cells = np.array([frame.locate(m.y, m.a) for m in measurements], dtype=int).reshape(-1, 2)
    x, y, _ = np.array(measurements, dtype=float).reshape(-1, 3).T
    return _level_system(
        layout, cells[:, 0], cells[:, 1], y - np.floor(y), x, np.ones(len(x)), 0.0
    )


def build_system_aggregated(frame: Frame, cells: list[AggregatedCell]) -> LinearSystem:
    """Cell-level system at each cell's mean year, weighted by member counts.

    Aggregated and raw modes coincide exactly whenever all member years
    within a cell are equal.
    """
    layout = ParameterLayout.from_frame(frame)
    i, j, n = np.array([(*c.cell, c.n) for c in cells], dtype=int).reshape(-1, 3).T
    x_bar, y_bar = np.array([(c.x_bar, c.y_bar) for c in cells], dtype=float).reshape(-1, 2).T
    i_abs = i + frame.i_min
    outside = np.flatnonzero((y_bar < i_abs) | (y_bar >= i_abs + 1))
    if outside.size:
        c = cells[outside[0]]
        raise OutOfFrame(f"cell {c.cell} mean year {c.y_bar} outside its year interval")
    css_total = sum(c.css for c in cells)
    return _level_system(layout, i, j, y_bar - i_abs, x_bar, n.astype(float), float(css_total))
