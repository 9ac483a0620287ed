"""The parameter coordinates z of the tests: the bijection with the level
surface, the fit's estimate and covariances in z, and observation rows in z
for the dense z oracle to hold the level-surface system of `ctrend.design`
against.

The parameter vector z of `ParameterLayout` stacks the boundary levels and
the trend field; the model file and `TrueModel` speak it.  This module owns
its bijection with the level surface v: `build_z2v` maps z to v and
`build_v2z` maps back.  The fit works in v alone, so the views of a fit
that the tests read, the dense `unit_cov_v` and `z_hat`, `unit_cov_z` and
`cov_z` in z, are formed here.  So are the z positions of the boundary
points (`boundary_points`) and trend cells (`trend_index`), a model's z
(`z_true`), and the smooth test models `smooth_boundary` and `smooth_trend`.

A level v(i, j) is its cohort's boundary entry plus the trends of the cells
the cohort has passed through (`cohort_path`), so a measurement at year
fraction t in cell (i, j) reads that sum plus t * u(i, j).  `build_b0_raw`
and `build_b0_aggregated` give one such `Row` per measurement or per cell,
and `dense` stacks them.  The penalties need no rows of their own here:
`penalties_z` pulls the fit's `second_differences` operators back through
`build_z2v`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy import sparse

from ctrend.design import build_v2u, second_differences
from ctrend.errors import OutOfFrame
from ctrend.grid import CellIndex, Frame, ParameterLayout
from ctrend.ingest import CellColumns
from ctrend.solver import FitResult
from ctrend.synth import TrueModel
from ingest_reference import Measurement, locate


class Row(NamedTuple):
    """One data row in parameter coordinates: its nonzero coefficients and rhs."""

    coeffs: dict[int, float]
    rhs: float = 0.0


def dense(rows: list[Row], dim: int) -> np.ndarray:
    """The rows stacked into a dense len(rows) x dim matrix."""
    b = np.zeros((len(rows), dim))
    for r, row in enumerate(rows):
        b[r, list(row.coeffs)] = list(row.coeffs.values())
    return b


def boundary_points(layout: ParameterLayout) -> list[tuple[int, int]]:
    """Boundary points in parameter order."""
    left = [(i, 0) for i in range(layout.i_span + 1, -1, -1)]
    bottom = [(0, j) for j in range(1, layout.j_span + 2)]
    return left + bottom


def trend_index(layout: ParameterLayout, i: int, j: int) -> int:
    """Flat parameter index of trend cell (i, j)."""
    if not (0 <= i <= layout.i_span and 0 <= j <= layout.j_span):
        raise OutOfFrame(f"trend cell ({i}, {j}) outside lattice")
    return layout.n_boundary + i * (layout.j_span + 1) + j


def z_true(model: TrueModel) -> np.ndarray:
    """The generating model in parameter coordinates."""
    return np.concatenate([model.v0_true, model.u_true.ravel()])


def smooth_boundary(layout: ParameterLayout, base: float = 24.0, amplitude: float = 1.5) -> np.ndarray:
    """A smooth, non-trivial boundary profile for test models.

    The two extreme corner points are set to zero: no observation functional
    ever touches them, so keeping them out of the generating signal makes
    unpenalized recovery well-posed.
    """
    points = boundary_points(layout)
    vals = np.empty(len(points))
    for k, (i, j) in enumerate(points):
        s = (i + j) / (layout.i_span + layout.j_span + 2)
        vals[k] = base + amplitude * np.sin(2.1 * np.pi * s) + 0.4 * s
    vals[0] = 0.0
    vals[-1] = 0.0
    return vals


def smooth_trend(layout: ParameterLayout, scale: float = 0.15) -> np.ndarray:
    """A smooth trend field varying in both directions."""
    ni, nj = layout.trend_shape
    ii = np.arange(ni)[:, None] / max(ni - 1, 1)
    jj = np.arange(nj)[None, :] / max(nj - 1, 1)
    return scale * (0.6 + 0.4 * np.cos(1.7 * np.pi * jj) + 0.3 * np.sin(1.3 * np.pi * ii) + 0.2 * ii * jj)


def build_z2v(layout: ParameterLayout) -> np.ndarray:
    """Map from parameters to the flattened level surface (row-major).

    Boundary levels are parameters; every other level follows the dynamic
    model, row (i+1, j+1) = row (i, j) + the unit row of trend (i, j).
    """
    nrows, ncols = layout.level_shape
    a = np.zeros((nrows, ncols, layout.dim))
    bi, bj = np.array(boundary_points(layout)).T
    a[bi, bj, np.arange(layout.n_boundary)] = 1.0
    trend = np.arange(layout.n_boundary, layout.dim).reshape(layout.trend_shape)
    for i in range(nrows - 1):
        a[i + 1, 1:] = a[i, :-1]
        a[i + 1, np.arange(1, ncols), trend[i]] += 1.0
    return a.reshape(nrows * ncols, layout.dim)


def build_v2z(layout: ParameterLayout) -> sparse.csr_matrix:
    """Parameters from the flattened level surface; the inverse of `build_z2v`."""
    ncols = layout.level_shape[1]
    boundary = [i * ncols + j for i, j in boundary_points(layout)]
    select = sparse.csr_matrix(
        (np.ones(layout.n_boundary), (np.arange(layout.n_boundary), boundary)),
        shape=(layout.n_boundary, layout.dim),
    )
    return sparse.vstack([select, build_v2u(layout)], format="csr")


def unit_cov_v(fit: FitResult) -> np.ndarray:
    """The dense inverse weighted normal matrix on the level surface."""
    return fit.unit_cov_v_band.solve(np.eye(fit.layout.dim))


def z_hat(fit: FitResult) -> np.ndarray:
    """The estimate in parameter coordinates."""
    return build_v2z(fit.layout) @ fit.v_hat.ravel()


def unit_cov_z(fit: FitResult) -> np.ndarray:
    """`unit_cov_v` in parameter coordinates."""
    v2z = build_v2z(fit.layout)
    return v2z @ (v2z @ unit_cov_v(fit)).T


def cov_z(fit: FitResult) -> np.ndarray | None:
    """The sigma2 multiple of `unit_cov_z`, None when the degrees of freedom
    are not positive."""
    return None if fit.sigma2_hat is None else fit.sigma2_hat * unit_cov_z(fit)


def penalties_z(layout: ParameterLayout) -> tuple[np.ndarray, np.ndarray]:
    """Level and trend second-difference penalties on the parameter vector."""
    z2v = build_z2v(layout)
    return (
        second_differences(*layout.level_shape) @ z2v,
        second_differences(*layout.trend_shape) @ (build_v2u(layout) @ z2v),
    )


def year_fraction(y: float) -> float:
    """Within-cell year fraction, measured from the absolute cell floor."""
    return y - math.floor(y)


def cohort_path(cell: CellIndex) -> tuple[tuple[int, int], list[CellIndex]]:
    """Boundary point and trailing cells of the cohort passing through `cell`.

    With d = min(i, j) the cohort entered the lattice at boundary point
    (i-d, j-d); its trend contributions accumulate over cells (i-m, j-m)
    for m = 1..d (the boundary cell included, the current cell excluded).
    """
    i, j = cell
    d = min(i, j)
    boundary = (i - d, j - d)
    interior = [CellIndex(i - m, j - m) for m in range(1, d + 1)]
    return boundary, interior


def _row_from_coeffs(coeffs: dict[int, float], rhs: float = 0.0) -> Row:
    return Row(dict(sorted((k, v) for k, v in coeffs.items() if v != 0.0)), rhs)


def _level_coeffs(layout: ParameterLayout, i: int, j: int) -> dict[int, float]:
    """Parameter coefficients of the level at lattice point (i, j).

    Valid on the whole level domain: the boundary entry point contributes 1,
    each trailing cohort cell contributes 1 on its trend parameter.
    """
    boundary, interior = cohort_path(CellIndex(i, j))
    coeffs = {layout.boundary_index(*boundary): 1.0}
    for cell in interior:
        coeffs[trend_index(layout, *cell)] = coeffs.get(trend_index(layout, *cell), 0.0) + 1.0
    return coeffs


def cell_observation_coeffs(
    layout: ParameterLayout, cell: CellIndex, t: float
) -> dict[int, float]:
    """Observation functional for a point in `cell` at year fraction `t`."""
    coeffs = _level_coeffs(layout, cell.i, cell.j)
    if t != 0.0:
        k = trend_index(layout, cell.i, cell.j)
        # Cohort-path cells (i-m, j-m) with m >= 1 never include the current
        # cell, so the year-fraction coefficient lands on a fresh index.
        assert k not in coeffs, "year-fraction coefficient collided with path"
        coeffs[k] = t
    return coeffs


def observation_row(layout: ParameterLayout, frame: Frame, y: float, a: float) -> Row:
    """Design row for a measurement at (y, a); the right-hand side stays 0."""
    cell = locate(frame, y, a)
    return _row_from_coeffs(cell_observation_coeffs(layout, cell, year_fraction(y)))


def build_b0_raw(
    layout: ParameterLayout, frame: Frame, measurements: list[Measurement]
) -> list[Row]:
    """One data row per measurement, right-hand side the observed value."""
    rows = []
    for m in measurements:
        cell = locate(frame, m.y, m.a)
        t = year_fraction(m.y)
        rows.append(_row_from_coeffs(cell_observation_coeffs(layout, cell, t), rhs=m.x))
    return rows


def build_b0_aggregated(layout: ParameterLayout, cells: CellColumns) -> tuple[list[Row], np.ndarray, float]:
    """Cell-level data rows, their count weights, and the pooled within-cell
    corrected sum of squares.

    Each row is built at the cell's mean year, so aggregated and raw modes
    coincide exactly whenever all member years within a cell are equal.
    """
    rows = []
    weights = np.empty(len(cells), dtype=float)
    css_total = 0.0
    table = zip(*(c.tolist() for c in (cells.i, cells.j, cells.x_bar, cells.y_bar, cells.n, cells.css)))
    for pos, (i, j, x_bar, y_bar, n, css) in enumerate(table):
        i_abs = i + cells.frame.i_min
        if not (i_abs <= y_bar < i_abs + 1):
            raise OutOfFrame(f"cell ({i}, {j}) mean year {y_bar} outside its year interval")
        t = y_bar - i_abs
        rows.append(_row_from_coeffs(cell_observation_coeffs(layout, CellIndex(i, j), t), rhs=x_bar))
        weights[pos] = float(n)
        css_total += css
    return rows, weights, css_total
