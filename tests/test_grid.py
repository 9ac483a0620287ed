import math

import numpy as np
import pytest

from ctrend.errors import FrameTooSmall, NotOnBoundary, OutOfFrame
from ctrend.grid import CellIndex, Frame, ParameterLayout
from ingest_reference import locate
from zref import boundary_points, cohort_path, trend_index


def cell_contains(i_abs, j_abs, y, a):
    """Membership in the slanted cell, straight from its definition."""
    if not (i_abs <= y < i_abs + 1):
        return False
    t = y - i_abs
    return (j_abs - 1) + t < a <= j_abs + t


class TestFrame:
    def test_study_shape(self):
        frame = Frame.from_bounds(1982.0, 1992.0, 25.0, 64.0)
        assert (frame.i_min, frame.i_max) == (1982, 1992)
        assert (frame.j_min, frame.j_max) == (25, 64)
        assert (frame.i_span, frame.j_span) == (10, 39)

    def test_fractional_year_bounds(self):
        frame = Frame.from_bounds(1982.0, 1992.9, 25.0, 64.0)
        assert (frame.i_span, frame.j_span) == (10, 39)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(FrameTooSmall):
            Frame.from_bounds(1982.0, 1982.0, 25.0, 64.0)
        with pytest.raises(FrameTooSmall):
            Frame.from_bounds(1982.0, 1982.5, 25.0, 64.0)

    @pytest.mark.parametrize("bound", range(4))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_bounds_rejected(self, bound, value):
        bounds = [1982.0, 1992.0, 25.0, 64.0]
        bounds[bound] = value
        with pytest.raises(FrameTooSmall, match="degenerate bounds"):
            Frame.from_bounds(*bounds)


@pytest.fixture(scope="module")
def frame():
    return Frame.from_bounds(1982.0, 1992.0, 25.0, 64.0)


class TestLocate:
    def test_interior_point(self, frame):
        assert locate(frame, 1982.25, 40.0) == CellIndex(0, 15)

    def test_right_age_boundary_included(self, frame):
        # a - t lands exactly on an integer: the interval is right-closed
        assert locate(frame, 1983.5, 30.5) == CellIndex(1, 5)

    def test_below_frame_rejected(self, frame):
        with pytest.raises(OutOfFrame):
            locate(frame, 1981.0, 40.0)

    def test_top_edge_maps_to_last_row(self, frame):
        assert locate(frame, 1992.0, 64.0) == CellIndex(10, 39)

    def test_corner_points(self, frame):
        assert locate(frame, 1982.0, 25.0) == CellIndex(0, 0)

    def test_partition_randomized(self, frame):
        # every interior point belongs to exactly one cell of the lattice
        rng = np.random.default_rng(101)
        ys = rng.uniform(frame.y_min + 1e-9, frame.y_max - 1e-9, size=100_000)
        aa = rng.uniform(frame.a_min + 1e-9, frame.a_max - 1e-9, size=100_000)
        i_abs = np.floor(ys).astype(int)
        t = ys - i_abs
        j_abs = np.ceil(aa - t).astype(int)
        # membership of the computed cell
        assert np.all((i_abs <= ys) & (ys < i_abs + 1))
        assert np.all(((j_abs - 1) + t < aa) & (aa <= j_abs + t))
        # no neighboring cell also contains the point
        for di, dj in ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1)):
            inside_i = (i_abs + di <= ys) & (ys < i_abs + di + 1)
            tt = ys - (i_abs + di)
            inside_j = ((j_abs + dj - 1) + tt < aa) & (aa <= j_abs + dj + tt)
            assert not np.any(inside_i & inside_j)
        # locate agrees on a subsample
        for k in range(0, 100_000, 5000):
            cell = locate(frame, ys[k], aa[k])
            assert (cell.i, cell.j) == (i_abs[k] - frame.i_min, j_abs[k] - frame.j_min)

    def test_cells_match_locate(self):
        # integer years, ages exactly on a right cell boundary j + t, the
        # frame edges, and sliver corners outside the lattice (age bound 25.5)
        frame = Frame.from_bounds(1982.0, 1992.9, 25.5, 64.0)
        points = []
        for y in (1982.0, 1983.0, 1987.25, 1988.3, 1991.999, 1992.0, 1992.9):
            t = y - math.floor(y)
            for a in (25.5, 25.5 + t, 26.0 + t, 40.0 + t, 63.0 + t, 64.0, 64.0 - 1e-9, 40.0):
                points.append((y, a))
        points += [(1981.9, 40.0), (1993.0, 40.0), (1985.0, 25.4), (1985.0, 64.1)]
        accepted, cells = [], []
        for y, a in points:
            try:
                cells.append(locate(frame, y, a))
                accepted.append(True)
            except OutOfFrame:
                accepted.append(False)
        assert len(cells) > 30 and accepted.count(False) == 6
        y, a = map(np.array, zip(*points))
        i, j, inside = frame.cells(y, a)
        assert inside.tolist() == accepted
        assert i[inside].tolist() == [c.i for c in cells]
        assert j[inside].tolist() == [c.j for c in cells]
        assert not i[~inside].any() and not j[~inside].any()

    def test_cells_reject_non_finite(self, frame):
        for y, a in ((np.nan, 40.0), (np.inf, 40.0), (1983.5, np.inf)):
            _, _, inside = frame.cells(np.array([1983.5, y]), np.array([40.0, a]))
            assert inside.tolist() == [True, False]

    def test_cohort_motion(self, frame):
        # moving along the diagonal stays in the cell or advances one step
        rng = np.random.default_rng(55)
        for _ in range(2000):
            y = rng.uniform(frame.y_min, frame.y_max - 1.0)
            a = rng.uniform(frame.a_min + 1.0, frame.a_max - 1.0)
            cell = locate(frame, y, a)
            dt = rng.uniform(1e-9, 1.0 - (y - math.floor(y)) - 1e-9)
            moved = locate(frame, y + dt, a + dt)
            assert moved in (cell, CellIndex(cell.i + 1, cell.j + 1))

    def test_locate_consistent_with_cohort_path(self, frame):
        rng = np.random.default_rng(77)
        for _ in range(500):
            y = rng.uniform(frame.y_min, frame.y_max)
            a = rng.uniform(frame.a_min, frame.a_max)
            cell = locate(frame, y, a)
            boundary, _ = cohort_path(cell)
            d = min(cell.i, cell.j)
            yb, ab = y - d, a - d
            if frame.contains(yb, ab):
                assert tuple(locate(frame, yb, ab)) == boundary


class TestCohortPath:
    def test_interior_cell(self):
        boundary, interior = cohort_path(CellIndex(2, 5))
        assert boundary == (0, 3)
        assert interior == [CellIndex(1, 4), CellIndex(0, 3)]

    def test_boundary_cell(self):
        boundary, interior = cohort_path(CellIndex(0, 7))
        assert boundary == (0, 7)
        assert interior == []

    def test_diagonal_cell(self):
        boundary, interior = cohort_path(CellIndex(3, 3))
        assert boundary == (0, 0)
        assert interior == [CellIndex(2, 2), CellIndex(1, 1), CellIndex(0, 0)]


class TestParameterLayout:
    def test_block_sizes(self):
        layout = ParameterLayout(10, 39)
        assert layout.n_boundary == 52
        assert layout.n_trend == 440
        assert layout.dim == 492

    def test_boundary_index_examples(self):
        layout = ParameterLayout(10, 39)
        assert layout.boundary_index(0, 0) == 11
        assert layout.boundary_index(11, 0) == 0
        assert layout.boundary_index(0, 40) == 51

    def test_boundary_index_rejects_interior(self):
        layout = ParameterLayout(10, 39)
        with pytest.raises(NotOnBoundary):
            layout.boundary_index(2, 3)
        with pytest.raises(NotOnBoundary):
            layout.boundary_index(12, 0)

    def test_trend_index_examples(self):
        layout = ParameterLayout(10, 39)
        assert trend_index(layout, 0, 0) == 52
        assert trend_index(layout, 1, 0) == 92
        assert trend_index(layout, 10, 39) == 491

    def test_index_bijectivity(self):
        layout = ParameterLayout(4, 6)
        seen = [layout.boundary_index(i, j) for i, j in boundary_points(layout)]
        for i in range(layout.i_span + 1):
            for j in range(layout.j_span + 1):
                seen.append(trend_index(layout, i, j))
        assert sorted(seen) == list(range(layout.dim))

    def test_boundary_points_order(self):
        layout = ParameterLayout(2, 3)
        assert boundary_points(layout) == [
            (3, 0), (2, 0), (1, 0), (0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
        ]

