"""Index algebra for the (year, age) plane.

The estimation lattice is built from parallelogram cells slanted along the
cohort diagonal.  Cell (i, j) covers calendar years [i, i+1) and, at year
fraction t = y - i, ages ((j-1)+t, j+t]: the left and upper edges are
excluded, the right age boundary is included.  A subject ages one year per
calendar year, so a birth cohort moves through cells (i, j) -> (i+1, j+1).

Two integer domains hang off a frame with year span I and age span J:

* the trend domain, cells (i, j) with 0 <= i <= I, 0 <= j <= J, carrying
  the per-cell cohort trend;
* the level domain, lattice points (i, j) with 0 <= i <= I+1,
  0 <= j <= J+1, carrying mean levels of the state variable.

The parameter vector stacks the level values on the low-left boundary of
the level domain (initial conditions of each cohort) followed by the trend
field, in a fixed order; `ParameterLayout` owns that ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FrameTooSmall, NotOnBoundary


class CellIndex(NamedTuple):
    """Relative cell coordinates: i counts years, j counts ages."""

    i: int
    j: int


def _absolute_cell(y: float, a: float) -> tuple[int, int, float]:
    """Absolute cell indices and the within-cell year fraction of (y, a)."""
    i = math.floor(y)
    t = y - i
    j = math.ceil(a - t)
    return i, j, t


@dataclass(frozen=True)
class Frame:
    """Observational rectangle plus the integer lattice bounds derived from it.

    `i_span` and `j_span` are one less than the number of cell rows and
    columns: the trend domain is (i_span+1) x (j_span+1) cells, the level
    domain (i_span+2) x (j_span+2) lattice points.
    """

    y_min: float
    y_max: float
    a_min: float
    a_max: float
    i_min: int
    j_min: int
    i_max: int
    j_max: int

    @classmethod
    def from_bounds(cls, y_min: float, y_max: float, a_min: float, a_max: float) -> Frame:
        if not (-math.inf < y_min < y_max < math.inf and -math.inf < a_min < a_max < math.inf):
            raise FrameTooSmall(
                f"degenerate bounds: years [{y_min}, {y_max}], ages [{a_min}, {a_max}]"
            )
        i_min, j_min, _ = _absolute_cell(y_min, a_min)
        i_max, j_max, _ = _absolute_cell(y_max, a_max)
        if i_max - i_min < 1 or j_max - j_min < 1:
            raise FrameTooSmall(
                f"frame must span at least one year and one age step, got "
                f"i span {i_max - i_min}, j span {j_max - j_min}"
            )
        return cls(y_min, y_max, a_min, a_max, i_min, j_min, i_max, j_max)

    @property
    def i_span(self) -> int:
        return self.i_max - self.i_min

    @property
    def j_span(self) -> int:
        return self.j_max - self.j_min

    def contains(self, y: float, a: float) -> bool:
        return self.y_min <= y <= self.y_max and self.a_min <= a <= self.a_max

    def cells(self, y: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Relative cells (i, j) of the points (y[k], a[k]), and the mask of
        the points inside the frame and its lattice: the one locator of
        measurements, `_absolute_cell` vectorized with the same IEEE operations.

        An age equal to j + t lands in cell j (right boundary included).
        Points outside the frame, in a sliver corner whose cell falls outside
        the lattice, or not finite get cell (0, 0).
        """
        with np.errstate(invalid="ignore"):
            i = np.floor(y)
            j = np.ceil(a - (y - i))
        i -= self.i_min
        j -= self.j_min
        inside = (
            (self.y_min <= y) & (y <= self.y_max) & (self.a_min <= a) & (a <= self.a_max)
            & (0 <= i) & (i <= self.i_span) & (0 <= j) & (j <= self.j_span)
        )
        return np.where(inside, i, 0).astype(int), np.where(inside, j, 0).astype(int), inside


@dataclass(frozen=True)
class ParameterLayout:
    """Flat ordering of the stacked parameter vector.

    Boundary block first: left edge top-down v(I+1,0) ... v(0,0), then
    bottom row left-to-right v(0,1) ... v(0,J+1).  Trend block second, in
    row-major order u(0,0) ... u(I,J).
    """

    i_span: int
    j_span: int

    def __post_init__(self) -> None:
        if self.i_span < 1 or self.j_span < 1:
            raise FrameTooSmall(
                f"layout needs spans >= 1, got ({self.i_span}, {self.j_span})"
            )

    @classmethod
    def from_frame(cls, frame: Frame) -> ParameterLayout:
        return cls(frame.i_span, frame.j_span)

    @property
    def n_boundary(self) -> int:
        return self.i_span + self.j_span + 3

    @property
    def n_trend(self) -> int:
        return (self.i_span + 1) * (self.j_span + 1)

    @property
    def dim(self) -> int:
        return self.n_boundary + self.n_trend

    @property
    def trend_shape(self) -> tuple[int, int]:
        return (self.i_span + 1, self.j_span + 1)

    @property
    def level_shape(self) -> tuple[int, int]:
        return (self.i_span + 2, self.j_span + 2)

    def boundary_index(self, i: int, j: int) -> int:
        """Flat parameter index of low-left boundary point (i, j)."""
        if j == 0 and 0 <= i <= self.i_span + 1:
            return self.i_span + 1 - i
        if i == 0 and 1 <= j <= self.j_span + 1:
            return self.i_span + 1 + j
        raise NotOnBoundary(f"({i}, {j}) is not on the low-left boundary")
