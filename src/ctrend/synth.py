"""Forward simulation of the cohort dynamics for test data and oracles.

A ground-truth model carries boundary levels, the trend field, and a
homoscedastic Gaussian noise scale.  `true_level` evaluates the noiseless
state value along the cohort path, independent of the design matrices, so it
doubles as their oracle.  `generate` draws measurements from a sampling plan
with a counter-based Philox generator, reproducibly from the seed alone, as
columns located in the model's frame.  The smooth models that the tests generate from live in `tests/zref.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PlanOutOfFrame, SpecMismatch
from .grid import CellIndex, Frame, ParameterLayout
from .ingest import MeasurementColumns


@dataclass(frozen=True)
class TrueModel:
    """Generating model: boundary levels, trend field, noise scale."""

    frame: Frame
    v0_true: np.ndarray
    u_true: np.ndarray
    noise_sd: float = 0.0

    def __post_init__(self) -> None:
        layout = self.layout
        v0 = np.asarray(self.v0_true, dtype=float)
        u = np.asarray(self.u_true, dtype=float)
        if v0.shape != (layout.n_boundary,):
            raise SpecMismatch(
                f"boundary block must have length {layout.n_boundary}, got {v0.shape}"
            )
        if u.shape != layout.trend_shape:
            raise SpecMismatch(
                f"trend field must have shape {layout.trend_shape}, got {u.shape}"
            )
        if not (np.isfinite(v0).all() and np.isfinite(u).all()):
            raise SpecMismatch("boundary levels and trend field must be finite")
        if not 0 <= self.noise_sd < np.inf:
            raise SpecMismatch(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        object.__setattr__(self, "v0_true", v0)
        object.__setattr__(self, "u_true", u)

    @property
    def layout(self) -> ParameterLayout:
        return ParameterLayout.from_frame(self.frame)


def true_level(model: TrueModel, cell: CellIndex, t: float) -> float:
    """Noiseless state value in `cell` at year fraction t in [0, 1).

    Walks the cohort diagonal explicitly: boundary entry level, plus one
    full year of trend per crossed cell, plus the partial current year.
    """
    layout = model.layout
    i, j = cell
    if not (0 <= i <= layout.i_span and 0 <= j <= layout.j_span):
        raise PlanOutOfFrame(f"cell {cell} outside the trend lattice")
    if not (0.0 <= t < 1.0):
        raise PlanOutOfFrame(f"year fraction {t} outside [0, 1)")
    d = min(i, j)
    level = model.v0_true[layout.boundary_index(i - d, j - d)]
    for m in range(1, d + 1):
        level += model.u_true[i - m, j - m]
    return float(level + t * model.u_true[i, j])


@dataclass(frozen=True)
class SamplingPlan:
    """Measurement placement: one draw per (cell, year fraction) entry."""

    entries: tuple[tuple[int, int, float], ...]


def full_coverage_plan(
    frame: Frame, fractions: tuple[float, ...] = (0.25, 0.75), per_fraction: int = 1
) -> SamplingPlan:
    """Every cell sampled at every listed year fraction: a survey in every year."""
    return survey_plan(frame, tuple(range(frame.i_span + 1)), fractions, per_fraction)


def survey_plan(
    frame: Frame,
    wave_years: tuple[int, ...],
    fractions: tuple[float, ...] = (0.1, 0.2, 0.3),
    per_fraction: int = 1,
) -> SamplingPlan:
    """Cross-sectional waves: all ages sampled at the given relative years."""
    entries = []
    for i in wave_years:
        for j in range(frame.j_span + 1):
            for t in fractions:
                entries.extend([(int(i), j, float(t))] * per_fraction)
    return SamplingPlan(tuple(entries))


def generate(model: TrueModel, plan: SamplingPlan, seed: int) -> MeasurementColumns:
    """Draw one measurement per plan entry; deterministic for a fixed seed.

    Measurements are placed at integer age j (always inside the slanted
    cell for any fraction) and decimal year floor+fraction, and come back as
    columns located in `model.frame` by `Frame.cells`, as ingest locates
    them.  Noise is N(0, noise_sd) from a Philox stream keyed by `seed`.  An
    entry outside the frame, one whose year i_min + i + t rounds up to the
    next whole year, or one `true_level` rejects, raises PlanOutOfFrame.
    """
    frame = model.frame
    rng = np.random.Generator(np.random.Philox(seed))
    rows = []
    for i, j, t in plan.entries:
        y, a = frame.i_min + i + t, frame.j_min + j
        if not frame.contains(y, a):
            # Top-row cells only admit fractions up to y_max - i_max.
            raise PlanOutOfFrame(
                f"plan entry ({i}, {j}, {t}) places a measurement at "
                f"(y={y}, a={a}) outside the frame"
            )
        if y >= frame.i_min + i + 1:
            raise PlanOutOfFrame(
                f"plan entry ({i}, {j}, {t}) places a measurement at y={y}, "
                f"which rounds up into the next year's cell"
            )
        x = true_level(model, CellIndex(i, j), t)
        if model.noise_sd > 0:
            x += rng.normal(0.0, model.noise_sd)
        rows.append((x, y, a))
    x, y, a = np.array(rows, dtype=float).reshape(-1, 3).T
    i, j, _ = frame.cells(y, a)
    return MeasurementColumns(frame, x, y, a, i, j)
