"""Selection of the penalty weights from smoothness targets.

The control quantity per adjacent pair of surface estimates is 1 - r^2,
with r their correlation: the fraction of variance not explained by the
neighbor ("new information").  A summary statistic of those indicators is
driven to a target on the log scale, separately for the trend surface
(via lambda2) and the level surface (via lambda1), by one warm-started
search per weight in log10-lambda over [-8, 10].  Each statistic decreases
in its own lambda.  The trend statistic barely moves with lambda1, so each
sweep tunes lambda2 first; further sweeps absorb the remaining coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import LinearSystem, build_v2u
from .errors import IndexOutOfRange, NoConvergence, SingularSystem, TargetUnreachable
from .solver import FitResult, solve

LOG10_LO = -8.0
LOG10_HI = 10.0
LOG10_STEP = 2.0
MAX_SOLVES = 200
MAX_SWEEPS = 10
WEIGHT_NAMES = ("level", "trend")  # lambda1, lambda2
FSTAT_KINDS = ("selected-point", "mean", "median", "min")


@dataclass(frozen=True)
class SmoothnessField:
    """Local 1 - r^2 indicators for one surface.

    `age` holds pairs ((i,j), (i,j+1)) as an nrows x (ncols-1) grid, `year`
    pairs ((i,j), (i+1,j)) as (nrows-1) x ncols; `zero_variance` flags pairs
    where a variance vanished and the indicator was pinned to 1.
    """

    age: np.ndarray
    year: np.ndarray
    zero_variance_age: np.ndarray
    zero_variance_year: np.ndarray

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.age.ravel(), self.year.ravel()])

    @property
    def any_zero_variance(self) -> bool:
        return bool(self.zero_variance_age.any() or self.zero_variance_year.any())


def _pair_indicator(cov: np.ndarray, k1: np.ndarray, k2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v1 = cov[k1, k1]
    v2 = cov[k2, k2]
    c12 = cov[k1, k2]
    zero = (v1 <= 0.0) | (v2 <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(zero, 0.0, c12**2 / np.where(zero, 1.0, v1 * v2))
    f = np.where(zero, 1.0, np.clip(1.0 - r2, 0.0, 1.0))
    return f, zero


def smoothness_field(cov: np.ndarray, shape: tuple[int, int]) -> SmoothnessField:
    """Indicators for all age- and year-adjacent pairs of a flattened surface.

    `cov` is a dense covariance or a band accessor of a fit
    (`FitResult.unit_cov_v_band`, `unit_cov_u_band`); only `cov.shape` and
    `cov[k1, k2]` with index arrays are read.
    """
    nrows, ncols = shape
    if cov.shape != (nrows * ncols, nrows * ncols):
        raise ValueError(f"covariance shape {cov.shape} does not match surface {shape}")
    ii, jj = np.meshgrid(np.arange(nrows), np.arange(ncols - 1), indexing="ij")
    k1 = (ii * ncols + jj).ravel()
    f_age, z_age = _pair_indicator(cov, k1, k1 + 1)
    ii, jj = np.meshgrid(np.arange(nrows - 1), np.arange(ncols), indexing="ij")
    k1 = (ii * ncols + jj).ravel()
    f_year, z_year = _pair_indicator(cov, k1, k1 + ncols)
    return SmoothnessField(
        age=f_age.reshape(nrows, ncols - 1),
        year=f_year.reshape(nrows - 1, ncols),
        zero_variance_age=z_age.reshape(nrows, ncols - 1),
        zero_variance_year=z_year.reshape(nrows - 1, ncols),
    )


def smoothness_vector(cov: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Flat indicator vector: age block then year block, each row-major."""
    return smoothness_field(cov, shape).vector


def fstat(
    field: SmoothnessField, kind: str, selected: tuple[int, int] | None = None
) -> float:
    """Summary statistic of a smoothness field.

    For ``selected-point`` the 0-based (i, j) coordinates index the
    age-block pair grid.
    """
    if kind not in FSTAT_KINDS:
        raise IndexOutOfRange(f"fstat kind must be one of {FSTAT_KINDS}, got {kind!r}")
    if kind == "mean":
        return float(np.mean(field.vector))
    if kind == "median":
        return float(np.median(field.vector))
    if kind == "min":
        return float(np.min(field.vector))
    if selected is None:
        raise IndexOutOfRange("selected-point fstat needs a grid point")
    i, j = selected
    _check_age_pair((i, j), field.age.shape)
    return float(field.age[i, j])


def _check_age_pair(point: tuple[int, int], pairs: tuple[int, int]) -> None:
    """IndexOutOfRange unless `point` lies on the `pairs`-shaped age-pair grid."""
    (i, j), (nrows, ncols) = point, pairs
    if not (0 <= i < nrows and 0 <= j < ncols):
        raise IndexOutOfRange(f"selected point ({i}, {j}) outside age-block grid {pairs}")


def default_selected_point_v(layout) -> tuple[int, int]:
    """Near-corner default probe for the level surface."""
    nrows, ncols = layout.level_shape
    return (min(1, nrows - 1), min(1, ncols - 2))


def default_selected_point_u(layout) -> tuple[int, int]:
    """Central default probe for the trend surface."""
    nrows, ncols = layout.trend_shape
    return (nrows // 2, min(ncols // 2, ncols - 2))


@dataclass(frozen=True)
class SmoothnessTargets:
    """Targets and stopping rule for the tuner.

    `delta` bounds the absolute log-distance of both statistics from their
    targets; `math.inf` disables tuning and accepts the first solve, at
    lambda1 = lambda2 = 10 (the center of the search range).
    """

    f_smv: float = 0.2
    f_smu: float = 0.2
    delta: float = 0.05
    fstat_kind: str = "selected-point"
    selected_point_v: tuple[int, int] | None = None
    selected_point_u: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.f_smv < 1.0 and 0.0 < self.f_smu < 1.0):
            raise IndexOutOfRange("smoothness targets must lie strictly inside (0, 1)")
        if not self.delta > 0:
            raise IndexOutOfRange("accuracy delta must be positive")
        if self.fstat_kind not in FSTAT_KINDS:
            raise IndexOutOfRange(f"unknown fstat kind {self.fstat_kind!r}")


@dataclass
class SmoothnessReport:
    stat_v: float
    stat_u: float
    lambda1: float
    lambda2: float
    iterations: int
    converged: bool


def _safe_log(x: float) -> float:
    return math.log(x) if x > 0 else -math.inf


@dataclass
class _Probe:
    """One solve at lambdas 10**lg; `fit` is None when the system was singular."""

    lg: tuple[float, float]
    fit: FitResult | None = None
    stat_v: float = math.nan
    stat_u: float = math.nan


def _selected_pairs(layout, point_v: tuple[int, int], point_u: tuple[int, int]) -> np.ndarray:
    """dim x 4 map from the level surface onto v(k), v(k+1), u(t), u(t+1), the
    two selected age pairs; IndexOutOfRange for a point outside its pair grid."""
    flat = []
    for (i, j), (nrows, ncols) in ((point_v, layout.level_shape), (point_u, layout.trend_shape)):
        _check_age_pair((i, j), (nrows, ncols - 1))
        flat.append(i * ncols + j)
    k, t = flat
    levels = np.zeros((layout.dim, 2))
    levels[[k, k + 1], [0, 1]] = 1.0
    return np.hstack([levels, build_v2u(layout)[[t, t + 1]].T.toarray()])


class _Evaluator:
    """Solves at given log10-lambdas and summarizes both smoothness statistics.

    `probes` records every probe in solve order, singular ones included.
    No probe forms a dense covariance: `selected-point` reads its two pairs
    from one four-column `quadratic` solve, the other statistics read the
    whole field off the fit's banded inverses.
    """

    def __init__(self, system: LinearSystem, targets: SmoothnessTargets):
        self.system = system
        self.targets = targets
        self.point_v = targets.selected_point_v or default_selected_point_v(system.layout)
        self.point_u = targets.selected_point_u or default_selected_point_u(system.layout)
        self.pairs = None
        if targets.fstat_kind == "selected-point":
            self.pairs = _selected_pairs(system.layout, self.point_v, self.point_u)
        self.probes: list[_Probe] = []

    def __call__(self, lg: tuple[float, float]) -> _Probe:
        """The probe at lambdas 10**lg, appended to `probes`."""
        probe = _Probe(lg)
        self.probes.append(probe)
        try:
            probe.fit = fit = solve(self.system, 10.0 ** lg[0], 10.0 ** lg[1])
        except SingularSystem:
            return probe
        # Correlations are scale-free, so the unit covariance works even
        # when sigma2 is unavailable or zero.
        if self.pairs is not None:
            cov = fit.unit_cov_v_band.quadratic(self.pairs)
            probe.stat_v, probe.stat_u = (float(_pair_indicator(cov, k, k + 1)[0]) for k in (0, 2))
            return probe
        kind = self.targets.fstat_kind
        probe.stat_v = fstat(smoothness_field(fit.unit_cov_v_band, fit.layout.level_shape), kind)
        probe.stat_u = fstat(smoothness_field(fit.unit_cov_u_band, fit.layout.trend_shape), kind)
        return probe

    def log_error(self, probe: _Probe, which: int) -> float:
        """Signed log distance of statistic `which` (0 level, 1 trend) from its
        target; -inf when the probe is singular."""
        if probe.fit is None:
            return -math.inf
        if which == 0:
            return _safe_log(probe.stat_v) - math.log(self.targets.f_smv)
        return _safe_log(probe.stat_u) - math.log(self.targets.f_smu)

    def joint_error(self, probe: _Probe) -> float:
        return max(abs(self.log_error(probe, 0)), abs(self.log_error(probe, 1)))

    def report(self, probe: _Probe, converged: bool) -> SmoothnessReport:
        return SmoothnessReport(
            stat_v=probe.stat_v,
            stat_u=probe.stat_u,
            lambda1=probe.fit.lambda1,
            lambda2=probe.fit.lambda2,
            iterations=len(self.probes),
            converged=converged,
        )


def _search(
    evaluate: _Evaluator, which: int, start: _Probe, tol: float
) -> tuple[_Probe, float | None]:
    """One weight's search in log10-lambda, the other held where `start` has it.

    Starts at `start` and steps LOG10_STEP decades toward the target until
    the log error changes sign; a bracket end is probed only when a step
    reaches it.  The last step is narrowed by false position (Dowell &
    Jarratt 1971), each new point kept inside the inner 80 % of the
    bracket, or at its midpoint when an end is singular.  Relies on the
    statistic decreasing in its own lambda.  A singular probe counts as
    below the target, as if the penalty had overwhelmed the data (maximally
    smooth): past the target when stepping up or narrowing, short of it
    when stepping down.

    Returns the solvable probe closest to the target among `start` and the
    probes this search made, and the bracket end if the search stopped at a
    solvable end short of its target.
    """
    begin = len(evaluate.probes)

    def closest() -> tuple[_Probe, None]:
        solved = [q for q in (start, *evaluate.probes[begin:]) if q.fit is not None]
        if not solved:
            raise SingularSystem(f"no solvable lambda found for the {WEIGHT_NAMES[which]} weight")
        return min(solved, key=lambda q: abs(evaluate.log_error(q, which))), None

    # lo and hi: log10-lambda of the latest points above and below the target.
    lo = hi = None
    p, x = start, start.lg[which]
    g = evaluate.log_error(p, which)
    while abs(g) > tol:
        if g > 0:
            lo, g_lo = x, g
        else:
            hi, g_hi = x, g
        if lo is None or hi is None:
            end = LOG10_HI if hi is None else LOG10_LO
            if x == end:
                return (p, end) if p.fit is not None else closest()
            x = min(x + LOG10_STEP, end) if hi is None else max(x - LOG10_STEP, end)
        elif len(evaluate.probes) >= MAX_SOLVES or hi - lo <= 1e-12:
            return closest()
        elif math.isinf(g_hi):  # singular (or zero statistic) at the upper end
            x = 0.5 * (lo + hi)
        else:
            width = hi - lo
            x = lo + width * g_lo / (g_lo - g_hi)
            x = min(max(x, lo + 0.1 * width), hi - 0.1 * width)
        p = evaluate((x, start.lg[1]) if which == 0 else (start.lg[0], x))
        g = evaluate.log_error(p, which)
    return p, None


def tune(system: LinearSystem, targets: SmoothnessTargets) -> tuple[FitResult, SmoothnessReport]:
    """Find lambdas meeting both smoothness targets within `targets.delta`.

    Each sweep searches lambda2 on the trend statistic, then lambda1 on the
    level statistic, each from its previous value, until the joint log-scale
    condition holds.  A search that stops at a bracket end short of its
    target keeps that end for the rest of the sweep; TargetUnreachable, with
    that fit, is raised when a weight stops at the same end in two sweeps
    running.  NoConvergence, with the best attempt among all solves, is
    raised after MAX_SWEEPS sweeps or MAX_SOLVES solves.
    """
    evaluate = _Evaluator(system, targets)
    mid = 0.5 * (LOG10_LO + LOG10_HI)
    probe = evaluate((mid, mid))
    if math.isinf(targets.delta):
        if probe.fit is None:
            raise SingularSystem("system is singular at the starting lambdas")
        return probe.fit, evaluate.report(probe, converged=True)

    inner_tol = 0.4 * targets.delta
    stopped_at: list[float | None] = [None, None]
    for _ in range(MAX_SWEEPS):
        for which in (1, 0):
            probe, end = _search(evaluate, which, probe, inner_tol)
            if end is not None and end == stopped_at[which]:
                side = "above" if end == LOG10_HI else "below"
                target = (targets.f_smv, targets.f_smu)[which]
                raise TargetUnreachable(
                    f"{WEIGHT_NAMES[which]} smoothness stays {side} target {target} "
                    f"at lambda=1e{end:g}",
                    fit=probe.fit,
                )
            stopped_at[which] = end
        if evaluate.joint_error(probe) <= targets.delta:
            return probe.fit, evaluate.report(probe, converged=True)
        if len(evaluate.probes) >= MAX_SOLVES:
            break
    best = min((q for q in evaluate.probes if q.fit is not None), key=evaluate.joint_error)
    raise NoConvergence(
        f"tuner used {len(evaluate.probes)} solves; best joint log error "
        f"{evaluate.joint_error(best):.4f} exceeds delta {targets.delta}",
        fit=best.fit,
        report=evaluate.report(best, converged=False),
    )
