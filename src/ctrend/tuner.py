"""Selection of the penalty weights from smoothness targets.

The control quantity per adjacent pair of surface estimates is 1 - r^2,
with r their correlation: the fraction of variance not explained by the
neighbor ("new information").  A summary statistic of those indicators is
driven to a target on the log scale, separately for the level surface
(via lambda1) and the trend surface (via lambda2), by alternating
bisection in log10-lambda over [-8, 10].  Each statistic decreases in its
own lambda; cross-coupling is absorbed by the outer alternation sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import LinearSystem
from .errors import IndexOutOfRange, NoConvergence, SingularSystem, TargetUnreachable
from .solver import FitResult, solve

LOG10_LO = -8.0
LOG10_HI = 10.0
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
    """Indicators for all age- and year-adjacent pairs of a flattened surface."""
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
    nrows, ncols = field.age.shape
    if not (0 <= i < nrows and 0 <= j < ncols):
        raise IndexOutOfRange(
            f"selected point ({i}, {j}) outside age-block grid {field.age.shape}"
        )
    return float(field.age[i, j])


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
    targets; `math.inf` disables tuning and accepts the first solve at the
    bracket midpoints.
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
    f_v: np.ndarray
    f_u: np.ndarray
    stat_v: float
    stat_u: float
    lambda1: float
    lambda2: float
    iterations: int
    converged: bool
    zero_variance_v: bool = False
    zero_variance_u: bool = False


def _safe_log(x: float) -> float:
    return math.log(x) if x > 0 else -math.inf


@dataclass
class _Probe:
    fit: FitResult
    field_v: SmoothnessField
    field_u: SmoothnessField
    stat_v: float
    stat_u: float


class _Evaluator:
    """Solves at given lambdas and summarizes both smoothness statistics."""

    def __init__(self, system: LinearSystem, targets: SmoothnessTargets):
        self.system = system
        self.targets = targets
        self.point_v = targets.selected_point_v or default_selected_point_v(system.layout)
        self.point_u = targets.selected_point_u or default_selected_point_u(system.layout)
        self.solves = 0

    def __call__(self, lambda1: float, lambda2: float) -> _Probe | None:
        """A probe, or None when the system is singular at these lambdas."""
        self.solves += 1
        try:
            fit = solve(self.system, lambda1, lambda2)
        except SingularSystem:
            return None
        # Correlations are scale-free, so the unit covariance works even
        # when sigma2 is unavailable or zero.
        field_v = smoothness_field(fit.unit_cov_v, fit.layout.level_shape)
        field_u = smoothness_field(fit.unit_cov_u, fit.layout.trend_shape)
        return _Probe(
            fit=fit,
            field_v=field_v,
            field_u=field_u,
            stat_v=fstat(field_v, self.targets.fstat_kind, self.point_v),
            stat_u=fstat(field_u, self.targets.fstat_kind, self.point_u),
        )

    def log_errors(self, probe: _Probe) -> tuple[float, float]:
        ev = abs(_safe_log(probe.stat_v) - math.log(self.targets.f_smv))
        eu = abs(_safe_log(probe.stat_u) - math.log(self.targets.f_smu))
        return ev, eu

    def report(self, probe: _Probe, converged: bool) -> SmoothnessReport:
        return SmoothnessReport(
            f_v=probe.field_v.vector,
            f_u=probe.field_u.vector,
            stat_v=probe.stat_v,
            stat_u=probe.stat_u,
            lambda1=probe.fit.lambda1,
            lambda2=probe.fit.lambda2,
            iterations=self.solves,
            converged=converged,
            zero_variance_v=probe.field_v.any_zero_variance,
            zero_variance_u=probe.field_u.any_zero_variance,
        )


def _bisect_coordinate(
    evaluate: _Evaluator,
    which: int,
    fixed: float,
    target: float,
    tol: float,
    budget: int,
) -> tuple[float, _Probe]:
    """Bisection in log10-lambda for one coordinate, the other held fixed.

    Relies on the statistic decreasing in its own lambda.  A singular probe
    at the top of the bracket means the penalty has overwhelmed the data
    (maximally smooth); at the bottom it means the data are too sparse for
    the remaining regularization (maximally rough).  Raises
    TargetUnreachable when valid bracket ends do not straddle the target.
    """

    def probe_at(lg: float, singular_sign: float) -> tuple[float, _Probe | None]:
        lam = 10.0**lg
        args = (lam, fixed) if which == 0 else (fixed, lam)
        p = evaluate(*args)
        if p is None:
            return singular_sign * math.inf, None
        stat = p.stat_v if which == 0 else p.stat_u
        return _safe_log(stat) - math.log(target), p

    name = "level" if which == 0 else "trend"
    lo, hi = LOG10_LO, LOG10_HI
    g_hi, p_hi = probe_at(hi, singular_sign=-1.0)
    if p_hi is not None and g_hi > tol:
        raise TargetUnreachable(
            f"{name} smoothness stays above target {target} even at lambda=1e10",
            fit=p_hi.fit,
        )
    if p_hi is not None and abs(g_hi) <= tol:
        return hi, p_hi
    g_lo, p_lo = probe_at(lo, singular_sign=+1.0)
    if p_lo is not None and g_lo < -tol:
        raise TargetUnreachable(
            f"{name} smoothness is below target {target} already at lambda=1e-8",
            fit=p_lo.fit,
        )
    if p_lo is not None and abs(g_lo) <= tol:
        return lo, p_lo
    if p_lo is None and p_hi is None:
        best = None
    else:
        best = (abs(g_lo), lo, p_lo) if p_lo is not None else (abs(g_hi), hi, p_hi)
    while evaluate.solves < budget:
        mid = 0.5 * (lo + hi)
        g_mid, p_mid = probe_at(mid, singular_sign=-1.0)
        if p_mid is not None and abs(g_mid) <= tol:
            return mid, p_mid
        if p_mid is not None and (best is None or abs(g_mid) < best[0]):
            best = (abs(g_mid), mid, p_mid)
        if g_mid > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    if best is None:
        raise SingularSystem(f"no solvable lambda found for the {name} coordinate")
    return best[1], best[2]


def tune(
    system: LinearSystem,
    targets: SmoothnessTargets,
    max_solves: int = 200,
    max_sweeps: int = 10,
) -> tuple[FitResult, SmoothnessReport]:
    """Find lambdas meeting both smoothness targets within `targets.delta`.

    Alternates bisection on lambda1 (level statistic) and lambda2 (trend
    statistic) until the joint log-scale condition holds.  Raises
    NoConvergence with the best attempt attached if the budget runs out.
    """
    evaluate = _Evaluator(system, targets)

    lg1 = 0.5 * (LOG10_LO + LOG10_HI)
    lg2 = 0.5 * (LOG10_LO + LOG10_HI)
    if math.isinf(targets.delta):
        probe = evaluate(10.0**lg1, 10.0**lg2)
        if probe is None:
            raise SingularSystem("system is singular at the bracket midpoint lambdas")
        return probe.fit, evaluate.report(probe, converged=True)

    inner_tol = 0.4 * targets.delta
    probe = None
    best: tuple[float, _Probe] | None = None
    for _ in range(max_sweeps):
        lg1, probe = _bisect_coordinate(
            evaluate, 0, 10.0**lg2, targets.f_smv, inner_tol, max_solves
        )
        lg2, probe = _bisect_coordinate(
            evaluate, 1, 10.0**lg1, targets.f_smu, inner_tol, max_solves
        )
        ev, eu = evaluate.log_errors(probe)
        err = max(ev, eu)
        if best is None or err < best[0]:
            best = (err, probe)
        if err <= targets.delta:
            return probe.fit, evaluate.report(probe, converged=True)
        if evaluate.solves >= max_solves:
            break
    err, probe = best
    raise NoConvergence(
        f"tuner used {evaluate.solves} solves; best joint log error {err:.4f} "
        f"exceeds delta {targets.delta}",
        fit=probe.fit,
        report=evaluate.report(probe, converged=False),
    )
