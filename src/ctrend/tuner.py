"""Selection of the penalty weights from smoothness targets.

The control quantity per adjacent pair of surface estimates is 1 - r^2,
with r their correlation: the fraction of variance not explained by the
neighbor ("new information").  `tune` drives a summary statistic of the level
indicators (by lambda1) and of the trend indicators (by lambda2) to its target:
it solves g(lg) = log(statistics / targets) = 0 for lg = log10-lambda in
[-8, 10]^2 by projected Newton steps.  Every solve gives dg/dlg from the
pairs its statistics read: exact for `selected-point`, `median` and `min`, and
for `mean` an estimate from MEAN_PAIRS pairs at evenly spaced ranks.  The
Newton step is taken on that Jacobian and on its floored diagonal, which
moves each weight on its own statistic (`tune`).  The iteration runs to a
root tolerance far inside delta, so the lambdas depend on the design and the
targets alone.
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
LOG10_STEP = 2.0  # longest step, decades
ROOT_TOL = 1e-8  # joint log error at which the iteration stops
MEAN_PAIRS = 9  # pairs at evenly spaced ranks whose slope estimates the mean's
HALVINGS = 4  # probes per line search
ARMIJO = 1e-4  # sufficient decrease of |g|^2 per unit step fraction
MAX_SOLVES = 200
WEIGHT_NAMES = ("level", "trend")  # lambda1, lambda2
FSTAT_KINDS = ("selected-point", "mean", "median", "min")


@dataclass(frozen=True)
class SmoothnessField:
    """Local 1 - r^2 indicators for one surface.

    `age` holds pairs ((i,j), (i,j+1)) as an nrows x (ncols-1) grid, `year`
    pairs ((i,j), (i+1,j)) as (nrows-1) x ncols; a pair where a variance
    vanished reads 1.  `vector` is the age block then the year block, each
    row-major.
    """

    age: np.ndarray
    year: np.ndarray

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.age.ravel(), self.year.ravel()])


def _pair_indicator(cov: np.ndarray, k1: np.ndarray, k2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v1 = cov[k1, k1]
    v2 = cov[k2, k2]
    c12 = cov[k1, k2]
    zero = (v1 <= 0.0) | (v2 <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(zero, 0.0, c12**2 / np.where(zero, 1.0, v1 * v2))
    f = np.where(zero, 1.0, np.clip(1.0 - r2, 0.0, 1.0))
    return f, zero


def _field_pairs(shape: tuple[int, int]) -> np.ndarray:
    """The flat surface indices (k1, k2) of every pair, one row per pair in
    `SmoothnessField.vector` order."""
    grid = np.arange(shape[0] * shape[1]).reshape(shape)
    k1 = np.r_[grid[:, :-1].ravel(), grid[:-1].ravel()]
    return np.column_stack([k1, np.r_[grid[:, 1:].ravel(), grid[1:].ravel()]])


def smoothness_field(cov: np.ndarray, shape: tuple[int, int]) -> SmoothnessField:
    """Indicators for all age- and year-adjacent pairs of a flattened surface.

    `cov` is a dense covariance or a band accessor of a fit
    (`FitResult.unit_cov_v_band`, `unit_cov_u_band`); only `cov.shape` and
    `cov[k1, k2]` with index arrays are read.
    """
    nrows, ncols = shape
    if cov.shape != (nrows * ncols, nrows * ncols):
        raise ValueError(f"covariance shape {cov.shape} does not match surface {shape}")
    f = _pair_indicator(cov, *_field_pairs(shape).T)[0]
    n_age = nrows * (ncols - 1)
    return SmoothnessField(f[:n_age].reshape(nrows, ncols - 1), f[n_age:].reshape(nrows - 1, ncols))


def _read_pairs(vector: np.ndarray, kind: str) -> np.ndarray:
    """Positions in a field vector of the pairs a whole-field statistic reads:
    the lowest for `min`, the middle one or two for `median`, and for `mean`
    MEAN_PAIRS at evenly spaced ranks (the midpoints of equal rank blocks)."""
    n = len(vector)
    ranks = {
        "min": [0],
        "median": np.unique([(n - 1) // 2, n // 2]),
        "mean": ((np.arange(MEAN_PAIRS) + 0.5) * n / MEAN_PAIRS).astype(int),
    }[kind]
    return np.argsort(vector, kind="stable")[ranks]


def fstat(field: SmoothnessField, kind: str, selected: tuple[int, int] | None = None) -> float:
    """Summary statistic of a smoothness field.

    `median` and `min` are the mean of the pairs they read (`_read_pairs`).
    For ``selected-point`` the 0-based (i, j) coordinates index the
    age-block pair grid.
    """
    if kind not in FSTAT_KINDS:
        raise IndexOutOfRange(f"fstat kind must be one of {FSTAT_KINDS}, got {kind!r}")
    if kind == "mean":
        return float(np.mean(field.vector))
    if kind != "selected-point":
        return float(np.mean(field.vector[_read_pairs(field.vector, kind)]))
    if selected is None:
        raise IndexOutOfRange("selected-point fstat needs a grid point")
    return float(field.vector[_age_pair(selected, field.age.shape)])


def _age_pair(point: tuple[int, int], pairs: tuple[int, int]) -> int:
    """The field-vector position of `point` on the `pairs`-shaped age-pair
    grid; IndexOutOfRange when it lies outside."""
    (i, j), (nrows, ncols) = point, pairs
    if not (0 <= i < nrows and 0 <= j < ncols):
        raise IndexOutOfRange(f"selected point ({i}, {j}) outside age-block grid {pairs}")
    return i * ncols + j


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
    """Targets and acceptance bound for the tuner.

    `delta` bounds the absolute log-distance of both statistics from their
    targets that a tune accepts: the iteration runs on to ROOT_TOL, and
    delta decides whether its best probe counts as converged.  `math.inf`
    accepts the first solve, at lambda1 = lambda2 = 10, without tuning.
    """

    f_smv: float = 0.2
    f_smu: float = 0.2
    delta: float = 0.05
    fstat_kind: str = "selected-point"
    selected_point_v: tuple[int, int] | None = None
    selected_point_u: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        for name, value in (("f_smv", self.f_smv), ("f_smu", self.f_smu)):
            if not 0.0 < value < 1.0:
                raise IndexOutOfRange(f"{name} must lie strictly inside (0, 1), got {value!r}")
        if not self.delta > 0:
            raise IndexOutOfRange(f"delta must be positive, got {self.delta!r}")
        if self.fstat_kind not in FSTAT_KINDS:
            raise IndexOutOfRange(f"unknown fstat kind {self.fstat_kind!r}")

    def selected_pairs(self, layout) -> list[list[int]] | None:
        """Field-vector positions of the level and trend pairs at the selected points (None
        unless `selected-point`); IndexOutOfRange when a point lies outside its grid."""
        if self.fstat_kind != "selected-point":
            return None
        points = (self.selected_point_v or default_selected_point_v(layout),
                  self.selected_point_u or default_selected_point_u(layout))
        grids = [(rows, cols - 1) for rows, cols in (layout.level_shape, layout.trend_shape)]
        return [[_age_pair(point, grid)] for point, grid in zip(points, grids)]


@dataclass
class SmoothnessReport:
    stat_v: float
    stat_u: float
    lambda1: float
    lambda2: float
    iterations: int
    converged: bool


@dataclass
class _Probe:
    """One solve at lambdas 10**lg: g(lg) as `error`, -inf when the system
    was singular, and dg/dlg of every solvable probe (None when singular).
    Each iteration drops `fit` unless the probe is its current or the best."""

    lg: tuple[float, float]
    error: np.ndarray
    fit: FitResult | None = None
    stat_v: float = math.nan
    stat_u: float = math.nan
    jacobian: np.ndarray | None = None


def _pair_columns(layout, read: list[np.ndarray]) -> np.ndarray:
    """dim x 2n map from the level surface onto the two entries of each of the
    n pairs at field-vector positions `read` (level field, then trend field)."""
    shapes = (layout.level_shape, layout.trend_shape)
    level, trend = (_field_pairs(shape)[r].ravel() for r, shape in zip(read, shapes))
    columns = np.zeros((layout.dim, len(level)))
    columns[level, np.arange(len(level))] = 1.0
    return np.hstack([columns, build_v2u(layout)[trend].T.toarray()])


def _pair_sensitivity(cov: np.ndarray, dcovs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The indicator f = 1 - r^2 of each pair of columns (2p, 2p + 1) of a
    covariance, and its change along each change in `dcovs` (one row each):
    df = -d r^2 = -2 c12 dc12 / (v1 v2) + r^2 (dv1 / v1 + dv2 / v2).  It
    is zero where `_pair_indicator` pins f to 1, and where f is 0."""
    k1, k2 = np.arange(0, len(cov), 2), np.arange(1, len(cov), 2)
    f, zero = _pair_indicator(cov, k1, k2)
    v1, v2, c12, r2 = cov[k1, k1], cov[k2, k2], cov[k1, k2], 1 - f
    with np.errstate(divide="ignore", invalid="ignore"):
        dr2 = [2 * c12 * d[k1, k2] / (v1 * v2) - r2 * (d[k1, k1] / v1 + d[k2, k2] / v2) for d in dcovs]
    return f, np.where(zero | (f <= 0.0), 0.0, -np.array(dr2))


class _Evaluator:
    """Solves at given log10-lambdas and summarizes both smoothness statistics.

    `probes` records every probe in solve order, singular ones included;
    `best` is the solvable one of least joint error.  No probe forms a dense
    covariance: it solves M X = R for the columns R (`_pair_columns`) of the
    pairs its statistics read, the selected pairs or those `_read_pairs` picks
    from the band's fields.  C = R^T X, and dM/dlg_k = lambda_k ln 10 P_k^T P_k
    (P_k the penalty of weight k) gives dC/dlg_k = -lambda_k ln 10 (P_k X)^T
    (P_k X).  A statistic's row of dg/dlg is sum df / sum f over its pairs; its
    value is its pair's f for `selected-point` and read off the band otherwise.
    """

    def __init__(self, system: LinearSystem, targets: SmoothnessTargets):
        self.system = system
        self.targets = targets
        self.log_targets = np.log([targets.f_smv, targets.f_smu])
        layout = system.layout
        self.read = targets.selected_pairs(layout)
        self.columns = None if self.read is None else _pair_columns(layout, self.read)
        self.probes: list[_Probe] = []
        self.best: _Probe | None = None

    def __call__(self, lg: tuple[float, float]) -> _Probe:
        """The probe at lambdas 10**lg, appended to `probes`."""
        probe = _Probe(lg, np.full(2, -np.inf))
        self.probes.append(probe)
        try:
            probe.fit = fit = solve(self.system, 10.0 ** lg[0], 10.0 ** lg[1])
        except SingularSystem:
            return probe
        # Correlations are scale-free: the unit covariance serves without sigma2.
        layout, kind = self.system.layout, self.targets.fstat_kind
        read, columns, stats = self.read, self.columns, None
        if read is None:
            fields = [smoothness_field(fit.unit_cov_v_band, layout.level_shape),
                      smoothness_field(fit.unit_cov_u_band, layout.trend_shape)]
            stats = [fstat(field, kind) for field in fields]
            read = [_read_pairs(field.vector, kind) for field in fields]
            columns = _pair_columns(layout, read)
        x = fit.unit_cov_v_band.solve(columns)
        weights = ((fit.lambda1, self.system.penalty_v), (fit.lambda2, self.system.penalty_u))
        dcovs = [-lam * math.log(10.0) * (p @ x).T @ (p @ x) for lam, p in weights]
        f, df = _pair_sensitivity(columns.T @ x, dcovs)
        sums = np.add.reduceat(np.vstack([f, df]), [0, len(read[0])], axis=1)  # by statistic
        probe.jacobian = np.divide(sums[1:], sums[0], out=np.zeros((2, 2)), where=sums[0] > 0).T
        probe.stat_v, probe.stat_u = stats or sums[0].tolist()  # one selected pair each
        with np.errstate(divide="ignore"):
            probe.error = np.log([probe.stat_v, probe.stat_u]) - self.log_targets
        if self.best is None or self.joint_error(probe) < self.joint_error(self.best):
            self.best = probe
        return probe

    def release(self, current: _Probe) -> None:
        """Drop the fits of every probe but `current` and `best`."""
        for q in self.probes:
            if q is not current and q is not self.best:
                q.fit = None

    @staticmethod
    def joint_error(probe: _Probe) -> float:
        return float(np.max(np.abs(probe.error)))

    def report(self, probe: _Probe, converged: bool) -> SmoothnessReport:
        return SmoothnessReport(stat_v=probe.stat_v, stat_u=probe.stat_u, lambda1=probe.fit.lambda1,
                                lambda2=probe.fit.lambda2, iterations=len(self.probes), converged=converged)


def _newton_step(lg: np.ndarray, error: np.ndarray, jacobian: np.ndarray, box: np.ndarray) -> tuple:
    """The projected Newton step on g by `jacobian` and the weights it moves:
    a weight at an end of its range whose step points past it is held there,
    and the step is taken again for the others."""
    free = [0, 1]
    while free:
        step = np.zeros(2)
        step[free] = np.linalg.lstsq(jacobian[np.ix_(free, free)], -error[free], rcond=None)[0]
        held = [k for k in free if step[k] != 0 and lg[k] == box[k, int(step[k] > 0)]]
        if not held:
            return step, free
        free.remove(held[0])
    return np.zeros(2), free


def _line_search(evaluate, probe, step, free, box, probed_ends) -> _Probe | None:
    """The first probe along `step` (capped at LOG10_STEP decades, projected
    onto the weights' ranges, then halved) that lowers |g|^2 over the free
    weights sufficiently (Dennis & Schnabel 1983, A6.3.1), or None.

    Before it, a statistic whose own slope cannot cover its error over the
    range left toward the end it heads for is probed once at that end, the
    one with the largest error first; that probe is taken while the
    statistic is still short of its target there.
    """
    lg, error, jacobian = np.array(probe.lg), probe.error, probe.jacobian
    fraction = LOG10_STEP / max(LOG10_STEP, *np.abs(step))
    trial = np.clip(lg + fraction * step, box[:, 0], box[:, 1])
    ends = np.where(step > 0, box[:, 1], box[:, 0])
    short = [k for k in free if 0 < -error[k] * jacobian[k, k] * (ends[k] - lg[k]) < error[k] ** 2]
    short = [k for k in short if (k, ends[k]) not in probed_ends]
    if short and len(evaluate.probes) < MAX_SOLVES:
        k = max(short, key=lambda k: abs(error[k]))
        probed_ends.add((k, ends[k]))
        q = evaluate(tuple(np.where(np.arange(2) == k, ends, trial)))
        if np.isfinite(q.error[k]) and q.error[k] * error[k] > 0:
            return q
    merit = np.sum(error[free] ** 2)
    for _ in range(HALVINGS):
        if len(evaluate.probes) >= MAX_SOLVES:
            return None
        q = evaluate(tuple(trial))
        if np.sum(q.error[free] ** 2) < (1 - 2 * ARMIJO * fraction) * merit:
            return q
        trial, fraction = 0.5 * (lg + trial), 0.5 * fraction
        if q.jacobian is None:  # singular: the furthest-moved weight's range ends at the next halving point
            far = np.flatnonzero(np.abs(trial - lg) == np.max(np.abs(trial - lg)))  # both on a tie
            box[far, (trial > lg)[far].astype(int)] = trial[far]
    return None


def tune(system: LinearSystem, targets: SmoothnessTargets) -> tuple[FitResult, SmoothnessReport]:
    """Find lambdas meeting both smoothness targets within `targets.delta`.

    From lg = (1, 1) each iteration line-searches the projected Newton step on
    g (Dennis & Schnabel 1983, ch. 6) on two Jacobians: the probe's, and its
    diagonal with slope k floored at -|g_k| / LOG10_STEP, which moves each
    weight on its own statistic.  The probe's goes first where it shows each
    statistic falling mainly in its own weight, or once the joint error is
    within delta; the diagonal goes first elsewhere, so that a local slope
    does not lead the iteration into a region where a weight stops mattering.
    The iteration stops at the root (ROOT_TOL); when the first step holds a
    weight at an end of its range: a bound, or the last solvable point before
    a singular probe, and every other weight is within delta
    (TargetUnreachable, current fit, unless an earlier probe was within
    delta); when neither step lowers the error; or after MAX_SOLVES solves.
    It returns the best probe if that is within delta, and else raises
    NoConvergence with the best probe.
    """
    evaluate = _Evaluator(system, targets)
    probe = evaluate((1.0, 1.0))
    if probe.jacobian is None:
        raise SingularSystem("system is singular at the starting lambdas")
    if math.isinf(targets.delta):
        return probe.fit, evaluate.report(probe, converged=True)
    box = np.array([[LOG10_LO, LOG10_HI]] * 2)  # the range of each weight's lg
    probed_ends: set[tuple[int, float]] = set()
    held: list[int] = []
    while evaluate.joint_error(probe) > ROOT_TOL and len(evaluate.probes) < MAX_SOLVES:
        evaluate.release(probe)
        lg, error, jacobian = np.array(probe.lg), probe.error, probe.jacobian
        jacobians = [jacobian, np.diag(np.minimum(np.diag(jacobian), -np.abs(error) / LOG10_STEP))]
        own_first = any(jacobian[k, k] >= -abs(jacobian[k, 1 - k]) for k in (0, 1))
        if own_first and evaluate.joint_error(probe) > targets.delta:
            jacobians.reverse()
        steps = [_newton_step(lg, error, j, box) for j in jacobians]
        free = steps[0][1]
        if len(free) < 2 and np.all(np.abs(error[free]) <= targets.delta):
            held = [k for k in (0, 1) if k not in free]
            break
        candidates = (
            _line_search(evaluate, probe, step, free, box, probed_ends)
            for step, free in steps
            if free
        )
        candidate = next((q for q in candidates if q is not None), None)
        if candidate is None:
            break
        probe = candidate

    best = evaluate.best
    if evaluate.joint_error(best) <= targets.delta:
        return best.fit, evaluate.report(best, converged=True)
    if held:
        message = "; ".join(
            f"{WEIGHT_NAMES[k]} smoothness stays {('below', 'above')[int(probe.error[k] > 0)]} "
            f"target {(targets.f_smv, targets.f_smu)[k]} at lambda=1e{probe.lg[k]:g}"
            for k in held
        )
        raise TargetUnreachable(message, fit=probe.fit, report=evaluate.report(probe, False))
    why = "out of budget" if len(evaluate.probes) >= MAX_SOLVES else "no step lowers the error"
    message = (
        f"tuner stopped after {len(evaluate.probes)} solves ({why}); best joint log error "
        f"{evaluate.joint_error(best):.4f} exceeds delta {targets.delta}"
    )
    raise NoConvergence(message, fit=best.fit, report=evaluate.report(best, converged=False))
