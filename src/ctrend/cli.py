"""Command-line pipeline: simulate, aggregate, and analyze.

`analyze` runs ingestion, optional lambda tuning, the penalized fit, and
cluster inference, then writes five artifacts into the output directory:
levels.csv, ctrends.csv, clusters.csv, comparisons.csv, and run.json
(plus observed_means.csv when a display cell-count filter is given).
Outputs are byte-identical across runs for identical inputs: floats are
written with 12 significant digits, JSON keys are sorted, and nothing
time- or environment-dependent is recorded.

Configuration comes from an INI-style flat key=value file (section header
optional) with every key overridable by a command-line flag.  Exit codes:
0 success, 2 config error, 3 data error, 4 numerical error; failures print
a single JSON object with the error category to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .design import build_system_aggregated, build_system_raw
from .errors import ConfigError, CtrendError, NoObservations, SpecMismatch
from .grid import Frame
from .ingest import SCHEMAS, aggregate, load_measurements
from .inference import cluster_means, compare_adjacent
from .solver import solve
from .synth import SamplingPlan, TrueModel, full_coverage_plan, generate, survey_plan
from .tuner import FSTAT_KINDS, SmoothnessReport, SmoothnessTargets, tune

MODES = ("raw", "aggregated")


def _fmt(value) -> str:
    """Fixed 12-significant-digit rendering; empty for missing values."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return ""
    return format(v, ".12g")


@dataclass
class RunConfig:
    y_min: float
    y_max: float
    a_min: float
    a_max: float
    input: str | None = None
    mode: str = "aggregated"
    schema: str = "xya"
    f_smv: float = 0.2
    f_smu: float = 0.2
    delta: float = 0.05
    fstat: str = "selected-point"
    point_v: tuple[int, int] | None = None
    point_u: tuple[int, int] | None = None
    cluster_age: int = 5
    cluster_year: int = 5
    lambda1: float | None = None
    lambda2: float | None = None
    min_cell_count: int | None = None
    out: str = "."
    seed: int = 0
    model: str | None = None

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.schema not in SCHEMAS:
            raise ConfigError(f"schema must be one of {SCHEMAS}, got {self.schema!r}")
        if (self.lambda1 is None) != (self.lambda2 is None):
            raise ConfigError("lambda1 and lambda2 must be overridden together")
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if v is not None and not 0 <= v < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        if self.cluster_age < 1 or self.cluster_year < 1:
            raise ConfigError("cluster sizes must be positive integers")
        if self.min_cell_count is not None and self.min_cell_count < 0:
            raise ConfigError("min_cell_count must be >= 0")

    def frame(self) -> Frame:
        try:
            return Frame.from_bounds(self.y_min, self.y_max, self.a_min, self.a_max)
        except TypeError as exc:
            raise ConfigError(f"frame bounds missing or invalid: {exc}") from exc

    def targets(self) -> SmoothnessTargets:
        return SmoothnessTargets(
            f_smv=self.f_smv,
            f_smu=self.f_smu,
            delta=self.delta,
            fstat_kind=self.fstat,
            selected_point_v=self.point_v,
            selected_point_u=self.point_u,
        )


_FLOAT_KEYS = ("y_min", "y_max", "a_min", "a_max", "f_smv", "f_smu", "delta",
               "lambda1", "lambda2")
_INT_KEYS = ("cluster_age", "cluster_year", "min_cell_count", "seed")
_STR_KEYS = ("input", "mode", "schema", "fstat", "out", "model")
_POINT_KEYS = ("point_v", "point_u")


def _parse_point(text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"grid point must be 'i,j', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"grid point must be two integers, got {text!r}") from exc


def _read_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not text.lstrip().startswith("["):
        text = "[run]\n" + text
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    values: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            key = key.strip().lower()
            try:
                if key in _FLOAT_KEYS:
                    values[key] = float(raw)
                elif key in _INT_KEYS:
                    values[key] = int(raw)
                elif key in _STR_KEYS:
                    values[key] = raw.strip()
                elif key in _POINT_KEYS:
                    values[key] = _parse_point(raw)
                else:
                    raise ConfigError(f"unknown config key {key!r}")
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    return values


def _build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for key in _FLOAT_KEYS + _INT_KEYS + _STR_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    for key in _POINT_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = _parse_point(flag)
    for bound in ("y_min", "y_max", "a_min", "a_max"):
        if bound not in values:
            raise ConfigError(f"frame bound {bound} not set (flag or config file)")
    try:
        config = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    config.validate()
    return config


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_surface_csv(path: Path, frame: Frame, estimate, stderr, ci_half) -> None:
    header = ["year", "age", "estimate", "stderr", "ci_lo", "ci_hi"]
    rows = []
    nrows, ncols = estimate.shape
    for i in range(nrows):
        for j in range(ncols):
            e = estimate[i, j]
            se = None if stderr is None else stderr[i, j]
            lo = None if se is None else e - ci_half[i, j]
            hi = None if se is None else e + ci_half[i, j]
            rows.append(
                [frame.i_min + i, frame.j_min + j, _fmt(e), _fmt(se), _fmt(lo), _fmt(hi)]
            )
    _write_csv(path, header, rows)


def _run_analyze(args: argparse.Namespace) -> int:
    config = _build_config(args)
    frame = config.frame()
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not config.input:
        raise ConfigError("analyze needs an input file")

    measurements, report = load_measurements(config.input, config.schema, frame)
    if not measurements:
        raise NoObservations(f"no usable observations in {config.input}")

    cells = aggregate(measurements, frame)
    if config.mode == "raw":
        system = build_system_raw(frame, measurements)
    else:
        system = build_system_aggregated(frame, cells)

    if config.lambda1 is not None:
        fit = solve(system, config.lambda1, config.lambda2)
        tuner_status = "skipped"
        smoothness: SmoothnessReport | None = None
    else:
        fit, smoothness = tune(system, config.targets())
        tuner_status = "converged"

    grid = cluster_means(fit, config.cluster_age, config.cluster_year)
    comparisons = compare_adjacent(grid)

    level_se = fit.level_stderr()
    trend_se = fit.trend_stderr()
    _write_surface_csv(
        out_dir / "levels.csv", frame, fit.v_hat, level_se,
        None if level_se is None else fit.ci_halfwidth(level_se),
    )
    _write_surface_csv(
        out_dir / "ctrends.csv", frame, fit.u_hat, trend_se,
        None if trend_se is None else fit.ci_halfwidth(trend_se),
    )

    cluster_rows = []
    for p, (ylo, yhi) in enumerate(grid.year_bands):
        for q, (alo, ahi) in enumerate(grid.age_bands):
            k = grid.flat(p, q)
            cluster_rows.append([
                frame.i_min + ylo, frame.i_min + yhi,
                frame.j_min + alo, frame.j_min + ahi,
                (yhi - ylo + 1) * (ahi - alo + 1),
                _fmt(grid.means[p, q]),
                _fmt(math.sqrt(max(grid.cov[k, k], 0.0))),
            ])
    _write_csv(
        out_dir / "clusters.csv",
        ["year_lo", "year_hi", "age_lo", "age_hi", "n_cells", "estimate", "stderr"],
        cluster_rows,
    )

    comparison_rows = [
        [
            c.direction,
            c.cluster_a[0], c.cluster_a[1], c.cluster_b[0], c.cluster_b[1],
            _fmt(c.diff), _fmt(c.f_value), _fmt(c.p_value), _fmt(c.testable),
        ]
        for c in comparisons
    ]
    _write_csv(
        out_dir / "comparisons.csv",
        ["direction", "year_band_a", "age_band_a", "year_band_b", "age_band_b",
         "diff", "f_value", "p_value", "testable"],
        comparison_rows,
    )

    if config.min_cell_count is not None:
        observed = [
            [frame.i_min + c.cell.i, frame.j_min + c.cell.j, _fmt(c.x_bar), c.n]
            for c in cells
            if c.n > config.min_cell_count
        ]
        _write_csv(out_dir / "observed_means.csv", ["year", "age", "mean", "n"], observed)

    run_info = {
        "version": __version__,
        "mode": config.mode,
        "frame": {
            "y_min": frame.y_min, "y_max": frame.y_max,
            "a_min": frame.a_min, "a_max": frame.a_max,
            "i_span": frame.i_span, "j_span": frame.j_span,
        },
        "n_obs": fit.n_obs,
        "n_cells": len(cells),
        "lambda1": fit.lambda1,
        "lambda2": fit.lambda2,
        "sigma2": fit.sigma2_hat,
        "dof": fit.dof,
        "edf": fit.edf,
        "condition": fit.condition,
        "s0": fit.s0,
        "s1": fit.s1,
        "s2": fit.s2,
        "tuner": tuner_status,
        "converged": True if smoothness is None else smoothness.converged,
        "iterations": 1 if smoothness is None else smoothness.iterations,
        "smoothness": None if smoothness is None else {
            "stat_v": smoothness.stat_v,
            "stat_u": smoothness.stat_u,
            "target_v": config.f_smv,
            "target_u": config.f_smu,
            "delta": config.delta,
        },
        "validation": report.as_dict(),
    }
    with open(out_dir / "run.json", "w", encoding="utf-8") as handle:
        json.dump(run_info, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return 0


def _load_model(path: str, frame: Frame) -> tuple[TrueModel, SamplingPlan]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecMismatch(f"model file {path} is not valid JSON: {exc}") from exc
    try:
        model = TrueModel(
            frame=frame,
            v0_true=np.asarray(raw["v0"], dtype=float),
            u_true=np.asarray(raw["u"], dtype=float),
            noise_sd=float(raw.get("noise_sd", 0.0)),
        )
    except KeyError as exc:
        raise SpecMismatch(f"model file misses field {exc}") from exc
    plan_spec = raw.get("plan", {"kind": "full"})
    kind = plan_spec.get("kind", "full")
    fractions = tuple(float(t) for t in plan_spec.get("fractions", (0.25, 0.75)))
    per_fraction = int(plan_spec.get("per_fraction", 1))
    if kind == "full":
        plan = full_coverage_plan(frame, fractions, per_fraction)
    elif kind == "survey":
        waves = tuple(int(w) for w in plan_spec.get("wave_years", ()))
        if not waves:
            raise SpecMismatch("survey plan needs wave_years")
        plan = survey_plan(frame, waves, fractions, per_fraction)
    else:
        raise SpecMismatch(f"unknown plan kind {kind!r}")
    return model, plan


def _run_simulate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    frame = config.frame()
    if not config.model:
        raise ConfigError("simulate needs a model file (--model)")
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model, plan = _load_model(config.model, frame)
    measurements = generate(model, plan, config.seed)
    rows = [[_fmt(m.x), _fmt(m.y), _fmt(m.a)] for m in measurements]
    _write_csv(out_dir / "dataset.csv", ["x", "year", "age"], rows)
    truth = {
        "frame": {
            "y_min": frame.y_min, "y_max": frame.y_max,
            "a_min": frame.a_min, "a_max": frame.a_max,
        },
        "v0": [float(v) for v in model.v0_true],
        "u": [[float(v) for v in row] for row in model.u_true],
        "noise_sd": model.noise_sd,
        "seed": config.seed,
        "n_measurements": len(measurements),
    }
    with open(out_dir / "truth.json", "w", encoding="utf-8") as handle:
        json.dump(truth, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return 0


def _run_aggregate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    frame = config.frame()
    if not config.input:
        raise ConfigError("aggregate needs an input file")
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    measurements, report = load_measurements(config.input, config.schema, frame)
    if not measurements:
        raise NoObservations(f"no usable observations in {config.input}")
    cells = aggregate(measurements, frame)
    rows = [
        [frame.i_min + c.cell.i, frame.j_min + c.cell.j,
         _fmt(c.x_bar), _fmt(c.y_bar), c.n, _fmt(c.css)]
        for c in cells
    ]
    _write_csv(
        out_dir / "aggregated.csv",
        ["year", "age", "x_bar", "y_bar", "n", "css"],
        rows,
    )
    with open(out_dir / "aggregate_report.json", "w", encoding="utf-8") as handle:
        json.dump(report.as_dict(), handle, sort_keys=True, indent=2)
        handle.write("\n")
    return 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI-style key=value config file")
    parser.add_argument("--y-min", dest="y_min", type=float)
    parser.add_argument("--y-max", dest="y_max", type=float)
    parser.add_argument("--a-min", dest="a_min", type=float)
    parser.add_argument("--a-max", dest="a_max", type=float)
    parser.add_argument("--out", dest="out", help="output directory")
    parser.add_argument("--seed", dest="seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrend",
        description="Cohort-trend estimation from repeated cross-sectional surveys",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="fit the model and write analysis artifacts")
    _add_common_flags(analyze)
    analyze.add_argument("--input", dest="input", help="measurement CSV")
    analyze.add_argument("--mode", dest="mode", choices=MODES)
    analyze.add_argument("--schema", dest="schema", choices=SCHEMAS)
    analyze.add_argument("--f-smv", dest="f_smv", type=float)
    analyze.add_argument("--f-smu", dest="f_smu", type=float)
    analyze.add_argument("--delta", dest="delta", type=float)
    analyze.add_argument("--fstat", dest="fstat", choices=FSTAT_KINDS)
    analyze.add_argument("--point-v", dest="point_v", help="0-based 'i,j' probe for levels")
    analyze.add_argument("--point-u", dest="point_u", help="0-based 'i,j' probe for trends")
    analyze.add_argument("--cluster-age", dest="cluster_age", type=int)
    analyze.add_argument("--cluster-year", dest="cluster_year", type=int)
    analyze.add_argument("--lambda1", dest="lambda1", type=float)
    analyze.add_argument("--lambda2", dest="lambda2", type=float)
    analyze.add_argument("--min-cell-count", dest="min_cell_count", type=int,
                         help="also write observed_means.csv for cells above this count")
    analyze.set_defaults(run=_run_analyze)

    simulate = sub.add_parser("simulate", help="generate a synthetic dataset")
    _add_common_flags(simulate)
    simulate.add_argument("--model", dest="model", help="ground-truth model JSON")
    simulate.set_defaults(run=_run_simulate)

    agg = sub.add_parser("aggregate", help="aggregate a dataset without fitting")
    _add_common_flags(agg)
    agg.add_argument("--input", dest="input", help="measurement CSV")
    agg.add_argument("--schema", dest="schema", choices=SCHEMAS)
    agg.set_defaults(run=_run_aggregate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except CtrendError as exc:
        print(
            json.dumps({"error": exc.category, "message": str(exc)}, sort_keys=True),
            file=sys.stderr,
        )
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
