"""Command-line pipeline: simulate, aggregate, and analyze.

`analyze` runs ingestion, optional lambda tuning, the penalized fit, and
cluster inference and returns them without writing a file; the `analyze`
command then writes five artifacts into the output directory: levels.csv,
ctrends.csv, clusters.csv, comparisons.csv, and run.json (plus
observed_means.csv when a display cell-count filter is given).
Outputs are byte-identical across runs for identical inputs: floats are
written with 12 significant digits, JSON keys are sorted, and nothing
time- or environment-dependent is recorded.

Configuration comes from an INI-style flat key=value file (section header
optional) whose keys are the flag names with `-` turned into `_`; a flag
overrides the file.  A command accepts only the settings it reads, in the
file as on the command line.  Exit codes: 0 success, 2 config or usage
error, 3 data error, 4 numerical error; every failure, usage errors
included, prints a single JSON object with the error category to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .design import build_system_aggregated, build_system_raw
from .errors import ConfigError, CtrendError, NoObservations, SpecMismatch
from .grid import Frame
from .ingest import SCHEMAS, AggregatedCell, ValidationReport, aggregate, load_measurements
from .inference import ClusterGrid, ComparisonResult, cluster_means, compare_adjacent
from .solver import FitResult, solve
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


def _parse_point(text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"grid point must be 'i,j', got {text!r}")
    return int(parts[0]), int(parts[1])


def _setting(read, help: str, default=MISSING):
    """A `RunConfig` field with the reader and help of its flag and config key;
    the reader raises ValueError for a text that is no value of the setting."""
    return field(default=default, metadata={"read": read, "help": help})


def _one_of(options: tuple[str, ...], default: str):
    """A setting whose value is one of `options`."""

    def read(text: str) -> str:
        if text not in options:
            raise ValueError(f"{text!r} is not one of {', '.join(options)}")
        return text

    return _setting(read, f"one of {', '.join(options)}", default)


def _at_least(kind, low):
    """A reader of a finite `kind` number no smaller than `low`."""

    def read(text: str):
        value = kind(text)
        if not low <= value < math.inf:
            raise ValueError(f"{text!r} is not a finite number >= {low}")
        return value

    return read


@dataclass
class RunConfig:
    """Every setting; the flag is `--name-with-dashes`, the config key `name`."""

    y_min: float = _setting(float, "first year of the frame")
    y_max: float = _setting(float, "last year of the frame")
    a_min: float = _setting(float, "lowest age of the frame")
    a_max: float = _setting(float, "highest age of the frame")
    input: str | None = _setting(str, "measurement CSV", None)
    mode: str = _one_of(MODES, "aggregated")
    schema: str = _one_of(SCHEMAS, "xya")
    f_smv: float = _setting(float, "smoothness target of the levels", 0.2)
    f_smu: float = _setting(float, "smoothness target of the trends", 0.2)
    delta: float = _setting(float, "accepted log distance from the targets (tuned to 1e-8)", 0.05)
    fstat: str = _one_of(FSTAT_KINDS, "selected-point")
    point_v: tuple[int, int] | None = _setting(_parse_point, "0-based 'i,j' probe for levels", None)
    point_u: tuple[int, int] | None = _setting(_parse_point, "0-based 'i,j' probe for trends", None)
    cluster_age: int = _setting(_at_least(int, 1), "ages per cluster", 5)
    cluster_year: int = _setting(_at_least(int, 1), "years per cluster", 5)
    lambda1: float | None = _setting(_at_least(float, 0), "fixed level weight (skips tuning)", None)
    lambda2: float | None = _setting(_at_least(float, 0), "fixed trend weight (skips tuning)", None)
    min_cell_count: int | None = _setting(
        _at_least(int, 0), "also write observed_means.csv for cells above this count", None
    )
    out: str = _setting(str, "output directory", ".")
    seed: int = _setting(_at_least(int, 0), "random seed", 0)
    model: str | None = _setting(str, "ground-truth model JSON", None)

    def validate(self) -> None:
        if (self.lambda1 is None) != (self.lambda2 is None):
            raise ConfigError("lambda1 and lambda2 must be overridden together")

    def frame(self) -> Frame:
        return Frame.from_bounds(self.y_min, self.y_max, self.a_min, self.a_max)

    def targets(self) -> SmoothnessTargets:
        return SmoothnessTargets(
            f_smv=self.f_smv,
            f_smu=self.f_smu,
            delta=self.delta,
            fstat_kind=self.fstat,
            selected_point_v=self.point_v,
            selected_point_u=self.point_u,
        )


_SETTINGS = {f.name: f for f in fields(RunConfig)}


def _read_config_file(path: str, command: str, keys: tuple[str, ...]) -> dict[str, str]:
    """The text of each setting in the config file; `keys` are the command's."""
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
    texts: dict[str, str] = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            key = key.strip().lower()
            if key not in _SETTINGS:
                raise ConfigError(f"unknown config key {key!r}")
            if key not in keys:
                raise ConfigError(f"{key} is not a setting of {command}")
            texts[key] = raw
    return texts


def _build_config(args: argparse.Namespace) -> RunConfig:
    texts = _read_config_file(args.config, args.command, args.keys) if args.config else {}
    texts.update((key, getattr(args, key)) for key in args.keys if hasattr(args, key))
    values = {}
    for key, text in texts.items():
        try:
            values[key] = _SETTINGS[key].metadata["read"](text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc
    for name, setting in _SETTINGS.items():
        if setting.default is MISSING and name not in values:
            raise ConfigError(f"{name} not set (flag or config file)")
    config = RunConfig(**values)
    config.validate()
    return config


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_surfaces(out_dir: Path, frame: Frame, fit: FitResult) -> None:
    """levels.csv and ctrends.csv (`cluster_means` has required sigma2, so stderrs exist)."""
    for name, estimate, stderr in (
        ("levels.csv", fit.v_hat, fit.level_stderr()),
        ("ctrends.csv", fit.u_hat, fit.trend_stderr()),
    ):
        half = fit.ci_halfwidth(stderr)
        rows = [
            [frame.i_min + i, frame.j_min + j,
             *map(_fmt, (e, stderr[i, j], e - half[i, j], e + half[i, j]))]
            for (i, j), e in np.ndenumerate(estimate)
        ]
        _write_csv(out_dir / name, ["year", "age", "estimate", "stderr", "ci_lo", "ci_hi"], rows)


def _write_json(path: Path, value) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(value, handle, sort_keys=True, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _load(config: RunConfig, frame: Frame):
    """Accepted measurements, their validation report, and their cells."""
    measurements, report = load_measurements(config.input, config.schema, frame)
    if not measurements:
        raise NoObservations(f"no usable observations in {config.input}")
    return measurements, report, aggregate(measurements, frame)


@dataclass(frozen=True)
class Analysis:
    """One `analyze` run's results; `smoothness` is None at fixed lambdas."""

    cells: list[AggregatedCell]
    report: ValidationReport
    fit: FitResult
    smoothness: SmoothnessReport | None
    grid: ClusterGrid
    comparisons: list[ComparisonResult]


def analyze(config: RunConfig, frame: Frame) -> Analysis:
    """Fit (tuned unless both weights are fixed) and adjacent-cluster tests; writes no file."""
    measurements, report, cells = _load(config, frame)
    if config.mode == "raw":
        system = build_system_raw(frame, measurements)
    else:
        system = build_system_aggregated(frame, cells)
    if config.lambda1 is not None:
        fit, smoothness = solve(system, config.lambda1, config.lambda2), None
    else:
        fit, smoothness = tune(system, config.targets())
    grid = cluster_means(fit, config.cluster_age, config.cluster_year)
    return Analysis(cells, report, fit, smoothness, grid, compare_adjacent(grid))


def _run_analyze(config: RunConfig, frame: Frame, out_dir: Path) -> int:
    analysis = analyze(config, frame)
    fit, grid, smoothness = analysis.fit, analysis.grid, analysis.smoothness
    _write_surfaces(out_dir, frame, fit)

    stderr = np.sqrt(np.maximum(np.diag(grid.cov), 0.0)).reshape(grid.shape)
    cluster_rows = [
        [frame.i_min + ylo, frame.i_min + yhi, frame.j_min + alo, frame.j_min + ahi,
         (yhi - ylo + 1) * (ahi - alo + 1), _fmt(grid.means[p, q]), _fmt(stderr[p, q])]
        for p, (ylo, yhi) in enumerate(grid.year_bands)
        for q, (alo, ahi) in enumerate(grid.age_bands)
    ]
    _write_csv(
        out_dir / "clusters.csv",
        ["year_lo", "year_hi", "age_lo", "age_hi", "n_cells", "estimate", "stderr"],
        cluster_rows,
    )

    comparison_rows = [
        [c.direction, *c.cluster_a, *c.cluster_b,
         *map(_fmt, (c.diff, c.f_value, c.p_value, c.testable))]
        for c in analysis.comparisons
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
            for c in analysis.cells
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
        "n_cells": len(analysis.cells),
        "lambda1": fit.lambda1,
        "lambda2": fit.lambda2,
        "sigma2": fit.sigma2_hat,
        "dof": fit.dof,
        "edf": fit.edf,
        "condition": fit.condition,
        "n_silent": fit.n_silent,
        "s0": fit.s0,
        "s1": fit.s1,
        "s2": fit.s2,
        "tuner": "skipped" if smoothness is None else "converged",
        "converged": True if smoothness is None else smoothness.converged,
        "iterations": 1 if smoothness is None else smoothness.iterations,
        "smoothness": None if smoothness is None else {
            "stat_v": smoothness.stat_v,
            "stat_u": smoothness.stat_u,
            "target_v": config.f_smv,
            "target_u": config.f_smu,
            "delta": config.delta,
        },
        "validation": analysis.report.as_dict(),
    }
    _write_json(out_dir / "run.json", run_info)
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
        if not plan.entries:
            raise SpecMismatch("model plan places no measurement")
    except KeyError as exc:
        raise SpecMismatch(f"model file misses field {exc}") from exc
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise SpecMismatch(f"malformed model file {path}: {exc}") from exc
    return model, plan


def _run_simulate(config: RunConfig, frame: Frame, out_dir: Path) -> int:
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
    _write_json(out_dir / "truth.json", truth)
    return 0


def _run_aggregate(config: RunConfig, frame: Frame, out_dir: Path) -> int:
    _, report, cells = _load(config, frame)
    rows = [
        [frame.i_min + c.cell.i, frame.j_min + c.cell.j,
         _fmt(c.x_bar), _fmt(c.y_bar), c.n, _fmt(c.css)]
        for c in cells
    ]
    _write_csv(out_dir / "aggregated.csv", ["year", "age", "x_bar", "y_bar", "n", "css"], rows)
    _write_json(out_dir / "aggregate_report.json", report.as_dict())
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as `ConfigError`, so they print the JSON object too."""

    def error(self, message):
        raise ConfigError(message)


_COMMON_KEYS = ("y_min", "y_max", "a_min", "a_max", "out")
# (name, run, help, required key, own keys) of each command
_COMMANDS = (
    ("analyze", _run_analyze, "fit the model and write analysis artifacts", "input",
     ("input", "mode", "schema", "f_smv", "f_smu", "delta", "fstat", "point_v", "point_u",
      "cluster_age", "cluster_year", "lambda1", "lambda2", "min_cell_count")),
    ("simulate", _run_simulate, "generate a synthetic dataset", "model", ("model", "seed")),
    ("aggregate", _run_aggregate, "aggregate a dataset without fitting", "input",
     ("input", "schema")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ctrend",
        description="Cohort-trend estimation from repeated cross-sectional surveys",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help, required, keys in _COMMANDS:
        # no abbreviations: `--mode` would otherwise be `simulate --model`
        command = sub.add_parser(name, help=help, allow_abbrev=False)
        command.add_argument("--config", help="INI-style key=value config file")
        for key in _COMMON_KEYS + keys:
            command.add_argument(
                "--" + key.replace("_", "-"), dest=key, default=argparse.SUPPRESS,
                help=_SETTINGS[key].metadata["help"],
            )
        command.set_defaults(run=run, required=required, keys=_COMMON_KEYS + keys)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _build_config(args)
        frame = config.frame()
        if not getattr(config, args.required):
            raise ConfigError(f"{args.command} needs --{args.required}")
        out_dir = Path(config.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
        return args.run(config, frame, out_dir)
    except CtrendError as exc:
        record = {"error": exc.category, "message": str(exc)}
        report = getattr(exc, "report", None)  # a failed tune's best attempt
        if report is not None:
            record.update(lambda1=report.lambda1, lambda2=report.lambda2, stat_v=report.stat_v,
                          stat_u=report.stat_u, solves=report.iterations)
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
