"""Seeded inputs for the benchmark workloads, generated with numpy alone.

Nothing here imports ctrend: a change to the program cannot change the
inputs.  Every workload keeps the measurement placement (cells, year
fractions, ages) fixed and draws the measured values from the seed, so the
tuner sees the same design on every seed and the work per `analyze` run is
the same from seed to seed.

A workload is written to `<dir>/input.csv`; the returned `Inputs` carries
the values `analyze` should accept, parsed from the very strings written,
plus everything the verifier needs to rebuild the fit on its own.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REASONS = ("invalid-derivation", "non-finite", "out-of-frame", "unparsable")


@dataclass(frozen=True)
class Spec:
    """One workload: frame, sampling design and `analyze` settings."""

    frame: tuple[float, float, float, float]   # y_min, y_max, a_min, a_max
    schema: str
    mode: str
    wave_years: tuple[int, ...] | None          # relative years; None = every year
    fractions: tuple[float, ...]
    draws: int
    cluster_year: int
    cluster_age: int
    lambdas: tuple[float, float] | None = None  # fixed; None = tuned
    targets: tuple[float, float, float] = (0.2, 0.2, 0.05)  # f_smv, f_smu, delta
    dirty_per_reason: int = 0

    @property
    def lattice(self) -> tuple[int, int, int, int]:
        """Absolute (i_min, j_min) and spans (I, J) of the slanted lattice."""
        y_min, y_max, a_min, a_max = self.frame
        i_min, j_min = _cell(y_min, a_min)
        i_max, j_max = _cell(y_max, a_max)
        return i_min, j_min, i_max - i_min, j_max - j_min

    def selected_points(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Level probe near the low corner, trend probe at the centre."""
        _, _, I, J = self.lattice
        return (1, 1), ((I + 1) // 2, min((J + 1) // 2, J - 1))


def _cell(y: float, a: float) -> tuple[int, int]:
    i = math.floor(y)
    return i, math.ceil(a - (y - i))


SURVEY_FRACTIONS = (0.08, 0.23, 0.38, 0.53, 0.68, 0.83)

SPECS = {
    "survey-study": Spec(
        frame=(1982.0, 1992.99, 25.0, 64.0),
        schema="xya", mode="aggregated",
        wave_years=(0, 5, 10), fractions=SURVEY_FRACTIONS, draws=5,
        cluster_year=5, cluster_age=5,
    ),
    "survey-large": Spec(
        frame=(1970.0, 1999.99, 20.0, 79.0),
        schema="xya", mode="aggregated",
        wave_years=(0, 5, 10, 15, 20, 25), fractions=SURVEY_FRACTIONS, draws=5,
        cluster_year=2, cluster_age=2,
    ),
    "raw-fixed": Spec(
        frame=(1982.0, 1992.99, 25.0, 64.0),
        schema="derived", mode="raw",
        wave_years=None, fractions=(0.1, 0.3, 0.5, 0.7, 0.9), draws=50,
        cluster_year=5, cluster_age=5,
        lambdas=(1.0, 1.0), dirty_per_reason=100,
    ),
}


@dataclass
class Inputs:
    """The rows `analyze` should accept, as numbers, and the injected rejects."""

    spec: Spec
    path: Path
    x: np.ndarray
    y: np.ndarray
    a: np.ndarray
    rejects: dict[str, int] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return len(self.x) + sum(self.rejects.values())


def analyze_args(spec: Spec, inputs: Path, out: Path) -> list[str]:
    """Arguments of one `ctrend analyze` run on this workload."""
    y_min, y_max, a_min, a_max = spec.frame
    args = [
        "analyze", "--input", str(inputs), "--out", str(out),
        "--y-min", repr(y_min), "--y-max", repr(y_max),
        "--a-min", repr(a_min), "--a-max", repr(a_max),
        "--schema", spec.schema, "--mode", spec.mode,
        "--cluster-year", str(spec.cluster_year), "--cluster-age", str(spec.cluster_age),
    ]
    if spec.lambdas is not None:
        args += ["--lambda1", repr(spec.lambdas[0]), "--lambda2", repr(spec.lambdas[1])]
    else:
        point_v, point_u = spec.selected_points()
        f_smv, f_smu, delta = spec.targets
        args += [
            "--f-smv", repr(f_smv), "--f-smu", repr(f_smu), "--delta", repr(delta),
            "--fstat", "selected-point",
            "--point-v", f"{point_v[0]},{point_v[1]}",
            "--point-u", f"{point_u[0]},{point_u[1]}",
        ]
    return args


def _placement(spec: Spec) -> tuple[np.ndarray, np.ndarray]:
    """Decimal years and integer ages of every clean row, in file order."""
    i_min, j_min, I, J = spec.lattice
    years = range(I + 1) if spec.wave_years is None else spec.wave_years
    rel_i, rel_j, frac = np.meshgrid(
        np.array(years), np.arange(J + 1), np.array(spec.fractions), indexing="ij"
    )
    rel_i, rel_j, frac = (np.repeat(v.ravel(), spec.draws) for v in (rel_i, rel_j, frac))
    # An integer age lies inside its slanted cell at every year fraction.
    return (i_min + rel_i) + frac, (j_min + rel_j).astype(float)


def _truth(rng: np.random.Generator, y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """A smooth BMI surface over (year, age) with seed-drawn coefficients."""
    c = rng.normal([25.5, 0.11, -0.0025, 0.06, 0.004], [0.5, 0.02, 0.0005, 0.02, 0.002])
    da, dy = a - 45.0, y - 1985.0
    return c[0] + c[1] * da + c[2] * da**2 + c[3] * dy + c[4] * dy * da / 10.0


def _write(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _xya(spec: Spec, rng: np.random.Generator, path: Path) -> Inputs:
    y, a = _placement(spec)
    x = _truth(rng, y, a) + rng.normal(0.0, 3.5, size=len(y))
    cols = [[repr(float(v)) for v in col] for col in (x, y, a)]
    _write(path, ["x", "year", "age"], [list(r) for r in zip(*cols)])
    # The program reads these very strings; so does the verifier.
    x, y, a = (np.array([float(s) for s in col]) for col in cols)
    return Inputs(spec, path, x, y, a)


def _dirty_row(reason: str, k: int, i_min: int, i_max: int, j_min: int, j_max: int) -> list[str]:
    """A derived-schema row that `analyze` must reject for `reason`.

    Each reason cycles through a few spellings; none depends on the seed.
    """
    exam = f"{i_min + 3}.40"
    birth = str(i_min + 3 - (j_min + 10))
    if reason == "unparsable":
        return [["n/a", "1.75", birth, exam], ["80.0", "", birth, exam],
                ["80.0", "1.75", "19x0", exam], ["80.0", "1.75", birth, "soon"]][k % 4]
    if reason == "non-finite":
        return [["nan", "1.75", birth, exam], ["inf", "1.75", birth, exam],
                ["80.0", "nan", birth, exam], ["NaN", "1.62", birth, exam]][k % 4]
    if reason == "out-of-frame":
        return [["80.0", "1.75", str(i_min - 40), f"{i_min - 2}.50"],   # exam too early
                ["80.0", "1.75", str(i_max - 30), f"{i_max + 1}.50"],   # exam too late
                ["80.0", "1.75", str(i_min + 3 - (j_max + 5)), exam],   # too old
                ["80.0", "1.75", str(i_min + 3 - (j_min - 5)), exam]][k % 4]  # too young
    if reason == "invalid-derivation":
        return [["0", "1.75", birth, exam], ["80.0", "-1.70", birth, exam],
                ["-5.0", "1.75", birth, exam], ["80.0", "1.75", str(i_min + 5), exam]][k % 4]
    raise ValueError(reason)


def _derived(spec: Spec, rng: np.random.Generator, path: Path) -> Inputs:
    i_min, j_min, I, J = spec.lattice
    y, a = _placement(spec)
    bmi = _truth(rng, y, a) + rng.normal(0.0, 3.5, size=len(y))
    height = np.clip(rng.normal(1.70, 0.09, size=len(y)), 1.45, 2.05)
    weight = bmi * height**2
    birth = np.floor(y).astype(int) - a.astype(int)
    w_txt = [f"{w:.2f}" for w in weight]
    h_txt = [f"{h:.3f}" for h in height]
    b_txt = [str(b) for b in birth]
    e_txt = [repr(float(v)) for v in y]
    rows = [list(r) for r in zip(w_txt, h_txt, b_txt, e_txt)]

    dirty = [
        _dirty_row(reason, k, i_min, i_min + I, j_min, j_min + J)
        for reason in REASONS for k in range(spec.dirty_per_reason)
    ]
    order = rng.permutation(len(rows) + len(dirty))
    is_dirty = order >= len(rows)
    merged = [dirty[p - len(rows)] if d else rows[p] for p, d in zip(order, is_dirty)]
    _write(path, ["weight", "height", "birth_year", "exam_date"], merged)

    # Accepted rows in file order, derived from the written strings.
    keep = order[~is_dirty]
    w = np.array([float(w_txt[p]) for p in keep])
    h = np.array([float(h_txt[p]) for p in keep])
    exam = np.array([float(e_txt[p]) for p in keep])
    age = np.floor(exam) - np.array([float(b_txt[p]) for p in keep])
    rejects = {reason: spec.dirty_per_reason for reason in REASONS} if dirty else {}
    return Inputs(spec, path, w / h**2, exam, age, rejects)


def generate(spec: Spec, seed: int, directory: Path) -> Inputs:
    """Write the workload's input CSV for `seed` and return what it holds."""
    rng = np.random.Generator(np.random.Philox(seed))
    path = Path(directory) / "input.csv"
    if spec.schema == "xya":
        return _xya(spec, rng, path)
    return _derived(spec, rng, path)
