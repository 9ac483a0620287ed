"""Tune every target pair of a 5 x 5 grid on three designs and count the outcomes.

Run from the repository root:

    PYTHONPATH=src python tests/tuner_grid.py [--tunes]

The targets are (f_smv, f_smu) in {0.05, 0.1, 0.2, 0.3, 0.5}^2 at delta =
0.05, for each of the four statistic kinds.  The designs are those of the
tuner tests: the two-wave and study survey designs of `test_tuner.py`, and
the small noise-free full-coverage design of `conftest.py`.  For each design
and kind it prints how many tunes converged (C), raised TargetUnreachable
(U) or raised NoConvergence (N), the solves they used, and how many of those
solves were singular (S); then the totals per kind and overall.  A change to
the tuner shows here as a lost converged tune or a change of solves.

With --tunes it prints one JSON line per tune instead: design, kind, targets,
outcome, solves, singular solves, and the repr of lambda1, lambda2, stat_v and
stat_u, so that the listings of two trees compare with `diff`.  pytest does
not collect this file.
"""

import json
import sys
from itertools import groupby

from ctrend import tuner
from ctrend.design import build_system_aggregated, build_system_raw
from ctrend.errors import NoConvergence, SingularSystem, TargetUnreachable
from ctrend.grid import Frame, ParameterLayout
from ctrend.ingest import aggregate
from ctrend.solver import solve
from ctrend.synth import TrueModel, full_coverage_plan, generate, survey_plan
from ctrend.tuner import FSTAT_KINDS, SmoothnessTargets, tune
from zref import smooth_boundary, smooth_trend

TARGETS = (0.05, 0.1, 0.2, 0.3, 0.5)


def model(frame, noise_sd):
    layout = ParameterLayout.from_frame(frame)
    return TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), noise_sd)


def designs():
    two_wave = Frame.from_bounds(2000.0, 2006.9, 30.0, 40.0)
    plan = survey_plan(two_wave, (0, 6), (0.3,), 1)
    yield "two-wave", build_system_raw(generate(model(two_wave, 0.5), plan, seed=1))
    study = Frame.from_bounds(1982.0, 1992.99, 25.0, 64.0)
    plan = survey_plan(study, (0, 5, 10), (0.05, 0.1, 0.15, 0.2, 0.25, 0.3), per_fraction=5)
    cells = aggregate(generate(model(study, 3.5), plan, seed=42))
    yield "study", build_system_aggregated(cells)
    small = Frame.from_bounds(2000.0, 2004.9, 10.0, 16.0)
    plan = full_coverage_plan(small, (0.25, 0.75))
    yield "small", build_system_raw(generate(model(small, 0.0), plan, seed=5))


def outcome(system, targets):
    """("C", "U" or "N", solves, singular solves, report) of one tune."""
    singular = []

    def counted(*args):
        try:
            return solve(*args)
        except SingularSystem:
            singular.append(args)
            raise

    tuner.solve = counted
    try:
        report = tune(system, targets)[1]
        return "C", report.iterations, len(singular), report
    except (TargetUnreachable, NoConvergence) as exc:
        code = "U" if isinstance(exc, TargetUnreachable) else "N"
        return code, exc.report.iterations, len(singular), exc.report
    finally:
        tuner.solve = solve


def row(name, kind, counts):
    print(
        f"{name:<10} {kind:<15} {counts['C']:>3} {counts['U']:>3} {counts['N']:>3} "
        f"{counts['solves']:>7} {counts['S']:>4}"
    )


def tunes():
    """(design, kind, f_smv, f_smu, outcome) of every tune, in table order."""
    for name, system in designs():
        for kind in FSTAT_KINDS:
            for f_smv in TARGETS:
                for f_smu in TARGETS:
                    targets = SmoothnessTargets(f_smv, f_smu, 0.05, kind)
                    yield name, kind, f_smv, f_smu, outcome(system, targets)


def list_tunes():
    fields = ("lambda1", "lambda2", "stat_v", "stat_u")
    for name, kind, f_smv, f_smu, (code, solves, singular, report) in tunes():
        line = {"design": name, "kind": kind, "f_smv": f_smv, "f_smu": f_smu, "outcome": code,
                "solves": solves, "singular": singular}
        print(json.dumps(line | {field: repr(float(getattr(report, field))) for field in fields}))


def main():
    totals = {kind: dict.fromkeys("CUNS", 0) | {"solves": 0} for kind in FSTAT_KINDS}
    print(f"{'design':<10} {'kind':<15} {'C':>3} {'U':>3} {'N':>3} {'solves':>7} {'S':>4}")
    for (name, kind), group in groupby(tunes(), key=lambda entry: entry[:2]):
        counts = dict.fromkeys("CUNS", 0) | {"solves": 0}
        for *_, (code, solves, singular, _) in group:
            counts[code] += 1
            counts["solves"] += solves
            counts["S"] += singular
        for key, value in counts.items():
            totals[kind][key] += value
        row(name, kind, counts)
    for kind, counts in totals.items():
        row("total", kind, counts)
    print(
        f"all solves: {sum(counts['solves'] for counts in totals.values())}, "
        f"singular: {sum(counts['S'] for counts in totals.values())}"
    )


if __name__ == "__main__":
    list_tunes() if sys.argv[1:] == ["--tunes"] else main()
