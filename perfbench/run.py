"""Benchmark of `ctrend analyze`, run from the root of a source checkout:

    python3 perfbench/run.py --workload survey-study --seed 1 --seconds 20 --trace 0

The load is a closed loop: this one process runs one `analyze` at a
time on inputs it generated from `--seed` (see workloads.py), until
`--seconds` have passed, and checks every run's artifacts with verify.py
outside the timed region.  An operation is one `analyze` run; it fails on a
non-zero exit or on a failed check.

`--trace 0` times `analyze` as a user runs it, in a fresh interpreter, and
reports the end-to-end metrics.  `--trace 1` runs `ctrend.cli.main` in this
process with spans around every layer call (spans.py) and reports the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One analyze at a time, with no more BLAS threads than usable cores.  Set
# before numpy loads, so it holds in this process and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))

from spans import Tracer, peak_mb  # noqa: E402
from verify import verify  # noqa: E402
from workloads import SPECS, analyze_args, generate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
# Fresh interpreters timed per run for setup_s, after one untimed warm-up
# that also leaves the byte-code cache in place as an installed copy has it.
SETUP_SAMPLES = 3
IMPORT_PROBE = "import ctrend.cli, time; print(repr(time.perf_counter()))"


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _setup_seconds() -> float:
    """Spawn to the end of `import ctrend.cli` in a fresh interpreter."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=_child_env(),
        capture_output=True, text=True, check=True,
    )
    # perf_counter reads the system-wide monotonic clock on Linux, so the
    # child's reading and ours share one time base.
    return float(done.stdout.strip().splitlines()[-1]) - start


def _analyze_process(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one `python -m ctrend` run."""
    with open(log, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "ctrend", *argv], env=_child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    # Reaped by wait4 above; recording the code keeps Popen from waiting again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class Loop:
    """Closed loop of `analyze` operations with their verification."""

    def __init__(self, inputs, workdir: Path, seconds: float):
        self.inputs = inputs
        self.out = workdir / "out"
        self.log = workdir / "stderr.log"
        self.argv = analyze_args(inputs.spec, inputs.path, self.out)
        self.seconds = seconds
        self.attempted = self.failed = 0
        self.correct = True

    def run(self, operation) -> None:
        """Repeat `operation()` (returns the exit code) for the run's duration."""
        start = time.perf_counter()
        while self.attempted == 0 or time.perf_counter() - start < self.seconds:
            shutil.rmtree(self.out, ignore_errors=True)
            self.attempted += 1
            code = operation()
            if code != 0:
                self.failed += 1
                print(f"analyze exited {code}: {self.log.read_text()[-2000:]}", file=sys.stderr)
                continue
            failures = verify(self.inputs, self.out)
            if failures:
                self.failed += 1
                self.correct = False
                print("verifier: " + "; ".join(failures), file=sys.stderr)

    def result(self, metrics: dict) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def end_to_end(loop: Loop) -> dict:
    setup = [_setup_seconds() for _ in range(SETUP_SAMPLES + 1)][1:]
    seconds, rss = [], []

    def operation() -> int:
        code, wall, peak = _analyze_process(loop.argv, loop.log)
        seconds.append(wall)
        rss.append(peak)
        return code

    loop.run(operation)
    return loop.result({
        "setup_s": _metric(statistics.median(setup), "s"),
        "analyze_s": _metric(statistics.median(seconds), "s"),
        "peak_rss_mb": _metric(statistics.median(rss), "MB"),
    })


def per_layer(loop: Loop) -> dict:
    sys.path.insert(0, str(SRC))
    import ctrend.cli

    if not Path(ctrend.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported ctrend from {ctrend.cli.__file__}, not {SRC}")
    tracers: list[Tracer] = []

    def operation() -> int:
        tracers.append(Tracer(ctrend.cli))
        with open(loop.log, "w", encoding="utf-8") as err:
            saved, sys.stderr = sys.stderr, err
            try:
                return tracers[-1].main(loop.argv)
            except Exception:  # the run dies as `python -m ctrend` would: exit 1
                traceback.print_exc()
                return 1
            finally:
                sys.stderr = saved

    loop.run(operation)
    last = tracers[-1]
    build = last.calls.get("build_system_raw") or last.calls["build_system_aggregated"]
    # The lambda step of analyze: `tune`, or at fixed lambdas the one `solve`
    # it makes instead (run.json then records 1 iteration).
    tuned = "tune" in last.calls
    fit = last.calls["tune"].result[0] if tuned else last.calls["solve"].result

    def cold_solve():
        return ctrend.cli.solve(build.result, fit.lambda1, fit.lambda2)

    start = time.perf_counter()
    cold_solve()
    solve_s = time.perf_counter() - start
    solve_mb = peak_mb(cold_solve)

    def median(name: str) -> float:
        return statistics.median(t.seconds(name) for t in tracers)

    load_s = median("ingest.load")
    tune_s = median("tuner.tune" if tuned else "solver.solve")
    solves = last.calls["tune"].result[1].iterations if tuned else 1
    rows = last.calls["load_measurements"].result[1].n_rows
    return loop.result({
        "cli.main_s": _metric(median("cli.main"), "s"),
        "ingest.load_s": _metric(load_s, "s"),
        "ingest.rows_per_s": _metric(rows / load_s, "rows/s"),
        "ingest.aggregate_s": _metric(median("ingest.aggregate"), "s"),
        "design.build_s": _metric(median("design.build"), "s"),
        "design.peak_mb": _metric(peak_mb(build.repeat), "MB"),
        "solver.solve_s": _metric(solve_s, "s"),
        "solver.peak_mb": _metric(solve_mb, "MB"),
        "tuner.tune_s": _metric(tune_s, "s"),
        "tuner.solves": _metric(solves, "count"),
        "tuner.s_per_solve": _metric(tune_s / solves, "s"),
        "tuner.peak_mb": _metric(peak_mb(last.calls["tune"].repeat) if tuned else solve_mb, "MB"),
        "inference.cluster_s": _metric(median("inference.cluster"), "s"),
        "inference.compare_s": _metric(median("inference.compare"), "s"),
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ctrend" / "cli.py").is_file():
        print(f"no ctrend sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        loop = Loop(generate(SPECS[args.workload], args.seed, workdir), workdir, args.seconds)
        result = per_layer(loop) if args.trace else end_to_end(loop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
