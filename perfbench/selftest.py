"""The verifier's own test: it must pass real artifacts and reject doctored ones.

Runs `ctrend analyze` once on the survey-study and raw-fixed inputs (seed
0), then perturbs a copy of the artifacts one way at a time and asserts
that the check aimed at that perturbation fails.  From the checkout root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import unittest
from pathlib import Path

from run import SRC, WORK
from verify import verify
from workloads import SPECS, analyze_args, generate


def _analyze(name: str, workdir: Path):
    sys.path.insert(0, str(SRC))
    import ctrend.cli

    inputs = generate(SPECS[name], 0, workdir)
    code = ctrend.cli.main(analyze_args(inputs.spec, inputs.path, workdir / "out"))
    if code != 0:
        raise RuntimeError(f"analyze on {name} exited {code}")
    return inputs


def _edit_csv(path: Path, edit) -> None:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows[0], rows[1:])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _edit_json(path: Path, edit) -> None:
    run = json.loads(path.read_text(encoding="utf-8"))
    edit(run)
    path.write_text(json.dumps(run, sort_keys=True, indent=2) + "\n", encoding="utf-8")


class VerifierRejectsPerturbations(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = WORK / "selftest"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.inputs = {}
        for name in ("survey-study", "raw-fixed"):
            (cls.work / name).mkdir(parents=True)
            cls.inputs[name] = _analyze(name, cls.work / name)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def failed_checks(self, name: str, filename: str | None = None, edit=None) -> set[str]:
        """Names of the checks failing on a copy of `name`'s artifacts after `edit`."""
        copy = self.work / name / "copy"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.work / name / "out", copy)
        if edit is not None:
            (_edit_json if filename.endswith(".json") else _edit_csv)(copy / filename, edit)
        return {f.split(":")[0] for f in verify(self.inputs[name], copy)}

    def test_unchanged_artifacts_pass(self):
        for name in self.inputs:
            self.assertEqual(self.failed_checks(name), set(), name)

    def test_level_moved_by_1e_6(self):
        def move(header, rows):
            k, row = header.index("estimate"), rows[len(rows) // 2]
            row[k] = repr(float(row[k]) + 1e-6)

        self.assertIn("levels.estimate", self.failed_checks("survey-study", "levels.csv", move))

    def test_lambda_altered(self):
        def alter(run):
            run["lambda2"] *= 1.001

        self.assertIn("levels.estimate", self.failed_checks("survey-study", "run.json", alter))

    def test_reject_count_changed(self):
        def change(run):
            run["validation"]["reasons"]["non-finite"] -= 1
            run["validation"]["reasons"]["unparsable"] += 1

        self.assertIn("run.validation", self.failed_checks("raw-fixed", "run.json", change))

    def test_p_values_swapped(self):
        def swap(header, rows):
            k = header.index("p_value")
            tested = [r for r in rows if r[k]]
            first = min(tested, key=lambda r: float(r[k]))
            last = max(tested, key=lambda r: float(r[k]))
            first[k], last[k] = last[k], first[k]

        self.assertIn("comparisons.p", self.failed_checks("survey-study", "comparisons.csv", swap))


if __name__ == "__main__":
    unittest.main()
