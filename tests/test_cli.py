import csv
import dataclasses
import json
import random
import subprocess
import sys

import numpy as np
import pytest

from ctrend import cli, tuner
from ctrend.errors import TuningFailure
from ctrend.grid import Frame, ParameterLayout, _absolute_cell
from ctrend.synth import TrueModel, generate, survey_plan
from ingest_reference import measurements_to_csv, rows as measurement_rows
from zref import smooth_boundary, smooth_trend

FRAME_FLAGS = ["--y-min", "2000.0", "--y-max", "2004.9", "--a-min", "10.0", "--a-max", "16.0"]


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "ctrend", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, f"exit {proc.returncode}\n{proc.stderr}\n{proc.stdout}"
    return proc


def write_model(path, noise_sd=0.4, plan=None):
    frame = Frame.from_bounds(2000.0, 2004.9, 10.0, 16.0)
    layout = ParameterLayout.from_frame(frame)
    spec = {
        "v0": smooth_boundary(layout).tolist(),
        "u": smooth_trend(layout).tolist(),
        "noise_sd": noise_sd,
        "plan": plan or {"kind": "full", "fractions": [0.2, 0.5, 0.8], "per_fraction": 2},
    }
    path.write_text(json.dumps(spec), encoding="utf-8")
    return layout


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-data")
    model = base / "model.json"
    layout = write_model(model)
    run_cli("simulate", *FRAME_FLAGS, "--model", str(model), "--out", str(base), "--seed", "12")
    return base, layout


class TestSimulate:
    def test_artifacts_and_determinism(self, tmp_path):
        model = tmp_path / "model.json"
        write_model(model)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("simulate", *FRAME_FLAGS, "--model", str(model), "--out", str(out1), "--seed", "3")
        run_cli("simulate", *FRAME_FLAGS, "--model", str(model), "--out", str(out2), "--seed", "3")
        assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()
        truth = json.loads((out1 / "truth.json").read_text())
        assert truth["seed"] == 3
        assert truth["n_measurements"] == len(read_rows(out1 / "dataset.csv"))

    def test_different_seed_differs(self, tmp_path):
        model = tmp_path / "model.json"
        write_model(model)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("simulate", *FRAME_FLAGS, "--model", str(model), "--out", str(out1), "--seed", "3")
        run_cli("simulate", *FRAME_FLAGS, "--model", str(model), "--out", str(out2), "--seed", "4")
        assert (out1 / "dataset.csv").read_bytes() != (out2 / "dataset.csv").read_bytes()

    def test_dimension_mismatch(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"v0": [1.0, 2.0], "u": [[0.1]], "noise_sd": 0.0}))
        proc = run_cli(
            "simulate", *FRAME_FLAGS, "--model", str(model), "--out", str(tmp_path), expect=3
        )
        assert json.loads(proc.stderr)["error"] == "spec-mismatch"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda spec: [1],
            lambda spec: {**spec, "noise_sd": None},
            lambda spec: {**spec, "v0": "abc"},
            lambda spec: {**spec, "plan": {"per_fraction": "x"}},
            lambda spec: {**spec, "plan": [1]},
            lambda spec: {**spec, "plan": {"per_fraction": float("inf")}},
            lambda spec: {**spec, "v0": [float("nan"), *spec["v0"][1:]]},
            lambda spec: {**spec, "u": [[float("inf"), *spec["u"][0][1:]], *spec["u"][1:]]},
            lambda spec: {**spec, "noise_sd": float("nan")},
            lambda spec: {**spec, "noise_sd": float("inf")},
            lambda spec: {**spec, "plan": {"per_fraction": 0}},
            lambda spec: {**spec, "plan": {"per_fraction": -2}},
            lambda spec: {**spec, "plan": {"fractions": []}},
            lambda spec: {**spec, "plan": {"kind": "survey", "wave_years": [0], "fractions": []}},
            lambda spec: {**spec, "plan": {"per_fraction": 2.9}},
            lambda spec: {**spec, "plan": {"kind": "survey", "wave_years": [0.7, 3.9]}},
            lambda spec: {**spec, "plan": {"per_fraction": "2"}},
            lambda spec: {**spec, "noise_sd": "0.5"},
            lambda spec: {**spec, "noise_sd": True},
            lambda spec: {**spec, "plan": {"fractions": ["0.5"]}},
            lambda spec: {**spec, "plan": {"per_fraction": True}},
            lambda spec: {**spec, "plan": {"kind": "survey", "wave_years": [False, True]}},
            lambda spec: {**spec, "v0": [True, *spec["v0"][1:]]},
            lambda spec: {**spec, "u": [["0.1", *spec["u"][0][1:]], *spec["u"][1:]]},
            lambda spec: {**spec, "plan": {"kind": "survey"}},
        ],
        ids=[
            "list", "null-noise", "text-v0", "text-count", "list-plan", "infinite-count",
            "nan-v0", "infinite-u", "nan-noise", "infinite-noise", "zero-count",
            "negative-count", "no-fractions", "survey-no-fractions", "fractional-count",
            "fractional-wave", "text-number-count", "text-number-noise", "boolean-noise",
            "text-number-fraction", "boolean-count", "boolean-waves", "boolean-v0",
            "text-number-u", "survey-no-waves",
        ],
    )
    def test_malformed_model_exit_3(self, tmp_path, edit):
        model = tmp_path / "model.json"
        write_model(model)
        model.write_text(json.dumps(edit(json.loads(model.read_text()))), encoding="utf-8")
        proc = run_cli(
            "simulate", *FRAME_FLAGS, "--model", str(model), "--out", str(tmp_path / "out"),
            expect=3,
        )
        assert json.loads(proc.stderr)["error"] == "spec-mismatch"
        assert not (tmp_path / "out" / "dataset.csv").exists()

    def test_fraction_rounding_into_next_year_exit_3(self, tmp_path):
        model = tmp_path / "model.json"
        write_model(model, plan={"kind": "survey", "wave_years": [0], "fractions": [1 - 2**-53]})
        proc = run_cli(
            "simulate", *FRAME_FLAGS, "--model", str(model), "--out", str(tmp_path / "out"),
            expect=3,
        )
        error = json.loads(proc.stderr)
        assert error["error"] == "plan-out-of-frame"
        assert "(0, 0, 0.9999999999999999)" in error["message"]
        assert not (tmp_path / "out" / "dataset.csv").exists()

    def test_negative_seed_exit_2(self, tmp_path):
        model = tmp_path / "model.json"
        write_model(model)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n", encoding="utf-8")
        for seed in (["--seed", "-1"], ["--config", str(cfg)]):
            proc = run_cli(
                "simulate", *FRAME_FLAGS, *seed, "--model", str(model),
                "--out", str(tmp_path / "out"),
                expect=2,
            )
            assert json.loads(proc.stderr)["error"] == "config"
            assert not (tmp_path / "out" / "dataset.csv").exists()


class TestAnalyze:
    def test_fixed_lambda_run(self, dataset, tmp_path):
        base, layout = dataset
        out = tmp_path / "fit"
        run_cli(
            "analyze", *FRAME_FLAGS,
            "--input", str(base / "dataset.csv"),
            "--mode", "aggregated",
            "--lambda1", "1.0", "--lambda2", "1.0",
            "--cluster-age", "2", "--cluster-year", "2",
            "--out", str(out),
        )
        levels = read_rows(out / "levels.csv")
        trends = read_rows(out / "ctrends.csv")
        ni, nj = layout.level_shape
        assert len(levels) == ni * nj
        assert len(trends) == layout.n_trend
        assert list(levels[0]) == ["year", "age", "estimate", "stderr", "ci_lo", "ci_hi"]
        run = json.loads((out / "run.json").read_text())
        assert run["tuner"] == "skipped"
        assert run["lambda1"] == 1.0
        assert run["converged"] is True
        assert run["validation"]["rejected"] == 0
        clusters = read_rows(out / "clusters.csv")
        assert len(clusters) == 3 * 4  # ceil(5/2) x ceil(7/2)
        comparisons = read_rows(out / "comparisons.csv")
        assert all(r["testable"] == "true" for r in comparisons)
        for row in comparisons:
            assert 0.0 < float(row["p_value"]) <= 1.0

    def test_byte_identical_reruns(self, dataset, tmp_path):
        base, _ = dataset
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            run_cli(
                "analyze", *FRAME_FLAGS,
                "--input", str(base / "dataset.csv"),
                "--mode", "raw",
                "--lambda1", "2.5", "--lambda2", "0.5",
                "--out", str(out),
            )
        for name in ("levels.csv", "ctrends.csv", "clusters.csv", "comparisons.csv", "run.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_byte_identical_tuned_reruns(self, dataset, tmp_path):
        base, _ = dataset
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            run_cli(
                "analyze", *FRAME_FLAGS,
                "--input", str(base / "dataset.csv"),
                "--f-smv", "0.5", "--f-smu", "0.5", "--delta", "0.1",
                "--cluster-age", "2", "--cluster-year", "2",
                "--out", str(out),
            )
        run = json.loads((outs[0] / "run.json").read_text())
        assert run["tuner"] == "converged" and run["iterations"] > 1
        for name in ("levels.csv", "ctrends.csv", "clusters.csv", "comparisons.csv", "run.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_tuned_run_computes_inverse_band_once(self, dataset, tmp_path, band_calls):
        from ctrend import cli

        base, layout = dataset
        out = tmp_path / "tuned"
        code = cli.main([
            "analyze", *FRAME_FLAGS,
            "--input", str(base / "dataset.csv"),
            "--f-smv", "0.5", "--f-smu", "0.5", "--delta", "0.1",
            "--out", str(out),
        ])
        assert code == 0
        run = json.loads((out / "run.json").read_text())
        assert run["iterations"] > 1
        assert len(band_calls) == 1
        assert 0.0 < run["edf"] < layout.dim

    def test_tuned_run_records_convergence(self, dataset, tmp_path):
        base, _ = dataset
        out = tmp_path / "tuned"
        run_cli(
            "analyze", *FRAME_FLAGS,
            "--input", str(base / "dataset.csv"),
            "--f-smv", "0.5", "--f-smu", "0.5", "--delta", "0.1",
            "--out", str(out),
        )
        run = json.loads((out / "run.json").read_text())
        assert run["tuner"] == "converged"
        assert run["converged"] is True
        assert run["iterations"] > 1
        assert run["smoothness"]["target_v"] == 0.5

    def test_config_file_with_flag_override(self, dataset, tmp_path):
        base, _ = dataset
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "y_min = 2000.0\ny_max = 2004.9\na_min = 10.0\na_max = 16.0\n"
            "mode = aggregated\nlambda1 = 1.0\nlambda2 = 1.0\n"
            f"input = {base / 'dataset.csv'}\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        run_cli("analyze", "--config", str(cfg), "--lambda1", "5.0", "--lambda2", "5.0", "--out", str(out))
        run = json.loads((out / "run.json").read_text())
        assert run["lambda1"] == 5.0  # flag wins over config value

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 1\n", encoding="utf-8")
        proc = run_cli("analyze", "--config", str(cfg), expect=2)
        assert json.loads(proc.stderr)["error"] == "config"

    @pytest.mark.parametrize(
        "flags,error",
        [
            (["--lambda1", "nan", "--lambda2", "1"], "config"),
            (["--lambda1", "inf", "--lambda2", "1"], "config"),
            (["--lambda1", "1", "--lambda2", "inf"], "config"),
            (["--y-max", "inf", "--lambda1", "1", "--lambda2", "1"], "frame-too-small"),
        ],
    )
    def test_non_finite_flag_exit_2(self, dataset, tmp_path, flags, error):
        base, _ = dataset
        proc = run_cli(
            "analyze", *FRAME_FLAGS, *flags, "--input", str(base / "dataset.csv"),
            "--out", str(tmp_path / "out"),
            expect=2,
        )
        assert json.loads(proc.stderr)["error"] == error
        assert not (tmp_path / "out" / "run.json").exists()

    @pytest.mark.parametrize(
        "key,value,error", [("lambda2", "nan", "config"), ("y_min", "-inf", "frame-too-small")]
    )
    def test_non_finite_config_value_exit_2(self, dataset, tmp_path, key, value, error):
        base, _ = dataset
        values = {
            "y_min": "2000.0", "y_max": "2004.9", "a_min": "10.0", "a_max": "16.0",
            "lambda1": "1.0", "lambda2": "1.0", "input": str(base / "dataset.csv"),
        }
        values[key] = value
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
        proc = run_cli("analyze", "--config", str(cfg), "--out", str(tmp_path / "out"), expect=2)
        assert json.loads(proc.stderr)["error"] == error

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", *FRAME_FLAGS, "--lambda1", "abc", "--lambda2", "1"],
            ["analyze", "--y-min", "-inf", *FRAME_FLAGS[2:]],
            ["analyze", *FRAME_FLAGS, "--no-such-flag"],
            [],
            ["analyze", *FRAME_FLAGS, "--mode", "bogus"],
            ["analyze", *FRAME_FLAGS, "--fstat", "bogus"],
            ["analyze", *FRAME_FLAGS, "--point-v", "1"],
        ],
        ids=["text-float", "space-inf", "unknown-flag", "no-command", "mode", "fstat", "point"],
    )
    def test_usage_error_is_one_json_object(self, dataset, tmp_path, argv):
        base, _ = dataset
        if argv:
            argv = [*argv, "--input", str(base / "dataset.csv"), "--out", str(tmp_path / "out")]
        proc = run_cli(*argv, expect=2)
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["error"] == "config"
        assert not (tmp_path / "out" / "run.json").exists()

    def test_help_exits_0(self):
        proc = run_cli("analyze", "--help")
        assert "--min-cell-count" in proc.stdout

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_unusable_out_exit_2(self, dataset, tmp_path, below):
        base, _ = dataset
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        proc = run_cli(
            "analyze", *FRAME_FLAGS, "--input", str(base / "dataset.csv"),
            "--lambda1", "1.0", "--lambda2", "1.0",
            "--out", str(blocker / "out" if below else blocker),
            expect=2,
        )
        assert json.loads(proc.stderr)["error"] == "config"

    def test_empty_input_exit_3(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("x,year,age\n", encoding="utf-8")
        proc = run_cli(
            "analyze", *FRAME_FLAGS, "--input", str(data),
            "--lambda1", "1.0", "--lambda2", "1.0", "--out", str(tmp_path),
            expect=3,
        )
        assert json.loads(proc.stderr)["error"] == "no-observations"

    @pytest.mark.parametrize("name", ["absent.csv", "."])
    def test_unreadable_input_exit_2(self, tmp_path, name):
        # a missing file, and a directory in place of one
        proc = run_cli(
            "analyze", *FRAME_FLAGS, "--input", str(tmp_path / name),
            "--lambda1", "1.0", "--lambda2", "1.0", "--out", str(tmp_path / "out"),
            expect=2,
        )
        assert json.loads(proc.stderr)["error"] == "config"

    def test_undecodable_input_exit_3(self, tmp_path):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"x,year,age\n7.5,2001.5,12\n\xe9,2002.5,13\n")
        proc = run_cli(
            "analyze", *FRAME_FLAGS, "--input", str(data),
            "--lambda1", "1.0", "--lambda2", "1.0", "--out", str(tmp_path / "out"),
            expect=3,
        )
        assert json.loads(proc.stderr)["error"] == "malformed-file"

    @pytest.mark.parametrize("lambdas", [("5e307", "1"), ("1", "5e307")])
    def test_overflowing_weights_exit_4(self, dataset, tmp_path, lambdas):
        base, _ = dataset
        out = tmp_path / "out"
        proc = run_cli(
            "analyze", *FRAME_FLAGS, "--input", str(base / "dataset.csv"),
            "--lambda1", lambdas[0], "--lambda2", lambdas[1], "--out", str(out),
            expect=4,
        )
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["error"] == "singular-system"
        assert not (out / "run.json").exists()

    def test_tuner_out_of_budget_exit_4(self, tmp_path, capsys, monkeypatch):
        # three solves cannot meet delta = 1e-6 on two survey waves six years apart
        monkeypatch.setattr(tuner, "MAX_SOLVES", 3)
        frame = Frame.from_bounds(2000.0, 2006.9, 30.0, 40.0)
        layout = ParameterLayout.from_frame(frame)
        model = TrueModel(frame, smooth_boundary(layout), smooth_trend(layout), 0.5)
        data = tmp_path / "data.csv"
        data.write_text(
            measurements_to_csv(
                measurement_rows(generate(model, survey_plan(frame, (0, 6), (0.3,), 1), seed=1))
            ),
            encoding="utf-8",
        )
        frame_flags = ["--y-min", "2000.0", "--y-max", "2006.9", "--a-min", "30.0", "--a-max", "40.0"]
        out = tmp_path / "out"
        argv = ["--input", str(data), "--delta", "1e-6", "--out", str(out)]
        code = cli.main(["analyze", *frame_flags, *argv])
        err = capsys.readouterr().err
        assert code == 4 and err.count("\n") == 1
        assert json.loads(err)["error"] == "no-convergence"
        assert not (out / "run.json").exists()
        # the best attempt of the three solves rides along
        record = json.loads(err)
        assert record["solves"] == 3
        assert {"lambda1", "lambda2", "stat_v", "stat_u"} < set(record)

    def test_unreachable_target_reports_its_last_attempt(self, dataset, tmp_path, capsys, monkeypatch):
        failures = []

        def recorded(*args):
            try:
                return tuner.tune(*args)
            except TuningFailure as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(cli, "tune", recorded)
        base, _ = dataset
        argv = ["--input", str(base / "dataset.csv"), "--f-smv", "0.05", "--out", str(tmp_path)]
        assert cli.main(["analyze", *FRAME_FLAGS, *argv]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        report = failures[0].report
        assert json.loads(err) == {
            "error": "target-unreachable",
            "message": str(failures[0]),
            "lambda1": report.lambda1,
            "lambda2": report.lambda2,
            "stat_v": report.stat_v,
            "stat_u": report.stat_u,
            "solves": report.iterations,
        }
        assert not (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("lambda1,n_silent", [("0", 2), ("1e-8", 0), ("1.0", 0)])
    def test_run_records_silent_levels(self, dataset, tmp_path, lambda1, n_silent):
        # with lambda1 = 0 no data or penalty reaches the two extreme corners
        base, _ = dataset
        argv = ["--input", str(base / "dataset.csv"), "--lambda1", lambda1, "--lambda2", "1"]
        assert cli.main(["analyze", *FRAME_FLAGS, *argv, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "run.json").read_text())["n_silent"] == n_silent

    def test_observed_means_filter(self, dataset, tmp_path):
        base, _ = dataset
        out = tmp_path / "means"
        run_cli(
            "analyze", *FRAME_FLAGS,
            "--input", str(base / "dataset.csv"),
            "--lambda1", "1.0", "--lambda2", "1.0",
            "--min-cell-count", "9",
            "--out", str(out),
        )
        # the plan places 6 measurements per cell: nothing exceeds 9
        assert read_rows(out / "observed_means.csv") == []
        out2 = tmp_path / "means2"
        run_cli(
            "analyze", *FRAME_FLAGS,
            "--input", str(base / "dataset.csv"),
            "--lambda1", "1.0", "--lambda2", "1.0",
            "--min-cell-count", "5",
            "--out", str(out2),
        )
        rows = read_rows(out2 / "observed_means.csv")
        assert len(rows) == 5 * 7
        assert all(int(r["n"]) == 6 for r in rows)


FIXED = ["--lambda1", "2.5", "--lambda2", "0.5"]
TUNED = ["--f-smv", "0.5", "--f-smu", "0.5", "--delta", "0.1"]


def analysis(*argv):
    """`cli.analyze` on the settings of `ctrend analyze <frame> argv`."""
    config = cli._build_config(cli.build_parser().parse_args(["analyze", *FRAME_FLAGS, *argv]))
    return cli.analyze(config, config.frame())


def scalars(value, key=""):
    """(path, leaf) of every leaf of a JSON value."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from scalars(v, f"{key}/{k}")
    else:
        yield key, value


class TestAnalyzeFunction:
    @pytest.mark.parametrize("weights", [FIXED, TUNED], ids=["fixed", "tuned"])
    def test_results_are_what_the_command_writes(self, dataset, tmp_path, weights):
        base, _ = dataset
        out = tmp_path / "out"
        out.mkdir()
        argv = ["--input", str(base / "dataset.csv"), *weights,
                "--cluster-age", "2", "--cluster-year", "2", "--out", str(out)]
        result = analysis(*argv)
        assert list(out.iterdir()) == []
        assert (result.smoothness is None) == (weights is FIXED)
        assert cli.main(["analyze", *FRAME_FLAGS, *argv]) == 0
        run = json.loads((out / "run.json").read_text())
        fit = result.fit
        assert (run["lambda1"], run["lambda2"], run["sigma2"], run["edf"]) == (
            fit.lambda1, fit.lambda2, fit.sigma2_hat, fit.edf
        )
        estimates = [row["estimate"] for row in read_rows(out / "clusters.csv")]
        assert estimates == [format(m, ".12g") for m in result.grid.means.ravel()]

    # x -> c x + alpha + beta Y + gamma A, with (Y, A) = (i + t, j + t) the
    # measurement's place on its cohort line: the penalties vanish on the
    # added linear surface and each observation reads it exactly.
    @pytest.mark.parametrize("c,alpha,beta,gamma", [(-2.5, 30.0, 0.1, -0.3), (1e3, -5.0, 2.0, 0.7),
                                                   (1e-3, 0.0, 0.0, 1.0)])
    def test_affine_map_of_the_measurements(self, dataset, tmp_path, c, alpha, beta, gamma):
        base, _ = dataset
        rows = read_rows(base / "dataset.csv")
        lines = ["x,year,age\n"]
        for row in rows:
            i, j, t = _absolute_cell(float(row["year"]), float(row["age"]))
            x = c * float(row["x"]) + alpha + beta * (i + t) + gamma * (j + t)
            lines.append(f"{x!r},{row['year']},{row['age']}\n")
        moved = tmp_path / "moved.csv"
        moved.write_text("".join(lines), encoding="utf-8")
        # every quantity in data units, to 1e-11 of the data's magnitude
        # (measured: below 1e-13)
        tol = 1e-11 * max(abs(float(line.split(",")[0])) for line in lines[1:])
        frame = Frame.from_bounds(2000.0, 2004.9, 10.0, 16.0)
        for mode in ("raw", "aggregated"):
            flags = ["--mode", mode, *TUNED, "--cluster-age", "2", "--cluster-year", "2"]
            was = analysis("--input", str(base / "dataset.csv"), *flags)
            now = analysis("--input", str(moved), *flags)
            assert (now.fit.lambda1, now.fit.lambda2) == (was.fit.lambda1, was.fit.lambda2)
            i, j = np.indices(was.fit.v_hat.shape)
            want = c * was.fit.v_hat + alpha + beta * (frame.i_min + i) + gamma * (frame.j_min + j)
            assert np.max(np.abs(now.fit.v_hat - want)) <= tol
            if mode == "aggregated":
                # the within-cell sums of squares take the linear surface too
                continue
            sd_now, sd_was = np.sqrt(now.fit.sigma2_hat), np.sqrt(was.fit.sigma2_hat)
            assert abs(sd_now - abs(c) * sd_was) <= tol
            assert len(now.comparisons) == len(was.comparisons)
            assert np.all(np.abs(now.comparisons.diff - c * was.comparisons.diff) <= tol)
            assert np.all(np.abs(diff_sd(now) - abs(c) * diff_sd(was)) <= tol)

    @pytest.mark.parametrize("mode,weights", [("raw", FIXED), ("aggregated", TUNED)])
    def test_row_order_does_not_matter(self, dataset, tmp_path, mode, weights):
        base, _ = dataset
        header, *body = (base / "dataset.csv").read_text().splitlines(keepends=True)
        random.Random(5).shuffle(body)
        (tmp_path / "permuted.csv").write_text(header + "".join(body), encoding="utf-8")
        outs = []
        for source in (base / "dataset.csv", tmp_path / "permuted.csv"):
            outs.append(tmp_path / source.stem)
            argv = ["--input", str(source), "--mode", mode, *weights,
                    "--cluster-age", "2", "--cluster-year", "2", "--out", str(outs[-1])]
            assert cli.main(["analyze", *FRAME_FLAGS, *argv]) == 0
        names = sorted(path.name for path in outs[0].iterdir())
        assert names == sorted(path.name for path in outs[1].iterdir())
        for name in names:
            if name == "run.json":
                was, now = (dict(scalars(json.loads((out / name).read_text()))) for out in outs)
                assert was.keys() == now.keys()
                columns = [([was[key]], [now[key]]) for key in was]
                assert {k: v for k, v in was.items() if k.startswith("/validation")} == {
                    k: v for k, v in now.items() if k.startswith("/validation")
                }
            else:
                was, now = (read_rows(out / name) for out in outs)
                assert len(was) == len(now) > 0
                columns = [([row[key] for row in was], [row[key] for row in now]) for key in was[0]]
            for a, b in columns:
                assert_same_numbers(a, b)


def diff_sd(analysis):
    """Standard deviation of each comparison's cluster difference."""
    ka, kb, cov = analysis.comparisons.a, analysis.comparisons.b, analysis.grid.cov
    return np.sqrt(cov[ka, ka] - 2 * cov[ka, kb] + cov[kb, kb])


def assert_same_numbers(was, now):
    """One artifact column of two runs: equal texts, numbers within a relative
    1e-9 of the column's largest magnitude (ci_lo can nearly cancel)."""
    numbers = []
    for a, b in zip(was, now, strict=True):
        try:
            numbers.append((float(a), float(b)))
        except (TypeError, ValueError):
            assert a == b
    if numbers:
        a, b = np.array(numbers).T
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(a))


class TestAggregateCommand:
    def test_aggregate_passthrough(self, dataset, tmp_path):
        base, layout = dataset
        out = tmp_path / "agg"
        run_cli(
            "aggregate", *FRAME_FLAGS,
            "--input", str(base / "dataset.csv"),
            "--out", str(out),
        )
        rows = read_rows(out / "aggregated.csv")
        assert len(rows) == layout.n_trend  # full coverage: every cell occupied
        assert sum(int(r["n"]) for r in rows) == 6 * layout.n_trend
        report = json.loads((out / "aggregate_report.json").read_text())
        assert report["accepted"] == 6 * layout.n_trend

    def test_schema_error_exit_3(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("foo,bar\n1,2\n", encoding="utf-8")
        proc = run_cli(
            "aggregate", *FRAME_FLAGS, "--input", str(data), "--out", str(tmp_path),
            expect=3,
        )
        assert json.loads(proc.stderr)["error"] == "malformed-file"


@pytest.mark.parametrize(
    "command,artifact",
    [("analyze", "run.json"), ("simulate", "dataset.csv"), ("aggregate", "aggregated.csv")],
)
def test_failed_artifact_write_exit_2(dataset, tmp_path, capsys, command, artifact):
    base, _ = dataset
    flags = {
        "analyze": ["--input", str(base / "dataset.csv"), "--lambda1", "1.0", "--lambda2", "1.0"],
        "simulate": ["--model", str(base / "model.json")],
        "aggregate": ["--input", str(base / "dataset.csv")],
    }[command]
    (tmp_path / artifact).mkdir()  # a directory takes the artifact's path
    code = cli.main([command, *FRAME_FLAGS, *flags, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "config"
    assert error["message"].startswith(f"cannot write {tmp_path / artifact}: ")


# one text per RunConfig field, read differently from the base file's value
SETTING_TEXT = {
    "y_min": "2000.25", "y_max": "2004.75", "a_min": "10.5", "a_max": "16.5",
    "input": "data.csv", "mode": "raw", "schema": "derived", "f_smv": "0.3",
    "f_smu": "0.1", "delta": "0.02", "fstat": "median", "point_v": "2,3",
    "point_u": "1, 4", "cluster_age": "3", "cluster_year": "2", "lambda1": "2.5",
    "lambda2": "1e-3", "min_cell_count": "4", "out": "results", "seed": "7",
    "model": "model.json",
}
BASE_SETTINGS = {
    "y_min": "2000.0", "y_max": "2004.9", "a_min": "10.0", "a_max": "16.0",
    "lambda1": "1.0", "lambda2": "1.0",
}
COMMAND_KEYS = [
    (name, key) for name, _, _, _, keys in cli._COMMANDS for key in cli._COMMON_KEYS + keys
]
KEYS = {name: cli._COMMON_KEYS + keys for name, _, _, _, keys in cli._COMMANDS}
# every (command, RunConfig field) pair the command does not accept
FOREIGN_KEYS = [
    (name, key) for name, keys in KEYS.items() for key in SETTING_TEXT if key not in keys
]
# a value each single-setting rule rejects
BAD_VALUES = [
    ("analyze", "mode", "bogus"), ("analyze", "schema", "bogus"), ("aggregate", "schema", "Xya"),
    ("analyze", "fstat", "bogus"), ("analyze", "lambda1", "nan"), ("analyze", "lambda1", "-1"),
    ("analyze", "lambda2", "inf"), ("analyze", "delta", "inf"), ("analyze", "cluster_age", "0"),
    ("analyze", "cluster_year", "-2"), ("analyze", "min_cell_count", "-1"),
    ("simulate", "seed", "-1"),
    ("analyze", "f_smv", "7"), ("analyze", "delta", "0"),
]
# values their readers accept and the smoothness targets reject, before any file is read
OUT_OF_RANGE = {("f_smv", "7"), ("delta", "0")}


class TestSettings:
    def test_every_field_has_a_flag(self):
        names = {f.name for f in dataclasses.fields(cli.RunConfig)}
        assert {key for _, key in COMMAND_KEYS} == names == SETTING_TEXT.keys()

    @pytest.mark.parametrize("command,key", COMMAND_KEYS)
    def test_flag_and_config_line_agree(self, tmp_path, command, key):
        def config(argv, settings):
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")
            args = cli.build_parser().parse_args([command, "--config", str(cfg), *argv])
            return cli._build_config(args)

        base = {k: v for k, v in BASE_SETTINGS.items() if k in KEYS[command]}
        flag = "--" + key.replace("_", "-")
        by_flag = config([flag, SETTING_TEXT[key]], base)
        by_file = config([], {**base, key: SETTING_TEXT[key]})
        assert by_flag == by_file
        assert getattr(by_flag, key) != getattr(config([], base), key)

    @pytest.mark.parametrize("command,key", FOREIGN_KEYS)
    def test_foreign_setting_exit_2(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {SETTING_TEXT[key]}\n", encoding="utf-8")
        flag = "--" + key.replace("_", "-")
        # the flag of another command is unknown here, abbreviations included
        for argv, named in (
            (["--config", str(cfg)], f"{key} is not a setting of {command}"),
            ([flag, SETTING_TEXT[key]], f"unrecognized arguments: {flag}"),
        ):
            code = cli.main([command, *FRAME_FLAGS, *argv, "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 2 and err.count("\n") == 1
            error = json.loads(err)
            assert error["error"] == "config"
            assert named in error["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,key,text", BAD_VALUES)
    def test_bad_value_rejected_as_flag_and_config_line(self, tmp_path, capsys, command, key, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n", encoding="utf-8")
        messages = []
        for argv in (["--" + key.replace("_", "-"), text], ["--config", str(cfg)]):
            code = cli.main([command, *FRAME_FLAGS, *argv, "--out", str(tmp_path / "out")])
            error = json.loads(capsys.readouterr().err)
            out_of_range = (key, text) in OUT_OF_RANGE
            assert code == 2 and error["error"] == ("index-out-of-range" if out_of_range else "config")
            messages.append(error["message"])
        assert messages[0] == messages[1]
        if out_of_range:
            assert messages[0].startswith(f"{key} must ") and messages[0].endswith(f"got {float(text)!r}")
        else:
            assert messages[0].startswith(f"bad value for {key}: {text!r}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,text", sorted(OUT_OF_RANGE))
    def test_targets_checked_at_fixed_lambdas(self, tmp_path, capsys, key, text):
        missing = tmp_path / "missing.csv"  # reading it would exit 2 as config
        code = cli.main(["analyze", *FRAME_FLAGS, "--input", str(missing), "--lambda1", "1",
                         "--lambda2", "1", "--" + key.replace("_", "-"), text,
                         "--out", str(tmp_path / "out")])
        assert code == 2 and json.loads(capsys.readouterr().err)["error"] == "index-out-of-range"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("weights", [FIXED, TUNED], ids=["fixed", "tuned"])
    @pytest.mark.parametrize("flag", ["--point-v", "--point-u"])
    def test_points_checked_before_reading_whatever_the_lambdas(self, tmp_path, capsys, weights, flag):
        missing = tmp_path / "missing.csv"  # reading it would exit 2 as config
        code = cli.main(["analyze", *FRAME_FLAGS, "--input", str(missing), *weights,
                         flag, "99,99", "--out", str(tmp_path / "out")])
        error = json.loads(capsys.readouterr().err)
        assert code == 2 and error["error"] == "index-out-of-range"
        assert "(99, 99)" in error["message"]

    @pytest.mark.parametrize("weights", [FIXED, TUNED], ids=["fixed", "tuned"])
    @pytest.mark.parametrize("kind", ["mean", "median", "min"])
    @pytest.mark.parametrize("flag", ["--point-v", "--point-u"])
    def test_points_rejected_with_a_whole_field_statistic(self, tmp_path, capsys, weights, kind, flag):
        missing = tmp_path / "missing.csv"  # reading it would exit 2 as config too
        code = cli.main(["analyze", *FRAME_FLAGS, "--input", str(missing), *weights, "--fstat", kind,
                         flag, "99,99", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        error = json.loads(err)
        name = flag[2:].replace("-", "_")
        assert error == {"error": "config",
                         "message": f"selected_{name} is read by fstat 'selected-point' only, not {kind!r}"}
        assert not (tmp_path / "out").exists()


class TestConfigAndModelFiles:
    def aggregate(self, dataset, tmp_path, text, *flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        base, _ = dataset
        return cli.main(["aggregate", "--config", str(cfg), "--input", str(base / "dataset.csv"), *flags])

    def test_percent_is_read_literally(self, dataset, tmp_path):
        out = tmp_path / "o%ut"
        frame = "".join(f"{k} = {v}\n" for k, v in BASE_SETTINGS.items() if k in KEYS["aggregate"])
        assert self.aggregate(dataset, tmp_path, f"{frame}out = {out}\n") == 0
        assert (out / "aggregated.csv").is_file()

    def test_default_section_is_read_as_any_section(self, dataset, tmp_path, capsys):
        code = self.aggregate(dataset, tmp_path, "[DEFAULT]\nbogus = 1\nschema = nonsense\n",
                              *FRAME_FLAGS, "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert json.loads(err) == {"error": "config", "message": "unknown config key 'bogus'"}
        settings = "".join(f"{k} = {v}\n" for k, v in BASE_SETTINGS.items() if k in KEYS["aggregate"])
        out = tmp_path / "out"
        assert self.aggregate(dataset, tmp_path, f"[DEFAULT]\n{settings}out = {out}\n") == 0
        assert (out / "aggregated.csv").is_file()

    def test_key_set_in_two_sections_exit_2(self, dataset, tmp_path, capsys):
        base, _ = dataset
        frame = "".join(f"{k} = {v}\n" for k, v in BASE_SETTINGS.items())
        cfg = tmp_path / "run.cfg"
        argv = ["analyze", "--config", str(cfg), "--input", str(base / "dataset.csv")]
        cfg.write_text(f"[a]\nmode = raw\n[b]\n{frame}mode = aggregated\n", encoding="utf-8")
        code = cli.main([*argv, "--out", str(tmp_path / "twice")])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert json.loads(err) == {"error": "config", "message": "config key 'mode' is set in more than one section"}
        assert not (tmp_path / "twice").exists()
        # keys spread over sections, each set once, are read from all of them
        cfg.write_text(f"[a]\nmode = raw\n[b]\n{frame}", encoding="utf-8")
        assert cli.main([*argv, "--out", str(tmp_path / "once")]) == 0
        assert json.loads((tmp_path / "once" / "run.json").read_text())["mode"] == "raw"

    def test_undecodable_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"y_min = 2000\xff\n")
        code = cli.main(["aggregate", "--config", str(cfg), "--input", "data.csv"])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "config" and error["message"].startswith(f"cannot read config file {cfg}")

    @pytest.mark.parametrize(
        "content", [b'{"v0": [1\xff]}', b"[" * 100_000 + b"]" * 100_000], ids=["undecodable", "over-nested"]
    )
    def test_unreadable_model_exit_3(self, tmp_path, capsys, content):
        model = tmp_path / "model.json"
        model.write_bytes(content)
        code = cli.main(["simulate", *FRAME_FLAGS, "--model", str(model), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3 and err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "spec-mismatch" and error["message"].startswith(f"model file {model} ")
        assert not (tmp_path / "out" / "dataset.csv").exists()
