import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from ctrend.design import build_system_raw
from ctrend.grid import Frame, ParameterLayout
from ctrend.synth import TrueModel, full_coverage_plan, generate, smooth_boundary, smooth_trend

# `python -m ctrend` subprocesses in the CLI tests import the package from
# this checkout, as the tests themselves do through pytest's `pythonpath`,
# and turn warnings into errors, as pytest's `filterwarnings` does here.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
os.environ["PYTHONWARNINGS"] = "error"

# Property tests draw the same examples on every run and every machine, and
# keep no example database between runs.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def band_calls(monkeypatch):
    """Records every Takahashi selected inversion (`solver._selected_inverse`)."""
    from ctrend import solver

    calls = []
    original = solver._selected_inverse

    def counted(factor):
        calls.append(factor.shape)
        return original(factor)

    monkeypatch.setattr(solver, "_selected_inverse", counted)
    return calls


@pytest.fixture
def v2z_calls(monkeypatch):
    """Records every map back to parameter coordinates (`solver.build_v2z`)."""
    from ctrend import solver

    calls = []
    original = solver.build_v2z

    def counted(layout):
        calls.append(layout)
        return original(layout)

    monkeypatch.setattr(solver, "build_v2z", counted)
    return calls


@pytest.fixture(scope="session")
def small_frame():
    """Spans (4, 6): 35 trend cells, 48 level points, 61 parameters."""
    return Frame.from_bounds(2000.0, 2004.9, 10.0, 16.0)


@pytest.fixture(scope="session")
def small_layout(small_frame):
    return ParameterLayout.from_frame(small_frame)


@pytest.fixture(scope="session")
def paper_frame():
    """The survey-study shape: spans (10, 39), 492 parameters."""
    return Frame.from_bounds(1982.0, 1992.9, 25.0, 64.0)


@pytest.fixture(scope="session")
def paper_layout(paper_frame):
    return ParameterLayout.from_frame(paper_frame)


@pytest.fixture(scope="session")
def small_model(small_frame, small_layout):
    return TrueModel(
        small_frame,
        smooth_boundary(small_layout),
        smooth_trend(small_layout),
        noise_sd=0.0,
    )


@pytest.fixture(scope="session")
def small_noisefree_system(small_frame, small_model):
    meas = generate(small_model, full_coverage_plan(small_frame, (0.25, 0.75)), seed=5)
    return build_system_raw(small_frame, meas)


@pytest.fixture(scope="session")
def small_noisy_fit(small_frame, small_layout):
    from ctrend.solver import solve

    model = TrueModel(
        small_frame,
        smooth_boundary(small_layout),
        smooth_trend(small_layout),
        noise_sd=0.6,
    )
    meas = generate(model, full_coverage_plan(small_frame, (0.2, 0.5, 0.8), per_fraction=3), seed=9)
    system = build_system_raw(small_frame, meas)
    return solve(system, 1.0, 1.0)
