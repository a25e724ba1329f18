"""Smoke checks of the study scripts under ``studies/``, loaded by path."""

import importlib.util
from pathlib import Path

import pytest

STUDIES = Path(__file__).resolve().parent.parent / "studies"


def load(name):
    spec = importlib.util.spec_from_file_location(name, STUDIES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


eval_faults = load("eval_faults")


@pytest.mark.parametrize("size", list(eval_faults.SIZES))
def test_eval_faults_probes_each_size(size):
    out = eval_faults.probe(eval_faults.SIZES[size], repeats=1, seed=1, fresh_draw=False)
    assert set(out) == {"minor_faults", "wall_ms", "draw_ms", "first_eval"}
    for key in ("minor_faults", "wall_ms", "draw_ms"):
        assert set(out[key]) == {"median", "min", "max"}
        assert out[key]["min"] <= out[key]["median"] <= out[key]["max"]
    assert set(out["first_eval"]) == {"traced_peak_b", "kept_b"}
    assert out["first_eval"]["kept_b"] > 0
