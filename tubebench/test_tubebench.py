"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q tubebench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY = {
    "poisson_field": {"size": 64, "levels": 2},
    "spectral_lift": {"size": 32, "levels": 1},
    "reproduce": {"size": 64, "levels": 2},
    "cone_geometry": {"szego_points": 2, "cloud": 64, "scalar": 8, "rows": 4, "per_row": 2},
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_tiny_case_passes_its_checks(name, tmp_path):
    wl = workloads.make_workload(name, str(tmp_path), **TINY[name])
    residuals = wl.case(wl.draw(workloads.case_rng(0, name, 0)))
    assert set(wl.tolerances) <= set(residuals) <= set(workloads.CHECK_NAMES)
    for key, tol in wl.tolerances.items():
        assert residuals[key] <= tol, key


def test_inputs_follow_the_seed():
    wl = workloads.ConeGeometry(**TINY["cone_geometry"])
    a, b, c = (wl.draw(workloads.case_rng(seed, wl.name, 3)) for seed in (5, 5, 6))
    assert np.array_equal(a[0][0], b[0][0])
    assert not np.array_equal(a[0][0], c[0][0])


class _Ticks:
    """Clock that advances one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_of_nested_spans():
    module = type(sys)("fake_layer")
    module.inner = lambda: None
    module.outer = lambda: (module.inner(), module.inner())
    tracer = Tracer([(module, "fake", ("outer", "inner"), {})], clock=_Ticks())
    with tracer:
        module.outer()
    # outer reads the clock at 1 and 6; the inner spans at 2-3 and 4-5
    assert tracer.calls == {"fake.outer": 1, "fake.inner": 2}
    assert tracer.self_s == {"fake.outer": 3.0, "fake.inner": 2.0}
    assert not hasattr(module.outer, "__wrapped__")


def test_work_counter_and_exception_span():
    module = type(sys)("fake_layer")

    def fails():
        raise ValueError("boom")

    module.fails = fails
    module.work = lambda n: n
    counters = {"work": lambda args, kwargs, result: {"units": result}}
    tracer = Tracer([(module, "fake", ("fails", "work"), counters)], clock=_Ticks())
    with tracer:
        with pytest.raises(ValueError):
            module.fails()
        module.work(7)
    module.work(8)
    assert tracer.calls == {"fake.fails": 1, "fake.work": 1}
    assert tracer.work == {"units": 7}
    assert tracer._child_s == []


def _run_bench(workload, trace, cwd):
    proc = subprocess.run(
        [sys.executable, "tubebench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    return proc


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_the_declaration(trace, group):
    proc = _run_bench("cone_geometry", trace, ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_CASES
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in declared[group]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == expected
    for name, unit in emitted.items():
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    for workload in declared["workloads"]:
        assert NAME.fullmatch(workload["name"]) and workload["name"] in workloads.WORKLOADS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "tubebench",
                    ignore=shutil.ignore_patterns("__pycache__", "_scratch-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench("reproduce", 0, tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
