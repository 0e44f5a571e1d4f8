"""Self-tests of the benchmark, kept out of the repository's test run.

    python3 -m pytest -q bench/selftest.py

Tiny grids keep each workload to a second or two; the reference pass of the
traced run still runs at full size.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _emitted(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _attributes() -> dict:
    """Every attribute of numpy.fft and of each fnlswaves module and class."""
    import numpy.fft

    import fnlswaves
    from fnlswaves import accel, analysis, cli, evolve, params, petviashvili, spectral

    owners = [numpy.fft, fnlswaves, accel, analysis, cli, evolve, params, petviashvili, spectral]
    owners += [v for m in owners[1:] for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("fnlswaves")]
    return {(o.__name__, k): v for o in owners for k, v in vars(o).items()}


def test_spec_lists_the_names_the_code_emits():
    assert _units("end_to_end") == run.E2E_UNITS
    assert _units("per_layer") == run.LAYER_UNITS
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOAD_NAMES


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs(name, tmp_path):
    def inputs(seed, sub):
        return workloads.make(name, seed, str(tmp_path / sub), tiny=True).describe()

    assert inputs(7, "a") == inputs(7, "b")
    assert inputs(7, "a") != inputs(8, "c")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_end_to_end_metric(name):
    result = run.run_workload(name, seed=3, seconds=0.5, trace=False, tiny=True)
    assert result["correct"], result["notes"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert _emitted(result) == run.E2E_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_traced_run_emits_every_layer_metric_and_restores(name):
    before = _attributes()
    result = run.run_workload(name, seed=3, seconds=0.5, trace=True, tiny=True)
    after = _attributes()
    assert result["correct"], result["notes"]
    assert _emitted(result) == run.LAYER_UNITS
    assert not [k for k, src in result["source"].items() if src == "no data"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    for mw, its in ((1, 42), (3, 30), (4, 22), (6, 18)):
        assert metrics[f"accel.base_iters_mw{mw}"] == its
    assert metrics["petviashvili.fft_per_step_call"] == 4
    assert metrics["petviashvili.fft_per_diagnostics_call"] == 2
    assert metrics["trace.counter_mismatches"] == 0
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", run.WORKLOAD_NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
