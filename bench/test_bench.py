"""Tests of the benchmark itself, on the --smoke size of every workload."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

HERE = Path(__file__).resolve().parent


def _main(capsys, *argv) -> tuple[dict, dict]:
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _traced(capsys, workload: str, seed: int) -> tuple[dict, dict]:
    return _main(capsys, "--workload", workload, "--seed", str(seed), "--trace", "1", "--smoke")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(capsys, workload):
    report, result = _main(capsys, "--workload", workload, "--seed", "4", "--seconds", "0.5",
                           "--trace", "0", "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = dict(run.E2E)
    assert list(result["metrics"]) == list(run.E2E_FINAL)
    assert list(report["metrics"]) == [name for name, _ in run.E2E]
    for name, entry in report["metrics"].items():
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))
    assert result["metrics"]["setup_s"]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_runs_repeat_work_counts(capsys, workload):
    first_report, first = _traced(capsys, workload, 3)
    second_report, second = _traced(capsys, workload, 3)
    units = dict(tracer.METRICS)
    for result in (first, second):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert list(result["metrics"]) == list(tracer.METRIC_NAMES)
        assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    for name in tracer.WORK_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first_report["max_err"] == second_report["max_err"]
    assert first["metrics"]["trace.tasks"]["value"] >= 1
    _, other = _traced(capsys, workload, 5)
    assert list(other["metrics"]) == list(tracer.METRIC_NAMES)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, dict(run.E2E)[name]) for name in run.E2E_FINAL]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.METRICS)


def test_tracer_restores_every_binding():
    hg = run._import_library()
    import hillgreen.greens as greens
    import hillgreen.integrator as integrator
    import hillgreen.spectrum as spectrum
    before = {
        "fs": (integrator.fundamental_solutions, greens.fundamental_solutions,
               spectrum.fundamental_solutions),
        "find": (hg.find_eigenvalues, spectrum.find_eigenvalues),
        "ivp": integrator.solve_ivp, "brentq": spectrum.brentq,
        "eval": hg.Potential.__dict__["eval"],
        "traj": hg.SolutionBasis.__dict__["trajectory"],
        "call": hg.BvpSolution.__dict__["__call__"],
    }
    t = tracer.Tracer()
    with t:
        assert integrator.fundamental_solutions is not before["fs"][0]
        assert greens.fundamental_solutions is integrator.fundamental_solutions
        assert spectrum.brentq is not before["brentq"]
        assert hg.Potential.__dict__["eval"] is not before["eval"]
        hg.clear_cache()
        hg.find_eigenvalues(hg.load_builtin("ex3"), "D", max_count=1)
    assert (integrator.fundamental_solutions, greens.fundamental_solutions,
            spectrum.fundamental_solutions) == before["fs"]
    assert (hg.find_eigenvalues, spectrum.find_eigenvalues) == before["find"]
    assert integrator.solve_ivp is before["ivp"] and spectrum.brentq is before["brentq"]
    assert hg.Potential.__dict__["eval"] is before["eval"]
    assert hg.SolutionBasis.__dict__["trajectory"] is before["traj"]
    assert hg.BvpSolution.__dict__["__call__"] is before["call"]
    m = t.metrics()
    assert m["spectrum.find_calls"] == 1 and m["integrator.rhs_evals"] > 0
    assert m["potential.eval_calls"] > 0


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "spectra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_dominance_check_holds_margins_to_kernel_tolerance():
    run._import_library()
    import numpy as np
    import workloads

    class Table:
        def combined(self):
            return np.full((3, 3), 30.0)

    task = workloads.KernelsTask(pot=None, lam=0.0, n=2)
    kernels = {bc: Table() for bc in workloads.BC_ALL}

    def check(margin: float, passed: bool):
        rep = {"pass": passed, "checks": [{"min_margin": 0.5}, {"min_margin": margin}]}
        return task.check(([], kernels, {"bound2_p": rep, "nd_neg": None}))

    noise = check(-1.3e-9, False)
    assert not noise.failed and noise.observations == ["dominance_verdict_false_within_tolerance"]
    assert noise.err == 1.3e-9
    assert not check(0.0, True).failed
    wrong = check(-1e-5, False)
    assert wrong.failed and "bound2_p" in wrong.notes[0]
    assert check(-1e-5, True).failed
