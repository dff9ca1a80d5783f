"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload runs once in smoke mode, untraced and traced, and must
produce the metrics ``BENCHMARK.json`` declares with every op correct.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    done = _run(ROOT, workload, trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "families", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_rebinds_imported_names_and_restores_them(tmp_path):
    from latticelab import cli, convergence, serialize

    original = convergence.check_buo_cauchy
    command = cli._COMMANDS["generate"]
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.check_buo_cauchy is convergence.check_buo_cauchy is not original
        assert cli._COMMANDS["generate"] is not command
        assert cli.main(["generate", "steps", "--out", str(tmp_path / "s")]) == 0
        fam = str(tmp_path / "s" / "step_family.json")
        assert cli.main(["check", "--family", fam, "--mode", "buo-cauchy",
                         "--policy", "sampled", "--count", "4",
                         "--out", str(tmp_path / "c")]) == 1
    finally:
        tracer.uninstall()
    assert convergence.check_buo_cauchy is original is cli.check_buo_cauchy
    assert cli._COMMANDS["generate"] is command
    summary = tracer.summary()
    assert summary["self_ms"]["convergence"] > 0
    assert sum(summary["self_ms"].values()) == pytest.approx(summary["root_ms"])
    assert summary["entries"]["cli"] == 2  # one root span per main() call
    assert summary["counts"]["serialize.bytes_read"] == 2 * os.path.getsize(fam)
    assert summary["counts"]["serialize.bytes_written"] > 0
    # nothing stays wrapped: a fresh summary after uninstall records nothing
    tracer.reset()
    serialize.load_family(fam)
    assert tracer.summary()["spans"] == 0
