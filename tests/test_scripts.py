"""The helper scripts run from a plain checkout, without an installed package."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_run_acceptance_finds_the_package_in_the_checkout(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # one acceptance test shows the import works; tier-1 runs the module itself
    env["PYTEST_ADDOPTS"] = "-k test_reports_are_byte_identical_for_a_fixed_seed"
    log = tmp_path / "gate.log"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_acceptance.py"), "--log", str(log)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    out = log.read_text()
    assert "ModuleNotFoundError" not in out
    assert proc.returncode == 0, out[-2000:]
    assert " passed" in out
